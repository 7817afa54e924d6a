r"""
The checker of what fibercone.digraph_analysis finds: it certifies, never
searches, imports only the standard library and the store, and reads plain
data, in which JSON arrays may stand for tuples, so it shares no code with
the engine (certifying algorithms: McConnell, Mehlhorn, Naeher and
Schweitzer 2011, Comput. Sci. Rev. 5).  A failure raises RuntimeError
mentioning "re-verification".

A skeleton is (nodes, chains, segments, starts): the skeleton vertices;
chains[x], the chains out of nodes[x], each (path, end), where path is its
start then its interior vertices, so len(path) is its weight; the chain
interiors as segments (start, stop, (x, i), offset), vertices start ..
stop - 1 at offsets offset .. of chains[x][i]'s path, sorted by start; and
their starts.  It is checked in O(runs + extra edges + skeleton vertices +
segments) steps and C-level comparisons of the chain paths, against the
store: the skeleton vertices and the segments tile the vertices once; every
segment lies inside one run or is one vertex with one out-edge, and one
edge enters it, at its first vertex (so its vertices have in- and
out-degree 1); the chains out of a skeleton vertex start with exactly its
out-edges; every chain is a walk of the digraph between skeleton vertices,
and its interior is its segments at their stated offsets.  A walk is
checked a run at a time: from a run member it must follow the run, which
one C-level comparison checks, and only the steps from other vertices are
looked up among the extra edges.

A residue table is (roots, c, cycles, rounds, masks), for L roots that
share the modulus c: bit rho L + i is in the c L-bit set masks[x][k] iff
the least length of a walk roots[i] -> nodes[x] congruent to rho mod c is
q c + rho, for q = rounds[x][k]; a residue in no mask is unreached in its
root's lane; cycles[i] is a closed walk through roots[i] whose length
divides c, as its vertices, so repeated it is one of length c.  It is
checked in two steps, once for all its roots:

  * the clauses on its rounds: each root is a skeleton vertex; there is one
    cycle for each root, a closed walk through it of a length dividing c
    and a walk of the digraph; each vertex's rounds increase, its masks are
    nonempty sets of bits below c L, and no bit is in two of them (their
    sum equals their OR); and D[roots[i]][0] = 0 in lane i, for every i;
  * Bellman's equations, whose only solution with positive weights is the
    exact table of least walk lengths, on the round masks as the search
    moves them, every lane at once.  A chain x -> z of weight a c + b sends
    x's round-q mask N to z as (N << b L) & full in round q + a and as
    N >> (c - b) L in round q + a + 1, and roots[i] also gets bit i in
    round 0.  Walking z's rounds in order with a running OR of what is
    sent, the bits first sent in each round must be z's mask of that round:
    one comparison for both the lower bound (nothing is sent before its
    round) and the attained clause (something is sent in it).  A failure
    names the root and residue of the least failing bit of the first
    failing vertex.  That is O(masks x chains out) operations on c L-bit
    ints, as in the search, plus a sort of each vertex's rounds.

A negative verdict ("not primitive", "never covers") is a certificate that
no image of a source v is every vertex (V >= 2).  It starts with the forced
walk from v, through vertices of out-degree 1 up to its last vertex u, so
each image along it is a single vertex; then one of:

  * cycle: u occurs earlier on the walk, so every image is a single vertex;
  * closed set: a set closed under successors holding u's out-neighbours
    but not u, so no later image contains u (the vertices reachable from
    them, when no closed walk passes through u, as at a degree-zero u);
  * unreached residue: a table with a lane rooted at u, certified again,
    with a residue of that lane that no walk reaches; with every in-degree
    >= 1, also checked, coverage is monotone, so infinitely many missing
    lengths mean that it never happens.  (A residue mod c unreached leaves
    one unreached mod the length of u's shortest closed walk, which divides
    c, so the verdict may name that length.)
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import chain
from math import inf
from operator import lt, or_
from typing import NamedTuple, NoReturn, Sequence

from .traintrack_digraph import Digraph


# a skeleton and a residue table, laid out as the module docstring says
Skeleton = Sequence
Table = Sequence


class _Refusal(NamedTuple):
    """A negative verdict's certificate (see the module docstring): the
    forced walk, then the closed set, the table, or neither for a cycle."""

    why: str
    walk: tuple[int, ...]
    closed: frozenset[int] | None = None
    table: Table | None = None


def _certify_skeleton(g: Digraph, sk: Skeleton) -> None:
    """Raises unless the skeleton is right; reads only the store, at the
    granularity of segments, never vertex by vertex."""

    def fail(why: str) -> None:
        raise RuntimeError(f"branch skeleton failed re-verification: {why}")

    nodes, chains, segments, starts = sk
    labels, n = g.labels, g.vertex_count
    if len(chains) != len(nodes):
        fail("some skeleton vertex has no list of chains")
    # the nodes and segments tile 0 .. V - 1 exactly once, so the nodes are
    # distinct, and the starts that the engine bisects agree with them
    ends = list(chain.from_iterable(sorted(
        [(v, v + 1) for v in nodes] + [(seg[0], seg[1]) for seg in segments]
    )))
    if (
        ends[1:-1:2] != ends[2::2]
        or not all(map(lt, ends[::2], ends[1::2]))
        or ends[:1] + ends[-1:] != ([0, n] if n else [])
        or [seg[0] for seg in segments] != list(starts)
        or not all(map(lt, starts, starts[1:]))
    ):
        fail("some vertex is neither a skeleton vertex nor one chain's interior")
    # a segment lies inside one run, or is one vertex with one out-edge, and
    # one edge enters it, at its first vertex
    for start, stop, _, _ in segments:
        last = g.run_last(start)
        if last is None or stop > last:
            if stop != start + 1:
                fail("some segment leaves its run")
            if len(g.successors(start)) != 1:
                fail("some chain interior has in- or out-degree != 1")
        if g.extra_into(start + 1, stop):
            fail("an edge enters a segment past its first vertex")
        if g.in_degree(start) != 1:
            fail("some chain interior has in- or out-degree != 1")
    skeleton, used = set(nodes), 0
    for x, (v, out) in enumerate(zip(nodes, chains)):
        firsts_out = sorted(path[1] if len(path) > 1 else end for path, end in out)
        if firsts_out != list(g.successors(v)):
            fail(f"the chains out of {labels[v]!r} do not start with its out-edges")
        for k, (path, end) in enumerate(out):
            if path[0] != v or end not in skeleton:
                fail(f"a chain out of {labels[v]!r} has the wrong ends")
            if _extra_steps(g, (*path, end)) is None:
                fail(f"a chain out of {labels[v]!r} is not a path of edges")
            # the interior, a segment at a time, at the stated offsets
            i = 1
            while i < len(path):
                at = bisect_right(starts, path[i]) - 1
                start, stop, ref, offset = segments[at] if at >= 0 else (None,) * 4
                if (
                    start != path[i]
                    or tuple(ref) != (x, k)
                    or offset != i
                    or i + stop - start > len(path)
                    or path[i + stop - start - 1] != stop - 1
                ):
                    fail(f"a chain out of {labels[v]!r} misplaces its interior")
                i += stop - start
                used += 1
    if used != len(segments):
        fail("some vertex is neither a skeleton vertex nor one chain's interior")


def _extra_steps(g: Digraph, walk: Sequence[int]) -> list[int] | None:
    """The vertices from which walk takes an extra edge, in walk order;
    None if walk is not a walk of g, checked a run at a time."""
    taken, i, end = [], 0, len(walk) - 1
    while i < end:
        a = walk[i]
        last = g.run_last(a)
        if last is not None:
            j = min(end, i + last - a)
            if tuple(walk[i:j + 1]) != tuple(range(a, a + j - i + 1)):
                return None
            i = j
        elif walk[i + 1] in g.successors(a):
            taken.append(a)
            i += 1
        else:
            return None
    return taken


def _fail_table(g: Digraph, roots: Sequence[int], why: str) -> NoReturn:
    named = ", ".join(repr(g.labels[u]) for u in roots)
    raise RuntimeError(f"residue table of {named} failed re-verification: {why}")


def _moves(sk: Skeleton) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """(where, moves): where[nodes[x]] = x, and (x, z, w) for each chain
    nodes[x] -> nodes[z] of weight w."""
    where = {v: x for x, v in enumerate(sk[0])}
    return where, [(x, where[end], len(path))
                   for x, out in enumerate(sk[1]) for path, end in out]


def _certify_rounds(
    g: Digraph, sk: Skeleton, table: Table, where: dict[int, int]
) -> None:
    """The clauses on a table's rounds: roots that are skeleton vertices,
    one cycle for each, lists of increasing rounds with nonempty masks of
    distinct residues below c for each root, and D[u][0] = 0 in each
    root's lane; where comes from _moves."""
    roots, c, cycles, rounds, masks = table
    labels, nodes, step = g.labels, sk[0], len(roots)
    if len(cycles) != step:
        _fail_table(g, roots, "the table does not hold one cycle for each root")
    for u, cycle in zip(roots, cycles):
        # the rows are the skeleton vertices', so each root must be one
        if u not in where:
            _fail_table(g, (u,), "its root is not a skeleton vertex")
        length = len(cycle) - 1
        if not 0 < length <= c or c % length or cycle[0] != u or cycle[-1] != u:
            _fail_table(g, (u,), f"the cycle is not a closed walk of length {c} "
                        "through it, once or repeated")
        if _extra_steps(g, cycle) is None:
            _fail_table(g, (u,), "the cycle is not a walk of the digraph")
    full, count = (1 << c * step) - 1, len(nodes)
    if len(rounds) != count or len(masks) != count:
        _fail_table(g, roots, f"the table is not {count} rows of {c} residues")
    for x, (qs, ms) in enumerate(zip(rounds, masks)):
        if (
            len(qs) != len(ms)
            or not all(map(lt, qs, qs[1:]))
            or qs and qs[0] < 0
            or 0 in ms
            or ms and max(ms) > full
        ):
            _fail_table(
                g, roots, f"the rounds of {labels[nodes[x]]!r} are not increasing "
                f"rounds of nonempty sets of {c} residues"
            )
        # the sum of nonnegative ints equals their union iff no two share
        # a bit
        if sum(ms) != reduce(or_, ms, 0):
            _fail_table(
                g, roots, f"D[{labels[nodes[x]]!r}] has two lengths in one residue"
            )
    # D[u][0] = 0: the first round of roots[i] is round 0, and its mask
    # holds residue 0 of lane i
    for i, u in enumerate(roots):
        qs = rounds[where[u]]
        if not (qs and qs[0] == 0 and masks[where[u]][0] >> i & 1):
            _fail_table(g, (u,), "D[u][0] != 0")


def _certify_masks(
    g: Digraph, sk: Skeleton, table: Table,
    where: dict[int, int], moves: list[tuple[int, int, int]],
) -> None:
    """Bellman's equations on the round masks of a table that
    _certify_rounds has passed, with sk's (where, moves) from _moves."""
    roots, c, _, rounds, masks = table
    step = len(roots)
    full = (1 << c * step) - 1
    into: list[list[tuple[int, int, int, int]]] = [[] for _ in rounds]
    for x, z, w in moves:
        a, b = divmod(w, c)
        into[z].append((x, a, b * step, (c - b) * step))
    # empty[z]: the lanes whose root is nodes[z], which its empty walk
    # reaches in round 0
    empty: dict[int, int] = {}
    for i, u in enumerate(roots):
        empty[where[u]] = empty.get(where[u], 0) | 1 << i
    for z, chains_in in enumerate(into):
        # sent[q]: the residues that the chains into z, and the roots' empty
        # walks, reach in round q, for every round that sends or that z claims
        sent = dict.fromkeys(rounds[z], 0)
        if z in empty:
            sent[0] = empty[z]
        get = sent.get
        for x, a, b, back in chains_in:
            for q, mask in zip(rounds[x], masks[x]):
                q += a
                sent[q] = get(q, 0) | mask << b & full
                if mask >> back:
                    sent[q + 1] = get(q + 1, 0) | mask >> back
        # the residues first sent in each round are z's mask of that round
        claimed = dict(zip(rounds[z], masks[z]))
        seen = bad = 0
        for q in sorted(sent):
            grown = seen | sent[q]
            if grown ^ seen != claimed.get(q, 0):
                bad |= grown ^ seen ^ claimed.get(q, 0)
            seen = grown
        if bad:
            bit = (bad & -bad).bit_length() - 1
            rho, i = divmod(bit, step)
            have, given = (
                min((q for q, mask in by.items() if mask >> bit & 1), default=inf)
                for by in (claimed, sent)
            )
            clause = "lower bound" if given < have else "attained"
            _fail_table(
                g, (roots[i],), f"{clause} fails at D[{g.labels[sk[0][z]]!r}]"
                f"[{rho}] = {have * c + rho}, its predecessors give {given * c + rho}"
            )


def _check_table(g: Digraph, sk: Skeleton, table: Table) -> None:
    """Certifies a table: the clauses on its rounds, then Bellman's
    equations on its masks, on one (where, moves) of sk."""
    where, moves = _moves(sk)
    _certify_rounds(g, sk, table, where)
    _certify_masks(g, sk, table, where, moves)


def _certify_refusal(g: Digraph, sk: Skeleton, v: int, ref: _Refusal) -> None:
    """Raises unless ref certifies that no image of v is every vertex."""
    walk, u = ref.walk, ref.walk[-1]

    def fail(why: str) -> None:
        raise RuntimeError(f"the verdict '{ref.why}' failed re-verification: {why}")

    if walk[0] != v or g.vertex_count < 2:
        fail(f"it is not about {g.labels[v]!r} among two or more vertices")
    taken = _extra_steps(g, walk)
    if taken is None:
        fail("the forced walk is not a walk of the digraph")
    # run members have out-degree 1, so only the vertices that take an
    # extra edge are looked up
    if any(len(g.successors(y)) != 1 for y in taken):
        fail("the forced walk passes a vertex of out-degree != 1")
    if ref.closed is not None:
        if u in ref.closed:
            fail(f"the closed set holds {g.labels[u]!r}")
        if any(t not in ref.closed for s in (u, *ref.closed) for t in g.successors(s)):
            fail("the set is not closed under successors")
    elif ref.table is not None:
        # the table's lane for u is the one rooted at u
        roots, c = ref.table[0], ref.table[1]
        if u not in roots:
            named = ", ".join(repr(g.labels[r]) for r in roots)
            fail(f"the table is rooted at {named}")
        _check_table(g, sk, ref.table)
        step = len(roots)
        ones = ((1 << c * step) - 1) // ((1 << step) - 1) << roots.index(u)
        if all(reduce(or_, masks, 0) & ones == ones for masks in ref.table[4]):
            fail("every residue is reached")
        # the run steps enter first + 1 .. last of each run, and each extra
        # edge its target
        entered = sum(last - first for first, last in g.runs)
        entered += len({t for _, t, _ in g.extra if g.run_last(t - 1) is None})
        if entered != g.vertex_count:
            fail("some in-degree is zero, so coverage need not be monotone")
    elif u not in walk[:-1]:
        fail("the forced walk does not close on itself")
