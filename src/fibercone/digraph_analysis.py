r"""
Reachability analytics on directed multigraphs.

The monodromy of a fibered class acts on the vertices of its train-track
digraph by one-step out-neighborhoods; iterating that set map is how every
bound in this package is extracted.  For a digraph on V vertices with 0/1
adjacency matrix A (multiplicities are irrelevant to reachability and are
collapsed), the m-step image of a vertex set S is

    image_after(S, m) = { v : some walk of length exactly m ends at v,
                              starting in S }
                      = support of A^m . indicator(S).

So v is in the m-step image of {u} iff m lies in W(u, v), the set of
lengths of walks u -> v.  The mixing exponent, covering times and avoidance
witnesses are all read off these walk-length sets, which are computed on the
branch skeleton instead of by stepping sets:

  * The skeleton vertices are the vertices of in- or out-degree != 1 (at
    most six on Gamma_(1,j,k)+: s, a_1, a_k, r_1, r_j, b_k), plus one vertex
    of each cycle made only of vertices of in- and out-degree 1.  Every other
    vertex is interior to exactly one chain, a maximal path through such
    vertices from one skeleton vertex to the next; the chains are the
    skeleton's edges, weighted by their lengths.  Read off the digraph's
    store of index runs and extra edges, the skeleton vertices are among
    the run ends, the ends of extra edges and the vertices with no edge,
    and a chain crosses a run in one step, so the skeleton costs
    O(runs + extra edges) steps, plus one per vertex with no edge out, and
    C-level copies of the chain paths.  Chain interiors are kept as
    segments: a stretch inside one run, or one vertex whose single out-edge
    is an extra edge, with its chain and offset, found by bisection.
  * Residue tables (the shortest-path view of walk-length semigroups of
    Nijenhuis 1979, Amer. Math. Monthly 86, and Boecker and Liptak 2007,
    Algorithmica 48).  For a skeleton vertex u let c be the length of a
    shortest closed walk through u (k or j + k on Gamma), and D[x][rho] the
    least length of a walk u -> x congruent to rho mod c.  Prefixing the
    closed walk lengthens any walk from u by c, so

        W(u, x) = { L : L >= D[x][L mod c] },

    and a chain interior i steps past the chain's start x has W(u, x) + i.
  * The search by rounds.  Every candidate length for (x, rho) is congruent
    to rho, so its round d // c fixes it: rounds are searched in increasing
    order, each in any order, and a residue that a round reaches first is
    final.  Each skeleton vertex holds the residues of a round as one c-bit
    int, so one big-int operation moves all of them (the shift-and
    parallelism of Baeza-Yates and Gonnet 1992, Comm. ACM 35): a chain of
    weight a c + b sends a mask N to round q + a as (N << b) & (2^c - 1)
    and to round q + a + 1 as N >> (c - b), masks sent to one vertex for
    one round are merged, loops shorter than c close a round by doubling
    shifts, and a vertex with one chain out passes on what it settles as
    the search reaches it.  A table keeps each vertex's round masks.  The
    search makes a few operations on c-bit ints per chain out of each
    (vertex, round) pair that settles a residue: E such pairs, at most
    |skeleton| min(R, c) for R rounds.  (1,n,1)+ and (1,n,n^2)+ tables
    have a few or about n rounds that settle many residues each, so E is
    small; on (1,n,n)+ each of about n rounds settles one residue a vertex,
    and E is |skeleton| c, as many as there are states.
  * A vertex v of out-degree 1 has W(v, .) = {0 at v} u (W(succ v, .) + 1),
    so every source first follows its forced walk to a vertex of out-degree
    != 1 and uses that vertex's table.  Tables are built once per source
    and kept on the per-digraph engine, so last_avoidance reuses the tables
    that the exponent computation built.

Every answer is then arithmetic on the tables.  The covering time from v is
the length of its forced walk plus one more than the largest length missing
from any W(u, .) of the walk's end u; the mixing exponent is the largest
covering time, taken over the skeleton vertices (branching ones first) and
the chain interiors, which cover in i more steps than the chain's end when
i steps before it.  last_avoidance is the largest length missing from
W(source, avoided).  avoidance_at and image_after test membership in one
search over states (vertex, steps left), each visited once for all
sources: a state follows its forced walk and is answered by the walk, by
the walk's cycle or by the end's table, and an end with no closed walk
through it (read off the skeleton's strongly connected components, with no
table search) passes the state on to its out-neighbours; the search stops
once every target is hit.  Against the O(r V / 64) of stepping a bitmask r
times, (1,100,10000)+, with V = 20101 and r = 1010199, takes well under a
second.

A separate checker, which only checks and never searches, certifies the
skeleton and each table before any answer built on them leaves this module,
and raises RuntimeError mentioning "re-verification" on any failure:

  * chains, in O(runs + extra edges + skeleton vertices + segments)
    steps and C-level comparisons of the chain paths, all read off the
    store: the skeleton vertices and the segments tile the vertices exactly
    once; every segment lies inside one run or is one vertex with one
    out-edge, and one edge enters it, at its first vertex (so its vertices
    have in- and out-degree 1); the chains out of a skeleton vertex start
    with exactly its out-edges; every chain is a walk of the digraph
    between skeleton vertices, and its interior is its segments at their
    stated offsets.  A walk is checked a run at a time: from a run member
    it must follow the run, which one C-level comparison checks, and only
    the steps from other vertices are looked up among the extra edges;
  * the clauses that both routes share, checked once on the rounds: the
    table is rooted at u; its cycle is an explicit closed walk of length c
    through u and a walk of the digraph; each vertex's rounds increase,
    and its masks are nonempty sets of residues below c; the unreached
    marker is above every least walk length; and D[u][0] = 0;
  * Bellman's equations, whose only solution with positive weights is the
    exact table of least walk lengths, by one of two routes:
      - bitmaps: one int X_x per skeleton vertex, bit L set iff L is the
        least length of its residue, where no two masks of x may share a
        residue.  X_x << w lies inside the +c closure of X_z (every length
        at or above the least of its residue, by doubling shifts) for each
        chain x -> z of weight w (lower bound); and X_z lies inside the OR
        of the X_x << w over the chains into z, plus bit 0 at u
        (attained).  That is about E + |skeleton| log R + 3 chains
        operations on R c-bit ints.
      - rows: the table written out as D[x][rho], where no two masks of x
        may share a residue, then D[z][(rho + w) mod c] <= D[x][rho] + w
        for every chain x -> z of weight w and every rho (lower bound), and
        every other entry equal to D[x][(rho - w) mod c] + w for some chain
        x -> z, or the unreached marker with only unreached predecessors
        (attained).  That is about (|skeleton| + chains) c list entries,
        each handled in Python.
    _bitmaps_cheaper takes the route whose cost estimate is lower, from E,
    R, c and the chain count: bitmaps for (1,n,n^2)+ and the c = n + 1
    tables of (1,n,1)+, whose few rounds settle many residues, and rows for
    (1,n,n)+ and the c = 1 tables of (1,n,1)+, whose rounds settle one.

A negative verdict ("not primitive", "never covers") is a certificate that
no image of a source v is every vertex (V >= 2), which the checker reads
against the store.  It starts with the forced walk from v, through
vertices of out-degree 1 up to its last vertex u, so each image along it is
a single vertex; then one of:

  * cycle: u occurs earlier on the walk, so every image is a single vertex;
  * closed set: a set closed under successors holding u's out-neighbours
    but not u, so no later image contains u (the vertices reachable from
    them, when no closed walk passes through u, as at a degree-zero u);
  * unreached residue: an entry of u's table, certified again, that no walk
    reaches; with every in-degree >= 1, also checked, coverage is monotone,
    so infinitely many missing lengths mean that it never happens.

Boolean matrix powers by repeated squaring survive only as the reference
route image_after(..., method="powers"), which tests compare the tables
against.  It builds A from the edge list on each call, without the engine,
so it shares no state with the tables it checks, and drops every matrix on
return.  Squarings run as numpy float32 matmuls clipped back to 0/1; this
is exact, since every entry is 0 or 1 and inner products are integers
bounded by V, far below the 2**24 float32 integer range.  That route is the
only one that imports numpy, and nothing else builds a V x V structure:
the checker and every other answer use plain Python integers.
"""

from __future__ import annotations

import heapq
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain
from operator import add, lt, or_
from typing import Iterable, NamedTuple, NoReturn

from .traintrack_digraph import Digraph

__all__ = [
    "AvoidanceWitness",
    "NotPrimitiveError",
    "NeverCoversError",
    "image_after",
    "primitivity_exponent",
    "covering_time",
    "last_avoidance",
    "avoidance_at",
    "wielandt_cutoff",
]


class NotPrimitiveError(ValueError):
    """The adjacency matrix has no strictly positive power."""


class NeverCoversError(ValueError):
    """No power of the step map sends the source onto all vertices."""


def wielandt_cutoff(vertex_count: int) -> int:
    """(V-1)^2 + 1: every primitive 0/1 matrix is positive by this power."""
    return (vertex_count - 1) ** 2 + 1


@dataclass(frozen=True)
class AvoidanceWitness:
    """A verified certificate that image_after({source}, steps) misses avoided."""

    source: str
    avoided: str
    steps: int


# -- the branch skeleton and its residue tables --------------------------------


class _Chain(NamedTuple):
    """A skeleton edge: path is its start then its interior vertices, so its
    weight (length) is len(path); end is the skeleton vertex it reaches."""

    path: tuple[int, ...]
    end: int


class _Segment(NamedTuple):
    """Chain interior vertices start .. stop - 1, at offsets offset ..
    offset + stop - start - 1 of chain.path: a stretch inside one run, or
    one vertex whose single out-edge is an extra edge."""

    start: int
    stop: int
    chain: _Chain
    offset: int


class _Skeleton:
    """Skeleton vertices, the chains out of each, and where interiors lie.

    nodes lists the skeleton vertices and index inverts it; chains[i] are the
    chains out of nodes[i]; segments are the chain interiors, sorted by
    start, and starts lists their starts for bisection.  Built from the
    store in O(runs + extra edges) steps, plus one per vertex that has no
    edge and the C-level copies of the chain paths.
    """

    def __init__(self, g: Digraph):
        n = g.vertex_count
        # a vertex that is no run end, no end of an extra edge and has an
        # edge out is a run member past its run's first vertex that no extra
        # edge enters, so of in- and out-degree 1
        ends = set(chain.from_iterable(g.runs))
        ends.update(chain.from_iterable(edge[:2] for edge in g.extra))
        found = {v for v in ends if g.in_degree(v) != 1 or len(g.successors(v)) != 1}
        found.update(g.bare(0))
        self.nodes = nodes = sorted(found)
        self.index = {v: i for i, v in enumerate(nodes)}
        self.chains: list[list[_Chain]] = []

        def trace(x: int) -> list[_Segment]:
            """The chains out of x; returns their interiors' segments."""
            out, made = [], []
            for y in g.successors(x):
                path, pieces = [x], []
                while y not in self.index:
                    stop = g.run_last(y)
                    if stop is not None:
                        # cross the run up to its last vertex or the next
                        # skeleton vertex inside it
                        nxt = bisect_right(nodes, y)
                        if nxt < len(nodes) and nodes[nxt] < stop:
                            stop = nodes[nxt]
                        pieces.append((y, stop, len(path)))
                        path += range(y, stop)
                        y = stop
                    else:
                        pieces.append((y, y + 1, len(path)))
                        path.append(y)
                        (y,) = g.successors(y)
                ch = _Chain(tuple(path), y)
                out.append(ch)
                made += (_Segment(a, b, ch, i) for a, b, i in pieces)
            self.chains.append(out)
            return made

        segments = list(chain.from_iterable(map(trace, nodes)))
        # what is left lies on cycles of in- and out-degree-1 vertices: the
        # least vertex of each stands in for a skeleton vertex, and its
        # cycle becomes a chain from it to itself
        if len(nodes) + sum(seg.stop - seg.start for seg in segments) < n:
            covered = set(nodes)
            for seg in segments:
                covered.update(range(seg.start, seg.stop))
            self.nodes = list(nodes)
            for v in sorted(set(range(n)) - covered):
                if v not in covered:
                    self.index[v] = len(self.nodes)
                    self.nodes.append(v)
                    segments += trace(v)
                    covered.update(self.chains[-1][0].path)
        segments.sort()
        self.segments = segments
        self.starts = [seg.start for seg in segments]
        self.out_w = [
            [(self.index[ch.end], len(ch.path)) for ch in out] for out in self.chains
        ]
        # the largest chain-interior offset past each skeleton vertex
        self.reach = [max((len(ch.path) - 1 for ch in out), default=0)
                      for out in self.chains]

    def place(self, y: int) -> tuple[_Chain, int]:
        """(chain, i) for a chain interior y, which sits i steps past the
        chain's start."""
        seg = self.segments[bisect_right(self.starts, y) - 1]
        return seg.chain, seg.offset + y - seg.start

    def row_of(self, y: int) -> tuple[int, int]:
        """(skeleton index x, offset i) with W(u, y) = W(u, nodes[x]) + i."""
        if y in self.index:
            return self.index[y], 0
        chain, i = self.place(y)
        return self.index[chain.path[0]], i


class _Rows(NamedTuple):
    """A residue table as rows, the form that _certify_table reads:
    rows[x][rho] is the least length of a walk u -> nodes[x] congruent to
    rho mod c, or the unreached marker."""

    c: int
    rows: list[list[int]]
    unreached: int


@dataclass(frozen=True)
class _Table:
    """Least walk lengths from vertex u by residue mod c, kept by rounds.

    masks[x][i] is a c-bit set of residues: rho is in it iff the least
    length of a walk u -> nodes[x] congruent to rho mod c is q c + rho, for
    the round q = rounds[x][i].  Rounds increase along each list, and a
    residue in no mask is unreached.  cycle is a closed walk of length c
    through u, as its c + 1 vertices; unreached stands for the unreached
    residues in row_form().
    """

    u: int
    c: int
    cycle: tuple[int, ...]
    rounds: list[list[int]]
    masks: list[list[int]]
    unreached: int

    def row_form(self) -> _Rows | None:
        """The table as rows; None if some residue is in two masks."""
        c, top, rows = self.c, self.unreached, []
        for qs, masks in zip(self.rounds, self.masks):
            row = [top] * c
            for q, mask in zip(qs, masks):
                base = q * c
                while mask:
                    rho = mask.bit_length() - 1
                    if row[rho] != top:
                        return None
                    row[rho] = base + rho
                    mask ^= 1 << rho
            rows.append(row)
        return _Rows(c, rows, top)

    @cached_property
    def tops(self) -> list[int]:
        """The largest entry of each row: the unreached marker if any."""
        full, tops = (1 << self.c) - 1, []
        for qs, masks in zip(self.rounds, self.masks):
            if reduce(or_, masks, 0) != full:
                tops.append(self.unreached)
            else:
                tops.append(qs[-1] * self.c + masks[-1].bit_length() - 1)
        return tops

    def contains(self, sk: _Skeleton, y: int, m: int) -> bool:
        """Is m in W(u, y)?"""
        x, i = sk.row_of(y)
        m -= i
        if m < 0:
            return False
        q, rho = divmod(m, self.c)
        k = bisect_right(self.rounds[x], q)
        return k > 0 and self._reached[x][k - 1] >> rho & 1 == 1

    @cached_property
    def _reached(self) -> list[list[int]]:
        """_reached[x][i]: the residues that the rounds up to rounds[x][i]
        reach at nodes[x]."""
        return [list(accumulate(masks, or_)) for masks in self.masks]

    def gap(self, sk: _Skeleton, y: int) -> int | None:
        """The largest length missing from W(u, y): -1 if none, None if
        infinitely many are missing."""
        x, i = sk.row_of(y)
        top = self.tops[x]
        return None if top >= self.unreached else top - self.c + i

    def cover(self, sk: _Skeleton) -> int | None:
        """1 + the largest length missing from any W(u, v); None if infinite."""
        if max(self.tops) >= self.unreached:
            return None
        return max(map(add, self.tops, sk.reach)) - self.c + 1


def _residue_table(sk: _Skeleton, u: int) -> _Table | None:
    """The search by rounds over residue masks from u; None when no closed
    walk passes through u.  The result is unchecked."""
    count, out_w, start = len(sk.nodes), sk.out_w, sk.index[u]
    # a shortest closed walk through u, by Dijkstra on the skeleton itself
    dist, via = {start: 0}, {}
    heap = [(0, start)]
    c, last = None, None
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for chain, (z, w) in zip(sk.chains[x], out_w[x]):
            if z == start and (c is None or d + w < c):
                c, last = d + w, chain
            if d + w < dist.get(z, d + w + 1):
                dist[z], via[z] = d + w, chain
                heapq.heappush(heap, (d + w, z))
    if c is None:
        return None
    steps = [last]
    while steps[-1].path[0] != u:
        steps.append(via[sk.index[steps[-1].path[0]]])
    cycle = sum((chain.path for chain in reversed(steps)), ()) + (u,)

    # any least walk visits each state at most once, so is shorter than this
    unreached = count * c * max(w for out in out_w for _, w in out) + 1
    full = (1 << c) - 1
    # A chain of weight a c + b sends the residues N that x reaches in round
    # q to z: (N << b) & full in round q + a and N >> (c - b) in round
    # q + a + 1.  moves[x] lists (z, a, b, c - b) for the chains out of x,
    # forced[x] the one chain out of x when there is one and it is no loop,
    # and loops[x] the weights of the loops at x shorter than c.
    moves = [[(z, *divmod(w, c), c - w % c) for z, w in out] for out in out_w]
    forced = [out[0] if len(out) == 1 and out[0][0] != x else None
              for x, out in enumerate(moves)]
    loops = [[w for z, w in out if z == x and w < c] for x, out in enumerate(out_w)]
    # unseen[x]: the residues of x that no round so far has reached
    unseen = [full] * count
    rounds: list[list[int]] = [[] for _ in range(count)]
    masks: list[list[int]] = [[] for _ in range(count)]
    # got[x]: the residues x settles in the round being searched; held[x]:
    # those of them that the stack holds for x to pass on
    got, held = [0] * count, [0] * count
    # later[q][z]: the residues sent to z for round q, merged; a heap holds
    # the distinct round numbers, which reach count * maxw when c is small
    later: dict[int, dict[int, int]] = {}
    queue: list[int] = []

    def send(r: int, z: int, mask: int) -> None:
        layer = later.get(r)
        if layer is None:
            later[r] = {z: mask}
            heapq.heappush(queue, r)
        else:
            layer[z] = layer.get(z, 0) | mask

    send(0, start, 1)
    while queue:
        q = heapq.heappop(queue)
        # Every length for (x, rho) sent to round q is q c + rho, so a
        # residue not seen by the time its round comes is final, in
        # whatever order the round is searched.  Chains shorter than c
        # extend the round while it is searched.
        stack = []
        for x, mask in later.pop(q).items():
            mask &= unseen[x]
            if mask:
                unseen[x] ^= mask
                got[x] = held[x] = mask
                stack.append(x)
        touched = stack.copy()
        while stack:
            x = stack.pop()
            mask, held[x] = held[x], 0
            for b in loops[x]:
                # close the round under a loop by doubling shifts
                more, s = mask << b, b
                while s < c:
                    more |= (more << s) & full
                    s += s
                more &= unseen[x]
                unseen[x] ^= more
                got[x] |= more
                mask |= more
            for z, a, b, back in moves[x]:
                # a vertex with one chain out passes on what it settles at
                # once, up to the next vertex with more
                bits = mask
                while True:
                    high = (bits >> back) & unseen[z]
                    if high:
                        send(q + a + 1, z, high)
                    low = (bits << b) & unseen[z]
                    if not low:
                        break
                    if a:
                        send(q + a, z, low)
                        break
                    unseen[z] ^= low
                    if not got[z]:
                        touched.append(z)
                    got[z] |= low
                    if forced[z] is None:
                        if not held[z]:
                            stack.append(z)
                        held[z] |= low
                        break
                    bits = low
                    z, a, b, back = forced[z]
        for x in touched:
            rounds[x].append(q)
            masks[x].append(got[x])
            got[x] = 0
    return _Table(u, c, cycle, rounds, masks, unreached)


# -- the checker: certifies, never searches ------------------------------------


def _certify_skeleton(g: Digraph, sk: _Skeleton) -> None:
    """Raises unless the skeleton is right; reads only the store, at the
    granularity of segments, never vertex by vertex."""

    def fail(why: str) -> None:
        raise RuntimeError(f"branch skeleton failed re-verification: {why}")

    labels, nodes, segments, n = g.labels, sk.nodes, sk.segments, g.vertex_count
    if len(sk.chains) != len(nodes):
        fail("some skeleton vertex has no list of chains")
    # the nodes and segments tile 0 .. V - 1 exactly once, and the lookups
    # that the engine reads agree with them
    ends = list(chain.from_iterable(sorted(
        [(v, v + 1) for v in nodes] + [seg[:2] for seg in segments]
    )))
    if (
        ends[1:-1:2] != ends[2::2]
        or not all(map(lt, ends[::2], ends[1::2]))
        or ends[:1] + ends[-1:] != ([0, n] if n else [])
        or [seg.start for seg in segments] != sk.starts
        or not all(map(lt, sk.starts, sk.starts[1:]))
        or len(sk.index) != len(nodes)
        or any(sk.index.get(v) != i for i, v in enumerate(nodes))
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
    used = 0
    for x, out in zip(nodes, sk.chains):
        firsts_out = sorted(ch.path[1] if len(ch.path) > 1 else ch.end for ch in out)
        if firsts_out != list(g.successors(x)):
            fail(f"the chains out of {labels[x]!r} do not start with its out-edges")
        for ch in out:
            path = ch.path
            if path[0] != x or ch.end not in sk.index:
                fail(f"a chain out of {labels[x]!r} has the wrong ends")
            if g.extra_steps(path + (ch.end,)) is None:
                fail(f"a chain out of {labels[x]!r} is not a path of edges")
            # the interior, a segment at a time, at the stated offsets
            i = 1
            while i < len(path):
                at = bisect_right(sk.starts, path[i]) - 1
                seg = segments[at] if at >= 0 else None
                size = seg.stop - seg.start if seg else 0
                if (
                    seg is None
                    or seg.start != path[i]
                    or seg.chain is not ch
                    or seg.offset != i
                    or i + size > len(path)
                    or path[i + size - 1] != seg.stop - 1
                ):
                    fail(f"a chain out of {labels[x]!r} misplaces its interior")
                i += size
                used += 1
    if used != len(segments):
        fail("some vertex is neither a skeleton vertex nor one chain's interior")


def _fail_table(g: Digraph, u: int, why: str) -> NoReturn:
    raise RuntimeError(
        f"residue table of {g.labels[u]!r} failed re-verification: {why}"
    )


def _certify_table(g: Digraph, sk: _Skeleton, u: int, table: _Rows) -> None:
    """Bellman's equations on the rows of a table whose rounds
    _certify_rounds has passed."""
    c, rows, top, start = table.c, table.rows, table.unreached, sk.index[u]
    # best[z][(rho + w) % c] is the least D[x][rho] + w over the chains
    # x -> z of weight w, starting from the unreached marker
    best = [[top] * c for _ in rows]
    for row, out in zip(rows, sk.chains):
        for chain in out:
            z, w = sk.index[chain.end], len(chain.path)
            s = w % c
            rotated = row[-s:] + row[:-s]
            best[z] = [q if q < p + w else p + w for p, q in zip(rotated, best[z])]
    best[start][0] = 0
    mismatch = next(
        (
            (z, rho)
            for z, (row, low) in enumerate(zip(rows, best))
            if row != low
            for rho, (d, b) in enumerate(zip(row, low))
            if d != b
        ),
        None,
    )
    if mismatch is not None:
        z, rho = mismatch
        clause = "lower bound" if rows[z][rho] > best[z][rho] else "attained"
        _fail_table(
            g, u, f"{clause} fails at D[{g.labels[sk.nodes[z]]!r}][{rho}] = "
            f"{rows[z][rho]}, its predecessors give {best[z][rho]}"
        )


def _certify_rounds(g: Digraph, sk: _Skeleton, u: int, table: _Table) -> None:
    """The clauses that both routes rely on: the root, the cycle, lists of
    increasing rounds with nonempty masks of residues below c, the unreached
    marker and D[u][0] = 0."""
    c, top = table.c, table.unreached
    if table.u != u:
        _fail_table(g, u, f"the table is rooted at {g.labels[table.u]!r}")
    cycle = table.cycle
    if len(cycle) != c + 1 or cycle[0] != u or cycle[-1] != u:
        _fail_table(g, u, f"the cycle is not a closed walk of length {c} through it")
    if g.extra_steps(cycle) is None:
        _fail_table(g, u, "the cycle is not a walk of the digraph")
    full = (1 << c) - 1
    count = len(sk.nodes)
    if len(table.rounds) != count or len(table.masks) != count:
        _fail_table(g, u, f"the table is not {count} rows of {c} residues")
    for x, (qs, masks) in enumerate(zip(table.rounds, table.masks)):
        if (
            len(qs) != len(masks)
            or not all(map(lt, qs, qs[1:]))
            or qs and qs[0] < 0
            or 0 in masks
            or masks and max(masks) > full
        ):
            _fail_table(
                g, u, f"the rounds of {g.labels[sk.nodes[x]]!r} are not increasing "
                f"rounds of nonempty sets of {c} residues"
            )
    # a least walk visits each state at most once, so is at most this long
    weight = max(len(ch.path) for out in sk.chains for ch in out)
    if top <= (count * c - 1) * weight:
        _fail_table(g, u, f"the unreached marker {top} is not above every walk length")
    # D[u][0] = 0: u's first round is round 0, and its mask holds residue 0
    start = sk.index[u]
    if not (table.rounds[start][:1] == [0] and table.masks[start][0] & 1):
        _fail_table(g, u, "D[u][0] != 0")


def _certify_bitmaps(
    g: Digraph, sk: _Skeleton, u: int, table: _Table
) -> None:
    """Bellman's equations on one length bitmap per skeleton vertex, for a
    table that _certify_rounds has passed."""
    c, start = table.c, sk.index[u]
    labels, nodes = g.labels, sk.nodes
    weight = max(len(ch.path) for out in sk.chains for ch in out)
    # bit L of lengths[x] is set iff L is the least length of a walk
    # u -> nodes[x] in its residue
    lengths = [0] * len(nodes)
    for x, (qs, masks) in enumerate(zip(table.rounds, table.masks)):
        # the sum of nonnegative ints equals their union iff no two share
        # a bit
        if sum(masks) != reduce(or_, masks, 0):
            _fail_table(
                g, u, f"D[{labels[nodes[x]]!r}] has two lengths in one residue"
            )
        # neighbouring rounds are joined pairwise, so each bit moves about
        # log2(rounds) times rather than once per later round
        parts = list(zip(qs, masks))
        while len(parts) > 1:
            pairs = zip(parts[::2], parts[1::2])
            joined = [(p, m | n << (r - p) * c) for (p, m), (r, n) in pairs]
            parts = joined + parts[len(parts) - len(parts) % 2:]
        if parts:
            lengths[x] = parts[0][1] << parts[0][0] * c
    horizon = max(lengths).bit_length() + weight
    cut = (1 << horizon) - 1
    into: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for x, out in enumerate(sk.chains):
        for chain in out:
            into[sk.index[chain.end]].append((x, len(chain.path)))
    for z, have in enumerate(lengths):
        # above: every length at or above the least one of its residue;
        # given: the lengths that the chains into z give
        above, s = have, c
        while s < horizon:
            above = (above | above << s) & cut
            s += s
        given = int(z == start)
        for x, w in into[z]:
            sent = lengths[x] << w
            short = sent & ~above
            if short:
                d = (short & -short).bit_length() - 1
                _fail_table(
                    g, u, f"lower bound fails at D[{labels[nodes[z]]!r}][{d % c}], "
                    f"which the chain from {labels[nodes[x]]!r} reaches in {d}"
                )
            given |= sent
        extra = have & ~given
        if extra:
            d = (extra & -extra).bit_length() - 1
            _fail_table(
                g, u, f"attained fails at D[{labels[nodes[z]]!r}][{d % c}] = {d}, "
                "which no chain into it gives"
            )


def _bitmaps_cheaper(sk: _Skeleton, table: _Table) -> bool:
    """Is the bitmap route's cost estimate below the row route's?

    The estimates are in nanoseconds, fitted on 149 tables (Gamma_(1,j,k)+
    up to (1,300,90000)+, hub digraphs and random digraphs with long runs)
    under CPython 3.11 on a 2-CPU x86-64 machine.  The row route builds and
    checks (vertices + chains) x c row entries in Python.  The bitmap route
    makes a few big-int operations per mask, per vertex for each of about
    2 log2(R) joins and doublings, and per chain, over the R c bits of R
    rounds.
    """
    c, count = table.c, len(sk.nodes)
    chains = sum(map(len, sk.chains))
    entries = sum(map(len, table.rounds))
    spread = 1 + max((qs[-1] for qs in table.rounds if qs), default=0)
    steps = 2 * count * spread.bit_length() + count + 3 * chains
    bitmaps = 450 * (entries + steps) + 2 * spread * c / 64 * steps
    rows = 100 * (count + chains) * c + 100 * entries + 2000 * (count + chains)
    return bitmaps < rows


def _check_table(g: Digraph, sk: _Skeleton, u: int, table: _Table) -> None:
    """Certifies a table: the shared clauses, then Bellman's equations by
    the route with the lower cost estimate."""
    _certify_rounds(g, sk, u, table)
    if _bitmaps_cheaper(sk, table):
        _certify_bitmaps(g, sk, u, table)
        return
    rows = table.row_form()
    if rows is None:
        _fail_table(g, u, "some row has two lengths in one residue")
    _certify_table(g, sk, u, rows)


class _Refusal(NamedTuple):
    """A certificate that no image of walk[0] is every vertex: the forced
    walk, then the closed set, or the table with an unreached residue, or
    neither when the walk cycles (see the module docstring)."""

    why: str
    walk: tuple[int, ...]
    closed: frozenset[int] | None = None
    table: _Table | None = None


def _certify_refusal(g: Digraph, sk: _Skeleton, v: int, ref: _Refusal) -> None:
    walk, u = ref.walk, ref.walk[-1]

    def fail(why: str) -> None:
        raise RuntimeError(f"the verdict '{ref.why}' failed re-verification: {why}")

    if walk[0] != v or g.vertex_count < 2:
        fail(f"it is not about {g.labels[v]!r} among two or more vertices")
    taken = g.extra_steps(walk)
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
        _check_table(g, sk, u, ref.table)
        if max(ref.table.tops) < ref.table.unreached:
            fail("every residue is reached")
        # the run steps enter first + 1 .. last of each run, and each extra
        # edge its target
        entered = sum(last - first for first, last in g.runs) + len(
            {t for _, t, _ in g.extra if g.run_last(t - 1) is None}
        )
        if entered != g.vertex_count:
            fail("some in-degree is zero, so coverage need not be monotone")
    elif u not in walk[:-1]:
        fail("the forced walk does not close on itself")


# -- the per-digraph engine ----------------------------------------------------


class _Engine:
    """Per-digraph state: the certified skeleton and tables; degrees and
    successors are read from the store."""

    def __init__(self, g: Digraph):
        # g holds the engine, so a strong reference back would make a cycle
        # that outlives g until the next full garbage collection
        self._digraph = weakref.ref(g)
        self._tables: dict[int, _Table | None] = {}

    @property
    def g(self) -> Digraph:
        return self._digraph()

    @cached_property
    def skeleton(self) -> _Skeleton:
        g = self.g
        sk = _Skeleton(g)
        _certify_skeleton(g, sk)
        return sk

    @cached_property
    def cyclic(self) -> list[bool]:
        """cyclic[x]: does a closed walk pass through skeleton vertex x?

        True iff x has a chain to itself or its strongly connected component
        of the skeleton has two or more vertices; the components come from
        Tarjan's algorithm, run on an explicit stack.
        """
        out_w = self.skeleton.out_w
        count = len(out_w)
        order, low, where = [-1] * count, [0] * count, [0] * count
        cyclic, on_stack, stack = [False] * count, [False] * count, []
        counter = 0
        for root in range(count):
            if order[root] >= 0:
                continue
            work = [(root, None)]
            while work:
                x, nexts = work.pop()
                if nexts is None:
                    order[x] = low[x] = counter
                    counter += 1
                    where[x] = len(stack)
                    stack.append(x)
                    on_stack[x] = True
                    nexts = iter(out_w[x])
                for z, _ in nexts:
                    if order[z] < 0:
                        work += [(x, nexts), (z, None)]
                        break
                    if on_stack[z]:
                        low[x] = min(low[x], order[z])
                        cyclic[x] |= z == x
                else:
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[x])
                    if low[x] == order[x]:
                        component = stack[where[x]:]
                        del stack[where[x]:]
                        for y in component:
                            on_stack[y] = False
                            cyclic[y] |= len(component) > 1
        return cyclic

    def table(self, u: int) -> _Table | None:
        """The certified table of skeleton vertex u; None, with no search,
        when no closed walk passes through u."""
        if u not in self._tables:
            sk = self.skeleton
            table = _residue_table(sk, u) if self.cyclic[sk.index[u]] else None
            if table is not None:
                _check_table(self.g, sk, u, table)
            self._tables[u] = table
        return self._tables[u]

    def refuse(self, v: int, refusal: _Refusal) -> NeverCoversError:
        """The verdict that nothing covers from v, once its certificate is
        checked."""
        _certify_refusal(self.g, self.skeleton, v, refusal)
        return NeverCoversError(refusal.why)

    def forced(self, v: int) -> tuple[list[int], int | None, int]:
        """The forced walk from v through vertices of out-degree 1.

        Returns (path, u, loop): path lists the vertices at steps 0..t-1 and
        u, of out-degree != 1, is reached at step t = len(path).  If the walk
        cycles instead, u is None and path repeats from index loop onwards.
        """
        sk = self.skeleton
        path: list[int] = []
        if v not in sk.index:
            chain, i = sk.place(v)
            path.extend(chain.path[i:])
            v = chain.end
        seen: dict[int, int] = {}
        while len(sk.chains[sk.index[v]]) == 1:
            if v in seen:
                return path, None, seen[v]
            seen[v] = len(path)
            chain = sk.chains[sk.index[v]][0]
            path.extend(chain.path)
            v = chain.end
        return path, v, 0

    def beyond(self, u: int) -> frozenset[int]:
        """The vertices at the ends of walks of length >= 1 from u."""
        g = self.g
        seen, todo = set(g.successors(u)), list(g.successors(u))
        while todo:
            for y in g.successors(todo.pop()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    def cover_of(self, v: int) -> tuple[list[int], _Table]:
        """(forced path, table) for a source v that covers; raises
        NeverCoversError, with a checked certificate, when it never does."""
        sk, labels = self.skeleton, self.g.labels
        path, u, loop = self.forced(v)
        if u is None:
            raise self.refuse(v, _Refusal(
                f"the forced walk from {labels[v]!r} cycles, so every image of "
                "it is a single vertex", (*path, path[loop])
            ))
        table = self.table(u)
        if table is None:
            raise self.refuse(v, _Refusal(
                f"no closed walk passes through {labels[u]!r}, the end of the "
                f"forced walk from {labels[v]!r}", (*path, u), closed=self.beyond(u)
            ))
        if table.cover(sk) is None:
            raise self.refuse(v, _Refusal(
                f"some residue mod {table.c} of walk lengths from {labels[v]!r} "
                "to some vertex is unreached", (*path, u), table=table
            ))
        return path, table

    def exponent(self) -> int:
        """max over v of cov(v); needs n >= 2 and every degree >= 1.

        A skeleton vertex covers in the length of its forced walk plus the
        cover of the table at the walk's end, both read from cover_of.
        Branching vertices go first, so their refusals come before that of
        an out-degree-1 cycle.  A chain interior i steps before z covers in
        cov(z) + i steps.
        """
        sk = self.skeleton
        cov = {}
        for x in sorted(range(len(sk.nodes)), key=lambda x: len(sk.chains[x]) == 1):
            path, table = self.cover_of(sk.nodes[x])
            cov[x] = len(path) + table.cover(sk)
        interior = (w - 1 + cov[z] for out in sk.out_w for z, w in out if w > 1)
        return max(max(cov.values()), max(interior, default=0))

    def hits(self, starts: Iterable[int], targets: set[int], m: int) -> set[int]:
        """The targets at which some walk of length m from a start ends.

        One search over states (vertex, steps left), each visited once for
        all starts.  A state follows its forced walk and is answered by the
        walk itself, by the walk's cycle, or by the end vertex's table; an
        end vertex with no closed walk through it passes the state on to
        its out-neighbours.  The search stops once every target is hit.
        """
        sk = self.skeleton
        hit: set[int] = set()
        seen = {(v, m) for v in starts}
        todo = list(seen)
        while todo and len(hit) < len(targets):
            v, m = todo.pop()
            path, u, loop = self.forced(v)
            if m < len(path):
                y = path[m]
            elif u is None:
                y = path[loop + (m - loop) % (len(path) - loop)]
            elif m == len(path):
                y = u
            else:
                m -= len(path)
                table = self.table(u)
                if table is not None:
                    hit.update(y for y in targets - hit if table.contains(sk, y, m))
                else:
                    later = {(w, m - 1) for w in self.g.successors(u)} - seen
                    seen |= later
                    todo.extend(later)
                continue
            if y in targets:
                hit.add(y)
        return hit


def _image_by_powers(g: Digraph, starts: list[int], m: int) -> list[int]:
    """The reference route, the only importer of numpy: the indices that
    walks of length m from starts reach.  For each bit t of m, lowest first,
    a set bit multiplies the vector by A^(2^t), squared again if bits remain."""
    import numpy as np

    n = g.vertex_count
    # A[i, j] = 1 iff edge j -> i; powers act on indicator columns.
    square = np.zeros((n, n), dtype=np.float32)
    for source, target, _ in g.edges:
        square[target, source] = 1.0
    vec = np.zeros(n, dtype=np.float32)
    vec[starts] = 1.0
    while m:
        if m & 1:
            vec = square @ vec
            np.minimum(vec, 1.0, out=vec)
        m >>= 1
        if m:
            square = square @ square
            np.minimum(square, 1.0, out=square)
    return np.flatnonzero(vec).tolist()


def _engine(g: Digraph) -> _Engine:
    # Stashed on the digraph instance (immutable, so the engine stays valid)
    # to keep the skeleton and tables across calls.
    eng = g.__dict__.get("_analysis_engine")
    if eng is None:
        eng = _Engine(g)
        g.__dict__["_analysis_engine"] = eng
    return eng


def image_after(
    g: Digraph,
    sources: str | Iterable[str],
    m: int,
    method: str = "tables",
) -> frozenset[str]:
    """Vertices reachable from sources by directed walks of length exactly m.

    method selects the evaluation route: "tables" (membership in the
    certified walk-length sets) or "powers" (boolean matrix powers with
    doubling, the dense reference route, which allocates V x V matrices for
    this call only).
    The two routes agree; exposing both keeps that checkable.
    """
    if type(m) is not int or m < 0:
        raise ValueError(f"step count must be a nonnegative int, not {m!r}")
    if method not in ("tables", "powers"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(sources, str):
        sources = [sources]
    starts = [g.index(lbl) for lbl in sources]
    if method == "powers":
        image = _image_by_powers(g, starts, m)
    else:
        image = _engine(g).hits(starts, set(range(g.vertex_count)), m)
    return frozenset(map(g.labels.__getitem__, image))


def primitivity_exponent(g: Digraph) -> int:
    """Least m >= 1 with every m-step image equal to the whole vertex set.

    Equivalently the least m with A^m entrywise positive.  Raises
    NotPrimitiveError when no such power exists, with a certificate that
    the checker has read against the edge list, so the verdict is a proof.
    """
    if g.vertex_count == 0:
        raise ValueError("digraph is empty")
    eng = _engine(g)
    if g.vertex_count == 1:
        if g.extra:
            return 1
        raise NotPrimitiveError("not primitive: single vertex without a loop")
    try:
        v = _degree_zero(g)
        if v is not None:
            raise eng.refuse(v, _Refusal(
                f"{g.labels[v]!r} has in- or out-degree zero, which keeps "
                "every power from being positive", (v,), eng.beyond(v)
            ))
        return eng.exponent()
    except NeverCoversError as exc:
        raise NotPrimitiveError(f"not primitive: {exc}") from None


def _degree_zero(g: Digraph) -> int | None:
    """The least vertex with no edge out or no edge in; None if none."""
    return min(g.bare(0)[:1] + g.bare(1)[:1], default=None)


def _covering_engine(g: Digraph) -> _Engine:
    eng = _engine(g)
    if g.bare(1):
        raise ValueError(
            "covering time needs every in-degree >= 1, otherwise coverage "
            "is not monotone"
        )
    return eng


def covering_time(g: Digraph, source: str) -> int:
    """Least m with image_after({source}, m) equal to the whole vertex set.

    Requires every in-degree >= 1, which makes coverage monotone: once the
    image is everything it stays everything.  Reports "never covers" when no
    such m exists, with a certificate that the checker has read against the
    edge list.
    """
    eng, v = _covering_engine(g), g.index(source)
    if g.vertex_count == 1:
        return 0
    path, table = eng.cover_of(v)
    return len(path) + table.cover(eng.skeleton)


def last_avoidance(g: Digraph, source: str, avoided: str) -> AvoidanceWitness:
    """The largest m below the covering time whose image misses `avoided`.

    This is the largest length missing from W(source, avoided): every length
    from the covering time on is present.  m = 0 always qualifies when
    avoided != source, so the witness exists.
    """
    eng = _covering_engine(g)
    v, y = g.index(source), g.index(avoided)
    if g.vertex_count == 1:
        best = None
    else:
        path, table = eng.cover_of(v)
        missing = table.gap(eng.skeleton, y)
        if missing >= 0:
            best = len(path) + missing
        else:
            best = next((i for i in reversed(range(len(path))) if path[i] != y), None)
    if best is None:
        raise ValueError(
            f"every image below the covering time contains {avoided!r} "
            f"(source {source!r})"
        )
    return AvoidanceWitness(source, avoided, best)


def avoidance_at(
    g: Digraph, source: str, targets: Iterable[str], m: int
) -> bool:
    """True iff the m-step image of the source misses every target."""
    if type(m) is not int or m < 1:
        raise ValueError(f"step count must be a positive int, not {m!r}")
    eng = _engine(g)
    target_set = {g.index(lbl) for lbl in targets}
    return not eng.hits([g.index(source)], target_set, m)
