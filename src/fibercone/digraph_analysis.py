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
    skeleton's edges, weighted by their lengths.
  * Residue tables (the shortest-path view of walk-length semigroups of
    Nijenhuis 1979, Amer. Math. Monthly 86, and Boecker and Liptak 2007,
    Algorithmica 48).  For a skeleton vertex u let c be the length of a
    shortest closed walk through u (k or j + k on Gamma).  A Dijkstra pass
    over the states (skeleton vertex x, residue rho mod c) gives D[x][rho],
    the least length of a walk u -> x congruent to rho mod c.  Prefixing
    the closed walk lengthens any walk from u by c, so

        W(u, x) = { L : L >= D[x][L mod c] },

    and a chain interior i steps past the chain's start x has W(u, x) + i.
  * A vertex v of out-degree 1 has W(v, .) = {0 at v} u (W(succ v, .) + 1),
    so every source first follows its forced walk to a vertex of out-degree
    != 1 and uses that vertex's table; in particular cov(v) = 1 +
    cov(succ v).  Tables are built once per source and kept on the
    per-digraph engine, so last_avoidance reuses the tables that the
    exponent computation built.

Every answer is then arithmetic on the tables.  The covering time from u is
one more than the largest length missing from any W(u, v); the mixing
exponent is the largest covering time; last_avoidance is the largest length
missing from W(source, avoided); avoidance_at tests membership.  A table
costs O(|skeleton| c log(|skeleton| c)), against O(r V / 64) for stepping a
set r times: (1,100,10000)+, with V = 20101 and r = 1010199, takes well
under a second.

A separate checker, which only checks and never searches, certifies the
skeleton and each table before any answer built on them leaves this module,
and raises RuntimeError mentioning "re-verification" on any failure:

  * chains: every chain is a path of edges of the digraph with the stated
    weight whose interior vertices have in- and out-degree 1, the chains out
    of a skeleton vertex start with exactly its out-edges, and every vertex
    is either a skeleton vertex or interior to exactly one chain;
  * cycle: an explicit closed walk of length c through u is a walk of the
    digraph;
  * lower bound: D[u][0] = 0, and D[z][(rho + w) mod c] <= D[x][rho] + w for
    every chain x -> z of weight w and every rho;
  * attained: every other entry equals D[x][(rho - w) mod c] + w for some
    chain x -> z, or is the unreached marker with only unreached
    predecessors.

The last two are Bellman's equations, whose only solution with positive
weights is the exact table of least walk lengths.

Negative verdicts (a vertex of in- or out-degree zero, a forced walk that
cycles through vertices of out-degree 1, no closed walk through u, or an
unreached residue) are confirmed by stepping from the offending source
until the Wielandt bound (V-1)^2 + 1 passes, by which a primitive matrix is
positive, or until the image sequence repeats; so "not primitive" or "never
covers" is a proof, not a timeout.  If stepping covers instead, RuntimeError
is raised.

The offset-group stepper survives only for image_after(method="steps") and
for those confirmations: edges are grouped by their label-index offset
d = target - source, and one step of a set is

    OR over offsets d of shift(mask & group_mask[d], d).

Boolean matrix powers by repeated squaring survive only as the reference
route image_after(..., method="powers"), which tests compare the other
routes against.  Squarings run as numpy float32 matmuls clipped back to 0/1;
this is exact, since every entry is 0 or 1 and inner products are integers
bounded by V, far below the 2**24 float32 integer range.  Nothing else
builds a V x V structure.
"""

from __future__ import annotations

import heapq
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, eq, itemgetter
from typing import Iterable, NamedTuple

import numpy as np

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


# -- the stepper: image_after(method="steps") and negative verdicts ------------


class _Stepper:
    """The one-step set map on int bitmasks.

    groups[d] has bit v set iff v -> v + d is an edge.
    """

    def __init__(self, groups: dict[int, int]):
        self._stay = groups.get(0, 0)
        self._up = [(m, d) for d, m in sorted(groups.items()) if d > 0]
        self._down = [(m, -d) for d, m in sorted(groups.items()) if d < 0]

    def __call__(self, mask: int) -> int:
        out = mask & self._stay
        for group, d in self._up:
            out |= (mask & group) << d
        for group, d in self._down:
            out |= (mask & group) >> d
        return out

    def iterate(self, mask: int, m: int) -> int:
        """The m-step image of mask.

        The image sequence is eventually periodic.  Each image is compared
        with the one at the last power of two; on a repeat the remaining
        steps are reduced modulo the period, so the cost is bounded by about
        twice the sequence's onset plus period, however large m is.
        """
        saved, saved_at = mask, 0
        for i in range(1, m + 1):
            mask = self(mask)
            if mask == saved:
                for _ in range((m - i) % (i - saved_at)):
                    mask = self(mask)
                return mask
            if i & (i - 1) == 0:
                saved, saved_at = mask, i
        return mask


def _cover(step: _Stepper, mask: int, full: int, cutoff: int) -> int:
    """The least m whose m-step image of mask is full.

    Raises NeverCoversError past the cutoff, or as soon as the image sequence
    repeats without covering (tested against the image at the last power of
    two, which finds any repetition within twice its onset plus period).
    """
    m, saved = 0, mask
    while mask != full:
        if m >= cutoff:
            raise NeverCoversError(f"never covers within the cutoff {cutoff}")
        mask = step(mask)
        m += 1
        if mask == saved:
            raise NeverCoversError(
                f"the image sequence repeats at step {m} without covering"
            )
        if m & (m - 1) == 0:
            saved = mask
    return m


# -- the branch skeleton and its residue tables --------------------------------


class _Chain(NamedTuple):
    """A skeleton edge: path is its start then its interior vertices, so its
    weight (length) is len(path); end is the skeleton vertex it reaches."""

    path: tuple[int, ...]
    end: int


class _Skeleton:
    """Skeleton vertices, the chains out of each, and where interiors lie.

    nodes lists the skeleton vertices and index inverts it; chains[i] are the
    chains out of nodes[i]; place[y] = (chain, i) for a chain interior y,
    which sits i steps past the chain's start.
    """

    def __init__(self, out_nbrs: list[list[int]], in_degree: list[int]):
        n = len(out_nbrs)
        is_node = [i != 1 or len(o) != 1 for i, o in zip(in_degree, out_nbrs)]
        self.nodes = [v for v in range(n) if is_node[v]]
        self.chains: list[list[_Chain]] = []
        self.place: dict[int, tuple[_Chain, int]] = {}

        def trace(x: int) -> None:
            out = []
            for y in out_nbrs[x]:
                path = [x]
                while not is_node[y]:
                    path.append(y)
                    y = out_nbrs[y][0]
                chain = _Chain(tuple(path), y)
                out.append(chain)
                self.place.update(
                    zip(path[1:], zip(repeat(chain), range(1, len(path))))
                )
            self.chains.append(out)

        for x in self.nodes:
            trace(x)
        # what is left lies on cycles of in- and out-degree-1 vertices: one
        # vertex of each stands in for a skeleton vertex, and its cycle
        # becomes a chain from it to itself
        for v in range(n) if len(self.place) + len(self.nodes) < n else ():
            if not is_node[v] and v not in self.place:
                is_node[v] = True
                self.nodes.append(v)
                trace(v)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.out_w = [
            [(self.index[ch.end], len(ch.path)) for ch in out] for out in self.chains
        ]
        # the largest chain-interior offset past each skeleton vertex
        self.reach = [max((len(ch.path) - 1 for ch in out), default=0)
                      for out in self.chains]

    def row_of(self, y: int) -> tuple[int, int]:
        """(skeleton index x, offset i) with W(u, y) = W(u, nodes[x]) + i."""
        if y in self.index:
            return self.index[y], 0
        chain, i = self.place[y]
        return self.index[chain.path[0]], i


@dataclass(frozen=True)
class _Table:
    """Least walk lengths from vertex u by residue mod c.

    rows[x][rho] is the least length of a walk u -> nodes[x] congruent to
    rho mod c, or unreached; cycle is a closed walk of length c through u,
    as its c + 1 vertices.
    """

    u: int
    c: int
    cycle: tuple[int, ...]
    rows: list[list[int]]
    unreached: int

    def contains(self, sk: _Skeleton, y: int, m: int) -> bool:
        """Is m in W(u, y)?"""
        x, i = sk.row_of(y)
        m -= i
        if m < 0:
            return False
        d = self.rows[x][m % self.c]
        return d < self.unreached and d <= m

    @cached_property
    def tops(self) -> list[int]:
        return [max(row) for row in self.rows]

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
    """Dijkstra over (skeleton vertex, residue) from u; None when no closed
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
    cycle = tuple(v for chain in reversed(steps) for v in chain.path) + (u,)

    # any least walk visits each state at most once, so is shorter than this
    unreached = count * c * max(w for out in out_w for _, w in out) + 1
    rows = [[unreached] * c for _ in range(count)]
    rows[start][0] = 0
    # heap keys are d << bits | x, for distance d to state (x, d mod c)
    bits = count.bit_length()
    mask = (1 << bits) - 1

    # A skeleton vertex with one chain out only passes its distances on, so
    # a hop runs on through such vertices, settling each, and queues only
    # the vertex where it branches (or where it would repeat itself).
    def hop(z: int, w: int) -> list[tuple[list[int], int, int, int]]:
        seq, seen = [], set()
        while len(out_w[z]) == 1 and z not in seen:
            seen.add(z)
            seq.append((rows[z], w, w % c, -1))
            z, w = out_w[z][0][0], w + out_w[z][0][1]
        seq.append((rows[z], w, w % c, z))
        return seq

    hops = [[hop(z, w) for z, w in out] for out in out_w]
    heap = [start]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        key = pop(heap)
        d, x = key >> bits, key & mask
        rho = d % c
        if d != rows[x][rho]:
            continue
        for seq in hops[x]:
            for row, w, shift, queue in seq:
                j = rho + shift
                if j >= c:
                    j -= c
                w += d
                if w >= row[j]:
                    break
                row[j] = w
                if queue >= 0:
                    push(heap, w << bits | queue)
    return _Table(u, c, cycle, rows, unreached)


# -- the checker: certifies, never searches ------------------------------------


def _certify_skeleton(g: Digraph, sk: _Skeleton) -> set[tuple[int, int]]:
    """Raises unless the skeleton is right; returns the digraph's (source,
    target) pairs, read again from its edges, for checking tables."""

    def fail(why: str) -> None:
        raise RuntimeError(f"branch skeleton failed re-verification: {why}")

    edges = set(map(itemgetter(0, 1), g.edges))
    out_degree = Counter(map(itemgetter(0), g.edges))
    in_degree = Counter(map(itemgetter(1), g.edges))
    if len(sk.chains) != len(sk.nodes):
        fail("some skeleton vertex has no list of chains")
    interiors: list[int] = []
    for x, out in zip(sk.nodes, sk.chains):
        lo, hi = bisect_left(g.edges, (x,)), bisect_left(g.edges, (x + 1,))
        firsts = sorted(ch.path[1] if len(ch.path) > 1 else ch.end for ch in out)
        if firsts != [target for _, target, _ in g.edges[lo:hi]]:
            fail(f"the chains out of {g.labels[x]!r} do not start with its out-edges")
        for chain in out:
            walk = chain.path + (chain.end,)
            if chain.path[0] != x or chain.end not in sk.index:
                fail(f"a chain out of {g.labels[x]!r} has the wrong ends")
            if not all(map(edges.__contains__, zip(walk, walk[1:]))):
                fail(f"a chain out of {g.labels[x]!r} is not a path of edges")
            inner = chain.path[1:]
            placed = zip(repeat(chain), range(1, len(chain.path)))
            if not all(map(eq, map(sk.place.get, inner), placed)):
                fail(f"a chain out of {g.labels[x]!r} misplaces its interior")
            interiors += inner
    degrees = set(map(in_degree.__getitem__, interiors))
    degrees.update(map(out_degree.__getitem__, interiors))
    if degrees - {1}:
        fail("some chain interior has in- or out-degree != 1")
    covered = set(sk.nodes)
    covered.update(interiors)
    if (
        len(sk.nodes) + len(interiors) != g.vertex_count
        or covered != set(range(g.vertex_count))
        or len(sk.place) != len(interiors)
        or any(sk.index.get(v) != i for i, v in enumerate(sk.nodes))
    ):
        fail("some vertex is neither a skeleton vertex nor one chain's interior")
    return edges


def _certify_table(
    g: Digraph, sk: _Skeleton, edges: set[tuple[int, int]], u: int, table: _Table
) -> None:
    c, rows, top = table.c, table.rows, table.unreached

    def fail(why: str) -> None:
        raise RuntimeError(
            f"residue table of {g.labels[u]!r} failed re-verification: {why}"
        )

    if table.u != u:
        fail(f"the table is rooted at {g.labels[table.u]!r}")
    cycle = table.cycle
    if len(cycle) != c + 1 or cycle[0] != u or cycle[-1] != u:
        fail(f"the cycle is not a closed walk of length {c} through it")
    if not all(map(edges.__contains__, zip(cycle, cycle[1:]))):
        fail("the cycle is not a walk of the digraph")
    if len(rows) != len(sk.nodes) or any(len(row) != c for row in rows):
        fail(f"the table is not {len(sk.nodes)} rows of {c} residues")
    # a least walk visits each state at most once, so is at most this long
    longest = (len(rows) * c - 1) * max(len(ch.path) for out in sk.chains for ch in out)
    if top <= longest:
        fail(f"the unreached marker {top} is not above every walk length")
    start = sk.index[u]
    if rows[start][0] != 0:
        fail("D[u][0] != 0")
    # cand[e][(rho + w) % c] = D[x][rho] + w along each chain e: x -> z,
    # and best[z] is the least candidate over the chains into z
    xs, zs, ws = [], [], []
    for x, out in enumerate(sk.chains):
        for chain in out:
            xs.append(x)
            zs.append(sk.index[chain.end])
            ws.append(len(chain.path))
    table_d = np.array(rows, dtype=np.int64 if top < 2**62 else object)
    weights = np.array(ws, dtype=table_d.dtype)[:, None]
    cols = (np.arange(c)[None, :] - weights) % c
    cand = table_d[np.array(xs)[:, None], cols.astype(np.intp)] + weights
    best = np.full(table_d.shape, top, dtype=table_d.dtype)
    np.minimum.at(best, np.array(zs, dtype=np.intp), cand)
    best[start, 0] = 0
    if not np.array_equal(table_d, best):
        z, rho = (int(i[0]) for i in np.nonzero(table_d != best))
        clause = "lower bound" if table_d[z, rho] > best[z, rho] else "attained"
        fail(
            f"{clause} fails at D[{g.labels[sk.nodes[z]]!r}][{rho}] = "
            f"{table_d[z, rho]}, its predecessors give {best[z, rho]}"
        )


# -- the per-digraph engine ----------------------------------------------------


class _Engine:
    """Per-digraph state: degrees, the certified skeleton and tables, and the
    lazily built stepper and matrix ladder."""

    def __init__(self, g: Digraph):
        # g holds the engine, so a strong reference back would make a cycle
        # that outlives g until the next full garbage collection
        self._digraph = weakref.ref(g)
        self.n = n = g.vertex_count
        self.full_mask = (1 << n) - 1
        self.out_nbrs: list[list[int]] = [[] for _ in range(n)]
        self.in_degree = [0] * n
        for source, target, _ in g.edges:
            self.out_nbrs[source].append(target)
            self.in_degree[target] += 1
        self._tables: dict[int, _Table | None] = {}
        self._ladder: list[np.ndarray] | None = None

    @property
    def g(self) -> Digraph:
        return self._digraph()

    @cached_property
    def forward(self) -> _Stepper:
        groups: dict[int, int] = {}
        for source, target, _ in self.g.edges:
            d = target - source
            groups[d] = groups.get(d, 0) | 1 << source
        return _Stepper(groups)

    @cached_property
    def skeleton(self) -> _Skeleton:
        sk = _Skeleton(self.out_nbrs, self.in_degree)
        self._edge_pairs = _certify_skeleton(self.g, sk)
        return sk

    def table(self, u: int) -> _Table | None:
        """The certified table of skeleton vertex u, None when no closed walk
        passes through u."""
        if u not in self._tables:
            table = _residue_table(self.skeleton, u)
            if table is not None:
                _certify_table(self.g, self.skeleton, self._edge_pairs, u, table)
            self._tables[u] = table
        return self._tables[u]

    def refuted(self, v: int, verdict: str) -> NeverCoversError:
        """The verdict that nothing covers from v, once stepping confirms it."""
        try:
            m = _cover(self.forward, 1 << v, self.full_mask, wielandt_cutoff(self.n))
        except NeverCoversError as exc:
            return NeverCoversError(f"{verdict}; stepping confirms it: {exc}")
        raise RuntimeError(
            f"the verdict '{verdict}' failed re-verification: stepping from "
            f"{self.g.labels[v]!r} covers at step {m}"
        )

    def forced(self, v: int) -> tuple[list[int], int | None, int]:
        """The forced walk from v through vertices of out-degree 1.

        Returns (path, u, loop): path lists the vertices at steps 0..t-1 and
        u, of out-degree != 1, is reached at step t = len(path).  If the walk
        cycles instead, u is None and path repeats from index loop onwards.
        """
        sk = self.skeleton
        path: list[int] = []
        if v in sk.place:
            chain, i = sk.place[v]
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

    def cover_of(self, v: int) -> tuple[list[int], _Table]:
        """(forced path, table) for a source v that covers; raises
        NeverCoversError, confirmed by stepping, when it never does."""
        path, u, _ = self.forced(v)
        name = self.g.labels[v]
        if u is None:
            raise self.refuted(v, f"the forced walk from {name!r} cycles")
        table = self.table(u)
        if table is None:
            raise self.refuted(
                v, f"no closed walk passes through {self.g.labels[u]!r}, "
                f"reached from {name!r}"
            )
        if table.cover(self.skeleton) is None:
            raise self.refuted(v, f"some residue is unreached from {name!r}")
        return path, table

    def covering_time(self, v: int) -> int:
        if self.n == 1:
            return 0
        path, table = self.cover_of(v)
        return len(path) + table.cover(self.skeleton)

    def exponent(self) -> int:
        """max over v of cov(v); needs n >= 2 and every degree >= 1."""
        sk = self.skeleton
        cov: list[int | None] = [None] * len(sk.nodes)
        for x, out in enumerate(sk.chains):
            if len(out) != 1:
                _, table = self.cover_of(sk.nodes[x])
                cov[x] = table.cover(sk)
        for start in range(len(sk.nodes)):
            trail, x = [], start
            while cov[x] is None:
                cov[x] = -1  # on the current forced walk
                trail.append(x)
                x, _ = sk.out_w[x][0]
            if cov[x] == -1:
                raise self.refuted(
                    sk.nodes[x],
                    "a cycle of out-degree-1 vertices maps each of its "
                    "vertices to a single vertex forever",
                )
            for y in reversed(trail):
                cov[y] = sk.out_w[y][0][1] + cov[sk.out_w[y][0][0]]
        interior = (
            w - 1 + cov[z] for out in sk.out_w for z, w in out if w > 1
        )
        return max(max(cov), max(interior, default=0))

    def meets(self, v: int, targets: set[int], m: int, memo: dict) -> bool:
        """Does some walk of length m from v end in targets?"""
        key = (v, m)
        if key not in memo:
            path, u, loop = self.forced(v)
            if m < len(path):
                hit = path[m] in targets
            elif u is None:
                hit = path[loop + (m - loop) % (len(path) - loop)] in targets
            else:
                m -= len(path)
                table = self.table(u)
                if table is not None:
                    hit = any(table.contains(self.skeleton, y, m) for y in targets)
                elif m == 0:
                    hit = u in targets
                else:
                    # a walk of length m >= 1 leaves u along one of its chains
                    hit = any(
                        chain.path[m] in targets
                        if m < len(chain.path)
                        else self.meets(chain.end, targets, m - len(chain.path), memo)
                        for chain in self.skeleton.chains[self.skeleton.index[u]]
                    )
            memo[key] = hit
        return memo[key]

    # -- the reference route: boolean matrix powers ------------------------

    def power(self, t: int) -> np.ndarray:
        """A^(2^t) as a 0/1 float32 matrix (ladder entries are never mutated)."""
        if self._ladder is None:
            # A[i, j] = 1 iff edge j -> i; powers act on indicator columns.
            base = np.zeros((self.n, self.n), dtype=np.float32)
            for source, target, _ in self.g.edges:
                base[target, source] = 1.0
            self._ladder = [base]
        while len(self._ladder) <= t:
            top = self._ladder[-1]
            sq = top @ top
            np.minimum(sq, 1.0, out=sq)
            self._ladder.append(sq)
        return self._ladder[t]

    def image_by_powers(self, mask: int, m: int) -> int:
        if m == 0:
            return mask
        vec = np.array([mask >> i & 1 for i in range(self.n)], dtype=np.float32)
        t = 0
        while m:
            if m & 1:
                vec = self.power(t) @ vec
                np.minimum(vec, 1.0, out=vec)
            m >>= 1
            t += 1
        out = 0
        for i in np.nonzero(vec)[0]:
            out |= 1 << int(i)
        return out

    # -- masks <-> labels -------------------------------------------------

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lbl in labels:
            mask |= 1 << self.g.index(lbl)
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.g.labels[i] for i in range(self.n) if mask >> i & 1
        )


def _engine(g: Digraph) -> _Engine:
    # Stashed on the digraph instance (immutable, so the engine stays valid)
    # to keep the skeleton and tables across calls.
    eng = g.__dict__.get("_analysis_engine")
    if eng is None:
        eng = _Engine(g)
        g.__dict__["_analysis_engine"] = eng
    return eng


def _source_mask(eng: _Engine, sources: str | Iterable[str]) -> int:
    if isinstance(sources, str):
        return eng.mask_of([sources])
    return eng.mask_of(sources)


def image_after(
    g: Digraph,
    sources: str | Iterable[str],
    m: int,
    method: str = "steps",
) -> frozenset[str]:
    """Vertices reachable from sources by directed walks of length exactly m.

    method selects the evaluation route: "steps" (the offset-group stepper)
    or "powers" (boolean matrix powers with doubling, the dense reference
    route, which allocates V x V matrices).  The two routes agree; exposing
    both keeps that checkable.
    """
    if m < 0:
        raise ValueError("step count must be nonnegative")
    eng = _engine(g)
    mask = _source_mask(eng, sources)
    if method == "steps":
        result = eng.forward.iterate(mask, m)
    elif method == "powers":
        result = eng.image_by_powers(mask, m)
    else:
        raise ValueError(f"unknown method {method!r}")
    return eng.labels_of(result)


def primitivity_exponent(g: Digraph) -> int:
    """Least m >= 1 with every m-step image equal to the whole vertex set.

    Equivalently the least m with A^m entrywise positive.  Raises
    NotPrimitiveError when no such power exists, after stepping has confirmed
    the verdict; the cutoff argument makes that verdict exact, never a
    timeout.
    """
    if g.vertex_count == 0:
        raise ValueError("digraph is empty")
    eng = _engine(g)
    n = eng.n
    if n == 1:
        if g.edges:
            return 1
        raise NotPrimitiveError("not primitive: single vertex without a loop")
    try:
        for v in range(n):
            if not eng.in_degree[v] or not eng.out_nbrs[v]:
                raise eng.refuted(
                    v,
                    f"{g.labels[v]!r} has in- or out-degree zero, which keeps "
                    "every power from being positive",
                )
        return eng.exponent()
    except NeverCoversError as exc:
        raise NotPrimitiveError(f"not primitive: {exc}") from None


def _covering_engine(g: Digraph) -> _Engine:
    eng = _engine(g)
    if 0 in eng.in_degree:
        raise ValueError(
            "covering time needs every in-degree >= 1, otherwise coverage "
            "is not monotone"
        )
    return eng


def covering_time(g: Digraph, source: str) -> int:
    """Least m with image_after({source}, m) equal to the whole vertex set.

    Requires every in-degree >= 1, which makes coverage monotone: once the
    image is everything it stays everything.  Reports "never covers" when no
    such m exists, after stepping has confirmed it.
    """
    return _covering_engine(g).covering_time(g.index(source))


def last_avoidance(g: Digraph, source: str, avoided: str) -> AvoidanceWitness:
    """The largest m below the covering time whose image misses `avoided`.

    This is the largest length missing from W(source, avoided): every length
    from the covering time on is present.  m = 0 always qualifies when
    avoided != source, so the witness exists.
    """
    eng = _covering_engine(g)
    v, y = g.index(source), g.index(avoided)
    if eng.n == 1:
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
    if m < 1:
        raise ValueError("step count must be positive")
    eng = _engine(g)
    target_set = {g.index(lbl) for lbl in targets}
    return not eng.meets(g.index(source), target_set, m, {})
