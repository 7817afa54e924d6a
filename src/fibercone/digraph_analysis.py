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
    Algorithmica 48).  For a skeleton vertex u let c be a multiple of the
    length of a shortest closed walk through u (k or j + k on Gamma), and
    D[x][rho] the least length of a walk u -> x congruent to rho mod c.
    Prefixing that closed walk, repeated, lengthens any walk from u by c, so

        W(u, x) = { L : L >= D[x][L mod c] },

    and a chain interior i steps past the chain's start x has W(u, x) + i.
  * The search by rounds.  Every candidate length for (x, rho) is congruent
    to rho, so its round d // c fixes it: rounds are searched in increasing
    order, each in any order, and a residue that a round reaches first is
    final.  The roots, the skeleton vertices on closed walks with two or
    more chains out, are searched in groups of L that share one modulus c,
    each root's shortest closed walk having length c or c / 2, or dividing
    c when it is a loop.  Each skeleton vertex holds the residues of a
    round as one int, residue rho of root i at bit rho L + i, so one
    big-int operation moves the residues of every root (the shift-and
    parallelism of Baeza-Yates and Gonnet 1992, Comm. ACM 35, over the
    sources of a multi-source traversal as in Then et al. 2014, PVLDB 8):
    a chain of weight a c + b sends a mask N to round q + a as
    (N << b L) & (2^(c L) - 1) and to round q + a + 1 as N >> (c - b) L,
    masks sent to one vertex for one round are merged, loops shorter than c
    close a round by doubling shifts, and a vertex with one chain out passes
    on what it settles as the search reaches it.  A table keeps each
    vertex's round masks.  The search makes a few operations on c L-bit
    ints per chain out of each (vertex, round) pair that settles a residue
    of some root, E such pairs per group, at most |skeleton| min(R, c) for
    R rounds.  (1,n,1)+ and (1,n,n^2)+ groups have a few or about n rounds
    that settle many residues each, so E is small.  On (1,n,n)+ the roots
    a_n (c = n), r_n and b_n (c = 2 n) form one group of modulus 2 n,
    searched in about n / 2 rounds that settle a few residues a root at
    each vertex, where one table a root took about 2 n rounds in all.
  * A vertex v of out-degree 1 has W(v, .) = {0 at v} u (W(succ v, .) + 1),
    so every source first follows its forced walk to a vertex of out-degree
    != 1 and uses that vertex's lane of its group's table.  The exponent
    asks for the cover of each skeleton vertex of out-degree != 1 only; one
    of out-degree 1 covers in its chain's weight more steps than the
    chain's end, read by following chains up to a vertex already covered,
    so each skeleton vertex is passed once.  The per-digraph engine keeps
    the certified skeleton and each root's shortest closed walk, which both
    the grouping and the search read, searches and certifies a group's
    table the first time any of its roots is asked for, and keeps each
    root's lane with its cover, each derived once, so last_avoidance
    reuses the tables that the exponent computation built.  It holds no
    reference to the digraph, so a copy or an unpickled digraph keeps an
    engine that stays valid.

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

fibercone.certificate, sharing no code with this engine, checks the skeleton,
each group table and each refusal's certificate before an answer built on
them leaves.

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
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain
from math import inf
from operator import add, or_
from typing import Iterable

from . import certificate
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
]


class NotPrimitiveError(ValueError):
    """The adjacency matrix has no strictly positive power."""


class NeverCoversError(ValueError):
    """No power of the step map sends the source onto all vertices."""


@dataclass(frozen=True)
class AvoidanceWitness:
    """A verified certificate that image_after({source}, steps) misses avoided."""

    source: str
    avoided: str
    steps: int


# -- the branch skeleton and its residue tables --------------------------------


# a chain, a segment (a stretch of a chain's interior inside one run, or one
# vertex whose single out-edge is an extra edge) and the skeleton, laid out
# as fibercone.certificate reads them
_Chain = namedtuple("_Chain", "path end")
_Segment = namedtuple("_Segment", "start stop chain offset")


class _Skeleton(namedtuple("_Skeleton", "nodes chains segments starts")):
    """The skeleton with its lookups: index inverts nodes, and out_w and
    reach give each chain's end and weight and the longest interior past
    each skeleton vertex."""

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: x for x, v in enumerate(self.nodes)}

    @cached_property
    def out_w(self) -> list[list[tuple[int, int]]]:
        index = self.index
        return [[(index[ch.end], len(ch.path)) for ch in out] for out in self.chains]

    @cached_property
    def reach(self) -> list[int]:
        return [max((len(ch.path) - 1 for ch in out), default=0) for out in self.chains]

    def place(self, y: int) -> tuple[_Chain, int]:
        """(chain, i): the chain interior y sits i steps past its start."""
        start, _, (x, k), offset = self.segments[bisect_right(self.starts, y) - 1]
        return self.chains[x][k], offset + y - start

    def row_of(self, y: int) -> tuple[int, int]:
        """(skeleton index x, offset i) with W(u, y) = W(u, nodes[x]) + i."""
        if y in self.index:
            return self.index[y], 0
        start, _, (x, _), offset = self.segments[bisect_right(self.starts, y) - 1]
        return x, offset + y - start


def _skeleton(g: Digraph) -> _Skeleton:
    """The skeleton, from the store in O(runs + extra edges) steps, plus one
    per vertex with no edge and the C-level copies of the chain paths."""
    n = g.vertex_count
    # a vertex that is no run end, no end of an extra edge and has an edge
    # out is a run member past its run's first vertex that no extra edge
    # enters, so of in- and out-degree 1
    ends = set(chain.from_iterable(g.runs))
    ends.update(chain.from_iterable(edge[:2] for edge in g.extra))
    found = {v for v in ends if g.in_degree(v) != 1 or len(g.successors(v)) != 1}
    found.update(g.bare(0))
    nodes = sorted(found)
    index = {v: x for x, v in enumerate(nodes)}
    chains: list[list[_Chain]] = []

    def trace(x: int) -> list[_Segment]:
        """The chains out of x; returns their interiors' segments."""
        out, made = [], []
        for k, y in enumerate(g.successors(x)):
            path, pieces = [x], []
            while y not in index:
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
            out.append(_Chain(tuple(path), y))
            ref = (len(chains), k)
            made += (_Segment(a, b, ref, i) for a, b, i in pieces)
        chains.append(out)
        return made

    segments = list(chain.from_iterable(map(trace, nodes)))
    order = nodes
    # what is left lies on cycles of in- and out-degree-1 vertices: the
    # least vertex of each stands in for a skeleton vertex, and its cycle
    # becomes a chain from it to itself
    if len(nodes) + sum(seg.stop - seg.start for seg in segments) < n:
        covered = set(nodes)
        for seg in segments:
            covered.update(range(seg.start, seg.stop))
        order = list(nodes)
        for v in sorted(set(range(n)) - covered):
            if v not in covered:
                index[v] = len(order)
                order.append(v)
                segments += trace(v)
                covered.update(chains[-1][0].path)
    segments.sort()
    return _Skeleton(order, chains, segments, [seg.start for seg in segments])


class _Table(namedtuple("_Table", "roots c cycles rounds masks")):
    """Least walk lengths from each of the roots by residue mod c, kept by
    rounds as fibercone.certificate lays them out: residue rho of roots[i]
    is bit rho L + i of a mask, for L roots."""

    @cached_property
    def union(self) -> list[int]:
        """union[x]: the residues of every lane that some round reaches at
        nodes[x]."""
        return [reduce(or_, masks, 0) for masks in self.masks]

    @cached_property
    def _reached(self) -> dict[int, list[int]]:
        return {}

    def reached(self, x: int) -> list[int]:
        """reached(x)[k]: the residues of every lane that the rounds up to
        rounds[x][k] reach at nodes[x]; a row is accumulated the first time
        it is read, and only then."""
        found = self._reached.get(x)
        if found is None:
            found = self._reached[x] = list(accumulate(self.masks[x], or_))
        return found


class _Lane(namedtuple("_Lane", "table i")):
    """The lane of roots[i] in a table, with the queries on it."""

    @cached_property
    def tops(self) -> list[int | None]:
        """The largest entry of each row; None if it misses a residue."""
        table, i, step = self.table, self.i, len(self.table.roots)
        ones = ((1 << table.c * step) - 1) // ((1 << step) - 1) << i
        tops = []
        for qs, masks, union in zip(table.rounds, table.masks, table.union):
            if union & ones != ones:
                tops.append(None)
                continue
            k = len(masks) - 1
            while not masks[k] & ones:
                k -= 1
            tops.append(qs[k] * table.c + ((masks[k] & ones).bit_length() - 1) // step)
        return tops

    def contains(self, sk: _Skeleton, y: int, m: int) -> bool:
        """Is m in W(roots[i], y)?"""
        table = self.table
        x, i = sk.row_of(y)
        m -= i
        if m < 0:
            return False
        q, rho = divmod(m, table.c)
        k = bisect_right(table.rounds[x], q)
        bit = rho * len(table.roots) + self.i
        return k > 0 and table.reached(x)[k - 1] >> bit & 1 == 1

    def gap(self, sk: _Skeleton, y: int) -> int | None:
        """The largest length missing from W(roots[i], y): -1 if none, None
        if infinitely many are missing."""
        x, i = sk.row_of(y)
        top = self.tops[x]
        return None if top is None else top - self.table.c + i

    def cover(self, sk: _Skeleton) -> int | None:
        """1 + the largest length missing from any W(roots[i], v); None if
        infinite."""
        if None in self.tops:
            return None
        return max(map(add, self.tops, sk.reach)) - self.table.c + 1


def _shortest_cycle(sk: _Skeleton, u: int) -> tuple[int, ...] | None:
    """The vertices of a shortest closed walk through skeleton vertex u,
    from u back to u, by Dijkstra on the skeleton itself, stopped once a
    popped distance reaches the shortest closing found; None when none
    exists."""
    out_w, start = sk.out_w, sk.index[u]
    dist, via = {start: 0}, {}
    heap = [(0, start)]
    c, last = inf, None
    while heap:
        d, x = heapq.heappop(heap)
        if d >= c:
            # every later closing is longer than c
            break
        if d > dist[x]:
            continue
        for chain, (z, w) in zip(sk.chains[x], out_w[x]):
            if z == start and d + w < c:
                c, last = d + w, chain
            if d + w < dist.get(z, d + w + 1):
                dist[z], via[z] = d + w, chain
                heapq.heappush(heap, (d + w, z))
    if last is None:
        return None
    steps = [last]
    while steps[-1].path[0] != u:
        steps.append(via[sk.index[steps[-1].path[0]]])
    return sum((chain.path for chain in reversed(steps)), ()) + (u,)


def _residue_table(
    sk: _Skeleton, roots: tuple[int, ...], cycles: tuple[tuple[int, ...], ...]
) -> _Table:
    """The search by rounds over residue masks from the roots at once, at
    the modulus c of the longest of cycles, the roots' shortest closed
    walks, which the caller makes a multiple of each.  The result is
    unchecked."""
    c, step = max(map(len, cycles)) - 1, len(roots)
    count, out_w, width = len(sk.nodes), sk.out_w, c * step
    full = (1 << width) - 1
    # A chain of weight a c + b sends the residues N that x reaches in round
    # q to z: (N << b L) & full in round q + a and N >> (c - b) L in round
    # q + a + 1, for L = step lanes.  moves[x] lists (z, a, b L, (c - b) L)
    # for the chains out of x, forced[x] the one chain out of x when there
    # is one and it is no loop, and loops[x] the weights of the loops at x
    # shorter than c, times L.
    moves = [[(z, w // c, w % c * step, (c - w % c) * step) for z, w in out]
             for out in out_w]
    forced = [out[0] if len(out) == 1 and out[0][0] != x else None
              for x, out in enumerate(moves)]
    loops = [[w * step for z, w in out if z == x and w < c]
             for x, out in enumerate(out_w)]
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

    for i, u in enumerate(roots):
        send(0, sk.index[u], 1 << i)
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
                while s < width:
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
    return _Table(tuple(roots), c, tuple(cycles), rounds, masks)


# -- the per-digraph engine ----------------------------------------------------


class _Engine:
    """Per-digraph state, each part derived once: the certified skeleton,
    the groups of roots, and each root's lane of its group's certified
    table with the lane's cover.  It holds no reference to the digraph;
    the methods that read the store take it."""

    def __init__(self, g: Digraph):
        sk = _skeleton(g)
        certificate._certify_skeleton(g, sk)
        self.skeleton = sk
        self._lanes: dict[int, tuple[_Lane, int | None]] = {}

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

    @cached_property
    def cycles(self) -> dict[int, tuple[int, ...]]:
        """cycles[u]: a shortest closed walk through root u, searched once.
        The roots are the skeleton vertices on closed walks with two or more
        chains out, the only ends of forced walks."""
        sk = self.skeleton
        return {v: _shortest_cycle(sk, v) for x, v in enumerate(sk.nodes)
                if self.cyclic[x] and len(sk.chains[x]) > 1}

    @cached_property
    def groups(self) -> dict[int, tuple[int, ...]]:
        """groups[u]: the roots searched together with root u, in lane order.

        Visited by decreasing length c of their shortest closed walks, a
        root joins the first group whose modulus is c or 2 c, or any
        multiple of c when a loop of weight c, which the search closes by
        doubling, is such a walk; otherwise it opens a group of modulus c.
        The cap keeps a short cycle through other skeleton vertices from
        repeating many times a round.
        """
        sk, cycles = self.skeleton, self.cycles
        opened: list[tuple[int, list[int]]] = []
        for v in sorted(cycles, key=lambda v: len(cycles[v]), reverse=True):
            c, x = len(cycles[v]) - 1, sk.index[v]
            loop = (x, c) in sk.out_w[x]
            for modulus, roots in opened:
                if modulus in (c, 2 * c) or loop and modulus % c == 0:
                    roots.append(v)
                    break
            else:
                opened.append((c, [v]))
        return {v: tuple(roots) for _, roots in opened for v in roots}

    def table(self, g: Digraph, u: int) -> tuple[_Lane, int | None] | None:
        """(u's lane of its group's table, the lane's cover), the table
        certified; None, with no search, when u is no root.  Only ends of
        forced walks are asked for, and they have no chain or two or more
        out, so such an end is a root iff a closed walk passes through it.
        The first call for any root of a group searches and certifies the
        whole group."""
        roots = self.groups.get(u)
        if roots is None:
            return None
        if u not in self._lanes:
            sk = self.skeleton
            table = _residue_table(sk, roots, [self.cycles[v] for v in roots])
            certificate._check_table(g, sk, table)
            for i, v in enumerate(roots):
                lane = _Lane(table, i)
                self._lanes[v] = lane, lane.cover(sk)
        return self._lanes[u]

    def refuse(
        self, g: Digraph, v: int, refusal: certificate._Refusal
    ) -> NeverCoversError:
        """The verdict that nothing covers from v, once its certificate is
        checked."""
        certificate._certify_refusal(g, self.skeleton, v, refusal)
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

    def beyond(self, g: Digraph, u: int) -> frozenset[int]:
        """The vertices at the ends of walks of length >= 1 from u."""
        seen, todo = set(g.successors(u)), list(g.successors(u))
        while todo:
            for y in g.successors(todo.pop()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    def cover_of(self, g: Digraph, v: int) -> tuple[list[int], _Lane, int]:
        """(forced path, the lane of its end, the lane's cover) for a source
        v that covers; raises NeverCoversError, with a checked certificate,
        when it never does."""
        labels = g.labels
        path, u, loop = self.forced(v)
        if u is None:
            raise self.refuse(g, v, certificate._Refusal(
                f"the forced walk from {labels[v]!r} cycles, so every image of "
                "it is a single vertex", (*path, path[loop])
            ))
        found = self.table(g, u)
        if found is None:
            raise self.refuse(g, v, certificate._Refusal(
                f"no closed walk passes through {labels[u]!r}, the end of the "
                f"forced walk from {labels[v]!r}", (*path, u), closed=self.beyond(g, u)
            ))
        lane, cover = found
        if cover is None:
            # a residue mod the table's c that no walk reaches leaves one mod
            # the length of u's own shortest closed walk, which divides c
            c = len(lane.table.cycles[lane.i]) - 1
            raise self.refuse(g, v, certificate._Refusal(
                f"some residue mod {c} of walk lengths from {labels[v]!r} "
                "to some vertex is unreached", (*path, u), table=lane.table
            ))
        return path, lane, cover

    def exponent(self, g: Digraph) -> int:
        """max over v of cov(v); needs n >= 2 and every degree >= 1.

        A skeleton vertex of out-degree != 1 covers in the cover of its
        table, read from cover_of; these go first, so their refusals come
        before that of an out-degree-1 cycle.  A vertex whose one chain of
        weight w ends at z, like a chain interior i steps before z, covers
        in cov(z) + w (or + i) steps: each out-degree-1 skeleton vertex
        follows its chains up to a covered vertex, and only the first
        vertex of a trail that closes on itself asks cover_of, which refuses
        its forced walk.
        """
        sk = self.skeleton
        out_w = sk.out_w
        cov = {}
        for x, out in enumerate(out_w):
            if len(out) != 1:
                cov[x] = self.cover_of(g, sk.nodes[x])[2]
        for x in range(len(out_w)):
            trail, y = {}, x
            while y not in cov:
                if y in trail:
                    self.cover_of(g, sk.nodes[x])  # raises: the walk cycles
                trail[y] = out_w[y][0]
                y = trail[y][0]
            for y, (z, w) in reversed(trail.items()):
                cov[y] = cov[z] + w
        interior = (w - 1 + cov[z] for out in out_w for z, w in out if w > 1)
        return max(max(cov.values()), max(interior, default=0))

    def hits(
        self, g: Digraph, starts: Iterable[int], targets: set[int], m: int
    ) -> set[int]:
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
                found = self.table(g, u)
                if found is not None:
                    hit.update(y for y in targets - hit if found[0].contains(sk, y, m))
                else:
                    later = {(w, m - 1) for w in g.successors(u)} - seen
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
    # Stashed on the digraph instance, which is immutable, to keep the
    # skeleton and tables across calls; the engine holds no reference back,
    # so a copy or an unpickled digraph carries state that stays valid.
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
        image = _engine(g).hits(g, starts, set(range(g.vertex_count)), m)
    return frozenset(map(g.labels.__getitem__, image))


def primitivity_exponent(g: Digraph) -> int:
    """Least m >= 1 with every m-step image equal to the whole vertex set.

    Equivalently the least m with A^m entrywise positive.  Raises
    NotPrimitiveError when no such power exists, with a certificate that
    the checker has read against the edge list, so the verdict is a proof.
    """
    if g.vertex_count == 0:
        raise ValueError("digraph is empty")
    if g.vertex_count == 1:
        if g.extra:
            return 1
        raise NotPrimitiveError("not primitive: single vertex without a loop")
    eng = _engine(g)
    try:
        v = _degree_zero(g)
        if v is not None:
            raise eng.refuse(g, v, certificate._Refusal(
                f"{g.labels[v]!r} has in- or out-degree zero, which keeps "
                "every power from being positive", (v,), eng.beyond(g, v)
            ))
        return eng.exponent(g)
    except NeverCoversError as exc:
        raise NotPrimitiveError(f"not primitive: {exc}") from None


def _degree_zero(g: Digraph) -> int | None:
    """The least vertex with no edge out or no edge in; None if none."""
    return min(g.bare(0)[:1] + g.bare(1)[:1], default=None)


def _covering_engine(g: Digraph) -> _Engine:
    if g.bare(1):
        raise ValueError(
            "covering time needs every in-degree >= 1, otherwise coverage "
            "is not monotone"
        )
    return _engine(g)


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
    path, _, cover = eng.cover_of(g, v)
    return len(path) + cover


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
        path, lane, _ = eng.cover_of(g, v)
        missing = lane.gap(eng.skeleton, y)
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
    return not eng.hits(g, [g.index(source)], target_set, m)
