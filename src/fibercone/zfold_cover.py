r"""
Short loops in infinite cyclic covers of cubic graphs.

A cubic (3-regular) multigraph G with an integer cochain d on its oriented
edges (d flips sign with orientation) determines a Z-fold cover: vertices
(v, t) for t in Z, with each edge u -> v of value d lifted to
(u, t) -> (v, t + d).  A counting bound forces short cycles in the cover:
the ball of radius R around any cover vertex meets at most (2Rk + 1) |E|
distinct lifted edges (k = max |d|), while a tree of depth R in a cubic
graph has 3 (2^R - 1) edges, so once

    3 (2^R - 1)  >  (2 R k + 1) |E|

two tree paths must collide and a vertex-simple loop of length at most 2R
exists.  lemma_R returns the least such R; find_short_loop runs a
breadth-first search of depth at most R from each level-zero cover vertex
(every loop of length at most 2R has a translate through one).  It never
builds the cover.  Cover vertex (v, t) has the integer id
v (2 (R + 1) k + 1) + t + (R + 1) k, distinct for |t| <= (R + 1) k: the
search reaches only levels within R k, below window_radius = R k + 1, and
looks up neighbours one edge further.  Each base vertex's half-edges are
sorted once as id moves, so an id's neighbours are found at any level, and
each start keeps one record per reached id: depth plus the tree step into
it.  Candidate loops are closed during the search, and a start's search
stops once 2 dist >= the best length found.  It returns a shortest loop,
failing loudly if its length exceeds 2R.  verify_loop replays a claimed
loop step by step against the graph, independently of the search.

Loops are recorded as a start vertex in the cover plus steps (edge index,
forward flag); a step traverses a single lifted edge, and a valid loop
repeats no cover vertex and no lifted edge (so an edge followed by its own
reversal is rejected).  Random cubic graphs come from the pairing model
(three half-edges per vertex, paired uniformly), which may produce loops
and parallel edges; both are handled throughout, with a self-loop of value
zero lifting to a cycle of length one.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

__all__ = [
    "CochainGraph",
    "CoverLoop",
    "lemma_R",
    "window_radius",
    "find_short_loop",
    "verify_loop",
    "random_cubic_cochain",
    "import_cochain_graph",
    "export_json",
]


@dataclass(frozen=True)
class CochainGraph:
    """A 3-regular multigraph with an integer value on each oriented edge.

    edges[e] = (u, v, d): the edge traversed u -> v has value d, and v -> u
    has value -d.  Self-loops count twice toward the degree.  edges must be
    a sequence of (u, v, d) triples, and the vertex count and every u, v, d
    of type int (so not bool or float); anything else raises ValueError.
    The edges are stored as a tuple of tuples.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        # exact type tests: bool is an int subclass, and True must not pass as 1
        n = self.vertex_count
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("need at least one vertex")
        edges = self.edges
        if not isinstance(edges, Sequence) or not all(
            isinstance(e, Sequence) and len(e) == 3 for e in edges
        ):
            raise ValueError("each edge must be (tail, head, value)")
        # degrees sum to 2 |E|, so count before allocating n degrees
        if 2 * len(edges) != 3 * n:
            raise ValueError(
                f"graph is not 3-regular: {len(edges)} edges on {n} vertices "
                "(3-regular needs 3 n / 2)"
            )
        degree = [0] * n
        for e in edges:
            u, v, d = e
            if not type(u) is type(v) is type(d) is int:
                raise ValueError(f"each edge field must be an integer, got {e!r}")
            for w in (u, v):
                if not 0 <= w < n:
                    raise ValueError(f"edge endpoint {w} out of range")
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, deg in enumerate(degree) if deg != 3]
        if bad:
            raise ValueError(
                f"graph is not 3-regular: vertices {bad} have degree != 3"
            )
        # store tuples, so that graphs hash and compare equal however built
        object.__setattr__(self, "edges", tuple(tuple(e) for e in edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def cochain_bound(self) -> int:
        """k = max |d| over all edges."""
        return max(abs(e[2]) for e in self.edges)


@dataclass(frozen=True, slots=True)
class CoverLoop:
    """A closed edge path in the Z-fold cover.

    start = (vertex, level); steps[i] = (edge index, forward flag).  A
    forward step along edge (u, v, d) moves (u, t) -> (v, t + d); a backward
    step moves (v, t) -> (u, t - d).

    Frozen and slotted: setting a field raises FrozenInstanceError, and
    setting a name that is not a field raises TypeError (CPython's slotted
    frozen __setattr__ fails in super()).
    """

    start: tuple[int, int]
    steps: tuple[tuple[int, bool], ...]

    @property
    def length(self) -> int:
        return len(self.steps)


def lemma_R(cochain_bound: int, edge_count: int) -> int:
    """Least R >= 1 with 3 (2^R - 1) > (2 R k + 1) |E|."""
    if cochain_bound < 0:
        raise ValueError("cochain bound must be nonnegative")
    if edge_count < 1:
        raise ValueError("edge count must be positive")
    r = 1
    while not 3 * (2**r - 1) > (2 * r * cochain_bound + 1) * edge_count:
        r += 1
    return r


def window_radius(g: CochainGraph) -> int:
    """R k + 1: levels |t| < R k + 1 hold a translate of any length-2R loop.

    find_short_loop's search, of depth at most R from level zero, reaches
    only levels within R k, so it stays strictly inside this window.
    """
    r = lemma_R(g.cochain_bound, g.edge_count)
    return r * g.cochain_bound + 1


def _trace(
    g: CochainGraph, start: tuple[int, int], steps: Sequence[tuple[int, bool]]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | str:
    """Replay steps; return (visited vertices, lifted edge keys) or an error.

    The lifted edge key is (edge index, level of the edge's tail vertex), so
    an edge and its own reversal share a key.
    """
    vertex, level = start
    visited = [(vertex, level)]
    lifted: list[tuple[int, int]] = []
    for i, (eidx, forward) in enumerate(steps):
        if not 0 <= eidx < g.edge_count:
            return f"step {i}: edge index {eidx} out of range"
        u, v, d = g.edges[eidx]
        if forward:
            if vertex != u:
                return f"step {i}: edge {eidx} starts at {u}, not {vertex}"
            lifted.append((eidx, level))
            vertex, level = v, level + d
        else:
            if vertex != v:
                return f"step {i}: reversed edge {eidx} starts at {v}, not {vertex}"
            lifted.append((eidx, level - d))
            vertex, level = u, level - d
        visited.append((vertex, level))
    return visited, lifted


def _structural_check(g: CochainGraph, loop: CoverLoop) -> tuple[bool, str]:
    """Validity without the length bound: real lifted edges, closed, simple."""
    if loop.length == 0:
        return False, "empty loop"
    traced = _trace(g, loop.start, loop.steps)
    if isinstance(traced, str):
        return False, traced
    visited, lifted = traced
    if visited[-1] != visited[0]:
        return False, f"not closed: ends at {visited[-1]}, started at {visited[0]}"
    interior = visited[:-1]
    if len(set(interior)) != len(interior):
        return False, "repeats a cover vertex"
    if len(set(lifted)) != len(lifted):
        return False, "repeats a lifted edge (possibly as its own reversal)"
    return True, "ok"


def _shape_error(loop: CoverLoop) -> str | None:
    """Why the loop is not a pair of int coordinates plus (int, bool) steps."""
    start = loop.start
    if not (
        isinstance(start, Sequence)
        and len(start) == 2
        and all(type(c) is int for c in start)
    ):
        return f"start {start!r} is not a (vertex, level) pair of integers"
    if not isinstance(loop.steps, Sequence):
        return f"steps {loop.steps!r} are not a sequence"
    for i, step in enumerate(loop.steps):
        if not (
            isinstance(step, Sequence)
            and len(step) == 2
            and type(step[0]) is int
            and type(step[1]) is bool
        ):
            return f"step {i}: {step!r} is not an (edge index, forward flag) pair"
    return None


def verify_loop(g: CochainGraph, loop: CoverLoop) -> tuple[bool, str]:
    """Replay a loop against the graph; (True, "ok") or (False, why not).

    Checks the start is a pair of ints and each step an (int edge index,
    bool forward flag) pair (a bool index, int flag or float coordinate is
    refused, not coerced), each step traverses an actual lifted edge, the
    path closes up (same cover vertex, so the values along the loop sum to
    zero), no cover vertex repeats apart from the endpoints, no lifted edge
    is used twice (in either direction), and the length is within the
    counting bound 2R.  It never raises on a malformed loop.
    """
    shape = _shape_error(loop)
    if shape is not None:
        return False, shape
    ok, reason = _structural_check(g, loop)
    if not ok:
        return ok, reason
    bound = 2 * lemma_R(g.cochain_bound, g.edge_count)
    if loop.length > bound:
        return False, f"length {loop.length} exceeds the counting bound {bound}"
    return True, "ok"


def _id_steps(
    g: CochainGraph, r: int
) -> tuple[int, int, list[list[tuple[int, int, int, bool]]]]:
    """(offset, width, steps): integer ids of cover nodes and moves between them.

    Node (v, t) has id v * width + t + offset, where offset = (R + 1) k and
    width = 2 offset + 1, so nodes with |t| <= offset have distinct ids.
    steps[w] lists w's half-edges as (id delta, edge index, tail level
    offset, forward flag), sorted: from (w, t), of id x, an entry steps to
    the node of id x + delta along the lifted edge whose tail sits at level
    t + offset.  As |level change| <= k < width / 2, this order is the order
    of (head vertex, head level, edge index, tail level, forward flag).
    """
    offset = (r + 1) * g.cochain_bound
    width = 2 * offset + 1
    steps: list[list[tuple[int, int, int, bool]]] = [
        [] for _ in range(g.vertex_count)
    ]
    for eidx, (u, v, d) in enumerate(g.edges):
        steps[u].append(((v - u) * width + d, eidx, 0, True))
        steps[v].append(((u - v) * width - d, eidx, -d, False))
    for lst in steps:
        lst.sort()
    return offset, width, steps


# a reached node's record: (depth, parent id, edge index, tail level of the
# lifted edge, forward flag) of the tree step into it; the start's record has
# parent None and edge index -1, so it matches no lifted edge
_Record = tuple[int, "int | None", int, int, bool]


def _fundamental_cycle(
    seen: dict[int, _Record],
    x: int,
    y: int,
    closing: tuple[int, bool],
    offset: int,
    width: int,
) -> CoverLoop:
    """The cycle of the closing step x -> y, along (edge, forward), in the tree.

    It starts at the lowest common ancestor z of x and y, runs down the tree
    to x, takes the closing step, and climbs the tree from y back to z.
    """
    path_x = [x]
    while (up := seen[path_x[-1]][1]) is not None:
        path_x.append(up)
    z = y
    climb = []
    while z not in path_x:
        _, z, eidx, _, forward = seen[z]
        climb.append((eidx, not forward))
    descent = [seen[w] for w in reversed(path_x[: path_x.index(z)])]
    steps = [(rec[2], rec[4]) for rec in descent] + [closing] + climb
    vertex, level = divmod(z, width)
    return CoverLoop((vertex, level - offset), tuple(steps))


def find_short_loop(g: CochainGraph) -> CoverLoop:
    """A shortest vertex-simple loop through level zero of the cover.

    Runs a depth-limited breadth-first search from every level-zero cover
    vertex in canonical order, on the node ids of _id_steps, keeping one
    record per reached id.  As a vertex x is expanded, in pop order, each
    off-tree lifted edge from x to a reached vertex closes a candidate, its
    fundamental cycle in the search tree, which is kept if shorter.  A
    start's search stops once 2 dist(x) >= the best length, since every
    later candidate is at least that long.  Depth at most R from level zero
    reaches only levels within R k < window_radius(g).  The counting bound
    guarantees length <= 2R; exceeding it (or finding nothing) means the
    premises are violated: a hard error.
    """
    r = lemma_R(g.cochain_bound, g.edge_count)
    offset, width, id_steps = _id_steps(g, r)
    best: CoverLoop | None = None
    # longer than any candidate (its closing edge joins depths <= R), so the
    # first start searches to depth R
    best_length = 2 * r + 2

    # any loop of length <= 2R translates to levels [0, Rk], so it passes
    # through a level-zero vertex: starting the search at level zero loses
    # nothing
    for start in range(g.vertex_count):
        if best_length == 1:
            break
        # a cycle shorter than the current best needs both endpoints of its
        # closing edge within half its length of the start, so cap the depth
        cap = min(r, max(1, best_length // 2))
        s = start * width + offset
        seen: dict[int, _Record] = {s: (0, None, -1, 0, False)}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            dx, _, into_edge, into_tail, _ = seen[x]
            # every candidate closed from here on is at least 2 dist(x) long
            if 2 * dx >= best_length:
                break
            w, t = divmod(x, width)
            t -= offset
            # a step to an unreached node is a tree step (kept if dx < cap);
            # a step to a reached node y closes a candidate unless its lifted
            # edge (eidx, tail) is the tree step into x or into y
            for delta, eidx, tail, forward in id_steps[w]:
                y = x + delta
                into_y = seen.get(y)
                if into_y is None:
                    if dx < cap:
                        seen[y] = (dx + 1, x, eidx, t + tail, forward)
                        queue.append(y)
                    continue
                tail += t
                if into_edge == eidx and into_tail == tail:
                    continue
                if into_y[2] == eidx and into_y[3] == tail:
                    continue
                if dx + into_y[0] + 1 >= best_length:
                    continue
                loop = _fundamental_cycle(seen, x, y, (eidx, forward), offset, width)
                ok, reason = _structural_check(g, loop)
                if not ok:
                    raise RuntimeError(f"search produced an invalid loop: {reason}")
                if loop.length < best_length:
                    best, best_length = loop, loop.length
    if best is None:
        raise RuntimeError(
            "no loop found in the cover window; the counting bound is violated"
        )
    ok, reason = verify_loop(g, loop=best)
    if not ok:
        raise RuntimeError(f"shortest loop found fails verification: {reason}")
    return best


def random_cubic_cochain(
    n_vertices: int, cochain_bound: int, seed: int
) -> CochainGraph:
    """A random cubic multigraph (pairing model) with random edge values.

    Three half-edges per vertex are paired uniformly (so self-loops and
    parallel edges can occur), and each edge gets an independent uniform
    value in [-cochain_bound, cochain_bound].  Deterministic in the seed.
    A vertex count, bound or seed that is not of type int (a bool, a float,
    a str) raises ValueError, as does an odd count, one below 2 or a
    negative bound.
    """
    for name, x in (
        ("vertex count", n_vertices),
        ("cochain bound", cochain_bound),
        ("seed", seed),
    ):
        if type(x) is not int:
            raise ValueError(f"{name} must be an integer, got {x!r}")
    if n_vertices < 2 or n_vertices % 2:
        raise ValueError("vertex count must be even and at least 2")
    if cochain_bound < 0:
        raise ValueError("cochain bound must be nonnegative")
    rng = random.Random(seed)
    points = list(range(3 * n_vertices))
    rng.shuffle(points)
    edges = []
    for i in range(0, len(points), 2):
        u, v = points[i] // 3, points[i + 1] // 3
        edges.append((u, v, rng.randint(-cochain_bound, cochain_bound)))
    edges.sort()
    return CochainGraph(n_vertices, tuple(edges))


def import_cochain_graph(data: str | dict[str, Any]) -> CochainGraph:
    """Build a graph from JSON text or an already-parsed mapping.

    Parsing is strict: the document has exactly the keys "vertices" and
    "edges", "edges" is a list of objects with exactly the keys "u", "v" and
    "d", and CochainGraph refuses any value that is not an integer (a
    boolean, string or float); any failure raises ValueError.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    unknown = [key for key in data if key not in ("vertices", "edges")]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in the document")
    try:
        n = data["vertices"]
        raw = data["edges"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ValueError("edges must be a list of objects")
    unknown = [key for e in raw for key in e if key not in ("u", "v", "d")]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in an edge object")
    try:
        edges = tuple((e["u"], e["v"], e["d"]) for e in raw)
    except KeyError as exc:
        raise ValueError(f"malformed edge object: missing {exc}") from exc
    return CochainGraph(n, edges)


def export_json(g: CochainGraph) -> str:
    return json.dumps(
        {
            "vertices": g.vertex_count,
            "edges": [{"u": u, "v": v, "d": d} for u, v, d in g.edges],
        },
        sort_keys=True,
    )
