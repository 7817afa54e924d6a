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
exists.  lemma_R returns the least such R; find_short_loop performs the
search on a finite window of the cover (levels within R k + 1, enough to
contain a translate of any such loop) and returns a shortest loop found,
failing loudly if its length exceeds 2R.  verify_loop replays a claimed loop
step by step against the graph, independently of the search.

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
    has value -d.  Self-loops count twice toward the degree.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        degree = [0] * self.vertex_count
        for e in self.edges:
            if len(e) != 3:
                raise ValueError("each edge must be (tail, head, value)")
            u, v, d = e
            for w in (u, v):
                if not 0 <= w < self.vertex_count:
                    raise ValueError(f"edge endpoint {w} out of range")
            if not isinstance(d, int):
                raise ValueError("edge values must be integers")
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, deg in enumerate(degree) if deg != 3]
        if bad:
            raise ValueError(
                f"graph is not 3-regular: vertices {bad} have degree != 3"
            )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def cochain_bound(self) -> int:
        """k = max |d| over all edges."""
        return max(abs(e[2]) for e in self.edges)


@dataclass(frozen=True)
class CoverLoop:
    """A closed edge path in the Z-fold cover.

    start = (vertex, level); steps[i] = (edge index, forward flag).  A
    forward step along edge (u, v, d) moves (u, t) -> (v, t + d); a backward
    step moves (v, t) -> (u, t - d).
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
    """Level window R k + 1 containing a translate of any length-2R loop."""
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


def verify_loop(g: CochainGraph, loop: CoverLoop) -> tuple[bool, str]:
    """Replay a loop against the graph; (True, "ok") or (False, why not).

    Checks each step traverses an actual lifted edge, the path closes up
    (same cover vertex, so the values along the loop sum to zero), no cover
    vertex repeats apart from the endpoints, no lifted edge is used twice
    (in either direction), and the length is within the counting bound 2R.
    """
    ok, reason = _structural_check(g, loop)
    if not ok:
        return ok, reason
    bound = 2 * lemma_R(g.cochain_bound, g.edge_count)
    if loop.length > bound:
        return False, f"length {loop.length} exceeds the counting bound {bound}"
    return True, "ok"


def _window_adjacency(
    g: CochainGraph, radius: int
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int], list[list[tuple[int, int, int, bool]]]]:
    """Cover restricted to levels |t| <= radius.

    Returns (nodes, node index map, adjacency) where adjacency[i] lists
    (neighbor index, edge index, tail level, forward flag), sorted for
    deterministic traversal.  Lifted edges leaving the window are omitted.
    """
    nodes = [
        (v, t)
        for v in range(g.vertex_count)
        for t in range(-radius, radius + 1)
    ]
    index = {node: i for i, node in enumerate(nodes)}
    adj: list[list[tuple[int, int, int, bool]]] = [[] for _ in nodes]
    for eidx, (u, v, d) in enumerate(g.edges):
        for t in range(-radius, radius + 1):
            if not -radius <= t + d <= radius:
                continue
            a = index[(u, t)]
            b = index[(v, t + d)]
            adj[a].append((b, eidx, t, True))
            adj[b].append((a, eidx, t, False))
    for lst in adj:
        lst.sort()
    return nodes, index, adj


def _extract_simple(
    walk_nodes: list[int], walk_steps: list[tuple[int, int, int, bool]]
) -> tuple[list[int], list[tuple[int, int, int, bool]]]:
    """Cut a closed walk down to the first simple cycle it contains.

    Scans the walk keeping a stack of visited nodes; a revisit pops the
    detour, leaving a vertex-simple closed subwalk.
    """
    stack_nodes = [walk_nodes[0]]
    stack_steps: list[tuple[int, int, int, bool]] = []
    position = {walk_nodes[0]: 0}
    for node, step in zip(walk_nodes[1:], walk_steps):
        if node in position:
            cut = position[node]
            return stack_nodes[cut:] + [node], stack_steps[cut:] + [step]
        stack_steps.append(step)
        stack_nodes.append(node)
        position[node] = len(stack_nodes) - 1
    raise RuntimeError("walk did not close; window search produced a non-loop")


def find_short_loop(g: CochainGraph) -> CoverLoop:
    """A shortest vertex-simple loop in the level window of the cover.

    Runs a depth-limited breadth-first search from every level-zero window
    vertex in canonical order; an off-tree lifted edge between reached
    vertices closes a candidate walk, which is cut to a simple cycle and
    kept if shorter.  The counting bound guarantees length <= 2R; exceeding
    it (or finding nothing) means the premises are violated: a hard error.
    """
    r = lemma_R(g.cochain_bound, g.edge_count)
    nodes, _, adj = _window_adjacency(g, window_radius(g))
    best: CoverLoop | None = None

    # any loop of length <= 2R translates to levels [0, Rk], so it passes
    # through a level-zero vertex and stays inside the window: starting the
    # search at level zero loses nothing
    starts = [i for i, (_, t) in enumerate(nodes) if t == 0]
    for s in starts:
        if best is not None and best.length == 1:
            break
        # a cycle shorter than the current best needs both endpoints of its
        # closing edge within half its length of the start, so cap the depth
        cap = r if best is None else min(r, max(1, best.length // 2))
        # depth-limited BFS recording the tree step into each vertex
        dist = {s: 0}
        parent: dict[int, tuple[int, tuple[int, int, int, bool]]] = {}
        order = [s]
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if dist[x] >= cap:
                continue
            for step in adj[x]:
                y = step[0]
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = (x, step)
                    order.append(y)
                    queue.append(y)
        # off-tree lifted edges between reached vertices close candidate walks
        seen_tree = {(step[1], step[2]) for _, step in parent.values()}
        for x in order:
            for step in adj[x]:
                y, eidx, tail_level, _ = step
                if y not in dist or (eidx, tail_level) in seen_tree:
                    continue
                bound = dist[x] + dist[y] + 1
                if best is not None and bound >= best.length:
                    continue
                walk_nodes, walk_steps = _close_walk(s, x, y, step, parent)
                simple_nodes, simple_steps = _extract_simple(walk_nodes, walk_steps)
                loop = _loop_from_steps(nodes, simple_nodes, simple_steps)
                ok, reason = _structural_check(g, loop)
                if not ok:
                    raise RuntimeError(f"search produced an invalid loop: {reason}")
                if best is None or loop.length < best.length:
                    best = loop
    if best is None:
        raise RuntimeError(
            "no loop found in the cover window; the counting bound is violated"
        )
    ok, reason = verify_loop(g, loop=best)
    if not ok:
        raise RuntimeError(f"shortest loop found fails verification: {reason}")
    return best


def _close_walk(
    s: int,
    x: int,
    y: int,
    closing: tuple[int, int, int, bool],
    parent: dict[int, tuple[int, tuple[int, int, int, bool]]],
) -> tuple[list[int], list[tuple[int, int, int, bool]]]:
    """Closed walk s -> x -> y -> s from tree paths plus the closing step."""

    def path_to(t: int) -> tuple[list[int], list[tuple[int, int, int, bool]]]:
        rev_nodes = [t]
        rev_steps = []
        while t != s:
            t, step = parent[t]
            rev_steps.append(step)
            rev_nodes.append(t)
        return rev_nodes[::-1], rev_steps[::-1]

    nodes_sx, steps_sx = path_to(x)
    nodes_sy, steps_sy = path_to(y)
    walk_nodes = nodes_sx + nodes_sy[::-1]
    walk_steps = (
        steps_sx
        + [closing]
        + [_reverse_step(nodes_sy[i], st) for i, st in enumerate(steps_sy)][::-1]
    )
    return walk_nodes, walk_steps


def _reverse_step(
    tail: int, step: tuple[int, int, int, bool]
) -> tuple[int, int, int, bool]:
    """The same lifted edge traversed the other way, now heading to tail."""
    _, eidx, tail_level, forward = step
    return (tail, eidx, tail_level, not forward)


def _loop_from_steps(
    nodes: list[tuple[int, int]],
    simple_nodes: list[int],
    simple_steps: list[tuple[int, int, int, bool]],
) -> CoverLoop:
    start = nodes[simple_nodes[0]]
    steps = tuple((eidx, forward) for _, eidx, _, forward in simple_steps)
    return CoverLoop(start, steps)


def random_cubic_cochain(
    n_vertices: int, cochain_bound: int, seed: int
) -> CochainGraph:
    """A random cubic multigraph (pairing model) with random edge values.

    Three half-edges per vertex are paired uniformly (so self-loops and
    parallel edges can occur), and each edge gets an independent uniform
    value in [-cochain_bound, cochain_bound].  Deterministic in the seed.
    """
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

    Parsing is strict: "vertices" and every edge's "u", "v" and "d" must be
    integers (not booleans, strings or floats), and "edges" a list of
    objects; anything else raises ValueError.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    try:
        n = data["vertices"]
        raw = data["edges"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    _check_int(n, "vertices")
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ValueError("edges must be a list of objects")
    edges = []
    for e in raw:
        try:
            edge = (e["u"], e["v"], e["d"])
        except KeyError as exc:
            raise ValueError(f"malformed edge object: missing {exc}") from exc
        for name, value in zip("uvd", edge):
            _check_int(value, f"edge field {name!r}")
        edges.append(edge)
    return CochainGraph(n, tuple(edges))


def _check_int(value: object, what: str) -> None:
    # bool is an int subclass; true must not pass as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def export_json(g: CochainGraph) -> str:
    return json.dumps(
        {
            "vertices": g.vertex_count,
            "edges": [{"u": u, "v": v, "d": d} for u, v, d in g.edges],
        },
        sort_keys=True,
    )
