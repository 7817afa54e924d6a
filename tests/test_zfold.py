"""Short essential loops in Z-fold covers of cubic graphs."""

import dataclasses
import json
import pickle
import re
import time
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercone import (
    CochainGraph,
    CoverLoop,
    export_cochain_json,
    find_short_loop,
    import_cochain_graph,
    lemma_R,
    random_cubic_cochain,
    verify_loop,
    window_radius,
    zfold_cover,
)

THETA = CochainGraph(2, ((0, 1, -1), (0, 1, 0), (0, 1, 1)))
# find_short_loop on random_cubic_cochain(v, k, seed) for even v in 2..20,
# k in 0..4 and seeds 0..5
LOOP_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "zfold_loops.json").read_text()
)


def _k4():
    return CochainGraph(
        4, tuple(sorted((u, v, 0) for u in range(4) for v in range(u + 1, 4)))
    )


def _cube():
    edges = []
    for u in range(8):
        for b in range(3):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v, 0))
    return CochainGraph(8, tuple(sorted(edges)))


def test_graph_validation():
    with pytest.raises(ValueError):
        CochainGraph(3, ((0, 1, 0), (1, 2, 0), (0, 2, 0)))  # all degrees 2
    with pytest.raises(ValueError):
        CochainGraph(2, ((0, 1, 0), (0, 1, 0), (0, 2, 0)))  # endpoint 2 missing
    with pytest.raises(ValueError):
        CochainGraph(0, ())



def test_graph_with_3n_over_2_edges_and_a_degree_4_vertex_is_refused():
    # three edges on two vertices pass the count; vertex 0 has degree 4
    with pytest.raises(ValueError, match=r"vertices \[0, 1\] have degree != 3"):
        CochainGraph(2, ((0, 0, 0), (0, 1, 0), (0, 1, 1)))


@pytest.mark.parametrize(
    ("vertex_count", "edges"),
    [
        (2, ((0, 1, True), (0, 1, 0), (0, 1, 1))),
        (2, ((0.0, 1, 2), (0, 1, 0), (0, 1, 1))),
        (True, ((0, 0, 0), (0, 0, 1))),
    ],
    ids=["value-true", "endpoint-float", "vertex-count-true"],
)
def test_graph_rejects_non_integer_fields(vertex_count, edges):
    with pytest.raises(ValueError, match="must be an integer"):
        CochainGraph(vertex_count, edges)


@pytest.mark.parametrize(
    "edges",
    [(5,), 5, ((0, 1),), ((0, 1, 0, 0),), "011", None],
    ids=["int-edge", "int-edges", "pair", "quadruple", "string", "none"],
)
def test_graph_rejects_malformed_edges(edges):
    with pytest.raises(ValueError, match="each edge must be"):
        CochainGraph(2, edges)


def test_edge_count_is_checked_before_allocating():
    # 20 million vertices and no edges: refused before any degree is counted
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^graph is not 3-regular"):
        import_cochain_graph('{"vertices": 20000000, "edges": []}')
    assert time.perf_counter() - start < 0.1


def test_graph_stores_edges_as_tuples():
    built = CochainGraph(2, [(0, 1, -1), [0, 1, 0], (0, 1, 1)])
    assert built.edges == THETA.edges
    assert all(type(e) is tuple for e in built.edges)
    assert type(built.edges) is tuple
    assert built == THETA
    assert hash(built) == hash(THETA)
    assert len({built, THETA}) == 1


def test_self_loops_count_twice_toward_degree():
    g = CochainGraph(2, ((0, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert g.edge_count == 3


@pytest.mark.parametrize(
    ("cochain_bound", "edge_count", "expected"),
    [(1, 3, 4), (0, 3, 2), (2, 30, 9), (0, 12, 3)],
)
def test_lemma_R_pins(cochain_bound, edge_count, expected):
    assert lemma_R(cochain_bound, edge_count) == expected


def test_lemma_R_refuses_a_negative_bound_or_no_edges():
    with pytest.raises(ValueError, match="cochain bound must be nonnegative"):
        lemma_R(-1, 3)
    with pytest.raises(ValueError, match="edge count must be positive"):
        lemma_R(1, 0)


def test_lemma_R_is_minimal():
    for k, e in [(1, 3), (0, 3), (2, 30), (3, 15), (0, 12)]:
        r = lemma_R(k, e)
        assert 3 * (2**r - 1) > (2 * r * k + 1) * e
        if r > 1:
            assert 3 * (2 ** (r - 1) - 1) <= (2 * (r - 1) * k + 1) * e


def test_window_radius_pin():
    assert window_radius(THETA) == 5  # R = 4 at k = 1, so R*k + 1


def test_theta_loop_pin():
    loop = find_short_loop(THETA)
    assert loop == CoverLoop(
        start=(0, 0), steps=((1, True), (2, False), (1, True), (0, False))
    )
    assert loop.length == 4
    assert verify_loop(THETA, loop) == (True, "ok")


def test_theta_loop_reuses_an_edge_at_two_levels():
    # the degree-0 edge appears twice; the two traversals are distinct lifts
    loop = find_short_loop(THETA)
    used = [e for e, _ in loop.steps]
    assert used.count(1) == 2


def test_flat_k4_recovers_the_base_girth():
    g = _k4()
    loop = find_short_loop(g)
    assert loop.length == 3
    assert verify_loop(g, loop)[0]


def test_flat_cube_recovers_the_base_girth():
    g = _cube()
    loop = find_short_loop(g)
    assert loop.length == 4
    assert verify_loop(g, loop)[0]


def test_flat_self_loop_gives_a_one_cycle():
    g = CochainGraph(2, ((0, 0, 0), (0, 1, 0), (1, 1, 0)))
    loop = find_short_loop(g)
    assert loop.length == 1
    assert verify_loop(g, loop)[0]


def test_verify_rejects_backtracking():
    ok, why = verify_loop(THETA, CoverLoop((0, 0), ((1, True), (1, False))))
    assert not ok
    assert "lifted edge" in why


def test_verify_rejects_open_walks():
    ok, why = verify_loop(THETA, CoverLoop((0, 0), ((1, True), (2, True))))
    assert not ok


@pytest.mark.parametrize(
    ("steps", "why"),
    [
        (((1, False),), "step 0: reversed edge 1 starts at 1, not 0"),
        # edge 1 up to (1, 0), then edge 2 reversed down to (0, -1)
        (((1, True), (2, False)), "not closed: ends at (0, -1), started at (0, 0)"),
    ],
    ids=["reversed-edge-elsewhere", "not-closed"],
)
def test_verify_names_the_broken_step_or_the_open_end(steps, why):
    assert verify_loop(THETA, CoverLoop((0, 0), steps)) == (False, why)


def test_verify_rejects_vertex_revisits():
    g = CochainGraph(2, ((0, 0, 0), (0, 1, 0), (1, 1, 0)))
    ok, why = verify_loop(g, CoverLoop((0, 0), ((0, False), (0, False))))
    assert not ok
    assert "vertex" in why


def test_verify_rejects_bad_indices_and_empty_loops():
    assert not verify_loop(THETA, CoverLoop((0, 0), ((7, True),)))[0]
    assert not verify_loop(THETA, CoverLoop((0, 0), ()))[0]
    assert not verify_loop(THETA, CoverLoop((1, 0), ((1, True), (0, False))))[0]


@pytest.mark.parametrize(
    "loop",
    [
        CoverLoop((0, 0), ((True, True), (2, False), (1, True), (0, False))),
        CoverLoop((0, 0), ((1, 1), (2, 0), (1, 1), (0, 0))),
        CoverLoop((0, 0.0), ((1, True), (2, False), (1, True), (0, False))),
        CoverLoop((False, 0), ((1, True), (2, False), (1, True), (0, False))),
        CoverLoop((0, 0), ((1.0, True), (2, False), (1, True), (0, False))),
        CoverLoop((0, 0, 0), ((1, True), (2, False), (1, True), (0, False))),
        CoverLoop((0, 0), ((1, True, 0), (2, False), (1, True), (0, False))),
        CoverLoop(0, ((1, True),)),
        CoverLoop((0, 0), 5),
        CoverLoop((0, 0), (None,)),
    ],
    ids=[
        "bool-edge-index",
        "int-flags",
        "float-level",
        "bool-vertex",
        "float-edge-index",
        "start-triple",
        "step-triple",
        "start-int",
        "steps-int",
        "step-none",
    ],
)
def test_verify_refuses_malformed_loops_without_raising(loop):
    ok, why = verify_loop(THETA, loop)
    assert not ok
    assert "start" in why or "step" in why


def test_verify_enforces_the_counting_bound():
    # an 8-cycle in the flat cube is a genuine cover cycle, but it is longer
    # than the certified bound 2R = 6, so the certificate must refuse it
    g = _cube()
    eidx = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
    ham = [0, 1, 3, 2, 6, 7, 5, 4]
    steps = []
    for a, b in zip(ham, ham[1:] + ham[:1]):
        if (a, b) in eidx:
            steps.append((eidx[(a, b)], True))
        else:
            steps.append((eidx[(b, a)], False))
    ok, why = verify_loop(g, CoverLoop((0, 0), tuple(steps)))
    assert not ok
    assert "bound" in why


def test_verification_is_translation_invariant():
    loop = find_short_loop(THETA)
    shifted = CoverLoop((loop.start[0], loop.start[1] + 5), loop.steps)
    assert verify_loop(THETA, shifted) == (True, "ok")


def test_found_loops_meet_the_certified_bound():
    for seed in range(20):
        g = random_cubic_cochain(8 + 2 * (seed % 5), 3, seed=seed)
        loop = find_short_loop(g)
        ok, why = verify_loop(g, loop)
        assert ok, why
        assert loop.length <= 2 * lemma_R(g.cochain_bound, g.edge_count)


@pytest.mark.parametrize("vertices", range(2, 21, 2))
def test_find_short_loop_matches_golden(vertices):
    cases = [c for c in LOOP_GOLDEN if c["vertices"] == vertices]
    assert len(cases) == 30
    for c in cases:
        g = random_cubic_cochain(vertices, c["cochain_bound"], c["seed"])
        loop = find_short_loop(g)
        assert [list(loop.start), [list(s) for s in loop.steps]] == [
            c["start"],
            c["steps"],
        ], c


def _brute_force_girth(g):
    """Least length of a closed walk from a level-0 cover vertex that repeats
    no cover vertex and no lifted edge, by exhaustive depth-first search."""
    moves = [[] for _ in range(g.vertex_count)]
    for e, (u, v, d) in enumerate(g.edges):
        # (head, level change, tail level offset of the lifted edge)
        moves[u].append((e, v, d, 0))
        moves[v].append((e, u, -d, -d))
    best = 2 * lemma_R(g.cochain_bound, g.edge_count) + 1

    def walk(start, node, visited, used, length):
        nonlocal best
        vertex, level = node
        for e, head, dt, offset in moves[vertex]:
            lifted = (e, level + offset)
            nxt = (head, level + dt)
            if lifted in used:
                continue
            if nxt == start:
                best = min(best, length + 1)
            elif nxt not in visited and length + 2 < best:
                walk(start, nxt, visited | {nxt}, used | {lifted}, length + 1)

    for v in range(g.vertex_count):
        walk((v, 0), (v, 0), {(v, 0)}, frozenset(), 0)
    return best


@st.composite
def small_cubic_cochains(draw):
    n = draw(st.sampled_from([2, 4, 6]))
    halves = draw(st.permutations(range(3 * n)))
    m = 3 * n // 2
    values = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    edges = tuple(
        (halves[2 * i] // 3, halves[2 * i + 1] // 3, d) for i, d in enumerate(values)
    )
    return CochainGraph(n, edges)


@settings(max_examples=200, deadline=None)
@given(g=small_cubic_cochains())
def test_find_short_loop_is_shortest(g):
    assert find_short_loop(g).length == _brute_force_girth(g)


def _reference_short_loop(g):
    """find_short_loop on a materialized window of the cover.

    Every lifted edge within the levels |t| <= window_radius(g) is built,
    adjacency lists are sorted, and after each start's depth-limited BFS the
    reached vertices are scanned in BFS order for off-tree closing edges.
    """
    r = lemma_R(g.cochain_bound, g.edge_count)
    radius = window_radius(g)
    width = 2 * radius + 1
    nodes = [(v, t) for v in range(g.vertex_count) for t in range(-radius, radius + 1)]
    adj = [[] for _ in nodes]
    for e, (u, v, d) in enumerate(g.edges):
        for t in range(-radius, radius + 1):
            if -radius <= t + d <= radius:
                a = u * width + t + radius
                b = v * width + t + d + radius
                adj[a].append((b, e, t, True))
                adj[b].append((a, e, t, False))
    for lst in adj:
        lst.sort()

    def cycle(parent, x, closing):
        path_x = [x]
        while path_x[-1] in parent:
            path_x.append(parent[path_x[-1]][0])
        z = closing[0]
        climb = []
        while z not in path_x:
            z, (_, e, _, forward) = parent[z]
            climb.append((e, not forward))
        descent = [parent[w][1] for w in reversed(path_x[: path_x.index(z)])]
        steps = [(e, forward) for _, e, _, forward in descent + [closing]]
        return CoverLoop(nodes[z], tuple(steps + climb))

    best = None
    for s in (i for i, (_, t) in enumerate(nodes) if t == 0):
        if best is not None and best.length == 1:
            break
        cap = r if best is None else min(r, max(1, best.length // 2))
        dist, parent, order, queue = {s: 0}, {}, [s], deque([s])
        while queue:
            x = queue.popleft()
            if dist[x] >= cap:
                continue
            for step in adj[x]:
                if step[0] not in dist:
                    dist[step[0]] = dist[x] + 1
                    parent[step[0]] = (x, step)
                    order.append(step[0])
                    queue.append(step[0])
        tree = {(step[1], step[2]) for _, step in parent.values()}
        for x in order:
            for step in adj[x]:
                y, e, tail, _ = step
                if y not in dist or (e, tail) in tree:
                    continue
                if best is not None and dist[x] + dist[y] + 1 >= best.length:
                    continue
                loop = cycle(parent, x, step)
                if best is None or loop.length < best.length:
                    best = loop
    return best


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 20).map(lambda h: 2 * h),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_find_short_loop_matches_the_materialized_window(n, k, seed):
    g = random_cubic_cochain(n, k, seed)
    assert find_short_loop(g) == _reference_short_loop(g)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 20).map(lambda h: 2 * h),
    k=st.integers(7, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_find_short_loop_matches_the_materialized_window_for_larger_bounds(
    n, k, seed
):
    g = random_cubic_cochain(n, k, seed)
    assert find_short_loop(g) == _reference_short_loop(g)


@pytest.mark.parametrize(
    "edges, expected",
    [
        # a zero-valued self-loop lifts to a 1-cycle, stepped backward first
        (((0, 0, 0), (0, 1, 5), (1, 1, 3)), CoverLoop((0, 0), ((0, False),))),
        # parallel edges of equal value close a 2-cycle at every level
        (
            ((0, 1, 2), (0, 1, 2), (0, 1, -1)),
            CoverLoop((0, 0), ((1, True), (0, False))),
        ),
    ],
    ids=["zero-self-loop", "parallel-equal-values"],
)
def test_find_short_loop_pins_on_hand_built_graphs(edges, expected):
    assert find_short_loop(CochainGraph(2, edges)) == expected


def test_find_short_loop_with_a_huge_cochain_value_stays_small():
    g = CochainGraph(2, ((0, 1, 0), (0, 1, 0), (0, 1, 10**9)))
    tracemalloc.start()
    try:
        loop = find_short_loop(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loop == CoverLoop((0, 0), ((1, True), (0, False)))
    assert peak < 2**20


def test_node_ids_decode_to_their_cover_vertices():
    g = random_cubic_cochain(10, 4, seed=3)
    k = g.cochain_bound
    r = lemma_R(k, g.edge_count)
    offset, width, steps = zfold_cover._id_steps(g, r)

    def decode(node):
        vertex, level = divmod(node, width)
        return vertex, level - offset

    assert k == 4
    assert sorted((e, fwd) for lst in steps for _, e, _, fwd in lst) == sorted(
        (e, fwd) for e in range(g.edge_count) for fwd in (True, False)
    )
    for w in range(g.vertex_count):
        for t in range(-r * k, r * k + 1):
            x = w * width + t + offset
            assert decode(x) == (w, t)
            moves = []
            for delta, e, tail, fwd in steps[w]:
                u, v, d = g.edges[e]
                head, head_level = (v, t + d) if fwd else (u, t - d)
                assert w == (u if fwd else v)
                assert decode(x + delta) == (head, head_level)
                assert t + tail == (t if fwd else t - d)
                moves.append((head, head_level, e, t + tail, fwd))
            assert moves == sorted(moves)


def test_find_short_loop_checks_each_candidate(monkeypatch):
    monkeypatch.setattr(
        zfold_cover, "_structural_check", lambda g, loop: (False, "rejected")
    )
    with pytest.raises(RuntimeError, match="invalid loop"):
        find_short_loop(THETA)


def test_find_short_loop_replays_its_result(monkeypatch):
    monkeypatch.setattr(zfold_cover, "verify_loop", lambda g, loop: (False, "rejected"))
    with pytest.raises(RuntimeError, match="fails verification"):
        find_short_loop(THETA)


def test_random_model_is_deterministic_and_cubic():
    a = random_cubic_cochain(10, 3, seed=7)
    b = random_cubic_cochain(10, 3, seed=7)
    c = random_cubic_cochain(10, 3, seed=8)
    assert a == b
    assert a != c
    assert a.edge_count == 15  # 3n/2
    assert all(-3 <= d <= 3 for _, _, d in a.edges)
    degree = [0] * 10
    for u, v, _ in a.edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [3] * 10


def test_random_model_validation():
    with pytest.raises(ValueError):
        random_cubic_cochain(7, 2, seed=0)
    with pytest.raises(ValueError):
        random_cubic_cochain(0, 2, seed=0)
    with pytest.raises(ValueError):
        random_cubic_cochain(4, -1, seed=0)


@pytest.mark.parametrize(
    "args",
    [(4.0, 1), (4, 1.0), (True, 1), (4, True), ("4", 1), (4, None)],
    ids=["float-count", "float-bound", "bool-count", "bool-bound", "str-count",
         "none-bound"],
)
def test_random_model_refuses_non_integer_arguments(args):
    with pytest.raises(ValueError, match="must be an integer"):
        random_cubic_cochain(*args, seed=0)


@pytest.mark.parametrize(
    "seed", [True, 1.0, "1", [1]], ids=["bool", "float", "str", "list"]
)
def test_random_model_refuses_a_seed_that_is_not_an_int(seed):
    # True would draw seed 1's graph and [1] would fail inside random
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_cubic_cochain(4, 1, seed)


def test_json_roundtrip_uses_edge_objects():
    doc = export_cochain_json(THETA)
    parsed = json.loads(doc)
    assert parsed["vertices"] == 2
    assert {"u": 0, "v": 1, "d": -1} in parsed["edges"]
    assert import_cochain_graph(doc) == THETA


@pytest.mark.parametrize(
    "document",
    [
        {"vertices": "2", "edges": []},
        {"vertices": True, "edges": []},
        {"vertices": 2.0, "edges": []},
        {"vertices": 2, "edges": {"u": 0, "v": 1, "d": 1}},
        {"vertices": 2, "edges": [[0, 1, 1]]},
        {"vertices": 2, "edges": [{"u": "0", "v": 1, "d": 1}]},
        {"vertices": 2, "edges": [{"u": 0, "v": True, "d": 1}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "d": "3"}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "d": 1.9}]},
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "d": True}]},
    ],
    ids=[
        "vertices-string",
        "vertices-bool",
        "vertices-float",
        "edges-object",
        "edge-list",
        "u-string",
        "v-bool",
        "d-string",
        "d-float",
        "d-bool",
    ],
)
def test_import_rejects_non_integer_fields(document):
    with pytest.raises(ValueError):
        import_cochain_graph(document)
    with pytest.raises(ValueError):
        import_cochain_graph(json.dumps(document))


def test_valid_documents_round_trip_unchanged():
    for seed in range(20):
        g = random_cubic_cochain(10, 3, seed)
        doc = export_cochain_json(g)
        back = import_cochain_graph(doc)
        assert back == g
        assert export_cochain_json(back) == doc


@settings(max_examples=200, deadline=None)
@given(
    half=st.integers(1, 40),
    bound=st.integers(0, 10**6),
    seed=st.integers(-(2**64), 2**64),
)
def test_random_documents_round_trip(half, bound, seed):
    g = random_cubic_cochain(2 * half, bound, seed)
    assert import_cochain_graph(export_cochain_json(g)) == g


def test_import_validates_document():
    with pytest.raises(ValueError):
        import_cochain_graph('{"vertices": 2}')
    with pytest.raises(ValueError):
        import_cochain_graph(
            '{"vertices": 2, "edges": [{"u": 0, "v": 1}]}'
        )
    with pytest.raises(ValueError, match="expected a JSON object"):
        import_cochain_graph("[]")


@pytest.mark.parametrize(
    "document, key",
    [
        ({"vertices": 2, "extra": 1, "edges": [{"u": 0, "v": 1, "d": 0}] * 3},
         "extra"),
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "d": 0, "x": 5}] * 3}, "x"),
    ],
    ids=["document-key", "edge-key"],
)
def test_import_refuses_unknown_keys(document, key):
    for doc in (document, json.dumps(document)):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            import_cochain_graph(doc)


def test_cover_loop_is_slotted_and_pickles():
    loop = find_short_loop(THETA)
    assert not hasattr(loop, "__dict__")
    assert pickle.loads(pickle.dumps(loop)) == loop
    assert dataclasses.asdict(loop) == {
        "start": (0, 0),
        "steps": ((1, True), (2, False), (1, True), (0, False)),
    }
    assert loop != dataclasses.replace(loop, start=(0, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        loop.start = (1, 0)
    # a name that is no field fails in the slotted __setattr__'s super()
    with pytest.raises(TypeError, match=re.escape("super(type, obj)")):
        loop.length = 4
