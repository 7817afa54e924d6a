"""Short essential loops in Z-fold covers of cubic graphs."""

import json

import pytest

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
)

THETA = CochainGraph(2, ((0, 1, -1), (0, 1, 0), (0, 1, 1)))


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


def test_self_loops_count_twice_toward_degree():
    g = CochainGraph(2, ((0, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert g.edge_count == 3


@pytest.mark.parametrize(
    ("cochain_bound", "edge_count", "expected"),
    [(1, 3, 4), (0, 3, 2), (2, 30, 9), (0, 12, 3)],
)
def test_lemma_R_pins(cochain_bound, edge_count, expected):
    assert lemma_R(cochain_bound, edge_count) == expected


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


def test_verify_rejects_vertex_revisits():
    g = CochainGraph(2, ((0, 0, 0), (0, 1, 0), (1, 1, 0)))
    ok, why = verify_loop(g, CoverLoop((0, 0), ((0, False), (0, False))))
    assert not ok
    assert "vertex" in why


def test_verify_rejects_bad_indices_and_empty_loops():
    assert not verify_loop(THETA, CoverLoop((0, 0), ((7, True),)))[0]
    assert not verify_loop(THETA, CoverLoop((0, 0), ()))[0]
    assert not verify_loop(THETA, CoverLoop((1, 0), ((1, True), (0, False))))[0]


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


def test_import_validates_document():
    with pytest.raises(ValueError):
        import_cochain_graph('{"vertices": 2}')
    with pytest.raises(ValueError):
        import_cochain_graph(
            '{"vertices": 2, "edges": [{"u": 0, "v": 1}]}'
        )
