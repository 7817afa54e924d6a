"""Reachability analysis: primitivity, step images, covering, avoidance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercone import (
    AvoidanceWitness,
    digraph_analysis,
    Digraph,
    NeverCoversError,
    NotPrimitiveError,
    avoidance_at,
    covering_time,
    image_after,
    last_avoidance,
    magic_digraph,
    primitivity_exponent,
    wielandt_cutoff,
)

# Least strictly-positive power of the adjacency matrix of magic_digraph(j, k),
# frozen from an independent run of the integer-matrix brute force below.
EXPONENT_TABLE = {
    (8, 4): 31,
    (27, 9): 134,
    (64, 16): 383,
    (4, 8): 47,
    (9, 27): 287,
    (16, 64): 1119,
    (2, 4): 15,
    (3, 9): 41,
    (4, 16): 87,
    (2, 8): 42,
    (3, 27): 248,
    (4, 64): 967,
}
# Two observed laws, checked at the dense-ladder implementation before the
# stepper replaced it: r(1,n,n^2) = n^3 + n^2 + 2n - 1 and r(1,n,1) = 2n + 2.
EXPONENT_TABLE.update({(n, n * n): n**3 + n**2 + 2 * n - 1 for n in range(2, 31)})
EXPONENT_TABLE.update({(n, 1): 2 * n + 2 for n in range(2, 60)})


@pytest.mark.parametrize(("j", "k"), sorted(EXPONENT_TABLE))
def test_primitivity_exponent_table(j, k):
    assert primitivity_exponent(magic_digraph(j, k)) == EXPONENT_TABLE[(j, k)]


def test_exponent_matches_integer_matrix_brute_force():
    g = magic_digraph(2, 2)
    a = np.array(g.adjacency, dtype=object)
    power = np.eye(g.vertex_count, dtype=object)
    m = 0
    while True:
        m += 1
        power = power @ a
        if all(entry > 0 for entry in power.flat):
            break
    assert primitivity_exponent(g) == m == 9


def test_exponent_definition_on_pinned_instance():
    g = magic_digraph(2, 4)
    e = primitivity_exponent(g)
    full = frozenset(g.labels)
    assert image_after(g, "s", e) == full
    # every vertex must reach everything at e, and some vertex must fail at e-1
    assert all(image_after(g, v, e) == full for v in g.labels)
    assert any(image_after(g, v, e - 1) != full for v in g.labels)


def test_three_cycle_is_not_primitive():
    cyc = Digraph(("u", "v", "w"), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(NotPrimitiveError):
        primitivity_exponent(cyc)


def test_three_cycle_with_loop_has_exponent_four():
    g = Digraph(("u", "v", "w"), ((1, 0, 1), (1, 0, 0), (0, 1, 0)))
    assert primitivity_exponent(g) == 4


def test_single_vertex_cases():
    assert primitivity_exponent(Digraph(("u",), ((1,),))) == 1
    with pytest.raises(NotPrimitiveError):
        primitivity_exponent(Digraph(("u",), ((0,),)))


def test_zero_out_degree_is_not_primitive():
    g = Digraph(("u", "v"), ((0, 0), (1, 0)))  # v has no outgoing edge
    with pytest.raises(NotPrimitiveError):
        primitivity_exponent(g)


def test_wielandt_cutoff():
    assert wielandt_cutoff(17) == 257
    assert wielandt_cutoff(1) == 1


def test_image_pins_on_8_4():
    g = magic_digraph(8, 4)
    assert image_after(g, "b_4", 4) == frozenset({"a_4", "r_4"})
    assert image_after(g, "b_4", 8) == frozenset({"a_3", "a_4", "r_4", "r_8"})


def test_image_pin_on_27_9():
    g = magic_digraph(27, 9)
    assert image_after(g, "b_9", 27) == frozenset(
        {"a_7", "a_8", "a_9", "r_8", "r_9", "r_18", "r_27"}
    )


def test_image_after_basics():
    g = magic_digraph(3, 2)
    assert image_after(g, "s", 0) == frozenset({"s"})
    assert image_after(g, "s", 1) == frozenset({"a_1"})
    assert image_after(g, ["s", "r_3"], 1) == frozenset({"a_1", "s", "b_1"})


def test_image_after_huge_step_counts():
    # the stepper reduces long runs modulo the period of the image sequence
    cyc = Digraph(("u", "v", "w"), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    g = magic_digraph(8, 4)
    for m in (10**12, 10**12 + 1, 10**12 + 2):
        assert image_after(cyc, "u", m) == image_after(cyc, "u", m, method="powers")
        assert image_after(g, "b_4", m) == frozenset(g.labels)
    assert image_after(cyc, "u", 10**12) == frozenset({"v"})


def test_image_after_validation():
    g = magic_digraph(3, 2)
    with pytest.raises(ValueError):
        image_after(g, "s", -1)
    with pytest.raises(ValueError):
        image_after(g, "s", 3, method="magic")
    with pytest.raises(KeyError):
        image_after(g, "nope", 3)


@settings(max_examples=25, deadline=None)
@given(
    sources=st.sets(st.sampled_from(magic_digraph(8, 4).labels), min_size=1),
    m=st.integers(min_value=0, max_value=40),
)
def test_stepping_and_powers_routes_agree(sources, m):
    g = magic_digraph(8, 4)
    assert image_after(g, sources, m, method="steps") == image_after(
        g, sources, m, method="powers"
    )


def test_covering_time_pins():
    assert covering_time(magic_digraph(8, 4), "b_4") == 28
    assert covering_time(magic_digraph(27, 9), "b_9") == 117
    # recorded with the dense-ladder implementation, whose n > 256 branch
    # computed these through matrix powers
    g = magic_digraph(30, 900)
    assert [covering_time(g, v) for v in ("b_900", "s", "r_1", "a_1")] == [
        27060, 27930, 27959, 27929
    ]
    g = magic_digraph(256, 256)
    assert [covering_time(g, v) for v in ("b_256", "s", "r_1", "a_1")] == [
        66048, 66048, 66047, 66047
    ]


def test_covering_time_is_tight():
    g = magic_digraph(8, 4)
    full = frozenset(g.labels)
    assert image_after(g, "b_4", 28) == full
    assert image_after(g, "b_4", 27) != full


def test_covering_time_requires_positive_in_degrees():
    g = Digraph(("u", "v"), ((0, 0), (1, 1)))  # u has no incoming edge
    with pytest.raises(ValueError):
        covering_time(g, "u")


def test_covering_time_never_covers():
    g = Digraph(("u", "v"), ((1, 0), (0, 1)))  # two disjoint self-loops
    with pytest.raises(NeverCoversError):
        covering_time(g, "u")


def test_last_avoidance_pins():
    w = last_avoidance(magic_digraph(8, 4), "b_4", "r_1")
    assert w == AvoidanceWitness("b_4", "r_1", 16)
    w = last_avoidance(magic_digraph(27, 9), "b_9", "r_1")
    assert w.steps == 81
    # recorded with the dense-ladder implementation (see the covering pins)
    g = magic_digraph(30, 900)
    assert last_avoidance(g, "b_900", "r_1").steps == 26130
    assert last_avoidance(g, "s", "r_1").steps == 27000
    g = magic_digraph(256, 256)
    assert last_avoidance(g, "b_256", "r_1").steps == 65536
    assert last_avoidance(g, "s", "r_1").steps == 65536


def test_last_avoidance_is_last():
    g = magic_digraph(8, 4)
    # after the witness, every image up to the covering time hits r_1
    for m in range(17, 28):
        assert "r_1" in image_after(g, "b_4", m)
    assert avoidance_at(g, "b_4", ["r_1"], 16)
    assert not avoidance_at(g, "b_4", ["r_1"], 17)


def test_avoidance_at_multiple_targets():
    g = magic_digraph(8, 4)
    # the 4-step image {a_4, r_4} misses all of r_1..r_3
    assert avoidance_at(g, "b_4", ["r_1", "r_2", "r_3"], 4)
    assert not avoidance_at(g, "b_4", ["r_1", "a_4"], 4)
    with pytest.raises(ValueError):
        avoidance_at(g, "b_4", ["r_1"], 0)


# -- the stepper against the dense route and a brute force, on random inputs


def _brute_image(adj, sources, m):
    """m-step image of a set of vertex indices, straight from the matrix."""
    n = len(adj)
    image = set(sources)
    for _ in range(m):
        image = {t for t in range(n) for s in image if adj[t][s]}
    return image


def _brute_cover(adj, source):
    """Least m <= cutoff whose image of {source} is everything, else None."""
    n = len(adj)
    for m in range(wielandt_cutoff(n) + 1):
        if len(_brute_image(adj, {source}, m)) == n:
            return m
    return None


def _brute_exponent(adj):
    """Least m in 1..cutoff with every entry of A^m positive, else None."""
    n = len(adj)
    reach = [{t for t in range(n) if adj[t][s]} for s in range(n)]
    for m in range(1, wielandt_cutoff(n) + 1):
        if all(len(r) == n for r in reach):
            return m
        reach = [_brute_image(adj, r, 1) for r in reach]
    return None


@st.composite
def small_digraphs(draw):
    """V <= 10 with self-loops and multi-edges; cyclically layered ones are
    imprimitive, and sparse ones are often not strongly connected."""
    n = draw(st.integers(min_value=1, max_value=10))
    cells = st.sampled_from((0, 0, 0, 0, 1, 1, 2))
    adj = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]
    period = draw(st.sampled_from((1, 1, 2, 3)))
    if period > 1:
        layer = draw(st.lists(st.integers(0, period - 1), min_size=n, max_size=n))
        for t in range(n):
            for s in range(n):
                if layer[t] != (layer[s] + 1) % period:
                    adj[t][s] = 0
    labels = tuple(f"v{i}" for i in range(n))
    return Digraph(labels, tuple(tuple(row) for row in adj))


@settings(max_examples=150, deadline=None)
@given(g=small_digraphs())
def test_exponent_matches_brute_force_and_powers(g):
    expected = _brute_exponent(g.adjacency)
    if expected is None:
        with pytest.raises(NotPrimitiveError):
            primitivity_exponent(g)
        return
    r = primitivity_exponent(g)
    assert r == expected
    full = frozenset(g.labels)
    assert all(image_after(g, v, r, method="powers") == full for v in g.labels)
    if r > 1:
        assert any(
            image_after(g, v, r - 1, method="powers") != full for v in g.labels
        )


@settings(max_examples=150, deadline=None)
@given(g=small_digraphs())
def test_covering_and_last_avoidance_match_brute_force(g):
    adj, n = g.adjacency, g.vertex_count
    if any(not any(adj[t]) for t in range(n)):  # a vertex of in-degree zero
        with pytest.raises(ValueError):
            covering_time(g, g.labels[0])
        return
    for s, source in enumerate(g.labels):
        cover = _brute_cover(adj, s)
        if cover is None:
            with pytest.raises(NeverCoversError):
                covering_time(g, source)
            continue
        assert covering_time(g, source) == cover
        for a, avoided in enumerate(g.labels):
            misses = [m for m in range(cover) if a not in _brute_image(adj, {s}, m)]
            if not misses:
                with pytest.raises(ValueError):
                    last_avoidance(g, source, avoided)
                continue
            w = last_avoidance(g, source, avoided)
            assert w == AvoidanceWitness(source, avoided, misses[-1])
            assert avoided not in image_after(g, source, w.steps, method="powers")


@settings(max_examples=150, deadline=None)
@given(g=small_digraphs(), data=st.data())
def test_image_routes_match_brute_force(g, data):
    sources = data.draw(st.sets(st.integers(0, g.vertex_count - 1), min_size=1))
    m = data.draw(st.integers(min_value=0, max_value=3 * wielandt_cutoff(10)))
    labels = [g.labels[i] for i in sources]
    expected = frozenset(g.labels[i] for i in _brute_image(g.adjacency, sources, m))
    assert image_after(g, labels, m, method="steps") == expected
    assert image_after(g, labels, m, method="powers") == expected
    if m >= 1:
        source = min(sources)
        hit = _brute_image(g.adjacency, {source}, m) & sources
        assert avoidance_at(g, g.labels[source], labels, m) == (not hit)


def test_exponent_mismatch_between_routes_raises(monkeypatch):
    real = digraph_analysis._chain_exponent
    calls = []

    def corrupted(step, n):
        calls.append(step)
        r = real(step, n)
        return r + 1 if len(calls) == 1 else r  # corrupt the forward route only

    monkeypatch.setattr(digraph_analysis, "_chain_exponent", corrupted)
    with pytest.raises(RuntimeError, match="re-verification"):
        primitivity_exponent(magic_digraph(8, 4))


def test_avoidance_witness_failing_backward_check_raises(monkeypatch):
    real = digraph_analysis._cover

    def corrupted(step, mask, full, cutoff, watch=0):
        cover, last = real(step, mask, full, cutoff, watch)
        return cover, last + 1  # r_1 is in the image one step after the last miss

    monkeypatch.setattr(digraph_analysis, "_cover", corrupted)
    with pytest.raises(RuntimeError, match="re-verification"):
        last_avoidance(magic_digraph(8, 4), "b_4", "r_1")
