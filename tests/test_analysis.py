"""Reachability analysis: primitivity, step images, covering, avoidance."""

import ast
import copy
import gc
import json
import math
import os
import pickle
import re
import sys
import tokenize
import weakref
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercone import (
    AvoidanceWitness,
    certificate,
    digraph_analysis,
    Digraph,
    NeverCoversError,
    NotPrimitiveError,
    avoidance_at,
    covering_time,
    export_digraph_json,
    image_after,
    import_digraph,
    last_avoidance,
    magic_digraph,
    primitivity_exponent,
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
# Two observed laws, r(1,n,n^2) = n^3 + n^2 + 2n - 1 and r(1,n,1) = 2n + 2,
# checked with the dense ladder for n <= 30 and n <= 59, and with the
# offset-group stepper for the larger n (n = 100 took the stepper 39 s).
EXPONENT_TABLE.update(
    {(n, n * n): n**3 + n**2 + 2 * n - 1 for n in (*range(2, 31), 40, 64, 100)}
)
EXPONENT_TABLE.update({(n, 1): 2 * n + 2 for n in range(2, 401)})
# r(1,n,n)+ = n^2 + 3n - 1, as a per-state search of the residue tables also
# gives at n = 200, 256, 400, 1000 and 1666; the table of a_n settles one
# residue a round
EXPONENT_TABLE[(200, 200)] = 200**2 + 3 * 200 - 1


@pytest.mark.parametrize(("j", "k"), sorted(EXPONENT_TABLE))
def test_primitivity_exponent_table(j, k):
    assert primitivity_exponent(magic_digraph(j, k)) == EXPONENT_TABLE[(j, k)]


def test_exponent_matches_integer_matrix_brute_force():
    g = magic_digraph(2, 2)
    a = np.array(_matrix(g), dtype=object)
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
    cyc = Digraph(("u", "v", "w"), ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    with pytest.raises(NotPrimitiveError):
        primitivity_exponent(cyc)


def test_three_cycle_with_loop_has_exponent_four():
    g = Digraph(("u", "v", "w"), ((0, 0, 1), (0, 1, 1), (1, 2, 1), (2, 0, 1)))
    assert primitivity_exponent(g) == 4


def test_single_vertex_cases():
    assert primitivity_exponent(Digraph(("u",), ((0, 0, 1),))) == 1
    with pytest.raises(NotPrimitiveError):
        primitivity_exponent(Digraph(("u",), ()))


def test_empty_digraph_is_refused():
    with pytest.raises(ValueError, match="^digraph is empty$") as refusal:
        primitivity_exponent(Digraph((), ()))
    assert type(refusal.value) is ValueError


def test_zero_out_degree_is_not_primitive():
    g = Digraph(("u", "v"), ((0, 1, 1),))  # v has no outgoing edge
    with pytest.raises(NotPrimitiveError):
        primitivity_exponent(g)


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
    # the tables answer any step count through its residue mod a cycle length
    cyc = Digraph(("u", "v", "w"), ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    g = magic_digraph(8, 4)
    for m in (10**12, 10**12 + 1, 10**12 + 2):
        assert image_after(cyc, "u", m) == image_after(cyc, "u", m, method="powers")
        assert image_after(g, "b_4", m) == frozenset(g.labels)
    assert image_after(cyc, "u", 10**12) == frozenset({"v"})


def test_image_after_on_a_long_acyclic_digraph():
    # edges i -> i + 1 and i -> i + 2: no vertex lies on a closed walk, and
    # the walks of length m from v0 end exactly at v_m .. v_2m
    n, m = 1200, 500
    g = Digraph(
        [f"v{i}" for i in range(n)],
        [(i, i + 1, 1) for i in range(n - 1)] + [(i, i + 2, 1) for i in range(n - 2)],
    )
    image = frozenset(f"v{i}" for i in range(m, 2 * m + 1))
    assert image_after(g, "v0", m) == image
    assert avoidance_at(g, "v0", [f"v{m - 1}", f"v{2 * m + 1}"], m)
    assert not avoidance_at(g, "v0", [f"v{2 * m}"], m)


def test_image_after_validation():
    g = magic_digraph(3, 2)
    with pytest.raises(ValueError):
        image_after(g, "s", -1)
    with pytest.raises(ValueError):
        image_after(g, "s", 3, method="magic")
    with pytest.raises(ValueError):
        image_after(g, "s", 3, method="steps")
    with pytest.raises(KeyError):
        image_after(g, "nope", 3)


@pytest.mark.parametrize("m", [True, 2.0, 100.0, "3", None, np.int64(3)])
@pytest.mark.parametrize("query", ["image_after", "avoidance_at"])
def test_step_counts_must_be_ints(query, m):
    g = magic_digraph(3, 2)
    with pytest.raises(ValueError, match="step count"):
        if query == "image_after":
            image_after(g, "s", m)
        else:
            avoidance_at(g, "b_2", ["r_1"], m)


@settings(max_examples=25, deadline=None)
@given(
    sources=st.sets(st.sampled_from(magic_digraph(8, 4).labels), min_size=1),
    m=st.integers(min_value=0, max_value=40),
)
def test_stepping_and_powers_routes_agree(sources, m):
    g = magic_digraph(8, 4)
    assert image_after(g, sources, m) == image_after(g, sources, m, method="powers")


def test_export_and_the_powers_route_keep_nothing_on_the_digraph():
    g = magic_digraph(8, 4)
    # the label index, which both calls read, is the one cache they may fill
    g.index("s")
    before = set(g.__dict__)
    export_digraph_json(g)
    assert image_after(g, "b_4", 4, method="powers") == frozenset({"a_4", "r_4"})
    assert set(g.__dict__) == before


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
    g = Digraph(("u", "v"), ((0, 1, 1), (1, 1, 1)))  # u has no incoming edge
    with pytest.raises(ValueError):
        covering_time(g, "u")


def test_covering_time_never_covers():
    g = Digraph(("u", "v"), ((0, 0, 1), (1, 1, 1)))  # two disjoint self-loops
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


# -- the tables against the dense route and a brute force, on random inputs


def _matrix(g):
    """The dense matrix of g, built from its edges: adj[t][s] counts the
    edges s -> t."""
    adj = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for source, target, mult in g.edges:
        adj[target][source] = mult
    return adj


def _from_pairs(labels, pairs):
    """The digraph with one edge per (source, target) pair listed: a pair
    listed t times is one edge of multiplicity t."""
    return Digraph(labels, [(s, t, m) for (s, t), m in Counter(pairs).items()])


def _brute_image(adj, sources, m):
    """m-step image of a set of vertex indices, straight from the matrix."""
    n = len(adj)
    image = set(sources)
    for _ in range(m):
        image = {t for t in range(n) for s in image if adj[t][s]}
    return image


def _brute_cover(adj, source):
    """Least m <= bound whose image of {source} is everything, else None."""
    n = len(adj)
    bound = (n - 1) ** 2 + 1  # Wielandt: a primitive A has A^bound > 0
    for m in range(bound + 1):
        if len(_brute_image(adj, {source}, m)) == n:
            return m
    return None


def _brute_exponent(adj):
    """Least m in 1..bound with every entry of A^m positive, else None."""
    n = len(adj)
    bound = (n - 1) ** 2 + 1  # Wielandt: a primitive A has A^bound > 0
    reach = [{t for t in range(n) if adj[t][s]} for s in range(n)]
    for m in range(1, bound + 1):
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
    return Digraph(
        labels, [(s, t, adj[t][s]) for t in range(n) for s in range(n) if adj[t][s]]
    )


@settings(max_examples=150, deadline=None)
@given(g=small_digraphs())
def test_exponent_matches_brute_force_and_powers(g):
    expected = _brute_exponent(_matrix(g))
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
    adj, n = _matrix(g), g.vertex_count
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
    m = data.draw(st.integers(min_value=0, max_value=3 * ((10 - 1) ** 2 + 1)))
    labels = [g.labels[i] for i in sources]
    adj = _matrix(g)
    expected = frozenset(g.labels[i] for i in _brute_image(adj, sources, m))
    assert image_after(g, labels, m) == expected
    assert image_after(g, labels, m, method="powers") == expected
    if m >= 1:
        source = min(sources)
        hit = _brute_image(adj, {source}, m) & sources
        assert avoidance_at(g, g.labels[source], labels, m) == (not hit)


@settings(max_examples=150, deadline=None)
@given(g=small_digraphs(), data=st.data())
def test_image_routes_agree_on_huge_step_counts(g, data):
    sources = data.draw(st.sets(st.sampled_from(g.labels), min_size=1))
    m = data.draw(st.integers(min_value=0, max_value=10**12))
    assert image_after(g, sources, m) == image_after(g, sources, m, method="powers")


def test_residue_route_agrees_with_stepping():
    # r is full from every branching vertex, and the vertex that covers
    # last is not full at r - 1, both by matrix powers
    for j in range(1, 31):
        for k in range(1, 31):
            g = magic_digraph(j, k)
            r = primitivity_exponent(g)
            full = frozenset(g.labels)
            for v in g.labels:
                if len(g.out_labels(v)) != 1:
                    assert image_after(g, v, r, method="powers") == full
            worst = max(g.labels, key=lambda v: covering_time(g, v))
            assert covering_time(g, worst) == r
            assert image_after(g, worst, r - 1, method="powers") != full


def test_acyclic_vertices_get_no_table_search(monkeypatch):
    # no vertex of the long acyclic digraph lies on a closed walk, so its
    # skeleton components say so and no residue table is searched for
    calls, real = [], digraph_analysis._residue_table

    def counted(sk, roots, cycles):
        calls.append(roots)
        return real(sk, roots, cycles)

    monkeypatch.setattr(digraph_analysis, "_residue_table", counted)
    n, m = 1200, 500
    g = Digraph(
        [f"v{i}" for i in range(n)],
        [(i, i + 1, 1) for i in range(n - 1)] + [(i, i + 2, 1) for i in range(n - 2)],
    )
    assert image_after(g, "v0", m) == frozenset(f"v{i}" for i in range(m, 2 * m + 1))
    assert calls == []
    # with the edge v1 -> v0 added, v0 and v1 lie on the closed walk
    # v0 v1 v0, so they are one group, and its one table, searched once,
    # answers every state of the search
    g = Digraph(g.labels, g.edges + ((1, 0, 1),))
    assert image_after(g, "v0", m) == image_after(g, "v0", m, method="powers")
    assert calls == [(0, 1)]


@settings(max_examples=150, deadline=None)
@given(g=small_digraphs())
def test_skeleton_components_find_the_vertices_on_closed_walks(g):
    eng = digraph_analysis._engine(g)
    sk = eng.skeleton
    for x, out in enumerate(sk.out_w):
        seen, todo = set(), [z for z, _ in out]
        while todo:
            z = todo.pop()
            if z not in seen:
                seen.add(z)
                todo.extend(y for y, _ in sk.out_w[z])
        assert eng.cyclic[x] == (x in seen)


@pytest.mark.parametrize(
    "build",
    [
        lambda: magic_digraph(3, 2),
        lambda: import_digraph(
            {"labels": ["x", "y", "z"], "edges": [[0, 1, 1], [1, 2, 1], [2, 0, 1], [2, 1, 1]]}
        ),
    ],
    ids=["gamma-1-3-2", "imported"],
)
@pytest.mark.parametrize(
    "duplicate",
    [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_analysed_digraph_survives_pickle_and_copies(monkeypatch, build, duplicate):
    # the engine holds no reference to the digraph, so the state a copy
    # carries answers for it once the original is gone, and nothing is
    # derived again
    g = build()
    source, avoided = g.labels[-1], g.labels[0]
    r, witness = primitivity_exponent(g), last_avoidance(g, source, avoided)
    h = duplicate(g)
    del g
    gc.collect()

    def derive(*args):
        raise AssertionError("the copy derived its analysis state again")

    monkeypatch.setattr(digraph_analysis, "_skeleton", derive)
    monkeypatch.setattr(digraph_analysis, "_residue_table", derive)
    assert primitivity_exponent(h) == r
    assert last_avoidance(h, source, avoided) == witness


def test_engine_holds_no_digraph():
    # nothing reachable from the engine's state is a digraph or a weak
    # reference to one
    g = magic_digraph(3, 2)
    primitivity_exponent(g)
    seen, todo = set(), [digraph_analysis._engine(g)]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (Digraph, weakref.ref))
        todo.extend(gc.get_referents(obj))


@pytest.mark.parametrize("n", [2, 9, 40])
def test_each_table_cover_is_computed_once(monkeypatch, n):
    # Gamma_(1,n,1)+ has one group, r_n (c = n + 1) and a_1 (a loop, c = 1)
    # at modulus n + 1, which the forced walks of its skeleton vertices
    # share: one search, and one cover for each root's lane
    searches, covers = [], []
    search, cover = digraph_analysis._residue_table, digraph_analysis._Lane.cover

    def searched(sk, roots, cycles):
        searches.append(roots)
        return search(sk, roots, cycles)

    def counted(lane, sk):
        covers.append(lane.table.roots[lane.i])
        return cover(lane, sk)

    monkeypatch.setattr(digraph_analysis, "_residue_table", searched)
    monkeypatch.setattr(digraph_analysis._Lane, "cover", counted)
    g = magic_digraph(n, 1)
    primitivity_exponent(g)
    last_avoidance(g, "b_1", "r_1")
    assert searches == [(g.index(f"r_{n}"), g.index("a_1"))]
    assert sorted(covers) == [g.index("a_1"), g.index(f"r_{n}")]


@pytest.mark.parametrize(
    ("build", "count"),
    [(lambda: magic_digraph(9, 9), 3), (lambda: _hub(300), 2)],
    ids=["gamma-1-9-9", "hub-300"],
)
def test_each_root_closed_walk_is_searched_once(monkeypatch, build, count):
    # the roots' shortest closed walks, found once for the groups, are the
    # ones the table search starts from: r_9, b_9 and a_9 on Gamma_(1,9,9)+,
    # v0 and h on the hub
    walks, walk = [], digraph_analysis._shortest_cycle

    def counted(sk, u):
        walks.append(u)
        return walk(sk, u)

    monkeypatch.setattr(digraph_analysis, "_shortest_cycle", counted)
    g = build()
    primitivity_exponent(g)
    roots = digraph_analysis._engine(g).groups
    assert len(roots) == count
    assert sorted(walks) == sorted(roots)


def _groups_of(g):
    """The engine's groups as (root labels, modulus) pairs, each group's
    table searched once."""
    eng = digraph_analysis._engine(g)
    return {
        (frozenset(g.labels[v] for v in roots), eng.table(g, roots[0])[0].table.c)
        for roots in set(eng.groups.values())
    }


def _short_cycle_beside_a_long_one():
    """x -> y, y -> x, x -> t, t -> y, and apart from them the cycle z -> p1
    -> .. -> p1999 -> z with z -> u2 -> p1: x's shortest closed walk has
    length 2 and z's 2000."""
    labels = ["x", "y", "t", "z", *(f"p{i}" for i in range(1, 2000)), "u2"]
    at = {label: i for i, label in enumerate(labels)}
    ring = ["z", *(f"p{i}" for i in range(1, 2000)), "z"]
    pairs = [("x", "y"), ("y", "x"), ("x", "t"), ("t", "y"), ("z", "u2"), ("u2", "p1")]
    pairs += zip(ring, ring[1:])
    return Digraph(labels, [(at[a], at[b], 1) for a, b in pairs])


@pytest.mark.parametrize(
    ("build", "groups"),
    [(lambda n=n: magic_digraph(n, n), {(frozenset({f"a_{n}", f"r_{n}", f"b_{n}"}), 2 * n)})
     for n in (2, 5, 40)]
    + [(lambda n=n: magic_digraph(n, n * n), {
        (frozenset({f"r_{n}", f"b_{n * n}"}), n * n + n), (frozenset({f"a_{n * n}"}), n * n)
    }) for n in (2, 3, 6)]
    + [(lambda n=n: magic_digraph(n, 1), {(frozenset({"a_1", f"r_{n}"}), n + 1)})
       for n in (2, 9, 40)]
    + [(_short_cycle_beside_a_long_one, {(frozenset({"z"}), 2000), (frozenset({"x"}), 2)})],
    ids=["n-n-2", "n-n-5", "n-n-40", "n-n2-2", "n-n2-3", "n-n2-6",
         "n-1-2", "n-1-9", "n-1-40", "short-beside-long"],
)
def test_roots_are_grouped_by_their_shortest_closed_walks(build, groups):
    # (1,n,n)+: a_n (c = n) joins r_n and b_n (c = 2n) at 2n; (1,n,n^2)+:
    # a_k (c = n^2) cannot join r_n and b_k at n^2 + n; (1,n,1)+: the loop
    # at a_1 (c = 1) widens to r_n's n + 1; a 2-cycle through two skeleton
    # vertices is never widened to a long cycle's modulus
    assert _groups_of(build()) == groups


@st.composite
def small_acyclic_digraphs(draw):
    """V <= 10 with edges only from lower to higher index, some doubled."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        max_size=3 * n,
    ))
    return _from_pairs(tuple(f"v{i}" for i in range(n)), pairs)


@settings(max_examples=150, deadline=None)
@given(g=small_acyclic_digraphs(), data=st.data())
def test_acyclic_images_match_powers(g, data):
    sources = data.draw(st.sets(st.sampled_from(g.labels), min_size=1))
    m = data.draw(st.integers(min_value=0, max_value=12))
    image = image_after(g, sources, m)
    assert image == image_after(g, sources, m, method="powers")
    if m:
        for v in sources:
            missed = set(g.labels) - image_after(g, v, m, method="powers")
            assert avoidance_at(g, v, missed, m)
    assert all(t is None for t in digraph_analysis._engine(g)._lanes.values())


@st.composite
def digraphs_with_runs(draw):
    """V <= 7 base vertices with random edges, self-loops and 2-cycles, plus
    long out-degree-1 runs between them (sometimes one from each base vertex
    to the next, around a ring) and a ring of in- and out-degree 1."""
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=2)):
        pairs += [(a, b), (b, a)]
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    if draw(st.booleans()):
        ends += [(v, (v + 1) % n) for v in range(n)]
    total = n
    for a, b in ends:
        length = draw(st.integers(1, 14))
        walk = [a, *range(total, total + length), b]
        pairs += zip(walk, walk[1:])
        total += length
    if draw(st.booleans()):
        ring = list(range(total, total + draw(st.integers(1, 5))))
        pairs += zip(ring, ring[1:] + ring[:1])
        total += len(ring)
    return _from_pairs([f"v{i}" for i in range(total)], pairs)


def _sets_by_length(g, u):
    """(sets, i): sets[L] is the set of ends of walks of length L from u,
    stepped until the next set repeats sets[i]."""
    sets, first, adj = [], {}, _matrix(g)
    current = frozenset({u})
    while current not in first:
        first[current] = len(sets)
        sets.append(current)
        current = frozenset(_brute_image(adj, current, 1))
    return sets, first[current]


def _least_lengths(g, sk, u):
    """(returns, rows): the lengths of the closed walks through u up to the
    end of the first period of the set sequence, and rows(c), where
    rows(c)[x][rho] is the least length of a walk u -> nodes[x] congruent
    to rho mod c, or None, by stepping vertex sets: past the sequence's
    preperiod, (set, length mod c) repeats with the lcm of its period and
    c, so the horizon covers every length."""
    sets, start = _sets_by_length(g, u)
    period = len(sets) - start

    def at(length):
        return sets[length if length < start else start + (length - start) % period]

    def rows(c):
        expected = [[None] * c for _ in sk.nodes]
        for length in range(start + period * c // math.gcd(period, c)):
            reached = at(length)
            for x, v in enumerate(sk.nodes):
                row = expected[x]
                if v in reached and row[length % c] is None:
                    row[length % c] = length
        return expected

    return [L for L in range(1, start + period + 1) if u in at(L)], rows


def _searched(sk, u):
    """The unchecked table of u alone, searched from u's shortest closed
    walk; None when no closed walk passes through u."""
    cycle = digraph_analysis._shortest_cycle(sk, u)
    return cycle and digraph_analysis._residue_table(sk, (u,), (cycle,))


@settings(max_examples=200, deadline=None)
@given(g=digraphs_with_runs())
def test_residue_tables_match_brute_force(g):
    # a table of one root is searched at the length c of the root's
    # shortest closed walk; the residues that no walk reaches are None in
    # both
    sk = digraph_analysis._engine(g).skeleton
    for u in sk.nodes:
        table = _searched(sk, u)
        returns, rows = _least_lengths(g, sk, u)
        if table is None:
            assert not returns
            continue
        assert table.c == returns[0]
        assert len(table.cycles[0]) == table.c + 1
        assert _decoded(table, None) == rows(table.c)


@settings(max_examples=200, deadline=None)
@given(
    g=st.one_of(
        digraphs_with_runs(),
        st.builds(magic_digraph, st.integers(1, 39), st.integers(1, 39)),
    )
)
def test_each_lane_matches_brute_force(g):
    # every lane of every group that the engine searches, decoded, is its
    # root's table at the group's modulus
    eng = digraph_analysis._engine(g)
    sk = eng.skeleton
    for roots in set(eng.groups.values()):
        table = eng.table(g, roots[0])[0].table
        assert table.roots == roots
        for i, u in enumerate(roots):
            returns, rows = _least_lengths(g, sk, u)
            assert table.c % returns[0] == 0
            assert len(table.cycles[i]) == returns[0] + 1
            assert _decoded(table, None, i) == rows(table.c)


def _lane_of(table, mask, i):
    """The residues of lane i in a mask of the table, as a c-bit int."""
    step = len(table.roots)
    return sum(1 << rho for rho in range(table.c) if mask >> rho * step + i & 1)


def _decoded(table, unreached, i=0):
    """Lane i of the table as rows: rows[x][rho] is the least length of a
    walk roots[i] -> nodes[x] congruent to rho mod c, or unreached."""
    c, rows = table.c, []
    for qs, ms in zip(table.rounds, table.masks):
        row = [unreached] * c
        for q, mask in zip(qs, ms):
            lane = _lane_of(table, mask, i)
            for rho in range(c):
                if lane >> rho & 1:
                    row[rho] = q * c + rho
        rows.append(row)
    return rows


_RESIDUE_TABLE = digraph_analysis._residue_table


def _corrupted_tables(monkeypatch, corrupt):
    def corrupted(sk, roots, cycles):
        return corrupt(_RESIDUE_TABLE(sk, roots, cycles))

    monkeypatch.setattr(digraph_analysis, "_residue_table", corrupted)


def _remasked(table, x, edit, i=0):
    """The table with the residues of lane i of row x edited, or None when
    edit returns None: edit maps the (round, residue) pairs of the lane's
    least lengths in the row, highest length first, to its new pairs; the
    other lanes keep theirs."""
    c, step = table.c, len(table.roots)
    pairs = sorted(
        ((q, rho) for q, m in zip(table.rounds[x], table.masks[x])
         for rho in range(c) if m >> rho * step + i & 1),
        key=lambda p: p[0] * c + p[1], reverse=True,
    )
    pairs = edit(pairs, c)
    if pairs is None:
        return None
    others = ((1 << c * step) - 1) ^ sum(1 << rho * step + i for rho in range(c))
    by_round = {q: m & others for q, m in zip(table.rounds[x], table.masks[x])}
    for q, rho in pairs:
        by_round[q] = by_round.get(q, 0) | 1 << rho * step + i
    rounds = [list(qs) for qs in table.rounds]
    masks = [list(ms) for ms in table.masks]
    rounds[x] = sorted(q for q, m in by_round.items() if m)
    masks[x] = [by_round[q] for q in rounds[x]]
    return table._replace(rounds=rounds, masks=masks)


def _raised(table, x, i=0):
    """The least length of residue 0 of row x raised by c."""
    return _remasked(table, x, lambda pairs, c: [
        (q + (rho == 0), rho) for q, rho in pairs
    ] if any(rho == 0 for _, rho in pairs) else None, i)


def _lowered(table, x, i=0):
    """The highest least length of row x lowered by c."""
    return _remasked(table, x, lambda pairs, c: (
        [(pairs[0][0] - 1, pairs[0][1])] + pairs[1:] if pairs and pairs[0][0]
        else None
    ), i)


def _dropped(table, x, i=0):
    """The highest least length of row x dropped."""
    return _remasked(table, x, lambda pairs, c: pairs[1:] if pairs else None, i)


def _added(table, x, i=0):
    """An unreached residue of row x given a length past every other."""
    def edit(pairs, c):
        free = sorted(set(range(c)) - {rho for _, rho in pairs})
        top = pairs[0][0] + 1 if pairs else 0
        return [(top, free[0])] + pairs if free else None

    return _remasked(table, x, edit, i)


def _doubled(table, x, i=0):
    """A second, shorter length for the residue of row x's highest."""
    return _remasked(table, x, lambda pairs, c: (
        [(pairs[0][0] - 1, pairs[0][1])] + pairs if pairs and pairs[0][0] else None
    ), i)


def _reshaped(table, x, edit):
    """The table with row x's lists of rounds and masks edited in place, or
    None when edit returns False."""
    rounds = [list(qs) for qs in table.rounds]
    masks = [list(ms) for ms in table.masks]
    if edit(rounds[x], masks[x], table.c) is False:
        return None
    return table._replace(rounds=rounds, masks=masks)


def _unsorted(table, x):
    """Row x's first two rounds swapped, masks and all."""
    def edit(qs, ms, c):
        if len(qs) < 2:
            return False
        qs[:2], ms[:2] = qs[1::-1], ms[1::-1]

    return _reshaped(table, x, edit)


def _overflowing(table, x):
    """Bit c L, which is no residue of any of the L lanes, set in row x's
    last mask."""
    def edit(qs, ms, c):
        if not ms:
            return False
        ms[-1] |= 1 << c * len(table.roots)

    return _reshaped(table, x, edit)


def _empty_mask(table, x):
    """A round with no residue after row x's last."""
    return _reshaped(table, x, lambda qs, ms, c: (
        qs.append(qs[-1] + 1 if qs else 0), ms.append(0)
    ))


def _negative_round(table, x):
    """Row x's first round moved below round 0."""
    def edit(qs, ms, c):
        if not qs:
            return False
        qs[0] = -1

    return _reshaped(table, x, edit)


def _unpaired_round(table, x):
    """A round number with no mask after row x's last."""
    return _reshaped(table, x, lambda qs, ms, c: qs.append(qs[-1] + 1 if qs else 0))


def _emptied(table, x):
    """Every row emptied: Bellman's equations without D[u][0] = 0 hold."""
    empty = [[] for _ in table.masks]
    return table._replace(rounds=empty, masks=list(map(list, empty)))


def _entry_up(table):
    return _raised(table, len(table.masks) - 1)


def _entry_down(table):
    return _lowered(table, len(table.masks) - 1)


def _cycle_longer(table):
    return table._replace(c=table.c + 1)


TABLE_CORRUPTIONS = (_entry_up, _entry_down, _cycle_longer)


def test_exponent_mismatch_between_routes_raises(monkeypatch):
    # every table is certified before the exponent is read off it
    for corrupt in TABLE_CORRUPTIONS:
        _corrupted_tables(monkeypatch, corrupt)
        with pytest.raises(RuntimeError, match="re-verification"):
            primitivity_exponent(magic_digraph(8, 4))


def test_avoidance_witness_failing_backward_check_raises(monkeypatch):
    # the table behind a witness is certified before the witness is returned
    for corrupt in TABLE_CORRUPTIONS:
        _corrupted_tables(monkeypatch, corrupt)
        with pytest.raises(RuntimeError, match="re-verification"):
            last_avoidance(magic_digraph(8, 4), "b_4", "r_1")


def test_corrupted_skeleton_fails_re_verification(monkeypatch):
    real = digraph_analysis._skeleton

    def skipping(g):
        sk = real(g)
        out = next(out for out in sk.chains if any(len(c.path) > 2 for c in out))
        i = next(i for i, c in enumerate(out) if len(c.path) > 2)
        out[i] = out[i]._replace(path=out[i].path[:1] + out[i].path[2:])
        return sk

    monkeypatch.setattr(digraph_analysis, "_skeleton", skipping)
    with pytest.raises(RuntimeError, match="re-verification"):
        primitivity_exponent(magic_digraph(8, 4))


def _period_two(n):
    """An n-cycle plus the chord 0 -> 3: closed walks of lengths n and n - 2."""
    edges = [(i, (i + 1) % n, 1) for i in range(n)] + [(0, 3, 1)]
    return Digraph([f"v{i}" for i in range(n)], edges)


def _x_and_y():
    """x on closed walks of lengths 4 and 5, with an edge to y, and y on
    two closed walks of length 2 that never leave it: x covers, y never
    does, and one table at modulus 4 holds x's lane, then y's."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7),
             (7, 0), (0, 8), (8, 9), (9, 8), (8, 10), (10, 8)]
    labels = ("x", "a1", "a2", "a3", "b1", "b2", "b3", "b4", "y", "w", "v")
    return Digraph(labels, [(s, t, 1) for s, t in edges])


def _check_failure(g, sk, table):
    """The refusal text of the package's table check, or None; a refusal
    must name re-verification."""
    text = _refusal_text(certificate._check_table, g, sk, table)
    assert text is None or "re-verification" in text
    return text


def _checked_as_the_reference(g, sk, table):
    """The refusal text of the table check, or None; a table that passes
    the clauses on its rounds gets the verdict, root, clause, vertex and
    residue of the numpy reference."""
    text = _check_failure(g, sk, table)
    where = certificate._moves(sk)[0]
    rounds = _refusal_text(certificate._certify_rounds, g, sk, table, where)
    if rounds is not None:
        assert text == rounds
    else:
        reference = _numpy_bellman_failure(g, sk, _as_rows(sk, table))
        assert _failing_entry(text) == _failing_entry(reference)
        assert (text or "").split(" failed")[0] == (reference or "").split(" failed")[0]
    return text


def _failing_entry(text):
    """(clause, vertex, residue) of a refusal of Bellman's equations."""
    if text is None:
        return None
    found = re.search(r"(lower bound|attained) fails at D\[(.+?)\]\[(\d+)\]", text)
    assert found, text
    return found.groups()


def _wrong_cycle(g, table, x, i=0):
    u = g.labels[table.roots[0]]
    if all(g.has_edge(u, v) for v in g.labels):
        return None
    return _cycle_off_the_edges(g, table)


def _added_at_round_14(table, x, i=0):
    """Residue 1 of row x, if no walk reaches it, claimed at round 14: on
    _period_two(10) from v0 that is length 113 = |skeleton| c max w + 1, a
    marker above every least length for a check that writes out rows."""
    return _remasked(table, x, lambda pairs, c: (
        [(14, 1)] + pairs if c > 1 and all(rho != 1 for _, rho in pairs) else None
    ), i)


# (corruption of row x in lane i, a digraph whose branching vertex's table
# it applies to); the row-shape corruptions act on every lane at once
MASK_CORRUPTIONS = [
    (lambda g, t, x, i=0: _raised(t, x, i), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _lowered(t, x, i), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _dropped(t, x, i), lambda: magic_digraph(4, 16)),
    # walks v0 -> v0 have even lengths only, so odd residues are free
    (lambda g, t, x, i=0: _added(t, x, i), lambda: _period_two(6)),
    (lambda g, t, x, i=0: _doubled(t, x, i), lambda: magic_digraph(4, 16)),
    (_wrong_cycle, lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _emptied(t, x), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _unsorted(t, x), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _overflowing(t, x), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _empty_mask(t, x), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _negative_round(t, x), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _unpaired_round(t, x), lambda: magic_digraph(4, 16)),
    (lambda g, t, x, i=0: _added_at_round_14(t, x, i), lambda: _period_two(10)),
]


@pytest.mark.parametrize(
    ("corrupt", "build"),
    MASK_CORRUPTIONS,
    ids=["raised-by-c", "lowered-by-c", "dropped", "added", "second-bit",
         "wrong-cycle", "emptied", "unsorted", "overflowing", "empty-mask",
         "negative-round", "unpaired-round", "added-at-round-14"],
)
def test_bitmap_route_refuses_each_corruption(corrupt, build):
    # the table check runs on the round masks, one residue bitmap a round
    g, eng, sk = _certified(build())
    u = next(v for v, out in zip(sk.nodes, sk.chains) if len(out) > 1)
    table = _searched(sk, u)
    assert _checked_as_the_reference(g, sk, table) is None
    refused = 0
    for x in range(len(sk.nodes)):
        bad = corrupt(g, table, x)
        if bad is not None:
            assert _checked_as_the_reference(g, sk, bad) is not None
            refused += 1
    assert refused


def test_a_claim_at_the_row_marker_is_refused():
    # walks v0 -> v0 of _period_two(10) have lengths 8 and 10, so no walk
    # reaches v0 in an odd length; written out as rows, with the marker
    # |skeleton| c max w + 1 = 113 for unreached residues, a claim of
    # residue 1 at length 113 would read as unreached
    g, eng, sk = _certified(_period_two(10))
    u = g.index("v0")
    table = eng.table(g, u)[0].table
    weights = [len(ch.path) for out in sk.chains for ch in out]
    assert len(sk.nodes) * table.c * max(weights) + 1 == 14 * table.c + 1 == 113
    with pytest.raises(RuntimeError, match=re.escape(
        "re-verification: attained fails at D['v0'][1] = 113"
    )):
        certificate._check_table(g, sk, _added_at_round_14(table, sk.index[u]))


ROUTE_CORRUPTIONS = [None] + [corrupt for corrupt, _ in MASK_CORRUPTIONS]


@settings(max_examples=150, deadline=None)
@given(
    g=st.one_of(
        st.builds(magic_digraph, st.integers(1, 30), st.integers(1, 30)),
        digraphs_with_runs(),
    ),
    data=st.data(),
)
def test_both_check_routes_accept_or_refuse_alike(g, data):
    # the table check and the numpy reference on the decoded rows: a sound
    # table passes both, and every corruption fails both, at one entry
    g, eng, sk = _certified(g)
    cyclic = [v for v in sk.nodes if eng.cyclic[sk.index[v]]]
    if not cyclic:
        return
    u = data.draw(st.sampled_from(cyclic))
    table = _searched(sk, u)
    corrupt = data.draw(st.sampled_from(ROUTE_CORRUPTIONS))
    if corrupt is not None:
        x = data.draw(st.integers(0, len(sk.nodes) - 1))
        table = corrupt(g, table, x)
        if table is None:
            return
    assert (_checked_as_the_reference(g, sk, table) is None) == (corrupt is None)


def _lists_and_ints(data):
    """data as a JSON document gives it back: lists and ints only."""
    plain = json.loads(json.dumps(data))

    def leaves(x):
        return [leaf for y in x for leaf in leaves(y)] if type(x) is list else [x]

    assert all(type(leaf) is int for leaf in leaves(plain))
    return plain


def _refusal_text(check, *args):
    try:
        check(*args)
    except RuntimeError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(
    g=st.one_of(
        st.builds(magic_digraph, st.integers(1, 30), st.integers(1, 30)),
        digraphs_with_runs(),
    ),
    data=st.data(),
)
def test_checker_reads_plain_data(g, data):
    # the checker reads a skeleton and group tables as lists and ints
    # alone, so it calls nothing of the engine's objects, and it refuses
    # each tamper, in any lane, with the text that the engine's objects get
    g, eng, sk = _certified(g)
    plain_sk = _lists_and_ints(sk)
    certificate._certify_skeleton(g, plain_sk)
    x = data.draw(st.integers(0, len(sk.nodes) - 1))
    tables = {id(found[0].table): found[0].table
              for found in map(lambda u: eng.table(g, u), sk.nodes) if found}
    for table in tables.values():
        certificate._check_table(g, plain_sk, _lists_and_ints(table))
        i = data.draw(st.integers(0, len(table.roots) - 1))
        for corrupt, _ in MASK_CORRUPTIONS:
            bad = corrupt(g, table, x, i)
            if bad is None:
                continue
            text = _refusal_text(certificate._check_table, g, sk, bad)
            assert text is not None and "re-verification" in text
            assert _refusal_text(
                certificate._check_table, g, plain_sk, _lists_and_ints(bad)
            ) == text


def test_certificate_imports_no_engine_code():
    # the checker is a second route only if it shares no code with the
    # engine: it may import the standard library and the store, nothing else
    with open(certificate.__file__, "rb") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "fibercone." * (node.level > 0) + (node.module or "")
            if node.module is None:
                imported += [base + alias.name for alias in node.names]
            else:
                imported.append(base)
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib")
    assert "fibercone.traintrack_digraph" in imported
    for name in imported:
        top = name.split(".")[0]
        assert name == "fibercone.traintrack_digraph" or (
            top in sys.stdlib_module_names and top != "importlib"
        ), name


def _hub(n):
    """An n-cycle v0..v(n-1) plus a hub h with h -> h, h -> vi for every i
    and v0 -> h: every vi but v0 has in-degree 2 and out-degree 1."""
    edges = [(i, (i + 1) % n, 1) for i in range(n)] + [(n, n, 1), (0, n, 1)]
    edges += [(n, i, 1) for i in range(n)]
    return Digraph([f"v{i}" for i in range(n)] + ["h"], edges)


# every module of the package, by its file name
PACKAGE_DIR = os.path.dirname(digraph_analysis.__file__)
PACKAGE_FILES = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))


@pytest.mark.parametrize(
    "name", PACKAGE_FILES, ids=[name[:-3] for name in PACKAGE_FILES]
)
def test_analysis_module_stays_below_the_parser_token_doubling(name):
    # CPython's parser doubles its token array at 8192 tokens, which adds
    # about 0.46 MB to the peak RSS of every process that compiles the
    # module from source; a process that runs from the sources compiles
    # every module it imports, and perfbench's class_bounds workload
    # compiles cli.py inside its timed region
    with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
        tokens = [
            tok for tok in tokenize.tokenize(fh.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        ]
    assert len(tokens) < 8192


def test_hub_digraph_exponent():
    # its skeleton is every vertex, with forced runs as long as the cycle
    assert primitivity_exponent(_hub(500)) == 501


def test_hub_digraph_work_is_linear_in_the_skeleton(monkeypatch):
    # the skeleton is all 2001 vertices, 4002 chains; h (out-degree 2001)
    # and v0 (out-degree 2) are the only skeleton vertices of out-degree
    # != 1 and the only roots
    n = 2000
    g = _hub(n)
    counts = Counter()

    def counting(name, owner, size=lambda result: 1):
        step = getattr(owner, name)

        def counted(*args):
            result = step(*args)
            counts[name] += size(result)
            return result

        monkeypatch.setattr(owner, name, counted)

    # successor entries read while the engine is built and checked: the
    # checker looks each step out of h up by bisection, not by scanning
    # h's 2001 successors once per chain (4,012,010 entries)
    counting("successors", Digraph, len)
    eng = digraph_analysis._engine(g)
    assert counts["successors"] <= 3 * (g.vertex_count + g.edge_count)
    # exponent asks for the forced walks of h and v0 only, not of every
    # skeleton vertex (2001 calls)
    counting("forced", digraph_analysis._Engine)
    assert primitivity_exponent(g) == n + 1
    assert counts["forced"] == 2
    # each root's closed walk stops once no shorter closing is left: h's
    # loop and v0 -> h -> v0, not a search of the whole skeleton (4002 pops)
    counting("heappop", digraph_analysis.heapq)
    assert [len(digraph_analysis._shortest_cycle(eng.skeleton, u)) - 1
            for u in sorted(eng.groups)] == [2, 1]
    assert counts["heappop"] <= 10


def test_period_two_cycle_with_chord_is_not_primitive():
    # the unreached odd residues refuse it at once, however long the cycle
    with pytest.raises(NotPrimitiveError, match="unreached"):
        primitivity_exponent(_period_two(4000))


_CERTIFY_REFUSAL = certificate._certify_refusal


def _cycle_broken(refusal):
    return refusal._replace(walk=refusal.walk[:-1])


def _closed_set_holds_u(refusal):
    return refusal._replace(closed=refusal.closed | {refusal.walk[-1]})


def _residues_filled(refusal):
    table = refusal.table
    for x in range(len(table.masks)):
        table = _remasked(table, x, lambda pairs, c: [
            (pairs[0][0] + 1 if pairs else 0, rho)
            for rho in sorted(set(range(c)) - {rho for _, rho in pairs})
        ] + pairs)
    return refusal._replace(table=table)


# (digraph, covering source or None, certificate kind, corruption); each
# digraph's negative verdict carries a certificate of that kind
NEGATIVE_VERDICTS = [
    # a 3-cycle: the forced walk from u closes on itself
    (lambda: Digraph(("u", "v", "w"), ((0, 1, 1), (1, 2, 1), (2, 0, 1))),
     "u", "cycle", _cycle_broken),
    # w -> w, w -> u, u -> x, u -> y, x -> x, y -> y: no closed walk through u
    (lambda: Digraph(
        ("w", "u", "x", "y"),
        ((0, 0, 1), (0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 2, 1), (3, 3, 1))),
     "u", "closed set", _closed_set_holds_u),
    # u -> v only: u has in-degree zero and v out-degree zero
    (lambda: Digraph(("u", "v"), ((0, 1, 1),)), None, "degree zero",
     _closed_set_holds_u),
    # u -> u, u -> v: v has out-degree zero, so its closed set is empty
    (lambda: Digraph(("u", "v"), ((0, 0, 1), (0, 1, 1))), "v",
     "degree zero", _closed_set_holds_u),
    # walks 0 -> 0 have even lengths only
    (lambda: _period_two(4), "v0", "unreached residue", _residues_filled),
]


@pytest.mark.parametrize(
    ("build", "source", "kind", "corrupt"),
    NEGATIVE_VERDICTS,
    ids=[f"{kind}-{i}" for i, (_, _, kind, _) in enumerate(NEGATIVE_VERDICTS)],
)
def test_corrupted_negative_verdict_fails_re_verification(
    monkeypatch, build, source, kind, corrupt
):
    checks = [primitivity_exponent]
    if source is not None:
        checks.append(lambda g: covering_time(g, source))
    for check in checks:
        with pytest.raises((NotPrimitiveError, NeverCoversError)):
            check(build())
    monkeypatch.setattr(
        certificate,
        "_certify_refusal",
        lambda g, sk, v, ref: _CERTIFY_REFUSAL(g, sk, v, corrupt(ref)),
    )
    for check in checks:
        with pytest.raises(RuntimeError, match="re-verification"):
            check(build())


# the full refusal of primitivity_exponent on each NEGATIVE_VERDICTS digraph
NEGATIVE_TEXTS = [
    "not primitive: the forced walk from 'u' cycles, so every image of it is "
    "a single vertex",
    "not primitive: no closed walk passes through 'u', the end of the forced "
    "walk from 'u'",
    "not primitive: 'u' has in- or out-degree zero, which keeps every power "
    "from being positive",
    "not primitive: 'v' has in- or out-degree zero, which keeps every power "
    "from being positive",
    "not primitive: some residue mod 2 of walk lengths from 'v0' to some "
    "vertex is unreached",
]


@pytest.mark.parametrize(
    ("build", "text"),
    [(build, text) for (build, *_), text in zip(NEGATIVE_VERDICTS, NEGATIVE_TEXTS)]
    + [
        # v0 -> v0 cycles, but the branching v1 is refused first: walks
        # v1 -> v1 have even lengths only
        (lambda: Digraph(
            ("v0", "v1", "v2"), ((0, 0, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1))),
         "not primitive: some residue mod 2 of walk lengths from 'v1' to some "
         "vertex is unreached"),
        # the forced walk v2 -> v3 -> v3 enters the cycle at v3 from outside
        (lambda: Digraph(
            ("v0", "v1", "v2", "v3"),
            ((0, 2, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 3, 1), (3, 3, 1))),
         "not primitive: the forced walk from 'v2' cycles, so every image of "
         "it is a single vertex"),
        # y's lane of the table at modulus 4 misses residues, and the text
        # names the length 2 of y's own shortest closed walk
        (_x_and_y,
         "not primitive: some residue mod 2 of walk lengths from 'y' to some "
         "vertex is unreached"),
    ],
    ids=[f"verdict-{i}" for i in range(len(NEGATIVE_TEXTS))]
    + ["branching-first", "cycle-entered", "root-in-a-wider-group"],
)
def test_refusal_texts(build, text):
    with pytest.raises(NotPrimitiveError) as refusal:
        primitivity_exponent(build())
    assert str(refusal.value) == text


def test_degree_zero_is_read_off_the_edges(monkeypatch):
    # a degree reader that claims a zero the store does not have is refuted
    monkeypatch.setattr(digraph_analysis, "_degree_zero", lambda g: 0)
    with pytest.raises(RuntimeError, match="re-verification"):
        primitivity_exponent(magic_digraph(8, 4))


# -- each clause of the checker, handed a crafted certificate ------------------


def _certified(g):
    """(g, engine, skeleton) with the skeleton certified."""
    eng = digraph_analysis._engine(g)
    return g, eng, eng.skeleton


def _with_interior(sk):
    """(out list, index, chain) for the first chain with an interior."""
    out = next(out for out in sk.chains if any(len(ch.path) > 1 for ch in out))
    i = next(i for i, ch in enumerate(out) if len(ch.path) > 1)
    return out, i, out[i]


def _no_chain_list(sk):
    sk.chains.pop()


def _end_inside(sk):
    out, i, chain = _with_interior(sk)
    out[i] = chain._replace(end=chain.path[1])


def _end_elsewhere(sk):
    # the interior's only successor is the chain's end, so another skeleton
    # vertex breaks the last step
    out, i, chain = _with_interior(sk)
    other = next(v for v in sk.nodes if v != chain.end)
    out[i] = chain._replace(end=other)


def _interior_moved(sk):
    # the segment that starts the chain's interior claims offset 2
    _, _, chain = _with_interior(sk)
    at = sk.starts.index(chain.path[1])
    sk.segments[at] = sk.segments[at]._replace(offset=2)


def _stray_place(sk):
    # a one-vertex segment of the chain laid over a skeleton vertex
    _, _, chain = _with_interior(sk)
    ref = sk.segments[sk.starts.index(chain.path[1])].chain
    v = sk.nodes[0]
    sk.segments.append(digraph_analysis._Segment(v, v + 1, ref, 1))
    sk.segments.sort(key=lambda seg: seg.start)
    sk.starts[:] = [seg.start for seg in sk.segments]


def _skeleton_of(sk_tamper):
    def check():
        g, _, sk = _certified(magic_digraph(8, 4))
        sk = copy.deepcopy(sk)
        sk_tamper(sk)
        certificate._certify_skeleton(g, sk)

    return check


def _branching_interior():
    # a -> y, y -> b, y -> c, b -> a, c -> a, with y's edge to c hidden from
    # the skeleton builder, so y (out-degree 2) is read as a chain interior
    labels = ("a", "y", "b", "c")
    g = Digraph(labels, ((0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 0, 1), (3, 0, 1)))
    hidden = Digraph(labels, ((0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 0, 1)))
    certificate._certify_skeleton(g, digraph_analysis._skeleton(hidden))


def _table_of(table_tamper, v="a_4"):
    """A check of the clauses on a table's rounds: the table of v's group
    in Gamma_(1,8,4)+, tampered; a_4 is a group of its own, and r_8 and
    b_4 share one at modulus 12."""
    def check():
        g, eng, sk = _certified(magic_digraph(8, 4))
        table = table_tamper(g, eng.table(g, g.index(v))[0].table)
        certificate._certify_rounds(g, sk, table, certificate._moves(sk)[0])

    return check


def _whole_table_of(v, table_tamper, build=lambda: magic_digraph(8, 4)):
    """A check of the whole table check: the table of v's group, tampered."""
    def check():
        g, eng, sk = _certified(build())
        table = eng.table(g, g.index(v))[0].table
        certificate._check_table(g, sk, table_tamper(g, table))

    return check


def _into_the_lane_below(table):
    """Residue 1 of x's lane at x, claimed in round 1, moved one bit down:
    into y's lane, as residue 0."""
    masks = [list(ms) for ms in table.masks]
    assert masks[0][1] & 0b110 == 0b100
    masks[0][1] ^= 0b110
    return table._replace(masks=masks)


# b_4's closed walk b_4 a_1 .. a_4 r_1 .. r_8 b_1 .. b_3 b_4 in Gamma_(1,8,4)+:
# of length 16, which does not divide 12
_B4_WALK = ["b_4", *(f"a_{i}" for i in range(1, 5)), *(f"r_{i}" for i in range(1, 9)),
            *(f"b_{i}" for i in range(1, 5))]


def _cycle_off_the_edges(g, table):
    # the first root's cycle with its second vertex swapped for one that
    # the root has no edge to
    u, _, *rest = table.cycles[0]
    stranger = next(
        v for v in range(g.vertex_count)
        if not g.has_edge(g.labels[u], g.labels[v])
    )
    return table._replace(cycles=((u, stranger, *rest), *table.cycles[1:]))


def _refusal_of(build, v, make_refusal):
    def check():
        g, eng, sk = _certified(build())
        ref = make_refusal(g, eng)
        certificate._certify_refusal(g, sk, g.index(v), ref)

    return check


def _closed_set_example():
    return NEGATIVE_VERDICTS[1][0]()


def _three_cycle():
    return NEGATIVE_VERDICTS[0][0]()


def _period_two_with_a_source():
    # _period_two(4) plus s -> v0: s has in-degree zero
    edges = [(i, (i + 1) % 4, 1) for i in range(4)] + [(0, 3, 1), (4, 0, 1)]
    return Digraph(("v0", "v1", "v2", "v3", "s"), edges)


_Refusal = certificate._Refusal

# (clause of the checker's refusal text, a check that must raise it)
CHECKER_CLAUSES = [
    ("some skeleton vertex has no list of chains", _skeleton_of(_no_chain_list)),
    ("a chain out of 'a_1' has the wrong ends", _skeleton_of(_end_inside)),
    ("a chain out of 'a_1' is not a path of edges", _skeleton_of(_end_elsewhere)),
    ("a chain out of 'a_1' misplaces its interior", _skeleton_of(_interior_moved)),
    ("some chain interior has in- or out-degree != 1", _branching_interior),
    ("some vertex is neither a skeleton vertex nor one chain's interior",
     _skeleton_of(_stray_place)),
    # a refusal at a_4 that cites a table rooted at b_1 alone
    ("the table is rooted at 'b_1'",
     _refusal_of(lambda: magic_digraph(8, 4), "a_4",
                 lambda g, eng: _Refusal("x", (4,), table=eng.table(g, 4)[0].table._replace(
                     roots=(g.index("b_1"),))))),
    # a_4's table moved to a_2, a chain interior, with the closed walk
    # a_2 a_3 a_4 a_1 a_2 through it
    ("its root is not a skeleton vertex",
     _refusal_of(lambda: magic_digraph(8, 4), "a_2",
                 lambda g, eng: _Refusal("x", (2,), table=eng.table(g, 4)[0].table._replace(
                     roots=(2,), cycles=((2, 3, 4, 1, 2),))))),
    ("the cycle is not a closed walk of length 4 through it",
     _table_of(lambda g, t: t._replace(cycles=(t.cycles[0][:-1],)))),
    # b_4's cycle, in the group of r_8 and b_4, swapped for a closed walk
    # through b_4 whose length does not divide the modulus
    ("the cycle is not a closed walk of length 12 through it, once or repeated",
     _table_of(lambda g, t: t._replace(
         cycles=(t.cycles[0], tuple(map(g.index, _B4_WALK)))), "r_8")),
    ("the table does not hold one cycle for each root",
     _table_of(lambda g, t: t._replace(cycles=t.cycles[:1]), "r_8")),
    ("the cycle is not a walk of the digraph", _table_of(_cycle_off_the_edges)),
    ("the table is not 6 rows of 4 residues",
     _table_of(lambda g, t: t._replace(rounds=t.rounds[:-1]))),
    ("the rounds of 'a_1' are not increasing rounds of nonempty sets of 4 "
     "residues", _table_of(lambda g, t: _empty_mask(t, 1))),
    ("D[u][0] != 0", _table_of(lambda g, t: _emptied(t, 0))),
    # the lane of b_4, the group's second, without its residue 0 at b_4
    ("D[u][0] != 0",
     _table_of(lambda g, t: _moved(t, 5, 0, None, 1), "r_8"),
     "D[u][0] != 0 in the second lane"),
    # a_4's table has c = 4 and one residue a round, r_8's c = 12
    ("D['a_1'] has two lengths in one residue",
     _whole_table_of("a_4", lambda g, t: _doubled(t, 1)),
     "some row has two lengths in one residue"),
    ("D['a_1'] has two lengths in one residue",
     _whole_table_of("r_8", lambda g, t: _doubled(t, 1))),
    # a_1's residue 0, its highest least length, claimed a round later or a
    # round earlier than a chain sends it
    ("lower bound fails at D['a_1'][0] = 16, its predecessors give 12",
     _whole_table_of("a_4", lambda g, t: _raised(t, 1))),
    ("attained fails at D['a_1'][0] = 8, its predecessors give 12",
     _whole_table_of("a_4", lambda g, t: _lowered(t, 1))),
    ("it is not about 'w' among two or more vertices",
     _refusal_of(_closed_set_example, "w",
                 lambda g, eng: _Refusal("x", (1,), closed=eng.beyond(g, 1)))),
    ("the forced walk passes a vertex of out-degree != 1",
     _refusal_of(_closed_set_example, "w",
                 lambda g, eng: _Refusal("x", (0, 1), closed=eng.beyond(g, 1)))),
    ("the forced walk is not a walk of the digraph",
     _refusal_of(_three_cycle, "u",
                 lambda g, eng: _Refusal("x", (0, 2, 1, 0)))),
    ("the set is not closed under successors",
     _refusal_of(_closed_set_example, "u",
                 lambda g, eng: _Refusal("x", (1,), closed=frozenset({2})))),
    ("every residue is reached",
     _refusal_of(lambda: magic_digraph(8, 4), "a_4",
                 lambda g, eng: _Refusal("x", (4,), table=eng.table(g, 4)[0].table))),
    # x's lane is full though y's is not
    ("every residue is reached",
     _refusal_of(_x_and_y, "x",
                 lambda g, eng: _Refusal("x", (0,), table=eng.table(g, 0)[0].table)),
     "every residue of the cited lane is reached"),
    ("some in-degree is zero, so coverage need not be monotone",
     _refusal_of(_period_two_with_a_source, "v0",
                 lambda g, eng: _Refusal("x", (0,), table=eng.table(g, 0)[0].table))),
    # y never reaches x, and x is claimed to reach x in length 4 in y's lane
    ("attained fails at D['x'][0] = 4, its predecessors give 8",
     _whole_table_of("x", lambda g, t: _into_the_lane_below(t), _x_and_y)),
]


# each case is named by its clause, or, where two cases share a clause, by a
# third entry
CHECKER_IDS = [case[2] if len(case) > 2 else case[0] for case in CHECKER_CLAUSES]
CHECKER_CLAUSES = [case[:2] for case in CHECKER_CLAUSES]


@pytest.mark.parametrize(("clause", "check"), CHECKER_CLAUSES, ids=CHECKER_IDS)
def test_each_checker_clause_refuses_its_tamper(clause, check):
    with pytest.raises(RuntimeError, match=re.escape(f"re-verification: {clause}")):
        check()


def _doubled_step():
    """v0 -> v1 => v2 -> v3 -> v0 with v1 => v2 doubled, and v3 -> v3: the
    chain v3 -> v0 v1 v2 -> v3 crosses the runs (0, 1) and (2, 3) and the
    one-vertex segment of v1, whose single out-edge is an extra edge."""
    edges = ((0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1), (3, 3, 1))
    return Digraph(("v0", "v1", "v2", "v3"), edges)


def _segments_merged(g, sk):
    # one segment over v0 v1 v2 tiles as before, but leaves the run (0, 1)
    chain = sk.segments[0].chain
    sk.segments[:] = [digraph_analysis._Segment(0, 3, chain, 1)]
    sk.starts[:] = [0]
    return g


def _entered_inside(g, sk):
    # the skeleton of Gamma_(1,8,4)+ against the digraph with a_4 -> a_3 added
    return Digraph(g.labels, g.edges + ((g.index("a_4"), g.index("a_3"), 1),))


def _offset_moved(g, sk):
    # the segment r_2 .. r_7 claims to start the r-chain's interior one late
    at = sk.starts.index(g.index("r_2"))
    sk.segments[at] = sk.segments[at]._replace(offset=2)
    return g


def _segment_doubled(g, sk):
    # a_3 sits in the segment a_2 a_3 and in one of its own
    seg = sk.segments[0]
    sk.segments.insert(1, seg._replace(start=seg.stop - 1, offset=seg.offset + 1))
    sk.starts.insert(1, seg.stop - 1)
    return g


def _segment_dropped(g, sk):
    # b_1 .. b_3 lie in no segment
    del sk.segments[-1], sk.starts[-1]
    return g


def _wrong_extra_step(g, sk):
    # on Gamma_(1,8,1)+ the chain r_8 -> b_1 -> r_1 is sent on to s, which
    # b_1, outside every run, has no edge to
    out = sk.chains[sk.index[g.index("r_8")]]
    at = next(i for i, ch in enumerate(out) if len(ch.path) > 1)
    out[at] = out[at]._replace(end=g.index("s"))
    return g


def _empty_segment(g, sk):
    # an empty segment at s, whose own piece (s, s + 1) follows it
    sk.segments.insert(0, sk.segments[0]._replace(start=0, stop=0))
    sk.starts.insert(0, 0)
    return g


def _entered_first(g, sk):
    # a_2, the first vertex of the segment a_2 a_3, gets a second edge in
    return Digraph(g.labels, g.edges + ((g.index("a_4"), g.index("a_2"), 1),))


def _segment_of_another_chain(g, sk):
    # the segment r_2 .. r_7 claims the a-chain, at the r-chain's offsets
    at = sk.starts.index(g.index("r_2"))
    sk.segments[at] = sk.segments[at]._replace(chain=sk.segments[0].chain)
    return g


def _ring_beside_a_loop():
    """h -> h, h -> x -> h, and the ring y -> z -> y, whose least vertex y
    stands in for a skeleton vertex."""
    return Digraph(
        ("h", "x", "y", "z"), ((0, 0, 1), (0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1))
    )


def _stand_in_dropped(g, sk):
    # the ring's stand-in y and its chain leave the skeleton, and a segment
    # that no chain holds covers y
    sk.chains.pop()
    del sk.index[sk.nodes.pop()]
    sk.segments.append(digraph_analysis._Segment(2, 3, (len(sk.chains), 0), 0))
    sk.segments.sort(key=lambda seg: seg.start)
    sk.starts[:] = [seg.start for seg in sk.segments]
    return g


def _chain_dropped(g, sk):
    # a_4 keeps its chains to a_1 and r_1 but loses the one to s
    out = sk.chains[sk.index[g.index("a_4")]]
    out[:] = [ch for ch in out if ch.end != g.index("s")]
    return g


def _starts_off(g, sk):
    sk.starts[0] += 1
    return g


# (clause, digraph, tamper of its certified skeleton returning the digraph
# to check it against)
SEGMENT_TAMPERS = [
    ("a chain out of 'r_8' is not a path of edges",
     lambda: magic_digraph(8, 1), _wrong_extra_step),
    ("some vertex is neither a skeleton vertex nor one chain's interior",
     lambda: magic_digraph(8, 4), _empty_segment),
    ("some chain interior has in- or out-degree != 1",
     lambda: magic_digraph(8, 4), _entered_first),
    ("a chain out of 'r_1' misplaces its interior",
     lambda: magic_digraph(8, 4), _segment_of_another_chain),
    ("some vertex is neither a skeleton vertex nor one chain's interior",
     _ring_beside_a_loop, _stand_in_dropped),
    ("the chains out of 'a_4' do not start with its out-edges",
     lambda: magic_digraph(8, 4), _chain_dropped),
    ("some vertex is neither a skeleton vertex nor one chain's interior",
     lambda: magic_digraph(8, 4), _starts_off),
    ("some segment leaves its run", _doubled_step, _segments_merged),
    ("an edge enters a segment past its first vertex",
     lambda: magic_digraph(8, 4), _entered_inside),
    ("a chain out of 'r_1' misplaces its interior",
     lambda: magic_digraph(8, 4), _offset_moved),
    ("some vertex is neither a skeleton vertex nor one chain's interior",
     lambda: magic_digraph(8, 4), _segment_doubled),
    ("some vertex is neither a skeleton vertex nor one chain's interior",
     lambda: magic_digraph(8, 4), _segment_dropped),
]


@pytest.mark.parametrize(
    ("clause", "build", "tamper"),
    SEGMENT_TAMPERS,
    ids=["wrong-extra-step", "empty-segment", "entered-first",
         "another-chain", "unheld-segment", "chain-dropped", "starts-off",
         "leaves-run", "entered-inside", "offset-moved", "in-two-segments",
         "in-no-segment"],
)
def test_each_segment_clause_refuses_its_tamper(clause, build, tamper):
    g, _, sk = _certified(build())
    sk = copy.deepcopy(sk)
    with pytest.raises(RuntimeError, match=re.escape(f"re-verification: {clause}")):
        certificate._certify_skeleton(tamper(g, sk), sk)


def _relabeled(g, order):
    """g with its vertices stored in the given order of old indices: each
    vertex keeps its label and its edges, and the index runs break up."""
    where = {v: i for i, v in enumerate(order)}
    edges = [(where[s], where[t], m) for s, t, m in g.edges]
    return Digraph([g.labels[v] for v in order], edges)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    g=st.one_of(
        small_digraphs(),
        digraphs_with_runs(),
        st.builds(magic_digraph, st.integers(1, 30), st.integers(1, 30)),
    ),
    data=st.data(),
)
def test_relabeling_changes_no_answer(g, data):
    h = _relabeled(g, data.draw(st.permutations(range(g.vertex_count))))
    # the exponent, or a refusal; which vertex a refusal names depends on
    # the index order, but each source's own verdict does not
    r = _outcome(primitivity_exponent, g)
    if type(r) is int:
        assert primitivity_exponent(h) == r
    else:
        assert r[0] is NotPrimitiveError
        assert _outcome(primitivity_exponent, h)[0] is NotPrimitiveError
    for v in g.labels:
        assert _outcome(covering_time, h, v) == _outcome(covering_time, g, v)
    vertex = st.sampled_from(g.labels)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    if "b_1" in g.labels:
        # Gamma_(1,j,k)+: the witness of a standalone class, from b_k
        pairs.append((g.labels[-1], "r_1"))
    for source, avoided in pairs:
        assert (_outcome(last_avoidance, h, source, avoided)
                == _outcome(last_avoidance, g, source, avoided))
    source, m = data.draw(vertex), data.draw(st.integers(0, 3 * g.vertex_count))
    assert image_after(h, source, m) == image_after(g, source, m)


@settings(max_examples=200, deadline=2000)
@given(
    g=st.one_of(
        small_digraphs(),
        digraphs_with_runs(),
        st.builds(magic_digraph, st.integers(1, 39), st.integers(1, 39)),
    )
)
def test_transpose_has_the_same_exponent(g):
    # A^m > 0 exactly when (A^T)^m > 0, so g and its reverse share r, or
    # are both refused; the reverse of Gamma has no index runs, so its
    # skeleton is read off extra edges alone
    h = Digraph(g.labels, [(t, s, m) for s, t, m in g.edges])
    if "b_1" in g.labels:
        assert not h.runs
    r = _outcome(primitivity_exponent, g)
    if type(r) is int:
        assert primitivity_exponent(h) == r
    else:
        assert r[0] is NotPrimitiveError
        assert _outcome(primitivity_exponent, h)[0] is NotPrimitiveError


# -- the table check against a vectorised numpy reference ----------------------


class _Rows(NamedTuple):
    """One lane of a residue table as rows for the numpy reference:
    rows[x][rho] is the least length of a walk root -> nodes[x] congruent
    to rho mod c, or the marker unreached."""

    root: int
    c: int
    rows: list
    unreached: int


def _as_rows(sk, table, unreached=0):
    """The table's lanes as rows, with a marker of at least unreached above
    every length that a chain sends from the table, so above every least
    and every claimed length."""
    highest = max((qs[-1] for qs in table.rounds if qs), default=0)
    weight = max(len(ch.path) for out in sk.chains for ch in out)
    top = max(unreached, (len(sk.nodes) * weight + highest + 1) * table.c + 1)
    return [_Rows(u, table.c, _decoded(table, top, i), top)
            for i, u in enumerate(table.roots)]


def _numpy_bellman_failure(g, sk, lanes):
    """The Bellman clauses of the table check on the lanes of _as_rows, in
    the numpy formulation the package used before its check became plain
    Python, one lane at a time: the refusal text at the first failing
    vertex, least residue and then first lane, or None when every lane
    passes.  It assumes the checks before them passed."""
    xs, zs, ws = [], [], []
    for x, out in enumerate(sk.chains):
        for chain in out:
            xs.append(x)
            zs.append(sk.index[chain.end])
            ws.append(len(chain.path))
    failures = []
    for i, (u, c, rows, top) in enumerate(lanes):
        table_d = np.array(rows, dtype=np.int64 if top < 2**62 else object)
        weights = np.array(ws, dtype=table_d.dtype)[:, None]
        cols = (np.arange(c)[None, :] - weights) % c
        cand = table_d[np.array(xs)[:, None], cols.astype(np.intp)] + weights
        best = np.full(table_d.shape, top, dtype=table_d.dtype)
        np.minimum.at(best, np.array(zs, dtype=np.intp), cand)
        best[sk.index[u], 0] = 0
        if not np.array_equal(table_d, best):
            z, rho = (int(i[0]) for i in np.nonzero(table_d != best))
            failures.append((z, rho, i, u, table_d[z, rho], best[z, rho]))
    if not failures:
        return None
    z, rho, _, u, have, given = min(failures, key=lambda f: f[:3])
    clause = "lower bound" if have > given else "attained"
    return (
        f"residue table of {g.labels[u]!r} failed re-verification: {clause} "
        f"fails at D[{g.labels[sk.nodes[z]]!r}][{rho}] = {have}, "
        f"its predecessors give {given}"
    )


def _moved(table, x, rho, q, i=0):
    """The table with residue rho of lane i of row x claimed at round q, or
    unreached for q None."""
    return _remasked(table, x, lambda pairs, c: [
        pair for pair in pairs if pair[1] != rho
    ] + [(q, rho)] * (q is not None), i)


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(1, 30),
    k=st.integers(1, 30),
    data=st.data(),
)
def test_table_check_agrees_with_numpy_reference(j, k, data):
    # on the group table of a root, in any of its lanes
    g, eng, sk = _certified(magic_digraph(j, k))
    u = data.draw(st.sampled_from(sorted(eng.groups)))
    table = eng.table(g, u)[0].table
    assert _check_failure(g, sk, table) is None
    assert _numpy_bellman_failure(g, sk, _as_rows(sk, table)) is None
    # one residue other than D[root][0] of its lane, which an earlier
    # clause checks, moved to another round, unreached, or claimed at the
    # round of the marker |skeleton| c max w + 1
    i = data.draw(st.integers(0, len(table.roots) - 1))
    x, rho = data.draw(
        st.tuples(st.integers(0, len(sk.nodes) - 1), st.integers(0, table.c - 1))
        .filter(lambda e: e != (sk.index[table.roots[i]], 0))
    )
    bit = rho * len(table.roots) + i
    q = next((q for q, mask in zip(table.rounds[x], table.masks[x])
              if mask >> bit & 1), None)
    weight = max(len(ch.path) for out in sk.chains for ch in out)
    near = (q + 1, q - 1) if q is not None else (1,)
    moved = data.draw(st.sampled_from(
        [r for r in near if r >= 0] + [0, None, len(sk.nodes) * weight]
    ))
    text = _checked_as_the_reference(g, sk, _moved(table, x, rho, moved, i))
    assert (text is None) == (moved == q)


def test_table_check_with_a_marker_above_2_62():
    # walks v0 -> v0 have even lengths only, so odd residues stay unreached;
    # the reference writes them as a marker above 2**62, in object arrays
    g, eng, sk = _certified(_period_two(6))
    u = g.index("v0")
    table = eng.table(g, u)[0].table
    assert _check_failure(g, sk, table) is None
    assert _numpy_bellman_failure(g, sk, _as_rows(sk, table, 2**62 + 5)) is None
    # an odd residue of v0 claimed at a length about 2**62 or 2**64
    for length in (2**62 + 1, 2**62 + 7, 2**64 + 3):
        q, rho = divmod(length, table.c)
        text = _checked_as_the_reference(g, sk, _moved(table, sk.index[u], rho, q))
        assert _failing_entry(text) == ("attained", "'v0'", str(rho))
        assert f" = {length}, " in text
