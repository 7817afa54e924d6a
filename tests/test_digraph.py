"""Transition digraph construction, walk certificates, and serialization."""

import json
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercone import (
    Digraph,
    MagicDigraphSpec,
    build_magic_digraph,
    certify_canonical_walks,
    export_digraph_json,
    export_dot,
    import_digraph,
    magic_digraph,
)


def test_vertex_layout():
    g = magic_digraph(3, 2)
    assert g.labels == ("s", "a_1", "a_2", "r_1", "r_2", "r_3", "b_1", "b_2")
    assert g.vertex_count == 1 + 3 + 2 * 2


@pytest.mark.parametrize("j", range(1, 7))
@pytest.mark.parametrize("k", range(1, 7))
def test_size_formulas(j, k):
    g = magic_digraph(j, k)
    assert g.vertex_count == 1 + j + 2 * k
    if k > 1:
        assert g.edge_count == j + 2 * k + 5
    else:
        # the closing edge from the last b vertex to a_1 degenerates away
        assert g.edge_count == j + 2 * k + 4


def test_edge_pins_on_8_4():
    g = magic_digraph(8, 4)
    assert g.vertex_count == 17
    assert g.edge_count == 21
    for src, tgt in [
        ("s", "a_1"),
        ("a_1", "a_2"),
        ("a_4", "a_1"),
        ("a_4", "s"),
        ("a_4", "r_1"),
        ("r_1", "r_2"),
        ("r_8", "s"),
        ("r_8", "b_1"),
        ("b_1", "b_2"),
        ("b_4", "a_1"),
        ("b_4", "r_1"),
    ]:
        assert g.has_edge(src, tgt), (src, tgt)
    assert not g.has_edge("a_1", "s")
    assert not g.has_edge("b_4", "b_1")


def test_degenerate_chain_drops_closing_edge():
    g = magic_digraph(3, 1)
    assert not g.has_edge("b_1", "a_1")
    assert g.has_edge("b_1", "r_1")
    assert g.out_labels("b_1") == ("r_1",)
    # the one-vertex a-chain closes onto itself
    assert g.has_edge("a_1", "a_1")


def test_magic_digraph_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        magic_digraph(0, 2)
    with pytest.raises(ValueError):
        magic_digraph(2, 0)


@pytest.mark.parametrize(
    ("j", "k"),
    [(True, 3), (2, True), (2.0, 3), (2, 3.0), ("2", 3)],
    ids=["j-bool", "k-bool", "j-float", "k-float", "j-string"],
)
def test_magic_digraph_rejects_non_integer_parameters(j, k):
    with pytest.raises(ValueError, match="must be integers"):
        MagicDigraphSpec(j, k)
    with pytest.raises(ValueError, match="must be integers"):
        magic_digraph(j, k)


def test_certify_lengths_small():
    certs = certify_canonical_walks(MagicDigraphSpec(1, 2))
    assert certs.lengths == (2, 3, 4, 5)


def test_certify_lengths_family():
    for j, k in [(8, 4), (3, 9), (2, 2), (1, 3)]:
        certs = certify_canonical_walks(MagicDigraphSpec(j, k))
        assert certs.lengths == (k, k + 1, j + k + 1, j + 2 * k)


def test_certify_walks_are_real_walks():
    g = magic_digraph(4, 3)
    certs = certify_canonical_walks(MagicDigraphSpec(4, 3))
    for walk in (
        certs.short_cycle,
        certs.step_cycle,
        certs.long_cycle,
        certs.spanning_path,
    ):
        for src, tgt in zip(walk, walk[1:]):
            assert g.has_edge(src, tgt), (src, tgt)
    assert certs.short_cycle[0] == certs.short_cycle[-1]
    assert certs.step_cycle[0] == certs.step_cycle[-1]
    assert certs.long_cycle[0] == certs.long_cycle[-1]


def test_certify_spanning_path_covers_every_vertex_once():
    g = magic_digraph(5, 2)
    certs = certify_canonical_walks(MagicDigraphSpec(5, 2))
    assert sorted(certs.spanning_path) == sorted(g.labels)
    assert len(set(certs.spanning_path)) == len(certs.spanning_path)


def test_certify_rejects_single_step_chain():
    with pytest.raises(ValueError):
        certify_canonical_walks(MagicDigraphSpec(3, 1))


def test_json_roundtrip():
    g = magic_digraph(3, 2)
    doc = export_digraph_json(g)
    assert import_digraph(doc) == g


def _matrix(g):
    """The dense matrix of g, built from its edges: adj[t][s] counts the
    edges s -> t."""
    adj = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for source, target, mult in g.edges:
        adj[target][source] = mult
    return adj


def _dense(labels, adj):
    """The digraph of a dense matrix in which adj[t][s] counts the edges
    s -> t, read as triples."""
    n = len(adj)
    return Digraph(labels, [(s, t, adj[t][s]) for t in range(n) for s in range(n) if adj[t][s]])


def _from_pairs(labels, pairs):
    """The digraph with one edge per (source, target) pair listed: a pair
    listed t times is one edge of multiplicity t."""
    return Digraph(labels, [(s, t, m) for (s, t), m in Counter(pairs).items()])


def test_sparse_and_dense_constructors_agree():
    g = magic_digraph(3, 2)
    assert Digraph(g.labels, g.edges) == g
    assert _dense(g.labels, _matrix(g)) == g
    # a pair listed twice is one edge of multiplicity two
    h = _from_pairs(("u", "v"), [(0, 1), (1, 0), (0, 1)])
    assert h == Digraph(("u", "v"), [(1, 0, 1), (0, 1, 2)])
    assert h == _dense(("u", "v"), ((0, 1), (2, 0)))
    assert h.edges == ((0, 1, 2), (1, 0, 1))
    assert h.multiplicity("u", "v") == 2 and h.edge_count == 3
    assert h.out_labels("v") == ("u",)
    with pytest.raises(ValueError):
        Digraph(("u", "v"), [(0, 2, 1)])
    with pytest.raises(ValueError):
        Digraph(("u", "v"), [(False, 1, 1)])


def test_import_validates_document():
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a"], "edges": [[1, 0, 1]]})
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a", "a"], "edges": []})
    # a string is not a list of labels, even when its characters are unique
    with pytest.raises(ValueError):
        import_digraph({"labels": "ab", "edges": [[1, 0, 1], [0, 1, 1]]})
    # a boolean is not a multiplicity, although bool subclasses int
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a", "b"], "edges": [[1, 0, True], [0, 1, 1]]})
    with pytest.raises(ValueError):
        import_digraph('{"labels": ["a", "b"], "edges": [[1, 0, true], [0, 1, 1]]}')
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a", "b"], "edges": [[1, 0, 1], "10"]})
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a", "b"], "edges": [[1, 0, -1], [0, 1, 1]]})
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a", "b"], "edges": [[1, 0, 1.0], [0, 1, 1]]})
    with pytest.raises(ValueError):
        import_digraph({"labels": ["a", 2], "edges": [[1, 0, 1], [0, 1, 1]]})
    # no zero multiplicity and no second edge for a pair
    with pytest.raises(ValueError, match="positive integers"):
        import_digraph({"labels": ["a", "b"], "edges": [[1, 0, 0]]})
    with pytest.raises(ValueError, match="repeats the pair"):
        import_digraph({"labels": ["a", "b"], "edges": [[1, 0, 1], [1, 0, 1]]})
    for junk in ({"labels": ["a"], "edges": [[0, 0, 1]], "junk": 5},
                 '{"labels": ["a"], "edges": [[0, 0, 1]], "junk": 5}'):
        with pytest.raises(ValueError, match="unknown key 'junk'"):
            import_digraph(junk)
    # the dense document of earlier releases has no second reader
    with pytest.raises(ValueError, match="unknown key 'adjacency'"):
        import_digraph({"labels": ["a"], "adjacency": [[1]]})


@pytest.mark.parametrize(
    ("document", "match"),
    [
        ("[]", "must be a JSON object"),
        ('"labels"', "must be a JSON object"),
        ({"labels": ["a"]}, "missing key 'edges'"),
        ('{"edges": [[0, 0, 1]]}', "missing key 'labels'"),
    ],
    ids=["list", "string", "no-edges", "no-labels"],
)
def test_import_refuses_a_document_that_is_not_a_full_object(document, match):
    with pytest.raises(ValueError, match=match):
        import_digraph(document)


def test_document_holds_the_sorted_edge_triples():
    g = magic_digraph(1, 2)
    document = json.loads(export_digraph_json(g))
    assert sorted(document) == ["edges", "labels"]
    assert document["labels"] == list(g.labels)
    assert document["edges"] == [list(edge) for edge in g.edges]
    # edge s -> a_1 is the triple [index of s, index of a_1, 1]
    assert [g.index("s"), g.index("a_1"), 1] in document["edges"]
    assert not any(edge[:2] == [g.index("a_1"), g.index("s")] for edge in document["edges"])


def test_export_dot_lists_every_edge():
    g = magic_digraph(1, 2)
    dot = export_dot(g)
    assert dot.startswith("digraph")
    assert '"s" -> "a_1"' in dot
    assert '"b_2" -> "r_1"' in dot
    assert dot.count("->") == g.edge_count


def _labelled_magic_digraph(j, k):
    """Gamma_(1,j,k)+ from the module docstring's edge list, by label, read
    through a dense matrix."""
    a = [f"a_{i}" for i in range(1, k + 1)]
    r = [f"r_{i}" for i in range(1, j + 1)]
    b = [f"b_{i}" for i in range(1, k + 1)]
    labels = ["s"] + a + r + b
    edges = [("s", a[0]), (a[-1], a[0]), (a[-1], "s"), (a[-1], r[0])]
    edges += [(r[-1], "s"), (r[-1], b[0]), (b[-1], r[0])]
    for chain in (a, r, b):
        edges += zip(chain, chain[1:])
    if k > 1:
        edges.append((b[-1], a[0]))
    index = {lbl: i for i, lbl in enumerate(labels)}
    adjacency = [[0] * len(labels) for _ in labels]
    for source, target in edges:
        adjacency[index[target]][index[source]] += 1
    return _dense(labels, adjacency)


@pytest.mark.parametrize("j", range(1, 13))
def test_index_built_digraph_matches_label_built_reference(j):
    for k in range(1, 13):
        g = build_magic_digraph(MagicDigraphSpec(j, k))
        reference = _labelled_magic_digraph(j, k)
        assert g == reference
        assert g.edges == reference.edges
        assert all(type(v) is int for edge in g.edges for v in edge)


def _first_edge_error(n, edges):
    """The error the per-edge check raises first, as (type, text), or None."""
    pairs = set()
    try:
        for edge in edges:
            if isinstance(edge, int) or len(edge) != 3:
                raise ValueError(
                    f"edge {edge!r} is not a (source, target, multiplicity) triple"
                )
            for v in edge[:2]:
                if type(v) is not int or v < 0:
                    raise ValueError("vertex indices must be nonnegative integers")
                if v >= n:
                    raise ValueError(f"vertex index {v} out of range for {n} labels")
            if type(edge[2]) is not int or edge[2] < 1:
                raise ValueError("edge multiplicities must be positive integers")
            if tuple(edge[:2]) in pairs:
                raise ValueError(f"edge {edge!r} repeats the pair of an earlier edge")
            pairs.add(tuple(edge[:2]))
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _edges_with_bad_ones(n):
    good = st.integers(0, n - 1)
    bad = st.one_of(
        st.booleans(), st.integers(-3, -1), st.integers(n, n + 2), st.just("0")
    )
    vertex = st.one_of(good, good, bad)
    mult = st.one_of(st.integers(1, 3), st.integers(1, 3), st.booleans(),
                     st.integers(-1, 0), st.just(1.0))
    return st.lists(
        st.one_of(
            st.tuples(good, good, st.integers(1, 3)),
            st.tuples(vertex, vertex, mult),
            st.lists(vertex, min_size=3, max_size=3),
            st.tuples(good, good, mult).map(list),
            st.tuples(good, good),
            st.tuples(good, good, good, good),
            st.just("01"),
            st.just("012"),
            st.just(0),
        ),
        max_size=8,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_edges_raises_the_first_error_in_input_order(data):
    n = data.draw(st.integers(1, 4))
    edges = data.draw(_edges_with_bad_ones(n))
    labels = [f"v{i}" for i in range(n)]
    expected = _first_edge_error(n, edges)
    if expected is None:
        g = Digraph(labels, iter(edges))
        adjacency = [[0] * n for _ in range(n)]
        for source, target, mult in edges:
            adjacency[target][source] += mult
        assert g == _dense(labels, adjacency)
        assert all(type(v) is int for edge in g.edges for v in edge)
    else:
        with pytest.raises(expected[0]) as raised:
            Digraph(labels, iter(edges))
        assert str(raised.value) == expected[1]


class _Index(int):
    """An int subclass, which is no vertex index."""


@pytest.mark.parametrize(
    ("build", "match"),
    [
        (lambda: Digraph(("a", "b"), [5]),
         "edge 5 is not a (source, target, multiplicity) triple"),
        (lambda: Digraph(("a", "b"), [(0, 1)]),
         "edge (0, 1) is not a (source, target, multiplicity) triple"),
        (lambda: Digraph(("a", "b"), [(0,)]),
         "edge (0,) is not a (source, target, multiplicity) triple"),
        (lambda: Digraph(("a", "b"), [(0, 1, 1, 1)]),
         "edge (0, 1, 1, 1) is not a (source, target, multiplicity) triple"),
        (lambda: Digraph(("a", "b"), [(_Index(0), 1, 1)]),
         "vertex indices must be nonnegative integers"),
        (lambda: Digraph(("a", "b"), [(1, 0, _Index(1)), (0, 1, 1)]),
         "edge multiplicities must be positive integers"),
        (lambda: Digraph(("a", "b"), [(1, 0, 0)]),
         "edge multiplicities must be positive integers"),
        (lambda: Digraph(("a", "b"), [(1, 0, 1), (0, 1, 1), (1, 0, 2)]),
         "edge (1, 0, 2) repeats the pair of an earlier edge"),
    ],
    ids=["non-pair", "pair", "single", "quadruple", "int-subclass-index",
         "int-subclass-multiplicity", "zero-multiplicity", "repeated-pair"],
)
def test_malformed_digraph_input_is_a_value_error(build, match):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == match


def test_from_edges_finds_a_bool_behind_an_equal_int():
    # (1, 1) and (True, 1) are one key of a dict, but True is still refused
    with pytest.raises(ValueError, match="nonnegative integers"):
        Digraph(("u", "v"), [(1, 1, 1), (True, 1, 1)])
    with pytest.raises(ValueError, match="out of range for 2 labels"):
        Digraph(("u", "v"), [(0, 1, 1), (1, 2, 1), ("x", 0, 1)])
    # and a True multiplicity is no 1
    with pytest.raises(ValueError, match="positive integers"):
        Digraph(("u", "v"), [(0, 1, 1), (1, 0, True)])


@st.composite
def _pair_lists(draw):
    """(n, pairs): random index pairs with repeats and self-loops, plus
    consecutive chains v -> v + 1, some of them with a doubled step."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    for start in draw(st.lists(vertex, max_size=3)):
        stop = draw(st.integers(start, n - 1))
        pairs += zip(range(start, stop), range(start + 1, stop + 1))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return n, draw(st.permutations(pairs))


def _store_invariants(g):
    """The store is maximal runs and the edges of every other source."""
    members = [v for first, last in g.runs for v in range(first, last)]
    assert all(last < first for (_, last), (first, _) in zip(g.runs, g.runs[1:]))
    assert not {s for s, _, _ in g.extra} & set(members)
    singles = [e for e in g.edges if Counter(s for s, _, _ in g.edges)[e[0]] == 1]
    assert sorted(members) == [s for s, t, m in singles if (t, m) == (s + 1, 1)]


@settings(max_examples=300, deadline=None)
@given(first=_pair_lists(), second=_pair_lists())
def test_store_round_trips_random_pair_lists(first, second):
    digraphs = []
    for n, pairs in (first, second):
        labels = tuple(f"v{i}" for i in range(n))
        g = _from_pairs(labels, pairs)
        # the reference: the sorted multiset of pairs, counted
        assert g.edges == tuple(sorted((s, t, m) for (s, t), m in Counter(pairs).items()))
        assert g.edge_count == len(pairs)
        _store_invariants(g)
        adjacency = [[0] * n for _ in range(n)]
        for s, t in pairs:
            adjacency[t][s] += 1
        dense = _dense(labels, adjacency)
        assert dense == g and hash(dense) == hash(g)
        assert Digraph(labels, reversed(g.edges)) == g
        document = export_digraph_json(g)
        assert import_digraph(document) == g
        assert json.loads(document)["edges"] == [list(edge) for edge in g.edges]
        assert _matrix(g) == adjacency
        assert (dense.runs, dense.extra) == (g.runs, g.extra)
        assert Digraph._from_store(labels, g.runs, g.extra) == g
        for v in range(n):
            assert g.successors(v) == tuple(t for s, t, _ in g.edges if s == v)
            assert g.in_degree(v) == sum(t == v for _, t, _ in g.edges)
        digraphs.append(g)
    g, h = digraphs
    same = (g.labels, g.edges) == (h.labels, h.edges)
    assert (g == h) == same
    if same:
        assert hash(g) == hash(h)


@pytest.mark.parametrize(
    ("runs", "extra"),
    [
        (((0, 2), (1, 3)), ()),              # overlapping runs
        (((0, 2), (2, 3)), ()),              # 2 ends one run and starts the next
        (((0, 1),), ((1, 2, 1),)),           # 1's one out-edge 1 -> 2 extends it
        (((0, 2),), ((1, 0, 1),)),           # an extra edge from run member 1
        (((0, 4),), ()),                     # index 4 out of range
        (((2, 1),), ()),                     # first > last
        ((), ((0, 5, 1),)),                  # extra target out of range
        ((), ((1, 0, 1), (0, 1, 2))),        # extra edges out of order
        ((), ((0, 1, 0),)),                  # multiplicity zero
        (((0, True),), ()),                  # a bool for an index
    ],
    ids=["overlap", "touching", "not-maximal", "extra-from-member",
         "out-of-range", "reversed", "target-out-of-range", "unsorted",
         "zero-multiplicity", "bool-index"],
)
def test_store_constructor_refuses_a_malformed_store(runs, extra):
    with pytest.raises(ValueError):
        Digraph._from_store(("v0", "v1", "v2", "v3"), runs, extra)


def test_magic_digraph_store_is_three_runs_and_seven_extra_edges():
    g = magic_digraph(8, 4)
    assert g.runs == ((0, 4), (5, 12), (13, 16))
    assert len(g.extra) == 7 and g.edge_count == 21
    assert magic_digraph(1, 1).runs == ((0, 1),)


def _spelled_out(j, k):
    return (
        ("s",) + tuple(f"a_{i}" for i in range(1, k + 1))
        + tuple(f"r_{i}" for i in range(1, j + 1))
        + tuple(f"b_{i}" for i in range(1, k + 1))
    )


def _misspellings(letter, number, count):
    """Labels that int() reads as number, or that name a number out of
    range, but that no vertex carries."""
    digits = str(number)
    arabic = digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    spellings = [f"0{digits}", f"+{digits}", f" {digits}", f"{digits} ", arabic,
                 f"{digits}_0", str(count + 1), "0", "-1", ""]
    if len(digits) > 1:
        spellings.append(f"{digits[0]}_{digits[1:]}")
    return [f"{letter}_{spelling}" for spelling in spellings]


@settings(max_examples=150, deadline=None)
@given(j=st.integers(1, 60), k=st.integers(1, 60), data=st.data())
def test_gamma_labels_on_demand_match_the_explicit_tuple(j, k, data):
    g = magic_digraph(j, k)
    explicit = _spelled_out(j, k)
    n = len(explicit)
    assert tuple(g.labels) == explicit and len(g.labels) == n
    assert [g.labels[i] for i in range(-n, n)] == list(explicit * 2)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            g.labels[i]
    bounds = st.none() | st.integers(-n - 2, n + 2)
    cut = slice(data.draw(bounds), data.draw(bounds),
                data.draw(st.none() | st.integers(-4, 4).filter(bool)))
    assert g.labels[cut] == explicit[cut] and type(g.labels[cut]) is tuple
    assert [g.index(label) for label in explicit] == list(range(n))
    assert all(label in g.labels for label in explicit)

    # the same store under the explicit tuple: equal, the same hash, and the
    # same documents
    h = Digraph._from_store(explicit, g.runs, g.extra)
    assert g == h and h == g and hash(g) == hash(h)
    assert g.labels == explicit and explicit == g.labels and g.labels != list(explicit)
    assert hash(g.labels) == hash(explicit) and repr(g) == repr(h)
    assert export_digraph_json(g) == export_digraph_json(h)
    assert export_dot(g) == export_dot(h)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and back.labels == explicit
    assert back.index(explicit[-1]) == n - 1

    # every other spelling is refused as the explicit tuple's lookup does
    letter, count = data.draw(st.sampled_from([("a", k), ("r", j), ("b", k)]))
    number = data.draw(st.integers(1, count))
    for label in _misspellings(letter, number, count) + [
        "s_1", "S", "x", " s", 5, None, 1.0, ("s",)
    ]:
        for digraph in (g, h):
            with pytest.raises(KeyError) as refused:
                digraph.index(label)
            assert refused.value.args == (f"no vertex labeled {label!r}",)
        assert label not in g.labels


@st.composite
def _digraphs_in_any_order(draw):
    """Digraphs from random pair lists, and Gamma_(1,j,k)+ with j, k < 40
    in its built index order, reversed or shuffled."""
    if draw(st.booleans()):
        n, pairs = draw(_pair_lists())
        return _from_pairs(tuple(f"v{i}" for i in range(n)), pairs)
    g = magic_digraph(draw(st.integers(1, 39)), draw(st.integers(1, 39)))
    kind = draw(st.sampled_from(["built", "reversed", "shuffled"]))
    if kind == "built":
        return g
    n = g.vertex_count
    order = range(n)[::-1] if kind == "reversed" else draw(st.permutations(range(n)))
    where = {v: i for i, v in enumerate(order)}
    return Digraph([g.labels[v] for v in order],
                   [(where[s], where[t], m) for s, t, m in g.edges])


@settings(max_examples=200, deadline=2000)
@given(g=_digraphs_in_any_order())
def test_document_and_triples_round_trip(g):
    assert import_digraph(export_digraph_json(g)) == g
    assert Digraph(g.labels, g.edges) == g
