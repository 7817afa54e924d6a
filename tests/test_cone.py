"""Lattice monoid machinery: Hilbert bases, interior seeds, splits."""

import copy
import dataclasses
import json
import pickle
import re
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibercone import cone_monoid
from fibercone import (
    BoundTooSmallError,
    ConeSpec,
    EmptyInteriorError,
    NoDecompositionError,
    arithmetic_split,
    cone_constant,
    decompose_interior,
    hilbert_basis,
    hilbert_data,
    hilbert_data_from_omega,
    l1_norm,
    thurston_form,
)

# quarter-plane-like cone {y >= 0, 3x >= 2y} used as the small worked example
SLICE_ROWS = ((0, 1), (3, -2))
# the fibered cone of the magic manifold: x, y > 0 and x, y > z on the interior
MAGIC_ROWS = ((1, 0, 0), (0, 1, 0), (1, 0, -1), (0, 1, -1))
# hilbert_data of the two cones above and of 40 small seeded cones at bounds
# 3..6, each with at least dim facet rows; entries 7, 13, 24, 26 and 38 were
# once pinned, incomplete, at the bounds in INCOMPLETE_AT_OLD_BOUND
HILBERT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "hilbert_data.json").read_text()
)


def test_norms():
    assert l1_norm((-2, 3, 1)) == 6
    assert l1_norm(()) == 0
    assert thurston_form((5, 13, 1)) == 17
    assert thurston_form((7, 9, 2)) == 14
    with pytest.raises(ValueError):
        thurston_form((1, 2))


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec(())
    with pytest.raises(ValueError):
        ConeSpec(((1, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        ConeSpec(((1, 0, 0, 0),))


@pytest.mark.parametrize(
    "rows",
    [
        ((True, 0), (0, 1)),
        ((1, 0), (0, 1.0)),
        ((1, 0), ("0", 1)),
        ((1, 0), (None, 1)),
    ],
    ids=["bool", "float", "string", "none"],
)
def test_cone_spec_rejects_non_integer_entries(rows):
    with pytest.raises(ValueError, match="must be integers"):
        ConeSpec(rows)


@pytest.mark.parametrize("rows", [((1, 0), 5), 5], ids=["row", "matrix"])
def test_cone_spec_rejects_rows_that_are_not_sequences(rows):
    with pytest.raises(ValueError, match="sequences of integers"):
        ConeSpec(rows)


def test_cone_spec_membership():
    spec = ConeSpec(SLICE_ROWS)
    assert spec.contains((1, 0))
    assert spec.contains((2, 3))
    assert not spec.contains((0, 1))
    assert spec.strictly_positive_rows((1, 1))
    assert not spec.strictly_positive_rows((2, 3))


def test_empty_interior_is_rejected():
    with pytest.raises(EmptyInteriorError) as info:
        ConeSpec(((1, 0), (-1, 0)))
    # the refusal names the test it comes from: the sum of the rays
    assert str(info.value) == (
        "no x has A x > 0 (the sum of the extreme rays is not strictly positive "
        "on every row): the cone has empty interior"
    )


def test_empty_interior_is_rejected_without_a_box_search():
    # a plane in R^3: on the one coordinate that keeps rank 1, x >= 0 and
    # -x >= 0 leave no ray
    start = time.perf_counter()
    with pytest.raises(EmptyInteriorError, match="empty interior"):
        ConeSpec(((1, 0, 0), (-1, 0, 0)))
    assert time.perf_counter() - start < 0.1


def test_empty_interior_of_42_rows_is_refused_from_the_rays():
    # the plane x + 2y + 3z = 0 cut by 40 more rows: rank 3, no interior;
    # its rays take the C(42, 2) minors of row pairs
    rows = ((1, 2, 3), (-1, -2, -3)) + tuple(
        (i % 7 - 3, 3 * i % 11 - 5, 5 * i % 13 - 6) for i in range(40)
    )
    assert len(set(rows)) == 42
    start = time.perf_counter()
    with pytest.raises(EmptyInteriorError, match="empty interior"):
        ConeSpec(rows)
    assert time.perf_counter() - start < 0.25


def test_magic_cone_rays_facets_and_interior_point():
    spec = ConeSpec(MAGIC_ROWS)
    assert spec.rays == ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    assert spec.facet_rows == (0, 1, 2, 3)
    # the sum of the rays
    assert spec.interior_point == (2, 2, 0)
    assert spec == ConeSpec(MAGIC_ROWS)
    assert "rays" not in repr(spec)


def test_redundant_and_repeated_rows_cut_no_new_facet():
    # (1, 1) is tight on no ray and the second (0, 1) repeats the first
    spec = ConeSpec(((0, 1), (1, 1), (0, 1), (3, -2)))
    assert spec.rays == ((1, 0), (2, 3))
    assert spec.facet_rows == (0, 3)
    assert spec.interior_point == (3, 3)


def test_thin_cone_is_accepted():
    # 100 y <= x <= 101 y has no interior lattice point with |x| <= 64
    spec = ConeSpec(((1, -100), (-1, 101)))
    assert spec.strictly_positive_rows(spec.interior_point)
    h = hilbert_data(spec, 101)
    assert h.omega == ((100, 1), (101, 1))
    assert h.omega0 == ((201, 2),)


def test_cone_containing_a_line_is_rejected():
    # a single halfplane contains the line x = 0, so its monoid has units
    with pytest.raises(ValueError):
        hilbert_basis(ConeSpec(((1, 0),)), 4)
    with pytest.raises(ValueError, match="contains a line"):
        ConeSpec(((3, -5),))


@pytest.mark.parametrize("bound", [0, -1, True, 2.5, "3", None])
def test_search_bound_must_be_a_positive_int(bound):
    spec = ConeSpec(SLICE_ROWS)
    with pytest.raises(ValueError, match="not a positive integer"):
        hilbert_basis(spec, bound)
    with pytest.raises(ValueError, match="not a positive integer"):
        hilbert_data(spec, bound)


def test_hilbert_basis_of_slice_cone():
    assert hilbert_basis(ConeSpec(SLICE_ROWS), 8) == ((1, 0), (1, 1), (2, 3))


def test_hilbert_basis_of_quadrant():
    assert hilbert_basis(ConeSpec(((1, 0), (0, 1))), 5) == ((0, 1), (1, 0))


def test_hilbert_basis_generates_small_box():
    spec = ConeSpec(SLICE_ROWS)
    h = hilbert_data(spec, 8)
    for x in range(7):
        for y in range(7):
            if not spec.contains((x, y)) or (x, y) == (0, 0):
                continue
            # greedy check is not sound here; use the library search when the
            # point is interior, otherwise verify membership by brute force
            coeffs = _brute_force_decompose((x, y), h.omega)
            assert coeffs is not None, (x, y)


def _brute_force_decompose(point, omega):
    from itertools import product

    cap = max(sum(abs(c) for c in point), 1)
    for ks in product(range(cap + 1), repeat=len(omega)):
        tot = tuple(
            sum(k * b[i] for k, b in zip(ks, omega)) for i in range(len(point))
        )
        if tot == point:
            return ks
    return None


def test_slice_cone_interior_seeds_and_facets():
    h = hilbert_data(ConeSpec(SLICE_ROWS), 8)
    assert h.omega0 == ((1, 1), (2, 1), (3, 3), (3, 4), (4, 4))
    assert h.facet_row_indices == (0, 1)
    assert sorted(sorted(f) for f in h.facets) == [[0], [2]]
    assert h.is_interior((1, 1))
    assert not h.is_interior((1, 0))  # on the facet y = 0
    assert not h.is_interior((2, 3))  # on the facet 3x = 2y


def test_magic_cone_hilbert_data():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    assert h.omega == ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    assert h.omega0 == (
        (1, 1, -1),
        (1, 1, 0),
        (1, 2, 0),
        (2, 1, 0),
        (2, 2, 0),
        (2, 2, 1),
    )
    assert h.facet_row_indices == (0, 1, 2, 3)


def _cone_id(case):
    rows = ";".join(",".join(map(str, r)) for r in case["rows"])
    return f"{rows}@{case['bound']}"


@pytest.mark.parametrize("case", HILBERT_GOLDEN, ids=_cone_id)
def test_hilbert_data_matches_golden(case):
    h = hilbert_data(ConeSpec(tuple(map(tuple, case["rows"]))), case["bound"])
    assert [list(p) for p in h.omega] == case["omega"]
    assert [list(p) for p in h.omega0] == case["omega0"]
    assert [sorted(f) for f in h.facets] == case["facets"]
    assert list(h.facet_row_indices) == case["facet_row_indices"]
    assert h.seed_values == tuple(_row_values(h.cone.rows, a) for a in h.omega0)


# rows and a bound too small for five golden entries above: each box misses
# a primitive extreme ray, and a box scan certified a basis without it there
INCOMPLETE_AT_OLD_BOUND = [
    (((0, 1, -2), (1, 2, 1), (2, 1, 1)), 4),
    (((-2, -2, 2), (2, 0, 0), (-1, -2, 1), (2, 1, 1), (2, -1, -1)), 4),
    (((-2, -2, 0), (2, -2, -1), (0, 0, 2), (0, -1, 1), (-2, -2, -2)), 3),
    (((1, 0, 2), (0, -1, 2), (-1, 2, -1), (1, 2, 2)), 4),
    (((-2, -2, 2), (-1, 1, -1), (1, 2, -1), (0, 2, 2), (-2, 1, -2)), 3),
]


@pytest.mark.parametrize("rows, bound", INCOMPLETE_AT_OLD_BOUND)
def test_golden_cones_are_refused_at_their_old_bound(rows, bound):
    spec = ConeSpec(rows)
    with pytest.raises(BoundTooSmallError, match="extreme ray"):
        hilbert_data(spec, bound)
    (case,) = [c for c in HILBERT_GOLDEN if c["rows"] == [list(r) for r in rows]]
    assert case["bound"] > bound


@pytest.mark.parametrize(
    "rows, bound",
    [
        (((-1, 1, -2), (1, 1, 2), (1, 2, 0), (-1, -1, 0)), 4),
        (((0, -1, 2), (2, -2, 1), (2, 1, 1), (1, 1, -2), (1, 1, -2)), 5),
        (((-2, -2, 0), (2, -1, -1), (-1, 2, 0), (-2, 2, 1)), 4),
    ],
    ids=["rows0", "rows1", "rows2"],
)
def test_hilbert_data_refuses_a_basis_bounding_too_few_facets(rows, bound):
    # each cone has an extreme ray outside the box of radius 3, without which
    # a basis bounds fewer than 3 facets; the middle cone's rays (3, -5, -1)
    # and (3, 5, 4) also lie outside radius 4
    spec = ConeSpec(rows)
    with pytest.raises(BoundTooSmallError, match="bound too small"):
        hilbert_data(spec, 3)
    h = hilbert_data(spec, bound)
    assert len(h.facet_row_indices) >= 3
    assert hilbert_data_from_omega(h.omega, spec).omega0 == h.omega0


def test_magic_cone_at_a_large_bound():
    # the rays bound the work, not the (2 * 1000 + 1)^3 box
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 1000)
    assert h.omega == ((0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 1))


def test_thin_cone_with_a_ray_beyond_the_bound_is_refused_quickly():
    # 100 y <= x <= 101 y, z >= 0 has the extreme ray (101, 1, 0)
    spec = ConeSpec(((1, -100, 0), (-1, 101, 0), (0, 0, 1)))
    start = time.perf_counter()
    with pytest.raises(BoundTooSmallError, match=r"\(101, 1, 0\)"):
        hilbert_basis(spec, 100)
    assert time.perf_counter() - start < 0.1


def test_every_seed_is_interior():
    for rows, bound in [(SLICE_ROWS, 8), (MAGIC_ROWS, 6)]:
        h = hilbert_data(ConeSpec(rows), bound)
        for seed in h.omega0:
            assert h.is_interior(seed), seed


def test_decompose_interior_pin():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    d = decompose_interior((7, 9, 2), h)
    assert d.seed == (1, 1, -1)
    assert d.coefficients == (3, 2, 0, 6)


def test_decompose_interior_identity_holds():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    for point in [(7, 9, 2), (5, 13, 1), (3, 3, 1), (10, 12, 1), (6, 6, -2)]:
        assert h.is_interior(point), point
        d = decompose_interior(point, h)
        rebuilt = tuple(
            s + sum(k * b[i] for k, b in zip(d.coefficients, h.omega))
            for i, s in enumerate(d.seed)
        )
        assert rebuilt == point


def test_decompose_interior_is_deterministic():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    first = decompose_interior((10, 12, 1), h)
    again = decompose_interior((10, 12, 1), h)
    assert first == again


def test_decompose_rejects_boundary_points():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    with pytest.raises(ValueError):
        decompose_interior((1, 0, 0), h)
    with pytest.raises(ValueError):
        decompose_interior((2, 3, 2), h)  # on the facet x = z


def test_incomplete_generator_set_raises():
    spec = ConeSpec(((1, 0), (0, 1)))
    h = hilbert_data_from_omega(((1, 0), (2, 3)), spec)
    with pytest.raises(NoDecompositionError):
        decompose_interior((1, 1), h)


def test_omega_missing_a_ray_gets_the_cones_own_facets():
    # omega lacks the ray (0, 1), yet x = 0 still bounds the quadrant: its
    # facet holds no generator, and (0, 5) on it is not interior
    h = hilbert_data_from_omega(((1, 0), (2, 3)), QUADRANT)
    assert h.facets == (frozenset(), frozenset({0}))
    assert h.facet_row_indices == (0, 1)
    assert h.omega0 == ((2, 3), (3, 3))
    assert not h.is_interior((0, 5))
    assert h.is_interior((1, 5))
    with pytest.raises(ValueError, match="not an interior lattice point"):
        decompose_interior((0, 5), h)


def test_hilbert_data_from_omega_refuses_an_empty_omega():
    with pytest.raises(ValueError, match="omega must be nonempty"):
        hilbert_data_from_omega((), QUADRANT)


# a cone whose complete Hilbert basis has 25 generators and coordinates <= 6
WIDE_ROWS = ((-1, -2, 2), (1, -2, 2), (0, -2, -1), (-1, -2, 1))


def test_seeds_of_a_25_generator_cone():
    h = hilbert_data(ConeSpec(WIDE_ROWS), 8)
    assert len(h.omega) == 25
    assert len(h.omega0) == 10208
    d = decompose_interior((0, -7, 2), h)
    assert d.seed == (-8, -3, 2)
    assert h.omega[19] == (2, -1, 0)
    assert d.coefficients == (0,) * 19 + (4,) + (0,) * 5


def test_arithmetic_split_pin():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    s = arithmetic_split((7, 9, 2), h, thurston_form)
    assert s.alpha == (1, 3, -4)
    assert s.beta == (1, 1, 1)
    assert s.n == 6
    assert not s.degenerate
    rebuilt = tuple(a + s.n * b for a, b in zip(s.alpha, s.beta))
    assert rebuilt == (7, 9, 2)


def test_arithmetic_split_degenerate_on_bare_seed():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    s = arithmetic_split((1, 1, -1), h, thurston_form)
    assert s.n == 0
    assert s.degenerate
    assert s.alpha == (1, 1, -1)


def test_arithmetic_split_guarantee():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    seed_norms = [thurston_form(s) for s in h.omega0]
    gen_norms = [thurston_form(b) for b in h.omega]
    d = cone_constant(seed_norms, gen_norms)
    assert d == 8
    for point in [(7, 9, 2), (20, 30, 5), (40, 41, 1)]:
        norm = thurston_form(point)
        s = arithmetic_split(point, h, thurston_form)
        if norm > d:
            assert s.n * d >= norm


def test_arithmetic_split_reads_the_cone_constant_once_per_norm():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    calls = []

    def counting(point):
        calls.append(tuple(point))
        return thurston_form(point)

    first = arithmetic_split((7, 9, 2), h, counting)
    assert len(calls) == len(h.omega0) + len(h.omega) + 1
    calls.clear()
    second = arithmetic_split((20, 30, 5), h, counting)
    assert calls == [(20, 30, 5)]
    assert first == arithmetic_split((7, 9, 2), h, thurston_form)
    assert second == arithmetic_split((20, 30, 5), h, thurston_form)


def test_decompose_is_exhaustive_on_small_interior_box():
    spec = ConeSpec(MAGIC_ROWS)
    h = hilbert_data(spec, 6)
    count = 0
    for x in range(1, 5):
        for y in range(1, 5):
            for z in range(-4, min(x, y)):
                point = (x, y, z)
                if not h.is_interior(point):
                    continue
                d = decompose_interior(point, h)
                rebuilt = tuple(
                    s + sum(k * b[i] for k, b in zip(d.coefficients, h.omega))
                    for i, s in enumerate(d.seed)
                )
                assert rebuilt == point
                count += 1
    assert count > 40  # the box is genuinely populated


QUADRANT = ConeSpec(((1, 0), (0, 1)))


@pytest.mark.parametrize(
    "point",
    [(1, 1, 5), (1,), (True, 1), (1.0, 1), (1, "1"), 5, "11"],
    ids=["long", "short", "bool", "float", "string", "int", "text"],
)
def test_decompose_and_split_reject_malformed_points(point):
    h = hilbert_data(QUADRANT, 4)
    with pytest.raises(ValueError, match="not a sequence of 2 integers"):
        decompose_interior(point, h)
    with pytest.raises(ValueError, match="not a sequence of 2 integers"):
        arithmetic_split(point, h, l1_norm)


@pytest.mark.parametrize(
    "omega, match",
    [
        (((1, 0, 7), (0, 1)), "not a sequence of 2 integers"),
        (((True, 0), (0, 1)), "not a sequence of 2 integers"),
        (((1.0, 0), (0, 1)), "not a sequence of 2 integers"),
        ((5, (0, 1)), "not a sequence of 2 integers"),
        (((-1, 0), (0, 1)), "not a nonzero point of the cone"),
        (((0, 0), (1, 0), (0, 1)), "not a nonzero point of the cone"),
    ],
    ids=["long", "bool", "float", "int", "outside", "zero"],
)
def test_hilbert_data_from_omega_rejects_malformed_generators(omega, match):
    with pytest.raises(ValueError, match=match):
        hilbert_data_from_omega(omega, QUADRANT)


def test_hilbert_data_from_omega_refuses_a_cone_containing_a_line():
    # (0, -1), (0, 1), (1, 0) generate the half-plane's monoid, which has
    # units; ConeSpec refuses the half-plane before any generator is read
    with pytest.raises(ValueError, match="contains a line"):
        hilbert_data_from_omega(((0, -1), (0, 1), (1, 0)), ConeSpec(((1, 0),)))


def test_coefficient_search_goes_deeper_than_the_recursion_limit():
    # (1, 1) takes none of the 1200 searched generators (2 + i, 1), each of
    # which has the only feasible coefficient 0, and then (1, 0) + (0, 1)
    omega = [(2 + i, 1) for i in range(1200)] + [(1, 0), (0, 1)]
    plan = cone_monoid._coefficient_plan(omega, QUADRANT)
    assert plan.tail == 1200 > sys.getrecursionlimit()
    found = cone_monoid._solve_coefficients((1, 1), (1, 1), plan, set())
    assert found == [0] * 1200 + [1, 1]


def test_search_restores_the_row_values_it_backtracks_through():
    # omega[:3] is searched and omega[3:] is the independent suffix.  k = 1
    # for (0, 0, -1) fails at every deeper level; k = 0 then reaches
    # (2, 0, 0) with row values (4, 0, 4, 0), which allow k = 2 there only
    # if the values moved by the failed k = 1 at (2, 0, 0) were put back
    omega = ((0, 0, -1), (0, 1, 0), (2, 0, 0), (1, 1, 1), (2, 0, 0))
    plan = cone_monoid._coefficient_plan(omega, ConeSpec(MAGIC_ROWS))
    assert plan.tail == 3
    values = _row_values(MAGIC_ROWS, (4, 1, 0))
    found = cone_monoid._solve_coefficients((4, 1, 0), values, plan, set())
    assert found == [0, 1, 2, 0, 0]


def test_coefficient_plan_and_tail_solve():
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    assert h == hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    assert "plan" not in repr(h)
    # (0, 1, 0), (1, 0, 0), (1, 1, 1) are independent: one searched level
    assert h.plan.tail == 1
    # (0, 0, 1) = (1, 1, 1) - (0, 1, 0) - (1, 0, 0) needs a negative coefficient
    assert cone_monoid._solve_tail(h.plan, (0, 0, 1)) is None
    assert cone_monoid._solve_tail(h.plan, (1, 2, 1)) == [1, 0, 1]
    # a parallel pair ends the independent suffix early, at (2, 0) alone
    plan = hilbert_data_from_omega(((0, 1), (1, 0), (2, 0)), QUADRANT).plan
    assert plan.tail == 2
    assert cone_monoid._solve_tail(plan, (4, 0)) == [2]
    assert cone_monoid._solve_tail(plan, (3, 0)) is None
    assert cone_monoid._solve_tail(plan, (4, 1)) is None


def test_corrupted_tail_solve_fails_re_verification(monkeypatch):
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    solve_tail = cone_monoid._solve_tail

    def off_by_one(plan, res):
        ks = solve_tail(plan, res)
        return None if ks is None else [k + 1 for k in ks]

    monkeypatch.setattr(cone_monoid, "_solve_tail", off_by_one)
    with pytest.raises(RuntimeError, match="re-verification"):
        decompose_interior((7, 9, 2), h)
    with pytest.raises(RuntimeError, match="re-verification"):
        arithmetic_split((7, 9, 2), h, thurston_form)


def test_decompose_and_split_read_an_iterator_point_once():
    # the point is validated once: an iterator consumed twice would leave an
    # empty point for the second reading
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    assert decompose_interior(iter((7, 9, 2)), h) == decompose_interior((7, 9, 2), h)
    split = arithmetic_split(iter((7, 9, 2)), h, thurston_form)
    assert split == arithmetic_split((7, 9, 2), h, thurston_form)
    assert (split.alpha, split.n) == ((1, 3, -4), 6)


def test_corrupted_pass_fails_re_verification(monkeypatch):
    # the peel reads membership through ConeSpec.contains, so a pass that
    # misreads the row values keeps too few generators and is caught; of
    # this cone's 11 candidates only (2, 2, 2) = 2 (1, 1, 1) is reducible
    spec = ConeSpec(((1, 0, 0), (0, 1, 0), (-1, -1, 3)))
    row_values = cone_monoid._row_values
    # every candidate looks reducible: nothing is kept
    monkeypatch.setattr(
        cone_monoid, "_row_values", lambda rows, x: (0,) * len(rows)
    )
    with pytest.raises(RuntimeError, match="re-verification"):
        hilbert_basis(spec, 3)
    # reversed order: the maximal candidates are kept instead of the minimal
    monkeypatch.setattr(
        cone_monoid,
        "_row_values",
        lambda rows, x: tuple(-v for v in row_values(rows, x)),
    )
    with pytest.raises(RuntimeError, match="re-verification"):
        hilbert_basis(spec, 3)


def test_thin_cone_matches_the_coefficient_search():
    # rows (1, 0, 0), (0, 1, 0), (-1, -1, N) give (N + 1)(N + 2) / 2
    # generators; the reference scans the box with the coefficient search
    spec = ConeSpec(((1, 0, 0), (0, 1, 0), (-1, -1, 12)))
    omega = hilbert_basis(spec, 12)
    assert len(omega) == 91
    assert omega == _reference_hilbert_basis(spec, 12)


def _level(c, x):
    return sum(a * b for a, b in zip(c, x))


def _level_form(spec):
    """c = sum of rows: c . x >= 0 on P, and > 0 off 0 when P is pointed."""
    return tuple(sum(col) for col in zip(*spec.rows))


def _row_values(rows, x):
    return tuple(_level(row, x) for row in rows)


def _reference_rank(vectors):
    """Rank over Q of a set of integer vectors, by exact elimination."""
    rows = [[Fraction(c) for c in v] for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / prow[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


@st.composite
def integer_rows(draw, max_rows):
    """1..max_rows integer vectors of one dimension 1..3, entries in [-3, 3]."""
    dim = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    return tuple(draw(st.lists(row, min_size=1, max_size=max_rows)))


@settings(max_examples=300, deadline=None)
@given(vectors=integer_rows(6))
def test_rank_matches_elimination(vectors):
    assert cone_monoid._rank(vectors) == _reference_rank(vectors)
    assert cone_monoid._rank(()) == 0


@settings(max_examples=300, deadline=None)
@given(rows=integer_rows(4))
def test_cone_spec_interior_certificate_matches_a_box_scan(rows):
    dim = len(rows[0])
    in_box = any(
        all(_level(row, x) > 0 for row in rows)
        for x in product(range(-4, 5), repeat=dim)
    )
    try:
        spec = ConeSpec(rows)
    except EmptyInteriorError:
        assert not in_box
        return
    except ValueError as exc:
        assert "contains a line" in str(exc)
        assert _reference_rank(rows) < dim
        return
    assert spec.strictly_positive_rows(spec.interior_point)
    assert _reference_rank(rows) == dim


def _coefficient_vectors(levels, budget):
    """Every k >= 0 with sum k_i levels[i] <= budget, in lexicographic order."""
    if not levels:
        yield ()
        return
    for k in range(budget // levels[0] + 1):
        for rest in _coefficient_vectors(levels[1:], budget - k * levels[0]):
            yield (k,) + rest


def _brute_force_coefficients(residual, h):
    """The lexicographically greatest k >= 0 with residual = sum k_b b, or None."""
    c = _level_form(h.cone)
    budget = _level(c, residual)
    if budget < 0:
        return None
    found = [
        ks
        for ks in _coefficient_vectors([_level(c, b) for b in h.omega], budget)
        if all(
            sum(k * b[i] for k, b in zip(ks, h.omega)) == r
            for i, r in enumerate(residual)
        )
    ]
    return max(found, default=None)


@st.composite
def pointed_cone_specs(draw):
    """A random pointed cone of dimension 1..3 with interior."""
    dim = draw(st.integers(1, 3))
    inner = draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(any))
    rows = []
    for _ in range(draw(st.integers(dim, dim + 2))):
        row = draw(st.tuples(*[st.integers(-2, 2)] * dim))
        side = _level(row, inner)
        assume(side != 0)
        rows.append(row if side > 0 else tuple(-r for r in row))
    assume(_reference_rank(rows) == dim)  # pointed
    return ConeSpec(tuple(rows))


@st.composite
def pointed_cones(draw):
    """hilbert_data of a random pointed cone with at most 5 generators."""
    spec = draw(pointed_cone_specs())
    try:
        assume(len(hilbert_basis(spec, 4)) <= 5)
        return hilbert_data(spec, 4)
    except BoundTooSmallError:
        assume(False)


def _reference_hilbert_basis(spec, bound):
    """The irreducible monoid points of the box [-bound, bound]^m.

    One pass over the box by increasing level: a point that decomposes over
    the generators found so far is reducible, a found generator plus a cone
    point proves a generator outside the box, and any other point is new.
    """
    c = _level_form(spec)
    box = [
        x
        for x in product(range(-bound, bound + 1), repeat=spec.dim)
        if any(x) and spec.contains(x)
    ]
    omega = []
    plan = cone_monoid._coefficient_plan(omega, spec)
    for x in sorted(box, key=lambda x: (_level(c, x), x)):
        values = _row_values(spec.rows, x)
        if cone_monoid._solve_coefficients(x, values, plan, set()) is not None:
            continue
        for v in omega:
            if spec.contains(tuple(a - b for a, b in zip(x, v))):
                raise BoundTooSmallError(f"{x} is {v} plus a cone point")
        omega = sorted(omega + [x])
        plan = cone_monoid._coefficient_plan(omega, spec)
    return tuple(omega)


@settings(max_examples=100, deadline=None)
@given(spec=pointed_cone_specs())
def test_hilbert_basis_matches_a_box_scan(spec):
    omega = hilbert_basis(spec, 10**6)
    bound = max(abs(c) for b in omega for c in b)
    assert hilbert_basis(spec, bound) == omega
    assert _reference_hilbert_basis(spec, bound) == omega
    if bound > 1:
        with pytest.raises(BoundTooSmallError, match="bound too small"):
            hilbert_basis(spec, bound - 1)
    # a generator on an extreme ray is its primitive vector, and every
    # extreme ray is cut by rows of rank m - 1
    on_rays = {
        b
        for b in omega
        if _reference_rank([r for r in spec.rows if _level(r, b) == 0])
        == spec.dim - 1
    }
    assert set(spec.rays) == on_rays
    # a pointed cone of dimension <= 3 has as many extreme rays as facets;
    # a facet is a row whose generators span dimension m - 1, and the facet
    # rows read off the rays are the first row of each
    on_rows = {}
    for i, r in enumerate(spec.rows):
        on_rows.setdefault(frozenset(b for b in omega if _level(r, b) == 0), i)
    facets = {
        f: i for f, i in on_rows.items() if _reference_rank(list(f)) == spec.dim - 1
    }
    assert len(on_rays) == len(facets)
    assert spec.facet_rows == tuple(sorted(facets.values()))


@settings(max_examples=150, deadline=None)
@given(h=pointed_cones(), data=st.data())
def test_decompose_interior_matches_brute_force(h, data):
    # any interior point is a seed plus generators; draw one that way
    point = data.draw(st.sampled_from(h.omega0))
    for b in h.omega:
        k = data.draw(st.integers(0, 2))
        point = tuple(p + k * x for p, x in zip(point, b))
    # a non-minimal omega with a parallel generator, which can end the
    # independent suffix before it has dim members, or one with a generator
    # b replaced by 2b, which need not generate every interior point
    b = data.draw(st.sampled_from(h.omega))
    twice = tuple(2 * x for x in b)
    if data.draw(st.booleans()):
        omega = h.omega + (twice,)
    else:
        omega = tuple(twice if g == b else g for g in h.omega)
    hv = hilbert_data_from_omega(omega, h.cone)
    # every seed's residual, including those the search must refuse
    expected = None
    for seed in hv.omega0:
        residual = tuple(p - s for p, s in zip(point, seed))
        ks = _brute_force_coefficients(residual, hv)
        found = cone_monoid._solve_coefficients(
            residual, _row_values(hv.cone.rows, residual), hv.plan, set()
        )
        assert found == (None if ks is None else list(ks))
        if expected is None and ks is not None:
            expected = (seed, ks)
    if expected is None:
        with pytest.raises(NoDecompositionError):
            decompose_interior(point, hv)
    else:
        d = decompose_interior(point, hv)
        assert (d.seed, d.coefficients) == expected


@settings(max_examples=150, deadline=None)
@given(h=pointed_cones(), data=st.data())
def test_tail_solve_matches_brute_force(h, data):
    omega = h.omega
    if data.draw(st.booleans()):
        # a parallel generator, which can end the independent suffix before
        # it spans every coordinate and leave coordinates off the minor
        omega += (tuple(2 * x for x in data.draw(st.sampled_from(omega))),)
    plan = cone_monoid._coefficient_plan(omega, h.cone)
    suffix = omega[plan.tail:]
    assert len(plan.tail_rows) == len(suffix)
    assert len(plan.off_minor) == h.cone.dim - len(suffix)
    level = _level_form(h.cone)
    levels = [_level(level, b) for b in suffix]
    for _ in range(data.draw(st.integers(1, 6))):
        # suffix combinations, some moved off its span or out of the cone
        res = [0] * h.cone.dim
        for b in suffix:
            k = data.draw(st.integers(0, 3))
            res = [r + k * x for r, x in zip(res, b)]
        shift = data.draw(st.tuples(*[st.integers(-1, 1)] * h.cone.dim))
        res = tuple(r + s for r, s in zip(res, shift))
        found = [
            list(ks)
            for ks in _coefficient_vectors(levels, _level(level, res))
            if all(
                sum(k * b[i] for k, b in zip(ks, suffix)) == r
                for i, r in enumerate(res)
            )
        ]
        assert len(found) <= 1  # the suffix is independent
        assert cone_monoid._solve_tail(plan, res) == (found[0] if found else None)


def _recursive_solve_coefficients(residual, plan, memo):
    """The coefficient search as recursion, one frame per searched generator.

    The reference for the explicit-stack search: same order, same memo of
    failed (residual, depth) pairs, same lexicographically greatest result.
    """
    omega, pairings, tail = plan.omega, plan.pairings, plan.tail

    def rec(res, vals, idx):
        if not any(res):
            return [0] * (len(omega) - idx)
        key = (res, idx)
        if key in memo:
            return None
        found = None
        if idx == tail:
            found = cone_monoid._solve_tail(plan, res)
        else:
            b, bvals = omega[idx], pairings[idx]
            kmax = min((v // p for v, p in zip(vals, bvals) if p > 0), default=0)
            for k in range(kmax, -1, -1):
                sub = rec(
                    tuple(r - k * x for r, x in zip(res, b)),
                    tuple(v - k * p for v, p in zip(vals, bvals)),
                    idx + 1,
                )
                if sub is not None:
                    found = [k] + sub
                    break
        if found is None:
            memo.add(key)
        return found

    vals = _row_values(plan.rows, residual)
    if min(vals) < 0:
        return None
    return rec(residual, vals, 0)


@settings(max_examples=150, deadline=None)
@given(h=pointed_cones(), data=st.data())
def test_stack_search_matches_the_recursive_search(h, data):
    omega = h.omega
    if data.draw(st.booleans()):
        # a parallel generator, which can end the independent suffix early
        omega += (tuple(2 * x for x in data.draw(st.sampled_from(omega))),)
    plan = cone_monoid._coefficient_plan(omega, h.cone)
    # generator combinations, some moved off the monoid or out of the cone
    residuals = []
    for _ in range(data.draw(st.integers(1, 6))):
        point = [0] * h.cone.dim
        for b in omega:
            k = data.draw(st.integers(0, 3))
            point = [p + k * x for p, x in zip(point, b)]
        shift = data.draw(st.tuples(*[st.integers(-1, 1)] * h.cone.dim))
        residuals.append(tuple(p + s for p, s in zip(point, shift)))
    # one memo per route, shared across residuals as decompose_interior does
    memo, reference_memo = set(), set()
    for residual in residuals:
        values = _row_values(h.cone.rows, residual)
        assert cone_monoid._solve_coefficients(
            residual, values, plan, memo
        ) == _recursive_solve_coefficients(residual, plan, reference_memo)


def _reference_seeds(omega, facets, dim):
    """The sums of the nonempty subsets of omega in no facet: all 2^|omega|."""
    sums = set()
    for mask in range(1, 1 << len(omega)):
        members = frozenset(i for i in range(len(omega)) if mask >> i & 1)
        if any(members <= facet for facet in facets):
            continue
        sums.add(tuple(sum(omega[i][c] for i in members) for c in range(dim)))
    return tuple(sorted(sums))


@settings(max_examples=100, deadline=None)
@given(spec=pointed_cone_specs(), data=st.data())
def test_subset_sum_seeds_match_the_subset_enumeration(spec, data):
    omega = hilbert_basis(spec, 10**6)
    assume(len(omega) <= 12)
    # non-minimal generators: sums of two basis elements, up to |omega| = 12
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(omega), st.sampled_from(omega)),
                 max_size=12 - len(omega))
    )
    extra = {tuple(x + y for x, y in zip(b, c)) for b, c in pairs}
    h = hilbert_data_from_omega(omega + tuple(extra - set(omega)), spec)
    assert h.omega0 == _reference_seeds(h.omega, h.facets, spec.dim)


def test_slotted_results_pickle_compare_and_convert_as_before():
    # InteriorDecomposition and ArithmeticSplit carry __slots__, no __dict__
    h = hilbert_data(ConeSpec(MAGIC_ROWS), 6)
    s = arithmetic_split((7, 9, 2), h, thurston_form)
    d = s.decomposition
    for value, field in ((d, "seed"), (s, "n")):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 1)
        # a name that is no field fails in the slotted __setattr__'s super()
        with pytest.raises(TypeError, match=re.escape("super(type, obj)")):
            setattr(value, "extra", 1)
    assert d == decompose_interior((7, 9, 2), h)
    assert d != dataclasses.replace(d, coefficients=d.coefficients[:-1] + (9,))
    assert dataclasses.asdict(s) == {
        "alpha": (1, 3, -4),
        "beta": (1, 1, 1),
        "n": 6,
        "decomposition": {"seed": d.seed, "coefficients": d.coefficients},
    }
    assert s.degenerate is False
