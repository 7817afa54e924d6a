"""Integral classes, cone membership, and fiber invariants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibercone import (
    IntegralClass,
    PlusClass,
    fiber_invariants,
    in_fibered_cone,
    is_primitive,
    plus_to_xyz,
    projective_limit_family,
    projectivize,
    thurston_norm,
)


def test_plus_to_xyz_pins():
    assert plus_to_xyz(PlusClass(1, 1, 1)).coords() == (2, 3, 1)
    assert plus_to_xyz(PlusClass(1, 8, 4)).coords() == (5, 13, 1)
    assert plus_to_xyz(PlusClass(2, 0, 3)).coords() == (5, 5, 2)


def test_plus_class_in_cone_iff_third_parameter_positive():
    assert in_fibered_cone(plus_to_xyz(PlusClass(1, 5, 1)))
    assert in_fibered_cone(plus_to_xyz(PlusClass(4, 0, 2)))
    assert not in_fibered_cone(plus_to_xyz(PlusClass(1, 5, 0)))
    assert not in_fibered_cone(plus_to_xyz(PlusClass(0, 3, 0)))


def test_plus_class_rejects_negative_parameters():
    with pytest.raises(ValueError):
        PlusClass(-1, 2, 3)
    with pytest.raises(ValueError):
        PlusClass(1, -2, 3)


@pytest.mark.parametrize(
    "coords",
    [(True, 2, 3), (1, False, 3), (1, 2, 3.0), (1, "2", 3), (None, 2, 3)],
    ids=["i-bool", "j-bool", "k-float", "j-string", "i-none"],
)
def test_class_types_reject_non_integer_coordinates(coords):
    with pytest.raises(TypeError, match="must be integers"):
        PlusClass(*coords)
    with pytest.raises(TypeError, match="must be integers"):
        IntegralClass(*coords)


def test_cone_membership_pins():
    assert in_fibered_cone(IntegralClass(1, 1, 0))
    assert in_fibered_cone(IntegralClass(5, 13, 1))
    # boundary points are excluded: each inequality is strict
    assert not in_fibered_cone(IntegralClass(0, 1, 0))
    assert not in_fibered_cone(IntegralClass(1, 1, 1))
    assert not in_fibered_cone(IntegralClass(2, 1, 1))


def test_thurston_norm_pins():
    assert thurston_norm(IntegralClass(1, 1, 0)) == 2
    assert thurston_norm(IntegralClass(5, 13, 1)) == 17
    assert thurston_norm(IntegralClass(2, 12, 1)) == 13


def test_thurston_norm_outside_cone_raises():
    with pytest.raises(ValueError):
        thurston_norm(IntegralClass(0, 1, 0))
    with pytest.raises(ValueError):
        thurston_norm(IntegralClass(-1, 2, -3))


@given(
    st.integers(1, 50),
    st.integers(1, 50),
    st.integers(-50, 0),
    st.integers(1, 5),
)
def test_norm_is_linear_on_the_cone(x, y, z, m):
    c = IntegralClass(x, y, z)
    assert in_fibered_cone(c)
    assert thurston_norm(c) == x + y - z
    scaled = c.scaled(m)
    assert in_fibered_cone(scaled)
    assert thurston_norm(scaled) == m * thurston_norm(c)


def test_cone_closed_under_addition():
    pts = [(1, 1, 0), (5, 13, 1), (2, 12, 1), (7, 3, 2)]
    for x1, y1, z1 in pts:
        for x2, y2, z2 in pts:
            total = IntegralClass(x1 + x2, y1 + y2, z1 + z2)
            assert in_fibered_cone(total)
            assert thurston_norm(total) == thurston_norm(
                IntegralClass(x1, y1, z1)
            ) + thurston_norm(IntegralClass(x2, y2, z2))


def test_is_primitive():
    assert is_primitive(IntegralClass(5, 13, 1))
    assert is_primitive(IntegralClass(2, 3, 1))
    assert not is_primitive(IntegralClass(4, 6, 2))
    assert not is_primitive(IntegralClass(3, 6, -3))


def test_fiber_invariants_smallest_class():
    inv = fiber_invariants(IntegralClass(2, 3, 1))
    assert inv.norm == 4
    assert inv.per_torus_counts == (2, 3, 1)
    assert inv.boundary_count == 6
    assert inv.genus == 0


def test_fiber_invariants_family_pins():
    inv = fiber_invariants(IntegralClass(5, 13, 1))  # (1, 8, 4)+
    assert (inv.norm, inv.boundary_count, inv.genus) == (17, 3, 8)
    assert inv.per_torus_counts == (1, 1, 1)
    inv = fiber_invariants(IntegralClass(2, 12, 1))  # (1, 10, 1)+
    assert (inv.norm, inv.boundary_count, inv.genus) == (13, 5, 5)


def test_fiber_invariants_requires_primitive_cone_class():
    with pytest.raises(ValueError):
        fiber_invariants(IntegralClass(4, 6, 2))
    with pytest.raises(ValueError):
        fiber_invariants(IntegralClass(0, 1, 0))


def test_genus_boundary_norm_relation():
    for plus in [(1, 2, 3), (1, 9, 3), (2, 5, 7), (3, 1, 4), (1, 16, 8)]:
        c = plus_to_xyz(PlusClass(*plus))
        if not is_primitive(c):
            continue
        inv = fiber_invariants(c)
        assert 2 * inv.genus - 2 + inv.boundary_count == inv.norm
        assert sum(inv.per_torus_counts) == inv.boundary_count
        assert inv.genus >= 0


def test_projectivize():
    proj = projectivize(IntegralClass(5, 13, 1))
    assert proj.coords() == (
        Fraction(5, 17),
        Fraction(13, 17),
        Fraction(1, 17),
    )
    assert sum(proj.coords()[:2]) - proj.coords()[2] == 1


def test_projective_limit_family_pins():
    assert projective_limit_family(1, 1).coords() == (
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(0),
    )
    assert projective_limit_family(1, 2).coords() == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    )
    assert projective_limit_family(2, 1).coords() == (Fraction(0), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        projective_limit_family(0, 1)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (3, 2)])
def test_projective_convergence_rate(p, q):
    """The family (1, n^p, n^q)+ approaches its limit at rate O(1/n)."""
    limit = projective_limit_family(p, q).coords()
    exponent = min(p, q, abs(p - q) if p != q else 1)
    for n in (10, 50):
        c = plus_to_xyz(PlusClass(1, n**p, n**q))
        proj = projectivize(c).coords()
        gap = max(abs(a - b) for a, b in zip(proj, limit))
        assert gap <= Fraction(10, n**exponent)
