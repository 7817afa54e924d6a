"""Regime routing, covering thresholds, and the rational bound formulas."""

from fractions import Fraction

import pytest

from fibercone import (
    REGIMES,
    BoundReport,
    IntegralClass,
    UncoveredRegimeError,
    arithmetic_upper,
    avoidance_upper,
    cone_constant,
    cycle_cover_coefficients,
    fit_exponent,
    gadre_tsai_lower,
    k_pq,
    mixing_exponent_cap,
    regime_of,
)


@pytest.mark.parametrize(
    ("p", "q", "regime"),
    [
        (3, 2, "QltPlt2Q"),
        (5, 3, "QltPlt2Q"),
        (1, 2, "PltQle2P"),
        (2, 3, "PltQle2P"),
        (3, 4, "PltQle2P"),
        (1, 3, "TwoPleQ"),
        (2, 5, "TwoPleQ"),
        (1, 7, "TwoPleQ"),
        (2, 2, "uncovered"),
        (4, 1, "uncovered"),
        (4, 2, "uncovered"),
        (1, 0, "uncovered"),
        (0, 3, "uncovered"),
    ],
)
def test_regime_of(p, q, regime):
    assert regime_of(p, q) == regime
    assert regime in REGIMES


def test_regime_of_matches_defining_inequalities():
    # the only overlap between the three conditions is q = 2p, where the
    # routing prefers PltQle2P (and k_pq agrees across the seam, see below)
    for p in range(1, 8):
        for q in range(1, 8):
            hits = [
                q < p < 2 * q,
                p < q <= 2 * p,
                2 * p <= q,
            ]
            regime = regime_of(p, q)
            if regime == "uncovered":
                assert not any(hits)
            else:
                assert hits[REGIMES.index(regime)]
                if hits.count(True) > 1:
                    assert q == 2 * p and regime == "PltQle2P"


@pytest.mark.parametrize(
    ("p", "q", "n", "expected"),
    [
        (3, 2, 2, 36),  # n^q (2 n^q + 1) = 4 * 9
        (2, 3, 2, 72),  # n^q (2 n^p + 1) = 8 * 9
        (1, 2, 2, 20),  # n^q (2 n^p + 1) = 4 * 5
        (1, 3, 2, 72),  # n^q (2 n^(q-p) + 1) = 8 * 9
        (3, 2, 3, 9 * 19),
        (1, 2, 3, 9 * 7),
    ],
)
def test_k_pq_pins(p, q, n, expected):
    assert k_pq(p, q, n) == expected


def test_k_pq_agrees_on_the_regime_boundary():
    # q = 2p satisfies both p < q <= 2p and 2p <= q, and the two formulas
    # coincide there because q - p = p
    for p in (1, 2, 3):
        q = 2 * p
        for n in (2, 3, 4):
            assert k_pq(p, q, n) == n**q * (2 * n**p + 1)
            assert k_pq(p, q, n) == n**q * (2 * n ** (q - p) + 1)


def test_k_pq_validation():
    with pytest.raises(UncoveredRegimeError):
        k_pq(2, 2, 3)
    with pytest.raises(UncoveredRegimeError):
        k_pq(4, 1, 2)
    with pytest.raises(ValueError):
        k_pq(1, 2, 1)


@pytest.mark.parametrize(
    ("p", "q", "n", "expected"),
    [
        (3, 2, 2, 64),
        (2, 3, 2, 104),
        (1, 3, 2, 100),
        (1, 2, 2, 36),
    ],
)
def test_mixing_exponent_cap_pins(p, q, n, expected):
    assert mixing_exponent_cap(p, q, n) == expected


def test_cycle_cover_coefficient_pins():
    assert cycle_cover_coefficients(3, 2, 2, 0) == (8, 0, 0)
    assert cycle_cover_coefficients(3, 2, 2, 3) == (5, 3, 0)
    assert cycle_cover_coefficients(1, 2, 2, 4) == (2, 1, 1)


def test_cycle_cover_identity_exhaustive():
    # the constructor re-checks the defining identity, so surviving the loop
    # proves a k + b (k+1) + c (j+k+1) = k_pq - n^q + i with a, b, c >= 0
    for p, q in [(3, 2), (2, 3), (1, 2), (1, 3), (3, 4)]:
        for n in (2, 3):
            j, k = n**p, n**q
            for i in range(n**q + 1):
                a, b, c = cycle_cover_coefficients(p, q, n, i)
                assert a >= 0 and b >= 0 and c >= 0
                assert (
                    a * k + b * (k + 1) + c * (j + k + 1)
                    == k_pq(p, q, n) - n**q + i
                )


def test_cycle_cover_validation():
    with pytest.raises(ValueError):
        cycle_cover_coefficients(3, 2, 2, -1)
    with pytest.raises(ValueError):
        cycle_cover_coefficients(3, 2, 2, 5)  # i > n^q = 4
    with pytest.raises(UncoveredRegimeError):
        cycle_cover_coefficients(2, 2, 2, 0)
    # n is checked before the divmod, so n = -1 (divisor n^p + 1 = 0) and
    # n = -3 (a negative a) are refused like every other n < 2
    for n in (1, 0, -1, -3):
        with pytest.raises(ValueError, match="need n >= 2"):
            cycle_cover_coefficients(1, 2, n, 0)


def _three_branch_k_pq(p, q, n):
    # the per-regime formulas that k_pq once spelled out, kept as the
    # reference for the one rule n^q (2 n^e + 1)
    regime = regime_of(p, q)
    if regime == "QltPlt2Q":
        return n**q * (2 * n**q + 1)
    if regime == "PltQle2P":
        return n**q * (2 * n**p + 1)
    if regime == "TwoPleQ":
        return n**q * (2 * n ** (q - p) + 1)
    return None


def _three_branch_cover(p, q, n, i):
    # the per-regime cycle covers that cycle_cover_coefficients once spelled
    # out, kept as the reference for the one divmod formula
    regime = regime_of(p, q)
    if regime == "QltPlt2Q":
        return (2 * n**q - i, i, 0)
    c, b = divmod(i, n**p + 1)
    if regime == "PltQle2P":
        return (2 * n**p - b - c, b, c)
    return (2 * n ** (q - p) - b - c, b, c)


def test_one_rule_matches_the_three_branch_reference():
    # every pair with p, q <= 8, the q = 2p seam included, at n = 2, 3, 4
    # and every i in [0, n^q]
    for p in range(1, 9):
        for q in range(1, 9):
            for n in (2, 3, 4):
                k = _three_branch_k_pq(p, q, n)
                if k is None:
                    for bounded in (k_pq, mixing_exponent_cap):
                        with pytest.raises(UncoveredRegimeError):
                            bounded(p, q, n)
                    with pytest.raises(UncoveredRegimeError):
                        cycle_cover_coefficients(p, q, n, 0)
                    continue
                assert k_pq(p, q, n) == k
                assert mixing_exponent_cap(p, q, n) == k + 2 * n**p + 3 * n**q
                for i in range(n**q + 1):
                    assert cycle_cover_coefficients(p, q, n, i) == (
                        _three_branch_cover(p, q, n, i)
                    )


def test_gadre_tsai_lower_pins():
    sharp, weak = gadre_tsai_lower(22, 13, 5)
    assert sharp == Fraction(1, 362)
    assert weak == Fraction(1, 412)
    assert gadre_tsai_lower(31, 11, 6)[0] == Fraction(1, 31 + 330 - 60)


def test_gadre_tsai_lower_validation():
    with pytest.raises(ValueError):
        gadre_tsai_lower(0, 13, 5)
    with pytest.raises(ValueError):
        gadre_tsai_lower(5, 1, 3)  # 30|chi| = 30 <= 10n = 30


def test_avoidance_upper():
    assert avoidance_upper(16) == (Fraction(1, 8), Fraction(1, 4))
    assert avoidance_upper(3) == (Fraction(2, 3), Fraction(4, 3))
    with pytest.raises(ValueError):
        avoidance_upper(0)


def test_arithmetic_upper():
    assert arithmetic_upper(2) == Fraction(2, 1)
    assert arithmetic_upper(11) == Fraction(1, 5)
    with pytest.raises(ValueError):
        arithmetic_upper(1)


def test_cone_constant():
    assert cone_constant([2, 3, 4], [1, 1, 2]) == 8
    assert cone_constant([5], [3]) == 8
    with pytest.raises(ValueError):
        cone_constant([], [1])


def test_fit_exponent_recovers_exact_power_law():
    samples = [(n, 7.5 * n**-1.5) for n in (2, 5, 10, 40, 100)]
    slope, intercept, max_residual = fit_exponent(samples)
    assert abs(slope - (-1.5)) < 1e-9
    assert max_residual < 1e-9
    # intercept is log10 of the prefactor
    assert abs(10**intercept - 7.5) < 1e-6


def test_fit_exponent_validation():
    with pytest.raises(ValueError):
        fit_exponent([(2, 1.0), (3, 0.5)])
    with pytest.raises(ValueError):
        fit_exponent([(2, 1.0), (3, 0.5), (4, -0.1)])
    with pytest.raises(ValueError):
        fit_exponent([(2, 1.0), (2, 0.5), (2, 0.3)])


def _report_kwargs():
    return dict(
        integral_class=IntegralClass(5, 7, 1),
        norm=11,
        punctures=3,
        genus=5,
        regime="PltQle2P",
    )


def test_bound_report_accepts_consistent_bounds():
    rep = BoundReport(
        **_report_kwargs(),
        lower_lC=Fraction(1, 100),
        upper_lC=Fraction(1, 2),
    )
    assert rep.error is None
    assert rep.mixing_r is None


def test_bound_report_rejects_crossed_sandwich():
    with pytest.raises(ValueError):
        BoundReport(
            **_report_kwargs(),
            lower_lC=Fraction(1, 2),
            upper_lC=Fraction(1, 3),
        )


def test_bound_report_rejects_unknown_regime():
    kwargs = _report_kwargs()
    kwargs["regime"] = "sideways"
    with pytest.raises(ValueError):
        BoundReport(**kwargs)
