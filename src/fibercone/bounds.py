r"""
Rigorous bounds on curve-complex asymptotic translation length.

Let psi be the pseudo-Anosov monodromy of a primitive fibered class, S its
fiber (genus g, n punctures, |chi| = 2g - 2 + n), and Gamma its train-track
digraph.  Two mechanisms produce bounds on ell_C(psi), the asymptotic
translation length of psi on the curve complex of S:

Lower bound.  If r is the least power for which every r-step image in Gamma
covers all vertices (the primitivity exponent), then the image of every
essential arc/curve after r iterates crosses every real branch, which forces

    ell_C(psi) >= 1 / w,     w = r + 30 |chi(S)| - 10 n,

together with the weaker but simpler 1 / (r + 30 |chi|).  The combination
30|chi| - 10n = 60g - 60 + 20n is positive for every fiber that occurs here;
inputs violating that are refused rather than silently producing w <= 0.

Upper bound.  A verified avoidance witness m (the m-step image of a branch
misses a branch disjoint from it) yields disjointness of psi^m-images in the
arc-and-curve complex, so ell_AC(psi) <= 2/m, and the 2-bilipschitz inclusion
of the curve complex gives ell_C(psi) <= 4/m.  For classes whose monodromy is
a product with an n-th power of a Dehn twist there is also the arithmetic
bound ell_C <= 2/(n-1).

The families (1, n^p, n^q)+ admit the closed-form covering threshold

    k_pq(p,q,n) = n^q (2 n^e + 1),   e = q if q < p < 2q, p if p < q <= 2p,
                                     and q - p if 2p <= q

(the last two regimes meet at q = 2p, where p = q - p); p = q and p >= 2q
are outside the covered regimes.  The threshold arises because the digraph
carries cycles of lengths k, k+1 and j+k+1 through the vertex a_k, and from
k_pq - n^q onwards every step count is a nonnegative combination of those
three lengths: cycle_cover_coefficients returns the explicit combination.
The exponent itself obeys mixing_exponent_cap: r <= k_pq + 2 n^p + 3 n^q.

The cone constant D = max_{a in Omega_0} |a| + sum_{b in Omega} |b| built
from a Hilbert basis converts the monoid decomposition of a class delta =
alpha + n beta into the guarantee n >= norm(delta)/D, feeding the arithmetic
upper bound.

Bounds are exact rationals end to end; floats appear only in fit_exponent,
the log-log least-squares harness used to read off asymptotic exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log10
from typing import Iterable, Sequence

from .magic_classes import IntegralClass

__all__ = [
    "BoundReport",
    "UncoveredRegimeError",
    "REGIMES",
    "regime_of",
    "k_pq",
    "mixing_exponent_cap",
    "cycle_cover_coefficients",
    "gadre_tsai_lower",
    "avoidance_upper",
    "arithmetic_upper",
    "cone_constant",
    "fit_exponent",
]

REGIMES = ("QltPlt2Q", "PltQle2P", "TwoPleQ", "uncovered")


class UncoveredRegimeError(ValueError):
    """The pair (p, q) lies outside the three covered exponent regimes."""


def regime_of(p: int, q: int) -> str:
    """Which of the covered regimes (p, q) falls in, or "uncovered"."""
    if p < 1 or q < 1:
        return "uncovered"
    if q < p < 2 * q:
        return "QltPlt2Q"
    if p < q <= 2 * p:
        return "PltQle2P"
    if 2 * p <= q:
        return "TwoPleQ"
    return "uncovered"


def _exponent(p: int, q: int, n: int) -> int:
    """The exponent e of (p, q)'s regime, refusing n < 2 and uncovered pairs."""
    if n < 2:
        raise ValueError("need n >= 2")
    e = {"QltPlt2Q": q, "PltQle2P": p, "TwoPleQ": q - p}.get(regime_of(p, q))
    if e is None:
        raise UncoveredRegimeError(
            f"uncovered regime (p,q)=({p},{q}): need q < p < 2q, "
            "p < q <= 2p, or 2p <= q"
        )
    return e


def k_pq(p: int, q: int, n: int) -> int:
    """Covering threshold n^q (2 n^e + 1) of Gamma_(1,n^p,n^q)+."""
    e = _exponent(p, q, n)
    return n**q * (2 * n**e + 1)


def mixing_exponent_cap(p: int, q: int, n: int) -> int:
    """Upper bound k_pq + 2 n^p + 3 n^q on the primitivity exponent."""
    return k_pq(p, q, n) + 2 * n**p + 3 * n**q


def cycle_cover_coefficients(p: int, q: int, n: int, i: int) -> tuple[int, int, int]:
    """Nonnegative (a, b, c) with a*k + b*(k+1) + c*(j+k+1) = k_pq - n^q + i.

    Here j = n^p, k = n^q are the cycle data of Gamma_(1,n^p,n^q)+ and i
    ranges over [0, n^q]; the combination shows every walk length from
    k_pq - n^q up is realized by concatenating the three cycles at a_k.
    It is (c, b) = divmod(i, n^p + 1), a = 2 n^e - b - c, with e the
    exponent of k_pq; when q < p < 2q, i <= n^q < n^p gives (2 n^q - i, i, 0).
    """
    if not 0 <= i <= n**q:
        raise ValueError(f"i must lie in [0, n^q] = [0, {n**q}], got {i}")
    e = _exponent(p, q, n)
    c, b = divmod(i, n**p + 1)
    a = 2 * n**e - b - c
    if a < 0 or b < 0 or c < 0:
        raise RuntimeError(
            f"negative cycle coefficients ({a},{b},{c}) for "
            f"(p,q,n,i)=({p},{q},{n},{i})"
        )
    j, k = n**p, n**q
    if a * k + b * (k + 1) + c * (j + k + 1) != k_pq(p, q, n) - n**q + i:
        raise RuntimeError(
            f"cycle combination mismatch for (p,q,n,i)=({p},{q},{n},{i})"
        )
    return (a, b, c)


def gadre_tsai_lower(
    r: int, chi_abs: int, n_punct: int
) -> tuple[Fraction, Fraction]:
    """Lower bounds (1/(r + 30|chi| - 10n), 1/(r + 30|chi|)) on ell_C.

    r is the primitivity exponent of the train-track digraph, chi_abs the
    absolute Euler characteristic of the fiber, n_punct its punctures.  The
    first bound is the sharp one; the second drops the puncture credit.
    """
    if r < 1 or chi_abs < 1 or n_punct < 0:
        raise ValueError("need r >= 1, chi_abs >= 1, n_punct >= 0")
    if 30 * chi_abs <= 10 * n_punct:
        raise ValueError(
            f"30|chi| = {30 * chi_abs} must exceed 10n = {10 * n_punct}; "
            "the denominator is only positive for actual fiber data"
        )
    return (
        Fraction(1, r + 30 * chi_abs - 10 * n_punct),
        Fraction(1, r + 30 * chi_abs),
    )


def avoidance_upper(m: int) -> tuple[Fraction, Fraction]:
    """(upper on ell_AC, upper on ell_C) = (2/m, 4/m) from a witness m."""
    if m < 1:
        raise ValueError("witness step count must be positive")
    return (Fraction(2, m), Fraction(4, m))


def arithmetic_upper(n: int) -> Fraction:
    """2/(n-1): the bound from an n-th power of a boundary twist, n >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction(2, n - 1)


def cone_constant(
    omega0_norms: Sequence[int], omega_norms: Sequence[int]
) -> int:
    """max over the seed norms plus the sum of the generator norms.

    With a monoid decomposition delta = a + sum k_b b and n = max k_b this is
    the denominator D in the guarantee n >= norm(delta)/D (valid whenever
    norm(delta) > D), which plugs into arithmetic_upper.
    """
    if not omega0_norms or not omega_norms:
        raise ValueError("need nonempty norm lists")
    return max(omega0_norms) + sum(omega_norms)


def fit_exponent(
    samples: Iterable[tuple[object, object]]
) -> tuple[float, float, float]:
    """Least-squares line through (log10 norm, log10 bound).

    Returns (slope, intercept, max_residual); the slope estimates the decay
    exponent -r of a power law bound ~ norm^(-r).  Needs at least three
    samples with positive values and at least two distinct norms.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if len(pts) < 3:
        raise ValueError("need at least 3 samples")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("samples must be positive")
    xs = [log10(x) for x, _ in pts]
    ys = [log10(y) for _, y in pts]
    if len(set(xs)) < 2:
        raise ValueError("degenerate samples: all norms equal")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    max_residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return (slope, intercept, max_residual)


@dataclass(frozen=True)
class BoundReport:
    """End-to-end record of the bounds attached to one fibered class.

    n, p, q carry the family coordinates when the class comes from a sweep
    ((1, n^p, n^q)+; the (1, n, 1)+ family is recorded as p = 1, q = 0);
    they and the regime are None for standalone classes.  All bound fields
    are exact rationals; fields are None when a per-instance failure left
    them uncomputed, with the failure itself in `error`.
    """

    integral_class: IntegralClass
    norm: int
    punctures: int
    genus: int
    regime: str | None
    mixing_r: int | None = None
    lower_lC: Fraction | None = None
    lower_lC_weak: Fraction | None = None
    avoidance_m: int | None = None
    upper_lAC: Fraction | None = None
    upper_lC: Fraction | None = None
    n: int | None = None
    p: int | None = None
    q: int | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.regime is not None and self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if (
            self.lower_lC is not None
            and self.upper_lC is not None
            and self.lower_lC > self.upper_lC
        ):
            raise ValueError(
                f"lower bound {self.lower_lC} exceeds upper bound "
                f"{self.upper_lC} for {self.integral_class.coords()}"
            )
