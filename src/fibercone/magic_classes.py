r"""
Integral classes on the fibered face of the magic manifold.

The magic manifold N is the exterior of the 3-chain link in the 3-sphere.  Its
second relative homology H_2(N, bd N) is identified with Z^3 via a fixed basis
(alpha, beta, gamma), and the Thurston norm ball is the parallelepiped with
vertices +-(1,0,0), +-(0,1,0), +-(0,0,1), +-(1,1,1).  Everything here lives on
the single fibered face

    F = the face with vertices (1,0,0), (1,1,1), (0,1,0), (0,0,-1),

whose open cone is cut out by x > 0, y > 0, x > z, y > z.  On that cone the
Thurston norm is the linear form x + y - z, and for a primitive class the fiber
S_(x,y,z) has

    |chi(S)|     = x + y - z,
    |bd S|       = gcd(x, y+z) + gcd(y, z+x) + gcd(z, x+y),

the three gcd terms counting boundary circles on the three cusp tori.  The
(i,j,k)+ coordinates are the cone-adapted basis

    (i,j,k)+ = i(1,1,1) + j(0,1,0) + k(1,1,0) = (i+k, i+j+k, i),

which lands in the open cone exactly when k >= 1 (for i, j >= 0).

All arithmetic is exact: coordinates are arbitrary-precision integers and
projective coordinates are fractions.Fraction.  The other fibered faces of the
norm ball are permuted onto F by the symmetries of the norm ball, so fixing F
loses no generality; classes outside the closed cone over F are refused rather
than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "IntegralClass",
    "PlusClass",
    "ProjectiveClass",
    "FiberInvariants",
    "plus_to_xyz",
    "in_fibered_cone",
    "thurston_norm",
    "fiber_invariants",
    "is_primitive",
    "projectivize",
    "projective_limit_family",
]


@dataclass(frozen=True)
class IntegralClass:
    """An integral second homology class x*alpha + y*beta + z*gamma."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        for c in (self.x, self.y, self.z):
            if type(c) is not int:
                raise TypeError(f"coordinates must be integers, got {c!r}")

    def scaled(self, m: int) -> "IntegralClass":
        return IntegralClass(m * self.x, m * self.y, m * self.z)

    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class PlusClass:
    """A class in (i,j,k)+ coordinates; i, j, k are nonnegative."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        for c in (self.i, self.j, self.k):
            if type(c) is not int:
                raise TypeError(f"coordinates must be integers, got {c!r}")
        if self.i < 0 or self.j < 0 or self.k < 0:
            raise ValueError(f"(i,j,k)+ coordinates must be nonnegative, got {self}")


@dataclass(frozen=True)
class ProjectiveClass:
    """A point of the norm-one plane x + y - z = 1, with exact coordinates."""

    px: Fraction
    py: Fraction
    pz: Fraction

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.px, self.py, self.pz)


@dataclass(frozen=True)
class FiberInvariants:
    """Topological invariants of the fiber of a primitive cone class."""

    norm: int                                # = |chi(S)| = x + y - z
    per_torus_counts: tuple[int, int, int]   # boundary circles on each cusp torus
    boundary_count: int                      # total punctures n = sum of the above
    genus: int                               # from x + y - z = 2g - 2 + n


def plus_to_xyz(p: PlusClass) -> IntegralClass:
    """Convert (i,j,k)+ coordinates to (x,y,z) = (i+k, i+j+k, i)."""
    return IntegralClass(p.i + p.k, p.i + p.j + p.k, p.i)


def in_fibered_cone(c: IntegralClass) -> bool:
    """True iff c lies in the open cone over F: x > 0, y > 0, x > z, y > z."""
    return c.x > 0 and c.y > 0 and c.x > c.z and c.y > c.z


def thurston_norm(c: IntegralClass) -> int:
    """Thurston norm x + y - z of a class in the open fibered cone."""
    if not in_fibered_cone(c):
        raise ValueError(
            f"{c.coords()} is outside the open fibered cone; "
            "the linear norm formula is only used there"
        )
    return c.x + c.y - c.z


def is_primitive(c: IntegralClass) -> bool:
    """True iff gcd(x, y, z) = 1; the zero class is never primitive."""
    return gcd(c.x, c.y, c.z) == 1


def fiber_invariants(c: IntegralClass) -> FiberInvariants:
    """Norm, per-torus boundary counts, total punctures and genus of the fiber.

    Requires a primitive class in the open fibered cone: primitivity makes the
    fiber connected, which is what the genus computation is about.
    """
    if not in_fibered_cone(c):
        raise ValueError(f"{c.coords()} is outside the open fibered cone")
    if not is_primitive(c):
        raise ValueError(f"{c.coords()} is not primitive (gcd != 1)")
    norm = c.x + c.y - c.z
    per_torus = (
        gcd(c.x, c.y + c.z),
        gcd(c.y, c.z + c.x),
        gcd(c.z, c.x + c.y),
    )
    boundary = sum(per_torus)
    # chi = 2 - 2g - n is even minus n, so norm - n is always even for a
    # connected fiber; a violation would mean the gcd count is wrong.
    if (norm - boundary) % 2 != 0:
        raise RuntimeError(
            f"parity failure for {c.coords()}: norm {norm}, punctures {boundary}"
        )
    genus = (norm + 2 - boundary) // 2
    if genus < 0:
        raise RuntimeError(f"negative genus for {c.coords()}")
    return FiberInvariants(norm, per_torus, boundary, genus)


def projectivize(c: IntegralClass) -> ProjectiveClass:
    """Scale a cone class onto the norm-one plane, exactly."""
    norm = thurston_norm(c)
    return ProjectiveClass(
        Fraction(c.x, norm), Fraction(c.y, norm), Fraction(c.z, norm)
    )


def projective_limit_family(p: int, q: int) -> ProjectiveClass:
    """Projective limit of (1, n^p, n^q)+ as n grows, for fixed p, q >= 1.

    The class (1, n^p, n^q)+ has (x,y,z) = (1+n^q, 1+n^p+n^q, 1) and norm
    1 + n^p + 2 n^q, so the limit depends only on how p compares with q:

      p = q  ->  (1/3, 2/3, 0)   (interior of F)
      p < q  ->  (1/2, 1/2, 0)   (interior of F)
      p > q  ->  (0,   1,   0)   (a vertex of F)
    """
    if p < 1 or q < 1:
        raise ValueError("exponents must be positive")
    if p == q:
        return ProjectiveClass(Fraction(1, 3), Fraction(2, 3), Fraction(0))
    if p < q:
        return ProjectiveClass(Fraction(1, 2), Fraction(1, 2), Fraction(0))
    return ProjectiveClass(Fraction(0), Fraction(1), Fraction(0))
