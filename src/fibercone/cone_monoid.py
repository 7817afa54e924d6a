r"""
Lattice-point monoids of low-dimensional rational cones.

A rational cone P = { x in R^m : A x >= 0 } (A an integer inequality matrix,
m <= 3) meets the lattice in a finitely generated monoid P cap Z^m.  This
module computes, by bounded-box brute force chosen for independent
verifiability over generality:

  * hilbert_basis -- the irreducible monoid elements Omega inside a scanned
    coordinate box, with an exhaustive completeness check (every monoid point
    of the box decomposes over Omega) that reports "bound too small" instead
    of returning an unverified set;
  * omega0 -- the interior seed set: sums of subsets W of Omega that are not
    contained in any single facet of P.  Such a sum has strictly positive
    pairing with every facet row, so it lies in int(P), and together the
    seeds reach every interior lattice point:

        int(P) cap Z^m = { a + sum_b k_b b : a in Omega_0, k_b >= 0 };

  * decompose_interior -- that equality realized for a given interior
    point: the first seed (in sorted order) for which the residual point - a
    is a nonnegative integer combination of Omega, with the lexicographically
    greatest coefficient vector, re-verified by recomposition;
  * arithmetic_split -- delta = alpha + n beta with beta the generator of
    largest coefficient; any valid decomposition forces

        n >= norm(delta) / (max_{a in Omega_0} norm(a) + sum_b norm(b))

    whenever norm(delta) exceeds that denominator, for any functional that is
    linear and nonnegative on the cone.

ConeSpec certifies exactly that the cone has interior and is pointed (a cone
containing a line has units in its monoid and no irreducible generating
set): A x > 0 is solvable iff A x >= 1 is, which on r = rank A coordinates
has a vertex adj(S) (1, ..., 1) / det S for an invertible r x r minor S of
A, and the cone is then pointed iff r = m.  Pointedness gives the strictly
positive integer functional c = sum of the rows of A, whose level decreases
along every monoid decomposition and orders the box scan.  Facets are read
off the generators: a row cuts a facet when the generators it vanishes on
span dimension m - 1 (a monoid point on a face decomposes over the
generators on that face), redundant rows fail that test, and rows vanishing
on the same generators cut the same facet and are merged.  A pointed cone
with nonempty interior has at least m facets, so hilbert_data refuses a box
whose basis bounds fewer.  All arithmetic is in exact integers: _det and
_adjugate give the vertex, ranks (largest nonzero minor) and the tail solve.

hilbert_basis and decompose_interior share one coefficient search,
which returns the lexicographically greatest nonnegative coefficient vector.
It goes depth-first over the generators, largest coefficient first, and
never leaves the cone: residual and generator both lie in it, so the k with
row . (res - k b) >= 0 on every row form the interval from 0 to the least
row . res // row . b over the rows with row . b > 0, read off the residual's
row values.  The longest linearly independent suffix of Omega is not
searched: an invertible square minor of it, kept as integer adjugate and
determinant, gives its unique coefficients by one exact division each, and
recomposing the residual in integers confirms them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, NamedTuple, Sequence

from .bounds import cone_constant

__all__ = [
    "Point",
    "ConeSpec",
    "HilbertData",
    "InteriorDecomposition",
    "ArithmeticSplit",
    "EmptyInteriorError",
    "BoundTooSmallError",
    "NoDecompositionError",
    "hilbert_basis",
    "omega0",
    "hilbert_data",
    "hilbert_data_from_omega",
    "decompose_interior",
    "arithmetic_split",
    "l1_norm",
    "thurston_form",
]

Point = tuple[int, ...]


class EmptyInteriorError(ValueError):
    """No x has A x > 0: the cone has empty interior."""


class BoundTooSmallError(ValueError):
    """The scanned box cannot certify completeness of the generator set."""


class NoDecompositionError(ValueError):
    """No seed-plus-generators decomposition was found (incomplete omega)."""


def l1_norm(point: Point) -> int:
    return sum(abs(c) for c in point)


def thurston_form(point: Point) -> int:
    """x + y - z: the Thurston norm as a linear form on the magic cone."""
    if len(point) != 3:
        raise ValueError("the Thurston form needs 3 coordinates")
    return point[0] + point[1] - point[2]


def _dot(row: Sequence[int], x: Point) -> int:
    return sum(r * c for r, c in zip(row, x))


def _lattice_point(x: Sequence[int], dim: int, what: str) -> Point:
    """x as a tuple of dim exact ints (no bools, no floats), else ValueError."""
    try:
        point = tuple(x)
    except TypeError:
        point = None
    if point is None or len(point) != dim or any(type(c) is not int for c in point):
        raise ValueError(f"{what} {x!r} is not a sequence of {dim} integers")
    return point


@dataclass(frozen=True)
class ConeSpec:
    """An integer inequality matrix A defining P = {x : A x >= 0}.

    Construction certifies that P has nonempty interior and contains no
    line, else EmptyInteriorError or ValueError; interior_point is a lattice
    point with A x > 0.
    """

    rows: tuple[tuple[int, ...], ...]
    interior_point: Point = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            rows = tuple(tuple(row) for row in self.rows)
        except TypeError:
            raise ValueError("inequality rows must be sequences of integers") from None
        if not rows:
            raise ValueError("need at least one inequality row")
        object.__setattr__(self, "rows", rows)
        m = len(rows[0])
        if not 1 <= m <= 3:
            raise ValueError("only ambient dimensions 1..3 are supported")
        for row in rows:
            if len(row) != m:
                raise ValueError("inequality rows must have equal length")
            for r in row:
                if type(r) is not int:
                    raise ValueError("inequality entries must be integers")
        rank = _rank(rows)
        object.__setattr__(self, "interior_point", self._vertex_with_interior(rank))
        if rank < m:
            raise ValueError(
                f"the rows have rank {rank} < {m}, so the cone contains a line"
            )

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def contains(self, x: Point) -> bool:
        return all(_dot(row, x) >= 0 for row in self.rows)

    def strictly_positive_rows(self, x: Point) -> bool:
        return all(_dot(row, x) > 0 for row in self.rows)

    def _vertex_with_interior(self, rank: int) -> Point:
        """det(S)^2 y for the first y = adj(S) (1, ..., 1) / det S (on the
        coordinates of a rank x rank minor S of A, 0 elsewhere) with A y > 0.
        """
        for sub in combinations(self.rows, rank):
            for coords in combinations(range(self.dim), rank):
                minor = [[row[c] for c in coords] for row in sub]
                det = _det(minor)
                if not det:
                    continue
                x = [0] * self.dim
                for c, adj_row in zip(coords, _adjugate(minor)):
                    x[c] = det * sum(adj_row)
                if self.strictly_positive_rows(x):
                    return tuple(x)
        raise EmptyInteriorError(
            "no x has A x > 0 (A x >= 1 has no vertex): the cone has empty interior"
        )

    def level_form(self) -> tuple[int, ...]:
        """c = sum of rows: c . x >= 0 on P, and > 0 off 0 when P is pointed."""
        return tuple(sum(col) for col in zip(*self.rows))


def _box_monoid_points(spec: ConeSpec, bound: int) -> list[Point]:
    """Nonzero monoid points in [-bound, bound]^m, sorted by (level, lex)."""
    c = spec.level_form()
    pts = [
        x
        for x in product(range(-bound, bound + 1), repeat=spec.dim)
        if any(x) and spec.contains(x)
    ]
    pts.sort(key=lambda x: (_dot(c, x), x))
    return pts


def _det(m: Sequence[Sequence[int]]) -> int:
    """Integer determinant by cofactor expansion (square, at most 3 x 3)."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _adjugate(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """adj(M), so that M adj(M) = det(M) I; adj(M)[j][a] is the (a, j) cofactor."""
    return tuple(
        tuple(
            (-1) ** (a + j)
            * _det([row[:j] + row[j + 1:] for i, row in enumerate(m) if i != a])
            for a in range(len(m))
        )
        for j in range(len(m))
    )


def _rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of integer vectors: the size of their largest nonzero minor."""
    dim = len(vectors[0]) if vectors else 0
    for k in range(min(len(vectors), dim), 0, -1):
        for sub in combinations(vectors, k):
            for coords in combinations(range(dim), k):
                if _det([[v[c] for c in coords] for v in sub]):
                    return k
    return 0


class _CoefficientPlan(NamedTuple):
    """What the coefficient search needs of a generator sequence.

    pairings[i][r] is rows[r] . omega[i].  omega[tail:] is the longest
    linearly independent suffix; on the coordinates minor_coords it has an
    invertible square minor S, stored as adj(S) and det(S).
    """

    omega: tuple[Point, ...]
    rows: tuple[tuple[int, ...], ...]
    pairings: tuple[tuple[int, ...], ...]
    tail: int
    minor_coords: tuple[int, ...]
    adjugate: tuple[tuple[int, ...], ...]
    det: int


def _coefficient_plan(omega: Sequence[Point], spec: ConeSpec) -> _CoefficientPlan:
    """The plan for omega, whose generators must be nonzero points of the cone."""
    omega = tuple(omega)
    tail = len(omega)
    while tail > 0 and _rank(omega[tail - 1:]) == len(omega) - tail + 1:
        tail -= 1
    cols = omega[tail:]
    for coords in combinations(range(spec.dim), len(cols)):
        minor = [[b[c] for b in cols] for c in coords]
        det = _det(minor)
        if det:
            break
    return _CoefficientPlan(
        omega,
        spec.rows,
        tuple(tuple(_dot(row, b) for row in spec.rows) for b in omega),
        tail,
        coords,
        _adjugate(minor),
        det,
    )


def _solve_tail(plan: _CoefficientPlan, res: Point) -> list[int] | None:
    """The k >= 0 with res = sum_j k_j omega[tail + j], or None.

    The suffix is independent, so k is unique: Cramer's rule on the minor
    gives it, and recomposing res in integers confirms it on every
    coordinate.
    """
    ks = []
    for adj_row in plan.adjugate:
        q, r = divmod(
            sum(a * res[c] for a, c in zip(adj_row, plan.minor_coords)), plan.det
        )
        if r or q < 0:
            return None
        ks.append(q)
    cols = plan.omega[plan.tail:]
    for c, x in enumerate(res):
        if sum(k * b[c] for k, b in zip(ks, cols)) != x:
            return None
    return ks


def _solve_coefficients(
    residual: Point, plan: _CoefficientPlan, memo: set[tuple[Point, int]]
) -> list[int] | None:
    """The lexicographically greatest k >= 0 with residual = sum k_b b, or None.

    Depth-first over omega[:tail], largest coefficient first.  The residual
    and each generator lie in the cone, so row . (res - k b) >= 0 bounds k
    only from above, by row . res // row . b over the rows pairing
    positively with b (0 if there is none): every k from that bound down to
    0 keeps the residual in the cone.  At depth tail the independent suffix
    is solved exactly.  Failed (residual, depth) pairs are memoized.
    """
    omega, pairings, tail = plan.omega, plan.pairings, plan.tail

    def rec(res: Point, vals: tuple[int, ...], idx: int) -> list[int] | None:
        if not any(res):
            return [0] * (len(omega) - idx)
        key = (res, idx)
        if key in memo:
            return None
        found = None
        if idx == tail:
            found = _solve_tail(plan, res)
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

    vals = tuple(_dot(row, residual) for row in plan.rows)
    if min(vals) < 0:
        return None
    return rec(residual, vals, 0)


def hilbert_basis(spec: ConeSpec, search_bound: int) -> tuple[Point, ...]:
    """Irreducible monoid elements within the box, certified complete.

    One pass over the box points by increasing level of the positive
    functional c: a point is reducible if it decomposes over the generators
    found so far, proof of a generator outside the box (BoundTooSmallError)
    if it is a found generator plus a monoid point, and new otherwise.  A
    decomposition uses only generators of lower level, so none found later
    could have decomposed an earlier point.
    """
    if type(search_bound) is not int or search_bound < 1:
        raise ValueError(f"search bound {search_bound!r} is not a positive integer")
    omega: list[Point] = []
    plan, memo = _coefficient_plan(omega, spec), set()
    for x in _box_monoid_points(spec, search_bound):
        if _solve_coefficients(x, plan, memo) is not None:
            continue
        for v in omega:
            if spec.contains(tuple(a - b for a, b in zip(x, v))):
                raise BoundTooSmallError(
                    f"box point {x} does not decompose over the {len(omega)} "
                    f"generators found so far; bound too small"
                )
        omega.append(x)
        omega.sort()
        plan, memo = _coefficient_plan(omega, spec), set()
    return tuple(omega)


@dataclass(frozen=True)
class HilbertData:
    """Generators and interior seeds of a cone's lattice monoid.

    facets[f] is the set of omega indices lying on the f-th facet, and
    facet_row_indices[f] the index into cone.rows of a row cutting it.
    """

    cone: ConeSpec
    omega: tuple[Point, ...]
    omega0: tuple[Point, ...]
    facets: tuple[frozenset[int], ...]
    facet_row_indices: tuple[int, ...]
    plan: _CoefficientPlan = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", _coefficient_plan(self.omega, self.cone))

    def is_interior(self, x: Point) -> bool:
        """x in int(P): nonnegative on all rows, strict on every facet row."""
        if not self.cone.contains(x):
            return False
        return all(_dot(self.cone.rows[r], x) > 0 for r in self.facet_row_indices)


def omega0(omega: Sequence[Point], spec: ConeSpec) -> tuple[Point, ...]:
    """Sums of subsets of omega not contained in any single facet.

    A subset W lies in a facet exactly when some facet row annihilates all of
    W; the sums of the remaining subsets pair strictly positively with every
    facet row, hence are interior.  The result is deduplicated and sorted.
    """
    return hilbert_data_from_omega(omega, spec).omega0


def hilbert_data_from_omega(omega: Sequence[Point], spec: ConeSpec) -> HilbertData:
    """Assemble HilbertData around a caller-supplied generating set.

    omega need not be the minimal Hilbert basis, but every interior seed is
    built from it, so decompose_interior against the result only ever uses
    these generators.  The facets are the distinct sets of generators a row
    vanishes on that span dimension m - 1, each with the first such row.
    Every generator must be a nonzero point of the cone with spec.dim
    integer entries, else ValueError.
    """
    omega = tuple(sorted(_lattice_point(p, spec.dim, "generator") for p in omega))
    if not omega:
        raise ValueError("omega must be nonempty")
    for b in omega:
        if not any(b) or not spec.contains(b):
            raise ValueError(f"generator {b} is not a nonzero point of the cone")
    if len(omega) > 20:
        raise ValueError("subset enumeration over more than 20 generators refused")
    facets: list[frozenset[int]] = []
    facet_rows: list[int] = []
    for ridx, row in enumerate(spec.rows):
        on_row = frozenset(i for i, b in enumerate(omega) if _dot(row, b) == 0)
        if on_row in facets:
            continue
        if _rank([omega[i] for i in on_row]) == spec.dim - 1:
            facets.append(on_row)
            facet_rows.append(ridx)
    sums: set[Point] = set()
    for mask in range(1, 1 << len(omega)):
        members = frozenset(i for i in range(len(omega)) if mask >> i & 1)
        if any(members <= facet for facet in facets):
            continue
        total = tuple(
            sum(omega[i][c] for i in members) for c in range(spec.dim)
        )
        sums.add(total)
    data = HilbertData(
        spec, omega, tuple(sorted(sums)), tuple(facets), tuple(facet_rows)
    )
    for a in data.omega0:
        if not data.is_interior(a):
            raise RuntimeError(f"seed {a} is not interior; facet analysis is wrong")
    return data


def hilbert_data(spec: ConeSpec, search_bound: int) -> HilbertData:
    """hilbert_basis and omega0 packaged with the facet bookkeeping.

    Raises BoundTooSmallError when the basis found bounds fewer than m
    facets: the box has not seen the generators of some facet.
    """
    data = hilbert_data_from_omega(hilbert_basis(spec, search_bound), spec)
    if len(data.facet_row_indices) < spec.dim:
        raise BoundTooSmallError(
            f"the {len(data.omega)} generators found bound "
            f"{len(data.facet_row_indices)} facet(s) of a {spec.dim}-dimensional "
            f"cone, which has at least {spec.dim}; bound too small"
        )
    return data


@dataclass(frozen=True)
class InteriorDecomposition:
    """point = seed + sum over omega of coefficients[i] * omega[i]."""

    seed: Point
    coefficients: tuple[int, ...]


def decompose_interior(point: Point, h: HilbertData) -> InteriorDecomposition:
    """Express an interior lattice point as a seed plus generators.

    Seeds are tried in sorted order; for the first that admits one, the
    lexicographically greatest coefficient vector over omega is returned
    after re-verification.  Failure means the generator set cannot be
    complete.  point must have cone.dim integer entries, else ValueError.
    """
    point = _lattice_point(point, h.cone.dim, "point")
    if not h.is_interior(point):
        raise ValueError(f"{point} is not an interior lattice point of the cone")
    memo: set[tuple[Point, int]] = set()
    for a in h.omega0:
        residual = tuple(p - s for p, s in zip(point, a))
        coeffs = _solve_coefficients(residual, h.plan, memo)
        if coeffs is None:
            continue
        recomposed = tuple(
            s + sum(k * b[c] for k, b in zip(coeffs, h.omega))
            for c, s in enumerate(a)
        )
        if recomposed != point or any(k < 0 for k in coeffs):
            raise RuntimeError(f"decomposition of {point} failed re-verification")
        return InteriorDecomposition(a, tuple(coeffs))
    raise NoDecompositionError(
        f"no decomposition of {point} within bounds; the generator set "
        "must be incomplete"
    )


@dataclass(frozen=True)
class ArithmeticSplit:
    """point = alpha + n * beta, with beta the heaviest generator.

    n = 0 (degenerate: the point is a bare seed) is flagged so callers skip
    the twist-power bound.
    """

    alpha: Point
    beta: Point
    n: int
    decomposition: InteriorDecomposition

    @property
    def degenerate(self) -> bool:
        return self.n == 0


def arithmetic_split(
    point: Point, h: HilbertData, norm: Callable[[Point], int]
) -> ArithmeticSplit:
    """Split off the heaviest generator; ties go to the smallest index.

    When norm(point) exceeds D = cone_constant of the generator norms, the
    returned n is guaranteed (and re-checked) to satisfy n >= norm(point)/D.
    """
    point = _lattice_point(point, h.cone.dim, "point")
    decomp = decompose_interior(point, h)
    coeffs = decomp.coefficients
    idx = coeffs.index(max(coeffs))
    n = coeffs[idx]
    beta = h.omega[idx]
    alpha = tuple(p - n * b for p, b in zip(point, beta))
    d_const = cone_constant(
        [norm(a) for a in h.omega0], [norm(b) for b in h.omega]
    )
    value = norm(point)
    if value > d_const and n * d_const < value:
        raise RuntimeError(
            f"split guarantee violated: n={n}, D={d_const}, norm={value}; "
            "the norm is not linear-nonnegative on this cone"
        )
    return ArithmeticSplit(alpha, beta, n, decomp)
