r"""
Lattice-point monoids of low-dimensional rational cones.

A rational cone P = { x in R^m : A x >= 0 } (A an integer inequality matrix,
m <= 3) meets the lattice in a finitely generated monoid P cap Z^m.  This
module computes, in exact integers and from the cone's own rays:

  * hilbert_basis -- the irreducible monoid elements Omega.  The candidates
    are the primitive extreme rays (signed maximal minors of m - 1 rows,
    divided by their gcd) and the lattice points of the half-open
    fundamental parallelepipeds of a triangulation that pulls from the
    first ray (Bruns-Koch 2001; Bruns-Ichim 2010, as in Normaliz).  They
    generate the monoid, so they contain every irreducible element, and a
    candidate is irreducible exactly when no other candidate lies below it
    (x - y in the cone).  Every candidate is peeled down to 0 over the
    result before it is returned.  A basis with a coordinate outside the
    search bound's box is refused (BoundTooSmallError);
  * the interior seed set Omega_0: sums of subsets W of Omega that are not
    contained in any single facet of P.  Such a sum lies in int(P), and
    together the seeds reach every interior lattice point:

        int(P) cap Z^m = { a + sum_b k_b b : a in Omega_0, k_b >= 0 }.

    P has no zero row and every row is a nonnegative combination of facet
    normals, so int(P) = { x : A x > 0 } and W lies in a facet exactly when
    some row pairs to zero with its sum: Omega_0 is the set of distinct
    nonempty subset sums that are strictly positive on every row.  The sums
    are built one generator at a time, S <- S u (S + b) u {b}, never
    enumerating the 2^|Omega| subsets themselves;

  * decompose_interior -- that equality realized for a given interior
    point: the first seed (in sorted order) for which the residual point - a
    is a nonnegative integer combination of Omega, with the lexicographically
    greatest coefficient vector, re-verified by recomposition;
  * arithmetic_split -- delta = alpha + n beta with beta the generator of
    largest coefficient; any valid decomposition forces

        n >= norm(delta) / (max_{a in Omega_0} norm(a) + sum_b norm(b))

    whenever norm(delta) exceeds that denominator, for any functional that is
    linear and nonnegative on the cone.

ConeSpec computes the cone's faces once, and everything else reads them.
On the first r = rank A coordinates where the rows keep rank r, A x spans
the same space and the rows cut a pointed cone, so its primitive extreme
rays exist, and A x > 0 is solvable iff their sum is strictly positive on
every row (EmptyInteriorError if not).  The cone is then pointed iff r = m
(a cone containing a line has units in its monoid and no irreducible
generating set), else ValueError.  A facet row is a row tight on exactly
m - 1 rays; redundant rows are tight on fewer, and rows tight on the same
rays cut the same facet, which keeps the first.  _det and _adjugate give
the rays, the parallelepiped coordinates, ranks (largest nonzero minor)
and the tail solve.

decompose_interior's coefficient search returns the lexicographically
greatest nonnegative coefficient vector.  It goes depth-first over the
generators, largest coefficient first, on an explicit stack (one entry
per searched generator, so no recursion limit), and never leaves the
cone: residual and generator both lie in it, so the k with
row . (res - k b) >= 0 on every row form the interval from 0 to the least
row . res // row . b over the rows with row . b > 0, read off the
residual's row values.  Those values come from the caller: decompose_interior
computes the point's row values once, uses them for the interior test, and
compares them with the seed row values HilbertData stores, so a seed with a
negative residual value row . p - row . a is skipped before its residual is
built.  The longest linearly independent suffix of Omega is not searched:
an invertible square minor S of it, kept as the rows of the integer
adjugate spread over every coordinate (0 off the minor) and det(S), gives
its unique coefficients by one dot product and exact division each.  Exact
division fixes the minor's coordinates, since adj(S) r = det(S) k with no
remainder already means S k = r, and the coordinates off the minor are
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import gcd
from operator import add, ge, mul, sub
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
    """The Hilbert basis has a coordinate outside the search bound's box."""


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
    return sum(map(mul, row, x))


def _row_values(rows: Sequence[Sequence[int]], x: Point) -> tuple[int, ...]:
    """(row . x for each row): x lies in the cone iff none is negative."""
    return tuple([sum(map(mul, row, x)) for row in rows])


def _lattice_point(x: Sequence[int], dim: int, what: str) -> Point:
    """x as a tuple of dim exact ints (no bools, no floats), else ValueError."""
    try:
        point = tuple(x)
    except TypeError:
        point = None
    if point is None or len(point) != dim or {*map(type, point)} != {int}:
        raise ValueError(f"{what} {x!r} is not a sequence of {dim} integers")
    return point


@dataclass(frozen=True)
class ConeSpec:
    """An integer inequality matrix A defining P = {x : A x >= 0}.

    Construction certifies that P has nonempty interior and contains no
    line, else EmptyInteriorError or ValueError.  rays are the primitive
    extreme rays, sorted; facet_rows[f] indexes the first row tight on
    exactly m - 1 of them, one per facet, in row order; interior_point is
    the sum of the rays, which has A x > 0.
    """

    rows: tuple[tuple[int, ...], ...]
    rays: tuple[Point, ...] = field(init=False, compare=False, repr=False)
    facet_rows: tuple[int, ...] = field(init=False, compare=False, repr=False)
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
        # on rank-many coordinates where the rows keep their rank, A x spans
        # the same space and the rows cut a pointed cone, which has interior
        # iff the sum of its extreme rays is strictly positive on every row
        rank = _rank(rows)
        coords = next(
            c
            for c in combinations(range(m), rank)
            if _rank([[row[i] for i in c] for row in rows]) == rank
        )
        projected = tuple(tuple(row[i] for i in coords) for row in rows)
        rays = _extreme_rays(projected) if rank else ()
        inner = tuple(map(sum, zip(*rays)))
        if not all(_dot(row, inner) > 0 for row in projected):
            raise EmptyInteriorError(
                "no x has A x > 0 (the sum of the extreme rays is not strictly "
                "positive on every row): the cone has empty interior"
            )
        if rank < m:
            raise ValueError(
                f"the rows have rank {rank} < {m}, so the cone contains a line"
            )
        first_row: dict[tuple[Point, ...], int] = {}
        for i, row in enumerate(rows):
            tight = tuple(v for v in rays if _dot(row, v) == 0)
            if len(tight) == m - 1:
                first_row.setdefault(tight, i)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "facet_rows", tuple(first_row.values()))
        object.__setattr__(self, "interior_point", inner)

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def contains(self, x: Point) -> bool:
        return all(_dot(row, x) >= 0 for row in self.rows)

    def strictly_positive_rows(self, x: Point) -> bool:
        return all(_dot(row, x) > 0 for row in self.rows)


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

    pairings[i][r] is rows[r] . omega[i], and columns[c][i] is omega[i][c].
    omega[tail:] is the longest linearly independent suffix, with columns
    tail_columns.  On some of the coordinates it has an invertible square
    minor S; tail_rows[j] is row j of adj(S) spread over every coordinate,
    with 0 off the minor, so that tail_rows[j] . x is adj(S) applied to x's
    coordinates on the minor.  off_minor lists the other coordinates.
    """

    omega: tuple[Point, ...]
    rows: tuple[tuple[int, ...], ...]
    pairings: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]
    tail: int
    tail_columns: tuple[tuple[int, ...], ...]
    tail_rows: tuple[tuple[int, ...], ...]
    off_minor: tuple[int, ...]
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
    columns = tuple(tuple(b[c] for b in omega) for c in range(spec.dim))
    on_minor = [dict(zip(coords, adj_row)) for adj_row in _adjugate(minor)]
    return _CoefficientPlan(
        omega,
        spec.rows,
        tuple(_row_values(spec.rows, b) for b in omega),
        columns,
        tail,
        tuple(col[tail:] for col in columns),
        tuple(tuple(row.get(c, 0) for c in range(spec.dim)) for row in on_minor),
        tuple(c for c in range(spec.dim) if c not in coords),
        det,
    )


def _solve_tail(plan: _CoefficientPlan, res: Point) -> list[int] | None:
    """The k >= 0 with res = sum_j k_j omega[tail + j], or None.

    The suffix is independent, so k is unique.  Cramer's rule on the minor
    S gives it: adj(S) r = det(S) k with no remainder, r the residual's
    coordinates on the minor, already means S k = r, so exact division fixes
    the minor's coordinates and only the coordinates off the minor are
    compared.
    """
    det = plan.det
    ks = []
    for row in plan.tail_rows:
        q, r = divmod(sum(map(mul, row, res)), det)
        if r or q < 0:
            return None
        ks.append(q)
    for c in plan.off_minor:
        if sum(map(mul, ks, plan.tail_columns[c])) != res[c]:
            return None
    return ks


def _solve_coefficients(
    residual: Point,
    values: tuple[int, ...],
    plan: _CoefficientPlan,
    memo: set[tuple[Point, int]],
) -> list[int] | None:
    """The lexicographically greatest k >= 0 with residual = sum k_b b, or None.

    values are the residual's row values, rows[r] . residual.  Depth-first
    over omega[:tail], largest coefficient first, on an explicit stack.
    The residual and each generator lie in the cone, so row . (res - k b)
    >= 0 bounds k only from above, by row . res // row . b over the rows
    pairing positively with b (0 if there is none): every k from that
    bound down to 0 keeps the residual in the cone.  A residual outside the
    cone has no such k and fails.  At depth tail the independent suffix is
    solved exactly.  Failed (residual, depth) pairs are memoized.
    """
    omega, pairings, tail = plan.omega, plan.pairings, plan.tail
    # ks[d] is the coefficient tried for omega[d] and res is the residual at
    # depth len(ks); vals are the row values of the residual at depth
    # min(len(ks), tail - 1), since the tail solve reads no row values
    ks: list[int] = []
    res, vals = residual, values
    while True:
        depth = len(ks)
        # the memo stays empty until the first failure, so a search that
        # never fails hashes no key
        if not (memo and (res, depth) in memo):
            if depth == tail:
                found = _solve_tail(plan, res)
                if found is not None:
                    return ks + found
            else:
                b, bvals = omega[depth], pairings[depth]
                k = min([v // p for v, p in zip(vals, bvals) if p > 0], default=0)
                if k >= 0:
                    if k:
                        res = tuple([r - k * x for r, x in zip(res, b)])
                        if depth + 1 < tail:
                            vals = tuple([v - k * p for v, p in zip(vals, bvals)])
                    ks.append(k)
                    continue
            memo.add((res, depth))
        # backtrack to the deepest generator with a smaller k left to try;
        # at k = 0 the residual is the one that generator's depth began with
        while True:
            if not ks:
                return None
            k = ks.pop()
            depth = len(ks)
            if k:
                res = tuple(map(add, res, omega[depth]))
                if depth + 1 < tail:
                    vals = tuple(map(add, vals, pairings[depth]))
                ks.append(k - 1)
                break
            memo.add((res, depth))


def _extreme_rays(rows: Sequence[Sequence[int]]) -> tuple[Point, ...]:
    """The primitive vectors of the extreme rays of {x : A x >= 0}, sorted.

    The rows must have rank m, so the cone is pointed.  The signed maximal
    minors of m - 1 rows give a vector those rows vanish on.  Divided by
    its gcd, it or its negative lies in the cone exactly when it spans a
    1-dimensional face, and every extreme ray is cut out by some m - 1 rows
    of rank m - 1.
    """
    m = len(rows[0])
    rays: set[Point] = set()
    for sub in combinations(rows, m - 1):
        v = tuple(
            (-1) ** j * _det([row[:j] + row[j + 1:] for row in sub])
            for j in range(m)
        )
        g = gcd(*v)
        if g:
            v = tuple(c // g for c in v)
            for r in (v, tuple(-c for c in v)):
                if all(_dot(row, r) >= 0 for row in rows):
                    rays.add(r)
    return tuple(sorted(rays))


def _parallelepiped_points(simplex: Sequence[Point]) -> list[Point]:
    """The |det| lattice points sum_i l_i v_i, 0 <= l_i < 1, of the rays v_i.

    A point x of the parallelepiped's bounding box is kept when the
    coordinates l = adj(V) x / det V, V the rays as columns, lie in [0, 1).
    """
    matrix = [[v[c] for v in simplex] for c in range(len(simplex))]
    det = _det(matrix)
    adj = [tuple(a if det > 0 else -a for a in row) for row in _adjugate(matrix)]
    det = abs(det)
    box = [
        range(sum(min(0, x) for x in row), 1 + sum(max(0, x) for x in row))
        for row in matrix
    ]
    points = [x for x in product(*box) if all(0 <= _dot(a, x) < det for a in adj)]
    if len(points) != det:
        raise RuntimeError(
            f"the parallelepiped of {tuple(simplex)} holds {len(points)} lattice "
            f"points, not |det| = {det}"
        )
    return points


def _check_within(points: Sequence[Point], bound: int, what: str) -> None:
    """BoundTooSmallError unless every point lies in [-bound, bound]^m."""
    for x in points:
        if max(abs(c) for c in x) > bound:
            raise BoundTooSmallError(
                f"{what} {x} has a coordinate outside [-{bound}, {bound}]; "
                "bound too small"
            )


def hilbert_basis(spec: ConeSpec, search_bound: int) -> tuple[Point, ...]:
    """The Hilbert basis of the cone's lattice monoid, sorted.

    The candidates are the primitive extreme rays and the lattice points of
    the half-open fundamental parallelepipeds of a triangulation: pulling
    from the first ray, which is joined to each facet not containing it,
    both read off the ConeSpec (spec.rays, spec.facet_rows).  By
    Caratheodory every monoid point lies in one simplicial cone, where it is
    a parallelepiped point plus a nonnegative integer combination of the
    rays, so the candidates generate the monoid and contain every
    irreducible element.
    A candidate x is kept iff no other candidate y has x - y in the cone,
    read off row values computed once per candidate: such a y makes x =
    y + (x - y) reducible, and a reducible x has an irreducible candidate
    below it.  Before returning, every ray must be kept and every
    candidate peel down to 0 by subtracting kept generators y with z - y
    in the cone (ConeSpec.contains, not the row values), else RuntimeError.

    A basis with a coordinate outside [-search_bound, search_bound] raises
    BoundTooSmallError; the rays are checked first, which bounds the
    parallelepipeds scanned.
    """
    if type(search_bound) is not int or search_bound < 1:
        raise ValueError(f"search bound {search_bound!r} is not a positive integer")
    rays = spec.rays
    _check_within(rays, search_bound, "extreme ray")
    candidates = set(rays)
    for f in spec.facet_rows:
        tight = tuple(r for r in rays if _dot(spec.rows[f], r) == 0)
        if rays[0] not in tight:
            candidates.update(
                x for x in _parallelepiped_points((rays[0],) + tight) if any(x)
            )
    values = [(x, _row_values(spec.rows, x)) for x in sorted(candidates)]
    omega = tuple(
        x
        for x, xv in values
        if not any(y != x and all(map(ge, xv, yv)) for y, yv in values)
    )
    kept = set(omega)
    for x, _ in values:
        # peel generators off x, staying in the cone; a kept z is itself
        z: Point | None = x
        while z is not None and z not in kept:
            rests = (tuple(map(sub, z, y)) for y in omega)
            z = next((r for r in rests if spec.contains(r)), None)
        if z is None or (x in rays and x not in kept):
            raise RuntimeError(
                f"Hilbert basis candidate {x} failed re-verification over "
                f"the {len(omega)} generators kept"
            )
    _check_within(omega, search_bound, "generator")
    return omega


@dataclass(frozen=True)
class HilbertData:
    """Generators and interior seeds of a cone's lattice monoid.

    facets[f] is the set of omega indices lying on the f-th facet of the
    cone, and facet_row_indices[f] = cone.facet_rows[f] the index into
    cone.rows of the first row cutting it.  seed_values[j] are the row
    values of omega0[j].  cone_constants[norm] is cone_constant of the seed
    and generator norms, filled in by arithmetic_split on its first call
    with that norm.
    """

    cone: ConeSpec
    omega: tuple[Point, ...]
    omega0: tuple[Point, ...]
    plan: _CoefficientPlan = field(init=False, compare=False, repr=False)
    seed_values: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )
    cone_constants: dict[Callable[[Point], int], int] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", _coefficient_plan(self.omega, self.cone))
        object.__setattr__(
            self,
            "seed_values",
            tuple(_row_values(self.cone.rows, a) for a in self.omega0),
        )

    @property
    def facet_row_indices(self) -> tuple[int, ...]:
        return self.cone.facet_rows

    @property
    def facets(self) -> tuple[frozenset[int], ...]:
        rows = self.cone.rows
        return tuple(
            frozenset(i for i, b in enumerate(self.omega) if _dot(rows[f], b) == 0)
            for f in self.cone.facet_rows
        )

    def is_interior(self, x: Point) -> bool:
        """x in int(P), which is {x : A x > 0}: P has no zero row."""
        return self.cone.strictly_positive_rows(x)


def hilbert_data_from_omega(omega: Sequence[Point], spec: ConeSpec) -> HilbertData:
    """Assemble HilbertData around a caller-supplied generating set.

    omega need not be the minimal Hilbert basis, but every interior seed is
    built from it, so decompose_interior against the result only ever uses
    these generators.  The facets are the cone's own (spec.facet_rows), so
    an omega missing an extreme ray still gets every facet, and the seeds
    are the distinct nonempty subset sums of omega strictly positive on
    every row.  Every generator must be a nonzero point of the cone with
    spec.dim integer entries, else ValueError.
    """
    omega = tuple(sorted(_lattice_point(p, spec.dim, "generator") for p in omega))
    if not omega:
        raise ValueError("omega must be nonempty")
    for b in omega:
        if not any(b) or not spec.contains(b):
            raise ValueError(f"generator {b} is not a nonzero point of the cone")
    # W lies in a facet exactly when some row pairs to zero with sum(W), so
    # the seeds are read off the distinct subset sums, not the subsets
    sums: set[Point] = set()
    for b in omega:
        sums |= {tuple(map(add, s, b)) for s in sums}
        sums.add(b)
    return HilbertData(
        spec, omega, tuple(sorted(s for s in sums if spec.strictly_positive_rows(s)))
    )


def hilbert_data(spec: ConeSpec, search_bound: int) -> HilbertData:
    """hilbert_basis packaged with its interior seeds.

    Raises BoundTooSmallError as hilbert_basis does.
    """
    return hilbert_data_from_omega(hilbert_basis(spec, search_bound), spec)


@dataclass(frozen=True, slots=True)
class InteriorDecomposition:
    """point = seed + sum over omega of coefficients[i] * omega[i].

    Frozen and slotted: setting a field raises FrozenInstanceError, and
    setting a name that is not a field raises TypeError (CPython's slotted
    frozen __setattr__ fails in super()).
    """

    seed: Point
    coefficients: tuple[int, ...]


def decompose_interior(point: Point, h: HilbertData) -> InteriorDecomposition:
    """Express an interior lattice point as a seed plus generators.

    Seeds are tried in sorted order; for the first that admits one, the
    lexicographically greatest coefficient vector over omega is returned
    after re-verification.  Failure means the generator set cannot be
    complete.  point must have cone.dim integer entries, else ValueError.
    """
    return _decompose(_lattice_point(point, h.cone.dim, "point"), h)


def _decompose(point: Point, h: HilbertData) -> InteriorDecomposition:
    """decompose_interior of a point _lattice_point has already validated.

    A seed is tried only if none of its row values exceeds the point's, and
    only such a seed gets its residual and the residual's row values built.
    """
    values = _row_values(h.cone.rows, point)
    if min(values) <= 0:
        raise ValueError(f"{point} is not an interior lattice point of the cone")
    plan = h.plan
    memo: set[tuple[Point, int]] = set()
    for a, seed_values in zip(h.omega0, h.seed_values):
        if not all(map(ge, values, seed_values)):
            continue
        coeffs = _solve_coefficients(
            tuple([p - s for p, s in zip(point, a)]),
            tuple([v - s for v, s in zip(values, seed_values)]),
            plan,
            memo,
        )
        if coeffs is None:
            continue
        recomposed = tuple(
            [s + sum(map(mul, coeffs, col)) for s, col in zip(a, plan.columns)]
        )
        if recomposed != point or min(coeffs) < 0:
            raise RuntimeError(f"decomposition of {point} failed re-verification")
        return InteriorDecomposition(a, tuple(coeffs))
    raise NoDecompositionError(
        f"no decomposition of {point} within bounds; the generator set "
        "must be incomplete"
    )


@dataclass(frozen=True, slots=True)
class ArithmeticSplit:
    """point = alpha + n * beta, with beta the heaviest generator.

    n = 0 (degenerate: the point is a bare seed) is flagged so callers skip
    the twist-power bound.

    Frozen and slotted: setting a field raises FrozenInstanceError, and
    setting a name that is not a field raises TypeError (CPython's slotted
    frozen __setattr__ fails in super()).
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
    decomp = _decompose(point, h)
    coeffs = decomp.coefficients
    n = max(coeffs)
    beta = h.omega[coeffs.index(n)]
    alpha = tuple([p - n * b for p, b in zip(point, beta)])
    if norm not in h.cone_constants:
        h.cone_constants[norm] = cone_constant(
            [norm(a) for a in h.omega0], [norm(b) for b in h.omega]
        )
    d_const = h.cone_constants[norm]
    value = norm(point)
    if value > d_const and n * d_const < value:
        raise RuntimeError(
            f"split guarantee violated: n={n}, D={d_const}, norm={value}; "
            "the norm is not linear-nonnegative on this cone"
        )
    return ArithmeticSplit(alpha, beta, n, decomp)
