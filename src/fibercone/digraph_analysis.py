r"""
Reachability analytics on directed multigraphs.

The monodromy of a fibered class acts on the vertices of its train-track
digraph by one-step out-neighborhoods; iterating that set map is how every
bound in this package is extracted.  For a digraph on V vertices with 0/1
adjacency matrix A (multiplicities are irrelevant to reachability and are
collapsed), the m-step image of a vertex set S is

    image_after(S, m) = { v : some walk of length exactly m ends at v,
                              starting in S }
                      = support of A^m . indicator(S).

Every production path runs one stepper on int bitmasks.  Edges are grouped by
their label-index offset d = target - source, and one step of a set is

    OR over offsets d of shift(mask & group_mask[d], d),

a handful of big-int operations per step on the chain-shaped train-track
digraphs, which have about seven distinct offsets.  The transposed groups
step pre-images the same way, and give every certificate a second route:

  * primitivity_exponent finds the least m with A^m strictly positive.  Once
    every in- and out-degree is >= 1, coverage from a source is monotone in m,
    so the exponent is the largest covering time over all sources.  A vertex
    v of out-degree 1 has cov(v) = 1 + cov(succ v), so frontier stepping runs
    only from the vertices of out-degree != 1 and the chains add their
    lengths (the per-source view of Dulmage and Mendelsohn).  The same
    computation on the transposed groups, from the vertices of in-degree
    != 1, must give the same exponent, since (A^T)^m = (A^m)^T; a mismatch
    raises.  Stepping stops at the Wielandt bound (V-1)^2 + 1: a primitive
    matrix is positive by then, so a cutoff verdict of "not primitive" is a
    proof, not a timeout.  Stepping also stops when the image sequence
    repeats without covering, which proves it never covers.  Vertices of in-
    or out-degree zero kill positivity outright and short-circuit to the
    same verdict.
  * covering_time is the per-source version; last_avoidance finds the last m
    below it whose image misses a target and re-verifies the witness by
    stepping the target's pre-image back m steps, which must miss the
    source.  avoidance_at checks a given m; each witness m converts into an
    upper bound 4/m on the curve-complex translation length downstream.

Boolean matrix powers by repeated squaring survive only as the reference
route image_after(..., method="powers"), which tests compare the stepper
against.  Squarings run as numpy float32 matmuls clipped back to 0/1; this is
exact, since every entry is 0 or 1 and inner products are integers bounded by
V, far below the 2**24 float32 integer range.  Nothing else builds a V x V
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .traintrack_digraph import Digraph

__all__ = [
    "AvoidanceWitness",
    "NotPrimitiveError",
    "NeverCoversError",
    "image_after",
    "primitivity_exponent",
    "covering_time",
    "last_avoidance",
    "avoidance_at",
    "wielandt_cutoff",
]


class NotPrimitiveError(ValueError):
    """The adjacency matrix has no strictly positive power."""


class NeverCoversError(ValueError):
    """No power of the step map sends the source onto all vertices."""


def wielandt_cutoff(vertex_count: int) -> int:
    """(V-1)^2 + 1: every primitive 0/1 matrix is positive by this power."""
    return (vertex_count - 1) ** 2 + 1


@dataclass(frozen=True)
class AvoidanceWitness:
    """A verified certificate that image_after({source}, steps) misses avoided."""

    source: str
    avoided: str
    steps: int


def _shift(mask: int, d: int) -> int:
    return mask << d if d >= 0 else mask >> -d


class _Stepper:
    """The one-step set map of one edge orientation, on int bitmasks.

    groups[d] has bit v set iff v -> v + d is an edge.  unique[v] is the
    only out-neighbour of v, or None when v has out-degree != 1.
    """

    def __init__(self, groups: dict[int, int], unique: list[int | None]):
        self.unique = unique
        self._stay = groups.get(0, 0)
        self._up = [(m, d) for d, m in sorted(groups.items()) if d > 0]
        self._down = [(m, -d) for d, m in sorted(groups.items()) if d < 0]

    def __call__(self, mask: int) -> int:
        out = mask & self._stay
        for group, d in self._up:
            out |= (mask & group) << d
        for group, d in self._down:
            out |= (mask & group) >> d
        return out

    def iterate(self, mask: int, m: int) -> int:
        """The m-step image of mask.

        The image sequence is eventually periodic.  Each image is compared
        with the one at the last power of two; on a repeat the remaining
        steps are reduced modulo the period, so the cost is bounded by about
        twice the sequence's onset plus period, however large m is.
        """
        saved, saved_at = mask, 0
        for i in range(1, m + 1):
            mask = self(mask)
            if mask == saved:
                for _ in range((m - i) % (i - saved_at)):
                    mask = self(mask)
                return mask
            if i & (i - 1) == 0:
                saved, saved_at = mask, i
        return mask


class _Engine:
    """Per-digraph reachability state: forward and transposed steppers."""

    def __init__(self, g: Digraph):
        self.g = g
        self.n = n = g.vertex_count
        self.full_mask = (1 << n) - 1
        groups: dict[int, int] = {}
        out_degree, in_degree = [0] * n, [0] * n
        succ: list[int | None] = [None] * n
        pred: list[int | None] = [None] * n
        for source, target, _ in g.edges:
            d = target - source
            groups[d] = groups.get(d, 0) | 1 << source
            out_degree[source] += 1
            in_degree[target] += 1
            succ[source], pred[target] = target, source
        self.has_zero_out = 0 in out_degree
        self.has_zero_in = 0 in in_degree
        self.forward = _Stepper(
            groups, [s if k == 1 else None for s, k in zip(succ, out_degree)]
        )
        self.backward = _Stepper(
            {-d: _shift(m, d) for d, m in groups.items()},
            [p if k == 1 else None for p, k in zip(pred, in_degree)],
        )
        self._ladder: list[np.ndarray] | None = None

    # -- the reference route: boolean matrix powers ------------------------

    def power(self, t: int) -> np.ndarray:
        """A^(2^t) as a 0/1 float32 matrix (ladder entries are never mutated)."""
        if self._ladder is None:
            # A[i, j] = 1 iff edge j -> i; powers act on indicator columns.
            base = np.zeros((self.n, self.n), dtype=np.float32)
            for source, target, _ in self.g.edges:
                base[target, source] = 1.0
            self._ladder = [base]
        while len(self._ladder) <= t:
            top = self._ladder[-1]
            sq = top @ top
            np.minimum(sq, 1.0, out=sq)
            self._ladder.append(sq)
        return self._ladder[t]

    def image_by_powers(self, mask: int, m: int) -> int:
        if m == 0:
            return mask
        vec = np.array([mask >> i & 1 for i in range(self.n)], dtype=np.float32)
        t = 0
        while m:
            if m & 1:
                vec = self.power(t) @ vec
                np.minimum(vec, 1.0, out=vec)
            m >>= 1
            t += 1
        out = 0
        for i in np.nonzero(vec)[0]:
            out |= 1 << int(i)
        return out

    # -- masks <-> labels -------------------------------------------------

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lbl in labels:
            mask |= 1 << self.g.index(lbl)
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.g.labels[i] for i in range(self.n) if mask >> i & 1
        )


def _engine(g: Digraph) -> _Engine:
    # Stashed on the digraph instance (immutable, so the engine stays valid)
    # to avoid regrouping the edges on every call.
    eng = g.__dict__.get("_analysis_engine")
    if eng is None:
        eng = _Engine(g)
        g.__dict__["_analysis_engine"] = eng
    return eng


def _source_mask(eng: _Engine, sources: str | Iterable[str]) -> int:
    if isinstance(sources, str):
        return eng.mask_of([sources])
    return eng.mask_of(sources)


def _cover(
    step: _Stepper, mask: int, full: int, cutoff: int, watch: int = 0
) -> tuple[int, int | None]:
    """(m, last): the least m whose m-step image of mask is full, and the
    largest m' < m whose image misses every bit of watch (None if none).

    Needs every in-degree >= 1 along step, so that coverage is monotone.
    Raises NeverCoversError past the cutoff, or as soon as the image sequence
    repeats without covering (tested against the image at the last power of
    two, which finds any repetition within twice its onset plus period).
    """
    m, last, saved = 0, None, mask
    while mask != full:
        if not mask & watch:
            last = m
        if m >= cutoff:
            raise NeverCoversError(f"never covers within the cutoff {cutoff}")
        mask = step(mask)
        m += 1
        if mask == saved:
            raise NeverCoversError(
                f"the image sequence repeats at step {m} without covering"
            )
        if m & (m - 1) == 0:
            saved = mask
    return m, last


def _chain_exponent(step: _Stepper, n: int) -> int:
    """max over v of cov(v) along step, frontier stepping only where
    unique[v] is None and adding chain lengths, cov(v) = 1 + cov(unique[v]),
    elsewhere.  Needs n >= 2 and every in- and out-degree >= 1.
    """
    full, cutoff = (1 << n) - 1, wielandt_cutoff(n)
    cov: list[int | None] = [None] * n
    for v in range(n):
        if step.unique[v] is None:
            cov[v] = _cover(step, 1 << v, full, cutoff)[0]
    for start in range(n):
        path, v = [], start
        while cov[v] is None:
            cov[v] = -1  # on the current chain
            path.append(v)
            v = step.unique[v]
        if cov[v] == -1:
            raise NeverCoversError(
                "a cycle of out-degree-1 vertices maps each of its vertices "
                "to a single vertex forever"
            )
        c = cov[v]
        for u in reversed(path):
            c += 1
            cov[u] = c
    return max(cov)


def image_after(
    g: Digraph,
    sources: str | Iterable[str],
    m: int,
    method: str = "steps",
) -> frozenset[str]:
    """Vertices reachable from sources by directed walks of length exactly m.

    method selects the evaluation route: "steps" (the offset-group stepper
    every other function uses) or "powers" (boolean matrix powers with
    doubling, the dense reference route, which allocates V x V matrices).
    The two routes agree; exposing both keeps that checkable.
    """
    if m < 0:
        raise ValueError("step count must be nonnegative")
    eng = _engine(g)
    mask = _source_mask(eng, sources)
    if method == "steps":
        result = eng.forward.iterate(mask, m)
    elif method == "powers":
        result = eng.image_by_powers(mask, m)
    else:
        raise ValueError(f"unknown method {method!r}")
    return eng.labels_of(result)


def primitivity_exponent(g: Digraph) -> int:
    """Least m >= 1 with every m-step image equal to the whole vertex set.

    Equivalently the least m with A^m entrywise positive.  Raises
    NotPrimitiveError when no such power exists; the cutoff argument makes
    that verdict exact, never a timeout.  The exponent is computed on the
    forward and on the transposed edge groups, and RuntimeError is raised if
    the two disagree.
    """
    if g.vertex_count == 0:
        raise ValueError("digraph is empty")
    eng = _engine(g)
    n = eng.n
    if n == 1:
        if g.edges:
            return 1
        raise NotPrimitiveError("not primitive: single vertex without a loop")
    if eng.has_zero_out or eng.has_zero_in:
        raise NotPrimitiveError(
            "not primitive: a vertex of in- or out-degree zero keeps every "
            "power from being positive"
        )
    try:
        r = _chain_exponent(eng.forward, n)
    except NeverCoversError as exc:
        raise NotPrimitiveError(f"not primitive: {exc}") from None
    try:
        check = _chain_exponent(eng.backward, n)
    except NeverCoversError:
        check = None
    if check != r:
        raise RuntimeError(
            f"mixing exponent {r} failed re-verification: the transposed "
            f"digraph gives {check}"
        )
    return r


def _covering(eng: _Engine, source: str, watch: int = 0) -> tuple[int, int | None]:
    if eng.has_zero_in:
        raise ValueError(
            "covering time needs every in-degree >= 1, otherwise coverage "
            "is not monotone"
        )
    src = eng.mask_of([source])
    return _cover(eng.forward, src, eng.full_mask, wielandt_cutoff(eng.n), watch)


def covering_time(g: Digraph, source: str) -> int:
    """Least m with image_after({source}, m) equal to the whole vertex set.

    Requires every in-degree >= 1, which makes coverage monotone: once the
    image is everything it stays everything.  Reports "never covers" when the
    Wielandt cutoff passes, or the image sequence repeats, without coverage.
    """
    return _covering(_engine(g), source)[0]


def last_avoidance(g: Digraph, source: str, avoided: str) -> AvoidanceWitness:
    """The largest m below the covering time whose image misses `avoided`.

    m = 0 always qualifies when avoided != source, so the witness exists.  It
    is re-verified before being returned by stepping back instead: the
    m-step pre-image of `avoided` must miss `source`.
    """
    eng = _engine(g)
    avoided_bit = eng.mask_of([avoided])
    _, best = _covering(eng, source, avoided_bit)
    if best is None:
        raise ValueError(
            f"every image below the covering time contains {avoided!r} "
            f"(source {source!r})"
        )
    if eng.backward.iterate(avoided_bit, best) & eng.mask_of([source]):
        raise RuntimeError("avoidance witness failed re-verification")
    return AvoidanceWitness(source, avoided, best)


def avoidance_at(
    g: Digraph, source: str, targets: Iterable[str], m: int
) -> bool:
    """True iff the m-step image of the source misses every target."""
    if m < 1:
        raise ValueError("step count must be positive")
    eng = _engine(g)
    target_mask = eng.mask_of(targets)
    return not eng.forward.iterate(eng.mask_of([source]), m) & target_mask
