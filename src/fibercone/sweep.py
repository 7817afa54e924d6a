r"""
Family sweeps: end-to-end bound reports for (1, n^p, n^q)+ and (1, n, 1)+.

For each n the pipeline builds the integral class, its fiber invariants, and
its transition digraph, then computes the mixing exponent r (giving the
curve-complex lower bound 1/(r + 30|chi| - 10 punctures)) and an avoidance
witness m (giving the upper bounds 2/m and 4/m).  The witness step count is
chosen per regime and always re-verified against the digraph itself before
any bound is emitted:

  * q < p < 2q              source b_k, avoided {r_1},        m = n^{2q};
  * p < q (both subcases)   source b_k, avoided {r_1..r_j},   m = D n^q
                            with D = floor((n^q - 1)/(n^p + 1));
  * the (1, n, 1)+ family   source b_1, avoided {r_1},        m = n
                            (recorded as p = 1, q = 0), so the upper bound
                            is exactly 4/n;
  * uncovered regimes       exhaustive last-avoidance scan from b_k.

Covered (p, q) regimes additionally check the mixing exponent against its
closed-form cap k_pq + 2 n^p + 3 n^q; a violation marks the instance as
failed rather than shipping a wrong certificate.  Per-instance failures of
any kind are recorded in the report's error field and never abort the sweep;
a pool worker that dies costs only the instance it was running.

Instances are independent, so a sweep may fan out over a process pool;
results are keyed and sorted by n, making the output byte-identical for any
worker count.  CSV rows carry exact rationals as numerator/denominator
integer columns; JSON mirrors the full reports with sorted keys.
verify_exponent_law fits log10(bound) against log10(norm) and compares the
slope with the predicted decay exponent: r = 2q/p when q < p < 2q,
r = 2 - p/q when 2p <= q, and r = 1 for the (1, n, 1)+ family; other
families have no prediction and yield a non-passing verdict saying so.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction

from .bounds import (
    BoundReport,
    avoidance_upper,
    fit_exponent,
    gadre_tsai_lower,
    k_pq,
    mixing_exponent_cap,
    regime_of,
)
from .digraph_analysis import avoidance_at, last_avoidance, primitivity_exponent
from .magic_classes import PlusClass, fiber_invariants, plus_to_xyz
from .traintrack_digraph import magic_digraph

__all__ = [
    "SweepConfig",
    "FitVerdict",
    "run_sweep",
    "verify_exponent_law",
    "report_rows",
    "report_csv",
    "report_json",
    "report_emit",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "n",
    "p",
    "q",
    "x",
    "y",
    "z",
    "norm",
    "punctures",
    "genus",
    "mixing_r",
    "lower_lC_num",
    "lower_lC_den",
    "avoid_m",
    "upper_lC_num",
    "upper_lC_den",
    "regime",
)

DEFAULT_VERTEX_CAP = 5000
PQ_TOLERANCE = 0.2
N11_TOLERANCE = 0.1


@dataclass(frozen=True)
class SweepConfig:
    """One family, an inclusive n range, and execution/output settings.

    family is "pq" (needs p, q >= 1) or "n11" (the (1, n, 1)+ classes).  The
    vertex cap rejects configurations whose largest digraph would exceed
    ~5000 vertices unless allow_large is set.
    """

    family: str
    n_start: int
    n_stop: int
    p: int | None = None
    q: int | None = None
    csv_path: str | None = None
    json_path: str | None = None
    worker_count: int = 1
    vertex_cap: int = DEFAULT_VERTEX_CAP
    allow_large: bool = False

    def __post_init__(self) -> None:
        if self.family not in ("pq", "n11"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "pq":
            if self.p is None or self.q is None or self.p < 1 or self.q < 1:
                raise ValueError("the pq family needs p >= 1 and q >= 1")
        elif self.p is not None or self.q is not None:
            raise ValueError("the n11 family takes no p or q")
        if self.n_start < 2 or self.n_stop < self.n_start:
            raise ValueError("need 2 <= n_start <= n_stop")
        if self.worker_count < 1:
            raise ValueError("worker count must be positive")
        if self.vertex_cap < 1:
            raise ValueError("vertex cap must be positive")

    def exponents(self) -> tuple[int, int]:
        """(p, q) with the (1, n, 1)+ family encoded as (1, 0)."""
        if self.family == "n11":
            return (1, 0)
        assert self.p is not None and self.q is not None
        return (self.p, self.q)

    def largest_vertex_count(self) -> int:
        p, q = self.exponents()
        n = self.n_stop
        return 1 + n**p + 2 * n**q


@dataclass(frozen=True)
class FitVerdict:
    """Outcome of fitting a power law to one family's bounds.

    predicted_exponent is the exact decay rate r (the model is
    bound ~ norm^(-r)), or None when the family has no prediction; passed
    requires |fitted_slope - (-r)| <= tolerance.  reason explains verdicts
    that are not plain passes.
    """

    predicted_exponent: Fraction | None
    fitted_slope: float
    tolerance: float
    passed: bool
    which: str
    sample_count: int
    reason: str = "ok"


def _class_fields(p: int, q: int, n: int) -> dict:
    """The report fields that describe the class itself, outside the pipeline."""
    cls = plus_to_xyz(PlusClass(1, n**p, n**q))
    inv = fiber_invariants(cls)
    return dict(
        integral_class=cls,
        norm=inv.norm,
        punctures=inv.boundary_count,
        genus=inv.genus,
        regime=regime_of(p, q),
        n=n,
        p=p,
        q=q,
    )


def _instance_report(p: int, q: int, n: int) -> BoundReport:
    """Full pipeline for one class; failures land in the error field."""
    j, k = n**p, n**q
    base = _class_fields(p, q, n)
    regime = base["regime"]
    try:
        g = magic_digraph(j, k)
        r = primitivity_exponent(g)
        if regime != "uncovered" and r > mixing_exponent_cap(p, q, n):
            raise RuntimeError(
                f"mixing exponent {r} exceeds its cap "
                f"{mixing_exponent_cap(p, q, n)} for (n,p,q)=({n},{p},{q})"
            )
        lower, weak = gadre_tsai_lower(r, base["norm"], base["punctures"])
        source, targets, m = _avoidance_witness(g, p, q, n)
        if not avoidance_at(g, source, targets, m):
            raise RuntimeError(
                f"avoidance witness m={m} from {source} failed verification "
                f"for (n,p,q)=({n},{p},{q})"
            )
        upper_lac, upper_lc = avoidance_upper(m)
        return BoundReport(
            mixing_r=r,
            lower_lC=lower,
            lower_lC_weak=weak,
            avoidance_m=m,
            upper_lAC=upper_lac,
            upper_lC=upper_lc,
            **base,
        )
    except Exception as exc:  # noqa: BLE001 -- per-instance capture is the contract
        return BoundReport(error=f"{type(exc).__name__}: {exc}", **base)


def _avoidance_witness(g, p: int, q: int, n: int) -> tuple[str, list[str], int]:
    """(source, avoided targets, step count) for the family's regime."""
    j, k = n**p, n**q
    if (p, q) == (1, 0):
        return ("b_1", ["r_1"], n)
    regime = regime_of(p, q)
    if regime == "QltPlt2Q":
        return (f"b_{k}", ["r_1"], n ** (2 * q))
    if regime in ("PltQle2P", "TwoPleQ"):
        d = (k - 1) // (j + 1)
        return (f"b_{k}", [f"r_{i}" for i in range(1, j + 1)], d * k)
    witness = last_avoidance(g, f"b_{k}", "r_1")
    if witness.steps < 1:
        raise RuntimeError(
            f"no positive-step avoidance exists for (n,p,q)=({n},{p},{q})"
        )
    return (f"b_{k}", ["r_1"], witness.steps)


def _instance_worker(args: tuple[int, int, int]) -> BoundReport:
    return _instance_report(*args)


def _pooled_reports(
    jobs: list[tuple[int, int, int]], worker_count: int
) -> list[BoundReport]:
    """Reports for jobs from a process pool, in job order.

    One future per job keeps every report that finished.  A worker that
    dies breaks the pool and fails every unfinished future, so each
    unfinished job is rerun alone in a fresh one-worker pool; a job that
    breaks even that pool is reported failed with the BrokenProcessPool.
    """
    reports: dict[int, BoundReport] = {}
    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        futures = [pool.submit(_instance_worker, job) for job in jobs]
        for i, future in enumerate(futures):
            try:
                reports[i] = future.result()
            except BrokenProcessPool:
                pass
    for i, job in enumerate(jobs):
        if i in reports:
            continue
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                reports[i] = pool.submit(_instance_worker, job).result()
            except BrokenProcessPool as exc:
                reports[i] = BoundReport(
                    error=f"BrokenProcessPool: {exc}", **_class_fields(*job)
                )
    return [reports[i] for i in range(len(jobs))]


def run_sweep(cfg: SweepConfig) -> list[BoundReport]:
    """Reports for every n in the range, in increasing n order.

    The largest digraph in the range is size-checked up front; beyond the
    cap the sweep refuses to start unless allow_large is set.  Results are
    independent of worker_count.
    """
    if cfg.largest_vertex_count() > cfg.vertex_cap and not cfg.allow_large:
        raise ValueError(
            f"largest digraph has {cfg.largest_vertex_count()} vertices, over "
            f"the cap {cfg.vertex_cap}; pass allow_large to run anyway"
        )
    p, q = cfg.exponents()
    jobs = [(p, q, n) for n in range(cfg.n_start, cfg.n_stop + 1)]
    if cfg.worker_count == 1 or len(jobs) == 1:
        reports = [_instance_worker(job) for job in jobs]
    else:
        reports = _pooled_reports(jobs, cfg.worker_count)
    reports.sort(key=lambda rep: rep.n if rep.n is not None else -1)
    return reports


def verify_exponent_law(
    reports: list[BoundReport],
    which: str = "upper",
    tolerance: float | None = None,
) -> FitVerdict:
    """Fit the chosen bound against the norm and compare with the theory.

    which selects "upper" (the 4/m avoidance bound) or "lower" (the mixing
    bound).  All reports must come from one family; at least four clean
    samples are required.  Families outside the predicted regimes produce a
    non-passing "no prediction" verdict carrying the fitted slope.
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    if not reports:
        raise ValueError("no reports to fit")
    pqs = {(rep.p, rep.q) for rep in reports}
    if len(pqs) != 1 or None in next(iter(pqs)):
        raise ValueError("reports must come from a single (p, q) family")
    p, q = next(iter(pqs))
    samples = [
        (rep.norm, rep.lower_lC if which == "lower" else rep.upper_lC)
        for rep in reports
        if rep.error is None
        and (rep.lower_lC if which == "lower" else rep.upper_lC) is not None
    ]
    if len(samples) < 4:
        raise ValueError(
            f"need at least 4 clean reports to fit, got {len(samples)}"
        )
    if tolerance is None:
        tolerance = N11_TOLERANCE if (p, q) == (1, 0) else PQ_TOLERANCE
    slope, _, _ = fit_exponent(samples)
    predicted = _predicted_exponent(p, q)
    if predicted is None:
        return FitVerdict(
            predicted_exponent=None,
            fitted_slope=slope,
            tolerance=tolerance,
            passed=False,
            which=which,
            sample_count=len(samples),
            reason=f"no prediction for (p, q) = ({p}, {q})",
        )
    passed = abs(slope - float(-predicted)) <= tolerance
    return FitVerdict(
        predicted_exponent=predicted,
        fitted_slope=slope,
        tolerance=tolerance,
        passed=passed,
        which=which,
        sample_count=len(samples),
        reason="ok" if passed else "slope outside tolerance",
    )


def _predicted_exponent(p: int, q: int) -> Fraction | None:
    if (p, q) == (1, 0):
        return Fraction(1)
    if q < p < 2 * q:
        return Fraction(2 * q, p)
    if 2 * p <= q:
        return 2 - Fraction(p, q)
    return None


def report_rows(reports: list[BoundReport]) -> list[list[str]]:
    """CSV cell values (strings; empty for unavailable fields)."""

    def cell(value) -> str:
        return "" if value is None else str(value)

    rows = []
    for rep in reports:
        x, y, z = rep.integral_class.coords()
        rows.append(
            [
                cell(rep.n),
                cell(rep.p),
                cell(rep.q),
                str(x),
                str(y),
                str(z),
                str(rep.norm),
                str(rep.punctures),
                str(rep.genus),
                cell(rep.mixing_r),
                cell(rep.lower_lC.numerator if rep.lower_lC is not None else None),
                cell(rep.lower_lC.denominator if rep.lower_lC is not None else None),
                cell(rep.avoidance_m),
                cell(rep.upper_lC.numerator if rep.upper_lC is not None else None),
                cell(rep.upper_lC.denominator if rep.upper_lC is not None else None),
                rep.regime,
            ]
        )
    return rows


def report_csv(reports: list[BoundReport]) -> str:
    """The sweep as CSV text: fixed column order, exact integer cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(report_rows(reports))
    return buf.getvalue()


def _fraction_pair(value: Fraction | None) -> list[int] | None:
    if value is None:
        return None
    return [value.numerator, value.denominator]


def report_json(reports: list[BoundReport]) -> str:
    """The sweep as JSON text: sorted keys, rationals as [num, den]."""
    records = []
    for rep in reports:
        x, y, z = rep.integral_class.coords()
        records.append(
            {
                "n": rep.n,
                "p": rep.p,
                "q": rep.q,
                "xyz": [x, y, z],
                "norm": rep.norm,
                "punctures": rep.punctures,
                "genus": rep.genus,
                "regime": rep.regime,
                "mixing_r": rep.mixing_r,
                "lower_lC": _fraction_pair(rep.lower_lC),
                "lower_lC_weak": _fraction_pair(rep.lower_lC_weak),
                "avoid_m": rep.avoidance_m,
                "upper_lAC": _fraction_pair(rep.upper_lAC),
                "upper_lC": _fraction_pair(rep.upper_lC),
                "error": rep.error,
            }
        )
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def report_emit(
    reports: list[BoundReport],
    csv_path: str | None = None,
    json_path: str | None = None,
) -> list[str]:
    """Write the requested flat files; returns the paths written.

    Every report is re-checked for the lower <= upper sandwich before
    anything is written; I/O failures are re-raised with the path attached.
    """
    for rep in reports:
        if (
            rep.lower_lC is not None
            and rep.upper_lC is not None
            and rep.lower_lC > rep.upper_lC
        ):
            raise RuntimeError(
                f"sandwich violation at emission for n={rep.n}: "
                f"{rep.lower_lC} > {rep.upper_lC}"
            )
    written = []
    for path, text in (
        (csv_path, report_csv(reports)),
        (json_path, report_json(reports)),
    ):
        if path is None:
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
        written.append(path)
    return written

