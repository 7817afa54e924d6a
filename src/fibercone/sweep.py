r"""
Family sweeps: end-to-end bound reports for (1, n^p, n^q)+ and (1, n, 1)+.

class_report is the one class-to-bounds pipeline, shared by every sweep
instance and by `fibercone bounds class`.  It builds the integral class, its
fiber invariants, and its transition digraph, then computes the mixing
exponent r (giving the curve-complex lower bound
1/(r + 30|chi| - 10 punctures)) and an avoidance witness m (giving the upper
bounds 2/m and 4/m).  The witness step count is chosen per regime and always
re-verified against the digraph itself before any bound is emitted:

  * q < p < 2q              source b_k, avoided {r_1},        m = n^{2q};
  * p < q (both subcases)   source b_k, avoided {r_1..r_j},   m = D n^q
                            with D = floor((n^q - 1)/(n^p + 1));
  * the (1, n, 1)+ family   source b_1, avoided {r_1},        m = n
                            (recorded as p = 1, q = 0), so the upper bound
                            is exactly 4/n;
  * uncovered regimes and   last avoidance of r_1 from b_k, read off
    standalone classes      the residue tables.

Covered (p, q) regimes additionally check the mixing exponent against its
closed-form cap k_pq + 2 n^p + 3 n^q; a violation marks the instance as
failed rather than shipping a wrong certificate.  Per-instance failures of
any kind are recorded in the report's error field and never abort the sweep;
a pool worker that dies costs only the instance it was running.

Instances are independent, so a sweep may fan out over a process pool.
iter_sweep yields the reports in increasing n, each as soon as every lower
n has finished, and run_sweep lists them; the reports are the same for any
worker count.  report_record flattens a report once; ReportWriter, the one
record writer, streams reports into a CSV document (exact rationals as
numerator/denominator integer columns) or a JSON array (json_text, the one
JSON encoder, also behind the CLI, writes them as [num, den] with sorted
keys), so the files are byte-identical for any worker count.  report_emit
streams a sweep into PATH.part files next to the requested paths and moves
them onto those paths after the last report, so a sweep killed partway
leaves every finished instance in the .part files and the paths untouched.
verify_exponent_law fits log10(bound) against log10(norm) and compares the
slope with the predicted decay exponent: r = 2q/p when q < p < 2q,
r = 2 - p/q when 2p <= q, and r = 1 for the (1, n, 1)+ family; other
families have no prediction and yield a non-passing verdict saying so.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, TextIO

from .bounds import (
    BoundReport,
    avoidance_upper,
    fit_exponent,
    gadre_tsai_lower,
    mixing_exponent_cap,
    regime_of,
)
from .digraph_analysis import avoidance_at, last_avoidance, primitivity_exponent
from .magic_classes import PlusClass, fiber_invariants, plus_to_xyz
from .traintrack_digraph import magic_digraph

__all__ = [
    "SweepConfig",
    "FitVerdict",
    "class_report",
    "iter_sweep",
    "run_sweep",
    "verify_exponent_law",
    "report_record",
    "ReportWriter",
    "report_csv",
    "report_json",
    "report_emit",
    "json_text",
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
    """One family, an inclusive n range, and execution settings.

    family is "pq" (needs p, q >= 1) or "n11" (the (1, n, 1)+ classes).  The
    vertex cap rejects configurations whose largest digraph would exceed
    ~5000 vertices unless allow_large is set.  The integer settings must be
    ints (not bools or floats) and allow_large a bool, else ValueError.
    """

    family: str
    n_start: int
    n_stop: int
    p: int | None = None
    q: int | None = None
    worker_count: int = 1
    vertex_cap: int = DEFAULT_VERTEX_CAP
    allow_large: bool = False

    def __post_init__(self) -> None:
        for name in ("n_start", "n_stop", "p", "q", "worker_count", "vertex_cap"):
            value = getattr(self, name)
            if type(value) is not int and not (name in ("p", "q") and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if type(self.allow_large) is not bool:
            raise ValueError(f"allow_large must be a bool, got {self.allow_large!r}")
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


def _class_fields(plus: PlusClass, family: tuple[int, int, int] | None) -> dict:
    """The report fields that describe the class itself, outside the pipeline."""
    cls = plus_to_xyz(plus)
    inv = fiber_invariants(cls)
    p, q, n = family if family is not None else (None, None, None)
    return dict(
        integral_class=cls,
        norm=inv.norm,
        punctures=inv.boundary_count,
        genus=inv.genus,
        regime=None if family is None else regime_of(p, q),
        n=n,
        p=p,
        q=q,
    )


def class_report(
    plus: PlusClass, family: tuple[int, int, int] | None = None
) -> BoundReport:
    """Bounds on ell_C for one class; failures in the pipeline land in the
    error field.

    family = (p, q, n) marks plus as the sweep instance (1, n^p, n^q)+ (with
    (1, n, 1)+ as p = 1, q = 0): the witness is then the regime's closed
    form and covered regimes check r against its cap.  A standalone class
    (family None, regime None) takes the last avoidance of r_1 from b_k.
    Every witness is re-verified against the digraph before it is used.
    A class outside the open fibered cone, or not primitive, has no
    invariants and so no report: it raises ValueError before the pipeline.
    """
    if family is not None and plus != _family_class(*family):
        raise ValueError(f"{plus} is not the (p, q, n) = {family} instance")
    base = _class_fields(plus, family)
    try:
        if plus.i != 1:
            raise ValueError("digraph analysis covers classes (1, j, k)+ only")
        g = magic_digraph(plus.j, plus.k)
        r = primitivity_exponent(g)
        if base["regime"] not in (None, "uncovered"):
            cap = mixing_exponent_cap(*family)
            if r > cap:
                raise RuntimeError(f"mixing exponent {r} exceeds its cap {cap}")
        lower, weak = gadre_tsai_lower(r, base["norm"], base["punctures"])
        source, targets, m = _avoidance_witness(g, plus.k, family)
        if not avoidance_at(g, source, targets, m):
            raise RuntimeError(
                f"avoidance witness m={m} from {source} failed verification"
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


def _family_class(p: int, q: int, n: int) -> PlusClass:
    return PlusClass(1, n**p, n**q)


def _avoidance_witness(
    g, k: int, family: tuple[int, int, int] | None
) -> tuple[str, list[str], int]:
    """(source, avoided targets, step count): closed form where one is known."""
    if family is not None:
        p, q, n = family
        if (p, q) == (1, 0):
            return ("b_1", ["r_1"], n)
        regime = regime_of(p, q)
        if regime == "QltPlt2Q":
            return (f"b_{k}", ["r_1"], n ** (2 * q))
        if regime in ("PltQle2P", "TwoPleQ"):
            j = n**p
            d = (k - 1) // (j + 1)
            return (f"b_{k}", [f"r_{i}" for i in range(1, j + 1)], d * k)
    witness = last_avoidance(g, f"b_{k}", "r_1")
    if witness.steps < 1:
        raise RuntimeError(f"no positive-step avoidance of r_1 from b_{k}")
    return (f"b_{k}", ["r_1"], witness.steps)


def _instance_report(p: int, q: int, n: int) -> BoundReport:
    """The sweep instance (1, n^p, n^q)+; pool workers reach it by name."""
    return class_report(_family_class(p, q, n), (p, q, n))


def _instance_worker(args: tuple[int, int, int]) -> BoundReport:
    return _instance_report(*args)


def _pooled_reports(
    jobs: list[tuple[int, int, int]], worker_count: int
) -> Iterator[BoundReport]:
    """Reports for jobs from a process pool, yielded in job order.

    The pool forks at most one worker per job and its futures are read in
    job order, so each report is yielded once every earlier job's is.  A
    worker that dies breaks the pool and fails every unfinished future, so
    each unfinished job is rerun alone in a fresh one-worker pool when its
    turn comes; a job that breaks even that pool is reported failed with
    the BrokenProcessPool.  Closing the generator early cancels the jobs
    not yet started.  concurrent.futures is imported here, so only a sweep
    that starts a pool loads multiprocessing.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=min(worker_count, len(jobs))) as pool:
        futures = [pool.submit(_instance_worker, job) for job in jobs]
        try:
            for job, future in zip(jobs, futures):
                try:
                    report = future.result()
                except BrokenProcessPool:
                    with ProcessPoolExecutor(max_workers=1) as alone:
                        try:
                            report = alone.submit(_instance_worker, job).result()
                        except BrokenProcessPool as exc:
                            report = BoundReport(
                                error=f"BrokenProcessPool: {exc}",
                                **_class_fields(_family_class(*job), job),
                            )
                yield report
        finally:
            for future in futures:
                future.cancel()


def iter_sweep(cfg: SweepConfig) -> Iterator[BoundReport]:
    """Reports for every n in the range, yielded in increasing n order.

    Each report is yielded as soon as it and every lower n have finished.
    The largest digraph in the range is size-checked at the call, before
    the first report is asked for; beyond the cap the sweep refuses to
    start unless allow_large is set.  Results are independent of
    worker_count.
    """
    if cfg.largest_vertex_count() > cfg.vertex_cap and not cfg.allow_large:
        raise ValueError(
            f"largest digraph has {cfg.largest_vertex_count()} vertices, over "
            f"the cap {cfg.vertex_cap}; pass allow_large (--allow-large) to run anyway"
        )
    p, q = cfg.exponents()
    jobs = [(p, q, n) for n in range(cfg.n_start, cfg.n_stop + 1)]
    if cfg.worker_count == 1 or len(jobs) == 1:
        return map(_instance_worker, jobs)
    return _pooled_reports(jobs, cfg.worker_count)


def run_sweep(cfg: SweepConfig) -> list[BoundReport]:
    """iter_sweep's reports as a list, in increasing n order."""
    return list(iter_sweep(cfg))


def check_tolerance(tolerance: float | None) -> None:
    """Raises ValueError unless tolerance is None or a finite real >= 0."""
    if tolerance is not None and (
        isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real)
        or not 0 <= tolerance < math.inf
    ):
        raise ValueError(f"tolerance must be a finite number >= 0, not {tolerance!r}")


def verify_exponent_law(
    reports: list[BoundReport],
    which: str = "upper",
    tolerance: float | None = None,
) -> FitVerdict:
    """Fit the chosen bound against the norm and compare with the theory.

    which selects "upper" (the 4/m avoidance bound) or "lower" (the mixing
    bound).  All reports must come from one family; at least four clean
    samples are required.  Families outside the predicted regimes produce a
    non-passing "no prediction" verdict carrying the fitted slope.  tolerance
    is None (the family's default) or a finite real >= 0, not a bool.
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    check_tolerance(tolerance)
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
        passed, reason = False, f"no prediction for (p, q) = ({p}, {q})"
    else:
        passed = abs(slope - float(-predicted)) <= tolerance
        reason = "ok" if passed else "slope outside tolerance"
    return FitVerdict(
        predicted_exponent=predicted,
        fitted_slope=slope,
        tolerance=tolerance,
        passed=passed,
        which=which,
        sample_count=len(samples),
        reason=reason,
    )


def _predicted_exponent(p: int, q: int) -> Fraction | None:
    if (p, q) == (1, 0):
        return Fraction(1)
    if q < p < 2 * q:
        return Fraction(2 * q, p)
    if 2 * p <= q:
        return 2 - Fraction(p, q)
    return None


def report_record(rep: BoundReport) -> dict:
    """The report as one flat record, keyed as in the JSON output.

    Rationals stay Fractions here; json_text writes them as [num, den].
    """
    return {
        "n": rep.n,
        "p": rep.p,
        "q": rep.q,
        "xyz": list(rep.integral_class.coords()),
        "norm": rep.norm,
        "punctures": rep.punctures,
        "genus": rep.genus,
        "regime": rep.regime,
        "mixing_r": rep.mixing_r,
        "lower_lC": rep.lower_lC,
        "lower_lC_weak": rep.lower_lC_weak,
        "avoid_m": rep.avoidance_m,
        "upper_lAC": rep.upper_lAC,
        "upper_lC": rep.upper_lC,
        "error": rep.error,
    }


def _csv_cell(record: dict, column: str) -> str:
    """A CSV column is a record key, one of x/y/z, or a rational's _num/_den."""
    if column in ("x", "y", "z"):
        value = record["xyz"]["xyz".index(column)]
    elif column.endswith(("_num", "_den")):
        value = record[column[:-4]]
        if value is not None:
            value = value.numerator if column.endswith("_num") else value.denominator
    else:
        value = record[column]
    return "" if value is None else str(value)


def _encode_fraction(value: object) -> list[int]:
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    raise TypeError(f"cannot serialize {type(value).__name__}")


# the types that JSON writes as one token, and the C encoder writing a list
# of them with a NUL between each two, which no encoded leaf holds
_LEAVES = frozenset((str, int, float, bool, type(None)))
_leaf_texts = json.JSONEncoder(separators=("\0", ":")).encode


def json_text(obj: object) -> str:
    """obj as JSON text: sorted keys, two-space indent, rationals as [num, den].

    json.dumps with an indent runs CPython's pure-Python encoder.  A flat
    record, a dict of str keys to leaves (str, int, float, bool, None),
    Fractions or lists of leaves, has its keys and leaves written by the C
    encoder in one call instead, and the indented text is laid out around
    them; anything else goes through indent=2.  The text is the same.
    """
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        leaves, parts = [], []
        for key in sorted(obj):
            value = obj[key]
            if type(value) is Fraction:
                value = (value.numerator, value.denominator)
            if type(value) in _LEAVES:
                leaves += (key, value)
                parts.append("  %s: %s")
            elif type(value) in (list, tuple) and _LEAVES.issuperset(map(type, value)):
                leaves.append(key)
                leaves += value
                items = ",\n    ".join(["%s"] * len(value))
                parts.append(f"  %s: [\n    {items}\n  ]" if value else "  %s: []")
            else:
                break
        else:
            texts = _leaf_texts(leaves)[1:-1].split("\0")
            return ("{\n" + ",\n".join(parts) + "\n}") % tuple(texts)
    return json.dumps(obj, sort_keys=True, indent=2, default=_encode_fraction)


def _check_sandwich(rep: BoundReport) -> None:
    if (
        rep.lower_lC is not None
        and rep.upper_lC is not None
        and rep.lower_lC > rep.upper_lC
    ):
        raise RuntimeError(
            f"sandwich violation at emission for n={rep.n}: "
            f"{rep.lower_lC} > {rep.upper_lC}"
        )


class ReportWriter:
    """One sweep document, "csv" or "json", written report by report.

    The CSV header goes out at once.  write() re-checks the report's
    lower <= upper sandwich, appends its CSV row or JSON record and flushes
    the file, so the file holds every report written so far; close() ends
    the JSON array.  The JSON text equals json_text of the list of records
    plus a newline: each record's json_text indented two spaces, the
    records joined by ",\n" inside "[\n" ... "\n]\n", or "[]\n" when
    there are none.
    """

    def __init__(self, file: TextIO, kind: str) -> None:
        if kind not in ("csv", "json"):
            raise ValueError(f"unknown report format {kind!r}")
        self._file = file
        self._rows = csv.writer(file, lineterminator="\n") if kind == "csv" else None
        self._opener = "[\n"
        if self._rows is not None:
            self._rows.writerow(CSV_COLUMNS)
        file.flush()

    def write(self, rep: BoundReport) -> None:
        _check_sandwich(rep)
        rec = report_record(rep)
        if self._rows is not None:
            self._rows.writerow([_csv_cell(rec, column) for column in CSV_COLUMNS])
        else:
            self._file.write(self._opener + "  " + json_text(rec).replace("\n", "\n  "))
            self._opener = ",\n"
        self._file.flush()

    def close(self) -> None:
        if self._rows is None:
            self._file.write("[]\n" if self._opener == "[\n" else "\n]\n")
        self._file.flush()


def _document(reports: Iterable[BoundReport], kind: str) -> str:
    buf = io.StringIO()
    writer = ReportWriter(buf, kind)
    for rep in reports:
        writer.write(rep)
    writer.close()
    return buf.getvalue()


def report_csv(reports: Iterable[BoundReport]) -> str:
    """The sweep as CSV text: fixed column order, exact integer cells."""
    return _document(reports, "csv")


def report_json(reports: Iterable[BoundReport]) -> str:
    """The sweep as JSON text: one report_record per report."""
    return _document(reports, "json")


def _named(path: str, step, *args):
    """step(*args), with an OSError re-raised as one that names path."""
    try:
        return step(*args)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _refuse_paths(paths: list[str]) -> None:
    """Refuse two equal paths, or a path that is a directory; creates nothing."""
    keys = [os.path.abspath(path) for path in paths]
    for path, key in zip(paths, keys):
        if keys.count(key) > 1:
            raise ValueError(f"two files cannot share the path {path}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: Is a directory")


@contextlib.contextmanager
def _write_parts(paths: list[str]) -> Iterator[list[TextIO]]:
    """Files open on PATH.part, next to each path, moved onto the paths when
    the block ends; run each write through _named with its path.  An
    OSError or RuntimeError removes every .part file, leaving the paths as
    they were; any other exception (Ctrl-C, say) keeps them, closed."""
    _refuse_paths(paths)
    files: list[TextIO] = []
    try:
        for path in paths:
            files.append(_named(path, open, path + ".part", "w", -1, "utf-8"))
        yield files
        for path, file in zip(paths, files):
            _named(path, file.close)
        for path in paths:
            _named(path, os.replace, path + ".part", path)
    except BaseException as exc:
        for path, file in zip(paths, files):
            with contextlib.suppress(OSError):
                file.close()
            if isinstance(exc, (OSError, RuntimeError)):
                with contextlib.suppress(OSError):
                    os.remove(path + ".part")
        raise


def report_emit(
    reports: Iterable[BoundReport],
    csv_path: str | None = None,
    json_path: str | None = None,
) -> list[str]:
    """Stream reports into the requested flat files; returns the paths written.

    reports may be any iterable in increasing n, such as iter_sweep's
    generator.  Each report is re-checked for the lower <= upper sandwich
    before its row is written, and written to PATH.part (next to PATH) as
    it arrives; after the last report both .part files are moved onto
    their paths, so a path only ever holds a whole document.  Equal paths,
    or a path that is a directory, are refused before any file is created.
    A failed re-check or an OSError, "cannot write PATH: reason", removes
    the .part files; any other error (Ctrl-C, or one raised by reports)
    keeps them, holding every report written before it.  The files are
    byte-identical to report_csv and report_json of the same reports, for
    any worker count.
    """
    targets = [
        (path, kind)
        for path, kind in ((csv_path, "csv"), (json_path, "json"))
        if path is not None
    ]
    if not targets:
        for rep in reports:
            _check_sandwich(rep)
        return []
    with _write_parts([path for path, _ in targets]) as files:
        writers = [
            (path, _named(path, ReportWriter, file, kind))
            for (path, kind), file in zip(targets, files)
        ]
        for rep in reports:
            for path, writer in writers:
                _named(path, writer.write, rep)
        for path, writer in writers:
            _named(path, writer.close)
    return [path for path, _ in targets]
