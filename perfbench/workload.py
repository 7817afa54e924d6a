"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N
        [--mode plain|trace|memory|setup] [--smoke] [--t0 MONOTONIC]

The pass makes its inputs from the seed, runs the workload through
fibercone's public functions inside the timed region, then checks every
output outside it.  The last line of standard output is one JSON object:
the measurements, the number of instances attempted and failed, and the
reasons for any failure.  ``--t0`` is the parent's ``time.monotonic()``
just before it started this process, so that ``setup_s`` covers interpreter
start, imports and input generation; ``--mode setup`` stops there.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

T_START = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# The sweeps are fixed ranges; the seed changes none of their inputs.
SWEEPS = {
    "sweep_pq12": dict(family="pq", p=1, q=2, n_start=4, n_stop=30,
                       worker_count=1, pin="pq12"),
    "sweep_n11": dict(family="n11", n_start=2, n_stop=400,
                      worker_count=1, pin="n11"),
    "sweep_n11_w2": dict(family="n11", n_start=2, n_stop=400,
                         worker_count=2, pin="n11"),
}
SMOKE_SWEEPS = {
    "sweep_pq12": dict(n_stop=8),
    "sweep_n11": dict(n_stop=30),
    "sweep_n11_w2": dict(n_stop=30),
}

# class_bounds: three (1,n,n)+ classes, each with n drawn by the seed from
# a narrow band so that every seed costs about the same, and three fixed
# (1,n,n^2)+ classes, whose n^2 grid is too coarse to draw from without
# changing the cost by a quarter per step.
NN_BANDS = (400, 256, 200)
NN2_FIXED = (25, 20, 16)
SMOKE_NN_BANDS = (30, 20)
SMOKE_NN2_FIXED = (5, 4)
BAND_HALF_WIDTH = 2

# aux_certify: the magic cone x >= 0, y >= 0, x >= z, y >= z.
MAGIC_CONE_ROWS = ((1, 0, 0), (0, 1, 0), (1, 0, -1), (0, 1, -1))
AUX = dict(hilbert_bound=16, points=8000, coord=20, graphs=200)
SMOKE_AUX = dict(hilbert_bound=8, points=200, coord=8, graphs=20)
GRAPH_POOL = 1000
COCHAIN_BOUND = 4


def pool_graph(i: int) -> tuple[int, int]:
    """(vertex count, graph seed) of entry i of the pinned graph pool."""
    return 8 + 2 * (i % 12), i


def _import_fibercone():
    """Import fibercone from the checkout's own sources, never elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import fibercone

    if Path(fibercone.__file__).resolve().parent != ROOT / "src" / "fibercone":
        raise ImportError(f"fibercone imported from {fibercone.__file__}")


# ------------------------------------------------------------ inputs


def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    if workload in SWEEPS:
        spec = dict(SWEEPS[workload], **(SMOKE_SWEEPS[workload] if smoke else {}))
        pin = spec.pop("pin") + ("_smoke" if smoke else "")
        from fibercone import sweep

        return {"config": sweep.SweepConfig(**spec), "pin": pin}
    if workload == "class_bounds":
        bands, fixed = (SMOKE_NN_BANDS, SMOKE_NN2_FIXED) if smoke else (
            NN_BANDS, NN2_FIXED)
        classes = [
            (1, n, n)
            for n in (rng.randint(c - BAND_HALF_WIDTH, c + BAND_HALF_WIDTH)
                      for c in bands)
        ] + [(1, n, n * n) for n in fixed]
        return {"classes": classes}
    if workload == "aux_certify":
        from fibercone import cone_monoid, zfold_cover

        size = SMOKE_AUX if smoke else AUX
        m = size["coord"]
        points = []
        for _ in range(size["points"]):
            x, y = rng.randint(1, m), rng.randint(1, m)
            points.append((x, y, rng.randint(-m, min(x, y) - 1)))
        graphs = []
        for i in rng.sample(range(GRAPH_POOL), size["graphs"]):
            vertices, graph_seed = pool_graph(i)
            graphs.append((i, zfold_cover.random_cubic_cochain(
                vertices, COCHAIN_BOUND, graph_seed)))
        return {
            "cone": cone_monoid.ConeSpec(MAGIC_CONE_ROWS),
            "hilbert_bound": size["hilbert_bound"],
            "points": points,
            "graphs": graphs,
        }
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ timed work


def _attempt(fn, *args):
    """The call's result, or the exception it raised: a failed instance."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- counted by the checks
        return exc


def run_workload(workload: str, inputs: dict, tmp: str) -> dict:
    """The timed region: every instance computed and emitted."""
    if workload in SWEEPS:
        from fibercone import sweep

        reports = sweep.run_sweep(inputs["config"])
        verdict = sweep.verify_exponent_law(reports)
        csv_path, json_path = (os.path.join(tmp, "sweep.csv"),
                               os.path.join(tmp, "sweep.json"))
        sweep.report_emit(reports, csv_path, json_path)
        return {"reports": reports, "verdict": verdict,
                "files": (csv_path, json_path)}
    if workload == "class_bounds":
        from fibercone import cli

        outputs = []
        for i, j, k in inputs["classes"]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = _attempt(cli.main,
                                ["bounds", "class", "--plus", f"{i},{j},{k}"])
            outputs.append((code, buf.getvalue()))
        return {"outputs": outputs}
    if workload == "aux_certify":
        from fibercone import cone_monoid, zfold_cover

        data = cone_monoid.hilbert_data(inputs["cone"], inputs["hilbert_bound"])
        decomps = [_attempt(cone_monoid.decompose_interior, p, data)
                   for p in inputs["points"]]
        splits = [_attempt(cone_monoid.arithmetic_split, p, data,
                           cone_monoid.thurston_form)
                  for p in inputs["points"]]
        loops = [_attempt(zfold_cover.find_short_loop, g)
                 for _, g in inputs["graphs"]]
        return {"data": data, "decomps": decomps, "splits": splits,
                "loops": loops}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ checks


@functools.cache
def pins() -> dict:
    """Outputs recorded by pin.py at the commit that added the benchmark."""
    return json.loads(PINS_PATH.read_text())


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_sweep(inputs: dict, out: dict) -> tuple[int, int, list[str]]:
    """Digests and verdict against the pins; per-instance error fields."""
    pin = pins()["sweeps"][inputs["pin"]]
    reports = out["reports"]
    problems = [f"n={rep.n}: {rep.error}" for rep in reports if rep.error]
    failed = len(problems)
    for kind, path in zip(("csv", "json"), out["files"]):
        if _digest(path) != pin[kind]:
            problems.append(f"{kind} digest differs from the pinned one")
    if out["verdict"].passed != pin["verdict_passed"]:
        problems.append(f"exponent-law verdict {out['verdict']} is not the "
                        f"pinned passed={pin['verdict_passed']}")
    if len(problems) > failed:  # a wrong file makes every instance suspect
        failed = len(reports)
    return len(reports), failed, problems


def check_class_bounds(inputs: dict, out: dict) -> tuple[int, int, list[str]]:
    """Re-check each certificate through public functions."""
    from fibercone import digraph_analysis, magic_classes, traintrack_digraph

    problems = []
    failed = 0
    for (i, j, k), (code, text) in zip(inputs["classes"], out["outputs"]):
        where = f"({i},{j},{k})+"
        before = len(problems)
        try:
            rec = json.loads(text)
            r, m = rec["mixing_r"], rec["avoid_m"]
            lower, upper = Fraction(*rec["lower_lC"]), Fraction(*rec["upper_lC"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{where}: exit {code!r}, unreadable output "
                            f"({exc!r})")
            failed += 1
            continue
        inv = magic_classes.fiber_invariants(
            magic_classes.plus_to_xyz(magic_classes.PlusClass(i, j, k)))
        pinned_r = pins()["mixing_r"].get(f"{i},{j},{k}")
        if code != 0:
            problems.append(f"{where}: exit code {code}")
        if r != pinned_r:
            problems.append(f"{where}: r={r}, pinned {pinned_r}")
        if lower != Fraction(1, r + 30 * inv.norm - 10 * inv.boundary_count):
            problems.append(f"{where}: lower {lower} is not 1/(r+30|chi|-10n)")
        if m < 1 or upper != Fraction(4, m):
            problems.append(f"{where}: upper {upper} is not 4/m for m={m}")
        g = traintrack_digraph.magic_digraph(j, k)
        if m >= 1 and "r_1" in digraph_analysis.image_after(
                g, f"b_{k}", m, method="powers"):
            problems.append(f"{where}: m={m} not confirmed by matrix powers")
        if lower > upper:
            problems.append(f"{where}: lower {lower} > upper {upper}")
        failed += len(problems) > before
    return len(inputs["classes"]), failed, problems


def check_aux(inputs: dict, out: dict) -> tuple[int, int, list[str]]:
    """Re-compose every decomposition and split; verify every loop."""
    from fibercone import zfold_cover

    data = out["data"]
    problems = []
    failed = 0
    for point, dec, split in zip(inputs["points"], out["decomps"],
                                 out["splits"]):
        if isinstance(dec, Exception) or isinstance(split, Exception):
            problems.append(f"point {point}: {dec!r} / {split!r}")
            failed += 1
            continue
        coeffs = dec.coefficients
        recomposed = tuple(
            s + sum(c * b[axis] for c, b in zip(coeffs, data.omega))
            for axis, s in enumerate(dec.seed))
        split_ok = (
            split.n == max(split.decomposition.coefficients)
            and split.beta in data.omega
            and tuple(a + split.n * b for a, b in zip(split.alpha, split.beta))
            == point)
        if (recomposed != point or min(coeffs) < 0
                or dec.seed not in data.omega0 or not split_ok):
            problems.append(f"point {point}: decomposition does not re-compose")
            failed += 1
    for (i, g), loop in zip(inputs["graphs"], out["loops"]):
        if isinstance(loop, Exception):
            problems.append(f"pool graph {i}: {loop!r}")
            failed += 1
            continue
        ok, reason = zfold_cover.verify_loop(g, loop)
        pinned = pins()["loop_length"][i]
        if not ok or loop.length > pinned:
            problems.append(f"pool graph {i}: {reason}, length {loop.length} "
                            f"against pinned {pinned}")
            failed += 1
    return len(inputs["points"]) + len(inputs["graphs"]), failed, problems


CHECKS = {**{name: check_sweep for name in SWEEPS},
          "class_bounds": check_class_bounds, "aux_certify": check_aux}


# ------------------------------------------------------------ one pass


def environment() -> dict:
    """What decides how many threads the workload runs: no caps are set."""
    import numpy

    threads = None
    for path in sorted(Path(numpy.__file__).parent.parent.glob(
            "numpy.libs/libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(path)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
    }


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "memory", "setup"),
                    default="plain")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t0", type=float, default=None)
    args = ap.parse_args(argv)
    t0 = T_START if args.t0 is None else args.t0

    _import_fibercone()  # numpy comes with it
    inputs = make_inputs(args.workload, args.seed, args.smoke)
    result = {"setup_s": time.monotonic() - t0}
    if args.mode == "setup":
        result["env"] = environment()
        print(json.dumps(result))
        return 0

    recorder = probe = None
    if args.mode == "trace":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        recorder.active = True
    elif args.mode == "memory":
        from tracing import PeakMemory

        probe = PeakMemory()
        probe.install()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR, prefix="pass-")
    try:
        cpu0 = _cpu(resource.RUSAGE_SELF)
        children0 = _cpu(resource.RUSAGE_CHILDREN)
        w0 = time.perf_counter()
        out = run_workload(args.workload, inputs, tmp)
        wall = time.perf_counter() - w0
        children = _cpu(resource.RUSAGE_CHILDREN) - children0
        result.update(
            wall_s=wall,
            cpu_s=_cpu(resource.RUSAGE_SELF) - cpu0 + children,
            peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            / 1024,
        )
        if recorder is not None:
            recorder.active = False
            layers = recorder.layer_metrics()
            layers["sweep.worker_cpu_s"] = children
            result["layers"] = layers
            recorder.dump(str(OUT_DIR / f"trace-{args.workload}-{args.seed}"
                              f"{'-smoke' if args.smoke else ''}.jsonl"))
        if probe is not None:
            result["layers"] = {"digraph_analysis.exponent_peak_mb":
                                probe.peak_mb}
        attempted, failed, problems = CHECKS[args.workload](inputs, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
