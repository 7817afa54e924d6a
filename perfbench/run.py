"""Benchmark of fibercone's class-to-bounds pipeline and its supporting tools.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
        --trace 0|1 [--smoke]

Each pass of a workload runs in a fresh process (perfbench/workload.py),
one at a time, with the inherited environment: no thread caps are set.

--trace 0 spawns a few set-up-only processes, then full passes until the
next one would end past --seconds (at least one), and reports medians of
the end-to-end metrics:

  setup_s      process start until the inputs are ready (interpreter,
               imports, instance list), median over every process spawned
  wall_s       the workload: every instance computed and emitted
  cpu_s        user + system CPU of the pass process and its children
  peak_rss_mb  peak RSS of the pass process plus that of its largest child

--trace 1 runs one untraced pass, one pass with spans around every public
function (perfbench/tracing.py) and one pass that measures the tracemalloc
peak inside primitivity_exponent, and reports the per-layer metrics plus
the tracing overhead (traced wall_s minus untraced wall_s).

Outputs are checked after the timed region of every pass.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every check passed, 1 when a
check failed and 2 when a pass could not run.  --workload all runs every
kept workload in turn and also writes perfbench/out/results.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep_pq12", "sweep_n11", "class_bounds", "aux_certify")
# Runs only when named: oversubscribed BLAS threads in its two pool workers
# spread its wall time over a factor of three from run to run, beyond any
# bound a comparison could use.
UNSTEADY_WORKLOADS = ("sweep_n11_w2",)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170


class PassError(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def spawn(workload: str, seed: int, mode: str, smoke: bool,
          deadline: float) -> dict:
    """Run one pass process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.monotonic())]
    # A session of its own lets a timeout kill the pass and its pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} {mode} pass timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays the pass left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise PassError(f"{workload} {mode} pass exited {proc.returncode}:\n"
                        + err[-2000:])
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise PassError(f"{workload} {mode} pass printed no result:\n"
                        + err[-2000:]) from None


def run_plain(workload: str, seed: int, seconds: int, smoke: bool,
              deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [spawn(workload, seed, "setup", smoke, deadline)
              for _ in range(SETUP_SAMPLES)]
    passes, durations = [], []
    start = time.monotonic()
    while not passes or (time.monotonic() - start
                         + statistics.median(durations) <= seconds):
        t = time.monotonic()
        passes.append(spawn(workload, seed, "plain", smoke, deadline))
        durations.append(time.monotonic() - t)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + passes),
        **{name: statistics.median(r[name] for r in passes)
           for name in ("wall_s", "cpu_s", "peak_rss_mb")},
    }
    info = {"passes": len(passes), "env": setups[0]["env"]}
    return ({name: {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in metrics.items()}, passes, info)


def run_traced(workload: str, seed: int, smoke: bool,
               deadline: float) -> tuple[dict, list[dict], dict]:
    from tracing import LAYER_METRICS

    plain = spawn(workload, seed, "plain", smoke, deadline)
    traced = spawn(workload, seed, "trace", smoke, deadline)
    memory = spawn(workload, seed, "memory", smoke, deadline)
    values = dict(traced["layers"], **memory["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    return metrics, [plain, traced, memory], {"passes": 3}


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        metrics, passes, info = run_traced(workload, args.seed, args.smoke,
                                           deadline)
    else:
        metrics, passes, info = run_plain(workload, args.seed, args.seconds,
                                          args.smoke, deadline)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    problems = [p for r in passes for p in r["problems"]]
    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} failed_ratio {failed / attempted:.6g} "
          f"({failed}/{attempted} instances over {info['passes']} passes)")
    if "env" in info:
        print(f"{workload} env {json.dumps(info['env'], sort_keys=True)}")
    for problem in problems[:20]:
        print(f"{workload} FAILED {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, **info}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + UNSTEADY_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for testing the harness")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / "results.json").write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "smoke": args.smoke, "workloads": results},
            indent=1, sort_keys=True) + "\n")
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    else:
        summary = {key: results[args.workload][key]
                   for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
