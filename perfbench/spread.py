"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 25]

Each seed is one run of perfbench/run.py with tracing off.  For every
end-to-end metric this prints the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the distance between them as a
share of the median, which is the spread the bounds in BENCHMARK.json are
set against.  The summary is also written to perfbench/out/spread-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in sorted(result["metrics"].items())), flush=True)
    summary = {}
    for name, vals in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals),
                         "values": vals}
        print(f"{args.workload} {name}: median {summary[name]['median']:.4g}"
              f" quartiles {q1:.4g}..{q3:.4g}"
              f" spread {summary[name]['spread']:.3f}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seeds": args.seeds,
                    "seconds": args.seconds, "metrics": summary},
                   indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
