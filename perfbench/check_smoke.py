"""Tests of the benchmark harness at smoke sizes.

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps these tests out of the repository's own test run; they
exercise the harness, not the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_one_command_reports_every_end_to_end_metric_of_every_workload():
    code, lines = _run("--workload", "all", "--seed", "5", "--seconds", "1",
                       "--trace", "0", "--smoke")
    assert code == 0, lines
    metrics = _result(lines)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        f"{w['name']}.{m['name']}": m["unit"]
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        code, lines = _run("--workload", w["name"], "--seed", "5",
                           "--seconds", "1", "--trace", "1", "--smoke")
        assert code == 0, lines
        metrics = _result(lines)["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == names
    spans = (HERE / "out" / "trace-class_bounds-5-smoke.jsonl").read_text()
    names = {json.loads(line)["name"] for line in spans.splitlines()}
    assert {"cli.main", "digraph_analysis.last_avoidance",
            "digraph_analysis.engine"} <= names


def test_the_pool_workload_still_runs():
    code, lines = _run("--workload", "sweep_n11_w2", "--seed", "5",
                       "--seconds", "1", "--trace", "0", "--smoke")
    assert code == 0, lines
    _result(lines)


def test_inputs_depend_only_on_the_seed():
    wl._import_fibercone()
    for name in ("class_bounds", "aux_certify"):
        a, b, c = (wl.make_inputs(name, seed, smoke=False)
                   for seed in (1, 1, 2))
        key = "classes" if name == "class_bounds" else "points"
        assert a[key] == b[key] != c[key]


def test_checks_catch_a_wrong_certificate():
    wl._import_fibercone()
    inputs = wl.make_inputs("class_bounds", 0, smoke=True)
    out = wl.run_workload("class_bounds", inputs, tmp="")
    assert wl.check_class_bounds(inputs, out)[1] == 0
    code, text = out["outputs"][0]
    record = json.loads(text)
    record["avoid_m"] += 1
    record["upper_lC"] = [4, record["avoid_m"]]
    out["outputs"][0] = (code, json.dumps(record))
    attempted, failed, problems = wl.check_class_bounds(inputs, out)
    assert failed == 1 and "matrix powers" in problems[0]


def test_an_instance_that_raises_counts_as_failed():
    wl._import_fibercone()
    inputs = wl.make_inputs("aux_certify", 0, smoke=True)
    inputs["points"][0] = (0, 0, 0)  # on the cone's boundary
    out = wl.run_workload("aux_certify", inputs, tmp="")
    attempted, failed, problems = wl.check_aux(inputs, out)
    assert failed == 1 and "not an interior" in problems[0]


def test_harness_alone_fails_without_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run("--workload", "sweep_n11", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
