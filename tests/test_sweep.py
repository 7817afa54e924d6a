"""Family sweeps: reports, flat-file emission, and power-law verdicts."""

import dataclasses
import json
import os
from fractions import Fraction

import pytest

import fibercone.sweep as sweep_mod
from fibercone import (
    CSV_COLUMNS,
    BoundReport,
    FitVerdict,
    IntegralClass,
    SweepConfig,
    UncoveredRegimeError,
    k_pq,
    regime_of,
    report_csv,
    report_emit,
    report_json,
    run_sweep,
    verify_exponent_law,
)

GOLDEN_12_CSV = (
    "n,p,q,x,y,z,norm,punctures,genus,mixing_r,"
    "lower_lC_num,lower_lC_den,avoid_m,upper_lC_num,upper_lC_den,regime\n"
    "2,1,2,5,7,1,11,3,5,15,1,315,4,1,1,PltQle2P\n"
    "3,1,2,10,13,1,22,4,10,41,1,661,18,2,9,PltQle2P\n"
)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(family="xy", n_start=2, n_stop=3)
    with pytest.raises(ValueError):
        SweepConfig(family="pq", n_start=2, n_stop=3)  # missing p, q
    with pytest.raises(ValueError):
        SweepConfig(family="pq", p=0, q=2, n_start=2, n_stop=3)
    with pytest.raises(ValueError):
        SweepConfig(family="n11", p=1, q=1, n_start=2, n_stop=3)
    with pytest.raises(ValueError):
        SweepConfig(family="n11", n_start=1, n_stop=3)
    with pytest.raises(ValueError):
        SweepConfig(family="n11", n_start=4, n_stop=3)
    with pytest.raises(ValueError):
        SweepConfig(family="n11", n_start=2, n_stop=3, worker_count=0)


def test_config_exponents_and_size():
    cfg = SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3)
    assert cfg.exponents() == (1, 2)
    assert cfg.largest_vertex_count() == 1 + 3 + 2 * 9
    n11 = SweepConfig(family="n11", n_start=2, n_stop=9)
    assert n11.exponents() == (1, 0)
    assert n11.largest_vertex_count() == 1 + 9 + 2


def test_vertex_cap_blocks_and_allow_large_overrides():
    cfg = SweepConfig(
        family="pq", p=1, q=2, n_start=2, n_stop=3, vertex_cap=10
    )
    with pytest.raises(ValueError):
        run_sweep(cfg)
    reports = run_sweep(
        SweepConfig(
            family="pq",
            p=1,
            q=2,
            n_start=2,
            n_stop=2,
            vertex_cap=10,
            allow_large=True,
        )
    )
    assert len(reports) == 1 and reports[0].error is None


def test_golden_csv_for_small_sweep():
    reports = run_sweep(SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3))
    assert report_csv(reports) == GOLDEN_12_CSV


def test_csv_has_the_fixed_column_order():
    assert GOLDEN_12_CSV.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == 16


def test_sweeps_are_worker_count_invariant():
    cfg1 = SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=4)
    cfg3 = SweepConfig(
        family="pq", p=1, q=2, n_start=2, n_stop=4, worker_count=3
    )
    serial = run_sweep(cfg1)
    parallel = run_sweep(cfg3)
    assert serial == parallel
    assert report_csv(serial) == report_csv(parallel)
    assert report_json(serial) == report_json(parallel)


def test_n11_upper_bound_pins():
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=5))
    assert [rep.avoidance_m for rep in reports] == [2, 3, 4, 5]
    assert [rep.upper_lC for rep in reports] == [
        Fraction(2),
        Fraction(4, 3),
        Fraction(1),
        Fraction(4, 5),
    ]
    assert all(rep.regime == "uncovered" for rep in reports)
    assert all(rep.q == 0 for rep in reports)


def test_avoidance_witness_pins_in_the_large_regime():
    reports = run_sweep(SweepConfig(family="pq", p=3, q=2, n_start=2, n_stop=3))
    assert [rep.avoidance_m for rep in reports] == [16, 81]  # n^(2q)
    assert [rep.error for rep in reports] == [None, None]


def test_instance_failures_are_captured_not_raised(monkeypatch):
    real = sweep_mod.primitivity_exponent

    def flaky(g):
        if g.vertex_count == 1 + 3 + 2 * 9:  # the n = 3 instance
            raise RuntimeError("synthetic failure")
        return real(g)

    monkeypatch.setattr(sweep_mod, "primitivity_exponent", flaky)
    reports = run_sweep(SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=4))
    assert [rep.error is None for rep in reports] == [True, False, True]
    bad = reports[1]
    assert "synthetic failure" in bad.error
    assert bad.mixing_r is None and bad.upper_lC is None
    # invariants outside the pipeline survive the failure
    assert bad.norm == 22 and bad.regime == "PltQle2P"


def test_dead_worker_loses_only_its_instance(monkeypatch):
    cfg = SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=5)
    serial = run_sweep(cfg)
    real = sweep_mod._instance_report

    def dying(p, q, n):
        if n == 3:
            os._exit(1)
        return real(p, q, n)

    monkeypatch.setattr(sweep_mod, "_instance_report", dying)
    reports = run_sweep(dataclasses.replace(cfg, worker_count=2))
    assert [rep.n for rep in reports] == [2, 3, 4, 5]
    dead = reports[1]
    assert "BrokenProcessPool" in dead.error
    assert dead.mixing_r is None and dead.upper_lC is None
    assert dead.norm == serial[1].norm and dead.regime == serial[1].regime
    assert [rep for rep in reports if rep.n != 3] == [
        rep for rep in serial if rep.n != 3
    ]


def test_uncovered_pq_family_still_sweeps():
    reports = run_sweep(SweepConfig(family="pq", p=2, q=2, n_start=2, n_stop=3))
    for rep in reports:
        assert rep.regime == "uncovered"
        assert rep.error is None
        assert rep.avoidance_m >= 1
        assert rep.lower_lC <= rep.upper_lC


def test_regime_routing_matches_k_pq_coverage():
    for p in range(1, 7):
        for q in range(1, 7):
            if regime_of(p, q) == "uncovered":
                with pytest.raises(UncoveredRegimeError):
                    k_pq(p, q, 2)
            else:
                assert k_pq(p, q, 2) >= 1


def test_verify_exponent_law_passes_n11():
    reports = run_sweep(SweepConfig(family="n11", n_start=20, n_stop=60))
    verdict = verify_exponent_law(reports)
    assert isinstance(verdict, FitVerdict)
    assert verdict.passed
    assert verdict.predicted_exponent == 1
    assert verdict.tolerance == sweep_mod.N11_TOLERANCE
    assert verdict.which == "upper"
    assert verdict.sample_count == 41
    assert abs(verdict.fitted_slope + 1.0) <= 0.1


def test_verify_exponent_law_no_prediction():
    reports = run_sweep(SweepConfig(family="pq", p=2, q=3, n_start=2, n_stop=5))
    verdict = verify_exponent_law(reports)
    assert not verdict.passed
    assert verdict.predicted_exponent is None
    assert "no prediction" in verdict.reason


def test_verify_exponent_law_validation():
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=6))
    with pytest.raises(ValueError):
        verify_exponent_law(reports, which="middle")
    with pytest.raises(ValueError):
        verify_exponent_law([])
    with pytest.raises(ValueError):
        verify_exponent_law(reports[:3])  # fewer than 4 samples
    mixed = reports + run_sweep(
        SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3)
    )
    with pytest.raises(ValueError):
        verify_exponent_law(mixed)


def test_verify_exponent_law_explicit_tolerance():
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=6))
    tight = verify_exponent_law(reports, tolerance=1e-6)
    assert not tight.passed
    assert tight.reason == "slope outside tolerance"
    loose = verify_exponent_law(reports, tolerance=1.0)
    assert loose.passed


def test_report_json_parses_back():
    reports = run_sweep(SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3))
    doc = json.loads(report_json(reports))
    assert len(doc) == 2
    first = doc[0]
    assert first["xyz"] == [5, 7, 1]
    assert first["lower_lC"] == [1, 315]
    assert first["lower_lC_weak"] == [1, 345]
    assert first["upper_lAC"] == [1, 2]
    assert first["upper_lC"] == [1, 1]
    assert first["error"] is None


def test_report_emit_writes_requested_files(tmp_path):
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=5))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    written = report_emit(reports, str(csv_path), str(json_path))
    assert written == [str(csv_path), str(json_path)]
    assert csv_path.read_text(encoding="utf-8") == report_csv(reports)
    assert json.loads(json_path.read_text(encoding="utf-8"))


def test_report_emit_wraps_io_errors(tmp_path):
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=3))
    missing_dir = tmp_path / "nope" / "out.csv"
    with pytest.raises(OSError, match="cannot write report"):
        report_emit(reports, str(missing_dir), None)


def test_report_emit_rechecks_the_sandwich(tmp_path):
    rep = BoundReport(
        integral_class=IntegralClass(5, 7, 1),
        norm=11,
        punctures=3,
        genus=5,
        regime="PltQle2P",
        lower_lC=Fraction(1, 100),
        upper_lC=Fraction(1, 2),
    )
    # simulate a corrupted record: the constructor itself refuses crossed
    # bounds, so emission-time defense only fires on bypassed state
    object.__setattr__(rep, "lower_lC", Fraction(1))
    with pytest.raises(RuntimeError, match="sandwich"):
        report_emit([rep], str(tmp_path / "out.csv"), None)
