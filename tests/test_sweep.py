"""Family sweeps: reports, flat-file emission, and power-law verdicts."""

import concurrent.futures
import dataclasses
import json
import os
import re
import tempfile
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibercone
import fibercone.sweep as sweep_mod
from fibercone import (
    CSV_COLUMNS,
    BoundReport,
    FitVerdict,
    IntegralClass,
    PlusClass,
    ReportWriter,
    SweepConfig,
    UncoveredRegimeError,
    class_report,
    iter_sweep,
    k_pq,
    regime_of,
    report_csv,
    report_emit,
    report_json,
    report_record,
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
    with pytest.raises(ValueError, match="vertex cap must be positive"):
        SweepConfig(family="n11", n_start=2, n_stop=3, vertex_cap=0)


def test_json_text_refuses_what_it_cannot_encode():
    assert json.loads(sweep_mod.json_text({"r": Fraction(1, 3)})) == {"r": [1, 3]}
    with pytest.raises(TypeError, match="cannot serialize object"):
        sweep_mod.json_text(object())


_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False),
    st.text(),
)
_ERROR = st.one_of(
    st.none(),
    st.just('ValueError: a "quoted"\tline\nand é'),
    st.text(alphabet='ab\n"\t\\é%', max_size=12),
)
_FRACTION = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(
    record=st.fixed_dictionaries(
        {"error": _ERROR, "lower_lC": st.one_of(st.none(), _FRACTION)},
        optional={"xyz": st.lists(st.integers(-99, 99), max_size=3)},
    ) | st.dictionaries(
        st.text(max_size=6),
        st.one_of(_LEAF, _FRACTION, st.lists(_LEAF, max_size=3),
                  st.tuples(_LEAF, _LEAF), st.lists(_FRACTION, max_size=2),
                  st.dictionaries(st.text(max_size=2), _LEAF, max_size=2)),
        max_size=8,
    ) | st.lists(_LEAF, max_size=3)
)
def test_json_text_matches_the_indenting_encoder(record):
    # flat records take the C encoder and the rest indent=2; both must give
    # the bytes of the indenting encoder itself
    expected = json.dumps(
        record, sort_keys=True, indent=2, default=sweep_mod._encode_fraction
    )
    assert sweep_mod.json_text(record) == expected


def test_json_text_of_a_report_record_with_every_kind_of_field():
    rep = class_report(PlusClass(1, 3, 1), (1, 0, 3))
    record = report_record(dataclasses.replace(
        rep, error='RuntimeError: a "quoted"\tline\nand é', regime=None
    ))
    assert isinstance(record["lower_lC"], Fraction) and record["regime"] is None
    assert sweep_mod.json_text(record) == json.dumps(
        record, sort_keys=True, indent=2, default=sweep_mod._encode_fraction
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_start", 2.0),
        ("n_stop", 5.0),
        ("n_start", True),
        ("p", 1.0),
        ("q", "2"),
        ("worker_count", True),
        ("worker_count", 1.0),
        ("vertex_cap", 100.0),
        ("allow_large", 1),
        ("allow_large", None),
    ],
)
def test_config_refuses_values_of_the_wrong_type(field, value):
    family = "pq" if field in ("p", "q") else "n11"
    kwargs = dict(family=family, n_start=2, n_stop=5)
    if family == "pq":
        kwargs.update(p=1, q=2)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SweepConfig(**kwargs)


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


def test_witness_policy_follows_the_family():
    # (1, 4, 8)+ is the (p, q, n) = (2, 3, 2) instance: closed-form m = D n^q
    (swept,) = run_sweep(SweepConfig(family="pq", p=2, q=3, n_start=2, n_stop=2))
    assert class_report(PlusClass(1, 4, 8), (2, 3, 2)) == swept
    assert swept.avoidance_m == 8 and swept.regime == "PltQle2P"
    # standalone, the same class takes the last avoidance of r_1 from b_8
    alone = class_report(PlusClass(1, 4, 8))
    assert alone.avoidance_m == 28 and alone.error is None
    assert alone.regime is None and (alone.n, alone.p, alone.q) == (None,) * 3
    assert alone.mixing_r == swept.mixing_r
    assert report_record(alone)["regime"] is None
    assert report_csv([alone]).splitlines()[1] == ",,,9,13,1,21,3,10,47,1,647,28,1,7,"


def test_class_report_refuses_a_family_that_is_not_the_class():
    with pytest.raises(ValueError):
        class_report(PlusClass(1, 4, 8), (1, 2, 2))


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


def test_pool_has_at_most_one_worker_per_job(monkeypatch):
    # a recording stand-in runs each job inline, so no process is forked
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3)
    reports = run_sweep(dataclasses.replace(cfg, worker_count=64))
    assert opened == [2]
    assert reports == run_sweep(cfg)


def test_pooled_sweep_yields_in_order_and_cancels_on_close(monkeypatch):
    # only the first job finishes: its report comes out at once, and closing
    # the generator cancels the jobs still pending
    futures = []

    class FirstOnlyPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            futures.append(Future())
            if len(futures) == 1:
                futures[0].set_result(fn(*args))
            return futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FirstOnlyPool)
    cfg = SweepConfig(family="n11", n_start=2, n_stop=5, worker_count=2)
    stream = iter_sweep(cfg)
    assert next(stream) == run_sweep(dataclasses.replace(cfg, worker_count=1))[0]
    stream.close()
    assert [f.cancelled() for f in futures] == [False, True, True, True]


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
    assert verify_exponent_law(reports, tolerance=Fraction(1)).passed
    assert not verify_exponent_law(reports, tolerance=0).passed


@pytest.mark.parametrize(
    "tolerance",
    [True, False, "0.1", -0.1, -1, float("nan"), float("inf"), -float("inf")],
    ids=["true", "false", "string", "negative", "negative-int", "nan", "inf",
         "minus-inf"],
)
def test_verify_exponent_law_refuses_a_meaningless_tolerance(tolerance):
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=6))
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        verify_exponent_law(reports, tolerance=tolerance)


def test_report_writer_refuses_an_unknown_format(tmp_path):
    with open(tmp_path / "out.xml", "w") as fh:
        with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
            ReportWriter(fh, "xml")
    assert (tmp_path / "out.xml").read_text() == ""


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
    with pytest.raises(OSError, match=f"^cannot write {missing_dir}: "):
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


def _crossed_report(n):
    rep = BoundReport(
        integral_class=IntegralClass(5, 7, 1),
        norm=11,
        punctures=3,
        genus=5,
        regime="PltQle2P",
        n=n,
        p=1,
        q=2,
        lower_lC=Fraction(1, 100),
        upper_lC=Fraction(1, 2),
    )
    object.__setattr__(rep, "lower_lC", Fraction(1))
    return rep


def test_report_emit_refuses_equal_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    asked = []

    def reports():
        asked.append(True)
        yield from run_sweep(SweepConfig(family="n11", n_start=2, n_stop=3))

    for csv_path, json_path in (
        ("out.txt", "out.txt"),
        ("out.txt", str(tmp_path / "out.txt")),
        (str(tmp_path / "sub" / ".." / "out.txt"), "out.txt"),
    ):
        with pytest.raises(ValueError, match="cannot share the path"):
            report_emit(reports(), csv_path, json_path)
    assert asked == [] and os.listdir(tmp_path) == []


@pytest.mark.parametrize("missing", ["csv", "json"])
def test_report_emit_io_error_leaves_both_paths_untouched(tmp_path, missing):
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=3))
    kept = tmp_path / "kept"
    kept.write_bytes(b"an older report\n")
    lost = tmp_path / "nope" / "out"
    paths = (lost, kept) if missing == "csv" else (kept, lost)
    with pytest.raises(OSError, match=f"^cannot write {lost}: "):
        report_emit(reports, *map(str, paths))
    assert kept.read_bytes() == b"an older report\n"
    assert sorted(os.listdir(tmp_path)) == ["kept"]
    # with no file at either path, neither appears
    fresh = tmp_path / "fresh"
    paths = (lost, fresh) if missing == "csv" else (fresh, lost)
    with pytest.raises(OSError, match=f"^cannot write {lost}: "):
        report_emit(reports, *map(str, paths))
    assert sorted(os.listdir(tmp_path)) == ["kept"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_emit_write_error_removes_the_part_files(tmp_path):
    # a .part file that is a link to /dev/full fails its first flush
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=3))
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    json_path.write_text("older\n", encoding="utf-8")
    os.symlink("/dev/full", tmp_path / "s.json.part")
    with pytest.raises(OSError, match=f"^cannot write {json_path}: "):
        report_emit(reports, str(csv_path), str(json_path))
    assert sorted(os.listdir(tmp_path)) == ["s.json"]
    assert json_path.read_text(encoding="utf-8") == "older\n"


def test_emitted_files_of_no_reports_and_of_the_golden_sweep(tmp_path):
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    report_emit([], str(csv_path), str(json_path))
    assert report_json([]) == json_path.read_text(encoding="utf-8") == "[]\n"
    assert csv_path.read_text(encoding="utf-8") == GOLDEN_12_CSV.splitlines(True)[0]
    golden = run_sweep(SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3))
    report_emit(iter(golden), str(csv_path), str(json_path))
    assert csv_path.read_text(encoding="utf-8") == GOLDEN_12_CSV


def test_iter_sweep_refuses_an_oversized_range_at_the_call():
    cfg = SweepConfig(family="pq", p=1, q=2, n_start=2, n_stop=3, vertex_cap=10)
    with pytest.raises(ValueError, match="over the cap 10"):
        iter_sweep(cfg)


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from([("n11", None, None), ("pq", 1, 2), ("pq", 2, 1),
                            ("pq", 2, 2), ("pq", 1, 1)]),
    n_start=st.integers(2, 4),
    span=st.integers(0, 2),
    worker_count=st.sampled_from([1, 2]),
)
def test_streamed_files_equal_the_documents_of_run_sweep(
    family, n_start, span, worker_count
):
    name, p, q = family
    cfg = SweepConfig(family=name, p=p, q=q, n_start=n_start,
                      n_stop=n_start + span, worker_count=worker_count)
    ns = []

    def recorded():
        for rep in iter_sweep(cfg):
            ns.append(rep.n)
            yield rep

    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = os.path.join(tmp, "s.csv"), os.path.join(tmp, "s.json")
        assert report_emit(recorded(), csv_path, json_path) == [csv_path, json_path]
        reports = run_sweep(dataclasses.replace(cfg, worker_count=1))
        assert Path(csv_path).read_text(encoding="utf-8") == report_csv(reports)
        assert Path(json_path).read_text(encoding="utf-8") == report_json(reports)
        assert sorted(os.listdir(tmp)) == ["s.csv", "s.json"]
    assert ns == list(range(cfg.n_start, cfg.n_stop + 1))
    # the record-by-record array is the one json_text of the whole list
    whole = fibercone.json_text([report_record(rep) for rep in reports]) + "\n"
    assert report_json(reports) == whole


@pytest.mark.parametrize("k", [0, 1, 3])
def test_interrupted_stream_keeps_finished_reports_in_part_files(tmp_path, k):
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=6))
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    json_path.write_text("older\n", encoding="utf-8")
    parts = (tmp_path / "s.csv.part", tmp_path / "s.json.part")
    seen = []

    def dying():
        yield from reports[:k]
        # what a kill at this moment would leave on disk
        seen.extend(part.read_text(encoding="utf-8") for part in parts)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        report_emit(dying(), str(csv_path), str(json_path))
    assert not csv_path.exists()
    assert json_path.read_text(encoding="utf-8") == "older\n"
    csv_part, json_part = (part.read_text(encoding="utf-8") for part in parts)
    assert seen == [csv_part, json_part]
    assert csv_part.splitlines() == report_csv(reports).splitlines()[: k + 1]
    whole = report_json(reports[:k])
    assert json_part == ("" if k == 0 else whole[: -len("\n]\n")])


def test_crossed_sandwich_mid_stream_leaves_no_part_file(tmp_path):
    reports = run_sweep(SweepConfig(family="n11", n_start=2, n_stop=4))
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    csv_path.write_text("older\n", encoding="utf-8")
    stream = [reports[0], _crossed_report(3), reports[2]]
    with pytest.raises(RuntimeError, match="sandwich violation at emission for n=3"):
        report_emit(iter(stream), str(csv_path), str(json_path))
    assert sorted(os.listdir(tmp_path)) == ["s.csv"]
    assert csv_path.read_text(encoding="utf-8") == "older\n"


def test_readme_tour_and_sweep_exports_are_package_exports():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from fibercone import \((.*?)\)", readme, re.S).group(1)
    tour = {name.strip() for name in block.split(",") if name.strip()}
    assert {"class_report", "report_record"} <= tour
    assert tour <= set(fibercone.__all__)
    assert set(sweep_mod.__all__) <= set(fibercone.__all__)
