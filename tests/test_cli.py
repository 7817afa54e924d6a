"""Command-line interface, exercised in process through main(argv)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fibercone
from fibercone import (
    AvoidanceWitness,
    CochainGraph,
    export_cochain_json,
    import_digraph,
    sweep,
    traintrack_digraph,
)
from fibercone.cli import main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_12_CSV = (
    "n,p,q,x,y,z,norm,punctures,genus,mixing_r,"
    "lower_lC_num,lower_lC_den,avoid_m,upper_lC_num,upper_lC_den,regime\n"
    "2,1,2,5,7,1,11,3,5,15,1,315,4,1,1,PltQle2P\n"
    "3,1,2,10,13,1,22,4,10,41,1,661,18,2,9,PltQle2P\n"
)


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _run_json(capsys, *argv):
    rc, out, err = _run(capsys, *argv)
    return rc, json.loads(out), err


def test_class_info_plus(capsys):
    rc, doc, _ = _run_json(capsys, "class", "info", "--plus", "1,8,4")
    assert rc == 0
    assert doc["xyz"] == [5, 13, 1]
    assert doc["plus"] == [1, 8, 4]
    assert doc["in_cone"] and doc["primitive"]
    assert doc["norm"] == 17
    assert doc["boundary"] == 3
    assert doc["per_torus"] == [1, 1, 1]
    assert doc["genus"] == 8
    assert doc["projective"] == [[5, 17], [13, 17], [1, 17]]


def test_class_info_non_primitive_keeps_norm(capsys):
    rc, doc, _ = _run_json(capsys, "class", "info", "--xyz", "6,4,2")
    assert rc == 0
    assert doc["in_cone"] and not doc["primitive"]
    assert doc["norm"] == 8
    assert doc["boundary"] is None and doc["genus"] is None


def test_class_info_outside_cone(capsys):
    rc, doc, _ = _run_json(capsys, "class", "info", "--xyz", "1,1,1")
    assert rc == 0
    assert not doc["in_cone"]
    assert doc["norm"] is None and doc["projective"] is None


def test_class_info_requires_exactly_one_input(capsys):
    rc, _, err = _run(capsys, "class", "info")
    assert rc == 2 and "error:" in err
    rc, _, err = _run(
        capsys, "class", "info", "--xyz", "1,2,3", "--plus", "1,2,3"
    )
    assert rc == 2 and "error:" in err


def test_digraph_build_stdout(capsys):
    rc, out, _ = _run(capsys, "digraph", "build", "--j", "3", "--k", "2")
    assert rc == 0
    g = import_digraph(out)
    assert g.vertex_count == 8 and g.edge_count == 12


def test_digraph_build_files(tmp_path, capsys):
    rc, doc, _ = _run_json(
        capsys,
        "--out",
        str(tmp_path / "reports"),
        "digraph",
        "build",
        "--j",
        "3",
        "--k",
        "2",
        "--json",
        "g.json",
        "--dot",
        "g.dot",
    )
    assert rc == 0
    assert doc["vertices"] == 8 and doc["edges"] == 12
    assert len(doc["written"]) == 2
    g = import_digraph((tmp_path / "reports" / "g.json").read_text())
    assert g.vertex_count == 8
    assert "->" in (tmp_path / "reports" / "g.dot").read_text()


@pytest.mark.parametrize(
    ("flags", "failing"),
    [
        (("--json", "g.json"), "export_json"),
        (("--dot", "g.dot"), "export_dot"),
        (("--json", "g.json", "--dot", "g.dot"), "export_json"),
        (("--json", "g.json", "--dot", "g.dot"), "export_dot"),
    ],
    ids=["json", "dot", "both-json-fails", "both-dot-fails"],
)
def test_digraph_build_leaves_no_file_when_an_export_fails(
    capsys, tmp_path, monkeypatch, flags, failing
):
    # both documents are built before either file is opened
    def fail(g):
        raise RuntimeError("export failed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(traintrack_digraph, failing, fail)
    argv = ("digraph", "build", "--j", "3", "--k", "2", *flags)
    assert _run(capsys, *argv) == (2, "", "error: export failed\n")
    assert not any(tmp_path.iterdir())


# each writes the file "kept" and then the path appended to it
BUILD_ARGV = ("digraph", "build", "--j", "3", "--k", "2", "--json", "kept", "--dot")
SWEEP_ARGV = ("sweep", "--family", "n11", "--n-from", "2", "--n-to", "5",
              "--csv", "kept", "--json")


@pytest.mark.parametrize("argv", [BUILD_ARGV, SWEEP_ARGV], ids=["build", "sweep"])
def test_a_directory_target_is_refused_before_any_file_is_written(
    capsys, tmp_path, monkeypatch, argv
):
    # refused before any file is opened, so "kept" keeps its bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "kept").write_bytes(b"old\n")
    assert _run(capsys, *argv, "adir") == (
        2, "", "error: cannot write adir: Is a directory\n"
    )
    assert (tmp_path / "kept").read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["adir", "kept"]
    assert os.listdir(tmp_path / "adir") == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_digraph_build_write_error_removes_the_part_files(
    capsys, tmp_path, monkeypatch
):
    # a .part file that is a link to /dev/full fails when it is closed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept").write_bytes(b"old\n")
    os.symlink("/dev/full", tmp_path / "g.dot.part")
    assert _run(capsys, *BUILD_ARGV, "g.dot") == (
        2, "", "error: cannot write g.dot: No space left on device\n"
    )
    assert (tmp_path / "kept").read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["kept"]


def test_digraph_certify(capsys):
    rc, doc, _ = _run_json(capsys, "digraph", "certify", "--j", "8", "--k", "4")
    assert rc == 0
    assert doc["lengths"] == [4, 5, 13, 16]
    assert doc["short_cycle"][0] == "a_4"


def test_digraph_certify_degenerate_chain_fails(capsys):
    rc, _, err = _run(capsys, "digraph", "certify", "--j", "3", "--k", "1")
    assert rc == 2 and "error:" in err


def test_analyze_exponent(capsys):
    rc, doc, _ = _run_json(capsys, "analyze", "exponent", "--j", "2", "--k", "4")
    assert rc == 0
    assert doc == {"exponent": 15, "vertices": 11}


def test_analyze_exponent_from_json_file(tmp_path, capsys):
    rc, out, _ = _run(capsys, "digraph", "build", "--j", "2", "--k", "4")
    path = tmp_path / "g.json"
    path.write_text(out)
    rc, doc, _ = _run_json(capsys, "analyze", "exponent", "--json", str(path))
    assert rc == 0 and doc["exponent"] == 15


def test_analyze_refuses_a_document_with_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"labels": ["a"], "edges": [[0, 0, 1]], "junk": 5}')
    rc, out, err = _run(capsys, "analyze", "exponent", "--json", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: unknown key 'junk' in the digraph document\n"


def test_analyze_refuses_an_empty_digraph(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"labels": [], "edges": []}')
    rc, out, err = _run(capsys, "analyze", "exponent", "--json", str(path))
    assert (rc, out, err) == (2, "", "error: digraph is empty\n")


def test_analyze_requires_one_graph_source(capsys):
    rc, _, err = _run(capsys, "analyze", "exponent")
    assert rc == 2 and "error:" in err
    rc, _, err = _run(
        capsys, "analyze", "exponent", "--j", "2", "--k", "4", "--json", "x"
    )
    assert rc == 2 and "error:" in err


def test_analyze_image(capsys):
    rc, doc, _ = _run_json(
        capsys,
        "analyze",
        "image",
        "--j",
        "8",
        "--k",
        "4",
        "--source",
        "b_4",
        "--steps",
        "4",
    )
    assert rc == 0
    assert doc["image"] == ["a_4", "r_4"]


def test_analyze_avoid(capsys):
    rc, doc, _ = _run_json(
        capsys,
        "analyze",
        "avoid",
        "--j",
        "8",
        "--k",
        "4",
        "--source",
        "b_4",
        "--avoided",
        "r_1",
    )
    assert rc == 0
    assert doc["steps"] == 16
    assert doc["upper_lAC"] == [1, 8]
    assert doc["upper_lC"] == [1, 4]


@pytest.mark.parametrize(
    "argv",
    [
        ("image", "--source", "nope", "--steps", "3"),
        ("avoid", "--source", "nope", "--avoided", "r_1"),
        ("avoid", "--source", "b_2", "--avoided", "nope"),
    ],
)
def test_analyze_refuses_unknown_labels(capsys, argv):
    rc, out, err = _run(capsys, "analyze", argv[0], "--j", "3", "--k", "2", *argv[1:])
    assert rc == 2 and out == ""
    assert err == "error: no vertex labeled 'nope'\n"


def test_bounds_class(capsys):
    rc, doc, _ = _run_json(capsys, "bounds", "class", "--plus", "1,8,4")
    assert rc == 0
    assert doc["mixing_r"] == 31
    assert doc["lower_lC"] == [1, 511]
    assert doc["lower_lC_weak"] == [1, 541]
    assert doc["avoid_m"] == 16
    assert doc["upper_lC"] == [1, 4]


@pytest.mark.parametrize("plus", ["1,8,4", "1,4,8", "1,3,9"])
def test_bounds_class_stdout_matches_golden(capsys, plus):
    # recorded from the CLI before it shared the sweep's pipeline
    rc, out, _ = _run(capsys, "bounds", "class", "--plus", plus)
    assert rc == 0
    golden = GOLDEN / f"bounds_class_{plus.replace(',', '_')}.txt"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    ("name", "fake"),
    [
        # a witness of zero steps certifies no upper bound
        (
            "last_avoidance",
            lambda g, source, avoided: AvoidanceWitness(source, avoided, 0),
        ),
        # an upper bound below the lower bound is a broken certificate
        ("avoidance_upper", lambda m: (Fraction(1, 10**6),) * 2),
        # a witness that the digraph refutes is no witness
        ("avoidance_at", lambda g, source, targets, steps: False),
    ],
)
def test_bounds_class_refuses_unverified_upper_bound(capsys, monkeypatch, name, fake):
    monkeypatch.setattr(sweep, name, fake)
    rc, doc, _ = _run_json(capsys, "bounds", "class", "--plus", "1,8,4")
    assert rc == 2
    assert "error" in doc
    assert "upper_lC" not in doc and "avoid_m" not in doc


def test_bounds_class_refuses_general_first_coordinate(capsys):
    rc, doc, _ = _run_json(capsys, "bounds", "class", "--plus", "2,3,1")
    assert rc == 2
    assert "error" in doc
    assert doc["norm"] == 7  # invariants still reported


@pytest.mark.parametrize(
    ("plus", "why"),
    [
        ("1,1,0", "(1, 2, 1) is outside the open fibered cone"),
        ("2,2,2", "(4, 6, 2) is not primitive (gcd != 1)"),
    ],
    ids=["outside-the-cone", "not-primitive"],
)
def test_bounds_class_refuses_a_class_before_the_pipeline(capsys, plus, why):
    # such a class has no invariants, so no report: one stderr line, exit 2
    rc, out, err = _run(capsys, "bounds", "class", "--plus", plus)
    assert (rc, out, err) == (2, "", f"error: {why}\n")


def test_sweep_csv_to_stdout(capsys):
    rc, out, _ = _run(
        capsys,
        "sweep",
        "--family",
        "pq",
        "--p",
        "1",
        "--q",
        "2",
        "--n-from",
        "2",
        "--n-to",
        "3",
    )
    assert rc == 0
    assert out == GOLDEN_12_CSV


def test_sweep_writes_files(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    rc, doc, _ = _run_json(
        capsys,
        "sweep",
        "--family",
        "n11",
        "--n-from",
        "2",
        "--n-to",
        "5",
        "--csv",
        str(csv_path),
        "--json",
        str(json_path),
    )
    assert rc == 0
    assert doc["instances"] == 4 and doc["failures"] == []
    assert csv_path.read_text().startswith("n,p,q,")
    assert len(json.loads(json_path.read_text())) == 4


@pytest.mark.parametrize("joined", [False, True])
def test_sweep_refuses_one_path_for_both_reports(tmp_path, capsys, joined):
    # --out joins the relative --csv onto the directory the --json names
    out_flag = ("--out", str(tmp_path)) if joined else ()
    csv_arg = "r.txt" if joined else str(tmp_path / "r.txt")
    rc, out, err = _run(capsys, *out_flag, "sweep", "--family", "n11",
                        "--n-from", "2", "--n-to", "3", "--csv", csv_arg,
                        "--json", str(tmp_path / "r.txt"))
    assert (rc, out) == (2, "")
    assert err.startswith("error: two files cannot share the path")
    assert os.listdir(tmp_path) == []


def test_sweep_files_are_identical_for_two_workers(tmp_path, capsys):
    docs = []
    for workers in ("1", "2"):
        csv_path = tmp_path / f"w{workers}.csv"
        json_path = tmp_path / f"w{workers}.json"
        rc, doc, _ = _run_json(
            capsys, "--workers", workers, "sweep", "--family", "n11",
            "--n-from", "2", "--n-to", "12", "--csv", str(csv_path),
            "--json", str(json_path),
        )
        assert rc == 0 and doc["instances"] == 11
        docs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert docs[0] == docs[1]
    assert sorted(os.listdir(tmp_path)) == ["w1.csv", "w1.json", "w2.csv", "w2.json"]


def test_verify_passes_n11(capsys):
    rc, doc, _ = _run_json(
        capsys, "verify", "--family", "n11", "--n-from", "20", "--n-to", "60"
    )
    assert rc == 0
    assert doc["passed"] is True
    assert doc["predicted_exponent"] == [1, 1]
    assert doc["sample_count"] == 41
    assert abs(doc["fitted_slope"] + 1.0) <= doc["tolerance"] == 0.1


def test_verify_fails_without_prediction(capsys):
    rc, doc, _ = _run_json(
        capsys,
        "verify",
        "--family",
        "pq",
        "--p",
        "2",
        "--q",
        "3",
        "--n-from",
        "2",
        "--n-to",
        "5",
    )
    assert rc == 1
    assert doc["passed"] is False
    assert "no prediction" in doc["reason"]


def test_cone_hilbert(capsys):
    rc, doc, _ = _run_json(
        capsys, "cone", "hilbert", "--rows", "0 1; 3 -2", "--bound", "8"
    )
    assert rc == 0
    assert doc["omega"] == [[1, 0], [1, 1], [2, 3]]
    assert doc["omega0"] == [[1, 1], [2, 1], [3, 3], [3, 4], [4, 4]]
    assert doc["facets"] == [[0], [2]]


def test_cone_decompose(capsys):
    rc, doc, _ = _run_json(
        capsys,
        "cone",
        "decompose",
        "--rows",
        "1 0 0; 0 1 0; 1 0 -1; 0 1 -1",
        "--bound",
        "6",
        "--point",
        "7,9,2",
    )
    assert rc == 0
    assert doc["seed"] == [1, 1, -1]
    assert doc["coefficients"] == [3, 2, 0, 6]


def test_cone_split(capsys):
    rc, doc, _ = _run_json(
        capsys,
        "cone",
        "split",
        "--rows",
        "1 0 0; 0 1 0; 1 0 -1; 0 1 -1",
        "--bound",
        "6",
        "--point",
        "7,9,2",
        "--norm",
        "thurston",
    )
    assert rc == 0
    assert doc["alpha"] == [1, 3, -4]
    assert doc["beta"] == [1, 1, 1]
    assert doc["n"] == 6
    assert doc["degenerate"] is False


def test_zfold_loop(tmp_path, capsys):
    theta = CochainGraph(2, ((0, 1, -1), (0, 1, 0), (0, 1, 1)))
    path = tmp_path / "theta.json"
    path.write_text(export_cochain_json(theta))
    rc, doc, _ = _run_json(capsys, "zfold", "loop", "--json", str(path))
    assert rc == 0
    assert doc["verified"] is True
    assert doc["loop_length"] == 4
    assert doc["lemma_R"] == 4 and doc["length_bound"] == 8


def test_zfold_random(capsys):
    rc, docs, _ = _run_json(
        capsys,
        "--seed",
        "5",
        "zfold",
        "random",
        "--vertices",
        "8",
        "--cochain-bound",
        "2",
        "--count",
        "3",
    )
    assert rc == 0
    assert [d["seed"] for d in docs] == [5, 6, 7]
    assert all(d["verified"] for d in docs)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_zfold_random_refuses_a_count_below_one(capsys, count):
    rc, out, err = _run(
        capsys, "zfold", "random", "--vertices", "8", "--cochain-bound", "2",
        "--count", count,
    )
    assert rc == 2 and out == ""
    assert err == f"error: --count must be at least 1, got {count}\n"


MAGIC_ROWS_ARG = "1 0 0; 0 1 0; 1 0 -1; 0 1 -1"


@pytest.mark.parametrize(
    ("argv", "err"),
    [
        (("cone", "decompose", "--rows", MAGIC_ROWS_ARG, "--bound", "6",
          "--point", "7,9"), "error: expected 3 integers, got 2: '7,9'\n"),
        (("cone", "split", "--rows", MAGIC_ROWS_ARG, "--bound", "6",
          "--point", "7,9,2,1"), "error: expected 3 integers, got 4: '7,9,2,1'\n"),
        (("cone", "decompose", "--rows", MAGIC_ROWS_ARG, "--bound", "6",
          "--point", "7,9,2.5"), "error: expected 3 integers, got '7,9,2.5'\n"),
        (("cone", "hilbert", "--rows", ";", "--bound", "3"),
         "error: no inequality rows in ';'\n"),
        (("cone", "hilbert", "--rows", "1 0; 0 x", "--bound", "3"),
         "error: expected rows of integers, got '1 0; 0 x'\n"),
        (("bounds", "class", "--plus", "1,8,4.0"),
         "error: expected 3 integers, got '1,8,4.0'\n"),
        (("sweep", "--family", "pq", "--q", "2", "--n-from", "2", "--n-to", "3"),
         "error: the pq family needs --p and --q\n"),
        (("sweep", "--family", "n11", "--p", "2", "--q", "3", "--n-from", "2",
          "--n-to", "3"), "error: the n11 family takes no p or q\n"),
        (("verify", "--family", "n11", "--p", "2", "--q", "3", "--n-from", "2",
          "--n-to", "3"), "error: the n11 family takes no p or q\n"),
        (("sweep", "--family", "n11", "--p", "2", "--n-from", "2", "--n-to", "3"),
         "error: the n11 family takes no p or q\n"),
        (("verify", "--family", "n11", "--n-from", "2", "--n-to", "8",
          "--tolerance", "inf", "--csv", "x.csv"),
         "error: tolerance must be a finite number >= 0, not inf\n"),
        (("verify", "--family", "n11", "--n-from", "2", "--n-to", "8",
          "--tolerance", "nan"),
         "error: tolerance must be a finite number >= 0, not nan\n"),
        (("verify", "--family", "n11", "--n-from", "2", "--n-to", "3",
          "--csv", "v.csv"),
         "error: need at least 4 instances to fit, got 2\n"),
        (("digraph", "build", "--j", "8", "--k", "4", "--json", "same.out",
          "--dot", "same.out"),
         "error: two files cannot share the path same.out\n"),
        # the JSON document is written to g.json.part, and goes with it
        # when the DOT file cannot be written
        (("digraph", "build", "--j", "3", "--k", "2", "--json", "g.json",
          "--dot", "missing/g.dot"),
         "error: cannot write missing/g.dot: No such file or directory\n"),
        # --out is made only once every refusal has passed
        (("--out", "d1", "sweep", "--family", "pq", "--p", "1", "--q", "2",
          "--n-from", "2", "--n-to", "100", "--csv", "a.csv"),
         "error: largest digraph has 20101 vertices, over the cap 5000; pass "
         "allow_large (--allow-large) to run anyway\n"),
        (("--out", "d2", "digraph", "build", "--j", "3", "--k", "2", "--json",
          "same", "--dot", "same"),
         "error: two files cannot share the path d2/same\n"),
        # the same refusal as the console-script smoke step in CI
        (("cone", "hilbert", "--rows", "1 0 0; -1 0 0", "--bound", "3"),
         "error: no x has A x > 0 (the sum of the extreme rays is not strictly "
         "positive on every row): the cone has empty interior\n"),
    ],
    ids=["point-short", "point-long", "point-not-int", "rows-empty",
         "rows-not-int", "plus-not-int", "pq-without-p",
         "sweep-n11-with-pq", "verify-n11-with-pq", "sweep-n11-with-p",
         "verify-infinite-tolerance", "verify-nan-tolerance", "verify-too-few",
         "build-json-and-dot-one-path", "build-dot-dir-missing", "out-sweep-over-cap",
         "out-build-one-path", "empty-interior"],
)
def test_malformed_arguments_exit_2(capsys, tmp_path, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, *argv) == (2, "", err)
    assert not any(tmp_path.iterdir())


NUMPY_STAYS_OUT = """
import sys

def loaded():
    return [m for m in ("numpy", "multiprocessing", "concurrent.futures",
                        "fibercone.cone_monoid", "fibercone.zfold_cover")
            if m in sys.modules]

import fibercone
assert not loaded(), ("import fibercone", loaded())
import fibercone.cli
assert not loaded(), ("import fibercone.cli", loaded())
assert fibercone.cli.main(["bounds", "class", "--plus", "1,8,4"]) == 0
assert not loaded(), ("bounds class", loaded())
assert fibercone.cli.main(["sweep", "--family", "n11", "--n-from", "2",
                           "--n-to", "5"]) == 0
assert not loaded(), ("sweep", loaded())
assert fibercone.ConeSpec.__module__ == "fibercone.cone_monoid"
assert "fibercone.cone_monoid" in sys.modules
"""


def test_cli_paths_do_not_import_numpy():
    # a fresh interpreter, since this one has numpy from other tests; only
    # image_after(..., method="powers") may load it, and only a sweep that
    # starts a process pool loads multiprocessing; cone_monoid and
    # zfold_cover load on first use of one of their names
    src = str(Path(fibercone.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_STAYS_OUT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert '"mixing_r": 31' in done.stdout


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["class", "info", "--nonsense", "1"])


def test_sweep_is_the_one_family_verb(capsys):
    # family sweeps have one verb, sweep; bounds takes only class
    with pytest.raises(SystemExit):
        main(["bounds", "family", "--family", "n11", "--n-from", "2", "--n-to", "3"])
