r"""
Command-line front end: classes, digraphs, bounds, cones, covers, sweeps.

Verbs:

  class info       invariants of one integral class (JSON to stdout)
  digraph build    construct a transition digraph, emit JSON/DOT
  digraph certify  check the four canonical walk certificates
  analyze          exponent / image / avoid on a digraph
  bounds class     one class end to end: invariants, exponent and bounds
  cone             Hilbert basis, interior decomposition, arithmetic split
  zfold            short loops in Z-fold covers of cubic cochain graphs
  sweep            family experiment driver (CSV/JSON emission)
  verify           exponent-law fit; exit code 0 only when the verdict passes

Global flags: --workers (process fan-out for sweeps), --seed (random graph
generation), --out (directory for output files).  All structured output is
JSON with sorted keys; rationals appear as [numerator, denominator].
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import cache
from typing import Any, Iterator, Sequence

from . import bounds as bounds_mod
from . import digraph_analysis, magic_classes, sweep
from . import traintrack_digraph as ttd

__all__ = ["main"]


def _emit(obj: Any) -> None:
    print(sweep.json_text(obj))


def _int_tokens(tokens: list[str], what: str, text: str) -> tuple[int, ...]:
    """The tokens as ints, else a ValueError naming the whole argument text."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"expected {what}, got {text!r}") from None


def _parse_ints(text: str, expect: int | None = None) -> tuple[int, ...]:
    what = "integers" if expect is None else f"{expect} integers"
    parts = _int_tokens(text.replace(",", " ").split(), what, text)
    if expect is not None and len(parts) != expect:
        raise ValueError(f"expected {what}, got {len(parts)}: {text!r}")
    return parts


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    rows = tuple(
        _int_tokens(chunk.split(), "rows of integers", text)
        for chunk in text.split(";")
        if chunk.strip()
    )
    if not rows:
        raise ValueError(f"no inequality rows in {text!r}")
    return rows


def _out_paths(args: argparse.Namespace, *paths: str | None) -> list[str | None]:
    """The paths, with relative ones joined onto --out.  That directory is
    made here, once the paths pass the writer's refusals, so a command
    calls this after its own refusals and leaves no directory when refused."""
    paths = [os.path.join(args.out, p) if args.out and p else p for p in paths]
    if args.out and any(paths):
        sweep._refuse_paths([path for path in paths if path])
        os.makedirs(args.out, exist_ok=True)
    return paths


# ---------------------------------------------------------------- class


def _cmd_class_info(args: argparse.Namespace) -> int:
    if (args.xyz is None) == (args.plus is None):
        raise ValueError("give exactly one of --xyz X,Y,Z or --plus I,J,K")
    record: dict[str, Any] = {}
    if args.plus is not None:
        i, j, k = _parse_ints(args.plus, 3)
        plus = magic_classes.PlusClass(i, j, k)
        cls = magic_classes.plus_to_xyz(plus)
        record["plus"] = [i, j, k]
    else:
        x, y, z = _parse_ints(args.xyz, 3)
        cls = magic_classes.IntegralClass(x, y, z)
    record["xyz"] = list(cls.coords())
    in_cone = magic_classes.in_fibered_cone(cls)
    record["in_cone"] = in_cone
    record["primitive"] = magic_classes.is_primitive(cls)
    record.update(
        norm=None, boundary=None, per_torus=None, genus=None, projective=None
    )
    if in_cone:
        record["norm"] = magic_classes.thurston_norm(cls)
        proj = magic_classes.projectivize(cls)
        record["projective"] = list(proj.coords())
    if in_cone and record["primitive"]:
        inv = magic_classes.fiber_invariants(cls)
        record.update(
            boundary=inv.boundary_count,
            per_torus=list(inv.per_torus_counts),
            genus=inv.genus,
        )
    _emit(record)
    return 0


# ---------------------------------------------------------------- digraph


def _cmd_digraph_build(args: argparse.Namespace) -> int:
    g = ttd.magic_digraph(args.j, args.k)
    exports = [
        (path, export)
        for path, export in ((args.json, ttd.export_json), (args.dot, ttd.export_dot))
        if path
    ]
    if not exports:
        print(ttd.export_json(g))
        return 0
    # every document is built before any file is opened
    texts = [export(g) for _, export in exports]
    written = _out_paths(args, *(path for path, _ in exports))
    with sweep._write_parts(written) as files:
        for path, file, text in zip(written, files, texts):
            sweep._named(path, file.write, text)
    _emit({"vertices": g.vertex_count, "edges": g.edge_count, "written": written})
    return 0


def _cmd_digraph_certify(args: argparse.Namespace) -> int:
    certs = ttd.certify_canonical_walks(ttd.MagicDigraphSpec(args.j, args.k))
    _emit({"j": args.j, "k": args.k, "lengths": certs.lengths, **asdict(certs)})
    return 0


# ---------------------------------------------------------------- analyze


def _load_digraph(args: argparse.Namespace):
    given_jk = args.j is not None and args.k is not None
    if (args.json is not None) == given_jk:
        raise ValueError("give either --json FILE or both --j and --k")
    if args.json is not None:
        with open(args.json, encoding="utf-8") as fh:
            return ttd.import_digraph(fh.read())
    return ttd.magic_digraph(args.j, args.k)


def _check_labels(g: ttd.Digraph, *labels: str) -> None:
    """Refuse, as a ValueError, a label that names no vertex of g."""
    try:
        for label in labels:
            g.index(label)
    except KeyError as exc:
        raise ValueError(*exc.args) from None


def _cmd_analyze_exponent(args: argparse.Namespace) -> int:
    g = _load_digraph(args)
    r = digraph_analysis.primitivity_exponent(g)
    _emit({"vertices": g.vertex_count, "exponent": r})
    return 0


def _cmd_analyze_image(args: argparse.Namespace) -> int:
    g = _load_digraph(args)
    _check_labels(g, args.source)
    image = digraph_analysis.image_after(g, args.source, args.steps)
    _emit({"source": args.source, "steps": args.steps, "image": sorted(image)})
    return 0


def _cmd_analyze_avoid(args: argparse.Namespace) -> int:
    g = _load_digraph(args)
    _check_labels(g, args.source, args.avoided)
    witness = digraph_analysis.last_avoidance(g, args.source, args.avoided)
    upper_lac, upper_lc = (
        bounds_mod.avoidance_upper(witness.steps)
        if witness.steps >= 1
        else (None, None)
    )
    _emit(
        {
            "source": witness.source,
            "avoided": witness.avoided,
            "steps": witness.steps,
            "upper_lAC": upper_lac,
            "upper_lC": upper_lc,
        }
    )
    return 0


# ---------------------------------------------------------------- bounds


def _cmd_bounds_class(args: argparse.Namespace) -> int:
    i, j, k = _parse_ints(args.plus, 3)
    report = sweep.class_report(magic_classes.PlusClass(i, j, k))
    fields = sweep.report_record(report).items()
    _emit({"plus": [i, j, k], **{f: v for f, v in fields if v is not None}})
    return 2 if report.error is not None else 0


def _sweep_config(args: argparse.Namespace) -> sweep.SweepConfig:
    family = args.family
    if family == "pq" and (args.p is None or args.q is None):
        raise ValueError("the pq family needs --p and --q")
    return sweep.SweepConfig(
        family=family,
        n_start=args.n_from,
        n_stop=args.n_to,
        p=args.p,
        q=args.q,
        worker_count=args.workers,
        allow_large=args.allow_large,
    )


def _kept(reports: Iterator, kept: list) -> Iterator:
    """reports passed through one by one, each also appended to kept."""
    for rep in reports:
        kept.append(rep)
        yield rep


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    reports: list = []
    stream = _kept(sweep.iter_sweep(cfg), reports)
    csv_path, json_path = _out_paths(args, args.csv, args.json)
    written = []
    if csv_path is None and json_path is None:
        writer = sweep.ReportWriter(sys.stdout, "csv")
        for rep in stream:
            writer.write(rep)
        writer.close()
    else:
        written = sweep.report_emit(stream, csv_path, json_path)
    failures = [rep.n for rep in reports if rep.error is not None]
    if written:
        _emit(
            {
                "instances": len(reports),
                "failures": failures,
                "written": written,
            }
        )
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    # refused before the sweep runs, so that no report file is written:
    # the tolerance, and a range too short for the fit's 4 samples
    sweep.check_tolerance(args.tolerance)
    count = cfg.n_stop - cfg.n_start + 1
    if count < 4:
        raise ValueError(f"need at least 4 instances to fit, got {count}")
    reports: list = []
    stream = _kept(sweep.iter_sweep(cfg), reports)
    sweep.report_emit(stream, *_out_paths(args, args.csv, args.json))
    verdict = sweep.verify_exponent_law(
        reports, which=args.which, tolerance=args.tolerance
    )
    _emit(asdict(verdict))
    return 0 if verdict.passed else 1


# ---------------------------------------------------------------- cone


def _cone_data(args: argparse.Namespace) -> cone_monoid.HilbertData:
    from . import cone_monoid

    spec = cone_monoid.ConeSpec(_parse_rows(args.rows))
    return cone_monoid.hilbert_data(spec, args.bound)


def _cmd_cone_hilbert(args: argparse.Namespace) -> int:
    data = _cone_data(args)
    _emit(
        {
            "rows": [list(r) for r in data.cone.rows],
            "omega": [list(p) for p in data.omega],
            "omega0": [list(p) for p in data.omega0],
            "facets": [sorted(f) for f in data.facets],
            "facet_row_indices": list(data.facet_row_indices),
        }
    )
    return 0


def _cmd_cone_decompose(args: argparse.Namespace) -> int:
    from . import cone_monoid

    data = _cone_data(args)
    point = _parse_ints(args.point, data.cone.dim)
    decomp = cone_monoid.decompose_interior(point, data)
    _emit(
        {
            "point": list(point),
            "seed": list(decomp.seed),
            "omega": [list(p) for p in data.omega],
            "coefficients": list(decomp.coefficients),
        }
    )
    return 0


def _cmd_cone_split(args: argparse.Namespace) -> int:
    from . import cone_monoid

    data = _cone_data(args)
    point = _parse_ints(args.point, data.cone.dim)
    norm = (
        cone_monoid.thurston_form if args.norm == "thurston" else cone_monoid.l1_norm
    )
    split = cone_monoid.arithmetic_split(point, data, norm)
    _emit(
        {
            "point": list(point),
            "alpha": list(split.alpha),
            "beta": list(split.beta),
            "n": split.n,
            "seed": list(split.decomposition.seed),
            "coefficients": list(split.decomposition.coefficients),
            "degenerate": split.degenerate,
        }
    )
    return 0


# ---------------------------------------------------------------- zfold


def _zfold_record(g: zfold_cover.CochainGraph) -> dict[str, Any]:
    from . import zfold_cover

    loop = zfold_cover.find_short_loop(g)
    ok, reason = zfold_cover.verify_loop(g, loop)
    r = zfold_cover.lemma_R(g.cochain_bound, g.edge_count)
    return {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "cochain_bound": g.cochain_bound,
        "lemma_R": r,
        "length_bound": 2 * r,
        "loop_start": list(loop.start),
        "loop_steps": [[eidx, fwd] for eidx, fwd in loop.steps],
        "loop_length": loop.length,
        "verified": ok,
        "reason": reason,
    }


def _cmd_zfold_loop(args: argparse.Namespace) -> int:
    from . import zfold_cover

    with open(args.json, encoding="utf-8") as fh:
        g = zfold_cover.import_cochain_graph(fh.read())
    record = _zfold_record(g)
    _emit(record)
    return 0 if record["verified"] else 1


def _cmd_zfold_random(args: argparse.Namespace) -> int:
    from . import zfold_cover

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    records = []
    all_ok = True
    for i in range(args.count):
        g = zfold_cover.random_cubic_cochain(
            args.vertices, args.cochain_bound, args.seed + i
        )
        record = _zfold_record(g)
        record["seed"] = args.seed + i
        records.append(record)
        all_ok = all_ok and record["verified"]
    _emit(records if args.count > 1 else records[0])
    return 0 if all_ok else 1


# ---------------------------------------------------------------- parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it as it
    was, and building it costs more than a small command."""
    parser = argparse.ArgumentParser(
        prog="fibercone",
        description="Fibered classes, transition digraphs, and translation "
        "length bounds for the magic three-manifold.",
    )
    parser.add_argument("--workers", type=int, default=1, help="sweep processes")
    parser.add_argument("--seed", type=int, default=0, help="random graph seed")
    parser.add_argument("--out", default=None, help="directory for output files")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_class = sub.add_parser("class", help="integral class invariants")
    class_sub = p_class.add_subparsers(dest="action", required=True)
    p_info = class_sub.add_parser("info", help="invariants of one class")
    p_info.add_argument("--xyz", help="coordinates X,Y,Z")
    p_info.add_argument("--plus", help="plus-parameters I,J,K")
    p_info.set_defaults(func=_cmd_class_info)

    p_dig = sub.add_parser("digraph", help="transition digraphs")
    dig_sub = p_dig.add_subparsers(dest="action", required=True)
    p_build = dig_sub.add_parser("build", help="construct and export")
    p_build.add_argument("--j", type=int, required=True)
    p_build.add_argument("--k", type=int, required=True)
    p_build.add_argument("--dot", help="write DOT here")
    p_build.add_argument("--json", help="write JSON here")
    p_build.set_defaults(func=_cmd_digraph_build)
    p_cert = dig_sub.add_parser("certify", help="check the canonical walks")
    p_cert.add_argument("--j", type=int, required=True)
    p_cert.add_argument("--k", type=int, required=True)
    p_cert.set_defaults(func=_cmd_digraph_certify)

    p_an = sub.add_parser("analyze", help="digraph analysis")
    an_sub = p_an.add_subparsers(dest="action", required=True)
    for name, func in (
        ("exponent", _cmd_analyze_exponent),
        ("image", _cmd_analyze_image),
        ("avoid", _cmd_analyze_avoid),
    ):
        p_cmd = an_sub.add_parser(name)
        p_cmd.add_argument("--json", help="digraph JSON document")
        p_cmd.add_argument("--j", type=int, help="family parameter j")
        p_cmd.add_argument("--k", type=int, help="family parameter k")
        if name == "image":
            p_cmd.add_argument("--source", required=True)
            p_cmd.add_argument("--steps", type=int, required=True)
        if name == "avoid":
            p_cmd.add_argument("--source", required=True)
            p_cmd.add_argument("--avoided", required=True)
        p_cmd.set_defaults(func=func)

    p_bounds = sub.add_parser("bounds", help="translation length bounds")
    bounds_sub = p_bounds.add_subparsers(dest="action", required=True)
    p_bc = bounds_sub.add_parser("class", help="one class end to end")
    p_bc.add_argument("--plus", required=True, help="plus-parameters I,J,K")
    p_bc.set_defaults(func=_cmd_bounds_class)

    p_cone = sub.add_parser("cone", help="lattice monoids of rational cones")
    cone_sub = p_cone.add_subparsers(dest="action", required=True)
    p_ch = cone_sub.add_parser("hilbert", help="generators and interior seeds")
    _add_cone_args(p_ch)
    p_ch.set_defaults(func=_cmd_cone_hilbert)
    p_cd = cone_sub.add_parser("decompose", help="interior point decomposition")
    _add_cone_args(p_cd)
    p_cd.add_argument("--point", required=True, help="lattice point X,Y[,Z]")
    p_cd.set_defaults(func=_cmd_cone_decompose)
    p_cs = cone_sub.add_parser("split", help="heaviest-generator split")
    _add_cone_args(p_cs)
    p_cs.add_argument("--point", required=True, help="lattice point X,Y[,Z]")
    p_cs.add_argument("--norm", choices=("thurston", "l1"), default="l1")
    p_cs.set_defaults(func=_cmd_cone_split)

    p_z = sub.add_parser("zfold", help="short loops in Z-fold covers")
    z_sub = p_z.add_subparsers(dest="action", required=True)
    p_zl = z_sub.add_parser("loop", help="loop for a graph document")
    p_zl.add_argument("--json", required=True, help="cochain graph JSON")
    p_zl.set_defaults(func=_cmd_zfold_loop)
    p_zr = z_sub.add_parser("random", help="loops on random cubic graphs")
    p_zr.add_argument("--vertices", type=int, required=True)
    p_zr.add_argument("--cochain-bound", type=int, required=True)
    p_zr.add_argument("--count", type=int, default=1)
    p_zr.set_defaults(func=_cmd_zfold_random)

    p_sweep = sub.add_parser("sweep", help="family experiment driver")
    _add_family_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="exponent-law verdict")
    _add_family_args(p_ver)
    p_ver.add_argument("--which", choices=("lower", "upper"), default="upper")
    p_ver.add_argument("--tolerance", type=float, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def _add_family_args(p_cmd: argparse.ArgumentParser) -> None:
    p_cmd.add_argument("--family", choices=("pq", "n11"), default="pq")
    p_cmd.add_argument("--p", type=int, help="first exponent (pq family)")
    p_cmd.add_argument("--q", type=int, help="second exponent (pq family)")
    p_cmd.add_argument("--n-from", type=int, required=True)
    p_cmd.add_argument("--n-to", type=int, required=True)
    p_cmd.add_argument("--csv", help="write CSV report here")
    p_cmd.add_argument(
        "--allow-large", action="store_true", help="lift the digraph size cap"
    )
    p_cmd.add_argument("--json", help="write JSON report here")


def _add_cone_args(p_cmd: argparse.ArgumentParser) -> None:
    p_cmd.add_argument(
        "--rows", required=True, help='inequality rows, e.g. "0 1; 3 -2"'
    )
    p_cmd.add_argument(
        "--bound", type=int, default=10, help="largest generator coordinate accepted"
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
