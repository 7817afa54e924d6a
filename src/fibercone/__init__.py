"""Fibered classes of the magic three-manifold: invariants, transition
digraphs, and rigorous curve-complex translation length bounds, plus the
supporting lattice-cone monoid machinery and the short-loop graph lemma.

class_report turns one (1, j, k)+ class into a BoundReport; iter_sweep and
run_sweep run it over a family, and report_record / json_text serialize the
result.  The README's library tour imports only names listed in __all__."""

from .bounds import (
    REGIMES,
    BoundReport,
    UncoveredRegimeError,
    arithmetic_upper,
    avoidance_upper,
    cone_constant,
    cycle_cover_coefficients,
    fit_exponent,
    gadre_tsai_lower,
    k_pq,
    mixing_exponent_cap,
    regime_of,
)
from .digraph_analysis import (
    AvoidanceWitness,
    NeverCoversError,
    NotPrimitiveError,
    avoidance_at,
    covering_time,
    image_after,
    last_avoidance,
    primitivity_exponent,
)
from .magic_classes import (
    FiberInvariants,
    IntegralClass,
    PlusClass,
    ProjectiveClass,
    fiber_invariants,
    in_fibered_cone,
    is_primitive,
    plus_to_xyz,
    projective_limit_family,
    projectivize,
    thurston_norm,
)
from .sweep import (
    CSV_COLUMNS,
    FitVerdict,
    ReportWriter,
    SweepConfig,
    class_report,
    iter_sweep,
    json_text,
    report_csv,
    report_emit,
    report_json,
    report_record,
    run_sweep,
    verify_exponent_law,
)
from .traintrack_digraph import (
    Digraph,
    MagicDigraphSpec,
    WalkCertificates,
    build_magic_digraph,
    certify_canonical_walks,
    export_dot,
    import_digraph,
    magic_digraph,
)
from .traintrack_digraph import export_json as export_digraph_json

__version__ = "1.0.0"

# No sweep or class report uses cone_monoid or zfold_cover, so their names
# are loaded on first use (PEP 562) and cost nothing at import.
_LAZY = dict.fromkeys(
    "ArithmeticSplit BoundTooSmallError ConeSpec EmptyInteriorError HilbertData "
    "InteriorDecomposition NoDecompositionError Point arithmetic_split "
    "decompose_interior hilbert_basis hilbert_data hilbert_data_from_omega "
    "l1_norm thurston_form".split(),
    "cone_monoid",
) | dict.fromkeys(
    "CochainGraph CoverLoop export_cochain_json find_short_loop "
    "import_cochain_graph lemma_R random_cubic_cochain verify_loop "
    "window_radius".split(),
    "zfold_cover",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = getattr(module, "export_json" if name == "export_cochain_json" else name)
    globals()[name] = value
    return value


__all__ = [
    "ArithmeticSplit",
    "AvoidanceWitness",
    "BoundReport",
    "BoundTooSmallError",
    "CSV_COLUMNS",
    "CochainGraph",
    "ConeSpec",
    "CoverLoop",
    "Digraph",
    "EmptyInteriorError",
    "FiberInvariants",
    "FitVerdict",
    "HilbertData",
    "IntegralClass",
    "InteriorDecomposition",
    "MagicDigraphSpec",
    "NeverCoversError",
    "NoDecompositionError",
    "NotPrimitiveError",
    "PlusClass",
    "Point",
    "ProjectiveClass",
    "REGIMES",
    "ReportWriter",
    "SweepConfig",
    "UncoveredRegimeError",
    "WalkCertificates",
    "arithmetic_split",
    "arithmetic_upper",
    "avoidance_at",
    "avoidance_upper",
    "build_magic_digraph",
    "certify_canonical_walks",
    "class_report",
    "cone_constant",
    "covering_time",
    "cycle_cover_coefficients",
    "decompose_interior",
    "export_cochain_json",
    "export_digraph_json",
    "export_dot",
    "fiber_invariants",
    "find_short_loop",
    "fit_exponent",
    "gadre_tsai_lower",
    "hilbert_basis",
    "hilbert_data",
    "hilbert_data_from_omega",
    "image_after",
    "import_cochain_graph",
    "import_digraph",
    "in_fibered_cone",
    "is_primitive",
    "iter_sweep",
    "json_text",
    "k_pq",
    "l1_norm",
    "last_avoidance",
    "lemma_R",
    "magic_digraph",
    "mixing_exponent_cap",
    "plus_to_xyz",
    "primitivity_exponent",
    "projective_limit_family",
    "projectivize",
    "random_cubic_cochain",
    "regime_of",
    "report_csv",
    "report_emit",
    "report_json",
    "report_record",
    "run_sweep",
    "sweep",
    "thurston_form",
    "thurston_norm",
    "verify_exponent_law",
    "verify_loop",
    "window_radius",
]
