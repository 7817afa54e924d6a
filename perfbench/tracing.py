"""In-memory spans around the public functions of each fibercone module.

Each wrapper replaces a function at the name its caller looks up: the sweep
imports its helpers by name (``fibercone.sweep.primitivity_exponent``), while
the CLI reaches them through module attributes
(``fibercone.cli.digraph_analysis.last_avoidance`` is the attribute of
``fibercone.digraph_analysis``).  Nothing inside ``src/`` changes.

A span records its name, the per-layer metric it feeds, start, end, the
span that caused it and any counts taken from the result.  A layer's self
time is its span's duration minus the time its child spans cover.  Spans
stay in memory while the workload runs and are written out when it ends.
Wrappers record only while ``Recorder.active`` is set, so the output checks
that run after the timed region leave no spans.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, per-layer time metric, counter metric, counter of result)
_Target = tuple[str, str, str, str | None, Callable[[Any], int] | None]

_SWEEP_TARGETS: list[_Target] = [
    ("fibercone.sweep", "run_sweep", "sweep.self_s", "sweep.failed",
     lambda reports: sum(rep.error is not None for rep in reports)),
    ("fibercone.sweep", "verify_exponent_law", "sweep.verify_s", None, None),
    ("fibercone.sweep", "report_emit", "sweep.emit_s", None, None),
    ("fibercone.sweep", "plus_to_xyz", "magic_classes.s", None, None),
    ("fibercone.sweep", "fiber_invariants", "magic_classes.s", None, None),
    ("fibercone.sweep", "magic_digraph", "traintrack_digraph.build_s",
     "traintrack_digraph.vertices", lambda g: g.vertex_count),
    ("fibercone.sweep", "primitivity_exponent", "digraph_analysis.exponent_s",
     "digraph_analysis.exponent_r", lambda r: r),
    ("fibercone.sweep", "avoidance_at", "digraph_analysis.avoidance_at_s",
     None, None),
    ("fibercone.sweep", "last_avoidance", "digraph_analysis.last_avoidance_s",
     "digraph_analysis.avoid_m", lambda w: w.steps),
    ("fibercone.sweep", "regime_of", "bounds.s", None, None),
    ("fibercone.sweep", "mixing_exponent_cap", "bounds.s", None, None),
    ("fibercone.sweep", "gadre_tsai_lower", "bounds.s", None, None),
    ("fibercone.sweep", "avoidance_upper", "bounds.s", None, None),
    ("fibercone.sweep", "fit_exponent", "bounds.s", None, None),
]

# The CLI looks these up as attributes of the modules themselves.
_MODULE_TARGETS: list[_Target] = [
    ("fibercone.cli", "main", "cli.self_s", None, None),
    ("fibercone.magic_classes", "plus_to_xyz", "magic_classes.s", None, None),
    ("fibercone.magic_classes", "fiber_invariants", "magic_classes.s",
     None, None),
    ("fibercone.traintrack_digraph", "magic_digraph",
     "traintrack_digraph.build_s", "traintrack_digraph.vertices",
     lambda g: g.vertex_count),
    ("fibercone.digraph_analysis", "primitivity_exponent",
     "digraph_analysis.exponent_s", "digraph_analysis.exponent_r",
     lambda r: r),
    ("fibercone.digraph_analysis", "last_avoidance",
     "digraph_analysis.last_avoidance_s", "digraph_analysis.avoid_m",
     lambda w: w.steps),
    ("fibercone.bounds", "gadre_tsai_lower", "bounds.s", None, None),
    ("fibercone.bounds", "avoidance_upper", "bounds.s", None, None),
    ("fibercone.cone_monoid", "hilbert_data", "cone_monoid.hilbert_s",
     None, None),
    ("fibercone.cone_monoid", "decompose_interior", "cone_monoid.decompose_s",
     "cone_monoid.points", lambda _: 1),
    ("fibercone.cone_monoid", "arithmetic_split", "cone_monoid.split_s",
     None, None),
    ("fibercone.zfold_cover", "find_short_loop", "zfold_cover.find_loop_s",
     "zfold_cover.loop_length", lambda loop: loop.length),
    ("fibercone.zfold_cover", "verify_loop", "zfold_cover.verify_s",
     None, None),
]

ENGINE_METRIC = "digraph_analysis.engine_s"

# Every per-layer metric of a traced run, with its unit.  Spans give all
# but the last three: the pass process measures its children's CPU, a pass
# of its own the tracemalloc peak, and run.py the tracing overhead.
LAYER_METRICS = {
    "traintrack_digraph.build_s": "s",
    "traintrack_digraph.vertices": "count",
    ENGINE_METRIC: "s",
    "digraph_analysis.exponent_s": "s",
    "digraph_analysis.exponent_r": "count",
    "digraph_analysis.avoidance_at_s": "s",
    "digraph_analysis.last_avoidance_s": "s",
    "digraph_analysis.avoid_m": "count",
    "magic_classes.s": "s",
    "bounds.s": "s",
    "sweep.self_s": "s",
    "sweep.emit_s": "s",
    "sweep.verify_s": "s",
    "sweep.failed": "count",
    "cli.self_s": "s",
    "cone_monoid.hilbert_s": "s",
    "cone_monoid.decompose_s": "s",
    "cone_monoid.split_s": "s",
    "cone_monoid.points": "count",
    "zfold_cover.find_loop_s": "s",
    "zfold_cover.verify_s": "s",
    "zfold_cover.loop_length": "count",
    "sweep.worker_cpu_s": "s",
    "digraph_analysis.exponent_peak_mb": "MB",
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans of one workload process, kept in memory until it ends."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def _open(self, name: str, metric: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "metric": metric,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, target: _Target) -> None:
        """Replace one function at its caller's lookup name with a wrapper."""
        module_name, attr, metric, counter, count = target
        module = importlib.import_module(module_name)
        inner = getattr(module, attr)
        name = f"{inner.__module__.rsplit('.', 1)[-1]}.{attr}"
        build_engine = attr == "magic_digraph"
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return inner(*args, **kwargs)
            span = recorder._open(name, metric)
            try:
                result = inner(*args, **kwargs)
            finally:
                recorder._close(span)
            if counter is not None:
                span["counts"][counter] = count(result)
            if build_engine:
                recorder._engine_span(result)
            return result

        traced.__wrapped__ = inner
        setattr(module, attr, traced)

    def _engine_span(self, g) -> None:
        """Build the per-digraph analysis state in a span of its own.

        A zero-step image_after fills the cache that the exponent and
        avoidance calls would otherwise build inside their own spans.
        """
        from fibercone import digraph_analysis

        span = self._open("digraph_analysis.engine", ENGINE_METRIC)
        try:
            digraph_analysis.image_after(g, g.labels[0], 0)
        finally:
            self._close(span)

    def install(self) -> None:
        for target in _SWEEP_TARGETS + _MODULE_TARGETS:
            self.wrap(target)

    def layer_metrics(self) -> dict[str, float]:
        """Self time per time metric and summed counts per counter metric."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = {name: 0 if unit == "count" else 0.0 for name, unit
                  in LAYER_METRICS.items()}
        for span in self.spans:
            totals[span["metric"]] += (
                span["end"] - span["start"] - child_time[span["id"]]
            )
            for counter, value in span["counts"].items():
                totals[counter] += value
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class PeakMemory:
    """tracemalloc peak inside each primitivity_exponent call, in MB.

    Runs in a pass of its own: tracing allocations slows the call it
    measures, which would distort the self times of a traced pass.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0

    def install(self) -> None:
        for module_name in ("fibercone.sweep", "fibercone.digraph_analysis"):
            module = importlib.import_module(module_name)
            inner = module.primitivity_exponent
            setattr(module, "primitivity_exponent", self._wrap(inner))

    def _wrap(self, inner):
        def measured(g):
            tracemalloc.start()
            try:
                return inner(g)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 2**20)

        measured.__wrapped__ = inner
        return measured
