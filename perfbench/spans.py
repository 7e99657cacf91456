"""Outside-in span recorder for the pigroups package.

The recorder wraps, from outside the program, every public function of
each ``pigroups`` module, the ``evaluate_batch`` methods of the three
experiment classes, and the ``subprocess.run`` that ``pigroups.external``
calls. A wrapper is installed on every module attribute that refers to the
original function, because ``cli`` and ``algorithms`` bind names with
``from .x import y``: patching only the defining module would record
nothing for those callers.

Each call becomes a span (name, start, end, parent index) plus the counts
taken at the same boundary (rows, bytes, failure). Spans stay in memory;
the caller writes them out when it is done. Spans must come from one
thread, which holds when the CLI runs with ``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from dataclasses import asdict, dataclass

MODULES = ("algorithms", "cli", "dimension", "external", "jsonio",
           "pipeflow", "quadrature", "subspace", "surrogate")
METHODS = (("algorithms", "CountingExperiment", "evaluate_batch"),
           ("pipeflow", "PipeFlowExperiment", "evaluate_batch"),
           ("external", "ExternalExperiment", "evaluate_batch"))
CHILD_RUN = "external.subprocess.run"

# argument position whose leading dimension is the span's row count
_ROW_ARG = {
    "algorithms.evaluate_experiment": 1,
    "algorithms.CountingExperiment.evaluate_batch": 1,
    "pipeflow.PipeFlowExperiment.evaluate_batch": 1,
    "external.ExternalExperiment.evaluate_batch": 1,
    "surrogate.grad_surface": 1,
    "surrogate.eval_surface": 1,
    "subspace.assemble_C": 0,
}

# per-layer metric -> (span name, field, unit)
LAYER_METRICS = {
    "dimension.pi_basis.s": ("dimension.pi_basis", "s", "s"),
    "quadrature.tensor_rule.s": ("quadrature.tensor_rule", "s", "s"),
    "quadrature.latin_hypercube.s": ("quadrature.latin_hypercube", "s", "s"),
    "pipeflow.evaluate_batch.s": ("pipeflow.PipeFlowExperiment.evaluate_batch", "s", "s"),
    "pipeflow.evaluate_batch.rows": ("pipeflow.PipeFlowExperiment.evaluate_batch", "rows", "count"),
    "pipeflow.evaluate_batch.failed": ("pipeflow.PipeFlowExperiment.evaluate_batch", "failed", "count"),
    "algorithms.algorithm2.self_s": ("algorithms.algorithm2", "self_s", "s"),
    "algorithms.algorithm1.self_s": ("algorithms.algorithm1", "self_s", "s"),
    "algorithms.evaluate_experiment.self_s": ("algorithms.evaluate_experiment", "self_s", "s"),
    "surrogate.grad_surface.s": ("surrogate.grad_surface", "s", "s"),
    "surrogate.grad_surface.rows": ("surrogate.grad_surface", "rows", "count"),
    "surrogate.fit_polynomial.s": ("surrogate.fit_polynomial", "s", "s"),
    "surrogate.eval_surface.s": ("surrogate.eval_surface", "s", "s"),
    "subspace.assemble_C.s": ("subspace.assemble_C", "s", "s"),
    "subspace.assemble_C.rows": ("subspace.assemble_C", "rows", "count"),
    "subspace.eigendecompose.s": ("subspace.eigendecompose", "s", "s"),
    "subspace.unique_groups.s": ("subspace.unique_groups", "s", "s"),
    "external.evaluate_batch.s": ("external.ExternalExperiment.evaluate_batch", "s", "s"),
    "external.evaluate_batch.rows": ("external.ExternalExperiment.evaluate_batch", "rows", "count"),
    "external.batches": (CHILD_RUN, "calls", "count"),
    "external.child_wait_s": (CHILD_RUN, "s", "s"),
    "external.codec_s": ("external.ExternalExperiment.evaluate_batch", "self_s", "s"),
    "external.bytes_out": (CHILD_RUN, "bytes_out", "bytes"),
    "external.bytes_in": (CHILD_RUN, "bytes_in", "bytes"),
    "external.failed_batches": (CHILD_RUN, "failed", "count"),
    "jsonio.dump.s": ("jsonio.dump", "s", "s"),
    "cli.main.s": ("cli.main", "s", "s"),
}
DERIVED_UNITS = {"algorithms.evals_per_gradient": "ratio", "trace.overhead_s": "s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rows: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    failed: bool = False


class Recorder:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        row_arg = _ROW_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            if row_arg is not None and len(args) > row_arg:
                span.rows = _leading_dim(args[row_arg])
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions everywhere they are bound."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        external = modules["external"]
        # pigroups.external is the only caller of subprocess.run while a pass runs
        self._patch(external.subprocess, "run",
                    self.wrap(CHILD_RUN, external.subprocess.run, after=_count_child_io))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans = []

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def _count_child_io(span: Span, kwargs, proc) -> None:
    span.bytes_out = len(kwargs.get("input") or "")
    span.bytes_in = len(proc.stdout or "")
    span.failed = proc.returncode != 0


def _leading_dim(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape is None:
        return len(arr)
    return shape[0] if len(shape) > 1 else 1


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, failed, self_s, and s / rows / bytes of the
    outermost calls (a call nested inside a call of the same name adds
    nothing there, so recursion is not counted twice)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, selfs):
        agg = out.setdefault(span.name, dict.fromkeys(
            ("calls", "failed", "self_s", "s", "rows", "bytes_out", "bytes_in"), 0))
        agg["calls"] += 1
        agg["failed"] += int(span.failed)
        agg["self_s"] += self_s
        if not _nested_in_same_name(spans, span):
            agg["s"] += span.end - span.start
            agg["rows"] += span.rows
            agg["bytes_out"] += span.bytes_out
            agg["bytes_in"] += span.bytes_in
    return out


def _nested_in_same_name(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (zero where a layer is idle)."""
    summary = summarize(spans)
    values = {metric: float(summary.get(name, {}).get(field, 0))
              for metric, (name, field, _unit) in LAYER_METRICS.items()}
    experiment_rows = summary.get("algorithms.CountingExperiment.evaluate_batch", {}).get("rows", 0)
    gradient_rows = values["subspace.assemble_C.rows"]
    values["algorithms.evals_per_gradient"] = (
        experiment_rows / gradient_rows if gradient_rows else 0.0)
    return values


def unaccounted_time(spans: list[Span], root: str = "cli.main") -> float:
    """Largest gap between a root span's duration and the self times of its tree.

    Zero up to rounding when self times partition every root span.
    """
    selfs = self_times(spans)
    root_of: list[int | None] = []
    for i, span in enumerate(spans):
        if span.parent is None:
            root_of.append(i if span.name == root else None)
        else:
            root_of.append(root_of[span.parent])
    totals: dict[int, float] = {}
    for r, self_s in zip(root_of, selfs):
        if r is not None:
            totals[r] = totals.get(r, 0.0) + self_s
    return max((abs(spans[r].end - spans[r].start - t) for r, t in totals.items()), default=0.0)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def spans_as_dicts(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
