"""In-memory spans around heavyreg's layer boundaries.

The tracer never edits heavyreg: it replaces the *bindings* through which one
layer calls another (for example ``heavyreg.experiments.fit_proximal``, the
name the harness looks up at call time) with a wrapper that opens a span,
calls the original and closes the span.  ``restore`` puts every original back
and verifies it.  Spans are kept in a list and summarized when the run ends.

Layer names are the package modules: ``tails``, ``spectrum``, ``convex``,
``estimators``, ``theory`` and ``experiments``.  ``streams``, ``errors`` and
``cli`` are not traced (see README.md).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

ROOT = "run"  # the benchmark's own span around the timed section


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Recorder.spans, -1 for none
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Single-threaded span stack plus plain call counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread's call stack, so children nest inside their
    parent and never overlap each other.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# --------------------------------------------------------------------------
# What is wrapped.  Each entry is (binding, span name, attribute extractor).
# A binding is "module:attribute[.attribute]"; the same span name may sit on
# several bindings when more than one caller reaches the layer.
# --------------------------------------------------------------------------


def _fit_attrs(result) -> dict:
    return {"iters": result.iterations, "converged": bool(result.converged),
            "cert": float(result.gradient_map_norm)}


def _fixed_point_attrs(prediction) -> dict:
    return {"iters": prediction.iterations}


def _bytes_written(paths) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in paths.values())}


SPANNED = (
    ("heavyreg:run_experiment", "experiments", None),
    ("heavyreg:write_outputs", "experiments.write_outputs", _bytes_written),
    ("numpy.linalg:eigh", "experiments.eigh", None),
    ("heavyreg.experiments:sample_noise", "tails.sample_noise", None),
    ("heavyreg.experiments:winsorize", "tails.winsorize", None),
    ("heavyreg.experiments:effective_variance_exact", "tails.effective_variance_exact", None),
    ("heavyreg.tails:effective_variance_exact", "tails.effective_variance_exact", None),
    ("heavyreg:decompose", "spectrum.decompose", None),
    ("heavyreg.experiments:decompose", "spectrum.decompose", None),
    ("heavyreg.experiments:sample_design", "spectrum.sample_design", None),
    ("heavyreg:project_delta", "spectrum.project_delta", None),
    ("heavyreg.experiments:project_delta", "spectrum.project_delta", None),
    ("heavyreg.estimators:prox_reg", "convex.prox_reg", None),
    ("heavyreg.experiments:fit_proximal", "estimators.fit_proximal", _fit_attrs),
    ("heavyreg.experiments:empirical_risk", "estimators.empirical_risk", None),
    ("heavyreg:solve_general_fixed_point", "theory.solve_general_fixed_point", _fixed_point_attrs),
    ("heavyreg:ridge_risk_closed_form", "theory.ridge_risk_closed_form", None),
    ("heavyreg.theory:ridge_risk_closed_form", "theory.ridge_risk_closed_form", None),
    ("heavyreg.theory:solve_companion_v", "theory.solve_companion_v", None),
)

# Counted without a span: these run inside every solver iteration, and each
# call stands for one mat-vec (X beta before a value, X' r after a derivative).
COUNTED = (
    ("heavyreg.convex:Loss.value", "convex.loss_value"),
    ("heavyreg.convex:Loss.derivative", "convex.loss_derivative"),
)

# ``decompose`` calls ``numpy.linalg.eigh`` itself; that call is decompose's
# own work, so ``experiments.eigh`` counts only the calls made elsewhere.
_NOT_UNDER = {"experiments.eigh": "spectrum.decompose"}


def _resolve(binding: str) -> tuple[object, str]:
    module, _, path = binding.partition(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _spanning(recorder: Recorder, fn, name: str, extract):
    skip_under = _NOT_UNDER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_under is not None and recorder.current() == skip_under:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            attrs = extract(result) if extract is not None else None
            return result
        finally:
            recorder.close(index, attrs)

    return wrapper


def _counting(recorder: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every binding; return the (owner, attribute, original) patches."""
    patches: list[tuple[object, str, object]] = []

    def patch(binding: str, make) -> None:
        owner, attr = _resolve(binding)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        patches.append((owner, attr, original))

    try:
        for binding, name, extract in SPANNED:
            patch(binding, lambda fn: _spanning(recorder, fn, name, extract))
        for binding, name in COUNTED:
            patch(binding, lambda fn: _counting(recorder, fn, name))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    """Put every original binding back; raise if any did not stick."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    stuck = [f"{getattr(owner, '__name__', owner)}.{attr}"
             for owner, attr, original in patches if getattr(owner, attr) is not original]
    if stuck:
        raise RuntimeError(f"wrappers not restored: {stuck}")


# --------------------------------------------------------------------------
# Per-layer metrics.
# --------------------------------------------------------------------------

CALL_LAYERS = (
    "tails.sample_noise",
    "tails.effective_variance_exact",
    "spectrum.sample_design",
    "experiments.eigh",
    "convex.prox_reg",
    "estimators.fit_proximal",
    "estimators.empirical_risk",
    "theory.solve_general_fixed_point",
    "theory.ridge_risk_closed_form",
    "theory.solve_companion_v",
)

# Metrics that must repeat exactly for one seed.  ``write_outputs.bytes`` is
# not among them: the CSV carries the physical ``wall_ms`` column, whose
# printed width varies from run to run.
COUNT_METRICS = tuple(f"{name}.calls" for name in CALL_LAYERS) + (
    "convex.loss_value.calls",
    "convex.loss_derivative.calls",
    "estimators.fit_proximal.iters_total",
    "estimators.fit_proximal.iters_p50",
    "estimators.fit_proximal.iters_max",
    "estimators.fit_proximal.nonconverged",
    "theory.solve_general_fixed_point.iters_total",
    "theory.solve_general_fixed_point.iters_max",
)

SELF_TIME_LAYERS = (
    "tails.sample_noise",
    "tails.winsorize",
    "tails.effective_variance_exact",
    "spectrum.decompose",
    "spectrum.sample_design",
    "spectrum.project_delta",
    "experiments.eigh",
    "experiments",
    "experiments.write_outputs",
    "convex.prox_reg",
    "estimators.fit_proximal",
    "estimators.empirical_risk",
    "theory.solve_general_fixed_point",
    "theory.ridge_risk_closed_form",
    "theory.solve_companion_v",
)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer counts and self times of one traced run.

    ``unattributed_s`` is the self time of the benchmark's root span: time in
    the timed section that no layer span covers.
    """
    own = self_times(recorder.spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(recorder.spans):
        by_name.setdefault(span.name, []).append(i)

    out: dict[str, float] = {}
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_s"] = sum(own[i] for i in by_name.get(name, []))
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = len(by_name.get(name, []))
    out["convex.loss_value.calls"] = recorder.counts.get("convex.loss_value", 0)
    out["convex.loss_derivative.calls"] = recorder.counts.get("convex.loss_derivative", 0)
    out["experiments.write_outputs.bytes"] = sum(
        recorder.spans[i].attrs.get("bytes", 0) for i in by_name.get("experiments.write_outputs", []))

    fits = [recorder.spans[i] for i in by_name.get("estimators.fit_proximal", [])]
    fit_ms = [1.0e3 * s.duration for s in fits]
    iters = [s.attrs.get("iters", 0) for s in fits]
    out["estimators.fit_proximal.ms_p50"] = _quantile(fit_ms, 0.50)
    out["estimators.fit_proximal.ms_p75"] = _quantile(fit_ms, 0.75)
    out["estimators.fit_proximal.iters_total"] = sum(iters)
    out["estimators.fit_proximal.iters_p50"] = _quantile(iters, 0.50)
    out["estimators.fit_proximal.iters_max"] = max(iters, default=0)
    out["estimators.fit_proximal.ms_per_iter"] = sum(fit_ms) / sum(iters) if sum(iters) else 0.0
    out["estimators.fit_proximal.nonconverged"] = sum(1 for s in fits if not s.attrs.get("converged", False))
    out["estimators.fit_proximal.cert_max"] = max((s.attrs.get("cert", 0.0) for s in fits), default=0.0)

    fp_iters = [recorder.spans[i].attrs.get("iters", 0) for i in by_name.get("theory.solve_general_fixed_point", [])]
    out["theory.solve_general_fixed_point.iters_total"] = sum(fp_iters)
    out["theory.solve_general_fixed_point.iters_max"] = max(fp_iters, default=0)

    out["unattributed_s"] = sum(own[i] for i in by_name.get(ROOT, []))
    return out
