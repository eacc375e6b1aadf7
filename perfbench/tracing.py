"""Spans around calls into btvc, recorded from the benchmark's own code.

Nothing inside src/btvc is instrumented. `Tracer.install` rebinds each
public function at every module that looks it up (for example
`pipeline.kernel_matrix` as well as `kernels.kernel_matrix`), so calls the
package makes internally go through a wrapper too. A span is
(id, parent id, op id, name, start, end); spans are kept in memory and
written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import os
from collections import defaultdict

from btvc import (
    calibration,
    cli,
    evaluation,
    fourier,
    inference,
    kernels,
    model,
    pipeline,
    timeframe,
)

from probe import weights_bytes
from timing import now

def _fit_attrs(args, kwargs, fit):
    return {"iterations": int(fit.n_iterations), "grad_norm": float(fit.grad_norm)}


def _structure_attrs(args, kwargs, result):
    return {"weights_bytes": weights_bytes(result[0])}


def _save_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (owner, attribute, attrs hook). One entry per place a function is looked
# up from; the span name comes from the module that defines the function.
PATCHES = (
    (timeframe, "ingest_csv", None), (pipeline, "ingest_csv", None),
    (fourier, "fourier_design", None), (pipeline, "fourier_design", None),
    (kernels, "kernel_matrix", None), (pipeline, "kernel_matrix", None),
    (model, "decompose", None), (pipeline, "decompose", None), (cli, "decompose", None),
    (model, "log_posterior_and_grad", None), (inference, "log_posterior_and_grad", None),
    (model, "predict", None), (pipeline, "predict", None),
    (calibration.CalibrationTerm, "value_and_coef_grad", None),
    (calibration, "apply_prior_windows", None), (pipeline, "apply_prior_windows", None),
    (calibration, "read_prior_windows_csv", None),
    (pipeline, "read_prior_windows_csv", None),
    (inference, "fit_map", _fit_attrs), (pipeline, "fit_map", _fit_attrs),
    (inference, "fit_svi", _fit_attrs), (pipeline, "fit_svi", _fit_attrs),
    (inference, "draw_posterior", None),
    (inference, "save_fit", _save_attrs), (cli, "save_fit", _save_attrs),
    (inference, "load_fit", None), (cli, "load_fit", None),
    (inference.ParameterPacking, "unpack", None),
    (inference.ParameterPacking, "chain_grad", None),
    (pipeline, "run_fit", None), (cli, "run_fit", None),
    (pipeline, "build_structure", _structure_attrs),
    (pipeline, "predict_from_fit", None), (cli, "predict_from_fit", None),
    (pipeline, "forecast_design", None),
    (pipeline, "forecast_quantiles", None), (cli, "forecast_quantiles", None),
    (pipeline, "training_design", None), (cli, "training_design", None),
    (pipeline, "run_backtest", None), (cli, "run_backtest", None),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans while installed; `region` also works when it is not."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.op = 0
        self.enabled = False
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = now()
        self._stack.pop()
        self.spans.append((sid, parent, self.op, name, t0, t1))

    def wrap(self, name, fn, attrs=None):
        def wrapped(*args, **kwargs):
            sid, parent = self._open()
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0)
            if attrs is not None:
                self.attrs[sid] = attrs(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    @contextlib.contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        sid, parent = self._open()
        t0 = now()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def install(self):
        for owner, attr, attrs in PATCHES:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(span_name(original), original, attrs))
            self._undo.append((owner, attr, original))
        for owner in (evaluation, pipeline):
            original = owner.backtest
            setattr(owner, "backtest", self.wrap("evaluation.backtest",
                                                 self._backtest(original)))
            self._undo.append((owner, "backtest", original))
        self.enabled = True

    def _backtest(self, original):
        def backtest(frame, forecaster, plan, root_seed=0):
            split = self.wrap("evaluation.split_fit", forecaster)
            return original(frame, split, plan, root_seed=root_seed)

        return backtest

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.enabled = False

    # -- summaries ------------------------------------------------------

    def durations(self, name, parent=None) -> list[float]:
        """Durations of the spans called `name`; with `parent`, only those
        whose parent span is called that."""
        names = {sid: n for sid, _, _, n, _, _ in self.spans} if parent else {}
        return [t1 - t0 for _, p, _, n, t0, t1 in self.spans
                if n == name and (parent is None or names.get(p) == parent)]

    def attrs_of(self, name) -> list[dict]:
        return [self.attrs[sid] for sid, _, _, n, _, _ in self.spans
                if n == name and sid in self.attrs]

    def children_time(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return covered

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in that layer's own spans, excluding the
        part covered by their child spans."""
        covered = self.children_time()
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, t0, t1 in self.spans:
            out[name.split(".", 1)[0]] += (t1 - t0) - covered[sid]
        return dict(out)

    def exclusive_of(self, name, child) -> list[float]:
        """Durations of `name` spans minus their direct `child` spans."""
        inner: dict[int, float] = defaultdict(float)
        for _, parent, _, n, t0, t1 in self.spans:
            if n == child and parent >= 0:
                inner[parent] += t1 - t0
        return [(t1 - t0) - inner[sid] for sid, _, _, n, t0, t1 in self.spans if n == name]

    def dump(self) -> list[list]:
        """Spans with start and end in microseconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        return [[sid, parent, op, name, round((t0 - origin) * 1e6), round((t1 - origin) * 1e6)]
                for sid, parent, op, name, t0, t1 in self.spans]
