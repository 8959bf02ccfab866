"""In-memory spans and counters around costlab's public functions.

The benchmark installs these wrappers from its own files; costlab's source is
never edited. A wrapped name is replaced in every costlab module namespace
that binds the same function object (``ensemble`` imports ``grow`` from
``cart``, ``bench`` imports ``evaluate`` from ``core``, the package re-exports
``split`` and ``synthesize``), so calls are seen whichever binding the caller
uses. ``Tracer.installed`` restores every original binding on exit.

Two wrapper kinds exist:

- a span boundary records name, start, end, parent span and trace id, and
  aggregates calls, inclusive time and self time (inclusive time minus the
  time covered by its direct child spans);
- a count boundary only counts calls. It is used for tiny, very hot leaf
  functions (``split_gain`` runs about half a million times per leaderboard
  pass), where a span would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

MARK = "__perfbench_wrapper__"


def _costlab_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "costlab" or key.startswith("costlab."))
    ]


@dataclass(frozen=True)
class Boundary:
    module: str  # costlab submodule, e.g. "cart"
    attr: str  # function name or "Class.method"
    span: bool = True  # False: count calls only
    per_model: bool = False  # also aggregate by the model being fit or priced
    observe: Callable | None = None  # called with (tracer, result) after a call

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _observe_fallback(tracer: "Tracer", result) -> None:
    tracer.bump(f"fallback_attempts.{tracer.model}")
    if result.degraded:
        tracer.bump(f"fallbacks.{tracer.model}")


def _observe_bytes(tracer: "Tracer", paths) -> None:
    tracer.bump("bench.write_outputs.bytes", sum(os.path.getsize(p) for p in paths))


ENSEMBLE_FITS = (
    "fit_bagging",
    "fit_random_forest",
    "fit_extra_trees",
    "fit_adaboost_r2",
    "fit_gradient_boosting",
    "fit_regularized_booster",
)

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("cart", "best_split"),
    Boundary("cart", "grow"),
    Boundary("cart", "predict_tree"),
    Boundary("ensemble", "split_gain", span=False),
    *(Boundary("ensemble", name) for name in ENSEMBLE_FITS),
    Boundary("ensemble", "EnsembleModel.predict"),
    Boundary("neural", "gradients"),
    Boundary("neural", "forward", span=False),
    Boundary("fuzzy", "FuzzyEngine.centroids"),
    Boundary("fuzzy", "FuzzyEngine.strengths"),
    Boundary("fuzzy", "infer_detail", observe=_observe_fallback),
    Boundary("genetic_fuzzy", "evolve"),
    Boundary("svr", "fit_svr"),
    Boundary("svr", "kernel_matrix", span=False),
    Boundary("cbr", "retrieve_and_predict"),
    Boundary("cbr", "case_similarity", span=False),
    Boundary("regression", "fit_ols"),
    Boundary("data", "synthesize"),
    Boundary("data", "split"),
    Boundary("core", "Predictor.fit", per_model=True),
    Boundary("core", "Predictor.predict"),
    Boundary("core", "Predictor.predict_many", per_model=True),
    Boundary("core", "evaluate"),
    Boundary("bench", "run_bench"),
    Boundary("bench", "render"),
    Boundary("bench", "write_outputs", observe=_observe_bytes),
)


class Tracer:
    """Span store plus per-boundary aggregates, all in memory until ``dump``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one column per span field; compact enough for ~10^6 spans
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_trace = array("i")
        self._stack: list[list] = []  # [span id, start, child time]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.trace_id = 0
        self.model = "-"

    def new_trace(self, model: str) -> None:
        """Start a trace: one per model fit, batch call or quote."""
        self.trace_id += 1
        self.model = model

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _enter(self, name: str) -> list:
        span_id = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._index(name))
        self.span_parent.append(parent)
        self.span_trace.append(self.trace_id)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        frame = [span_id, start, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keys: tuple[str, ...]) -> None:
        end = time.perf_counter()
        span_id, start, child = frame
        self.span_end[span_id] = end
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        for key in keys:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.total_s[key] = self.total_s.get(key, 0.0) + duration
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - child

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        name = boundary.name
        observe = boundary.observe
        if not boundary.span:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            setattr(counted, MARK, True)
            return counted

        per_model = boundary.per_model
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            keys = (name, f"{name}.{tracer.model}") if per_model else (name,)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keys)
            if observe is not None:
                observe(tracer, result)
            return result

        setattr(spanned, MARK, True)
        return spanned

    @contextmanager
    def installed(self):
        """Patch every binding of every boundary; restore them all on exit."""
        restore: list[tuple[object, str, object]] = []
        modules = _costlab_modules()
        try:
            for boundary in BOUNDARIES:
                owner = sys.modules[f"costlab.{boundary.module}"]
                *path, attr = boundary.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(boundary, original)
                if path:  # a method: patch the defining class only
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as numpy columns, after the run.

        ``name`` indexes ``names``; ``parent`` is a row index or -1.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            trace=np.frombuffer(self.span_trace, dtype=np.int32),
        )


def leftover_wrappers() -> list[str]:
    """Names still bound to a benchmark wrapper (empty after a clean restore)."""
    found = []
    for mod in _costlab_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for meth, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
