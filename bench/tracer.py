"""Span tracer for the benchmark's traced run.

Wraps every function named in the ``__all__`` of each layer module of
``mbdf`` and records one span per call: (layer.function, start, end, parent).
Spans stay in memory; :meth:`Tracer.summary` reduces them once the sweep is
over.  A wrapper replaces the function at every import site, that is every
``mbdf.*`` module attribute holding the same function object, so a call made
through ``from .filters import design_perfect_feedback`` is traced too.

Spans charge a layer with everything its functions run, including methods
and private helpers of other layers that they call.  :meth:`Tracer.sampling`
measures how far that holds: a profiling timer samples the call stack, and
``coverage`` is the share of sampled time whose innermost layer frame
(helper modules such as ``mbdf.counters`` count as their caller) belongs to
the layer of the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import signal
import sys
import time

LAYERS = ("sysmodel", "filters", "detectors", "adaptive", "codec", "harness")
SAMPLE_INTERVAL_S = 0.002


def replace_everywhere(original, replacement) -> list:
    """Point every ``mbdf.*`` attribute holding ``original`` at ``replacement``.

    Returns the (module, attribute, original) triples that undo the change.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mbdf" or name.startswith("mbdf.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Records a span per call into a layer function while installed."""

    def __init__(self):
        # [layer, qualified name, start, end, parent index or -1]
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []
        self._layer_files: dict = {}
        self._wrapper_code = None
        # seconds sampled where the stack's layer is the span's, where it is
        # not, and in the tracer's own wrappers
        self.sampled = {"matched": 0.0, "missed": 0.0, "tracer": 0.0}
        self._last_sample = 0.0

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"mbdf.{layer}")
            self._layer_files[module.__file__] = layer
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    self._undo += replace_everywhere(fn, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        qualified = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, qualified, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        self._wrapper_code = traced.__code__
        return traced

    @contextlib.contextmanager
    def sampling(self, interval: float = SAMPLE_INTERVAL_S):
        """Sample the call stack on a profiling timer while in the block."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        self._last_sample = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def _sample(self, signum, frame) -> None:
        # the time since the last sample goes to the frame running now; a
        # long C call delivers its signal on return, in the frame that made it
        now = time.perf_counter()
        elapsed, self._last_sample = now - self._last_sample, now
        layer = None
        while frame is not None:
            if frame.f_code is self._wrapper_code:
                self.sampled["tracer"] += elapsed
                return
            layer = self._layer_files.get(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        top = self._stack[-1]
        span_layer = self.spans[top][0] if top >= 0 else None
        hit = layer is not None and layer == span_layer
        self.sampled["matched" if hit else "missed"] += elapsed

    def summary(self) -> dict:
        """Self time and calls per layer and per function, and coverage.

        A span's self time is its duration minus its direct children's;
        calls are single-threaded, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        functions: dict = {}
        for (layer, qualified, start, end, parent), inner in zip(self.spans, child_s):
            own = end - start - inner
            layers[layer]["self_s"] += own
            layers[layer]["calls"] += 1
            entry = functions.setdefault(qualified, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
        judged = self.sampled["matched"] + self.sampled["missed"]
        return {
            "layers": layers,
            "functions": functions,
            "sampled_s": dict(self.sampled),
            "coverage": self.sampled["matched"] / judged if judged > 0 else 0.0,
        }
