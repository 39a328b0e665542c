"""Span recorder for the traced benchmark run.

The program is traced from the outside: `Tracer.installed()` replaces the
lqa module attributes listed in `WRAPPED` with wrappers that record one span
per call, and puts the originals back when the block exits. This works
because lqa looks these names up in its module globals at call time (for
example `lqa.solver.anneal` calls `gradient`, `lqa.bench._run_trial` calls
`solve`). A name that no longer exists is skipped, and a function the
program stops calling simply records no spans, so its layer metrics read 0
instead of failing.

A span is `[name, parent index, start s, end s, meta]`; `meta` is a number
taken from the call's arguments or result (steps, flops, bytes,
minimisers), or None.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time


def _steps(args, kwargs, result):
    return args[1].steps  # anneal(p, cfg, w0)


def _gemv_flops(args, kwargs, result):
    n = args[0].n  # gradient(p, w, t, gamma) does one J @ z
    return 2 * n * n


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _minimisers(args, kwargs, result):
    return len(result[1])


# (module, attribute, span name, meta function)
WRAPPED = (
    ("lqa.solver", "anneal", "solver.anneal", _steps),
    ("lqa.solver", "gradient", "solver.gradient", _gemv_flops),
    ("lqa.solver", "update_adam", "solver.update", None),
    ("lqa.solver", "update_momentum", "solver.update", None),
    ("lqa.solver", "cost", "solver.cost", None),
    ("lqa.solver", "spin_readout", "solver.spin_readout", None),
    ("lqa.bench", "solve", "bench.solve", None),
    ("lqa.bench", "materialize", "bench.materialize", None),
    ("lqa.bench", "load_instance", "ising.load_instance", _file_bytes),
    ("lqa.cli", "load_instance", "ising.load_instance", _file_bytes),
    ("lqa.cli", "solve", "cli.solve", None),
    ("lqa.ising", "absorb_bias", "ising.absorb_bias", None),
    ("lqa.ising", "objective", "ising.objective", None),
    ("lqa.oracle", "brute_force_ground", "oracle.brute_force_ground", _minimisers),
)


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self, wrapped=WRAPPED):
        self.spans: list[list] = []
        self._wrapped = wrapped
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, meta) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.spans[idx][4] = meta
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes into a layer."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _wrap(self, name, fn, meta_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                # a forked pool worker: its spans could not be collected
                return fn(*args, **kwargs)
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                meta = None
                if meta_fn is not None:
                    try:
                        meta = meta_fn(args, kwargs, result)
                    except Exception:
                        meta = None
                self._close(idx, meta)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed lqa function for the duration of the block."""
        try:
            for module_name, attr, name, meta_fn in self._wrapped:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, meta_fn))
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)

    def extend(self, spans: list[list]) -> None:
        """Adopt spans recorded in another process (the traced CLI)."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, p, start, end, meta in spans:
            self.spans.append([name, parent if p < 0 else base + p, start, end, meta])


class LayerStats:
    """Durations, self times and metas of closed spans, grouped by name.

    Self time is a span's duration minus the time covered by its direct
    children; children of one span never overlap because spans are recorded
    on one thread.
    """

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for name, parent, start, end, meta in spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        self.by_name: dict[str, list[tuple[float, float, object, int]]] = {}
        for idx, (name, parent, start, end, meta) in enumerate(spans):
            if end is None:
                continue
            dur = end - start
            self.by_name.setdefault(name, []).append((dur, dur - child_time[idx], meta, parent))
        self.names = [s[0] for s in spans]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(d for d, _, _, _ in self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(s for _, s, _, _ in self.by_name.get(name, ()))

    def meta_total(self, name: str) -> float:
        return float(sum(m for _, _, m, _ in self.by_name.get(name, ()) if m is not None))

    def per_call(self, name: str) -> float:
        n = self.calls(name)
        return self.total(name) / n if n else 0.0

    def total_under(self, name: str, parent_name: str) -> float:
        """Summed duration of `name` spans whose direct parent is a `parent_name` span."""
        return sum(
            d for d, _, _, p in self.by_name.get(name, ()) if p >= 0 and self.names[p] == parent_name
        )
