"""Span tracing of detmc's public functions, installed from outside the library.

``Tracer.install`` replaces every module-level binding of each traced
function (``pgd.observed_residual``, ``scaled_pgd.observed_residual`` and
``theory.observed_residual`` all point at ``sampling.observed_residual``)
with a wrapper that records a span: name, start, end, parent span and op
id.  Spans stay in memory; ``layer_totals`` turns them into per-layer self
time and counts once the traced pass is over, and ``restore`` puts the
original bindings back.
"""

import inspect
import os
import time
from dataclasses import dataclass, field

import detmc
from detmc import (bench, cli, graphs, ialm, kernels, metrics, pgd, sampling,
                   scaled_pgd, theory)
from detmc.errors import DivergenceError

_MODULES = (detmc, bench, cli, graphs, ialm, kernels, metrics, pgd, sampling,
            scaled_pgd, theory)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _residual_attrs(span, args, result):
    m, r = args["obs"].pattern.m, args["X"].shape[1]
    span.attrs["edges"] = m
    # gathered X and Y rows, observed values, residual out, column-index copy
    span.attrs["bytes"] = 8 * m * (2 * r + 3)


def _solve_attrs(span, args, result):
    config = args["config"]
    if config is None:
        config = {"pgd": pgd.PgdConfig, "scaled_pgd": scaled_pgd.ScaledPgdConfig,
                  "ialm": ialm.IalmConfig}[span.name.split(".")[0]]()
    if isinstance(result, DivergenceError):
        trace = result.trace
        span.attrs["raised"] = 1
    else:
        trace = result[1]
        span.attrs["raised"] = 0
    iters = int(trace.iterations[-1]) if trace.iterations else 0
    span.attrs["iters"] = iters
    span.attrs["max_iter_hit"] = int(iters >= config.max_iter)


def _certify_attrs(span, args, result):
    span.attrs["graph"] = id(args["g"])


def _read_attrs(span, args, result):
    span.attrs["bytes_read"] = os.path.getsize(args["path"])


def _write_attrs(span, args, result):
    span.attrs["bytes_written"] = os.path.getsize(args["path"])


def traced_functions():
    """(original function, span name, attribute hook) for every traced call."""
    plain = [
        (graphs.random_biregular, None), (graphs.bernoulli_mask, None),
        (graphs.lps_graph, None), (graphs.certify, _certify_attrs),
        (graphs.load_edges, _read_attrs),
        (sampling.observed_residual, _residual_attrs),
        (sampling.rescaled_top_svd, None), (sampling.load_observed, _read_attrs),
        (sampling.save_dense_array, _write_attrs),
        (kernels.operator_norm, None), (kernels.top_r_svd, None),
        (kernels.orthogonal_procrustes, None),
        (pgd.solve, _solve_attrs), (pgd.project_rows, None), (pgd.spectral_init, None),
        (scaled_pgd.solve, _solve_attrs), (scaled_pgd.project_rows, None),
        (scaled_pgd.spectral_init, None),
        (ialm.solve, _solve_attrs),
        (metrics.relative_error, None), (metrics.relative_error_dense, None),
        (metrics.gauge_distance, None), (metrics.rotation_distance, None),
        (theory.run_all, None),
        (cli.main, None),
    ]
    out = [(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", hook)
           for fn, hook in plain]
    out += [(fn, "theory.check", None) for name, fn in vars(theory).items()
            if name.startswith("check_") and inspect.isfunction(fn)]
    return out


def bindings(functions):
    """Every (module, attribute) in detmc whose value is one of ``functions``."""
    targets = {id(fn) for fn in functions}
    found = []
    for module in _MODULES:
        for attr, value in list(vars(module).items()):
            if id(value) in targets:
                found.append((module, attr))
    return found


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []  # (module, attribute, original value)

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, hook):
        """``fn`` recording a span; ``hook(span, arguments, result or exception)``
        adds attributes after the span has closed."""
        tracer = self
        signature = inspect.signature(fn)

        def attrs(span, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(span, bound.arguments, result)

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except DivergenceError as exc:  # carries the solver's partial trace
                tracer.close(span)
                if hook is not None:
                    attrs(span, args, kwargs, exc)
                raise
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span)
            if hook is not None:
                attrs(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every binding of every traced function; returns the count."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        functions = traced_functions()
        wrappers = {id(fn): self.wrap(fn, name, hook) for fn, name, hook in functions}
        for module, attr in bindings([fn for fn, _, _ in functions]):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        return len(self._saved)

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def layer_totals(spans):
    """Per span name: self time, call count, and summed numeric attributes."""
    selfs = self_times(spans)
    totals = {}
    for s, self_s in zip(spans, selfs):
        t = totals.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        t["self_s"] += self_s
        t["calls"] += 1
        for key, value in s.attrs.items():
            if key != "graph":
                t[key] = t.get(key, 0) + value
    return totals
