"""Spans and counters for the traced benchmark run.

A span is recorded at every call that crosses into a phaseret layer: the
benchmark's own calls go through :class:`Api`, and calls from one phaseret
module into another go through the same wrappers, patched into the importing
module's namespace.  Calls inside one module are not spans, so their cost is
the enclosing span's self time.  Every operation is one span of layer ``op``,
and all spans of one operation share its id.

FFT and ``eigh`` counters are wrappers around ``numpy.fft``, ``scipy.fft``,
``numpy.linalg.eigh`` and ``scipy.linalg.eigh``.  :func:`install_counters`
must run before ``import phaseret`` so that names bound at import time are
counted too.  Each call is attributed to the innermost open span.  FFT flops
and bytes are computed from array sizes (5 n log2 n per complex transform,
2.5 n log2 n per real one, bytes read plus bytes written), not measured.

Spans live in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
from time import perf_counter

LAYERS = ("measurement", "io", "cork", "specfact", "sdp", "baselines", "crb",
          "bench")

_COMPLEX_FFTS = ("fft", "ifft")
_REAL_FFTS = ("rfft", "irfft", "hfft", "ihfft")


class Span:
    __slots__ = ("name", "layer", "op", "parent", "start", "end", "ok", "info",
                 "fft_calls", "fft_flops", "fft_bytes", "eigh_calls", "eigh_s")

    def __init__(self, name, layer, op, parent, start):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.ok = True
        self.info = {}
        self.fft_calls = 0
        self.fft_flops = 0.0
        self.fft_bytes = 0
        self.eigh_calls = 0
        self.eigh_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer,
                "op": self.op, "parent": self.parent, "start": self.start,
                "end": self.end, "ok": self.ok, "info": self.info,
                "fft_calls": self.fft_calls, "fft_flops": self.fft_flops,
                "fft_bytes": self.fft_bytes, "eigh_calls": self.eigh_calls,
                "eigh_s": self.eigh_s}


class Tracer:
    """In-memory span store; records only while an operation is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, layer, self.op, parent, perf_counter()))
        self.stack.append(index)
        return index

    def close(self, index: int, ok: bool = True) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        span.ok = ok
        self.stack.pop()
        return span

    def current(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def run_op(self, op_id: int, fn, *args):
        """Run one operation inside an ``op`` span."""
        self.op = op_id
        index = self.open("op", "op")
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            self.close(index, ok)
            self.op = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_json(i)) + "\n")


# ---------------------------------------------------------------- counters

def _fft_counter(tracer: Tracer, fn, name: str):
    real = name in _REAL_FFTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.current()
        if span is None:
            return fn(*args, **kwargs)
        out = fn(*args, **kwargs)
        a = args[0] if args else kwargs.get("a", kwargs.get("x"))
        n = args[1] if len(args) > 1 else kwargs.get("n")
        axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
        a_nbytes = getattr(a, "nbytes", 0)
        if name in ("rfft", "ihfft"):
            length = n if n is not None else a.shape[axis]
        else:
            length = out.shape[axis]
        batch = out.size // max(out.shape[axis], 1)
        per = (2.5 if real else 5.0) * length * math.log2(max(length, 2))
        span.fft_calls += batch
        span.fft_flops += per * batch
        span.fft_bytes += a_nbytes + out.nbytes
        return out
    return wrapper


def _eigh_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.current()
        if span is None:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        span.eigh_s += perf_counter() - t0
        span.eigh_calls += 1
        return out
    return wrapper


def install_counters(tracer: Tracer) -> None:
    """Wrap the FFT and eigh entry points; call before ``import phaseret``."""
    import numpy.fft
    import numpy.linalg
    import scipy.fft
    import scipy.linalg

    for module in (numpy.fft, scipy.fft):
        for name in _COMPLEX_FFTS + _REAL_FFTS:
            setattr(module, name,
                    _fft_counter(tracer, getattr(module, name), name))
    numpy.linalg.eigh = _eigh_counter(tracer, numpy.linalg.eigh)
    scipy.linalg.eigh = _eigh_counter(tracer, scipy.linalg.eigh)


# ------------------------------------------------------------ layer spans

def _file_size(args, kwargs, out) -> dict:
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


# Facts read from a call's arguments or result once its span is closed.
_INFO = {
    "cork.solve_cork": lambda a, k, out: {"iters": out[1].iters,
                                          "converged": out[1].converged},
    "sdp.phaselift_sf": lambda a, k, out: {"solves": out[2].solves,
                                           "converged": out[2].converged},
    "io.save_measurement_file": _file_size,
    "io.save_signal_file": _file_size,
    "io.atomic_write_text": _file_size,
    "bench.run_experiment": lambda a, k, out: {
        "trials": sum(row.get("trials", 1) for row in out)},
}


def _span_wrapper(tracer: Tracer, layer: str, name: str, fn):
    qualname = f"{layer}.{name}"
    info = _INFO.get(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        index = tracer.open(qualname, layer)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
        finally:
            span = tracer.close(index, ok)
        if info is not None:
            span.info = info(args, kwargs, out)
        return out
    return wrapper


class Api:
    """The phaseret layers as the benchmark calls them.

    Untraced, each attribute is the module itself.  Traced, it is a namespace
    whose public functions open a span; every other name is the module's own.
    """

    def __init__(self, tracer: Tracer | None = None):
        import importlib
        import types

        import phaseret

        modules = {layer: importlib.import_module(f"phaseret.{layer}")
                   for layer in LAYERS}
        if tracer is None:
            for layer, module in modules.items():
                setattr(self, layer, module)
            return
        wrapped = {}
        for layer, module in modules.items():
            space = types.SimpleNamespace(**vars(module))
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    w = _span_wrapper(tracer, layer, name, fn)
                    wrapped[fn] = (module, w)
                    setattr(space, name, w)
            setattr(self, layer, space)
        # Calls from one phaseret module into another become spans as well;
        # a module's calls to its own functions stay unwrapped.
        for module in [phaseret, *modules.values()]:
            for name, value in list(vars(module).items()):
                hit = wrapped.get(value) if callable(value) else None
                if hit is not None and hit[0] is not module:
                    setattr(module, name, hit[1])


# ---------------------------------------------------------- per-layer view

def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def unit_of(name: str) -> str:
    if name.endswith(("ms_p50", "_ms")):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith(("bytes_computed", "bytes_written_per_op")):
        return "B"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, first_pass: int) -> dict[str, tuple]:
    """Per-layer ``(value, unit)`` over operations ``0 .. first_pass-1``.

    Count metrics depend only on those inputs, so they repeat exactly across
    runs with the same seed.  A layer the workload never calls reads 0.
    """
    spans = [s for s in tracer.spans if s.op is not None and s.op < first_pass]
    ops = [s for s in spans if s.layer == "op"]
    n_ops = max(len(ops), 1)
    op_time = sum(s.duration for s in ops) or 1.0
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(s):
        return s.duration - child_time.get(index[id(s)], 0.0)

    def named(*names):
        return [s for s in spans if s.name in names]

    def per_op_ms(*names):
        totals = {}
        for s in named(*names):
            totals[s.op] = totals.get(s.op, 0.0) + s.duration
        return _p50([1e3 * t for t in totals.values()])

    def in_layer(layer):
        return [s for s in spans if s.layer == layer]

    def share(layer):
        return sum(self_time(s) for s in in_layer(layer)) / op_time

    m: dict[str, float] = {}
    cork = named("cork.solve_cork")
    iters = [s.info["iters"] for s in cork]
    iters_sum = sum(iters)
    cork_time = sum(s.duration for s in cork)
    cork_ffts = sum(s.fft_calls for s in in_layer("cork"))
    m["cork.ms_p50"] = _p50([1e3 * s.duration for s in cork])
    m["cork.self_share"] = share("cork")
    m["cork.iters_p50"] = _p50(iters)
    m["cork.iters_sum"] = iters_sum
    m["cork.iter_ms"] = 1e3 * cork_time / iters_sum if iters_sum else 0.0
    m["cork.converged_frac"] = (sum(s.info["converged"] for s in cork)
                                / len(cork) if cork else 0.0)
    m["cork.fft_calls_per_iter"] = cork_ffts / iters_sum if iters_sum else 0.0
    m["cork.fft_flops_computed"] = (sum(s.fft_flops for s in in_layer("cork"))
                                    / iters_sum if iters_sum else 0.0)
    m["cork.fft_bytes_computed"] = (sum(s.fft_bytes for s in in_layer("cork"))
                                    / iters_sum if iters_sum else 0.0)

    roots = named("specfact.root_sf")
    m["specfact.kolmogorov_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("specfact.kolmogorov_sf")])
    m["specfact.fft_calls"] = sum(s.fft_calls for s in in_layer("specfact")) / n_ops
    m["specfact.root_ms_p50"] = _p50([1e3 * s.duration for s in roots])
    m["specfact.root_fail_frac"] = (sum(not s.ok for s in roots) / len(roots)
                                    if roots else 0.0)
    m["specfact.is_min_phase_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("specfact.is_min_phase")])
    m["specfact.self_share"] = share("specfact")

    sdp = in_layer("sdp")
    sf = named("sdp.phaselift_sf")
    sdp_time = sum(s.duration for s in sdp)
    m["sdp.phaselift_value_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("sdp.phaselift_value")])
    m["sdp.phaselift_sf_ms_p50"] = _p50([1e3 * s.duration for s in sf])
    m["sdp.phaselift_sf_solves_p50"] = _p50([s.info["solves"] for s in sf])
    m["sdp.phaselift_sf_converged_frac"] = (
        sum(s.info["converged"] for s in sf) / len(sf) if sf else 0.0)
    m["sdp.eigh_calls_per_op"] = sum(s.eigh_calls for s in sdp) / n_ops
    m["sdp.eigh_share"] = sum(s.eigh_s for s in sdp) / sdp_time if sdp_time else 0.0
    m["sdp.self_share"] = share("sdp")

    m["baselines.fienup_sf_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("baselines.fienup_sf")])
    m["baselines.fft_calls"] = sum(s.fft_calls for s in in_layer("baselines")) / n_ops
    m["baselines.self_share"] = share("baselines")

    m["crb.compute_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("crb.compute_crb")])
    m["crb.self_share"] = share("crb")

    m["measurement.measure_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("measurement.measure_augmented")])
    m["measurement.self_share"] = share("measurement")

    writes = ("io.save_measurement_file", "io.save_signal_file",
              "io.atomic_write_text")
    m["io.write_ms_p50"] = per_op_ms(*writes)
    m["io.read_ms_p50"] = per_op_ms("io.load_measurement_file",
                                    "io.load_signal_file")
    m["io.bytes_written_per_op"] = sum(s.info["bytes"] for s in named(*writes)) / n_ops
    m["io.self_share"] = share("io")

    runs = named("bench.run_experiment")
    run_time = sum(s.duration for s in runs)
    m["bench.run_experiment_ms_p50"] = _p50([1e3 * s.duration for s in runs])
    m["bench.persist_ms_p50"] = _p50(
        [1e3 * s.duration for s in named("bench.aggregate_and_persist")])
    m["bench.trials_per_s"] = (sum(s.info["trials"] for s in runs) / run_time
                               if run_time else 0.0)
    m["bench.self_share"] = share("bench")
    m["harness.self_share"] = share("op")
    return {name: (value, unit_of(name)) for name, value in m.items()}
