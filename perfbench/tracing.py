"""Spans around the package's public functions, recorded from outside.

Each binding names the module attribute through which a function is
called: `likelihood` binds `evolve_tt` with `from .forward import`, so its
calls are seen by wrapping `epinfer.likelihood.evolve_tt`.  Spans (name,
start, end, parent) are kept in memory; self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array

import numpy as np

# (module, attribute, span name, layer).  Span names follow the module that
# implements the function; the layer is where its self time is counted.
BINDINGS = (
    ("epinfer.datagen", "simulate_epidemic", "datagen.simulate", "datagen"),
    ("epinfer.datagen", "resample_uniform", "datagen.resample", "datagen"),
    ("epinfer.inference", "mcmc_optimize", "inference.mcmc_optimize", "inference"),
    ("epinfer.inference", "maximize_loglike", "inference.maximize_loglike", "inference"),
    ("epinfer.inference", "log_likelihood", "likelihood.log_likelihood", "likelihood"),
    ("epinfer.likelihood", "contrast_matrix", "likelihood.contrast_matrix", "likelihood"),
    ("epinfer.likelihood", "log_likelihood", "likelihood.log_likelihood", "likelihood"),
    ("epinfer.likelihood", "fiedler_ordering", "graphs.fiedler_ordering", "graphs"),
    ("epinfer.likelihood", "build_generator_cp", "generator.build_cp", "generator"),
    ("epinfer.likelihood", "build_generator_dense", "generator.build_dense", "generator"),
    ("epinfer.likelihood", "evolve_tt", "forward.evolve_tt", "forward"),
    ("epinfer.likelihood", "tt_element", "tt.tt_element", "tt"),
    # likelihood calls scipy.linalg.expm through the scipy module object
    ("scipy.linalg", "expm", "likelihood.expm", "scipy"),
    ("epinfer.forward", "cp_apply", "tt.cp_apply", "tt"),
    ("epinfer.forward", "tt_round", "tt.tt_round", "tt"),
    ("epinfer.forward", "tt_add", "tt.tt_add", "tt"),
)

LAYERS = ("graphs", "tt", "generator", "forward", "datagen", "likelihood", "inference")


def _core_bytes(tt) -> int:
    return sum(core.nbytes for core in tt.cores)


# Observers read what a metric needs from a call's arguments and result.
# They run after the span closes, and keep only small values (or the
# result itself, when a metric is computed from it at the end).
def _obs_evolve(args, kwargs, result):
    return result


def _obs_cp_apply(args, kwargs, result):
    return max(result.ranks), _core_bytes(result)


def _obs_tt_round(args, kwargs, result):
    return max(result.ranks), _core_bytes(args[0])


def _obs_simulate(args, kwargs, result):
    return result.n_events


def _obs_loglik(args, kwargs, result):
    obs = args[2] if len(args) > 2 else kwargs["obs"]
    return obs.n_intervals


OBSERVERS = {
    "forward.evolve_tt": _obs_evolve,
    "tt.cp_apply": _obs_cp_apply,
    "tt.tt_round": _obs_tt_round,
    "datagen.simulate": _obs_simulate,
    "likelihood.log_likelihood": _obs_loglik,
}


class Tracer:
    """Records spans for every binding while installed (use as a context).

    It can be entered many times; spans accumulate across the entries.
    """

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.layer = {name: layer for _, _, name, layer in bindings}
        self.names = sorted(self.layer)
        self._code = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.observed = {name: [] for name in OBSERVERS}
        self.absent = set()
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, _ in self.bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # a refactor removed this call site: report it, do not crash
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        code = self._code[name]
        observe = OBSERVERS.get(name)
        sink = self.observed.get(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(math.nan)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if observe is not None:
                sink.append(observe(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self):
        """All spans as (name, start, end, parent index) tuples."""
        return [(self.names[c], s, e, p) for c, s, e, p
                in zip(self.span_name, self.start, self.end, self.parent)]


def self_times(starts, ends, parents):
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent, so overlapping or overhanging
    child spans are never subtracted twice or beyond the parent.
    """
    children = {}
    for k, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(k)
    out = []
    for k, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(k, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer: Tracer, proposals: int):
    """Per-module metrics of the traced operations, and the sum of all self times.

    Counts and times are divided by the number of traced log_likelihood
    calls, so they compare across commits whatever the throughput.
    """
    names = tracer.names
    calls = {name: 0 for name in names}
    busy = {name: 0.0 for name in names}
    own = {name: 0.0 for name in names}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for code, s, e, st in zip(tracer.span_name, tracer.start, tracer.end, selfs):
        name = names[code]
        calls[name] += 1
        own[name] += st
        busy[name] += e - s
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in names:
        if tracer.layer[name] in layer_self:
            layer_self[tracer.layer[name]] += own[name]
    n_loglik = calls["likelihood.log_likelihood"]
    per = max(n_loglik, 1)

    m = {}
    evolved = tracer.observed["forward.evolve_tt"]
    deficits = [abs(1.0 - _tt_sum(p)) for p in evolved]
    cp = tracer.observed["tt.cp_apply"]
    rounds = tracer.observed["tt.tt_round"]
    intervals = sum(tracer.observed["likelihood.log_likelihood"])
    solves = calls["forward.evolve_tt"] + calls["likelihood.expm"]

    m["inference.solve_ratio"] = (n_loglik / proposals if proposals else 0.0, "ratio")
    for layer in LAYERS:
        if layer == "datagen":  # set-up only; see setup_metrics
            continue
        m[f"{layer}.self_s"] = (layer_self[layer] / per, "s")
    m["likelihood.solves_per_interval"] = (solves / intervals if intervals else 0.0, "ratio")
    for name in ("tt.tt_element", "likelihood.expm", "forward.evolve_tt", "tt.cp_apply",
                 "tt.tt_round"):
        m[f"{name}.calls"] = (calls[name] / per, "count")
    for name in ("tt.tt_element", "graphs.fiedler_ordering", "generator.build_cp",
                 "generator.build_dense", "likelihood.expm", "forward.evolve_tt",
                 "tt.cp_apply", "tt.tt_round", "tt.tt_add"):
        m[f"{name}.busy_s"] = (busy[name] / per, "s")
    m["forward.evolve_tt.self_s"] = (own["forward.evolve_tt"] / per, "s")
    n_evolve = calls["forward.evolve_tt"]
    m["forward.evolve_tt.cp_apply_per_call"] = (
        calls["tt.cp_apply"] / n_evolve if n_evolve else 0.0, "count")
    m["forward.evolve_tt.mass_deficit_max"] = (max(deficits, default=0.0), "ratio")
    m["tt.cp_apply.out_rank_max"] = (max((r for r, _ in cp), default=0), "count")
    m["tt.cp_apply.bytes_out"] = (float(np.mean([b for _, b in cp])) if cp else 0.0, "B")
    m["tt.tt_round.rank_max"] = (max((r for r, _ in rounds), default=0), "count")
    m["tt.tt_round.bytes_in"] = (float(np.mean([b for _, b in rounds])) if rounds else 0.0, "B")
    return m, sum(selfs)


def setup_metrics(tracer: Tracer) -> dict:
    """Data generation metrics of one traced set-up."""
    names = [tracer.names[c] for c in tracer.span_name]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    busy = sum(e - s for name, s, e in zip(names, tracer.start, tracer.end)
               if name == "datagen.simulate")
    own = sum(st for name, st in zip(names, selfs) if tracer.layer[name] == "datagen")
    events = sum(tracer.observed["datagen.simulate"])
    return {
        "datagen.self_s": (own, "s"),
        "datagen.simulate.busy_s": (busy, "s"),
        "datagen.events_per_s": (events / busy if busy > 0 else 0.0, "1/s"),
    }


def _tt_sum(p) -> float:
    """Sum of the entries of a TT vector (contract every core over its index)."""
    v = np.ones(1)
    for core in p.cores:
        v = v @ core.sum(axis=1)
    return float(v[0])
