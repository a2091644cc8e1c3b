"""Data log-likelihood of a candidate network, and contrast diagnostics.

The likelihood factorizes over observation intervals by the Markov
property, so each factor is a single transition probability.  Repeated
(source state, interval length) combinations are solved once: the TT path
evolves each distinct source a single time and reads off every needed
target, the dense path computes one matrix exponential per distinct
interval length (dense_propagator, the exact small-system oracle).  A
single TT or dense transition probability runs the same path on one
(source, target, interval) triple.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .datagen import ObservationSeries, _check_states
from .forward import SolverAccuracyError, evolve_tt, transition_prob_ssa
from .generator import ModelParams, build_generator_cp, build_generator_dense
from .graphs import Network, all_pairs, fiedler_ordering, permute_network
from .tt import tt_element, unit_state_tt

__all__ = [
    "PROB_FLOOR",
    "LikelihoodReport",
    "dense_propagator",
    "transition_prob_dense",
    "transition_prob_tt",
    "interval_probabilities",
    "log_likelihood",
    "contrast_matrix",
    "serialize_contrast",
]

# Transition probabilities below this are floored before taking logs so a
# single tiny factor cannot produce -inf on the tt/dense paths.
PROB_FLOOR = 1e-300
# TT entries this far below zero indicate solver failure, not roundoff.
_NEGATIVE_TOL = 1e-8

_SOLVERS = ("tt", "dense", "ssa")


@dataclass
class LikelihoodReport:
    """Log-likelihood of one network against one observation series.

    log_like is the natural-log value (-inf when an SSA factor was zero);
    per_interval holds the log10 of each interval probability, matching
    the reporting convention of the histograms and traces.
    """

    log_like: float
    per_interval: np.ndarray
    n_floored: int
    solver_used: str

    @property
    def log10_like(self) -> float:
        return self.log_like / math.log(10.0)


def _round_dt(dt) -> float:
    # Interval lengths computed from gridded times differ in the last ulp;
    # collapsing to 10 significant digits (the serialization precision)
    # lets equal intervals share one solve.
    return float(f"{dt:.10g}")


def _intervals(obs: ObservationSeries):
    if obs.n_intervals < 1:
        raise ValueError("need at least 2 records for a likelihood")
    dts = [_round_dt(t1 - t0) for t0, t1 in zip(obs.times[:-1], obs.times[1:])]
    return dts


def _map_jobs(fn, tasks, jobs):
    """[fn(task) for task in tasks], over up to `jobs` worker processes.

    Workers are spawned, not forked: forking a process whose BLAS threads
    are running is unsafe.  Results come back in task order.
    """
    if jobs > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 mp_context=ctx) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _probs_tt(net, params, sources, targets, dts):
    """TT probability of each (sources[k] -> targets[k] over dts[k]).

    The generator and the states are permuted by the Fiedler ordering of
    the network, which keeps TT ranks low for weakly coupled node groups.
    """
    order = fiedler_ordering(net) if net.n_nodes >= 2 else np.arange(net.n_nodes)
    pnet = permute_network(net, order)
    gen = build_generator_cp(pnet, params)
    sources = np.asarray(sources, dtype=np.uint8)[:, order]
    targets = np.asarray(targets, dtype=np.uint8)[:, order]
    groups = {}
    for k, dt in enumerate(dts):
        key = (sources[k].tobytes(), dt)
        groups.setdefault(key, []).append(k)
    probs = np.empty(len(dts))
    for (src_bytes, dt), members in groups.items():
        src = np.frombuffer(src_bytes, dtype=np.uint8)
        evolved = evolve_tt(gen, unit_state_tt(src), dt)
        for k in members:
            value = tt_element(evolved, targets[k])
            if value < -_NEGATIVE_TOL:
                raise SolverAccuracyError(
                    f"interval {k}: probability {value} below -{_NEGATIVE_TOL}")
            probs[k] = min(max(value, 0.0), 1.0)
    return probs


def transition_prob_tt(net: Network, params: ModelParams, x_a, x_b, dt) -> float:
    """Probability of moving from state x_a to x_b over dt, TT path."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    x_a, x_b = _check_states(net, x_a, x_b)
    return float(_probs_tt(net, params, [x_a], [x_b], [dt])[0])


def dense_propagator(net: Network, params: ModelParams, dt) -> np.ndarray:
    """exp(A*dt) for the full generator; columns are source states."""
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    return scipy.linalg.expm(build_generator_dense(net, params) * dt)


def _probs_dense(net, params, sources, targets, dts):
    """Dense probability of each (sources[k] -> targets[k] over dts[k]).

    One matrix exponential per distinct interval length.  A propagator
    viewed as a (2,)*2N tensor is indexed by the target bits, then the
    source bits, in the big-endian state order of the generator.
    """
    sources, targets = np.asarray(sources), np.asarray(targets)
    dts = np.asarray(dts)
    probs = np.empty(len(dts))
    for dt in set(dts.tolist()):
        rows = dts == dt
        prop = dense_propagator(net, params, dt).reshape((2,) * (2 * net.n_nodes))
        probs[rows] = prop[(*targets[rows].T, *sources[rows].T)]
    return np.maximum(probs, 0.0)


def transition_prob_dense(net: Network, params: ModelParams, x_a, x_b, dt) -> float:
    """Probability of moving from state x_a to x_b over dt, dense oracle."""
    x_a, x_b = _check_states(net, x_a, x_b)
    return float(_probs_dense(net, params, [x_a], [x_b], [dt])[0])


def _ssa_chunk(task):
    net, params, rows_a, rows_b, dts, n_ssa, seed, indices = task
    out = np.empty(len(indices))
    for pos, k in enumerate(indices):
        # one independent stream per interval, so results do not depend on
        # evaluation order or parallel chunking
        rng = np.random.default_rng([seed, k])
        out[pos] = transition_prob_ssa(
            net, params, rows_a[pos], rows_b[pos], dts[pos], n_ssa, rng)
    return out


def _probs_ssa(net, params, sources, targets, dts, n_ssa, seed, jobs):
    if seed is None:
        raise ValueError("ssa solver needs a seed")
    indices = np.arange(len(dts))
    chunks = np.array_split(indices, max(1, min(jobs, len(dts))))
    tasks = [(net, params, sources[chunk], targets[chunk],
              [dts[k] for k in chunk], n_ssa, seed, chunk.tolist())
             for chunk in chunks if len(chunk)]
    return np.concatenate(_map_jobs(_ssa_chunk, tasks, jobs))


def interval_probabilities(net: Network, params: ModelParams,
                           obs: ObservationSeries, solver="tt", n_ssa=1000,
                           ssa_seed=None, jobs=1) -> np.ndarray:
    """Raw transition probability of every observation interval.

    jobs > 1 spreads the ssa intervals over worker processes; the tt and
    dense paths already share one solve across equal intervals, so they
    run sequentially regardless.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {_SOLVERS}")
    if net.n_nodes != obs.n_nodes:
        raise ValueError("network and observations disagree on node count")
    sources, targets, dts = obs.states[:-1], obs.states[1:], _intervals(obs)
    if solver == "tt":
        return _probs_tt(net, params, sources, targets, dts)
    if solver == "dense":
        return _probs_dense(net, params, sources, targets, dts)
    return _probs_ssa(net, params, sources, targets, dts, n_ssa, ssa_seed, jobs)


def log_likelihood(net: Network, params: ModelParams, obs: ObservationSeries,
                   solver="tt", n_ssa=1000, ssa_seed=None,
                   jobs=1) -> LikelihoodReport:
    """Log-likelihood of the observations under a candidate network.

    tt/dense factors are floored at PROB_FLOOR (counted in n_floored);
    an SSA factor of exactly zero is reported as an unresolved -inf
    likelihood rather than floored.
    """
    probs = interval_probabilities(net, params, obs, solver, n_ssa, ssa_seed,
                                   jobs)
    if solver == "ssa":
        per_interval = np.full(len(probs), -np.inf)
        positive = probs > 0
        per_interval[positive] = np.log10(probs[positive])
        n_floored = 0
    else:
        n_floored = int(np.count_nonzero(probs < PROB_FLOOR))
        per_interval = np.log10(np.maximum(probs, PROB_FLOOR))
    log_like = math.log(10.0) * float(np.sum(per_interval))
    return LikelihoodReport(log_like=log_like, per_interval=per_interval,
                            n_floored=n_floored, solver_used=solver)


def _toggle_gaps(task):
    truth, obs, params, solver, n_ssa, ssa_seed = task
    ref = log_likelihood(truth, params, obs, solver, n_ssa, ssa_seed)
    n = truth.n_nodes
    gaps = np.zeros((n, n))
    for i, j in all_pairs(n):
        toggled = truth.with_edge_toggled((i, j))
        rep = log_likelihood(toggled, params, obs, solver, n_ssa, ssa_seed)
        gaps[i, j] = gaps[j, i] = rep.log10_like - ref.log10_like
    return gaps


def contrast_matrix(truth: Network, datasets, params: ModelParams,
                    solver="tt", n_ssa=1000, ssa_seed=None,
                    jobs=1) -> np.ndarray:
    """Mean log10-likelihood gap of every single-link toggle of truth.

    Entry (m, n) is the mean over datasets of log10 L(truth with {m, n}
    toggled) - log10 L(truth); the matrix is symmetric with zero diagonal.
    jobs > 1 spreads the datasets over worker processes; the result does
    not depend on it.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset")
    tasks = [(truth, obs, params, solver, n_ssa, ssa_seed) for obs in datasets]
    return sum(_map_jobs(_toggle_gaps, tasks, jobs)) / len(datasets)


def serialize_contrast(matrix) -> str:
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    lines = ["m\tn\tcontrast"]
    for i, j in all_pairs(n):
        lines.append(f"{j + 1}\t{i + 1}\t{matrix[i, j]:.10g}")
    return "\n".join(lines) + "\n"
