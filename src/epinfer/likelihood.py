"""Data log-likelihood of a candidate network, and contrast diagnostics.

The likelihood factorizes over observation intervals by the Markov
property, so each factor is a single transition probability.  Each solver
in SOLVERS fills the distinct (source, target, interval) triples of a
series compiled once (ObservationSeries.transitions): the TT path evolves,
and the ssa path samples, each distinct (source, interval) a single time;
the dense path computes one matrix exponential per distinct interval
(dense_propagator, the exact small-system oracle).  A single TT or dense
transition probability runs the same path on one triple.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .datagen import ObservationSeries, Transitions, _check_states
from .forward import SolverAccuracyError, _ssa_endpoints, evolve_tt
from .generator import ModelParams, build_generator_cp, build_generator_dense
from .graphs import Network, all_pairs, fiedler_ordering, permute_network
from .tt import tt_element, unit_state_tt

__all__ = [
    "PROB_FLOOR",
    "SOLVERS",
    "EXACT_SOLVERS",
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


def _probs_tt(net, params, transitions):
    """TT probability of every distinct triple, one evolve per group.

    The generator and the states are permuted by the Fiedler ordering of
    the network, which keeps TT ranks low for weakly coupled node groups.
    """
    order = fiedler_ordering(net) if net.n_nodes >= 2 else np.arange(net.n_nodes)
    gen = build_generator_cp(permute_network(net, order), params)
    tr = transitions
    probs = np.empty(len(tr.targets))
    for g, (src, dt) in enumerate(zip(tr.sources, tr.dts.tolist())):
        evolved = evolve_tt(gen, unit_state_tt(src[order]), dt)
        for t in np.flatnonzero(tr.group == g):
            value = tt_element(evolved, tr.targets[t, order])
            if value < -_NEGATIVE_TOL:
                raise SolverAccuracyError(
                    f"{src} -> {tr.targets[t]}: probability {value} below -{_NEGATIVE_TOL}")
            probs[t] = min(max(value, 0.0), 1.0)
    return probs


def _one_triple(net, x_a, x_b, dt) -> Transitions:
    x_a, x_b = _check_states(net, x_a, x_b)
    zero = np.zeros(1, dtype=int)
    return Transitions(x_a[None], np.array([float(dt)]), zero, x_b[None], zero)


def transition_prob_tt(net: Network, params: ModelParams, x_a, x_b, dt) -> float:
    """Probability of moving from state x_a to x_b over dt, TT path."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    return float(_probs_tt(net, params, _one_triple(net, x_a, x_b, dt))[0])


def dense_propagator(net: Network, params: ModelParams, dt) -> np.ndarray:
    """exp(A*dt) for the full generator; columns are source states."""
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    return scipy.linalg.expm(build_generator_dense(net, params) * dt)


def _probs_dense(net, params, transitions):
    """Dense probability of every distinct triple.

    One matrix exponential per distinct interval length.  A propagator
    viewed as a (2,)*2N tensor is indexed by the target bits, then the
    source bits, in the big-endian state order of the generator.
    """
    tr = transitions
    sources, dts = tr.sources[tr.group], tr.dts[tr.group]
    probs = np.empty(len(dts))
    for dt in set(tr.dts.tolist()):
        rows = dts == dt
        prop = dense_propagator(net, params, dt).reshape((2,) * (2 * net.n_nodes))
        probs[rows] = prop[(*tr.targets[rows].T, *sources[rows].T)]
    return np.maximum(probs, 0.0)


def transition_prob_dense(net: Network, params: ModelParams, x_a, x_b, dt) -> float:
    """Probability of moving from state x_a to x_b over dt, dense oracle."""
    return float(_probs_dense(net, params, _one_triple(net, x_a, x_b, dt))[0])


def _probs_ssa(net, params, transitions, n_ssa, seed):
    """ssa frequency of every distinct triple.

    n_ssa trajectories per group, shared by every triple of that group.
    Group g draws from the stream [seed, g], so results do not depend on
    how the groups are evaluated.
    """
    if seed is None:
        raise ValueError("ssa solver needs a seed")
    if n_ssa < 1:
        raise ValueError(f"n_ssa must be >= 1, got {n_ssa}")
    tr = transitions
    probs = np.empty(len(tr.targets))
    for g, (src, dt) in enumerate(zip(tr.sources, tr.dts.tolist())):
        ends = _ssa_endpoints(net, params, src, dt, n_ssa,
                              np.random.default_rng([seed, g]))
        for t in np.flatnonzero(tr.group == g):
            probs[t] = np.count_nonzero((ends == tr.targets[t]).all(axis=1)) / n_ssa
    return probs


# Each maps (net, params, transitions) to the probability of every triple.
# Only an exact solver's likelihood can rank networks.
EXACT_SOLVERS = {"tt": _probs_tt, "dense": _probs_dense}
SOLVERS = {**EXACT_SOLVERS, "ssa": _probs_ssa}


def interval_probabilities(net: Network, params: ModelParams,
                           obs: ObservationSeries, solver="tt", n_ssa=1000,
                           ssa_seed=None) -> np.ndarray:
    """Raw transition probability of every observation interval."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {tuple(SOLVERS)}")
    if net.n_nodes != obs.n_nodes:
        raise ValueError("network and observations disagree on node count")
    if obs.n_intervals < 1:
        raise ValueError("need at least 2 records for a likelihood")
    sampling = () if solver in EXACT_SOLVERS else (n_ssa, ssa_seed)
    tr = obs.transitions
    return SOLVERS[solver](net, params, tr, *sampling)[tr.inverse]


def log_likelihood(net: Network, params: ModelParams, obs: ObservationSeries,
                   solver="tt", n_ssa=1000, ssa_seed=None) -> LikelihoodReport:
    """Log-likelihood of the observations under a candidate network.

    tt/dense factors are floored at PROB_FLOOR (counted in n_floored);
    an SSA factor of exactly zero is reported as an unresolved -inf
    likelihood rather than floored.
    """
    probs = interval_probabilities(net, params, obs, solver, n_ssa, ssa_seed)
    if solver in EXACT_SOLVERS:
        n_floored = int(np.count_nonzero(probs < PROB_FLOOR))
        per_interval = np.log10(np.maximum(probs, PROB_FLOOR))
    else:
        per_interval = np.full(len(probs), -np.inf)
        positive = probs > 0
        per_interval[positive] = np.log10(probs[positive])
        n_floored = 0
    log_like = math.log(10.0) * float(np.sum(per_interval))
    return LikelihoodReport(log_like=log_like, per_interval=per_interval,
                            n_floored=n_floored, solver_used=solver)


def _toggle_gaps(task):
    truth, obs, params, solver = task
    ref = log_likelihood(truth, params, obs, solver)
    n = truth.n_nodes
    gaps = np.zeros((n, n))
    for i, j in all_pairs(n):
        toggled = truth.with_edge_toggled((i, j))
        rep = log_likelihood(toggled, params, obs, solver)
        gaps[i, j] = gaps[j, i] = rep.log10_like - ref.log10_like
    return gaps


def contrast_matrix(truth: Network, datasets, params: ModelParams,
                    solver="tt", jobs=1) -> np.ndarray:
    """Mean log10-likelihood gap of every single-link toggle of truth.

    Entry (m, n) is the mean over datasets of log10 L(truth with {m, n}
    toggled) - log10 L(truth); the matrix is symmetric with zero diagonal.
    The solver is tt or dense: an ssa likelihood is -inf wherever sampling
    misses a rare transition, and the gaps would be nan.  jobs > 1 spreads
    the datasets over worker processes; the result does not depend on it.
    """
    if solver not in EXACT_SOLVERS:
        raise ValueError(f"contrast solver {solver!r} is not {' or '.join(EXACT_SOLVERS)}")
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset")
    tasks = [(truth, obs, params, solver) for obs in datasets]
    if jobs > 1 and len(datasets) > 1:
        # spawned, not forked: forking while BLAS threads run is unsafe
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(jobs, len(datasets)),
                                 mp_context=ctx) as pool:
            gaps = list(pool.map(_toggle_gaps, tasks))
    else:
        gaps = [_toggle_gaps(task) for task in tasks]
    return sum(gaps) / len(datasets)


def serialize_contrast(matrix) -> str:
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    lines = ["m\tn\tcontrast"]
    for i, j in all_pairs(n):
        lines.append(f"{j + 1}\t{i + 1}\t{matrix[i, j]:.10g}")
    return "\n".join(lines) + "\n"
