"""Data log-likelihood of a candidate network, and contrast diagnostics.

The likelihood factorizes over observation intervals by the Markov
property, so each factor is a single transition probability.  Each solver
in SOLVERS fills the distinct (source, target, interval) triples of a
series compiled once (ObservationSeries.transitions): the TT path evolves,
and the ssa path samples, each distinct (source, interval) a single time.
The dense path is exact: per distinct interval it propagates all of that
interval's sources together as one block, by uniformization on the sparse
generator, or reads them from the full matrix exponential where the
interval is too long for one uniformization series.  The matrix exponential
(dense_propagator) is the exact small-system oracle, and a single dense
transition probability is one of its entries; a single TT transition
probability runs the TT path on one triple.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .datagen import ObservationSeries, Transitions, _check_states
from .forward import (_MAX_SERIES_RATE, SolverAccuracyError, _poisson_weights,
                      _ssa_endpoints, evolve_tt)
from .generator import (ModelParams, _rate_triplets, build_generator_cp,
                        build_generator_dense)
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
# Columns of one block-solve panel.  A sparse product's cost grows with
# its columns, so an unpadded block made a likelihood's cost follow the
# number of distinct states its series visits (4 to 179 on simulated
# 9-node series of 500 and 1000 intervals); padded to whole panels, it
# does not.
_PANEL = 256


@dataclass(slots=True)
class LikelihoodReport:
    """Log-likelihood of one network against one observation series.

    log_like is the natural-log value (-inf when an SSA factor was zero).
    per_triple holds the log10 probability of each distinct (source,
    target, interval) triple of the series, and inverse (the series' own
    transitions.inverse, shared, not copied) the triple of each interval;
    per_interval expands them to one log10 probability per interval,
    matching the reporting convention of the histograms and traces.
    Assigning per_interval replaces both.
    """

    log_like: float
    per_triple: np.ndarray
    inverse: np.ndarray
    n_floored: int
    solver_used: str

    @property
    def per_interval(self) -> np.ndarray:
        return self.per_triple[self.inverse]

    @per_interval.setter
    def per_interval(self, values):
        self.per_triple = np.asarray(values, dtype=float)
        self.inverse = np.arange(len(self.per_triple))

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


def transition_prob_tt(net: Network, params: ModelParams, x_a, x_b, dt) -> float:
    """Probability of moving from state x_a to x_b over dt, TT path."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    x_a, x_b = _check_states(net, x_a, x_b)
    zero = np.zeros(1, dtype=int)
    one = Transitions(x_a[None], np.array([float(dt)]), zero, x_b[None], zero)
    return float(_probs_tt(net, params, one)[0])


def dense_propagator(net: Network, params: ModelParams, dt) -> np.ndarray:
    """exp(A*dt) for the full generator; columns are source states."""
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    return scipy.linalg.expm(build_generator_dense(net, params) * dt)


def _state_index(states) -> np.ndarray:
    """Big-endian index of each row of states, the generator's state order."""
    return states @ (1 << np.arange(states.shape[-1] - 1, -1, -1))


def _uniformized_csr(net, params):
    """B = I + A/L in CSR form, with L the largest exit rate of any state.

    B is nonnegative, since L bounds every exit rate, so its powers sum
    without cancellation: roundoff stays relative to each entry.  L is
    the exact maximum, read off the enumerated rates: exit_rate_bound can
    exceed it (17.5 against 13.0 on the Austria network), and the series
    needs more terms the larger L*dt is.
    """
    # imported on first use: at module level it would add about 10 ms and
    # 1.4 MB to the start-up of every command
    import scipy.sparse

    rows, cols, rates = _rate_triplets(net, params)
    exits = rates.sum(axis=1)
    bound = float(exits.max())
    diag = np.arange(len(rates))
    data = np.concatenate([(rates / bound).ravel(), 1.0 - exits / bound])
    coords = (np.concatenate([rows.ravel(), diag]), np.concatenate([cols.ravel(), diag]))
    return scipy.sparse.csr_array((data, coords), shape=(len(rates),) * 2), bound


def _propagate_block(shifted, weights, columns):
    """exp(A*dt) applied to the unit vectors of the given states, one column each.

    Sums w_0 X + w_1 B X + ... + w_K B^K X by Horner's rule, one sparse
    product per Poisson term.  The block is zero-padded to whole panels of
    _PANEL columns (of all 2^N states on a smaller network), so its cost
    is set by the network and the series length, not by how many distinct
    states the series visits.  The products run in place, between two
    halves of one buffer: allocating a fresh block per term had the C
    allocator hand pages back to the kernel and fault them in again, about
    900 page faults and 11% of a 9-node likelihood's time in the kernel.
    """
    from scipy.sparse import _sparsetools

    n_states = shifted.shape[0]
    panel = min(_PANEL, n_states)
    width = -(-len(columns) // panel) * panel
    unit = (columns, np.arange(len(columns)))
    acc, out = np.zeros((2, n_states, width))
    acc[unit] = weights[-1]
    for w in weights[-2::-1]:
        out.fill(0.0)
        # out += B @ acc
        _sparsetools.csr_matvecs(n_states, n_states, width, shifted.indptr,
                                 shifted.indices, shifted.data, acc.ravel(), out.ravel())
        acc, out = out, acc
        acc[unit] += w
    return acc[:, :len(columns)]


def _probs_dense(net, params, transitions):
    """Exact probability of every distinct triple.

    Per distinct interval length dt, the sources of that length are
    propagated together as one (2^N x S) block by uniformization, or read
    from the full exp(A*dt) where L*dt exceeds _MAX_SERIES_RATE.  The
    series runs past the largest flip count among the interval's triples.
    """
    tr = transitions
    sources, targets = _state_index(tr.sources), _state_index(tr.targets)
    flips = np.count_nonzero(tr.sources[tr.group] != tr.targets, axis=1)  # of each triple
    column = np.empty(len(tr.dts), dtype=int)  # of each group, in its dt's block
    probs = np.empty(len(tr.targets))
    shifted, bound = _uniformized_csr(net, params)
    for dt in set(tr.dts.tolist()):
        groups = np.flatnonzero(tr.dts == dt)
        rows = np.isin(tr.group, groups)
        if bound * dt > _MAX_SERIES_RATE:
            block = dense_propagator(net, params, dt)
            column[groups] = sources[groups]
        else:
            weights = _poisson_weights(bound * dt, 0.0, int(flips[rows].max()))
            block = _propagate_block(shifted, weights, sources[groups])
            column[groups] = np.arange(len(groups))
        probs[rows] = block[targets[rows], column[tr.group[rows]]]
    return np.maximum(probs, 0.0)


def transition_prob_dense(net: Network, params: ModelParams, x_a, x_b, dt) -> float:
    """Probability of moving from state x_a to x_b over dt, dense oracle:
    an entry of dense_propagator."""
    x_a, x_b = _check_states(net, x_a, x_b)
    prop = dense_propagator(net, params, dt)
    return float(max(prop[_state_index(x_b), _state_index(x_a)], 0.0))


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


def _triple_probabilities(net, params, obs, solver, n_ssa, ssa_seed) -> np.ndarray:
    """Raw transition probability of every distinct triple of obs."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {tuple(SOLVERS)}")
    if net.n_nodes != obs.n_nodes:
        raise ValueError("network and observations disagree on node count")
    if obs.n_intervals < 1:
        raise ValueError("need at least 2 records for a likelihood")
    sampling = () if solver in EXACT_SOLVERS else (n_ssa, ssa_seed)
    return SOLVERS[solver](net, params, obs.transitions, *sampling)


def interval_probabilities(net: Network, params: ModelParams,
                           obs: ObservationSeries, solver="tt", n_ssa=1000,
                           ssa_seed=None) -> np.ndarray:
    """Raw transition probability of every observation interval."""
    probs = _triple_probabilities(net, params, obs, solver, n_ssa, ssa_seed)
    return probs[obs.transitions.inverse]


def log_likelihood(net: Network, params: ModelParams, obs: ObservationSeries,
                   solver="tt", n_ssa=1000, ssa_seed=None) -> LikelihoodReport:
    """Log-likelihood of the observations under a candidate network.

    tt/dense factors are floored at PROB_FLOOR (counted in n_floored);
    an SSA factor of exactly zero is reported as an unresolved -inf
    likelihood rather than floored.
    """
    probs = _triple_probabilities(net, params, obs, solver, n_ssa, ssa_seed)
    inverse = obs.transitions.inverse
    if solver in EXACT_SOLVERS:
        n_floored = int(np.count_nonzero(probs[inverse] < PROB_FLOOR))
        per_triple = np.log10(np.maximum(probs, PROB_FLOOR))
    else:
        per_triple = np.full(len(probs), -np.inf)
        positive = probs > 0
        per_triple[positive] = np.log10(probs[positive])
        n_floored = 0
    # summed over the intervals in order, so equal probabilities give an
    # equal log_like whatever the triples
    log_like = math.log(10.0) * float(np.sum(per_triple[inverse]))
    return LikelihoodReport(log_like=log_like, per_triple=per_triple, inverse=inverse,
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
