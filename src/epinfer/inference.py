"""Network recovery by Metropolis-Hastings search over the link hypercube.

Proposals toggle one link at a time, either drawn uniformly ("toggle") or
without replacement within permuted blocks covering every link once
("norepl").  Both proposal densities are constant, so they cancel in the
acceptance ratio and the chain targets the likelihood itself.  The search
returns the best network seen across all evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import ObservationSeries
from .forward import SolverAccuracyError, SubstepLimitError
from .generator import ModelParams
from .graphs import Network, all_pairs, network_distance
from .likelihood import EXACT_SOLVERS, log_likelihood

__all__ = [
    "ChainRecord",
    "McmcChain",
    "initial_scores",
    "initial_guess",
    "ToggleProposer",
    "NoReplacementProposer",
    "mh_ratio",
    "maximize_loglike",
    "mcmc_optimize",
    "serialize_chain",
]


def initial_scores(obs: ObservationSeries) -> np.ndarray:
    """Pairwise link evidence accumulated from co-occurring infections.

    For every interval, each newly infected node shares 1/|I| of a unit of
    evidence with every other node m in I, where I is the set of nodes
    infected at either end of the interval.  Recoveries are single-node
    events and contribute nothing.  The result is symmetric with zero
    diagonal.
    """
    n = obs.n_nodes
    h = np.zeros((n, n))
    for k in range(1, len(obs.times)):
        prev, cur = obs.states[k - 1], obs.states[k]
        involved = np.flatnonzero((prev == 1) | (cur == 1))
        newly = np.flatnonzero((prev == 0) & (cur == 1))
        if len(newly) == 0:
            continue
        w = 1.0 / len(involved)
        for node in newly:
            for m in involved:
                if m != node:
                    h[m, node] += w
                    h[node, m] += w
    return h


def initial_guess(scores) -> Network:
    """Network of the pairs whose score is at least the mean pair score.

    All-zero scores give the empty network.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    pairs = all_pairs(n)
    values = np.array([scores[i, j] for i, j in pairs])
    if values.max(initial=0.0) <= 0.0:
        return Network(n)
    mean = values.sum() / len(pairs)
    return Network(n, (p for p, v in zip(pairs, values) if v >= mean))


class ToggleProposer:
    """Stateless uniform link-toggle proposal."""

    def __init__(self, n_nodes, rng):
        self._rng = rng

    def propose(self, net):
        """Toggle one uniformly chosen link; returns (new network, link)."""
        pairs = all_pairs(net.n_nodes)
        pair = pairs[int(self._rng.integers(len(pairs)))]
        return net.with_edge_toggled(pair), pair


class NoReplacementProposer:
    """Blocked link-toggle proposal without replacement.

    At the start of every block of N(N-1)/2 proposals a fresh uniform
    permutation of all links is drawn; the block then toggles each link
    exactly once in that order.
    """

    def __init__(self, n_nodes, rng):
        self._pairs = all_pairs(n_nodes)
        self._rng = rng
        self._queue = []
        self._cursor = 0

    def propose(self, net):
        if self._cursor >= len(self._queue):
            perm = self._rng.permutation(len(self._pairs))
            self._queue = [self._pairs[int(k)] for k in perm]
            self._cursor = 0
        pair = self._queue[self._cursor]
        self._cursor += 1
        return net.with_edge_toggled(pair), pair


def mh_ratio(loglike_new, loglike_old) -> float:
    """exp(loglike_new - loglike_old) with -inf sentinel handling."""
    new_inf = loglike_new == -math.inf
    old_inf = loglike_old == -math.inf
    if new_inf and old_inf:
        return 1.0
    if new_inf:
        return 0.0
    if old_inf:
        return math.inf
    try:
        return math.exp(loglike_new - loglike_old)
    except OverflowError:
        return math.inf


@dataclass
class ChainRecord:
    iteration: int
    edge_bits: int
    log_like: float
    accepted: bool
    distance: int = None


@dataclass
class McmcChain:
    """Chain states plus the best network over all evaluated candidates."""

    samples: list
    best_network: Network
    best_log_like: float
    aborted: bool = False
    error: str = None


_PROPOSERS = {"toggle": ToggleProposer, "norepl": NoReplacementProposer}


def maximize_loglike(loglike_fn, g0: Network, n_eval, proposal="toggle",
                     rng=None, reference=None) -> McmcChain:
    """Metropolis-Hastings ascent over networks for a black-box objective.

    Runs n_eval proposal steps from g0: each proposal is accepted when a
    uniform draw is below min(ratio, 1).  Values are cached per edge set,
    since rejected chains revisit networks.  A solver error
    (SolverAccuracyError, SubstepLimitError) while evaluating a proposal
    stops the chain, which returns the partial result with aborted set.
    Any error while evaluating g0, and any other exception, propagates.
    """
    if n_eval < 1:
        raise ValueError("n_eval must be >= 1")
    if proposal not in _PROPOSERS:
        raise ValueError(f"unknown proposal {proposal!r}")
    if g0.n_nodes < 2:
        raise ValueError("link proposals need at least 2 nodes")
    rng = rng if rng is not None else np.random.default_rng()
    cache = {}

    def evaluate(net):
        key = net.edge_bits
        if key not in cache:
            cache[key] = loglike_fn(net)
        return cache[key]

    def dist(net):
        return network_distance(net, reference) if reference is not None else None

    proposer = _PROPOSERS[proposal](g0.n_nodes, rng)
    current = g0
    current_ll = evaluate(g0)
    best_net, best_ll = current, current_ll
    samples = [ChainRecord(0, g0.edge_bits, current_ll, True, dist(g0))]
    aborted = False
    error = None
    for it in range(1, n_eval + 1):
        candidate, _ = proposer.propose(current)
        try:
            candidate_ll = evaluate(candidate)
        except (SolverAccuracyError, SubstepLimitError) as exc:  # keep partial results
            aborted = True
            error = f"{type(exc).__name__}: {exc}"
            break
        ratio = mh_ratio(candidate_ll, current_ll)
        accepted = rng.random() < min(ratio, 1.0)
        if accepted:
            current, current_ll = candidate, candidate_ll
        if candidate_ll > best_ll:
            best_net, best_ll = candidate, candidate_ll
        samples.append(ChainRecord(it, current.edge_bits, current_ll,
                                   accepted, dist(current)))
    return McmcChain(samples=samples, best_network=best_net,
                     best_log_like=best_ll, aborted=aborted, error=error)


def mcmc_optimize(obs: ObservationSeries, params: ModelParams, g0: Network,
                  n_eval, proposal="toggle", solver="tt", rng=None,
                  reference=None) -> McmcChain:
    """Likelihood maximization over networks for one observation series.

    The solver is tt or dense: an ssa likelihood is -inf wherever sampling
    misses a rare transition, so it cannot rank candidate networks.
    """
    if solver not in EXACT_SOLVERS:
        raise ValueError(f"mcmc solver {solver!r} is not {' or '.join(EXACT_SOLVERS)}")

    def objective(net):
        return log_likelihood(net, params, obs, solver).log_like

    return maximize_loglike(objective, g0, n_eval, proposal, rng,
                            reference=reference)


def serialize_chain(chain: McmcChain) -> str:
    """Chain trace as TSV; log-likelihoods are reported in log10."""
    lines = ["iter\tlog_like\taccepted\tdistance_to_truth\tedge_bitset_hex"]
    for rec in chain.samples:
        log10 = rec.log_like / math.log(10.0)
        dist = "NA" if rec.distance is None else str(rec.distance)
        lines.append(f"{rec.iteration}\t{log10:.10g}\t{int(rec.accepted)}"
                     f"\t{dist}\t{rec.edge_bits:x}")
    return "\n".join(lines) + "\n"
