"""The workloads: inputs from a seed, a timed loop, and oracle checks.

Every workload reaches the package through its public API, one process per
run, with the model defaults beta=1, gamma=0.5, eps=0.01 and no worker
processes.  The library only sees inputs generated here from the seed.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from epinfer import datagen, generator, graphs, inference, likelihood, tt

PARAMS = generator.ModelParams(beta=1.0, gamma=0.5, eps=0.01)
TAU = 0.1
# Criterion-2 bound for a probability against its oracle.
PROB_RTOL = 1e-4
PROB_FLOOR = 1e-8
# At 512 states the oracle propagator takes about 0.25 s, so an MCMC run
# checks the distinct solves of this many of its networks against it.
ORACLE_NETWORKS = 6

clock = time.perf_counter


class Deadline(BaseException):
    """Stops an MCMC chain at the end of the timed phase.

    A BaseException, so the chain's own `except Exception` does not turn
    the stop into an aborted chain.
    """


@dataclass
class Call:
    """One log_likelihood call seen by the probe.

    Only the first call with given arguments keeps its report; a repeat
    keeps its log-likelihood and a link to that first call, so a long run
    holds memory for the distinct solves only.
    """

    net: object
    obs: object
    seconds: float = math.nan
    log_like: float = math.nan
    report: object = None
    same_as: object = None
    error: str = None


class Probe:
    """Times each log_likelihood call and counts MCMC proposals.

    This is all the instrumentation the end-to-end metrics need: one clock
    read before and after each call (a few milliseconds or more), at the
    two module attributes the workloads reach log_likelihood through.
    """

    SITES = ((likelihood, "log_likelihood"), (inference, "log_likelihood"))

    def __init__(self):
        self.calls = []
        self.proposals = 0
        self.deadline = math.inf
        self._first = {}
        self._saved = []
        self._signature = inspect.signature(likelihood.log_likelihood)

    def __enter__(self):
        for module, attr in self.SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._timed(original))
        proposer = inference.NoReplacementProposer
        original = proposer.propose
        self._saved.append((proposer, "propose", original))

        def propose(obj, net):
            self.proposals += 1
            return original(obj, net)

        proposer.propose = propose
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _timed(self, fn):
        def timed(*args, **kwargs):
            if clock() >= self.deadline:
                raise Deadline
            a = self._signature.bind(*args, **kwargs).arguments
            call = Call(a["net"], a["obs"])
            t0 = clock()
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                call.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                call.seconds = clock() - t0
                self.calls.append(call)
            # the first call keeps obs alive, so its id stays unique
            key = (call.net.edge_bits, id(call.obs), a.get("solver"),
                   a.get("n_ssa"), a.get("ssa_seed"))
            call.log_like = report.log_like
            call.same_as = self._first.setdefault(key, call)
            if call.same_as is call:
                call.report, call.same_as = report, None
            return report

        return timed


@dataclass
class Phase:
    """What one timed phase did.

    In a traced run each operation runs twice, untraced and then traced;
    `pairs` holds (untraced seconds, traced seconds, proposals) for each.
    """

    steps: int
    elapsed: float
    calls: list
    proposals: int = 0
    ops: list = field(default_factory=list)
    pairs: list = field(default_factory=list)


@dataclass
class Outcome:
    """Result of the oracle checks over one or more phases."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    recovered: int = 0
    chains: int = 0
    best_distance_max: int = 0


def prob_misses(p, p_oracle) -> int:
    """Intervals where a probability misses the oracle's by the criterion-2 bound."""
    p = np.asarray(p, dtype=float)
    p_oracle = np.asarray(p_oracle, dtype=float)
    bound = PROB_RTOL * np.maximum(p_oracle, PROB_FLOOR)
    return int(np.count_nonzero(~(np.abs(p - p_oracle) <= bound)))


def _probabilities(report) -> np.ndarray:
    # per_interval holds log10 probabilities
    return np.power(10.0, report.per_interval)


def _simulate(net, t_max, rng, tau=TAU):
    x0 = np.zeros(net.n_nodes, dtype=np.uint8)
    x0[0] = 1
    traj = datagen.simulate_epidemic(net, PARAMS, x0, t_max, rng)
    return datagen.resample_uniform(traj, tau, t_max)


def _window(obs, lo, hi):
    """Records lo..hi of a series, i.e. its intervals lo..hi-1."""
    return datagen.ObservationSeries(obs.times[lo:hi + 1], obs.states[lo:hi + 1])


def _dense_probabilities(net, obs):
    return likelihood.interval_probabilities(net, PARAMS, obs, solver="dense")


def _timed_loop(ops, probe, seconds, tracer=None):
    """Run ops in turn (cycling) for about `seconds`.

    An op is not started when, at the mean op time so far, it would end
    past the deadline, so a run overshoots by a fraction of an op at most.
    With a tracer, each op is repeated under it straight away.
    """
    records, pairs = [], []
    t0 = clock()
    while True:
        spent = clock() - t0
        if records and spent * (len(records) + 1) / len(records) > seconds:
            break
        k = len(records) % len(ops)
        first = len(probe.calls)
        start = clock()
        try:
            out, error = ops[k](), None
        except Exception as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        plain_s = clock() - start
        records.append((k, out, error, probe.calls[first:]))
        if tracer is not None and error is None:
            with tracer:
                start = clock()
                ops[k]()
                pairs.append((plain_s, clock() - start, 0))
    elapsed = clock() - t0
    return Phase(steps=len(records), elapsed=elapsed, calls=probe.calls[:],
                 ops=records, pairs=pairs)


def _oracle_propagator(net):
    """exp(A * TAU) with A assembled from the Kronecker terms, so it shares
    no code with the dense builder the dense solver uses."""
    return scipy.linalg.expm(tt.cp_to_dense(generator.build_generator_cp(net, PARAMS)) * TAU)


def _oracle_probabilities(prop, obs):
    if not np.allclose(np.diff(obs.times), TAU):
        raise ValueError("the oracle expects the uniform TAU grid")
    weights = 1 << np.arange(obs.n_nodes - 1, -1, -1)
    idx = obs.states.astype(np.int64) @ weights
    return prop[idx[1:], idx[:-1]]


def _repeat_problem(call):
    """A repeated call must reproduce the first one's value exactly."""
    if call.log_like != call.same_as.log_like:
        return f"repeat gave log-likelihood {call.log_like} after {call.same_as.log_like}"
    return None


class InferAustria9:
    """README step 4 on the dense solver: MCMC from the score-based guess.

    On the Austria network a solve is a 512-state expm in BLAS, about 90 ms.
    On chain5 it is a per-interval Python lookup, and the speed of Python
    code on a shared host swings too much from run to run.
    """

    name = "infer-austria9-dense"
    n_datasets = 4
    n_eval = 200

    def build(self, seed):
        truth = graphs.austria_network()
        datasets = []
        for i in range(self.n_datasets):
            obs = _simulate(truth, 100.0, np.random.default_rng([seed, 1, i]))
            guess = inference.initial_guess(inference.initial_scores(obs))
            datasets.append((obs, guess))
        return {"seed": seed, "truth": truth, "datasets": datasets}

    def _chain(self, inputs, k):
        obs, guess = inputs["datasets"][k % len(inputs["datasets"])]
        return inference.mcmc_optimize(
            obs, PARAMS, guess, self.n_eval, proposal="norepl", solver="dense",
            rng=np.random.default_rng([inputs["seed"], 2, k]), reference=inputs["truth"])

    def run(self, inputs, probe, seconds, tracer=None):
        """200-proposal chains back to back, cycling over the datasets with a
        fresh proposal stream each; the chain running at the deadline is
        stopped there and its completed proposals count.  With a tracer,
        each complete chain is repeated under it straight away."""
        probe.calls.clear()
        probe.proposals = 0
        chains, pairs = [], []
        t0 = clock()
        deadline = probe.deadline = t0 + seconds
        k = 0
        try:
            while clock() < deadline:
                before = probe.proposals
                start = clock()
                try:
                    chain = self._chain(inputs, k)
                except Deadline:
                    # the refused evaluation belonged to the last proposal, if any
                    probe.proposals = max(probe.proposals - 1, before)
                    break
                plain_s = clock() - start
                # keep what the checks need, not the 200 samples
                chains.append((chain.best_network, chain.error))
                if tracer is not None:
                    done, probe.deadline = probe.proposals, math.inf
                    with tracer:
                        start = clock()
                        self._chain(inputs, k)
                        pairs.append((plain_s, clock() - start, done - before))
                    probe.proposals, probe.deadline = done, deadline
                k += 1
        finally:
            probe.deadline = math.inf
        elapsed = clock() - t0
        return Phase(steps=probe.proposals, elapsed=elapsed, calls=probe.calls[:],
                     proposals=probe.proposals, ops=chains, pairs=pairs)

    def check(self, inputs, phases, out: Outcome):
        """Repeats against first calls; the first calls of a seeded sample of
        networks against the Kronecker-term oracle, and the others for
        probabilities in [0, 1]."""
        truth = inputs["truth"]
        nets = sorted({call.net.edge_bits: call.net for phase in phases
                       for call in phase.calls if call.report is not None}.items())
        picked = np.random.default_rng([inputs["seed"], 3]).permutation(len(nets))
        oracle = {nets[k][0]: _oracle_propagator(nets[k][1])
                  for k in picked[:ORACLE_NETWORKS]}
        checked = 0
        distances = {}
        for phase in phases:
            for call in phase.calls:
                out.attempted += 1
                if call.error is not None:
                    problem = f"log_likelihood raised {call.error}"
                elif call.same_as is not None:
                    problem = _repeat_problem(call)
                elif call.net.edge_bits in oracle:
                    checked += 1
                    misses = prob_misses(_probabilities(call.report), _oracle_probabilities(
                        oracle[call.net.edge_bits], call.obs))
                    problem = misses and f"{misses} probabilities miss the oracle"
                else:
                    p = _probabilities(call.report)
                    problem = (not np.all((p >= 0.0) & (p <= 1.0))
                               and "probabilities outside [0, 1]")
                if problem:
                    out.failed += 1
                    out.notes.append(problem)
            for best, error in phase.ops:
                if error is not None:
                    out.notes.append(f"chain aborted: {error}")
                dist = graphs.network_distance(best, truth)
                out.chains += 1
                out.recovered += dist == 0
                out.best_distance_max = max(out.best_distance_max, dist)
                distances[dist] = distances.get(dist, 0) + 1
        out.notes.append(f"oracle: {checked} solves on {len(oracle)} of {len(nets)} "
                         "distinct networks")
        out.notes.append(f"{out.chains} complete chains; best network's distance to "
                         "the truth: " + ", ".join(f"{d} in {n} chains"
                                                   for d, n in sorted(distances.items())))


def _distinct_windows(series, k):
    """Consecutive windows whose intervals leave exactly k distinct states.

    Returned as (lo, hi) record bounds; the last, incomplete window is dropped.
    """
    windows, lo, seen = [], 0, set()
    for j in range(series.n_intervals):
        state = series.states[j].tobytes()
        if state not in seen and len(seen) == k:
            windows.append((lo, j))
            lo, seen = j, set()
        seen.add(state)
    return windows


class LoglikAustria9:
    """tt log_likelihood of the Austria truth on windows of one series.

    The series is sampled at dt=0.05 and each window's intervals leave one
    state, so a call makes exactly one evolve_tt at near-full rank.  It
    takes about 1.2 s, so a run makes enough calls for a tail.  Windows run
    in a seeded random order, so the operations of a run are a sample of
    the whole series rather than of its start.
    """

    name = "loglik-austria9-tt"
    t_max = 50.0
    tau = 0.05

    def build(self, seed):
        truth = graphs.austria_network()
        tag = sum(map(ord, self.name))
        series = _simulate(truth, self.t_max, np.random.default_rng([seed, tag]), self.tau)
        windows = _distinct_windows(series, 1)
        np.random.default_rng([seed, tag, 1]).shuffle(windows)
        return {"truth": truth, "series": series, "windows": windows}

    def run(self, inputs, probe, seconds, tracer=None):
        probe.calls.clear()
        truth, series = inputs["truth"], inputs["series"]
        ops = [lambda lo=lo, hi=hi: likelihood.log_likelihood(
                   truth, PARAMS, _window(series, lo, hi), solver="tt")
               for lo, hi in inputs["windows"]]
        return _timed_loop(ops, probe, seconds, tracer)

    def check(self, inputs, phases, out: Outcome):
        p_dense = _dense_probabilities(inputs["truth"], inputs["series"])
        verdict = {}
        for phase in phases:
            for k, rep, error, _ in phase.ops:
                out.attempted += 1
                if error is not None:
                    out.failed += 1
                    out.notes.append(f"log_likelihood raised {error}")
                    continue
                if k not in verdict:
                    lo, hi = inputs["windows"][k]
                    verdict[k] = prob_misses(_probabilities(rep), p_dense[lo:hi])
                if verdict[k]:
                    out.failed += 1
                    out.notes.append(f"window {k}: {verdict[k]} tt probabilities "
                                     "fail the dense oracle check")


class ContrastAustria9:
    """README step 5: single-link-toggle contrast around the Austria truth, dense."""

    name = "contrast-austria9-dense"
    n_datasets = 8

    def build(self, seed):
        truth = graphs.austria_network()
        datasets = [_simulate(truth, 50.0, np.random.default_rng([seed, 4, i]))
                    for i in range(self.n_datasets)]
        pairs = graphs.all_pairs(truth.n_nodes)
        probe_pair = pairs[int(np.random.default_rng([seed, 5]).integers(len(pairs)))]
        return {"truth": truth, "datasets": datasets, "probe_pair": probe_pair}

    def run(self, inputs, probe, seconds, tracer=None):
        probe.calls.clear()
        truth = inputs["truth"]
        ops = [lambda obs=obs: likelihood.contrast_matrix(truth, [obs], PARAMS, solver="dense")
               for obs in inputs["datasets"]]
        return _timed_loop(ops, probe, seconds, tracer)

    def check(self, inputs, phases, out: Outcome):
        """Contrast entries against the recorded likelihoods, and the
        probabilities of the truth and one toggled network against a
        propagator built from the Kronecker-term generator instead."""
        truth = inputs["truth"]
        toggled = truth.with_edge_toggled(inputs["probe_pair"])
        oracle = {net.edge_bits: _oracle_propagator(net) for net in (truth, toggled)}
        for phase in phases:
            for k, matrix, error, calls in phase.ops:
                out.attempted += 1
                problems = self._problems(truth, inputs["datasets"][k], matrix,
                                          error, calls, oracle)
                if problems:
                    out.failed += 1
                    out.notes.extend(f"contrast op {k}: {p}" for p in problems)

    @staticmethod
    def _problems(truth, obs, matrix, error, calls, oracle):
        if error is not None:
            return [f"raised {error}"]
        problems = []
        if not (np.isfinite(matrix).all() and np.array_equal(matrix, matrix.T)
                and not np.diag(matrix).any()):
            problems.append("matrix is not finite, symmetric with zero diagonal")
        ln10 = math.log(10.0)
        ref = calls[0]
        for call in calls[1:]:
            (pair,) = call.net.edges ^ truth.edges
            gap = call.log_like / ln10 - ref.log_like / ln10
            if abs(matrix[pair] - gap) > 1e-9 * max(1.0, abs(gap)):
                problems.append(f"entry {pair} differs from its log-likelihood gap")
        for call in calls:
            if call.same_as is not None:
                problems.append(_repeat_problem(call))
                continue
            prop = oracle.get(call.net.edge_bits)
            if prop is not None:
                misses = prob_misses(_probabilities(call.report),
                                     _oracle_probabilities(prop, obs))
                if misses:
                    problems.append(f"{misses} probabilities miss the oracle")
        return [p for p in problems if p]


WORKLOADS = {w.name: w for w in (InferAustria9(), LoglikAustria9(), ContrastAustria9())}
