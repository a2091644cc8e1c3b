import math

import numpy as np
import pytest

import scipy.stats
from hypothesis import given, settings, strategies as st

from epinfer import (ModelParams, Network, ObservationSeries, chain_network,
                     contrast_matrix, log_likelihood, mcmc_optimize,
                     permute_network, resample_uniform, serialize_contrast,
                     simulate_epidemic, transition_prob_dense,
                     transition_prob_ssa, transition_prob_tt)
from epinfer import datagen, dense_propagator, forward, likelihood
from epinfer.graphs import all_pairs
from epinfer.likelihood import SOLVERS, interval_probabilities

from conftest import index_state, random_network, random_state


def make_obs(params, net=None, t_max=50.0, tau=0.1, seed=21, x0=None):
    net = net or chain_network(5)
    if x0 is None:
        x0 = np.zeros(net.n_nodes, dtype=np.uint8)
        x0[0] = 1
    traj = simulate_epidemic(net, params, x0, t_max, np.random.default_rng(seed))
    return resample_uniform(traj, tau, t_max)


def rounded_dts(obs):
    """Interval lengths at the 10 significant digits of the file format."""
    return [float(f"{dt:.10g}") for dt in np.diff(obs.times)]


def shaped_network(rng, n, shape):
    """A random network, with node n-1 isolated or split into two halves."""
    net = random_network(rng, n)
    if shape == "isolated":
        return Network(n, [(i, j) for i, j in net.edges if n - 1 not in (i, j)])
    if shape == "split":
        half = n // 2
        return Network(n, [(i, j) for i, j in net.edges if (i < half) == (j < half)])
    return net


def triples(obs):
    """Intervals of each distinct (source, target, rounded dt)."""
    out = {}
    for k, dt in enumerate(rounded_dts(obs)):
        key = (obs.states[k].tobytes(), obs.states[k + 1].tobytes(), dt)
        out.setdefault(key, []).append(k)
    return out


class TestLogLikelihood:
    def test_single_interval(self, params):
        net = chain_network(3)
        obs = ObservationSeries(np.array([0.0, 0.1]),
                                np.array([[1, 0, 0], [1, 1, 0]], dtype=np.uint8))
        rep = log_likelihood(net, params, obs, solver="dense")
        expected = math.log(transition_prob_dense(net, params, [1, 0, 0],
                                                  [1, 1, 0], 0.1))
        assert rep.log_like == pytest.approx(expected, rel=1e-12)

    def test_markov_split_additivity(self, params):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=20.0)
        k_half = obs.n_intervals // 2
        first = ObservationSeries(obs.times[:k_half + 1], obs.states[:k_half + 1])
        second = ObservationSeries(obs.times[k_half:], obs.states[k_half:])
        full = log_likelihood(net, params, obs, solver="dense").log_like
        split = (log_likelihood(net, params, first, solver="dense").log_like
                 + log_likelihood(net, params, second, solver="dense").log_like)
        assert split == pytest.approx(full, abs=1e-10)

    def test_append_record_adds_one_factor(self, params):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=10.0)
        shorter = ObservationSeries(obs.times[:-1], obs.states[:-1])
        full = log_likelihood(net, params, obs, solver="dense").log_like
        head = log_likelihood(net, params, shorter, solver="dense").log_like
        tail = math.log(transition_prob_dense(
            net, params, obs.states[-2], obs.states[-1],
            obs.times[-1] - obs.times[-2]))
        assert head + tail == pytest.approx(full, abs=1e-10)

    def test_tt_matches_dense(self, params):
        net = chain_network(5)
        obs = make_obs(params, net, t_max=30.0)
        rep_tt = log_likelihood(net, params, obs, solver="tt")
        rep_dense = log_likelihood(net, params, obs, solver="dense")
        assert abs(rep_tt.log_like - rep_dense.log_like) <= 1e-3

    def test_report_invariant(self, params):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=10.0)
        rep = log_likelihood(net, params, obs, solver="dense")
        assert rep.log_like == pytest.approx(
            math.log(10.0) * rep.per_interval.sum(), rel=1e-12)
        assert rep.n_floored <= obs.n_intervals
        assert rep.solver_used == "dense"

    def test_report_holds_one_value_per_triple(self, params):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=100.0)
        tr = obs.transitions
        rep = log_likelihood(net, params, obs, solver="dense")
        assert rep.per_triple.shape == tr.group.shape
        assert 4 * len(tr.group) < obs.n_intervals
        assert rep.inverse is tr.inverse
        expanded = np.log10(interval_probabilities(net, params, obs, solver="dense"))
        np.testing.assert_array_equal(rep.per_interval, expanded)
        assert rep.log_like == math.log(10.0) * float(np.sum(expanded))

    def test_per_interval_is_assignable(self, params):
        net = chain_network(3)
        obs = make_obs(params, net, t_max=2.0)
        rep = log_likelihood(net, params, obs, solver="dense")
        shifted = rep.per_interval + 1.0
        rep.per_interval = shifted
        np.testing.assert_array_equal(rep.per_interval, shifted)

    def test_permutation_invariance(self, params):
        rng = np.random.default_rng(60)
        net = random_network(rng, 5)
        obs = make_obs(params, net, t_max=20.0, seed=61)
        order = rng.permutation(5)
        pnet = permute_network(net, order)
        pobs = ObservationSeries(obs.times, obs.states[:, order])
        a = log_likelihood(net, params, obs, solver="dense").log_like
        b = log_likelihood(pnet, params, pobs, solver="dense").log_like
        assert a == pytest.approx(b, abs=1e-8)

    def test_ssa_zero_goes_minus_inf(self, params):
        # two fresh infections in one short interval cannot be resolved with
        # a handful of trajectories on the empty network
        net = Network(3)
        obs = ObservationSeries(np.array([0.0, 0.1]),
                                np.array([[0, 0, 0], [1, 1, 0]], dtype=np.uint8))
        rep = log_likelihood(net, params, obs, solver="ssa", n_ssa=50, ssa_seed=1)
        assert rep.log_like == -math.inf
        assert math.isinf(rep.per_interval[0])
        assert rep.n_floored == 0

    def test_ssa_needs_seed(self, params):
        net = chain_network(3)
        obs = ObservationSeries(np.array([0.0, 0.1]),
                                np.array([[1, 0, 0], [1, 0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError, match="seed"):
            log_likelihood(net, params, obs, solver="ssa")

    def test_ssa_needs_positive_count(self, params):
        net = chain_network(3)
        obs = ObservationSeries(np.array([0.0, 0.1]),
                                np.array([[1, 0, 0], [1, 0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError, match="n_ssa must be >= 1"):
            log_likelihood(net, params, obs, solver="ssa", n_ssa=0, ssa_seed=1)

    def test_unknown_solver(self, params):
        net = chain_network(3)
        obs = ObservationSeries(np.array([0.0, 0.1]),
                                np.array([[1, 0, 0], [1, 0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError, match="solver"):
            log_likelihood(net, params, obs, solver="bogus")

    def test_needs_an_interval(self, params):
        net = chain_network(3)
        obs = ObservationSeries(np.array([0.0]),
                                np.array([[1, 0, 0]], dtype=np.uint8))
        with pytest.raises(ValueError, match="records"):
            log_likelihood(net, params, obs, solver="dense")

    def test_self_transitions_are_informative(self, params):
        # constant data still prefers the true (empty) network over a chain:
        # idle nodes are evidence against contacts with infected neighbours
        times = np.arange(60) * 0.1
        states = np.tile([1, 0, 0], (60, 1)).astype(np.uint8)
        obs = ObservationSeries(times, states)
        empty = log_likelihood(Network(3), params, obs, solver="dense").log_like
        chain = log_likelihood(chain_network(3), params, obs, solver="dense").log_like
        assert empty > chain


class TestIntervalProbabilities:
    def test_tt_and_dense_agree_per_interval(self, params):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=5.0, seed=62)
        p_tt = interval_probabilities(net, params, obs, solver="tt")
        p_dense = interval_probabilities(net, params, obs, solver="dense")
        np.testing.assert_allclose(p_tt, p_dense, rtol=1e-5, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.sampled_from(["random", "isolated", "split"]),
           st.lists(st.sampled_from([1e-6, 0.05, 0.3, 2.0]), min_size=12,
                    max_size=12),
           st.integers(0, 10_000))
    def test_tt_matches_dense_on_irregular_gaps(self, n, shape, gaps, seed):
        # several interval lengths in one series: tt groups the intervals
        # by (source, length), dense propagates one block per length
        rng = np.random.default_rng(seed)
        net = shaped_network(rng, n, shape)
        states = np.array([random_state(rng, n) for _ in range(len(gaps) + 1)])
        obs = ObservationSeries(np.concatenate([[0.0], np.cumsum(gaps)]), states)
        params = ModelParams(beta=1.0, gamma=0.5, eps=0.01)
        p_tt = interval_probabilities(net, params, obs, solver="tt")
        p_dense = interval_probabilities(net, params, obs, solver="dense")
        assert np.all(np.abs(p_tt - p_dense)
                      <= 1e-4 * np.maximum(p_dense, 1e-8))

    def test_node_count_mismatch(self, params):
        obs = ObservationSeries(np.array([0.0, 0.1]),
                                np.array([[1, 0], [1, 1]], dtype=np.uint8))
        with pytest.raises(ValueError, match="node count"):
            interval_probabilities(chain_network(3), params, obs, solver="dense")


class TestDenseBlock:
    """The dense solver's block path against the matrix exponential."""

    # L*dt beyond the largest block rate at every N below, so a gap this
    # long is read from the full matrix exponential.
    LONG_GAP = 1e4

    @staticmethod
    def every_target(net, sources, dts) -> datagen.Transitions:
        """One group per (source, dt), with a triple for every target state."""
        n_states = 1 << net.n_nodes
        targets = np.array([index_state(k, net.n_nodes) for k in range(n_states)])
        groups = [(x, dt) for dt in dts for x in sources]
        group = np.repeat(np.arange(len(groups)), n_states)
        return datagen.Transitions(np.array([x for x, _ in groups]),
                                   np.array([dt for _, dt in groups]), group,
                                   np.tile(targets, (len(groups), 1)),
                                   np.arange(len(group)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.sampled_from(["random", "isolated", "split"]),
           st.integers(0, 10_000))
    def test_matches_expm_on_random_networks(self, n, shape, seed):
        rng = np.random.default_rng(seed)
        net = shaped_network(rng, n, shape)
        params = ModelParams(beta=1.0, gamma=0.5, eps=0.01)
        sources = [np.zeros(n, np.uint8), np.ones(n, np.uint8), random_state(rng, n)]
        dts = [1e-6, 0.05, 0.3, 2.0, self.LONG_GAP]
        tr = self.every_target(net, sources, dts)
        probs = likelihood._probs_dense(net, params, tr).reshape(len(dts), len(sources), -1)
        for d, dt in enumerate(dts):
            prop = dense_propagator(net, params, dt)
            for s, x in enumerate(sources):
                p, q = probs[d, s], prop[:, likelihood._state_index(x)]
                assert np.all(np.abs(p - q) <= 1e-13)
                # 1e-16 allows for expm's own absolute roundoff; the relative
                # accuracy of the smallest entries is tested against the
                # block series itself, below
                small = q < 1e-8
                assert np.all(np.abs(p - q)[small] <= 1e-6 * q[small] + 1e-16)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.sampled_from(["random", "isolated", "split"]),
           st.sampled_from([1e-6, 0.05, 0.3]), st.integers(0, 10_000))
    def test_far_targets_keep_relative_accuracy(self, n, shape, dt, seed):
        # on a short gap a target k flips away is of order (L*dt)^k; the
        # block series must not stop before its first term, nor before the
        # terms after it are negligible next to it.  A series 40 terms
        # longer than the solver's is the reference, with no absolute slack
        # (1500 random networks at these rates read at most 4e-13).
        rng = np.random.default_rng(seed)
        net = shaped_network(rng, n, shape)
        params = ModelParams(beta=1.0, gamma=0.5, eps=0.01)
        sources = [np.zeros(n, np.uint8), np.ones(n, np.uint8), random_state(rng, n)]
        probs = likelihood._probs_dense(net, params, self.every_target(net, sources, [dt]))
        shifted, bound = likelihood._uniformized_csr(net, params)
        weights = list(forward._poisson_weights(bound * dt, 0.0, n))
        for k in range(len(weights), len(weights) + 40):
            weights.append(weights[-1] * bound * dt / k)
        columns = likelihood._state_index(np.array(sources))
        reference = likelihood._propagate_block(shifted, np.array(weights), columns)
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs, reference.T.ravel(), rtol=1e-11, atol=0)

    @pytest.mark.parametrize("n, n_sources, width", [
        (4, 3, 16), (9, 1, 256), (9, 179, 256), (9, 256, 256), (9, 257, 512)])
    def test_block_runs_in_whole_panels(self, params, n, n_sources, width):
        # a solve's sparse products have as many columns on every series
        # that visits up to one panel of distinct states
        shifted, bound = likelihood._uniformized_csr(chain_network(n), params)
        weights = forward._poisson_weights(bound * 0.1, 0.0, 1)
        block = likelihood._propagate_block(shifted, weights, np.arange(n_sources))
        assert block.base.shape == (2, 1 << n, width)
        assert block.shape == (1 << n, n_sources)
        np.testing.assert_allclose(block.sum(axis=0), 1.0, rtol=1e-14)

    def test_each_side_of_the_block_rate_is_taken(self, params, monkeypatch):
        expm_dts, block_sizes = [], []
        original_expm, original_block = dense_propagator, likelihood._propagate_block

        def counted_expm(net, params, dt):
            expm_dts.append(dt)
            return original_expm(net, params, dt)

        def counted_block(shifted, weights, columns):
            block_sizes.append(len(columns))
            return original_block(shifted, weights, columns)

        monkeypatch.setattr(likelihood, "dense_propagator", counted_expm)
        monkeypatch.setattr(likelihood, "_propagate_block", counted_block)
        net = chain_network(3)
        times = np.cumsum([0.0, 0.1, 0.1, self.LONG_GAP, 0.1])
        states = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                          dtype=np.uint8)
        obs = ObservationSeries(times, states)
        probs = interval_probabilities(net, params, obs, solver="dense")
        assert expm_dts == [self.LONG_GAP]
        assert block_sizes == [3]
        monkeypatch.undo()
        for k, dt in enumerate(rounded_dts(obs)):
            expected = dense_propagator(net, params, dt)[
                likelihood._state_index(states[k + 1]), likelihood._state_index(states[k])]
            assert probs[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestTransitions:
    """A series is compiled once into its distinct groups and triples."""

    def test_each_group_and_triple_appears_once(self, params):
        # grid times differ in the last ulp, and a gap of 0.3 joins them
        obs = make_obs(params, chain_network(4), t_max=5.0, seed=62)
        obs = ObservationSeries(np.append(obs.times, obs.times[-1] + 0.3),
                                np.vstack([obs.states, obs.states[-1]]))
        tr = obs.transitions
        groups = list(zip(map(bytes, tr.sources), tr.dts.tolist()))
        keys = [(*groups[g], bytes(x)) for g, x in zip(tr.group, tr.targets)]
        assert len(set(groups)) == len(groups)
        assert len(set(keys)) == len(keys) == len(triples(obs)) < obs.n_intervals
        assert len(tr.inverse) == obs.n_intervals
        firsts = {}
        for k, dt in enumerate(rounded_dts(obs)):
            src, tgt = obs.states[k].tobytes(), obs.states[k + 1].tobytes()
            source, length, target = keys[tr.inverse[k]]
            assert (source, target, length) == (src, tgt, dt)
            firsts.setdefault((src, dt), len(firsts))
        # groups are numbered in first-seen order, the ssa stream order
        assert list(firsts) == groups

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_every_interval_takes_its_triples_value(self, params, solver):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=3.0, seed=63)
        probs = interval_probabilities(net, params, obs, solver, n_ssa=50,
                                       ssa_seed=64)
        exact = {"tt": transition_prob_tt, "dense": transition_prob_dense}
        for (src, tgt, dt), members in triples(obs).items():
            assert np.all(probs[members] == probs[members[0]])
            if solver in exact:
                value = exact[solver](net, params, np.frombuffer(src, np.uint8),
                                      np.frombuffer(tgt, np.uint8), dt)
                assert probs[members[0]] == pytest.approx(value, rel=1e-12)

    def test_compiled_once_per_series(self, params, monkeypatch):
        compiled = []
        original = datagen.Transitions

        def counted(*fields):
            compiled.append(fields[-1])
            return original(*fields)

        monkeypatch.setattr(datagen, "Transitions", counted)
        truth = chain_network(3)
        a, b = (make_obs(params, truth, t_max=3.0, seed=s) for s in (70, 71))
        mcmc_optimize(a, params, Network(3), 10, proposal="norepl",
                      solver="dense", rng=np.random.default_rng(1))
        assert len(compiled) == 1
        contrast_matrix(truth, [a, b], params, solver="tt")
        assert len(compiled) == 2
        assert compiled[1] is b.transitions.inverse


class TestSSAGroups:
    """The ssa path samples once per distinct (source, dt), like tt evolves."""

    def test_group_shares_one_sample_from_its_stream(self, params):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=3.0, seed=63)
        probs = interval_probabilities(net, params, obs, solver="ssa", n_ssa=50,
                                       ssa_seed=64)
        dts = rounded_dts(obs)
        groups = {}
        for k in range(obs.n_intervals):
            groups.setdefault((obs.states[k].tobytes(), dts[k]), []).append(k)
        assert len(groups) < obs.n_intervals
        seen = {}
        for g, members in enumerate(groups.values()):
            for k in members:
                expected = transition_prob_ssa(
                    net, params, obs.states[k], obs.states[k + 1], dts[k], 50,
                    np.random.default_rng([64, g]))
                assert probs[k] == expected
                key = (obs.states[k].tobytes(), obs.states[k + 1].tobytes(), dts[k])
                assert seen.setdefault(key, probs[k]) == probs[k]

    def test_one_sample_per_group(self, params, monkeypatch):
        net = chain_network(4)
        obs = make_obs(params, net, t_max=3.0, seed=63)
        calls = []
        kernel = forward._jump_events

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(forward, "_jump_events", counted)
        log_likelihood(net, params, obs, solver="ssa", n_ssa=20, ssa_seed=1)
        dts = rounded_dts(obs)
        n_groups = len({(obs.states[k].tobytes(), dts[k])
                        for k in range(obs.n_intervals)})
        assert n_groups < obs.n_intervals
        assert len(calls) == 20 * n_groups

    def test_within_binomial_ci_of_dense(self, params):
        # every distinct (source, target) pair of a seeded series, against
        # the 99% binomial interval around the exact value, as criterion 7
        net = chain_network(5)
        obs = make_obs(params, net, t_max=30.0, seed=65)
        n_ssa = 2000
        p_ssa = interval_probabilities(net, params, obs, solver="ssa",
                                       n_ssa=n_ssa, ssa_seed=66)
        p_dense = interval_probabilities(net, params, obs, solver="dense")
        pairs = {}
        for k in range(obs.n_intervals):
            key = (obs.states[k].tobytes(), obs.states[k + 1].tobytes())
            pairs.setdefault(key, k)
        misses = sum(
            scipy.stats.binomtest(round(p_ssa[k] * n_ssa), n_ssa,
                                  min(p_dense[k], 1.0)).pvalue < 0.01
            for k in pairs.values())
        assert len(pairs) >= 10
        assert misses <= 1


class TestContrastMatrix:
    def test_desk_scale_signs(self, params):
        truth = chain_network(4)
        datasets = [make_obs(params, truth, t_max=40.0, seed=s) for s in (70, 71)]
        contrast = contrast_matrix(truth, datasets, params, solver="dense")
        removals = [contrast[i, j] for i, j in truth.edges]
        additions = [contrast[i, j] for i, j in all_pairs(4)
                     if (i, j) not in truth.edges]
        assert all(c < 0 for c in removals)
        assert np.median(removals) < np.median(additions)

    def test_diagonal_zero_and_symmetric(self, params):
        truth = chain_network(3)
        contrast = contrast_matrix(truth, [make_obs(params, truth, t_max=10.0)],
                                   params, solver="dense")
        np.testing.assert_array_equal(np.diag(contrast), 0.0)
        np.testing.assert_allclose(contrast, contrast.T)

    def test_single_dataset_equals_mean_of_one(self, params):
        truth = chain_network(3)
        obs = make_obs(params, truth, t_max=10.0)
        a = contrast_matrix(truth, [obs], params, solver="dense")
        b = contrast_matrix(truth, [obs, obs], params, solver="dense")
        np.testing.assert_allclose(a, b)

    def test_requires_datasets(self, params):
        with pytest.raises(ValueError, match="dataset"):
            contrast_matrix(chain_network(3), [], params)

    def test_ssa_is_not_an_objective(self, params):
        # ssa gives -inf wherever it misses a rare transition, so the
        # gaps would be nan
        truth = chain_network(3)
        obs = make_obs(params, truth, t_max=1.0)
        with pytest.raises(ValueError, match="tt or dense"):
            contrast_matrix(truth, [obs], params, solver="ssa")

    def test_serialization(self):
        matrix = np.array([[0.0, -1.5, -2.0],
                           [-1.5, 0.0, -3.0],
                           [-2.0, -3.0, 0.0]])
        text = serialize_contrast(matrix)
        lines = text.strip().splitlines()
        assert lines[0] == "m\tn\tcontrast"
        assert lines[1] == "2\t1\t-1.5"
        assert len(lines) == 4


class TestExhaustiveFamilySearch:
    def test_rewired_ring_family_recovers_truth(self, params):
        # likelihood argmax over every single-rewire variant of a ring finds
        # the generating network
        from epinfer import smallworld_network

        truth = smallworld_network(6, 1, 4)
        obs = make_obs(params, truth, t_max=30.0, seed=73)
        best = None
        for a in range(1, 7):
            for b in range(1, 7):
                if a == b:
                    continue
                candidate = smallworld_network(6, a, b)
                ll = log_likelihood(candidate, params, obs, solver="dense").log_like
                if best is None or ll > best[0]:
                    best = (ll, candidate)
        assert best[1] == truth
