import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epinfer import (ModelParams, Network, build_generator_cp,
                     build_generator_dense, chain_network, cp_to_dense,
                     reaction_rates)
from epinfer.generator import exit_rate_bound
from epinfer.graphs import all_pairs

from conftest import (index_state, infected_neighbors, random_network,
                      transition_rate)


class TestModelParams:
    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError, match="eps"):
            ModelParams(beta=1.0, gamma=0.5, eps=0.0)

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(beta=1.0, gamma=0.0, eps=0.01)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta"):
            ModelParams(beta=-1.0, gamma=0.5, eps=0.01)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(beta=float("nan"), gamma=0.5, eps=0.01)

    def test_zero_beta_allowed(self):
        ModelParams(beta=0.0, gamma=0.5, eps=0.01)


class TestInfectedNeighbors:
    def test_chain_middle_node(self):
        net = chain_network(3)
        assert infected_neighbors([1, 0, 1], 1, net) == 2

    def test_isolated_node(self):
        net = Network(3, [(0, 1)])
        assert infected_neighbors([1, 1, 0], 2, net) == 0

    def test_all_susceptible(self):
        net = chain_network(3)
        assert all(infected_neighbors([0, 0, 0], n, net) == 0 for n in range(3))


class TestTransitionRate:
    def test_contact_infection_rate(self, params):
        net = Network(2, [(0, 1)])
        assert transition_rate([1, 0], [1, 1], net, params) == pytest.approx(1.01)

    def test_recovery_rate(self, params):
        net = Network(2, [(0, 1)])
        assert transition_rate([1, 0], [0, 0], net, params) == params.gamma

    def test_double_flip_is_zero(self, params):
        net = Network(2, [(0, 1)])
        assert transition_rate([1, 0], [0, 1], net, params) == 0.0

    def test_self_transition_is_zero(self, params):
        net = Network(2, [(0, 1)])
        assert transition_rate([1, 0], [1, 0], net, params) == 0.0

    def test_isolated_infection_is_eps(self, params):
        net = Network(2)
        assert transition_rate([0, 0], [0, 1], net, params) == params.eps


class TestReactionRates:
    def test_matches_transition_rate(self, params):
        rng = np.random.default_rng(17)
        for _ in range(20):
            net = random_network(rng, 5)
            x = rng.integers(0, 2, size=5).astype(np.uint8)
            rates = reaction_rates(x, net, params)
            for n in range(5):
                y = x.copy()
                y[n] ^= 1
                assert rates[n] == pytest.approx(transition_rate(x, y, net, params))

    def test_stacked_states_match_single_calls(self, params):
        rng = np.random.default_rng(19)
        net = random_network(rng, 6)
        states = rng.integers(0, 2, size=(40, 6)).astype(np.uint8)
        stacked = reaction_rates(states, net, params)
        assert stacked.shape == states.shape
        for x, row in zip(states, stacked):
            assert row.tobytes() == reaction_rates(x, net, params).tobytes()


class TestGeneratorCp:
    def test_single_node_dense_expansion(self, params):
        gen = build_generator_cp(Network(1), params)
        expected = np.array([[-params.eps, params.gamma],
                             [params.eps, -params.gamma]])
        np.testing.assert_allclose(cp_to_dense(gen), expected, atol=1e-15)

    def test_chain_term_count(self, params):
        gen = build_generator_cp(chain_network(3), params)
        assert len(gen.terms) == 2 * 3 + 4

    def test_exit_rate_bound_value(self, params):
        net = chain_network(3)
        # max(gamma, eps) * N + beta * |E|, below the per-node sum of
        # max(gamma, eps + deg * beta) with degs (1, 2, 1), 4.03
        assert exit_rate_bound(net, params) == pytest.approx(0.5 * 3 + 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(["random", "isolated", "split", "complete"]),
           st.sampled_from([(1.0, 0.5, 0.01), (0.01, 2.0, 0.05), (2.0, 0.1, 0.3), None]),
           st.integers(0, 10_000))
    def test_exit_rate_bound_is_valid_and_tighter(self, n, shape, rates, seed):
        rng = np.random.default_rng(seed)
        if shape == "complete":
            net = Network(n, all_pairs(n))
        elif shape == "split":
            # two components with no edge between them
            half = n // 2
            net = Network(n, [(i, j) for i, j in random_network(rng, n).edges
                              if (i < half) == (j < half)])
        else:
            net = random_network(rng, n)
            if shape == "isolated":
                net = Network(n, [(i, j) for i, j in net.edges if n - 1 not in (i, j)])
        if rates is None:
            rates = tuple(rng.uniform(0.001, 3.0, size=3))
        params = ModelParams(*rates)
        bound = exit_rate_bound(net, params)
        largest = float(np.max(-np.diag(build_generator_dense(net, params))))
        per_node = np.maximum(params.gamma, params.eps + net.degrees * params.beta).sum()
        assert largest <= bound * (1 + 1e-12)
        assert bound <= per_node

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_matches_dense_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n)
        params = ModelParams(beta=rng.uniform(0.1, 2.0),
                             gamma=rng.uniform(0.1, 2.0),
                             eps=rng.uniform(0.1, 2.0))
        expanded = cp_to_dense(build_generator_cp(net, params))
        oracle = build_generator_dense(net, params)
        assert np.abs(expanded - oracle).max() <= 1e-12


class TestGeneratorDense:
    def test_single_node(self, params):
        expected = np.array([[-params.eps, params.gamma],
                             [params.eps, -params.gamma]])
        np.testing.assert_allclose(build_generator_dense(Network(1), params),
                                   expected, atol=1e-15)

    def test_memory_guard(self, params):
        with pytest.raises(ValueError, match="refusing"):
            build_generator_dense(Network(15), params)

    def test_spontaneous_entries_from_empty_state(self, params):
        gen = build_generator_dense(Network(2, [(0, 1)]), params)
        # column of (0,0): spontaneous infection into (1,0) and (0,1)
        assert gen[2, 0] == pytest.approx(params.eps)
        assert gen[1, 0] == pytest.approx(params.eps)

    def test_matches_scalar_rates(self, params):
        # every off-diagonal entry, on a random graph, one whose last node
        # is isolated and one of two components, N = 1..5
        rng = np.random.default_rng(23)
        nets = []
        for n in range(1, 6):
            half = n // 2
            nets += [random_network(rng, n, 0.7),
                     Network(n, all_pairs(n - 1)),
                     Network(n, [(i, j) for i, j in all_pairs(n)
                                 if (i < half) == (j < half)])]
        for net in nets:
            n = net.n_nodes
            gen = build_generator_dense(net, params)
            for k in range(1 << n):
                for j in range(1 << n):
                    if j != k:
                        assert gen[j, k] == transition_rate(
                            index_state(k, n), index_state(j, n), net, params)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_generator_validity(self, n, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n)
        params = ModelParams(beta=rng.uniform(0.1, 2.0),
                             gamma=rng.uniform(0.1, 2.0),
                             eps=rng.uniform(0.1, 2.0))
        gen = build_generator_dense(net, params)
        off_diag = gen - np.diag(gen.diagonal())
        assert off_diag.min() >= 0.0
        np.testing.assert_allclose(gen.sum(axis=0), 0.0, atol=1e-12)
        # at most 2N off-diagonal nonzeros per column: one flip per node
        assert (np.count_nonzero(off_diag, axis=0) <= 2 * n).all()

    def test_zero_beta_is_kronecker_sum(self):
        params = ModelParams(beta=0.0, gamma=0.7, eps=0.2)
        rng = np.random.default_rng(31)
        net = random_network(rng, 4)
        single = np.array([[-params.eps, params.gamma],
                           [params.eps, -params.gamma]])
        expected = np.zeros((16, 16))
        for n in range(4):
            term = [np.eye(2)] * 4
            term[n] = single
            m = np.ones((1, 1))
            for f in term:
                m = np.kron(m, f)
            expected += m
        np.testing.assert_allclose(build_generator_dense(net, params), expected,
                                   atol=1e-12)
