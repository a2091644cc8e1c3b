import math

import numpy as np
import pytest
import scipy.stats

from epinfer import (ModelParams, Network, SolverAccuracyError,
                     SubstepLimitError, build_generator_cp, chain_network,
                     dense_propagator, evolve_tt, transition_prob_dense,
                     transition_prob_ssa, transition_prob_tt)
from epinfer import forward
from epinfer.graphs import austria_network, fiedler_ordering, permute_network
from epinfer.tt import (CPOperator, tt_element, tt_inner, tt_ones, tt_round,
                        unit_state_tt)

from conftest import random_network, random_state, state_index, tt_to_dense


def two_state_infection_prob(params, t):
    """Closed-form single-node probability of being infected at time t from 0."""
    rate = params.eps + params.gamma
    return params.eps / rate * (1.0 - math.exp(-rate * t))


class TestEvolveTT:
    def test_zero_time_is_identity(self, params):
        net = chain_network(4)
        gen = build_generator_cp(net, params)
        p0 = unit_state_tt([1, 0, 1, 0])
        out = evolve_tt(gen, p0, 0.0)
        np.testing.assert_allclose(tt_to_dense(out), tt_to_dense(p0), atol=1e-13)

    def test_single_node_analytic(self, params):
        gen = build_generator_cp(Network(1), params)
        out = evolve_tt(gen, unit_state_tt([0]), 0.25)
        expected = two_state_infection_prob(params, 0.25)
        assert tt_to_dense(out)[1] == pytest.approx(expected, rel=1e-9)

    def test_matches_expm_oracle(self, params):
        rng = np.random.default_rng(41)
        net = random_network(rng, 5)
        gen = build_generator_cp(net, params)
        x0 = random_state(rng, 5)
        out = evolve_tt(gen, unit_state_tt(x0), 0.1)
        oracle = dense_propagator(net, params, 0.1)[:, state_index(x0)]
        err = np.linalg.norm(tt_to_dense(out) - oracle)
        assert err <= 1e-5 * np.linalg.norm(oracle)

    def test_mass_conserved(self, params):
        rng = np.random.default_rng(43)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            net = random_network(rng, n)
            gen = build_generator_cp(net, params)
            out = evolve_tt(gen, unit_state_tt(random_state(rng, n)), 0.3)
            assert abs(tt_inner(out, tt_ones(n)) - 1.0) <= 1e-8

    def test_nonnegative_entries(self, params):
        rng = np.random.default_rng(44)
        net = random_network(rng, 6)
        gen = build_generator_cp(net, params)
        out = evolve_tt(gen, unit_state_tt(random_state(rng, 6)), 0.2)
        assert tt_to_dense(out).min() >= -1e-8

    def test_semigroup_property(self, params):
        rng = np.random.default_rng(45)
        net = random_network(rng, 5)
        gen = build_generator_cp(net, params)
        p0 = unit_state_tt(random_state(rng, 5))
        direct = evolve_tt(gen, p0, 0.3)
        composed = evolve_tt(gen, evolve_tt(gen, p0, 0.1), 0.2)
        err = np.linalg.norm(tt_to_dense(direct) - tt_to_dense(composed))
        assert err <= 2e-6

    def test_substep_cap(self, params):
        net = chain_network(4)
        gen = build_generator_cp(net, params)
        with pytest.raises(SubstepLimitError):
            evolve_tt(gen, unit_state_tt([1, 0, 0, 0]), 1e6)

    def test_absolute_accuracy_of_rare_entries(self, params):
        # probabilities far below any relative tolerance are still resolved
        # on an absolute scale
        rng = np.random.default_rng(47)
        n_checked = 0
        for _ in range(6):
            net = random_network(rng, 6)
            # from a single infected node, the many-event targets are rare
            x0 = np.zeros(6, dtype=np.uint8)
            x0[rng.integers(6)] = 1
            gen = build_generator_cp(net, params)
            p_tt = tt_to_dense(evolve_tt(gen, unit_state_tt(x0), 0.1))
            oracle = dense_propagator(net, params, 0.1)[:, state_index(x0)]
            rare = (oracle >= 1e-13) & (oracle <= 1e-8)
            np.testing.assert_allclose(p_tt[rare], oracle[rare], rtol=1e-4, atol=0)
            n_checked += int(rare.sum())
        assert n_checked >= 10

    def test_one_rounding_per_application(self, params, monkeypatch):
        # Horner's rule rounds once per Poisson term, and the edge-counting
        # exit-rate bound covers an Austria dt=0.05 interval in one substep
        calls = {"cp_apply": 0, "tt_round": 0}

        def counted(name):
            original = getattr(forward, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(forward, name, counted(name))
        net = austria_network()
        pnet = permute_network(net, fiedler_ordering(net))
        gen = build_generator_cp(pnet, params)
        x0 = np.zeros(9, dtype=np.uint8)
        x0[4] = 1
        evolve_tt(gen, unit_state_tt(x0), 0.05)
        one_substep = forward._poisson_weights(gen.exit_rate_bound * 0.05,
                                               forward._TAIL_ABS)
        assert calls["cp_apply"] == calls["tt_round"] == len(one_substep) - 1

    @pytest.mark.parametrize("dt", [0.1, 1.0, 5.0])
    def test_absolute_accuracy_over_substeps(self, params, dt):
        rng = np.random.default_rng(48)
        for _ in range(6):
            net = random_network(rng, 6)
            x0 = random_state(rng, 6)
            gen = build_generator_cp(net, params)
            p_tt = tt_to_dense(evolve_tt(gen, unit_state_tt(x0), dt))
            oracle = dense_propagator(net, params, dt)[:, state_index(x0)]
            np.testing.assert_allclose(p_tt, oracle, rtol=0, atol=1e-12)

    def test_mass_deficit_raises(self, params, monkeypatch):
        # roundings that keep rank 1 drop real probability mass
        monkeypatch.setattr(forward, "tt_round",
                            lambda p, tol: tt_round(p, float(p.n_sites)))
        gen = build_generator_cp(chain_network(4), params)
        with pytest.raises(SolverAccuracyError, match="mass deficit"):
            evolve_tt(gen, unit_state_tt([1, 0, 0, 0]), 0.1)

    def test_uniformized_operator_built_once_per_generator(self, params,
                                                            monkeypatch):
        gen = build_generator_cp(chain_network(4), params)
        built = []
        original = CPOperator.__post_init__

        def counted(op):
            built.append(op)
            original(op)

        monkeypatch.setattr(CPOperator, "__post_init__", counted)
        p0 = unit_state_tt([1, 0, 0, 0])
        evolve_tt(gen, p0, 0.1)
        evolve_tt(gen, p0, 0.2)
        assert len(built) == 1

    def test_rejects_generator_without_exit_rate_bound(self, params):
        unbounded = CPOperator(build_generator_cp(chain_network(3), params).terms)
        with pytest.raises(ValueError, match="no exit-rate bound"):
            evolve_tt(unbounded, unit_state_tt([1, 0, 0]), 0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, params, dt):
        gen = build_generator_cp(chain_network(3), params)
        with pytest.raises(ValueError, match="dt must be finite"):
            evolve_tt(gen, unit_state_tt([1, 0, 0]), dt)

    def test_rejects_unnormalized_input(self, params):
        net = chain_network(3)
        gen = build_generator_cp(net, params)
        from epinfer.tt import tt_scale
        bad = tt_scale(unit_state_tt([1, 0, 0]), 0.5)
        with pytest.raises(ValueError, match="mass"):
            evolve_tt(gen, bad, 0.1)

    def test_separator_rank_on_disjoint_components(self, params):
        net = Network(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        order = fiedler_ordering(net)
        pnet = permute_network(net, order)
        gen = build_generator_cp(pnet, params)
        x0 = np.zeros(6, dtype=np.uint8)
        x0[0] = 1
        out = evolve_tt(gen, unit_state_tt(x0[order]), 1.0)
        assert tt_round(out, 1e-8).ranks[3] == 1


class TestTransitionProbTT:
    def test_self_transition_near_one_for_tiny_dt(self, params):
        net = chain_network(3)
        x = np.array([1, 0, 0], dtype=np.uint8)
        p = transition_prob_tt(net, params, x, x, 1e-6)
        assert p == pytest.approx(1.0, abs=1e-4)

    def test_single_node_analytic(self, params):
        p = transition_prob_tt(Network(1), params, [0], [1], 0.1)
        assert p == pytest.approx(9.749280287759415e-4, rel=1e-8)

    def test_long_interval_single_node(self, params):
        # 31 substeps: the Poisson tail target 1e-14/31 is too close to the
        # double resolution of 1 for the partial sum to reach it
        p = transition_prob_tt(Network(1), params, [0], [1], 61.5)
        assert p == pytest.approx(two_state_infection_prob(params, 61.5), rel=1e-9)

    def test_long_interval_matches_dense_oracle(self, params):
        net = chain_network(3)
        xa, xb = [1, 0, 0], [0, 1, 1]
        p_tt = transition_prob_tt(net, params, xa, xb, 11.0)
        p_dense = transition_prob_dense(net, params, xa, xb, 11.0)
        assert p_tt == pytest.approx(p_dense, rel=1e-4)

    def test_matches_dense_oracle(self, params):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            net = random_network(rng, n)
            xa, xb = random_state(rng, n), random_state(rng, n)
            p_tt = transition_prob_tt(net, params, xa, xb, 0.1)
            p_dense = transition_prob_dense(net, params, xa, xb, 0.1)
            if p_dense >= 1e-8:
                assert abs(p_tt - p_dense) / p_dense <= 1e-5

    def test_ordering_flag_changes_nothing_numerically(self, params):
        rng = np.random.default_rng(48)
        net = random_network(rng, 5)
        xa, xb = random_state(rng, 5), random_state(rng, 5)
        p_ordered = transition_prob_tt(net, params, xa, xb, 0.2)
        evolved = evolve_tt(build_generator_cp(net, params), unit_state_tt(xa), 0.2)
        p_unpermuted = tt_element(evolved, xb)
        assert p_ordered == pytest.approx(p_unpermuted, rel=1e-8, abs=1e-12)

    def test_rejects_nonpositive_dt(self, params):
        net = chain_network(3)
        x = [1, 0, 0]
        with pytest.raises(ValueError):
            transition_prob_tt(net, params, x, x, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, params, dt):
        x = [1, 0, 0]
        with pytest.raises(ValueError, match="dt must be finite"):
            transition_prob_tt(chain_network(3), params, x, x, dt)

    def test_rejects_malformed_states(self, params):
        net = chain_network(5)
        with pytest.raises(ValueError, match="0/1 vector of length 5"):
            transition_prob_tt(net, params, [1, 0, 0, 0, 0, 1], [0] * 5, 0.1)
        with pytest.raises(ValueError, match="0/1 vector of length 5"):
            transition_prob_tt(net, params, [1, 0, 0, 0, 0], [0, 0, 2, 0, 0], 0.1)


class TestTransitionProbDense:
    def test_zero_time(self, params):
        net = chain_network(3)
        x = [1, 0, 0]
        y = [0, 0, 1]
        assert transition_prob_dense(net, params, x, x, 0.0) == pytest.approx(1.0)
        assert transition_prob_dense(net, params, x, y, 0.0) == pytest.approx(0.0)

    def test_single_node_analytic(self, params):
        p = transition_prob_dense(Network(1), params, [0], [1], 0.1)
        assert p == pytest.approx(9.749280287759415e-4, rel=1e-12)

    def test_columns_sum_to_one(self, params):
        rng = np.random.default_rng(51)
        net = random_network(rng, 5)
        prop = dense_propagator(net, params, 0.4)
        np.testing.assert_allclose(prop.sum(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, params, dt):
        x = [1, 0, 0]
        with pytest.raises(ValueError, match="dt must be finite"):
            transition_prob_dense(chain_network(3), params, x, x, dt)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_propagator_rejects_non_finite_dt(self, params, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            dense_propagator(chain_network(3), params, dt)

    def test_memory_guard(self, params):
        with pytest.raises(ValueError, match="refusing"):
            transition_prob_dense(Network(15), params, [0] * 15, [0] * 15, 0.1)

    def test_rejects_malformed_states(self, params):
        net = chain_network(5)
        with pytest.raises(ValueError, match="0/1 vector of length 5"):
            transition_prob_dense(net, params, [1, 0, 0, 0], [0, 0, 0, 0], 0.1)
        with pytest.raises(ValueError, match="0/1 vector of length 5"):
            transition_prob_dense(net, params, [0, 0, 0, 0, 2], [0] * 5, 0.1)

    def test_big_endian_state_order(self, params):
        # node 0 is the most significant bit of a dense index: from column
        # 0b100 only node 1 has an infected neighbour
        net = Network(3, [(0, 1)])
        prop = dense_propagator(net, params, 0.1)
        contact = transition_prob_dense(net, params, [1, 0, 0], [1, 1, 0], 0.1)
        spontaneous = transition_prob_dense(net, params, [1, 0, 0], [1, 0, 1], 0.1)
        assert prop[0b110, 0b100] == contact
        assert prop[0b101, 0b100] == spontaneous
        assert contact > 10 * spontaneous


class TestTransitionProbSSA:
    def test_unobserved_event_is_zero(self, params):
        net = chain_network(4)
        rng = np.random.default_rng(52)
        # all four nodes flipping within a nanosecond is effectively impossible
        p = transition_prob_ssa(net, params, [0, 0, 0, 0], [1, 1, 1, 1], 1e-9,
                                100, rng)
        assert p == 0.0

    def test_tiny_interval_keeps_state(self, params):
        net = chain_network(3)
        rng = np.random.default_rng(53)
        x = [1, 0, 1]
        assert transition_prob_ssa(net, params, x, x, 1e-9, 200, rng) == 1.0

    def test_within_binomial_ci_of_oracle(self, params):
        rng = np.random.default_rng(54)
        net = chain_network(4)
        n_traj = 2000
        misses = 0
        for _ in range(6):
            xa, xb = random_state(rng, 4), random_state(rng, 4)
            p_true = transition_prob_dense(net, params, xa, xb, 0.5)
            freq = transition_prob_ssa(net, params, xa, xb, 0.5, n_traj, rng)
            pvalue = scipy.stats.binomtest(round(freq * n_traj), n_traj,
                                           p_true).pvalue
            if pvalue < 0.01:
                misses += 1
        assert misses <= 1

    def test_unbiased_over_repeats(self, params):
        net = chain_network(3)
        xa = np.array([1, 0, 0], dtype=np.uint8)
        xb = np.array([1, 1, 0], dtype=np.uint8)
        p_true = transition_prob_dense(net, params, xa, xb, 0.5)
        n_traj = 500
        estimates = [
            transition_prob_ssa(net, params, xa, xb, 0.5, n_traj,
                                np.random.default_rng([55, rep]))
            for rep in range(30)
        ]
        se = math.sqrt(p_true * (1 - p_true) / (n_traj * 30))
        assert abs(np.mean(estimates) - p_true) <= 3 * se

    def test_rejects_malformed_states(self, params):
        net = chain_network(5)
        rng = np.random.default_rng(56)
        with pytest.raises(ValueError, match="0/1 vector of length 5"):
            transition_prob_ssa(net, params, [1, 0, 0, 0, 0], [0, 0, 0, 0],
                                0.1, 10, rng)

    @pytest.mark.parametrize("dt", [-1.0, math.nan, math.inf])
    def test_rejects_bad_dt(self, params, dt):
        # a NaN or infinite horizon never ends the Gillespie loop
        x = [1, 0, 0]
        with pytest.raises(ValueError, match="dt must be finite"):
            transition_prob_ssa(chain_network(3), params, x, x, dt, 10,
                                np.random.default_rng(57))

    def test_deterministic_given_seed(self, params):
        net = chain_network(4)
        xa = [1, 0, 0, 0]
        xb = [1, 1, 0, 0]
        a = transition_prob_ssa(net, params, xa, xb, 0.3, 300,
                                np.random.default_rng(77))
        b = transition_prob_ssa(net, params, xa, xb, 0.3, 300,
                                np.random.default_rng(77))
        assert a == b

    def test_stream_pinned(self):
        # exact value of a seeded estimate: a change to the Gillespie
        # kernel's random draws, or their order, changes it
        params = ModelParams(beta=1.0, gamma=0.5, eps=0.1)
        p = transition_prob_ssa(chain_network(4), params, [1, 0, 0, 0],
                                [1, 1, 0, 0], 0.7, 400,
                                np.random.default_rng(2025))
        assert p == 0.2425
