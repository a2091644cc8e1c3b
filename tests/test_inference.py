import math

import numpy as np
import pytest

from epinfer import (Network, NoReplacementProposer, ObservationSeries,
                     SolverAccuracyError, ToggleProposer, chain_network,
                     initial_guess, initial_scores, log_likelihood,
                     maximize_loglike, mcmc_optimize, mh_ratio,
                     network_distance, resample_uniform, serialize_chain,
                     simulate_epidemic)
from epinfer import forward
from epinfer.graphs import all_pairs, network_from_bits
from epinfer.tt import tt_round

from conftest import random_network


def obs_from_states(rows, tau=0.1):
    rows = np.asarray(rows, dtype=np.uint8)
    return ObservationSeries(np.arange(len(rows)) * tau, rows)


class TestInitialScores:
    def test_single_infection_interval(self):
        obs = obs_from_states([[1, 0, 0], [1, 1, 0]])
        h = initial_scores(obs)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.5
        np.testing.assert_allclose(h, expected)

    def test_recovery_contributes_nothing(self):
        obs = obs_from_states([[1, 0], [0, 0]])
        np.testing.assert_array_equal(initial_scores(obs), np.zeros((2, 2)))

    def test_constant_data_gives_zero(self):
        obs = obs_from_states([[1, 0, 1]] * 5)
        np.testing.assert_array_equal(initial_scores(obs), np.zeros((3, 3)))

    def test_symmetry_zero_diagonal(self, params):
        net = chain_network(5)
        x0 = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        traj = simulate_epidemic(net, params, x0, 30.0, np.random.default_rng(80))
        obs = resample_uniform(traj, 0.1, 30.0)
        h = initial_scores(obs)
        np.testing.assert_allclose(h, h.T)
        np.testing.assert_array_equal(np.diag(h), 0.0)
        assert (h >= 0).all()


class TestInitialGuess:
    def test_uniform_scores_give_complete_graph(self):
        h = np.ones((4, 4)) - np.eye(4)
        net = initial_guess(h)
        assert len(net.edges) == 6

    def test_single_dominant_pair(self):
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = 1.0
        net = initial_guess(h)
        assert net.edges == frozenset({(0, 1)})

    def test_zero_scores_give_empty_network(self):
        h = np.zeros((4, 4))
        assert initial_guess(h).edges == frozenset()


class TestProposals:
    def test_two_nodes_always_the_single_pair(self):
        net = Network(2)
        rng = np.random.default_rng(2)
        for _ in range(5):
            proposed, pair = ToggleProposer(2, rng).propose(net)
            assert pair == (0, 1)

    def test_toggle_uniformity(self):
        rng = np.random.default_rng(3)
        net = Network(4)
        counts = {pair: 0 for pair in all_pairs(4)}
        n_draws = 100_000
        for _ in range(n_draws):
            _, pair = ToggleProposer(4, rng).propose(net)
            counts[pair] += 1
        p = 1 / 6
        se = math.sqrt(p * (1 - p) / n_draws)
        for pair, count in counts.items():
            assert abs(count / n_draws - p) <= 4 * se

    def test_toggle_twice_restores(self):
        rng = np.random.default_rng(4)
        net = chain_network(4)
        proposed, pair = ToggleProposer(4, rng).propose(net)
        assert proposed.with_edge_toggled(pair) == net

    def test_norepl_block_covers_all_pairs(self):
        rng = np.random.default_rng(5)
        prop = NoReplacementProposer(5, rng)
        net = Network(5)
        block = len(all_pairs(5))
        for _ in range(3):
            seen = set()
            for _ in range(block):
                net, pair = prop.propose(net)
                seen.add(pair)
            assert seen == set(all_pairs(5))

    def test_norepl_two_nodes_degenerates_to_toggle(self):
        rng = np.random.default_rng(6)
        prop = NoReplacementProposer(2, rng)
        net = Network(2)
        for _ in range(4):
            net, pair = prop.propose(net)
            assert pair == (0, 1)

    def test_norepl_reproducible(self):
        seqs = []
        for _ in range(2):
            prop = NoReplacementProposer(5, np.random.default_rng(7))
            net = Network(5)
            seq = []
            for _ in range(25):
                net, pair = prop.propose(net)
                seq.append(pair)
            seqs.append(seq)
        assert seqs[0] == seqs[1]


class TestMhRatio:
    def test_equal_is_one(self):
        assert mh_ratio(-5.0, -5.0) == 1.0

    def test_ln2_difference(self):
        assert mh_ratio(-1.0, -1.0 - math.log(2.0)) == pytest.approx(2.0)

    def test_new_minus_inf_never_accepted(self):
        assert mh_ratio(-math.inf, -3.0) == 0.0

    def test_old_minus_inf_always_accepted(self):
        assert mh_ratio(-3.0, -math.inf) == math.inf

    def test_both_minus_inf_is_tie(self):
        assert mh_ratio(-math.inf, -math.inf) == 1.0

    def test_overflow_is_inf(self):
        assert mh_ratio(0.0, -1e6) == math.inf


class TestMaximizeLoglike:
    def test_better_proposal_always_accepted(self):
        # objective strictly prefers more edges, so every add is accepted
        def loglike(net):
            return float(len(net.edges))

        chain = maximize_loglike(loglike, Network(3), 20, "norepl",
                                 np.random.default_rng(8))
        adds = [rec for prev, rec in zip(chain.samples, chain.samples[1:])
                if bin(rec.edge_bits).count("1") > bin(prev.edge_bits).count("1")]
        assert len(chain.best_network.edges) == 3
        assert all(rec.accepted for rec in adds)

    def test_single_eval_chain_length(self):
        def loglike(net):
            return -float(len(net.edges))

        chain = maximize_loglike(loglike, Network(3), 1, "toggle",
                                 np.random.default_rng(9))
        assert len(chain.samples) == 2
        assert chain.best_log_like == max(rec.log_like for rec in chain.samples)

    def test_chain_moves_one_link_at_a_time(self):
        def loglike(net):
            return -float(len(net.edges))

        chain = maximize_loglike(loglike, chain_network(4), 60, "toggle",
                                 np.random.default_rng(10))
        n = 4
        for prev, cur in zip(chain.samples, chain.samples[1:]):
            d = network_distance(network_from_bits(n, prev.edge_bits),
                                 network_from_bits(n, cur.edge_bits))
            assert d <= 1
            if not cur.accepted:
                assert cur.edge_bits == prev.edge_bits
                assert cur.log_like == prev.log_like

    def test_best_is_running_max(self):
        def loglike(net):
            return -abs(len(net.edges) - 2.0)

        chain = maximize_loglike(loglike, Network(4), 80, "toggle",
                                 np.random.default_rng(11))
        assert chain.best_log_like == max(r.log_like for r in chain.samples)

    def test_acceptance_rate_of_worse_proposals(self):
        # every add is worse by exactly ln 2, so it should be accepted with
        # frequency 1/2
        penalty = math.log(2.0)

        def loglike(net):
            return -penalty * len(net.edges)

        rng = np.random.default_rng(12)
        chain = maximize_loglike(loglike, Network(5), 20_000, "toggle", rng)
        worse = accepted = 0
        for prev, cur in zip(chain.samples, chain.samples[1:]):
            prev_edges = bin(prev.edge_bits).count("1")
            cur_edges = bin(cur.edge_bits).count("1")
            if cur.accepted and cur_edges > prev_edges:
                worse += 1
                accepted += 1
            elif not cur.accepted:
                # better (remove) proposals are always accepted, so every
                # rejection was an add
                worse += 1
        rate = accepted / worse
        se = math.sqrt(0.25 / worse)
        assert abs(rate - 0.5) <= 4 * se

    def test_cache_transparency(self):
        calls = []

        def loglike(net):
            calls.append(net.edge_bits)
            return -float(len(net.edges))

        chain = maximize_loglike(loglike, Network(3), 40, "toggle",
                                 np.random.default_rng(13))
        assert len(calls) == len(set(calls))
        for rec in chain.samples:
            assert rec.log_like == loglike(network_from_bits(3, rec.edge_bits))

    def test_distance_trace(self):
        def loglike(net):
            return 0.0

        ref = chain_network(3)
        chain = maximize_loglike(loglike, ref, 5, "toggle",
                                 np.random.default_rng(14), reference=ref)
        assert chain.samples[0].distance == 0
        assert all(rec.distance is not None for rec in chain.samples)

    def test_aborts_cleanly_on_solver_failure(self):
        def loglike(net):
            if len(net.edges) >= 2:
                raise SolverAccuracyError("boom")
            return float(len(net.edges))

        chain = maximize_loglike(loglike, Network(3), 50, "norepl",
                                 np.random.default_rng(15))
        assert chain.aborted
        assert "boom" in chain.error
        assert 1 <= len(chain.samples) <= 51

    def test_tt_mass_deficit_aborts_chain(self, params, monkeypatch):
        # roundings that keep rank 1 make every tt solve lose mass
        monkeypatch.setattr(forward, "tt_round",
                            lambda p, tol: tt_round(p, float(p.n_sites)))
        obs = obs_from_states([[1, 0, 0], [1, 1, 0], [0, 1, 1]])

        def loglike(net):
            if not net.edges:
                return 0.0
            return log_likelihood(net, params, obs, solver="tt").log_like

        chain = maximize_loglike(loglike, Network(3), 20, "norepl",
                                 np.random.default_rng(15))
        assert chain.aborted
        assert chain.error.startswith("SolverAccuracyError: mass deficit")
        assert len(chain.samples) == 1

    @pytest.mark.parametrize("fault", ["nan", "bug"])
    def test_tt_fault_after_g0(self, params, monkeypatch, fault):
        # a NaN in a TT solve aborts the chain; a programming error propagates
        obs = obs_from_states([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        original, applied, armed = forward.cp_apply, [], []

        def faulty(op, p):
            out = original(op, p)
            if armed:
                applied.append(out)
            if len(applied) == 3:
                if fault == "bug":
                    raise TypeError("bug")
                out.cores[-1][0, 0, 0] = np.nan
            return out

        def loglike(net):
            value = log_likelihood(net, params, obs, solver="tt").log_like
            armed.append(net)
            return value

        monkeypatch.setattr(forward, "cp_apply", faulty)
        if fault == "bug":
            with pytest.raises(TypeError, match="bug"):
                maximize_loglike(loglike, Network(3), 20, "norepl",
                                 np.random.default_rng(15))
            return
        chain = maximize_loglike(loglike, Network(3), 20, "norepl",
                                 np.random.default_rng(15))
        assert chain.aborted
        assert chain.error.startswith("SolverAccuracyError: rounding failed")
        assert len(chain.samples) == 1

    def test_solver_error_at_g0_propagates(self):
        # there is no partial result before g0 is scored
        def loglike(net):
            raise SolverAccuracyError("boom at g0")

        with pytest.raises(SolverAccuracyError, match="boom at g0"):
            maximize_loglike(loglike, Network(3), 5, "norepl",
                             np.random.default_rng(15))

    def test_programming_error_propagates(self):
        def loglike(net):
            if len(net.edges) >= 2:
                raise TypeError("bug")
            return float(len(net.edges))

        with pytest.raises(TypeError, match="bug"):
            maximize_loglike(loglike, Network(3), 50, "norepl",
                             np.random.default_rng(15))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            maximize_loglike(lambda net: 0.0, Network(3), 0, "toggle",
                             np.random.default_rng(0))
        with pytest.raises(ValueError):
            maximize_loglike(lambda net: 0.0, Network(3), 5, "sideways",
                             np.random.default_rng(0))

    @pytest.mark.parametrize("proposal", ["toggle", "norepl"])
    def test_single_node_rejected_before_evaluation(self, proposal):
        def loglike(net):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match="at least 2 nodes"):
            maximize_loglike(loglike, Network(1), 5, proposal,
                             np.random.default_rng(0))


class TestMcmcOptimize:
    def test_recovers_exhaustive_argmax(self, params):
        # MCMC hits the global optimum found by brute force over all 64
        # four-node networks in at least 9 of 10 seeds
        truth = chain_network(4)
        x0 = np.array([1, 0, 0, 0], dtype=np.uint8)
        hits = 0
        for seed in range(10):
            traj = simulate_epidemic(truth, params, x0, 50.0,
                                     np.random.default_rng(900 + seed))
            obs = resample_uniform(traj, 0.1, 50.0)
            best_ll, best_net = -math.inf, None
            for bits in range(64):
                candidate = network_from_bits(4, bits)
                ll = log_likelihood(candidate, params, obs, "dense").log_like
                if ll > best_ll:
                    best_ll, best_net = ll, candidate
            chain = mcmc_optimize(obs, params, Network(4), 100,
                                  proposal="norepl", solver="dense",
                                  rng=np.random.default_rng(7000 + seed))
            if chain.best_network == best_net:
                hits += 1
        assert hits >= 9

    def test_ssa_is_not_an_objective(self, params):
        # ssa scores every candidate -inf on data with a rare transition,
        # so the chain could not rank networks
        obs = obs_from_states([[1, 0, 0], [1, 1, 0]])
        with pytest.raises(ValueError, match="tt or dense"):
            mcmc_optimize(obs, params, Network(3), 5, solver="ssa",
                          rng=np.random.default_rng(0))

    def test_serialize_chain_format(self, params):
        truth = chain_network(3)
        x0 = np.array([1, 0, 0], dtype=np.uint8)
        traj = simulate_epidemic(truth, params, x0, 5.0, np.random.default_rng(16))
        obs = resample_uniform(traj, 0.1, 5.0)
        chain = mcmc_optimize(obs, params, Network(3), 5, solver="dense",
                              rng=np.random.default_rng(17), reference=truth)
        lines = serialize_chain(chain).strip().splitlines()
        assert lines[0] == "iter\tlog_like\taccepted\tdistance_to_truth\tedge_bitset_hex"
        assert len(lines) == 7
        fields = lines[1].split("\t")
        assert fields[0] == "0"
        assert fields[2] in ("0", "1")
        int(fields[4], 16)
