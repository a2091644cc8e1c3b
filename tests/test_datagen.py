import numpy as np
import pytest

from epinfer import (EventTrajectory, Network, ObservationSeries, chain_network,
                     parse_observations, resample_uniform, serialize_observations,
                     simulate_epidemic)
from epinfer.datagen import _jump_events
from epinfer.generator import ModelParams


class TestSimulateEpidemic:
    def test_deterministic_given_seed(self, params):
        net = chain_network(4)
        x0 = np.array([1, 0, 0, 0], dtype=np.uint8)
        a = simulate_epidemic(net, params, x0, 20.0, np.random.default_rng(5))
        b = simulate_epidemic(net, params, x0, 20.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.values, b.values)

    def test_stream_pinned(self):
        # exact record of one seeded run: a change to the Gillespie kernel's
        # random draws, or their order, changes every generated dataset
        params = ModelParams(beta=1.0, gamma=0.5, eps=0.1)
        traj = simulate_epidemic(chain_network(5), params, [1, 0, 0, 0, 0],
                                 50.0, np.random.default_rng(2024))
        final = traj.initial_state.copy()
        for node, value in zip(traj.nodes, traj.values):
            final[node] = value
        assert traj.n_events == 148
        assert traj.times[-1] == 49.110857331208045
        assert final.tolist() == [0, 1, 1, 0, 1]

    @pytest.mark.parametrize("t_max", [np.nan, np.inf])
    def test_rejects_non_finite_horizon(self, params, t_max):
        # a NaN or infinite horizon never ends the Gillespie loop
        with pytest.raises(ValueError, match="t_max must be finite"):
            simulate_epidemic(chain_network(3), params, [1, 0, 0], t_max,
                              np.random.default_rng(1))

    def test_rejects_non_binary_initial_state(self, params):
        with pytest.raises(ValueError, match="0/1 vector of length 3"):
            simulate_epidemic(chain_network(3), params, [2, 0, 0], 1.0,
                              np.random.default_rng(1))

    def test_short_horizon_no_events(self, params):
        net = chain_network(3)
        traj = simulate_epidemic(net, params, [1, 0, 0], 1e-9,
                                 np.random.default_rng(6))
        assert traj.n_events == 0

    def test_event_times_increase_and_flip_one_node(self, params):
        net = chain_network(5)
        traj = simulate_epidemic(net, params, [1, 0, 0, 0, 0], 50.0,
                                 np.random.default_rng(7))
        assert traj.n_events > 0
        assert (np.diff(traj.times) > 0).all()
        assert traj.times.max() < 50.0

    def test_first_event_from_all_infected(self):
        # no susceptible nodes means no infection channel: the first event is
        # always a recovery, and its waiting time is exponential at rate
        # N * gamma (competing exponentials)
        params = ModelParams(beta=1.0, gamma=0.5, eps=0.05)
        net = chain_network(3)
        x0 = np.ones(3, dtype=np.uint8)
        rng = np.random.default_rng(8)
        n_runs = 10_000
        waits = np.empty(n_runs)
        for i in range(n_runs):
            x = x0.copy()
            # only the first jump of each path is needed
            waits[i], node = next(_jump_events(net, params, x, 100.0, rng))
            assert x[node] == 0
        mean_expected = 1.0 / (3 * params.gamma)
        se = mean_expected / np.sqrt(n_runs)
        assert abs(waits.mean() - mean_expected) <= 3 * se

    def test_single_node_occupancy_fraction(self, params):
        # long-run fraction of time infected is eps / (eps + gamma)
        net = Network(1)
        t_max = 40_000.0
        traj = simulate_epidemic(net, params, [0], t_max, np.random.default_rng(9))
        state = 0
        t_prev = 0.0
        infected_time = 0.0
        for t, value in zip(traj.times, traj.values):
            if state == 1:
                infected_time += t - t_prev
            state = value
            t_prev = t
        if state == 1:
            infected_time += t_max - t_prev
        expected = params.eps / (params.eps + params.gamma)
        # switch count ~ 2 * t_max * eps; crude 3-sigma band on the fraction
        n_cycles = max(traj.n_events / 2, 1)
        assert abs(infected_time / t_max - expected) <= 3 * expected / np.sqrt(n_cycles)

    def test_infection_rate_from_half_infected_pair(self, params):
        # first event from (1, 0) on a connected pair: node 2 gets infected
        # at rate beta + eps against total beta + eps + gamma
        net = Network(2, [(0, 1)])
        x0 = np.array([1, 0], dtype=np.uint8)
        rng = np.random.default_rng(10)
        n_runs = 10_000
        infections = 0
        for _ in range(n_runs):
            # only the first jump of each path is needed
            _, node = next(_jump_events(net, params, x0.copy(), 50.0, rng))
            infections += node == 1
        p_expected = (params.beta + params.eps) / (params.beta + params.eps
                                                   + params.gamma)
        se = np.sqrt(p_expected * (1 - p_expected) / n_runs)
        assert abs(infections / n_runs - p_expected) <= 3 * se


class TestResampleUniform:
    def test_no_events_repeats_initial_state(self):
        traj = EventTrajectory(np.array([1, 0], dtype=np.uint8), np.array([]),
                               np.array([], dtype=int), np.array([], dtype=np.uint8),
                               1.0)
        obs = resample_uniform(traj, 0.25, 1.0)
        assert len(obs.times) == 5
        assert (obs.states == [1, 0]).all()

    def test_record_count_on_long_grid(self, params):
        net = chain_network(3)
        traj = simulate_epidemic(net, params, [1, 0, 0], 200.0,
                                 np.random.default_rng(11))
        obs = resample_uniform(traj, 0.1, 200.0)
        assert obs.n_intervals == 2000
        assert len(obs.times) == 2001

    def test_right_continuous_sampling(self):
        traj = EventTrajectory(np.array([0], dtype=np.uint8),
                               np.array([0.15]), np.array([0]),
                               np.array([1], dtype=np.uint8), 0.5)
        obs = resample_uniform(traj, 0.1, 0.5)
        np.testing.assert_array_equal(obs.states.ravel(), [0, 0, 1, 1, 1, 1])

    def test_event_exactly_on_grid_point(self):
        traj = EventTrajectory(np.array([0], dtype=np.uint8),
                               np.array([0.2]), np.array([0]),
                               np.array([1], dtype=np.uint8), 0.4)
        obs = resample_uniform(traj, 0.1, 0.4)
        np.testing.assert_array_equal(obs.states.ravel(), [0, 0, 1, 1, 1])

    def test_rejects_bad_tau(self):
        traj = EventTrajectory(np.array([0], dtype=np.uint8), np.array([]),
                               np.array([], dtype=int),
                               np.array([], dtype=np.uint8), 1.0)
        with pytest.raises(ValueError):
            resample_uniform(traj, 0.0, 1.0)

    @pytest.mark.parametrize("tau,t_max", [(np.nan, 1.0), (np.inf, 1.0),
                                           (0.1, np.nan)])
    def test_rejects_non_finite_grid(self, tau, t_max):
        traj = EventTrajectory(np.array([0], dtype=np.uint8), np.array([]),
                               np.array([], dtype=int),
                               np.array([], dtype=np.uint8), 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            resample_uniform(traj, tau, t_max)

    @pytest.mark.parametrize("t_max", [5.0, -0.05, -0.5])
    def test_rejects_grid_outside_trajectory(self, t_max):
        # past its own horizon a trajectory knows no state; before 0 the
        # grid is empty or negative
        traj = EventTrajectory(np.array([0], dtype=np.uint8), np.array([]),
                               np.array([], dtype=int),
                               np.array([], dtype=np.uint8), 1.0)
        with pytest.raises(ValueError, match=rf"in \[0, 1.0\].*got {t_max}"):
            resample_uniform(traj, 0.1, t_max)


class TestObservationSeries:
    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValueError, match="increasing"):
            ObservationSeries(np.array([0.0, 0.0]),
                              np.zeros((2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("times", [[0.0, np.inf], [-np.inf, 0.0]])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            ObservationSeries(np.array(times), np.zeros((2, 3), dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            ObservationSeries(np.array([0.0, 1.0]),
                              np.full((2, 3), 2, dtype=np.uint8))


class TestObservationFiles:
    def test_parse_example(self):
        obs = parse_observations("# N=3\n0.0 100\n0.1 110\n")
        assert obs.n_nodes == 3
        np.testing.assert_array_equal(obs.states, [[1, 0, 0], [1, 1, 0]])
        np.testing.assert_allclose(obs.times, [0.0, 0.1])

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="increasing"):
            parse_observations("# N=2\n0.0 10\n0.0 11\n")

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError, match="0/1"):
            parse_observations("# N=2\n0.0 12\n")

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            parse_observations("# N=3\n0.0 10\n")

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_observations("0.0 10\n")

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError, match="time"):
            parse_observations("# N=2\nzero 10\n")

    def test_round_trip(self, params):
        net = chain_network(4)
        traj = simulate_epidemic(net, params, [1, 0, 0, 0], 30.0,
                                 np.random.default_rng(12))
        obs = resample_uniform(traj, 0.1, 30.0)
        back = parse_observations(serialize_observations(obs))
        np.testing.assert_array_equal(obs.states, back.states)
        np.testing.assert_allclose(obs.times, back.times, rtol=1e-9)

    def test_serialization_deterministic(self, params):
        net = chain_network(3)
        runs = []
        for _ in range(2):
            traj = simulate_epidemic(net, params, [1, 0, 0], 10.0,
                                     np.random.default_rng(13))
            runs.append(serialize_observations(resample_uniform(traj, 0.1, 10.0)))
        assert runs[0] == runs[1]
