"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
stated runtime budgets are asserted as well.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from epinfer import (ModelParams, Network, build_generator_cp,
                     build_generator_dense, chain_network, cp_to_dense,
                     initial_guess, initial_scores, log_likelihood,
                     maximize_loglike, mcmc_optimize, network_distance,
                     resample_uniform, simulate_epidemic, transition_prob_dense,
                     transition_prob_ssa)
from epinfer.cli import main
from epinfer.graphs import all_pairs, fiedler_ordering, permute_network
from epinfer.likelihood import contrast_matrix
from epinfer.tt import (tt_element, tt_inner, tt_ones, tt_round, unit_state_tt)
from epinfer.forward import evolve_tt

from conftest import random_network, random_state

PAPER_PARAMS = ModelParams(beta=1.0, gamma=0.5, eps=0.01)


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"criterion {number} [{name}]: {status} ({detail}; "
          f"{elapsed:.1f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: runtime {elapsed:.1f}s over budget"


def make_chain_obs(n_nodes, t_max, seed):
    x0 = np.zeros(n_nodes, dtype=np.uint8)
    x0[0] = 1
    truth = chain_network(n_nodes)
    traj = simulate_epidemic(truth, PAPER_PARAMS, x0, t_max,
                             np.random.default_rng(seed))
    return truth, resample_uniform(traj, 0.1, t_max)


def test_criterion_1_generator_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_col = 0.0
    counts_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        params = ModelParams(beta=rng.uniform(0.1, 2.0),
                             gamma=rng.uniform(0.1, 2.0),
                             eps=rng.uniform(0.1, 2.0))
        cp = build_generator_cp(net, params)
        expanded = cp_to_dense(cp)
        oracle = build_generator_dense(net, params)
        worst = max(worst, float(np.abs(expanded - oracle).max()))
        worst_col = max(worst_col, float(np.abs(expanded.sum(axis=0)).max()))
        counts_ok &= len(cp.terms) == 2 * n + int(net.degrees.sum())
    passed = worst <= 1e-12 and worst_col <= 1e-12 and counts_ok
    report(1, "generator equivalence", passed,
           f"max entry diff {worst:.2e}, max colsum {worst_col:.2e}, "
           f"term counts {'exact' if counts_ok else 'WRONG'}",
           time.time() - start, 10.0)


def test_criterion_2_forward_solver_accuracy():
    start = time.time()
    rng = np.random.default_rng(20801)
    dt = 0.1
    worst_rel = 0.0
    worst_mass = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        net = random_network(rng, n)
        x_a = random_state(rng, n)
        x_b = random_state(rng, n)
        p_dense = transition_prob_dense(net, PAPER_PARAMS, x_a, x_b, dt)
        order = fiedler_ordering(net)
        gen = build_generator_cp(permute_network(net, order), PAPER_PARAMS)
        evolved = evolve_tt(gen, unit_state_tt(x_a[order]), dt)
        p_tt = tt_element(evolved, x_b[order])
        worst_rel = max(worst_rel, abs(p_tt - p_dense) / max(p_dense, 1e-8))
        worst_mass = max(worst_mass, abs(1.0 - tt_inner(evolved, tt_ones(n))))
    passed = worst_rel <= 1e-4 and worst_mass <= 1e-8
    report(2, "forward-solver accuracy", passed,
           f"worst rel err {worst_rel:.2e} (<=1e-4), "
           f"worst mass dev {worst_mass:.2e} (<=1e-8)",
           time.time() - start, 120.0)


def test_criterion_3_rare_event_resolution():
    start = time.time()
    _, obs = make_chain_obs(6, 50.0, seed=304)
    empty = Network(6)
    rep_ssa = log_likelihood(empty, PAPER_PARAMS, obs, solver="ssa",
                             n_ssa=1000, ssa_seed=305)
    n_zero = int(np.sum(np.isneginf(rep_ssa.per_interval)))
    rep_tt = log_likelihood(empty, PAPER_PARAMS, obs, solver="tt")
    passed = (n_zero >= 1 and rep_ssa.log_like == -math.inf
              and math.isfinite(rep_tt.log_like))
    report(3, "rare-event resolution", passed,
           f"ssa zero intervals {n_zero} (>=1), "
           f"tt log10L {rep_tt.log10_like:.1f} finite",
           time.time() - start, 300.0)


def test_criterion_4_local_optimum_contrast():
    start = time.time()
    truth = chain_network(6)
    datasets = []
    for i in range(8):
        _, obs = make_chain_obs(6, 50.0, seed=400 + i)
        assert obs.n_intervals == 500
        datasets.append(obs)
    contrast = contrast_matrix(truth, datasets, PAPER_PARAMS, solver="dense")
    removals = [contrast[i, j] for i, j in truth.edges]
    additions = [contrast[i, j] for i, j in all_pairs(6)
                 if (i, j) not in truth.edges]
    all_negative = all(c < 0 for c in removals + additions)
    medians_ordered = np.median(removals) < np.median(additions)
    passed = all_negative and medians_ordered
    report(4, "local-optimum contrast", passed,
           f"all 15 entries negative: {all_negative}; median removal "
           f"{np.median(removals):.1f} < median addition {np.median(additions):.1f}",
           time.time() - start, 900.0)


def test_criterion_5_inference_recovery():
    start = time.time()
    distances = []
    for i in range(10):
        seed = 1000 + i
        truth, obs = make_chain_obs(5, 100.0, seed=seed)
        assert obs.n_intervals == 1000
        g0 = initial_guess(initial_scores(obs))
        chain = mcmc_optimize(obs, PAPER_PARAMS, g0, 200, proposal="norepl",
                              solver="tt", rng=np.random.default_rng(seed + 500),
                              reference=truth)
        distances.append(network_distance(chain.best_network, truth))
    n_exact = sum(d == 0 for d in distances)
    passed = n_exact >= 8 and max(distances) <= 1
    report(5, "inference recovery", passed,
           f"exact in {n_exact}/10 seeds (>=8), max distance {max(distances)} (<=1)",
           time.time() - start, 1800.0)


def test_criterion_6_fiedler_separator_rank():
    start = time.time()
    net = Network(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    order = fiedler_ordering(net)
    components_grouped = {int(v) for v in order[:3]} in ({0, 1, 2}, {3, 4, 5})
    gen = build_generator_cp(permute_network(net, order), PAPER_PARAMS)
    x0 = np.zeros(6, dtype=np.uint8)
    x0[0] = 1
    evolved = evolve_tt(gen, unit_state_tt(x0[order]), 1.0)
    separator_rank = tt_round(evolved, 1e-8).ranks[3]
    passed = components_grouped and separator_rank == 1
    report(6, "fiedler separator rank", passed,
           f"components grouped: {components_grouped}, "
           f"separator rank {separator_rank} (==1)",
           time.time() - start, 10.0)


def test_criterion_7_ssa_statistical_consistency():
    start = time.time()
    net = chain_network(4)
    rng = np.random.default_rng(700)
    n_traj = 10_000
    misses = 0
    for case in range(20):
        x_a = random_state(rng, 4)
        x_b = random_state(rng, 4)
        p_true = transition_prob_dense(net, PAPER_PARAMS, x_a, x_b, 0.5)
        freq = transition_prob_ssa(net, PAPER_PARAMS, x_a, x_b, 0.5, n_traj,
                                   np.random.default_rng([701, case]))
        p_value = scipy.stats.binomtest(round(freq * n_traj), n_traj,
                                        p_true).pvalue
        if p_value < 0.01:
            misses += 1
    passed = misses <= 1
    report(7, "ssa statistical consistency", passed,
           f"{misses}/20 outside the 99% binomial CI (<=1 allowed)",
           time.time() - start, 120.0)


def test_criterion_8_mh_acceptance_law():
    start = time.time()
    penalty = math.log(2.0)

    def oracle(net):
        return -penalty * len(net.edges)

    chain = maximize_loglike(oracle, Network(5), 30_000, "toggle",
                             np.random.default_rng(800))
    worse = accepted_worse = 0
    for prev, cur in zip(chain.samples, chain.samples[1:]):
        gained_edge = (bin(cur.edge_bits).count("1")
                       > bin(prev.edge_bits).count("1"))
        if cur.accepted and gained_edge:
            worse += 1
            accepted_worse += 1
        elif not cur.accepted:
            # removals are always accepted, so every rejection was an add
            worse += 1
    rate = accepted_worse / worse
    passed = worse >= 10_000 and abs(rate - 0.5) <= 0.015
    report(8, "mh acceptance law", passed,
           f"acceptance rate {rate:.4f} over {worse} worse proposals "
           f"(0.5 +/- 0.015)",
           time.time() - start, 5.0)


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    outputs = []
    for run in ("a", "b"):
        sim_dir = tmp_path / f"sim-{run}"
        code = main(["simulate", "--make-network", "chain:4", "--tmax", "20",
                     "--tau", "0.1", "--seed", "900", "--ndatasets", "2",
                     "--out", str(sim_dir)])
        assert code == 0
        infer_dir = tmp_path / f"infer-{run}"
        code = main(["infer", "--obs", str(sim_dir / "dataset-0.obs"),
                     "--neval", "25", "--solver", "dense", "--seed", "901",
                     "--proposal", "norepl",
                     "--truth", str(sim_dir / "network.net"),
                     "--out", str(infer_dir)])
        assert code == 0
        blob = b"".join(
            path.read_bytes()
            for path in sorted(list(sim_dir.iterdir()) + list(infer_dir.iterdir())))
        outputs.append(blob)
    passed = outputs[0] == outputs[1]
    report(9, "cli determinism", passed,
           f"simulate+infer outputs byte-identical: {passed}",
           time.time() - start, 60.0)
