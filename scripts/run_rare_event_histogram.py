#!/usr/bin/env python3
"""Per-interval transition probabilities: sampling baseline vs exact solver.

Generates one synthetic dataset on a chain, then evaluates the probability
of every observed transition with the Monte Carlo (ssa) estimator and the
tensor-train solver, for both the ground-truth network and the score-based
initial guess.  Each output column is the raw log10 probability per
interval ("-inf" where the sampler saw no hit), ready for histogramming;
the unresolved -inf bucket is the sampler pathology the exact solver is
there to remove.

Example:
    python3 scripts/run_rare_event_histogram.py --nodes 6 --tmax 50 \
        --nssa 1000 --out results/hist.tsv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epinfer import (ModelParams, chain_network, initial_guess, initial_scores,
                     log_likelihood, resample_uniform, simulate_epidemic)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=6)
    ap.add_argument("--tmax", type=float, default=50.0)
    ap.add_argument("--tau", type=float, default=0.1)
    ap.add_argument("--nssa", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=304)
    ap.add_argument("--out", default="results/hist.tsv")
    return ap.parse_args()


def main():
    args = parse_args()
    params = ModelParams(beta=1.0, gamma=0.5, eps=0.01)
    truth = chain_network(args.nodes)
    x0 = np.zeros(args.nodes, dtype=np.uint8)
    x0[0] = 1
    traj = simulate_epidemic(truth, params, x0, args.tmax,
                             np.random.default_rng(args.seed))
    obs = resample_uniform(traj, args.tau, args.tmax)
    guess = initial_guess(initial_scores(obs))
    print(f"K={obs.n_intervals} intervals; initial guess has "
          f"{len(guess.edges)} links vs {len(truth.edges)} true links")

    columns = {}
    for label, net in (("truth", truth), ("guess", guess)):
        for solver in ("ssa", "tt"):
            rep = log_likelihood(net, params, obs, solver=solver,
                                 n_ssa=args.nssa, ssa_seed=args.seed + 1)
            columns[f"{label}_{solver}"] = rep.per_interval
            unresolved = int(np.sum(np.isneginf(rep.per_interval)))
            print(f"{label:5s} {solver:5s}: log10L = "
                  f"{rep.log10_like if np.isfinite(rep.log10_like) else float('-inf'):10.2f}"
                  f"   unresolved intervals: {unresolved}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    lines = ["\t".join(["interval"] + names)]
    for k in range(obs.n_intervals):
        row = [str(k + 1)] + [f"{columns[name][k]:.6g}" for name in names]
        lines.append("\t".join(row))
    out.write_text("\n".join(lines) + "\n")
    print(f"per-interval log10 probabilities written to {out}")


if __name__ == "__main__":
    main()
