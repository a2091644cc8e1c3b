"""Command-line front end.

Subcommands: simulate, likelihood, infer, contrast, order.  Exit codes:
0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .datagen import (parse_observations, resample_uniform,
                      serialize_observations, simulate_epidemic)
from .generator import ModelParams
from .graphs import (Network, all_pairs, austria_network, chain_network,
                     fiedler_ordering, fiedler_vector, network_distance,
                     parse_network, serialize_network, smallworld_network)
from .inference import (initial_guess, initial_scores, mcmc_optimize,
                        serialize_chain)
from .likelihood import (_map_jobs, contrast_matrix, log_likelihood,
                         serialize_contrast)

__all__ = ["main", "entry"]


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _make_network(spec: str) -> Network:
    """Built-in example networks: chain:N, austria, smallworld:N:rewire=a,b."""
    if spec == "austria":
        return austria_network()
    if spec.startswith("chain:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad chain spec {spec!r}") from None
        if n < 1:
            raise UsageError("chain size must be positive")
        return chain_network(n)
    if spec.startswith("smallworld:"):
        parts = spec.split(":")
        if len(parts) != 3 or not parts[2].startswith("rewire="):
            raise UsageError(f"bad smallworld spec {spec!r}, "
                             "expected smallworld:N:rewire=a,b")
        try:
            n = int(parts[1])
            a, b = (int(v) for v in parts[2][len("rewire="):].split(","))
        except ValueError:
            raise UsageError(f"bad smallworld spec {spec!r}") from None
        return smallworld_network(n, a, b)
    raise UsageError(f"unknown network spec {spec!r}")


def _load_network(args) -> Network:
    if getattr(args, "make_network", None):
        if getattr(args, "network", None):
            raise UsageError("--network and --make-network are mutually exclusive")
        return _make_network(args.make_network)
    if getattr(args, "network", None):
        return parse_network(Path(args.network).read_text())
    raise UsageError("one of --network or --make-network is required")


def _params(args) -> ModelParams:
    return ModelParams(beta=args.beta, gamma=args.gamma, eps=args.eps)


def _parse_x0(text, n_nodes) -> np.ndarray:
    if len(text) != n_nodes or set(text) - {"0", "1"}:
        raise UsageError(f"--x0 must be {n_nodes} characters of 0/1")
    return np.array([int(c) for c in text], dtype=np.uint8)


def _check_counts(args):
    """--jobs and --nssa, on every subcommand that takes them, are >= 1."""
    for flag in ("jobs", "nssa"):
        if getattr(args, flag, 1) < 1:
            raise UsageError(f"--{flag} must be >= 1")


def _simulate_one(task):
    net, params, x0, tmax, tau, seed, path = task
    rng = np.random.default_rng(seed)
    traj = simulate_epidemic(net, params, x0, tmax, rng)
    obs = resample_uniform(traj, tau, tmax)
    Path(path).write_text(serialize_observations(obs))


def cmd_simulate(args) -> int:
    net = _load_network(args)
    params = _params(args)
    if not (0 < args.tmax < math.inf and 0 < args.tau < math.inf):
        raise UsageError("--tmax and --tau must be finite and positive")
    if args.ndatasets < 1:
        raise UsageError("--ndatasets must be >= 1")
    if args.x0 is not None:
        x0 = _parse_x0(args.x0, net.n_nodes)
    else:
        x0 = np.zeros(net.n_nodes, dtype=np.uint8)
        x0[0] = 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "network.net").write_text(serialize_network(net))
    tasks = [(net, params, x0, args.tmax, args.tau, args.seed + i,
              str(out / f"dataset-{i}.obs")) for i in range(args.ndatasets)]
    _map_jobs(_simulate_one, tasks, args.jobs)
    print(f"wrote {len(tasks)} dataset(s) to {out}")
    return 0


def cmd_likelihood(args) -> int:
    net = _load_network(args)
    obs = parse_observations(Path(args.obs).read_text())
    params = _params(args)
    report = log_likelihood(net, params, obs, solver=args.solver,
                            n_ssa=args.nssa, ssa_seed=args.seed, jobs=args.jobs)
    print(f"log10_likelihood\t{report.log10_like:.10g}")
    print(f"n_floored\t{report.n_floored}")
    if args.hist:
        lines = [f"{v:.10g}" for v in report.per_interval]
        Path(args.hist).write_text("\n".join(lines) + "\n")
    return 0


def cmd_infer(args) -> int:
    obs = parse_observations(Path(args.obs).read_text())
    params = _params(args)
    if args.neval < 1:
        raise UsageError("--neval must be >= 1")
    rng = np.random.default_rng(args.seed)
    n = obs.n_nodes
    if args.init == "score":
        g0 = initial_guess(initial_scores(obs), mode="threshold")
    elif args.init == "empty":
        g0 = Network(n)
    elif args.init == "random":
        g0 = Network(n, (p for p in all_pairs(n) if rng.random() < 0.5))
    else:
        g0 = parse_network(Path(args.init).read_text())
        if g0.n_nodes != n:
            raise UsageError("--init network node count does not match data")
    truth = None
    if args.truth:
        truth = parse_network(Path(args.truth).read_text())
    chain = mcmc_optimize(obs, params, g0, args.neval, proposal=args.proposal,
                          solver=args.solver, rng=rng,
                          n_ssa=args.nssa, ssa_seed=args.seed,
                          reference=truth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "chain.tsv").write_text(serialize_chain(chain))
    (out / "best.net").write_text(serialize_network(chain.best_network))
    print(f"best_log10_likelihood\t{chain.best_log_like / math.log(10.0):.10g}")
    if truth is not None:
        print(f"distance_to_truth\t{network_distance(chain.best_network, truth)}")
    if chain.aborted:
        print(f"error: chain aborted early: {chain.error}", file=sys.stderr)
        return 1
    return 0


def cmd_contrast(args) -> int:
    truth = parse_network(Path(args.truth).read_text())
    params = _params(args)
    obs_files = sorted(Path(args.obs_dir).glob("*.obs"))
    if not obs_files:
        raise ValueError(f"no .obs files in {args.obs_dir}")
    datasets = [parse_observations(p.read_text()) for p in obs_files]
    matrix = contrast_matrix(truth, datasets, params, solver=args.solver,
                             n_ssa=args.nssa, ssa_seed=args.seed, jobs=args.jobs)
    Path(args.out).write_text(serialize_contrast(matrix))
    print(f"wrote contrast for {len(datasets)} dataset(s) to {args.out}")
    return 0


def cmd_order(args) -> int:
    net = _load_network(args)
    lam1, _ = fiedler_vector(net)
    order = fiedler_ordering(net)
    print(f"lambda1\t{lam1:.10g}")
    for node in order:
        print(node + 1)
    return 0


def _add_rates(p):
    p.add_argument("--beta", type=float, default=1.0, help="per-contact infection rate")
    p.add_argument("--gamma", type=float, default=0.5, help="recovery rate")
    p.add_argument("--eps", type=float, default=0.01, help="self-infection rate")


def _add_solver(p):
    p.add_argument("--solver", choices=("tt", "dense", "ssa"), default="tt")
    p.add_argument("--nssa", type=int, default=1000,
                   help="trajectories per interval for the ssa solver")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epinfer",
        description="Simulate epidemics on contact networks and infer the "
                    "network back from observed nodal states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic observation data")
    p.add_argument("--network", help="network file")
    p.add_argument("--make-network", dest="make_network",
                   help="built-in network: chain:N | austria | smallworld:N:rewire=a,b")
    _add_rates(p)
    p.add_argument("--x0", help="initial state bitstring (default: node 1 infected)")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--tau", type=float, required=True, help="sampling interval")
    p.add_argument("--ndatasets", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("likelihood", help="log-likelihood of a network for data")
    p.add_argument("--network", required=True)
    p.add_argument("--obs", required=True, help="observation file")
    _add_rates(p)
    _add_solver(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the ssa solver")
    p.add_argument("--hist", help="write per-interval log10 probabilities here")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_likelihood)

    p = sub.add_parser("infer", help="recover the network from data by MCMC")
    p.add_argument("--obs", required=True)
    _add_rates(p)
    _add_solver(p)
    p.add_argument("--neval", type=int, default=400)
    p.add_argument("--proposal", choices=("toggle", "norepl"), default="toggle")
    p.add_argument("--init", default="score",
                   help="score | empty | random | path to a network file")
    p.add_argument("--truth", help="reference network for distance tracing")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("contrast", help="single-link-toggle likelihood contrasts")
    p.add_argument("--truth", required=True)
    p.add_argument("--obs-dir", dest="obs_dir", required=True,
                   help="directory of .obs files")
    _add_rates(p)
    _add_solver(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output TSV file")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_contrast)

    p = sub.add_parser("order", help="Fiedler value and node ordering")
    p.add_argument("--network")
    p.add_argument("--make-network", dest="make_network")
    p.set_defaults(func=cmd_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
