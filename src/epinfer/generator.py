"""Master-equation generator for the epidemic process on a contact network.

Each node is susceptible (0) or infected (1).  Infected nodes recover at
rate gamma; susceptible nodes get infected at rate eps + beta * (number of
infected neighbours), the eps term modelling spontaneous infection from
outside the network, which keeps the chain irreducible.

The generator A acts on column probability vectors, p' = A p: columns
index source states, rows destination states, every column sums to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Network
from .tt import MAX_DENSE_MATRIX_SITES, CPOperator

__all__ = [
    "ModelParams",
    "infected_neighbors",
    "transition_rate",
    "reaction_rates",
    "exit_rate_bound",
    "build_generator_cp",
    "build_generator_dense",
]

_ID = np.eye(2)
# shift matrices on a single node: _DOWN maps 1 -> 0, _UP maps 0 -> 1
_DOWN = np.array([[0.0, 1.0], [0.0, 0.0]])
_UP = np.array([[0.0, 0.0], [1.0, 0.0]])
_SEL_INFECTED = np.diag([0.0, 1.0])
_SEL_SUSCEPT = np.diag([1.0, 0.0])
# single-node generator blocks, diagonal included
_RECOVER = (_DOWN - _ID) @ _SEL_INFECTED
_INFECT = (_UP - _ID) @ _SEL_SUSCEPT


@dataclass(frozen=True)
class ModelParams:
    """Rates of the epidemic process, all per unit time.

    beta is the per-contact infection rate, gamma the recovery rate, eps
    the spontaneous (self-)infection rate.  eps must be positive so the
    chain has no absorbing all-susceptible state.
    """

    beta: float
    gamma: float
    eps: float

    def __post_init__(self):
        for name, value in (("beta", self.beta), ("gamma", self.gamma), ("eps", self.eps)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


def infected_neighbors(x, node, net: Network) -> int:
    """Number of infected neighbours of a node in state x."""
    x = np.asarray(x)
    return int(sum(x[m] for m in net.neighbors(node)))


def transition_rate(x, y, net: Network, params: ModelParams) -> float:
    """Rate of the single-reaction jump x -> y; zero for anything else."""
    x = np.asarray(x, dtype=int)
    y = np.asarray(y, dtype=int)
    if x.shape != y.shape:
        raise ValueError("states have different lengths")
    flipped = np.flatnonzero(x != y)
    if len(flipped) != 1:
        return 0.0
    n = int(flipped[0])
    if x[n] == 1:
        return params.gamma
    return params.eps + params.beta * infected_neighbors(x, n, net)


def reaction_rates(x, net: Network, params: ModelParams) -> np.ndarray:
    """Per-node flip rates out of state x (recovery or infection)."""
    x = np.asarray(x, dtype=float)
    n_infected = net.adjacency @ x
    return np.where(x == 1.0, params.gamma, params.eps + params.beta * n_infected)


def exit_rate_bound(net: Network, params: ModelParams) -> float:
    """Upper bound on the total exit rate of any state.

    A state with infected set I and susceptible set S leaves at rate
    gamma*|I| + eps*|S| + beta*cut(S, I), where cut(S, I) counts the edges
    joining an infected to a susceptible node.  Two bounds follow, and the
    smaller is returned: node by node, each node flips at most at
    max(gamma, eps + beta*deg); and since cut(S, I) <= |E|, the total is at
    most max(gamma, eps)*N + beta*|E|.  The first counts every edge at
    both ends, and it can be the smaller one only when
    beta*|E| < (gamma - eps)*N.
    """
    per_node = np.maximum(params.gamma, params.eps + net.degrees * params.beta)
    whole = max(params.gamma, params.eps) * net.n_nodes + params.beta * len(net.edges)
    return float(min(per_node.sum(), whole))


def build_generator_cp(net: Network, params: ModelParams) -> CPOperator:
    """Generator as 2N + sum(deg) Kronecker terms.

    One recovery and one spontaneous-infection term per node, plus one
    contact term per ordered adjacent pair (n, m): the infection block at
    n multiplied by the infected-indicator at m.
    """
    n_sites = net.n_nodes
    terms = []
    for n in range(n_sites):
        factors = [_ID] * n_sites
        factors[n] = _RECOVER
        terms.append((params.gamma, factors))
    for n in range(n_sites):
        factors = [_ID] * n_sites
        factors[n] = _INFECT
        terms.append((params.eps, factors))
    for n in range(n_sites):
        for m in net.neighbors(n):
            factors = [_ID] * n_sites
            factors[n] = _INFECT
            factors[int(m)] = _SEL_INFECTED
            terms.append((params.beta, factors))
    return CPOperator(terms, exit_rate_bound=exit_rate_bound(net, params))


def build_generator_dense(net: Network, params: ModelParams) -> np.ndarray:
    """Dense generator built by direct enumeration of the reaction rates.

    Independent of the Kronecker construction on purpose: it serves as the
    oracle the factored form is checked against.
    """
    n_sites = net.n_nodes
    if n_sites > MAX_DENSE_MATRIX_SITES:
        raise ValueError(
            f"refusing dense generator for N={n_sites} > {MAX_DENSE_MATRIX_SITES}")
    dim = 1 << n_sites
    src = np.arange(dim)
    bits = [(src >> (n_sites - 1 - n)) & 1 for n in range(n_sites)]
    a = np.zeros((dim, dim))
    for n in range(n_sites):
        weight = 1 << (n_sites - 1 - n)
        infected = bits[n] == 1
        a[src[infected] - weight, src[infected]] += params.gamma
        neighbors = net.neighbors(n)
        if len(neighbors):
            n_inf = np.sum([bits[int(m)] for m in neighbors], axis=0)
        else:
            n_inf = np.zeros(dim, dtype=int)
        susceptible = ~infected
        rates = params.eps + params.beta * n_inf[susceptible]
        a[src[susceptible] + weight, src[susceptible]] += rates
    np.fill_diagonal(a, -a.sum(axis=0))
    return a
