import numpy as np
import pytest

from epinfer import ModelParams, Network, TTVector
from epinfer.graphs import all_pairs

# Largest N the test oracle tt_to_dense expands to a 2^N vector.
MAX_DENSE_VECTOR_SITES = 24


def random_network(rng, n_nodes, edge_prob=0.5) -> Network:
    pairs = all_pairs(n_nodes)
    return Network(n_nodes, [p for p in pairs if rng.random() < edge_prob])


def random_state(rng, n_nodes) -> np.ndarray:
    return rng.integers(0, 2, size=n_nodes).astype(np.uint8)


def state_index(x) -> int:
    """Big-endian linear index of a binary state vector: node 0 is the
    most significant bit, the order of the package's dense forms."""
    idx = 0
    for b in np.asarray(x).ravel():
        idx = (idx << 1) | int(b)
    return idx


def index_state(idx, n_sites) -> np.ndarray:
    """Inverse of state_index."""
    if not (0 <= idx < 1 << n_sites):
        raise ValueError(f"index {idx} out of range for {n_sites} sites")
    return np.array([(idx >> (n_sites - 1 - n)) & 1 for n in range(n_sites)],
                    dtype=np.uint8)


def infected_neighbors(x, node, net: Network) -> int:
    """Number of infected neighbours of a node in state x."""
    x = np.asarray(x)
    return int(sum(x[m] for m in net.neighbors(node)))


def transition_rate(x, y, net: Network, params: ModelParams) -> float:
    """Scalar rate oracle: rate of the single-reaction jump x -> y, zero
    for anything else."""
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


def tt_to_dense(p: TTVector) -> np.ndarray:
    """Full vector of length 2^N (guarded against large N)."""
    if p.n_sites > MAX_DENSE_VECTOR_SITES:
        raise ValueError(
            f"refusing dense expansion for N={p.n_sites} > {MAX_DENSE_VECTOR_SITES}")
    out = p.cores[0].reshape(2, -1)
    for core in p.cores[1:]:
        out = out @ core.reshape(core.shape[0], -1)
        out = out.reshape(-1, core.shape[2])
    return out.ravel()


def tt_from_dense(v, tol=0.0) -> TTVector:
    """Sequential SVD factorization of a dense length-2^N vector, keeping
    the smallest ranks whose discarded tails stay within tol*||v||."""
    v = np.asarray(v, dtype=float).ravel()
    n_sites = int(round(np.log2(len(v))))
    if len(v) != 1 << n_sites or n_sites < 1:
        raise ValueError(f"length {len(v)} is not a power of two >= 2")
    delta = tol * np.linalg.norm(v) / max(np.sqrt(n_sites - 1), 1.0)
    cores = []
    c = v.reshape(1, -1)
    for _ in range(n_sites - 1):
        r_left = c.shape[0]
        c = c.reshape(r_left * 2, -1)
        u, s, vt = np.linalg.svd(c, full_matrices=False)
        tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
        r = max(1, int(np.count_nonzero(tails > delta)))
        cores.append(u[:, :r].reshape(r_left, 2, r))
        c = s[:r, None] * vt[:r]
    cores.append(c.reshape(-1, 2, 1))
    return TTVector(cores)


def round_cores_reference(cores, tol) -> list:
    """The TT rounding of Oseledets (SISC 2011) on cores of shape (r, m, r'),
    by numpy: QR of every core left to right, then SVD truncation right to
    left, each bond cut at tol*||p||/sqrt(N-1)."""
    cores = list(cores)
    n_sites = len(cores)
    if n_sites == 1:
        return [cores[0].copy()]
    for n in range(n_sites - 1):
        r_left, m, r_right = cores[n].shape
        q, r = np.linalg.qr(cores[n].reshape(r_left * m, r_right))
        cores[n] = q.reshape(r_left, m, q.shape[1])
        nxt = cores[n + 1]
        cores[n + 1] = (r @ nxt.reshape(nxt.shape[0], -1)).reshape(
            q.shape[1], nxt.shape[1], nxt.shape[2])
    delta = tol * np.linalg.norm(cores[-1]) / np.sqrt(n_sites - 1)
    for n in range(n_sites - 1, 0, -1):
        r_left, m, r_right = cores[n].shape
        u, s, vt = np.linalg.svd(cores[n].reshape(r_left, m * r_right),
                                 full_matrices=False)
        tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
        r = max(1, int(np.count_nonzero(tails > delta)))
        cores[n] = vt[:r].reshape(r, m, r_right)
        prev = cores[n - 1]
        cores[n - 1] = (prev.reshape(-1, r_left) @ (u[:, :r] * s[:r])).reshape(
            prev.shape[0], prev.shape[1], r)
    return cores


@pytest.fixture
def params():
    return ModelParams(beta=1.0, gamma=0.5, eps=0.01)
