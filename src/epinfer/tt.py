"""Tensor-train vectors over the 2^N state space and sum-of-Kronecker operators.

A length-2^N vector indexed by binary node states is factorized into N
linked cores of shape (r_left, 2, r_right).  Operators are built as lists
of Kronecker terms (one 2x2 factor per node).  They are applied in their
TT-matrix (MPO) form, derived once per operator from the terms: cores of
shape (r_left, 2, 2, r_right), compressed to the exact bond rank.  For the
epidemic generator that rank is 2 + 2c, where c is the smaller count of
nodes on either side of a bond with an edge crossing it, however many
terms the operator has.

State indexing is big-endian: state x maps to sum_n x_n * 2^(N-1-n) with
node 0 the most significant bit, matching C-order flattening of the dense
tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TTVector",
    "CPOperator",
    "state_index",
    "index_state",
    "unit_state_tt",
    "tt_ones",
    "tt_element",
    "tt_to_dense",
    "tt_from_dense",
    "tt_add",
    "tt_scale",
    "tt_round",
    "tt_inner",
    "cp_apply",
    "cp_to_dense",
]

# Largest N expanded to a dense 2^N vector, and to a dense 2^N x 2^N
# matrix (a 2^14-square float64 matrix is 2 GiB).
MAX_DENSE_VECTOR_SITES = 24
MAX_DENSE_MATRIX_SITES = 14
# Relative accuracy of the MPO compression, in tt_round's sense.  The
# block sum of the terms has exact low rank: its extra singular values are
# roundoff, below 4e-16 of the operator's Frobenius norm on the chain and
# Austria generators, while the ones kept are above 3e-3 of it at the
# default rates.  A cut in that gap returns the exact rank and changes the
# operator by at most _MPO_TOL of its norm.
_MPO_TOL = 1e-14


@dataclass
class TTVector:
    """Tensor-train factorization of a vector over {0,1}^N.

    cores[n] has shape (ranks[n], 2, ranks[n+1]) with boundary ranks 1.
    Treated as immutable after construction; operations allocate fresh
    instances.
    """

    cores: list

    def __post_init__(self):
        if not self.cores:
            raise ValueError("TTVector needs at least one core")
        prev = 1
        for n, core in enumerate(self.cores):
            if core.ndim != 3 or core.shape[1] != 2:
                raise ValueError(f"core {n} has shape {core.shape}, expected (r, 2, r')")
            if core.shape[0] != prev:
                raise ValueError(f"core {n}: left rank {core.shape[0]} != {prev}")
            prev = core.shape[2]
        if prev != 1:
            raise ValueError(f"final core right rank is {prev}, expected 1")

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(core.shape[2] for core in self.cores)


@dataclass
class CPOperator:
    """Operator as a sum of Kronecker terms: sum_t coeff_t * (F_1 x ... x F_N).

    Each term is a (coefficient, [N 2x2 factors]) pair.  exit_rate_bound,
    when set by the generator builder, is an upper bound on the largest
    total exit rate of any state and drives uniformization step control.
    Treated as immutable after construction: the MPO form is derived from
    the terms on first use and kept.
    """

    terms: list
    exit_rate_bound: float = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("CPOperator needs at least one term")
        n_sites = len(self.terms[0][1])
        for coeff, factors in self.terms:
            if len(factors) != n_sites:
                raise ValueError("terms disagree on the number of sites")
            for f in factors:
                if f.shape != (2, 2):
                    raise ValueError(f"factor has shape {f.shape}, expected (2, 2)")

    @property
    def n_sites(self) -> int:
        return len(self.terms[0][1])

    @cached_property
    def mpo(self) -> list:
        """TT-matrix cores of shape (r, 2, 2, r'), out index before in index.

        The terms are block-summed as a rank-(number of terms) TT-matrix,
        then rounded at _MPO_TOL with each core viewed as a TT-vector core
        whose mode is the 4 (out, in) index pairs.
        """
        rank_one = [[(coeff * factors[0]).reshape(1, 4, 1)]
                    + [f.reshape(1, 4, 1) for f in factors[1:]]
                    for coeff, factors in self.terms]
        cores = _round_cores(_block_sum(rank_one), _MPO_TOL)
        return [c.reshape(c.shape[0], 2, 2, c.shape[2]) for c in cores]


def state_index(x) -> int:
    """Big-endian linear index of a binary state vector."""
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


def unit_state_tt(x) -> TTVector:
    """Rank-1 indicator of a single state."""
    cores = []
    for b in np.asarray(x).ravel():
        core = np.zeros((1, 2, 1))
        core[0, int(b), 0] = 1.0
        cores.append(core)
    return TTVector(cores)


def tt_ones(n_sites) -> TTVector:
    """Rank-1 all-ones vector; inner product with it sums the entries."""
    return TTVector([np.ones((1, 2, 1)) for _ in range(n_sites)])


def tt_element(p: TTVector, x) -> float:
    """Single entry of the represented vector."""
    bits = np.asarray(x).ravel()
    if len(bits) != p.n_sites:
        raise ValueError("state length does not match core count")
    v = p.cores[0][0, int(bits[0]), :]
    for n in range(1, p.n_sites):
        v = v @ p.cores[n][:, int(bits[n]), :]
    return float(v[0])


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


def _chop(s, delta) -> int:
    """Smallest kept rank so the discarded singular-value tail is <= delta."""
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[r] = ||s[r:]||
    # tails never increases, so the entries above delta are a prefix
    return max(1, int(np.count_nonzero(tails > delta)))


def tt_from_dense(v, tol=0.0) -> TTVector:
    """Sequential SVD factorization of a dense length-2^N vector."""
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
        r = _chop(s, delta)
        cores.append(u[:, :r].reshape(r_left, 2, r))
        c = s[:r, None] * vt[:r]
    cores.append(c.reshape(-1, 2, 1))
    return TTVector(cores)


def tt_add(a: TTVector, b: TTVector) -> TTVector:
    """Sum of two TT vectors; ranks add bond-wise."""
    if a.n_sites != b.n_sites:
        raise ValueError("site counts differ")
    return TTVector(_block_sum([a.cores, b.cores]))


def _block_sum(core_lists) -> list:
    """Cores of the sum of several tensor trains, block-diagonal in rank.

    Cores have shape (r, m, r'), with the same mode size m at each site.
    """
    n_sites = len(core_lists[0])
    if n_sites == 1:
        return [sum(cl[0] for cl in core_lists)]
    cores = [np.concatenate([cl[0] for cl in core_lists], axis=2)]
    for n in range(1, n_sites - 1):
        lefts = [cl[n].shape[0] for cl in core_lists]
        rights = [cl[n].shape[2] for cl in core_lists]
        block = np.zeros((sum(lefts), core_lists[0][n].shape[1], sum(rights)))
        lo_l = lo_r = 0
        for cl, rl, rr in zip(core_lists, lefts, rights):
            block[lo_l:lo_l + rl, :, lo_r:lo_r + rr] = cl[n]
            lo_l += rl
            lo_r += rr
        cores.append(block)
    cores.append(np.concatenate([cl[-1] for cl in core_lists], axis=0))
    return cores


def tt_scale(a: TTVector, c) -> TTVector:
    cores = [a.cores[0] * float(c)] + [core.copy() for core in a.cores[1:]]
    return TTVector(cores)


def tt_round(p: TTVector, tol) -> TTVector:
    """Re-compress to the smallest ranks meeting a relative 2-norm error tol.

    Left-to-right QR orthogonalization followed by right-to-left SVD
    truncation; the error budget tol*||p|| is split evenly over the N-1
    bonds.  Ranks never increase; tol=0 re-orthogonalizes losslessly.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return TTVector(_round_cores(p.cores, tol))


def _round_cores(cores, tol) -> list:
    """The tt_round sweep on cores of shape (r, m, r'), any mode size m."""
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
    norm = np.linalg.norm(cores[-1])
    delta = tol * norm / np.sqrt(n_sites - 1)
    for n in range(n_sites - 1, 0, -1):
        r_left, m, r_right = cores[n].shape
        u, s, vt = np.linalg.svd(cores[n].reshape(r_left, m * r_right),
                                 full_matrices=False)
        r = _chop(s, delta)
        cores[n] = vt[:r].reshape(r, m, r_right)
        carry = u[:, :r] * s[:r]
        prev = cores[n - 1]
        cores[n - 1] = (prev.reshape(-1, r_left) @ carry).reshape(
            prev.shape[0], prev.shape[1], r)
    return cores


def tt_inner(a: TTVector, b: TTVector) -> float:
    """Euclidean inner product of two TT vectors."""
    if a.n_sites != b.n_sites:
        raise ValueError("site counts differ")
    m = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        t = np.tensordot(m, ca, axes=(0, 0))        # (rb, 2, ra')
        m = np.tensordot(t, cb, axes=((0, 1), (0, 1)))  # (ra', rb')
    return float(m[0, 0])


def cp_apply(op: CPOperator, p: TTVector) -> TTVector:
    """Matrix-vector product, all in factored form.

    Contracts the operator's MPO with p core by core, so output ranks are
    the MPO bond ranks times ranks(p); the caller is expected to round
    afterwards.
    """
    if op.n_sites != p.n_sites:
        raise ValueError("operator and vector site counts differ")
    cores = []
    for m, c in zip(op.mpo, p.cores):
        # out[(a, b), i, (e, d)] = sum_j m[a, i, j, e] * c[b, j, d]
        out = np.tensordot(m, c, axes=(2, 1)).transpose(0, 3, 1, 2, 4)
        cores.append(out.reshape(m.shape[0] * c.shape[0], 2, m.shape[3] * c.shape[2]))
    return TTVector(cores)


def cp_to_dense(op: CPOperator) -> np.ndarray:
    """Full 2^N x 2^N matrix of a Kronecker-term operator (guarded)."""
    if op.n_sites > MAX_DENSE_MATRIX_SITES:
        raise ValueError(
            f"refusing dense operator for N={op.n_sites} > {MAX_DENSE_MATRIX_SITES}")
    dim = 1 << op.n_sites
    total = np.zeros((dim, dim))
    for coeff, factors in op.terms:
        m = np.ones((1, 1))
        for f in factors:
            m = np.kron(m, f)
        total += coeff * m
    return total
