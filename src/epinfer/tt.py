"""Tensor-train vectors over the 2^N state space and sum-of-Kronecker operators.

A length-2^N vector indexed by binary node states is factorized into N
linked cores of shape (r_left, 2, r_right).  Operators are built as lists
of Kronecker terms (one 2x2 factor per node).  They are applied in their
TT-matrix (MPO) form, derived once per operator from the terms: cores of
shape (r_left, 2, 2, r_right), compressed to the exact bond rank.  For the
epidemic generator that rank is 2 + 2c, where c is the smaller count of
nodes on either side of a bond with an edge crossing it, however many
terms the operator has.

Rounding is the TT-SVD recompression of Oseledets (SISC 2011): the train
is orthogonalized, then truncated by SVDs bond by bond.  A bond rank above
the dense bound (min of the mode-size products on either side), as a
matrix-vector product leaves it, cannot survive, and a core at such a bond
needs no QR: the identity is an exact orthogonal factor, so its content
moves to a neighbour with one matmul.  The factorizations call LAPACK
directly and raise numpy.linalg.LinAlgError when one fails or meets a
non-finite entry.

State indexing is big-endian: state x maps to sum_n x_n * 2^(N-1-n) with
node 0 the most significant bit, matching C-order flattening of the dense
tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack

__all__ = [
    "TTVector",
    "CPOperator",
    "unit_state_tt",
    "tt_ones",
    "tt_element",
    "tt_add",
    "tt_scale",
    "tt_round",
    "tt_inner",
    "cp_apply",
    "cp_to_dense",
]

# Largest N expanded to a dense 2^N x 2^N matrix (a 2^14-square float64
# matrix is 2 GiB).
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
    Treated as immutable after construction: the MPO form and the
    uniformized operator are derived from the terms on first use and kept.
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

    @cached_property
    def _mpo_matrices(self) -> list:
        """mpo cores laid out as (r, 1, 2*r', 2): per left rank index, a
        matrix with rows (out, r') and columns in, as cp_apply multiplies."""
        return [np.ascontiguousarray(m.transpose(0, 1, 3, 2)).reshape(m.shape[0], 1, -1, 2)
                for m in self.mpo]

    @cached_property
    def uniformized(self) -> CPOperator:
        """I + A/L with L = exit_rate_bound: the identity term, then A's terms / L."""
        if self.exit_rate_bound is None:
            raise ValueError("generator carries no exit-rate bound")
        scaled = [(c / self.exit_rate_bound, f) for c, f in self.terms]
        return CPOperator([(1.0, [np.eye(2)] * self.n_sites)] + scaled)


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


def _chop(s, delta) -> int:
    """Smallest kept rank so the discarded singular-value tail is <= delta."""
    # ||s[r:]|| never decreases as r falls, so scan r down from the end
    # until it exceeds delta; the sum runs in the order np.cumsum takes
    rank = len(s)
    tail_sq = 0.0
    for v in s[::-1].tolist():
        tail_sq += v * v
        if math.sqrt(tail_sq) > delta:
            break
        rank -= 1
    return max(1, rank)


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

    Left-to-right orthogonalization followed by right-to-left SVD
    truncation; the error budget tol*||p|| is split evenly over the N-1
    bonds, and cores 1..N-1 come out right-orthogonal.  The orthogonalizing
    pass skips the QR of every core whose left unfolding is wide
    (r_left*m <= r_right), taking the identity as its orthogonal factor; a
    right-to-left pre-pass does the same for the tail of cores whose right
    unfolding is tall (r_left >= m*r_right), so both ends reach the dense
    bound by matmuls alone.  Ranks never increase; tol=0 re-orthogonalizes
    losslessly.  On two or more sites a non-finite entry raises
    numpy.linalg.LinAlgError.
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
    # Right-to-left over the tail of tall right unfoldings (r >= m*r'): the
    # identity is an exact right-orthogonal factor, so each core's content
    # moves into its left neighbour by one matmul.
    for n in range(n_sites - 1, 0, -1):
        r_left, m, r_right = cores[n].shape
        if r_left < m * r_right:
            break
        prev = cores[n - 1]
        cores[n - 1] = (prev.reshape(-1, r_left) @ cores[n].reshape(r_left, -1)).reshape(
            prev.shape[0], prev.shape[1], m * r_right)
        cores[n] = np.eye(m * r_right).reshape(m * r_right, m, r_right)
    # Left-to-right orthogonalization.  A wide left unfolding (r*m <= r')
    # also has the identity as an exact orthogonal factor; the others take
    # a QR.
    for n in range(n_sites - 1):
        r_left, m, r_right = cores[n].shape
        nxt = cores[n + 1].reshape(r_right, -1)
        if r_left * m <= r_right:
            nxt = cores[n].reshape(r_left * m, r_right) @ nxt
            cores[n] = np.eye(r_left * m).reshape(r_left, m, r_left * m)
        else:
            q, nxt = _qr(cores[n].reshape(r_left * m, r_right), nxt)
            cores[n] = q.reshape(r_left, m, r_right)
        cores[n + 1] = nxt.reshape(nxt.shape[0], cores[n + 1].shape[1], -1)
    norm = np.linalg.norm(cores[-1])
    delta = tol * norm / np.sqrt(n_sites - 1)
    for n in range(n_sites - 1, 0, -1):
        r_left, m, r_right = cores[n].shape
        u, s, vt = _svd(cores[n].reshape(r_left, m * r_right))
        r = _chop(s, delta)
        cores[n] = vt[:r].reshape(r, m, r_right)
        carry = u[:, :r] * s[:r]
        prev = cores[n - 1]
        cores[n - 1] = (prev.reshape(-1, r_left) @ carry).reshape(
            prev.shape[0], prev.shape[1], r)
    return cores


def _qr(a, b):
    """Q and R @ b, for the thin QR a = QR of a tall matrix, by LAPACK."""
    qr, tau, _, info = lapack.dgeqrf(a)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info {info}")
    rb = blas.dtrmm(1.0, qr[:a.shape[1]], b)  # reads only the upper triangle, R
    q, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed with info {info}")
    return q, rb


def _svd(a):
    """Thin SVD factors u, s, vt of a matrix, by LAPACK.

    Raises numpy.linalg.LinAlgError when dgesdd fails, which it does on a
    NaN entry, or returns non-finite singular values, as on an inf entry.
    """
    # a C-ordered matrix is its transpose in Fortran order: factor that and
    # transpose the factors back, which leaves them C-ordered
    v, s, ut, info = lapack.dgesdd(a.T, full_matrices=0)
    if info != 0 or not np.isfinite(s).all():
        raise np.linalg.LinAlgError(f"SVD did not converge (dgesdd info {info})")
    return ut.T, s, v.T


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
    for m, c in zip(op._mpo_matrices, p.cores):
        # out[a, b, (i, e), d] = sum_j m[a, 0, (i, e), j] * c[b, j, d]
        out = np.matmul(m, c)
        cores.append(out.reshape(m.shape[0] * c.shape[0], 2, -1))
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
