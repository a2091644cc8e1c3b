"""Tensor-train vectors over the 2^N state space and sum-of-Kronecker operators.

A length-2^N vector indexed by binary node states is factorized into N
linked cores of shape (r_left, 2, r_right).  Operators are built as lists
of Kronecker terms (one 2x2 factor per node).  They are applied in their
TT-matrix (MPO) form, derived once per operator from the terms: cores of
shape (r_left, 2, 2, r_right), compressed to the exact bond rank.  For the
epidemic generator that rank is 2 + 2c, where c is the smaller count of
nodes on either side of a bond with an edge crossing it, however many
terms the operator has.

The MPO is built from the terms as a finite-state machine (Crosswhite &
Bacon, PRA 2008), whose bond rank is 2 plus the number of terms spanning
the bond, and then rounded to the exact rank.

Rounding is the TT-SVD recompression of Oseledets (SISC 2011): the train
is orthogonalized, then truncated by SVDs bond by bond.  A bond rank above
the dense bound (min of the mode-size products on either side), as a
matrix-vector product leaves it, cannot survive, and a core at such a bond
needs no QR: the identity is an exact orthogonal factor, kept as a shape,
so the core's content moves to a neighbour with one matmul.  The
factorizations call LAPACK directly and raise numpy.linalg.LinAlgError
when one fails or meets a non-finite entry.

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
# finite-state MPO of the terms has exact low rank: its extra singular
# values are roundoff, below 2e-17 of the operator's Frobenius norm on the
# chain8, Austria and smallworld10 generators and their uniformized forms,
# while the ones kept are above 4e-3 of it at the default rates.  A cut in
# that gap returns the exact rank and changes the operator by at most
# _MPO_TOL of its norm.
_MPO_TOL = 1e-14


@dataclass
class TTVector:
    """Tensor-train factorization of a vector over {0,1}^N.

    cores[n] has shape (ranks[n], 2, ranks[n+1]) with boundary ranks 1.
    Treated as immutable after construction; operations return new
    instances, which may share cores with their inputs.
    """

    cores: list

    def __post_init__(self):
        # the operations below build their results by _train, unchecked
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

        The terms are read as a finite-state machine (Crosswhite & Bacon,
        PRA 78, 012356, 2008).  A term acts from the first to the last
        site of its non-identity factors, its span; a term of identities
        alone acts at site 0.  Each bond carries a "not started" channel,
        the identity on every site left of it; a "finished" channel, the
        sum of the terms whose span ends left of it; and one channel per
        term whose span crosses it.  A term's coefficient goes on its first
        factor.  The cores are then rounded at _MPO_TOL, each viewed as a
        TT-vector core whose mode is the 4 (out, in) index pairs.
        """
        n_sites, n_terms = self.n_sites, len(self.terms)
        coeffs = np.array([c for c, _ in self.terms], dtype=float)
        factors = np.array([f for _, f in self.terms], dtype=float).reshape(
            n_terms, n_sites, 4)
        moving = (factors != np.eye(2).ravel()).any(axis=2)
        first = moving.argmax(axis=1)
        last = np.where(moving.any(axis=1), n_sites - 1 - moving[:, ::-1].argmax(axis=1), 0)
        factors[np.arange(n_terms), first] *= coeffs[:, None]
        # bond b lies left of site b; channel 0 is "not started", channel 1
        # "finished" (0 at bond N, the only channel there), 2... the open
        # terms in order
        bonds = np.arange(n_sites + 1)
        open_ = (first[:, None] < bonds) & (bonds <= last[:, None])
        channel = 1 + np.cumsum(open_, axis=0)
        ranks = 2 + open_.sum(axis=0)
        ranks[0] = ranks[-1] = 1
        finished = (bonds < n_sites).astype(int)
        # the entries (site, row, column, 4 values): each (term, site) of a
        # span, then the identities on sites 0..N-2 from "not started" to
        # itself and on sites 1..N-1 from "finished" to itself
        t, n = np.nonzero((first[:, None] <= bonds[:-1]) & (bonds[:-1] <= last[:, None]))
        rows = np.where(n == first[t], 0, channel[t, n])
        cols = np.where(n == last[t], finished[n + 1], channel[t, n + 1])
        values = factors[t, n]
        carried = np.arange(n_sites - 1)
        n = np.concatenate([n, carried, carried + 1])
        rows = np.concatenate([rows, np.zeros_like(carried), np.ones_like(carried)])
        cols = np.concatenate([cols, np.zeros_like(carried), finished[carried + 2]])
        values = np.concatenate([values, np.tile(np.eye(2).ravel(), (2 * len(carried), 1))])
        # summed into one buffer that holds every core as (r, 4, r')
        offsets = np.concatenate([[0], np.cumsum(ranks[:-1] * 4 * ranks[1:])])
        flat = (offsets[n] + rows * 4 * ranks[n + 1] + cols)[:, None] + (
            np.arange(4) * ranks[n + 1][:, None])
        data = np.bincount(flat.ravel(), weights=values.ravel(), minlength=offsets[-1])
        cores = [data[offsets[k]:offsets[k + 1]].reshape(ranks[k], 4, ranks[k + 1])
                 for k in range(n_sites)]
        cores = _round_cores(cores, _MPO_TOL)
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


def _train(cores) -> TTVector:
    """A TTVector of cores whose ranks already chain, made without checking
    them again: the operations here build every result this way."""
    p = TTVector.__new__(TTVector)
    p.cores = cores
    return p


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
    """Sum of two TT vectors; ranks add bond-wise, cores block-diagonal."""
    if a.n_sites != b.n_sites:
        raise ValueError("site counts differ")
    if a.n_sites == 1:
        return _train([a.cores[0] + b.cores[0]])
    cores = [np.concatenate([a.cores[0], b.cores[0]], axis=2)]
    for ca, cb in zip(a.cores[1:-1], b.cores[1:-1]):
        block = np.zeros((ca.shape[0] + cb.shape[0], 2, ca.shape[2] + cb.shape[2]))
        block[:ca.shape[0], :, :ca.shape[2]] = ca
        block[ca.shape[0]:, :, ca.shape[2]:] = cb
        cores.append(block)
    cores.append(np.concatenate([a.cores[-1], b.cores[-1]], axis=0))
    return _train(cores)


def tt_scale(a: TTVector, c) -> TTVector:
    """c times a: a new first core, sharing a's other cores."""
    return _train([a.cores[0] * float(c)] + a.cores[1:])


def tt_round(p: TTVector, tol) -> TTVector:
    """Re-compress to the smallest ranks meeting a relative 2-norm error tol.

    Left-to-right orthogonalization followed by right-to-left SVD
    truncation; the error budget tol*||p|| is split evenly over the N-1
    bonds, and cores 1..N-1 come out right-orthogonal.  Where an unfolding
    exceeds the dense bound the identity is an exact orthogonal factor,
    kept as a shape and never built.  A right-to-left pre-pass merges the
    tail of cores whose right unfolding is tall (r_left >= m*r_right) into
    one dense block, whose bonds take an SVD each and no QR.  The
    orthogonalizing pass moves each core whose left unfolding is wide
    (r_left*m <= r_right) into its right neighbour by one matmul, and the
    truncating pass makes the carry that reaches it its new core.  Ranks
    never increase; tol=0 re-orthogonalizes losslessly.  A non-finite entry
    raises numpy.linalg.LinAlgError.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return _train(_round_cores(p.cores, tol))


def _round_cores(cores, tol) -> list:
    """The tt_round sweep on cores of shape (r, m, r'), one mode size m."""
    cores = list(cores)
    n_sites = len(cores)
    if n_sites == 1:
        if not np.isfinite(cores[0]).all():
            raise np.linalg.LinAlgError("non-finite entry in a one-site train")
        return [cores[0].copy()]
    m = cores[0].shape[1]
    # Right-to-left over the tail of tall right unfoldings (r >= m*r'): the
    # identity is an exact right-orthogonal factor, so each core's content
    # moves into its left neighbour by one matmul.  The tail then holds
    # identities, kept as shapes: its sites are folded into the right index
    # of core tail-1, a dense block.
    tail = n_sites
    for n in range(n_sites - 1, 0, -1):
        r_left, _, r_right = cores[n].shape
        if r_left < m * r_right:
            break
        prev = cores[n - 1]
        cores[n - 1] = (prev.reshape(-1, r_left) @ cores[n].reshape(r_left, -1)).reshape(
            prev.shape[0], prev.shape[1], -1)
        tail = n
    # Left-to-right orthogonalization up to the block.  A wide left
    # unfolding (r*m <= r') also has the identity as an exact orthogonal
    # factor: its content moves right by one matmul and the core is left as
    # None, an identity of shape (r, m, r*m).  The others take a QR.
    for n in range(tail - 1):
        r_left, _, r_right = cores[n].shape
        mat = cores[n].reshape(r_left * m, r_right)
        nxt = cores[n + 1].reshape(r_right, -1)
        if r_left * m <= r_right:
            nxt = mat @ nxt
            cores[n] = None
        else:
            q, nxt = _qr(mat, nxt)
            cores[n] = q.reshape(r_left, m, r_right)
        cores[n + 1] = nxt.reshape(nxt.shape[0], m, -1)
    # Right-to-left truncation: an SVD per bond, of the block's unfolding
    # in the tail and of each core left of it
    block = cores[tail - 1]
    delta = tol * np.linalg.norm(block) / np.sqrt(n_sites - 1)
    r_right = 1
    for n in range(n_sites - 1, 0, -1):
        mat = (block if n >= tail else cores[n]).reshape(-1, m * r_right)
        u, s, vt = _svd(mat)
        r = _chop(s, delta)
        cores[n] = vt[:r].reshape(r, m, r_right)
        carry = u[:, :r] * s[:r]
        prev = cores[n - 1]
        if n > tail:
            block = carry
        elif n == tail or prev is None:
            cores[n - 1] = carry.reshape(-1, m, r)
        else:
            cores[n - 1] = (prev.reshape(-1, len(mat)) @ carry).reshape(prev.shape[0], m, r)
        r_right = r
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
    # s >= 0, so its sum is finite iff every entry is (short of overflow
    # past 1e308, which is as unusable); a Python sum is the cheap check
    if info != 0 or not math.isfinite(sum(s.tolist())):
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
    return _train(cores)


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
