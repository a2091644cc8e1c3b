"""Forward solves of the epidemic master equation.

* evolve_tt: tensor-train integration by uniformization, the primary
  path; likelihood builds every TT transition probability on it.
* transition_prob_ssa: frequency estimate from exact-event trajectories,
  run by the same Gillespie kernel that generates the synthetic data; the
  Monte Carlo baseline.

Uniformization writes exp(A*dt) p as a Poisson-weighted power series of
the shifted stochastic matrix B = I + A/L, where L bounds every total exit
rate; B and its MPO are built once per generator (CPOperator.uniformized).
dt is split so each substep has L*dt <= 1, and the series is truncated once
its Poisson tail is negligible.  Each substep sums w_0 p + w_1 B p + ... +
w_K B^K p by Horner's rule: from w_K p, it K times applies B, adds the next
lower term and re-compresses, one application and one rounding per term.
"""

from __future__ import annotations

import math

import numpy as np

from .datagen import _check_states, _jump_events
from .generator import ModelParams
from .graphs import Network
from .tt import (CPOperator, TTVector, cp_apply, tt_add, tt_inner, tt_ones,
                 tt_round, tt_scale)

__all__ = [
    "SolverAccuracyError",
    "SubstepLimitError",
    "evolve_tt",
    "transition_prob_ssa",
]

# Fixed absolute accuracy of one evolve.  The likelihood multiplies rare
# transition probabilities, so entries far below any relative tolerance
# (1e-13 <= p <= 1e-8 is common) must still be right: every rounding is
# held to _ABS_ACC split over the operator applications, and the Poisson
# series drops at most _TAIL_ABS of mass split over the substeps.  The
# mass deficit of the result is therefore of order 1e-13.
_ABS_ACC = 1e-13
_TAIL_ABS = 1e-14
# Largest mass drift an evolve may return, checked on every result.  The
# generator conserves mass, so the drift is the solve's own truncation
# error: at most 2.7e-13 on the Austria benchmark series, so this bound
# leaves a margin of about 370x and still flags a solve whose roundings
# lost real probability.
_MASS_TOL = 1e-10
# Uniformization substeps one evolve may take; beyond this the interval is
# too long for the solver to finish in reasonable time.
_MAX_SUBSTEPS = 10_000


class SolverAccuracyError(RuntimeError):
    """A TT solve lost accuracy: its mass drifted beyond _MASS_TOL, or a
    computed probability is negative beyond roundoff tolerance."""


class SubstepLimitError(RuntimeError):
    """Uniformization needs more substeps than _MAX_SUBSTEPS."""


def _poisson_weights(lam, tail_tol):
    """Weights e^-lam lam^k / k! until the remaining tail mass < tail_tol.

    The series also ends once a term no longer changes the partial sum:
    a tail_tol below double resolution of 1 would otherwise never be met.
    """
    weights = [math.exp(-lam)]
    cum = weights[0]
    k = 0
    while 1.0 - cum >= tail_tol:
        k += 1
        w = weights[-1] * lam / k
        if cum + w == cum:
            break
        weights.append(w)
        cum += w
    return np.array(weights)


def _assert_finite(p: TTVector):
    for core in p.cores:
        if not np.isfinite(core).all():
            raise FloatingPointError("non-finite values in evolved state")


def evolve_tt(gen: CPOperator, p0: TTVector, dt) -> TTVector:
    """Propagate a TT probability vector by exp(gen * dt).

    The input must be a probability vector (entries summing to 1 within
    1e-8); the output is not renormalized, so its mass deficit measures
    the accumulated truncation error.  A deficit above _MASS_TOL raises
    SolverAccuracyError.
    """
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    if gen.n_sites != p0.n_sites:
        raise ValueError("generator and state site counts differ")
    shifted = gen.uniformized  # raises when gen has no exit-rate bound
    mass = tt_inner(p0, tt_ones(p0.n_sites))
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"initial state mass {mass} is not 1")
    if dt == 0:
        return TTVector([c.copy() for c in p0.cores])

    lam_total = gen.exit_rate_bound
    n_sub = max(1, math.ceil(lam_total * dt))
    if n_sub > _MAX_SUBSTEPS:
        raise SubstepLimitError(
            f"{n_sub} substeps needed, cap is {_MAX_SUBSTEPS}")
    lam = lam_total * dt / n_sub
    weights = _poisson_weights(lam, _TAIL_ABS / n_sub)
    n_apply = max((len(weights) - 1) * n_sub, 1)
    tol_app = _ABS_ACC / n_apply

    p = p0
    for _ in range(n_sub):
        # Horner's rule: sum_k w_k B^k p = w_0 p + B(w_1 p + B(w_2 p + ...)),
        # one application and one rounding per Poisson term
        acc = tt_scale(p, weights[-1])
        for w in weights[-2::-1]:
            acc = tt_round(tt_add(cp_apply(shifted, acc), tt_scale(p, w)), tol_app)
            _assert_finite(acc)
        p = acc
    _assert_finite(p)
    deficit = abs(mass - tt_inner(p, tt_ones(p.n_sites)))
    if deficit > _MASS_TOL:
        raise SolverAccuracyError(
            f"mass deficit {deficit:.3g} after evolving over dt={dt} exceeds {_MASS_TOL:g}")
    return p


def transition_prob_ssa(net: Network, params: ModelParams, x_a, x_b, dt,
                        n_traj, rng) -> float:
    """Frequency of trajectories from x_a that end in x_b after dt.

    Returns exactly 0 when no trajectory hits the target, in which case
    the event is unresolved at this sample size.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and nonnegative, got {dt}")
    x_a, x_b = _check_states(net, x_a, x_b)
    hits = 0
    for _ in range(n_traj):
        x = x_a.copy()
        for _ in _jump_events(net, params, x, dt, rng):
            pass
        if np.array_equal(x, x_b):
            hits += 1
    return hits / n_traj
