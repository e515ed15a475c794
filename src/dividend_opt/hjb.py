"""The HJB residual on the grid and the optimality verdict.

The full generator of the claim-free-flow-plus-jumps process is

    A m(x) = p(x) m'(x) + lam * int_0^inf (m(x-y) - m(x)) dF(y),

with m extended below zero by the penalty.  `residual_profile` applies
(A - q) at every grid node through `scale._generator_residual`, the one
application of the generator in the library.  The barrier strategy at a*
is optimal if and only if (A - q) v_{a*} <= 0 above the barrier; three
sufficient conditions (h monotone past a*, convex density with concave
premium, decreasing density with bounded premium slope) are evaluated
alongside as pass / fail / not-applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .barrier import BarrierSolution
from .errors import NumericsError
from .grid import GridFunction
from .model import ModelParams, omega_eval
from .scale import _generator_residual

_RESIDUAL_TOL = 1e-6
_H_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class OptimalityReport:
    """HJB residuals above the barrier plus the sufficient-condition tests."""

    residual_profile: GridFunction
    max_residual_above: float
    necessary_sufficient_pass: bool
    thm_h_monotone_pass: Optional[bool]
    thm_convex_concave_pass: Optional[bool]
    thm_decreasing_density_pass: Optional[bool]
    barrier: float
    tolerance: float
    sanity_band_max: float  # max |residual| on (0, a*); not a gate

    def to_dict(self) -> dict:
        return {
            "barrier": self.barrier,
            "max_residual_above": self.max_residual_above,
            "necessary_sufficient_pass": self.necessary_sufficient_pass,
            "thm_h_monotone_pass": self.thm_h_monotone_pass,
            "thm_convex_concave_pass": self.thm_convex_concave_pass,
            "thm_decreasing_density_pass": self.thm_decreasing_density_pass,
            "tolerance": self.tolerance,
            "sanity_band_max": self.sanity_band_max,
        }


def residual_profile(v: GridFunction, params: ModelParams,
                     omega: np.ndarray | None = None) -> GridFunction:
    """(A - q) v at every grid node in one batch (v extended by the penalty).

    The residual is `scale._generator_residual`, the one that measures the
    defining relation of W and G when `ScaleSolution.diagnostics` is first
    read.  `verify_optimality` passes a BarrierSolution's `v`, which that
    read assembles, and the penalty rate its solve evaluated on the same
    nodes as `omega`; without it, omega is evaluated here.  It reads no
    diagnostics of W and G.
    """
    if v.derivative_values is None:
        raise NumericsError("residual profile needs derivative samples")
    x = v.x
    p_vals = np.asarray(params.premium.p(x), dtype=float)
    if omega is None:
        omega = omega_eval(params, x)
    g = _generator_residual(params, p_vals, v.values, v.derivative_values, v.dx, omega)
    return GridFunction(v.x0, v.dx, g)


def verify_optimality(solution: BarrierSolution, params: ModelParams) -> OptimalityReport:
    """Theorem-style optimality decision for the barrier in `solution`.

    Necessary-and-sufficient: max of (A - q) v over grid points strictly
    above the barrier must not exceed _RESIDUAL_TOL * (1 + max |v|); the band
    below the barrier is reported as a sanity check only.
    """
    a = solution.a_star
    v = solution.v
    x = v.x
    span_needed = a + 5.0 * params.claim.mean()
    if float(x[-1]) < span_needed:
        raise NumericsError(f"grid must extend at least 5 mean claim sizes past "
                            f"the barrier (need {span_needed:.6g}, have {x[-1]:.6g})")
    prof = residual_profile(v, params, solution.scale.omega)
    g = prof.values
    above = x > a + 1e-12
    inner = (x > 1e-12) & (x < a - 1e-12)
    vmax = float(np.max(np.abs(v.values)))
    tol = _RESIDUAL_TOL * (1.0 + vmax)
    max_above = float(g[above].max()) if above.any() else -math.inf
    ns_pass = max_above <= tol
    sanity = float(np.max(np.abs(g[inner]))) if inner.any() else 0.0

    # (i) h non-increasing past the barrier
    h = solution.h_profile.values
    past = x >= a - 1e-12
    hp = h[past]
    slack = _H_MONOTONE_SLACK * max(1.0, float(np.max(np.abs(h))))
    h_monotone = bool(np.all(np.diff(hp) <= slack)) if hp.size >= 2 else None

    # (ii) convex claim density + concave premium
    convex_concave = bool(params.claim.density_convex and params.premium.concave)

    # (iii) decreasing density + p' <= q + lam above the barrier (zero penalty)
    if params.penalty.is_zero:
        pp = np.asarray(params.premium.p_prime(x[past]), dtype=float)
        decreasing = bool(params.claim.density_decreasing
                          and np.all(pp <= params.q + params.lam + 1e-12))
    else:
        decreasing = None

    return OptimalityReport(prof, max_above, ns_pass, h_monotone,
                            convex_concave, decreasing, a, tol, sanity)
