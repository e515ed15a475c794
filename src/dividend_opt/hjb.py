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

For exponential claims `exact_verdict` decides the same condition with no
grid: past a* the value is linear, the claims are memoryless, and (A - q) v
is a closed form in the distance to the barrier, maximized over the whole
half-line.
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


@dataclass(frozen=True)
class ExactVerdict:
    """sup over x >= a* of (A - q) v, attained at x = a* + `at`."""

    sup_residual: float
    at: float
    tolerance: float

    @property
    def optimal(self) -> bool:
        return self.sup_residual <= self.tolerance


def exact_verdict(params: ModelParams, a_star: float,
                  v_at_barrier: float) -> Optional[ExactVerdict]:
    """The verdict above the barrier for exponential(mu) claims, in closed form.

    Past a*, v(x) = V + L with L = x - a* and V = v(a*), so with memoryless
    claims

        (A - q) v = r(L) = p(a*+L) - q (V+L) + lam (e^{-mu L} (S - V + 1/mu) - 1/mu),

    where S, the claim convolution of v at a*, is ((lam+q) V - p(a*)) / lam
    from the relation at a* with v'(a*) = 1, so that r(0) = 0.  r is
    evaluated as p(a*+L) - p(a*) - q L + B expm1(-mu L), B = q V - p(a*) +
    lam/mu, and maximized over the half-line from the sign of

        r'(L) = p'(a*+L) - q - mu B e^{-mu L}:

    on each piece where a piecewise-linear premium has slope s, r is convex
    (B >= 0) or concave (B < 0, one stationary point when s < q); for the
    rational premium r' < 0 when B >= 0, and otherwise r' has the sign of a
    concave function, so r has at most one interior maximum, bracketed and
    bisected.  The tolerance is the grid verdict's, scaled by 1 + |V|
    rather than by v at the edge of a domain.

    None (no verdict) for other claims, for q = 0, and for a premium whose
    slope at infinity is at least q, where r is unbounded or the value
    infinite.
    """
    claim, premium, lam, q = params.claim, params.premium, params.lam, params.q
    if claim.kind != "exponential" or q == 0.0:
        return None
    a, mu = float(a_star), claim.mu
    B = q * v_at_barrier - premium.p(a) + lam / mu
    if premium.kind == "rational":
        points = _rational_stationary(q, mu, B, a)
    else:
        points = _piecewise_stationary(premium, q, mu, B, a)
        if points is None:
            return None
    L = np.append(0.0, points)
    r = premium.p(a + L) - premium.p(a) - q * L + B * np.expm1(-mu * L)
    i = int(np.argmax(r))
    return ExactVerdict(float(r[i]), float(L[i]), _RESIDUAL_TOL * (1.0 + abs(v_at_barrier)))


def _piecewise_stationary(premium, q, mu, B, a):
    """Every L at which r can peak for a constant, linear or tabulated
    premium: each piece's ends and, where r is concave on it, its clipped
    stationary point ln(mu |B| / (q - s)) / mu.  None when the slope past
    the last knot is at least q."""
    ends, slopes = np.zeros(1), np.array([premium.epsilon])  # the linear law
    if premium.kind == "tabulated":  # the pieces from the one that holds a*
        j = np.searchsorted(premium.xs, a, side="right")
        ends = np.append(0.0, premium.xs[j:] - a)
        slopes = premium._piece_table[0][j:]
    if slopes[-1] >= q:
        return None
    if B >= 0.0:
        return ends[1:]
    concave = slopes < q
    stationary = np.log(-mu * B / (q - slopes[concave])) / mu
    return np.concatenate((ends[1:], np.clip(stationary, ends[concave],
                                             np.append(ends[1:], np.inf)[concave])))


def _rational_stationary(q, mu, B, a):
    """The one L > 0 at which r can peak for p = c + 1/(1+x), if any.

    With A = -mu B > 0 and u = 1 + a* + L, r' = A e^{-mu L} - q - u^-2 has
    the sign of chi(L) = ln A - mu L - ln(q + u^-2), whose slope
    -mu + 2 / (q u^3 + u) decreases: chi is concave, so r decreases,
    increases and decreases at most once each, and peaks where chi falls
    through 0 past its maximum.
    """
    if B >= 0.0:
        return []  # r' < 0
    A = -mu * B

    def chi(L):
        u = 1.0 + a + L
        return math.log(A) - mu * L - math.log(q + 1.0 / (u * u))

    def slope(L):
        u = 1.0 + a + L
        return -mu + 2.0 / (q * u ** 3 + u)

    top = _bisect(slope, 0.0, max(0.0, 2.0 / mu - 1.0 - a))  # slope < 0 from u >= 2/mu
    if chi(top) <= 0.0:
        return []  # r' <= 0
    return [_bisect(chi, top, math.log(A / q) / mu)]  # chi < 0 from A e^{-mu L} <= q


def _bisect(f, lo: float, hi: float) -> float:
    """The last point in [lo, hi] at which the decreasing f is still
    positive, to the float resolution; lo when f(lo) <= 0."""
    if f(lo) <= 0.0:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


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
