"""Barrier location and the candidate value function.

The barrier-quality function h(y) = (1 - G'(y)) / W'(y) trades marginal
dividend value against marginal ruin cost; the candidate barrier is the
largest global maximizer of h (sup convention).  The value of the barrier
strategy is

    v_a(x) = W(x) * (1 - G'(a)) / W'(a) + G(x)   for x <= a,
    v_a(x) = x - a + v_a(a)                      for x >  a,

continuously differentiable with v_a'(a) = 1 (smooth pasting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooShortError, NumericsError
from .grid import GridFunction
from .model import omega_eval
from .scale import ScaleSolution, _trapezoid_convolution_at, _under_resolution

_REFINE_POINTS = 65  # h evaluated as one array per refinement round
_TIE_REL = 1e-9
_FLAT_EPS = 1e-12
_SMOOTH_PASTING_TOL = 1e-3
_SLOPE_FLOOR = 1.0 - 1e-6


@dataclass(frozen=True)
class BarrierSolution:
    """Located barrier with its h profile and assembled value function."""

    a_star: float
    h_profile: GridFunction
    v: GridFunction
    v_at_barrier: float
    refinement_width: float
    smooth_pasting_residual: float

    def to_dict(self) -> dict:
        return {
            "a_star": self.a_star,
            "v_at_barrier": self.v_at_barrier,
            "smooth_pasting_residual": self.smooth_pasting_residual,
            "refinement_width": self.refinement_width,
        }


def _derivative_arrays(scale: ScaleSolution):
    wd = scale.W.derivative_values
    gd = scale.G.derivative_values
    if wd is None or gd is None:
        raise NumericsError("scale solution lacks derivative samples")
    return wd, gd


def _slope_error(scale: ScaleSolution, where: str) -> NumericsError:
    """W' <= 0 at `where`: under-resolution when dx exceeds the step cap of
    `scale._grid_arrays`, model degeneracy otherwise."""
    why = _under_resolution(scale.params, scale.dx)
    if why is None:
        return NumericsError(f"{where}: barrier-quality function undefined "
                             f"(model degeneracy)")
    return NumericsError(f"{where}: barrier-quality function undefined on an "
                         f"under-resolved grid: {why}")


def h_grid(scale: ScaleSolution) -> np.ndarray:
    """h at the grid nodes; node 0 holds the right limit (Richardson)."""
    wd, gd = _derivative_arrays(scale)
    if wd.size < 3:
        raise NumericsError(f"grid has {wd.size} nodes; locating the barrier needs "
                            f"at least 3 (decrease dx or increase x_max)")
    if np.any(wd <= 0):
        bad = float(scale.W.x[int(np.argmax(wd <= 0))])
        raise _slope_error(scale, f"W' <= 0 at x={bad:.6g}")
    h = (1.0 - gd) / wd
    h[0] = 2.0 * h[1] - h[2]
    return h


def _h_at(scale: ScaleSolution, y):
    """h at y, a float or an array, from the C1-interpolated derivatives;
    raises where W' <= 0."""
    wp = scale.W.derivative(y)
    bad = np.asarray(wp) <= 0
    if bad.any():
        raise _slope_error(scale, f"W'({np.asarray(y).flat[int(np.argmax(bad))]}) <= 0")
    return (1.0 - scale.G.derivative(y)) / wp


def h_eval(scale: ScaleSolution, y: float) -> float:
    """h(y) from the relation-derived derivatives (C1 interpolation).

    h(0) is the limit from the right, extrapolated from the first
    interior nodes.
    """
    if y == 0.0:
        dx = scale.W.dx
        return 2.0 * h_eval(scale, dx) - h_eval(scale, 2.0 * dx)
    return _h_at(scale, y)


def _refine_max(scale: ScaleSolution, lo: float, hi: float, width: float):
    """The largest maximizer of h on [lo, hi] and the final bracket width.

    Each round evaluates h as one array on `_REFINE_POINTS` evenly spaced
    points and narrows the bracket to its best point ± one step, a factor
    (_REFINE_POINTS - 1) / 2 = 32 per round, until the bracket is at most
    `width` wide or stops shrinking.
    """
    last = _REFINE_POINTS - 1
    while True:
        ys = np.linspace(lo, hi, _REFINE_POINTS)
        j = last - int(np.argmax(_h_at(scale, ys)[::-1]))
        span = hi - lo
        lo, hi = float(ys[max(j - 1, 0)]), float(ys[min(j + 1, last)])
        if hi - lo <= width or not hi - lo < span:
            return float(ys[j]), hi - lo


def find_barrier(scale: ScaleSolution, refine_width: float = 1e-6,
                 allow_edge: bool = False) -> BarrierSolution:
    """Locate the largest global maximizer of h and assemble v.

    Scans h on the grid, takes the largest index attaining the maximum
    within a relative tie tolerance of 1e-9, then refines on the
    bracketing interval [x_{k-1}, x_{k+1}] by rounds of array evaluations
    of h (`_refine_max`) to a width of at most `refine_width`.  A maximum
    at the first node returns a* = 0 unrefined; a maximum at the last node
    raises DomainTooShortError unless `allow_edge`.
    """
    h = h_grid(scale)
    x = scale.W.x
    n = h.size
    hmax = float(h.max())
    tie = _TIE_REL * abs(hmax)
    k = int(np.nonzero(h >= hmax - tie)[0][-1])

    if k == 0:
        a_star, width = 0.0, 0.0
    elif k == n - 1:
        if not allow_edge:
            raise DomainTooShortError(
                f"h attains its maximum at the right edge x={x[-1]:.6g}; "
                f"the truncation domain is likely too short",
                suggested_x_max=2.0 * float(x[-1]))
        a_star, width = float(x[-1]), 0.0
    else:
        lo, hi = float(x[k - 1]), float(x[k + 1])
        local = h[k - 1:k + 2]
        if float(local.max() - local.min()) < _FLAT_EPS:
            j = k
            while j + 1 < n and abs(h[j + 1] - h[k]) < _FLAT_EPS:
                j += 1
            a_star, width = float(x[j]), 0.0  # right endpoint of the flat region
        else:
            a_star, width = _refine_max(scale, lo, hi, refine_width)

    sol = _solution_at(scale, a_star, width, h)
    _check_optimal_invariants(sol)
    return sol


def barrier_solution_at(scale: ScaleSolution, a: float) -> BarrierSolution:
    """Assemble the value function for an arbitrary barrier level."""
    return _solution_at(scale, a, 0.0, h_grid(scale))


def _solution_at(scale: ScaleSolution, a: float, refinement_width: float,
                 h: np.ndarray) -> BarrierSolution:
    v = assemble_value(scale, a)
    alpha, va = _barrier_coefficient(scale, a)
    pasting = 0.0 if a == 0.0 else abs(alpha * scale.W.derivative(a)
                                       + scale.G.derivative(a) - 1.0)
    hf = GridFunction(0.0, scale.dx, h)
    return BarrierSolution(float(a), hf, v, float(va), refinement_width, pasting)


def _check_optimal_invariants(sol: BarrierSolution):
    if sol.smooth_pasting_residual > _SMOOTH_PASTING_TOL:
        raise NumericsError(f"smooth pasting violated at a*={sol.a_star}: "
                            f"|v'(a*) - 1| = {sol.smooth_pasting_residual:.3e}")
    x = sol.v.x
    below = x <= sol.a_star
    slopes = sol.v.derivative_values[below]
    if slopes.size and float(slopes.min()) < _SLOPE_FLOOR:
        raise NumericsError(f"v' = {float(slopes.min()):.9f} < 1 - 1e-6 below the "
                            f"barrier: h is not maximal at a*={sol.a_star}")


def _barrier_coefficient(scale: ScaleSolution, a: float):
    """(alpha, v_a(a)) for the barrier a, alpha = (1 - G'(a)) / W'(a).

    At a = 0 both come from the node-0 samples (the right limits).
    """
    wd, gd = _derivative_arrays(scale)
    if a == 0.0:
        alpha = (1.0 - gd[0]) / wd[0]
        return alpha, alpha * scale.W.values[0] + scale.G.values[0]
    alpha = (1.0 - scale.G.derivative(a)) / scale.W.derivative(a)
    return alpha, alpha * scale.W(a) + scale.G(a)


def assemble_value(scale: ScaleSolution, a: float) -> GridFunction:
    """v_a on the full grid, extended linearly (slope one) past a."""
    x = scale.W.x
    if not 0.0 <= a <= float(x[-1]):
        raise ValueError(f"barrier {a} outside the grid [0, {x[-1]}]")
    wd, gd = _derivative_arrays(scale)
    alpha, va = _barrier_coefficient(scale, a)
    below = x <= a
    values = np.where(below, alpha * scale.W.values + scale.G.values, x - a + va)
    derivs = np.where(below, alpha * wd + gd, 1.0)
    return GridFunction(0.0, scale.dx, values, derivs)


def value_function(scale: ScaleSolution, a: float, x) -> float:
    """v_a(x): the two-branch formula (scalar or array x)."""
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"barrier a must be a finite number >= 0, got {a}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("initial capital must be >= 0")
    alpha, va = _barrier_coefficient(scale, a)
    inside = np.minimum(xs, a)
    out = np.where(xs <= a, alpha * scale.W(inside) + scale.G(inside), xs - a + va)
    return out if out.ndim else float(out)


def barrier_boundary_identity(scale: ScaleSolution, a: float,
                              v_at_barrier: float | None = None) -> float:
    """Residual of the stationarity identity at the barrier:

        0 = -(lam+q) v_a(a) + lam * int_0^a v_a(a-z) dF(z)
            + lam * omega(a) + p(a).

    Holds for every barrier level by construction of v_a; used as an
    independent consistency check.  At a grid node it holds to round-off.
    Between nodes it reads the O(dx^2) error of the convolution quadrature,
    which evaluates f at a - x_j, off the grid the march used: for a
    tabulated density, -6.1e-6 to -2.2e-5 at a = 0.81, 2.345 and 5.01 on
    the dx 0.02 Erlang-2 model with a linear penalty.  `v_at_barrier`
    overrides only the standalone v_a(a) term (perturbation probes).
    """
    params = scale.params
    v = assemble_value(scale, a)
    va = _barrier_coefficient(scale, a)[1] if v_at_barrier is None else v_at_barrier
    lam, q = params.lam, params.q
    # int_0^a v(u) f(a-u) du: trapezoid over grid nodes plus the partial cell
    integral = _trapezoid_convolution_at(v, params.claim.density, a)
    return -(lam + q) * va + lam * integral + lam * omega_eval(params, a) \
        + float(params.premium.p(a))
