"""Barrier location and the candidate value function.

The barrier-quality function h(y) = (1 - G'(y)) / W'(y) trades marginal
dividend value against marginal ruin cost; the candidate barrier is the
largest global maximizer of h (sup convention).  The value of the barrier
strategy is

    v_a(x) = W(x) * (1 - G'(a)) / W'(a) + G(x)   for x <= a,
    v_a(x) = x - a + v_a(a)                      for x >  a,

continuously differentiable with v_a'(a) = 1 (smooth pasting).

h has one evaluation, `_h_at`: at the grid nodes from the relation-derived
derivative samples, so node 0 holds the exact right limit
h(0+) = (1 - G'(0)) / W'(0), and between nodes from their C1 interpolation.
The coefficient of v_a is alpha = h(a); it, v_a(a) and the smooth-pasting
residual come from one W'(a) and G'(a).  v_a on the whole grid is built
on its first read, from the scale functions, a and alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainTooShortError, NumericsError
from .grid import GridFunction
from .scale import ScaleSolution, _under_resolution

_REFINE_POINTS = 65  # h evaluated as one array per refinement round
_TIE_REL = 1e-9


@dataclass(frozen=True)
class BarrierSolution:
    """Located barrier with its h profile and value function.

    `v`, v_a on the full grid extended linearly (slope one) past a, is
    assembled from `scale` and `alpha` = h(a) on its first read and cached
    from then on.
    """

    a_star: float
    h_profile: GridFunction
    v_at_barrier: float
    refinement_width: float
    smooth_pasting_residual: float
    alpha: float = field(repr=False, compare=False)
    scale: ScaleSolution = field(repr=False, compare=False)

    @cached_property
    def v(self) -> GridFunction:
        a, alpha, W, G = self.a_star, self.alpha, self.scale.W, self.scale.G
        x = W.x
        below = x <= a
        values = np.where(below, alpha * W.values + G.values, x - a + self.v_at_barrier)
        derivs = np.where(below, alpha * W.derivative_values + G.derivative_values, 1.0)
        return GridFunction(0.0, W.dx, values, derivs)

    def to_dict(self) -> dict:
        return {
            "a_star": self.a_star,
            "v_at_barrier": self.v_at_barrier,
            "smooth_pasting_residual": self.smooth_pasting_residual,
            "refinement_width": self.refinement_width,
        }


def _slope_error(scale: ScaleSolution, where: str) -> NumericsError:
    """W' <= 0 at `where`: under-resolution when dx exceeds the step cap
    (`scale._step_cap`), model degeneracy otherwise."""
    why = _under_resolution(scale.params, scale.dx)
    if why is None:
        return NumericsError(f"{where}: barrier-quality function undefined "
                             f"(model degeneracy)")
    return NumericsError(f"{where}: barrier-quality function undefined on an "
                         f"under-resolved grid: {why}")


def _h_at(scale: ScaleSolution, y=None):
    """(h, W', G') at y, a float or an array, from the C1-interpolated
    derivatives, or at every grid node from the derivative samples when y is
    None; raises where W' <= 0.  This is the one evaluation of h.  For a
    zero penalty G is 0 (`scale._stable_pair`), so G' is the float 0.0 and
    is not read: h = 1 / W', bit for bit (1 - G')/W'."""
    zero = scale.params.penalty.is_zero
    if y is None:
        wp, gp = scale.W.derivative_values, 0.0 if zero else scale.G.derivative_values
        if wp is None or gp is None:
            raise NumericsError("scale solution lacks derivative samples")
    else:
        wp, gp = scale.W.derivative(y), 0.0 if zero else scale.G.derivative(y)
    bad = np.asarray(wp) <= 0
    if bad.any():
        i = int(np.argmax(bad))
        at = scale.dx * i if y is None else np.asarray(y).flat[i]
        raise _slope_error(scale, f"W' <= 0 at x={at:.6g}")
    return (1.0 - gp) / wp, wp, gp


def h_grid(scale: ScaleSolution) -> np.ndarray:
    """h at the grid nodes; node 0 holds the exact right limit
    h(0+) = (1 - G'(0)) / W'(0), the derivatives there being the relation's."""
    n = scale.W.n
    if n < 3:
        raise NumericsError(f"grid has {n} nodes; locating the barrier needs "
                            f"at least 3 (decrease dx or increase x_max)")
    return _h_at(scale)[0]


def h_eval(scale: ScaleSolution, y: float) -> float:
    """h(y) from the relation-derived derivatives (C1 interpolation); at
    y = 0 the exact right limit, as at node 0 of `h_grid`."""
    return _h_at(scale, y)[0]


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
        j = last - int(np.argmax(_h_at(scale, ys)[0][::-1]))
        span = hi - lo
        lo, hi = float(ys[max(j - 1, 0)]), float(ys[min(j + 1, last)])
        if hi - lo <= width or not hi - lo < span:
            return float(ys[j]), hi - lo


def find_barrier(scale: ScaleSolution, refine_width: float = 1e-6) -> BarrierSolution:
    """Locate the largest global maximizer of h and assemble v.

    Scans h on the grid, takes the largest index attaining the maximum
    within a relative tie tolerance of 1e-9, then refines on the
    bracketing interval [x_{k-1}, x_{k+1}] by rounds of array evaluations
    of h (`_refine_max`) to a width of at most `refine_width`.  A maximum
    at the first node returns a* = 0 unrefined; a maximum at the last node
    raises DomainTooShortError.
    """
    h = h_grid(scale)
    dx = scale.dx
    n = h.size
    hmax = float(h.max())
    tie = _TIE_REL * abs(hmax)
    k = int(np.nonzero(h >= hmax - tie)[0][-1])

    if k == 0:
        a_star, width = 0.0, 0.0
    elif k == n - 1:
        edge = dx * k
        raise DomainTooShortError(
            f"h attains its maximum at the right edge x={edge:.6g}; "
            f"the truncation domain is likely too short",
            suggested_x_max=2.0 * edge)
    else:
        a_star, width = _refine_max(scale, dx * (k - 1), dx * (k + 1), refine_width)
    return _solution_at(scale, a_star, width, h)


def barrier_solution_at(scale: ScaleSolution, a: float) -> BarrierSolution:
    """Assemble the value function for an arbitrary barrier level."""
    return _solution_at(scale, a, 0.0, h_grid(scale))


def _solution_at(scale: ScaleSolution, a: float, refinement_width: float,
                 h: np.ndarray) -> BarrierSolution:
    """The solution at the barrier a; v_a is assembled on its first read."""
    alpha, va, pasting = _barrier_coefficient(scale, a)
    return BarrierSolution(float(a), GridFunction(0.0, scale.dx, h), float(va),
                           refinement_width, pasting, alpha, scale)


def _barrier_coefficient(scale: ScaleSolution, a: float):
    """(alpha, v_a(a), |v_a'(a) - 1|) for the barrier a, with alpha = h(a) =
    (1 - G'(a)) / W'(a), all from one W'(a) and G'(a); the last is the
    smooth-pasting residual |alpha W'(a) + G'(a) - 1|.  G(a) is not read
    for a zero penalty, where it is 0."""
    end = scale.W.x_end
    if not 0.0 <= a <= end:
        raise ValueError(f"barrier {a} outside the grid [0, {end}]")
    alpha, wp, gp = _h_at(scale, a)
    va = alpha * scale.W(a)
    if not scale.params.penalty.is_zero:
        va += scale.G(a)
    return alpha, va, abs(alpha * wp + gp - 1.0)


def value_function(scale: ScaleSolution, a: float, x) -> float:
    """v_a(x): the two-branch formula (scalar or array x)."""
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"barrier a must be a finite number >= 0, got {a}")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("initial capital must be >= 0")
    alpha, va, _ = _barrier_coefficient(scale, a)
    inside = np.minimum(xs, a)
    out = np.where(xs <= a, alpha * scale.W(inside) + scale.G(inside), xs - a + va)
    return out if out.ndim else float(out)
