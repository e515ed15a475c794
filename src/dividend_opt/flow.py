"""Deterministic surplus dynamics between claims.

The claim-free trajectory solves dr/dt = p(r), r(0) = x.  Every premium
kind has an exact travel time T(x -> b) = int_x^b dr / p(r):

- linear c + eps x: log1p((b - x) / (x + k)) / eps with k = c/eps, which
  keeps its digits as eps -> 0; (b - x) / c where k is inf: the constant
  premium (eps = 0) and an eps so small that c/eps overflows;
- rational c + 1/(1+x):
  (b - x)/c - c^{-2} ln( (c(1+b)+1) / (c(1+x)+1) );
- tabulated (p linear between knots, held at the end values beyond
  them, as `np.interp` does): on a piece where p = p_j + s_j (r - x_j),
  ln(1 + s_j d / p_j) / s_j over a distance d, added to the travel time
  to the knot x_j.  The slopes s_j and the knot times are the premium's
  piece table, `PremiumModel._piece_table`.

The flow is the inverse, r_t = T^{-1}(T(x) + t): elementary for the
linear (x + (x + k) expm1(eps t), or x + c t) and tabulated kinds (expm1
per piece), by a Newton iteration on the exact law for the rational kind.
`FlowSolver.travel_time` and `FlowSolver.flow` evaluate both on arrays;
`forward` and `hit_time` are their checked scalar forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .model import PremiumModel, _ratio

_NEWTON_TOL = 1e-14
_NEWTON_MAX = 60


def rational_travel_time(c: float, x, b):
    """Exact time for the rational-premium flow to move from x to b >= x."""
    return (b - x) / c - (np.log(c * (1.0 + b) + 1.0)
                          - np.log(c * (1.0 + x) + 1.0)) / (c * c)


def rational_flow(c: float, x, t):
    """Invert the rational travel-time law for the position after time t.

    Newton's method from a first-order guess that slightly overshoots;
    each element stops at its own first step with a time error below
    1e-14 (1 + t + b/c).  The b/c term is the floor set by rounding b - x
    to the spacing of floats near b: without it the iteration cannot
    converge for small t at large x (x = 137, t = 0.0127, c = 1).
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    b = x + (c + 1.0 / (1.0 + x)) * t
    todo = np.flatnonzero(t != 0.0)
    for _ in range(_NEWTON_MAX):
        if todo.size == 0:
            break
        xi, ti, bi = x[todo], t[todo], b[todo]
        err = rational_travel_time(c, xi, bi) - ti
        b[todo] = np.maximum(bi - err * (c + 1.0 / (1.0 + bi)), xi)
        todo = todo[~(np.abs(err) < _NEWTON_TOL * (1.0 + ti + bi / c))]
    if todo.size:
        i = todo[0]
        raise NumericsError(f"rational flow inversion failed at x={x[i]}, t={t[i]}")
    return b.reshape(shape)


def _linear_offset(prem: PremiumModel) -> float:
    """k = c / eps of the linear law; inf where eps is 0 (a constant
    premium) or so small that c / eps overflows, and there the flow is
    x + c t."""
    return prem.c / prem.epsilon if prem.epsilon else math.inf


@dataclass(frozen=True)
class FlowSolver:
    """Forward flow and level-hitting times for one premium model.

    Exact for every premium kind (see the module docstring).  Pure
    functions of immutable configuration; safe for concurrent use.
    """

    premium: PremiumModel

    def _clock(self, r):
        """T(r) - T(x_0) for a tabulated premium."""
        xs, ps = self.premium.xs, self.premium.ps
        slopes, knot_times = self.premium._piece_table
        j = np.searchsorted(xs, r, side="right")
        jc = np.clip(j - 1, 0, xs.size - 1)
        d = r - xs[jc]
        return knot_times[jc] + d / ps[jc] * _ratio(np.log1p, slopes[j] * d / ps[jc])

    def _position(self, tau):
        """Inverse of `_clock`."""
        xs, ps = self.premium.xs, self.premium.ps
        slopes, knot_times = self.premium._piece_table
        j = np.searchsorted(knot_times, tau, side="right")
        jc = np.clip(j - 1, 0, xs.size - 1)
        dt = tau - knot_times[jc]
        return xs[jc] + ps[jc] * dt * _ratio(np.expm1, slopes[j] * dt)

    def travel_time(self, x, b):
        """Time for the flow to move from x to b >= x (floats or arrays)."""
        prem = self.premium
        if prem.kind == "rational":
            return rational_travel_time(prem.c, x, b)
        if prem.kind == "tabulated":
            return self._clock(b) - self._clock(x)
        if math.isfinite(k := _linear_offset(prem)):  # the linear law
            return np.log1p((b - x) / (x + k)) / prem.epsilon
        return (b - x) / prem.c

    def flow(self, x, t):
        """Position after time t >= 0 of the flow started at x (floats or arrays)."""
        prem = self.premium
        if prem.kind == "rational":
            return rational_flow(prem.c, x, t)
        if prem.kind == "tabulated":
            return self._position(self._clock(x) + t)
        if math.isfinite(k := _linear_offset(prem)):  # the linear law
            return x + (x + k) * np.expm1(prem.epsilon * t)
        return x + prem.c * t

    def forward(self, x: float, t: float) -> float:
        """Position r_t of the claim-free trajectory started at x >= 0."""
        if t < 0:
            raise ValueError(f"flow time must be >= 0, got {t}")
        if t == 0.0:
            return float(x)
        return float(self.flow(x, t))

    def hit_time(self, x: float, level: float) -> float:
        """Smallest t with forward(x, t) == level, for level >= x >= 0."""
        if level < x:
            raise ValueError(f"hit level {level} below start {x}")
        if level == x:
            return 0.0
        return float(self.travel_time(x, level))
