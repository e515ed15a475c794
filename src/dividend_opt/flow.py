"""Deterministic surplus dynamics between claims.

The claim-free trajectory solves dr/dt = p(r), r(0) = x.  Every premium
kind has an exact travel time T(x -> b) = int_x^b dr / p(r):

- constant c: (b - x) / c;
- linear c + eps x: log1p((b - x) / (x + k)) / eps with k = c/eps, which
  keeps its digits as eps -> 0 (the constant law where k overflows);
- rational c + 1/(1+x):
  (b - x)/c - c^{-2} ln( (c(1+b)+1) / (c(1+x)+1) );
- tabulated (p linear between knots, held at the end values beyond
  them, as `np.interp` does): on a segment where p = p_j + s_j (r - x_j),
  ln(1 + s_j d / p_j) / s_j over a distance d, summed at the knots.

The flow is the inverse, r_t = T^{-1}(T(x) + t): elementary for the
constant, linear (x + (x + k) expm1(eps t)) and tabulated kinds (expm1 per
segment), by a Newton iteration on the exact law for the rational kind.
`FlowSolver.travel_time` and `FlowSolver.flow` evaluate both on arrays;
`forward` and `hit_time` are their checked scalar forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericsError
from .model import PremiumModel

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


def _log1p_ratio(z):
    """log1p(z) / z, continued by 1 at z = 0."""
    zero = z == 0.0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.log1p(safe) / safe)


def _expm1_ratio(z):
    """expm1(z) / z, continued by 1 at z = 0."""
    zero = z == 0.0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


def _linear_offset(prem: PremiumModel) -> float:
    """k = c / eps of a linear premium; inf where eps is 0 or so small that
    c / eps overflows, and there the flow is the constant premium's."""
    return prem.c / prem.epsilon if prem.epsilon else math.inf


@dataclass(frozen=True)
class FlowSolver:
    """Forward flow and level-hitting times for one premium model.

    Exact for every premium kind (see the module docstring).  Pure
    functions of immutable configuration; safe for concurrent use.
    """

    premium: PremiumModel
    # tabulated premium: T(x_j) - T(x_0) at the knots, and the slope of p
    # on each segment with a flat one at either end: [0, s_0 .. s_{n-2}, 0]
    _knot_times: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                              compare=False)
    _slopes: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.premium.kind != "tabulated":
            return
        xs, ps = self.premium.xs, self.premium.ps
        dxs = np.diff(xs)
        slopes = np.diff(ps) / dxs
        seg = dxs / ps[:-1] * _log1p_ratio(slopes * dxs / ps[:-1])
        object.__setattr__(self, "_knot_times", np.concatenate(([0.0], np.cumsum(seg))))
        object.__setattr__(self, "_slopes", np.concatenate(([0.0], slopes, [0.0])))

    def _clock(self, r):
        """T(r) - T(x_0) for a tabulated premium."""
        xs, ps = self.premium.xs, self.premium.ps
        j = np.searchsorted(xs, r, side="right") - 1
        jc = np.clip(j, 0, xs.size - 1)
        d = r - xs[jc]
        return self._knot_times[jc] + d / ps[jc] * _log1p_ratio(
            self._slopes[j + 1] * d / ps[jc])

    def _position(self, tau):
        """Inverse of `_clock`."""
        xs, ps, tk = self.premium.xs, self.premium.ps, self._knot_times
        j = np.searchsorted(tk, tau, side="right") - 1
        jc = np.clip(j, 0, xs.size - 1)
        dt = tau - tk[jc]
        return xs[jc] + ps[jc] * dt * _expm1_ratio(self._slopes[j + 1] * dt)

    def travel_time(self, x, b):
        """Time for the flow to move from x to b >= x (floats or arrays)."""
        prem = self.premium
        kind = prem.kind
        if kind == "linear" and math.isfinite(k := _linear_offset(prem)):
            return np.log1p((b - x) / (x + k)) / prem.epsilon
        if kind in ("constant", "linear"):
            return (b - x) / prem.c
        if kind == "rational":
            return rational_travel_time(prem.c, x, b)
        return self._clock(b) - self._clock(x)

    def flow(self, x, t):
        """Position after time t >= 0 of the flow started at x (floats or arrays)."""
        prem = self.premium
        kind = prem.kind
        if kind == "linear" and math.isfinite(k := _linear_offset(prem)):
            return x + (x + k) * np.expm1(prem.epsilon * t)
        if kind in ("constant", "linear"):
            return x + prem.c * t
        if kind == "rational":
            return rational_flow(prem.c, x, t)
        return self._position(self._clock(x) + t)

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
