"""Problem instances: premium, claim and penalty families, and model validation.

The surplus process grows at rate p(x) between claims, drops by i.i.d.
claim amounts at Poisson(lambda) arrival times, and values are discounted
at rate q.  A non-positive penalty w is charged on the deficit at ruin.

All types are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ModelValidationError

_DENSITY_MASS_TOL = 1e-8
# Nodes per block of `omega_eval`: its temporaries are a few arrays of this
# length however many nodes it is given
_OMEGA_BLOCK = 4096


def _number(where: str, name: str, value, positive: bool = False) -> float:
    """`value` as a float, checked: a real number (not a bool), finite, and
    > 0 when `positive`, else >= 0.  `where` and `name` name the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where} field '{name}' must be a number, got {value!r}")
    v = float(value)
    if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
        raise ConfigError(f"{where} field '{name}' must be a finite number "
                          f"{'> 0' if positive else '>= 0'}, got {value!r}")
    return v


def _as_readonly(a, where: str, name: str) -> np.ndarray:
    """A read-only contiguous float copy of `a`, checked: every entry a
    finite real number (not a bool).  `where` and `name` name the field."""
    try:
        arr = np.asarray(a)
        numeric = arr.dtype.kind in "iuf" and not (isinstance(a, list)
                                                   and bool in map(type, a))
    except ValueError:  # ragged nesting
        numeric = False
    if not numeric:
        raise ConfigError(f"{where} field '{name}' must be an array of numbers")
    bad = np.flatnonzero(~np.isfinite(arr.ravel()))
    if bad.size:
        raise ConfigError(f"{where} field '{name}' must be finite, entry {bad[0]} "
                          f"is {arr.ravel()[bad[0]]}")
    out = np.array(arr, dtype=float, order="C")  # a copy: the caller's array stays writable
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# premium


@dataclass(frozen=True)
class PremiumModel:
    """Income rate p(x) as a function of the current surplus.

    Families: constant p=c, linear p=c+eps*x, rational p=c+1/(1+x),
    and tabulated samples with linear interpolation, held at the end
    values beyond the knots (as `np.interp` does, with slope 0 there).
    p must be positive and monotone (either direction).
    """

    kind: str
    c: float = 0.0
    epsilon: float = 0.0
    xs: Optional[np.ndarray] = None
    ps: Optional[np.ndarray] = None

    @staticmethod
    def constant(c: float) -> "PremiumModel":
        return PremiumModel("constant", c=_number("constant premium", "c", c, True))

    @staticmethod
    def linear(c: float, epsilon: float) -> "PremiumModel":
        return PremiumModel("linear", c=_number("linear premium", "c", c, True),
                            epsilon=_number("linear premium", "epsilon", epsilon))

    @staticmethod
    def rational(c: float) -> "PremiumModel":
        return PremiumModel("rational", c=_number("rational premium", "c", c, True))

    @staticmethod
    def tabulated(xs, ps) -> "PremiumModel":
        xs = _as_readonly(xs, "tabulated premium", "x")
        ps = _as_readonly(ps, "tabulated premium", "p")
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size < 2:
            raise ConfigError("tabulated premium fields 'x' and 'p' must be 1-d arrays "
                              "of one length >= 2")
        if not np.all(np.diff(xs) > 0):
            raise ConfigError("tabulated premium grid must be strictly increasing")
        if np.any(ps <= 0):
            raise ConfigError("premium samples must be positive")
        d = np.diff(ps)
        if not (np.all(d >= -1e-12) or np.all(d <= 1e-12)):
            raise ConfigError("tabulated premium must be monotone")
        return PremiumModel("tabulated", xs=xs, ps=ps)

    def p(self, x):
        """Premium rate at surplus x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.full_like(x, self.c)
        elif self.kind == "linear":
            out = self.c + self.epsilon * x
        elif self.kind == "rational":
            out = self.c + 1.0 / (1.0 + x)
        else:
            out = np.interp(x, self.xs, self.ps)
        return out if out.ndim else float(out)

    def p_prime(self, x):
        """Derivative of the premium rate (a.e. for tabulated: 0 beyond the knots)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.zeros_like(x)
        elif self.kind == "linear":
            out = np.full_like(x, self.epsilon)
        elif self.kind == "rational":
            out = -1.0 / (1.0 + x) ** 2
        else:
            idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, self.xs.size - 2)
            slope = (self.ps[idx + 1] - self.ps[idx]) / (self.xs[idx + 1] - self.xs[idx])
            out = np.where((x < self.xs[0]) | (x > self.xs[-1]), 0.0, slope)
        return out if out.ndim else float(out)

    @property
    def concave(self) -> Optional[bool]:
        """p'' <= 0 on [0, inf) by family; for a tabulated premium, the slopes
        of the held interpolant (flat beyond its end knots) do not increase."""
        if self.kind in ("constant", "linear"):
            return True
        if self.kind == "rational":
            return False  # p'' = 2/(1+x)^3 > 0
        slopes = np.diff(self.ps) / np.diff(self.xs)
        slopes = np.concatenate(([0.0] if self.xs[0] > 0 else [], slopes, [0.0]))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(slopes))))
        return bool(np.all(np.diff(slopes) <= tol))

    def floor_from(self, x: float, x_hi: float) -> float:
        """inf of p over [x, x_hi] (monotone families make this an endpoint)."""
        return float(min(self.p(x), self.p(x_hi)))


# ---------------------------------------------------------------------------
# claims


@dataclass(frozen=True)
class ClaimModel:
    """Claim size distribution with density f and d.f. F.

    Exponential(mu) or a density tabulated on a uniform grid from x0 >= 0
    (linearly interpolated between the samples, zero outside the grid).
    Every method of a tabulated claim describes that interpolant.
    """

    kind: str
    mu: float = 0.0
    x0: float = 0.0
    dx: float = 0.0
    f_vals: Optional[np.ndarray] = None
    _nodes: Optional[np.ndarray] = field(default=None, repr=False)
    _tail_vals: Optional[np.ndarray] = field(default=None, repr=False)

    @staticmethod
    def exponential(mu: float) -> "ClaimModel":
        return ClaimModel("exponential", mu=_number("exponential claim", "mu", mu, True))

    @staticmethod
    def tabulated(x0: float, dx: float, density) -> "ClaimModel":
        where = "tabulated claim"
        x0, dx = _number(where, "x0", x0), _number(where, "dx", dx, True)
        f = _as_readonly(density, where, "density")
        if f.ndim != 1 or f.size < 2:
            raise ConfigError("tabulated claim field 'density' must be a 1-d array of "
                              ">= 2 samples")
        if np.any(f < 0):
            raise ConfigError("claim density must be non-negative")
        mass = float(np.trapezoid(f, dx=dx))
        if abs(mass - 1.0) > _DENSITY_MASS_TOL:
            raise ConfigError(f"claim density integrates to {mass:.10f} over its grid "
                              f"[{x0}, {x0 + dx * (f.size - 1)}], not 1: missing mass "
                              f"{1.0 - mass:.10f} (tolerance {_DENSITY_MASS_TOL})")
        nodes = x0 + dx * np.arange(f.size)
        # exact cell integrals of f and z f for the linear interpolant
        slope = np.diff(f) / dx
        cell0 = 0.5 * dx * (f[:-1] + f[1:])
        cell1 = nodes[:-1] * cell0 + dx * dx * (0.5 * f[:-1] + slope * dx / 3.0)
        tails = np.zeros((2, f.size))  # int_{g_j}^end of f and of z f
        tails[0, :-1] = np.cumsum(cell0[::-1])[::-1]
        tails[1, :-1] = np.cumsum(cell1[::-1])[::-1]
        return ClaimModel("tabulated", x0=x0, dx=dx, f_vals=f,
                          _nodes=_as_readonly(nodes, where, "dx"),
                          _tail_vals=_as_readonly(tails, where, "density"))

    def density(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "exponential":
            out = np.where(y >= 0, self.mu * np.exp(-self.mu * np.maximum(y, 0.0)), 0.0)
        else:
            inside = (y >= self.x0) & (y <= self.support_end)
            out = np.where(inside, np.interp(y, self._nodes, self.f_vals), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, y):
        """F(y); for a tabulated density (S0(x0) - S0(y)) / S0(x0)."""
        y = np.asarray(y, dtype=float)
        if self.kind == "exponential":
            out = np.where(y >= 0, -np.expm1(-self.mu * np.maximum(y, 0.0)), 0.0)
        else:
            total = self._tail_vals[0, 0]
            inside = np.clip((total - self._tails(y)[0]) / total, 0.0, 1.0)
            out = np.where(y >= self.support_end, 1.0, np.where(y < self.x0, 0.0, inside))
        return out if out.ndim else float(out)

    def _tails(self, y):
        """(S0, S1) = (int_y^inf f(z) dz, int_y^inf z f(z) dz) for finite y.

        Closed form for exponential claims; exact for the piecewise-linear
        tabulated density: the tail from the next grid node down, plus the
        partial cell, a polynomial in t = y - g_j of degree 2 (S0) or 3 (S1).
        """
        if self.kind == "exponential":
            y = np.maximum(y, 0.0)
            s0 = np.exp(-self.mu * y)
            return s0, s0 * (y + 1.0 / self.mu)
        f, dx = self.f_vals, self.dx
        shape = np.shape(y)
        y = np.maximum(np.ravel(y), self.x0)
        live = y < self.support_end  # no mass at or past the end: the tails are 0
        whole = bool(live.all())
        if not whole:
            y = y[live]
        j = np.minimum(((y - self.x0) / dx).astype(np.intp), f.size - 2)
        # S0 = S0(g_j) - part0 with part0 = t (f_j + 0.5 s_j t), and
        # S1 = S1(g_j) - part1 with part1 = g_j part0 + t t (0.5 f_j + s_j t / 3),
        # where t = y - g_j and s_j = (f_{j+1} - f_j) / dx: in place, in that
        # order of operations, holding six arrays of y's size
        t = np.subtract(y, self._nodes[j], out=y)
        fj = f[j]
        sj = f[j + 1]
        sj -= fj
        sj /= dx
        part0 = sj * 0.5
        part0 *= t
        part0 += fj
        part0 *= t
        fj *= 0.5
        sj *= t
        sj /= 3.0
        fj += sj
        t *= t
        t *= fj
        part1 = self._nodes[j]
        part1 *= part0
        part1 += t
        np.subtract(self._tail_vals[0, j], part0, out=part0)
        np.subtract(self._tail_vals[1, j], part1, out=part1)
        if not whole:
            s0, s1 = np.zeros(live.size), np.zeros(live.size)
            s0[live], s1[live] = part0, part1
            part0, part1 = s0, s1
        return part0.reshape(shape), part1.reshape(shape)

    def mean(self) -> float:
        """E[C]; for a tabulated density S1(x0) / S0(x0)."""
        if self.kind == "exponential":
            return 1.0 / self.mu
        return float(self._tail_vals[1, 0] / self._tail_vals[0, 0])

    def ppf(self, u):
        """Inverse of `cdf` on [0, 1) (used for sampling).

        For a tabulated density: the cell j whose node tails bracket the
        target tail r = (1 - u) S0(x0), then the root t in [0, dx] of the
        cell's mass t (f_j + s_j t / 2) = S0(g_j) - r, taken in the form
        2m / (f_j + sqrt(f_j^2 + 2 s_j m)) that has no cancellation.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "exponential":
            return -np.log1p(-u) / self.mu
        f, dx, tails = self.f_vals, self.dx, self._tail_vals[0]
        r = (1.0 - u) * tails[0]
        j = np.clip(np.searchsorted(-tails, -r, side="right") - 1, 0, f.size - 2)
        m = np.maximum(tails[j] - r, 0.0)
        fj = f[j]
        root = np.sqrt(np.maximum(fj * fj + 2.0 * (f[j + 1] - fj) / dx * m, 0.0))
        denom = fj + root
        empty = denom == 0.0  # only when f_j = 0 and m s_j <= 0, so at m = 0
        t = np.where(empty, 0.0, 2.0 * m / np.where(empty, 1.0, denom))
        out = self._nodes[j] + np.minimum(t, dx)
        return out if out.ndim else float(out)

    @property
    def support_end(self) -> float:
        return math.inf if self.kind == "exponential" else self.x0 + self.dx * (self.f_vals.size - 1)

    # flags consumed by the sufficient-condition checks
    @property
    def density_convex(self) -> bool:
        if self.kind == "exponential":
            return True
        d2 = np.diff(self.f_vals, 2)
        return bool(np.all(d2 >= -1e-10 * max(1.0, float(np.max(self.f_vals)))))

    @property
    def density_decreasing(self) -> bool:
        if self.kind == "exponential":
            return True
        return bool(np.all(np.diff(self.f_vals) <= 1e-12))


# ---------------------------------------------------------------------------
# penalty


@dataclass(frozen=True)
class PenaltyModel:
    """Non-positive penalty w on the deficit at ruin (argument x < 0).

    zero: w = 0; constant: w = -k; linear: w(x) = -k + beta*x for x < 0
    (beta >= 0, so more negative deficit means harsher penalty);
    tabulated: samples on x < 0, held at the outermost sample beyond
    the grid.
    """

    kind: str
    k: float = 0.0
    beta: float = 0.0
    xs: Optional[np.ndarray] = None
    ws: Optional[np.ndarray] = None

    @staticmethod
    def zero() -> "PenaltyModel":
        return PenaltyModel("zero")

    @staticmethod
    def constant(k: float) -> "PenaltyModel":
        return PenaltyModel("constant", k=_number("constant penalty", "k", k))

    @staticmethod
    def linear(k: float, beta: float) -> "PenaltyModel":
        return PenaltyModel("linear", k=_number("linear penalty", "k", k),
                            beta=_number("linear penalty", "beta", beta))

    @staticmethod
    def tabulated(xs, ws) -> "PenaltyModel":
        xs = _as_readonly(xs, "tabulated penalty", "x")
        ws = _as_readonly(ws, "tabulated penalty", "w")
        if xs.ndim != 1 or xs.shape != ws.shape or xs.size < 2:
            raise ConfigError("tabulated penalty fields 'x' and 'w' must be 1-d arrays "
                              "of one length >= 2")
        if not np.all(np.diff(xs) > 0) or np.any(xs >= 0):
            raise ConfigError("tabulated penalty grid must be increasing and entirely on x < 0")
        if np.any(ws > 0):
            raise ConfigError("penalty samples must be <= 0")
        return PenaltyModel("tabulated", xs=xs, ws=ws)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "constant" and self.k == 0.0) \
            or (self.kind == "linear" and self.k == 0.0 and self.beta == 0.0)

    def w(self, x):
        """Penalty value at deficit x (x < 0; w(x) <= 0)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(x)
        elif self.kind == "constant":
            out = np.full_like(x, -self.k)
        elif self.kind == "linear":
            out = -self.k + self.beta * x
        else:
            out = np.interp(x, self.xs, self.ws)  # np.interp holds endpoint values
        return out if out.ndim else float(out)

    def _pieces(self):
        """w as linear pieces (a, b, lo, hi): w(y) = a + b y on [lo, hi].

        Ordered outward from hi = 0, each piece's lo being the next one's
        hi; the last has lo = -inf.  The zero penalty has no pieces.
        """
        if self.is_zero:
            return []
        if self.kind in ("constant", "linear"):
            return [(-self.k, self.beta, -math.inf, 0.0)]
        xs, ws = self.xs, self.ws
        slopes = np.diff(ws) / np.diff(xs)
        inner = [(float(ws[i] - slopes[i] * xs[i]), float(slopes[i]),
                  float(xs[i]), float(xs[i + 1])) for i in range(xs.size - 2, -1, -1)]
        return [(float(ws[-1]), 0.0, float(xs[-1]), 0.0), *inner,
                (float(ws[0]), 0.0, -math.inf, float(xs[0]))]


# ---------------------------------------------------------------------------
# full instance


@dataclass(frozen=True)
class ModelParams:
    """A complete problem instance."""

    premium: PremiumModel
    claim: ClaimModel
    penalty: PenaltyModel
    lam: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _number("model", "lambda", self.lam, True))
        object.__setattr__(self, "q", _number("model", "q", self.q))
        if not math.isfinite(self.claim.mean()):
            raise ConfigError("claim mean must be finite")


def omega_eval(params: ModelParams, x):
    """Expected penalty rate omega(x) = integral of w(x-z) dF(z) over z > x.

    Exact for every claim and penalty kind, at a scalar or an array of
    x >= 0.  With the claim tails S0(y) = int_y^inf f and
    S1(y) = int_y^inf z f(z) dz, and w split into linear pieces
    w(y) = a_k + b_k y on [lo_k, hi_k],

        omega(x) = sum_k (a_k + b_k x) (S0(z1) - S0(z2)) - b_k (S1(z1) - S1(z2)),

    z1 = x - hi_k, z2 = x - lo_k (tails at z2 = inf are 0).  Always <= 0.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs >= 0):
        raise ValueError(f"omega is defined on x >= 0, got {xs[~(xs >= 0)].flat[0]}")
    out = np.zeros(xs.shape)
    claim = params.claim
    pieces = params.penalty._pieces()
    if pieces:
        flat_x, flat_out = xs.reshape(-1), out.reshape(-1)
        for start in range(0, flat_x.size, _OMEGA_BLOCK):  # temporaries of one block
            xb = flat_x[start:start + _OMEGA_BLOCK]
            ob = flat_out[start:start + _OMEGA_BLOCK]
            live = xb < claim.support_end  # no claim reaches past it: omega is 0
            if live.all():
                _add_omega(claim, pieces, xb, ob)
            elif live.any():
                part = np.zeros(np.count_nonzero(live))
                _add_omega(claim, pieces, xb[live], part)
                ob[live] = part
        np.minimum(out, 0.0, out=out)
    return out if out.ndim else float(out)


def _add_omega(claim: ClaimModel, pieces, x: np.ndarray, out: np.ndarray):
    """Add omega's sum over the penalty pieces at the nodes x to out."""
    upper = claim._tails(x)  # the first piece ends at hi = 0
    for a, b, lo, hi in pieces:
        lower = claim._tails(x - lo) if lo > -math.inf else (0.0, 0.0)
        out += (a + b * x) * (upper[0] - lower[0])
        if b:
            out -= b * (upper[1] - lower[1])
        upper = lower


def penalty_envelope(params: ModelParams) -> float:
    """sup over y >= 0 of E[-w(y - C) | C > y] (the integrability constant)."""
    if params.penalty.is_zero:
        return 0.0
    claim = params.claim
    if claim.kind == "tabulated":
        # 0 and every node below the support end: a tabulated claim's mean
        # residual life can keep rising up to its last mass, however far
        # past its mean that lies
        ys = np.append(0.0, claim._nodes[:-1])
    else:
        ys = np.linspace(0.0, max(1.0, 10.0 * claim.mean()), 201)
    surv = claim._tails(ys)[0]
    keep = surv >= 1e-14
    if not keep.any():
        return 0.0
    return float(np.max(-omega_eval(params, ys[keep]) / surv[keep]))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks, with reasons."""

    speed_pass: bool
    speed_bound: tuple  # (A, B) with integral <= A*x + B, or (nan, nan)
    drift_pass: bool
    drift_x0: float  # sup{x >= 0 : p(x) <= lam * E[C]}; inf without drift
    penalty_pass: bool
    reasons: tuple

    @property
    def passed(self) -> bool:
        return self.speed_pass and self.drift_pass and self.penalty_pass

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "speed_pass": self.speed_pass,
            "speed_bound": list(self.speed_bound),
            "drift_pass": self.drift_pass,
            "drift_x0": self.drift_x0,
            "penalty_pass": self.penalty_pass,
            "reasons": list(self.reasons),
        }


def _drift_x0(prem: PremiumModel, rate: float) -> float:
    """sup{x >= 0 : p(x) <= rate}: 0 when p > rate everywhere, inf when
    p <= rate for arbitrarily large x.  Exact for every family."""
    if prem.kind == "linear" and prem.epsilon > 0:
        return max(0.0, (rate - prem.c) / prem.epsilon)
    if prem.kind in ("constant", "linear"):
        return 0.0 if prem.c > rate else math.inf
    if prem.kind == "rational":  # p decreases to its infimum c, never reached
        return 0.0 if prem.c >= rate else math.inf
    xs, ps = prem.xs, prem.ps
    if ps[-1] <= rate:  # held at ps[-1] beyond the last knot
        return math.inf
    below = np.flatnonzero(ps <= rate)
    if below.size == 0:
        return 0.0
    j = below[-1]  # ps[j] <= rate < ps[j + 1]: p increases through rate here
    cross = xs[j] + (rate - ps[j]) * (xs[j + 1] - xs[j]) / (ps[j + 1] - ps[j])
    return max(0.0, float(cross))


def validate_model(params: ModelParams) -> ValidationReport:
    """Check the standing assumptions: speed condition, eventual positive
    drift, and penalty integrability, each from the family's closed form.

    Speed: a linear premium's discounted integral along the claim-free
    flow is exactly (eps x + c) / (q - eps) when eps < q; every other
    family is bounded, so the integral is at most sup p / q.  q = 0 fails.
    The hard rejection (raise) is q = 0 with a linear premium of positive
    slope, where the speed integral diverges exponentially.  The family
    constructors already guarantee p > 0 and w <= 0.
    """
    reasons = []
    prem, q = params.premium, params.q
    if q == 0.0 and prem.kind == "linear" and prem.epsilon > 0:
        raise ModelValidationError(
            "q = 0 with a linear premium of positive slope: the discounted "
            "premium integral diverges (speed condition cannot hold)")

    # (a) speed condition: integral of e^{-qt} p(r_t^x) dt <= A x + B
    speed_pass = True
    A = B = math.nan
    if prem.kind == "linear" and q > 0 and prem.epsilon >= q:
        speed_pass = False
        reasons.append(f"speed condition fails analytically: premium slope "
                       f"{prem.epsilon} >= discount rate {q}")
    elif q == 0.0:
        speed_pass = False
        reasons.append("speed condition fails: q = 0 makes the discounted premium "
                       "integral diverge for any positive premium")
    elif prem.kind == "linear":
        A, B = prem.epsilon / (q - prem.epsilon), prem.c / (q - prem.epsilon)
    else:  # bounded: constant and rational premiums peak at x = 0
        sup_p = float(np.max(prem.ps)) if prem.kind == "tabulated" else prem.p(0.0)
        A, B = 0.0, sup_p / q

    # (b) eventual positive drift: p(x) > lam * E[C] beyond drift_x0
    rate_out = params.lam * params.claim.mean()
    drift_x0 = _drift_x0(prem, rate_out)
    drift_pass = drift_x0 < math.inf
    if not drift_pass:
        reasons.append(f"no eventual positive drift: p(x) <= lam*E[C] = {rate_out:.6g} "
                       f"for arbitrarily large x")

    # (c) penalty integrability
    penalty_pass = math.isfinite(penalty_envelope(params))
    if not penalty_pass:
        reasons.append("penalty integrability constant is not finite")

    return ValidationReport(speed_pass, (A, B), drift_pass, drift_x0,
                            penalty_pass, tuple(reasons))


# ---------------------------------------------------------------------------
# JSON configuration


# The JSON layout of each family: its constructor class; kind -> JSON keys,
# in the order of the arguments of that kind's constructor; and the JSON
# keys whose attribute has another name.
_SCHEMA = {
    "premium": (PremiumModel, {"constant": ("c",), "linear": ("c", "epsilon"),
                               "rational": ("c",), "tabulated": ("x", "p")},
                {"x": "xs", "p": "ps"}),
    "claim": (ClaimModel, {"exponential": ("mu",), "tabulated": ("x0", "dx", "density")},
              {"density": "f_vals"}),
    "penalty": (PenaltyModel, {"zero": (), "constant": ("k",), "linear": ("k", "beta"),
                               "tabulated": ("x", "w")},
                {"x": "xs", "w": "ws"}),
}


def _fields(doc, keys, where: str) -> list:
    """The values of `keys` in the JSON object `doc`; any other key, or a
    missing one, is a ConfigError that names it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")
    return [doc[key] for key in keys]


def _family_from_dict(section: str, doc):
    cls, kinds, _ = _SCHEMA[section]
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"'{section}' must be a JSON object whose 'kind' is one of "
                          f"{sorted(kinds)}, got kind {kind!r}")
    keys = ("kind", *kinds[kind])
    return getattr(cls, kind)(*_fields(doc, keys, f"{kind} {section}")[1:])


def params_from_dict(doc: dict) -> ModelParams:
    """Build a ModelParams from the JSON configuration schema `_SCHEMA`.

    {"premium": {"kind": ...}, "claim": {"kind": ...}, "penalty": {"kind": ...},
     "lambda": ..., "q": ...} with unknown and missing keys rejected at every
    level, and every value checked by the family constructors.
    """
    *sections, lam, q = _fields(doc, (*_SCHEMA, "lambda", "q"), "configuration")
    return ModelParams(*map(_family_from_dict, _SCHEMA, sections), lam=lam, q=q)


def params_from_json(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_dict(doc)


def params_to_dict(params: ModelParams) -> dict:
    """The JSON configuration of `params` (inverse of `params_from_dict`)."""
    doc = {}
    for section, (_, kinds, attrs) in _SCHEMA.items():
        model = getattr(params, section)
        doc[section] = {"kind": model.kind}
        for key in kinds[model.kind]:
            value = getattr(model, attrs.get(key, key))
            doc[section][key] = value.tolist() if isinstance(value, np.ndarray) else value
    return {**doc, "lambda": params.lam, "q": params.q}
