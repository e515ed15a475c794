"""Slow reference implementations, kept as test oracles only.

- `volterra_march`: the O(n^2) node-by-node forward march of the scale
  functions.  The library never calls it: the tests check `scale`'s O(n)
  exponential march and its blocked march for every other claim density
  against it.
- `generic_path`: the scalar per-path Monte-Carlo event loop, written
  over plain floats, and `closed_form_path`, the same loop on the
  closed-form premium, exponential-claim and penalty formulas, each with
  the engine's Russian roulette on uniforms passed in; the lockstep
  engine in `simulate` is checked against them path by path.
- `omega_quadrature`: the penalty rate by quadrature, the oracle of the
  exact `model.omega_eval`.
- `golden_max`: golden-section maximization of a scalar function, the
  oracle of `barrier.find_barrier`'s array refinement of a*.
- `closed_form_W_constant`, `closed_form_G_ruin_constant` and
  `closed_form_W_linear` (Kummer's M and U by mpmath, imported when
  called): the closed-form oracles of `scale.solve_scale`.
- `barrier_boundary_identity`: the stationarity identity at the barrier,
  an independent check of v_a.
`dividend_opt` loads this module on first use of these four names; the
pipeline never imports it.
"""

from __future__ import annotations

import math

import numpy as np

from .barrier import barrier_solution_at
from .errors import NumericsError
from .model import omega_eval

_RESCALE_AT = 1e150  # `volterra_march` divides its stored values by the first one past this


def volterra_march(p_vals, f_vals, lam, q, dx, u0, source_vals=None):
    """March p(x) u' = (lam+q) u - lam*(conv(u, f) + source) from u(0)=u0.

    Implicit-trapezoid stepping (second order); the convolution term uses
    trapezoidal quadrature over already-computed nodes, and the returned
    derivative sequence comes from the relation itself.  Running rescaling
    keeps the stored values inside float range; the true solution is
    stored * exp(log_scale).

    Returns (values, derivatives, log_scale).
    """
    p = np.ascontiguousarray(p_vals, dtype=float)
    f = np.ascontiguousarray(f_vals, dtype=float)
    n = p.size
    u = np.zeros(n)
    d = np.zeros(n)
    has_src = source_vals is not None
    src = np.ascontiguousarray(source_vals, dtype=float) if has_src else None

    u[0] = u0
    d[0] = ((lam + q) * u0 - lam * (src[0] if has_src else 0.0)) / p[0]
    fr = f[::-1].copy()
    A = lam + q - 0.5 * lam * dx * f[0]
    log_scale = 0.0
    src_scale = 1.0

    for i in range(n - 1):
        S = 0.5 * u[0] * f[i + 1]
        if i >= 1:
            S += float(np.dot(u[1:i + 1], fr[n - 1 - i:n - 1]))
        S *= dx
        extra = -lam * (S + (src[i + 1] * src_scale if has_src else 0.0))
        pi1 = p[i + 1]
        denom = 1.0 - 0.5 * dx * A / pi1
        u[i + 1] = (u[i] + 0.5 * dx * (d[i] + extra / pi1)) / denom
        d[i + 1] = (A * u[i + 1] + extra) / pi1
        au = abs(u[i + 1])
        if au > _RESCALE_AT:
            u[:i + 2] /= au
            d[:i + 2] /= au
            log_scale += math.log(au)
            src_scale /= au
    return u, d, log_scale


# ---------------------------------------------------------------------------
# scalar Monte-Carlo path engine
#
# modes: 0 value under a barrier, 1 Gerber-Shiu (no dividends),
#        2 two-sided exit towards an upper level.
# premium kinds: 0 constant(c), 1 linear(c, eps), 2 rational(c).
# penalty kinds: 0 zero, 1 constant(k), 2 linear(k, beta).
#
# Statuses: 0 done, 1 ran out of uniforms (caller redraws a longer block).


def _offset(c, eps):
    """c / eps; inf where eps is 0 or c / eps overflows (a constant premium)."""
    return c / eps if eps else math.inf


def _hit(pkind, c, eps, x, level):
    if pkind == 1 and math.isfinite(k := _offset(c, eps)):
        return math.log1p((level - x) / (x + k)) / eps
    if pkind in (0, 1):
        return (level - x) / c
    return (level - x) / c - (math.log(c * (1.0 + level) + 1.0)
                              - math.log(c * (1.0 + x) + 1.0)) / (c * c)


def _flow(pkind, c, eps, x, t):
    if pkind == 1 and math.isfinite(k := _offset(c, eps)):
        return x + (x + k) * math.expm1(eps * t)
    if pkind in (0, 1):
        return x + c * t
    if t == 0.0:
        return x
    b = x + (c + 1.0 / (1.0 + x)) * t
    for _ in range(60):
        err = (b - x) / c - (math.log(c * (1.0 + b) + 1.0)
                             - math.log(c * (1.0 + x) + 1.0)) / (c * c) - t
        # b / c: the time error of rounding b - x to the float spacing near b
        tol = 1e-14 * (1.0 + t + b / c)
        b -= err * (c + 1.0 / (1.0 + b))
        if b < x:
            b = x
        if abs(err) < tol:
            return b
    raise NumericsError(f"rational flow inversion failed at x={x}, t={t}")


def closed_form_path(u, mode, pkind, c, eps, mu, lam, q, x0, a, horizon,
                     wkind, wk, wbeta, roulette=None):
    """`generic_path` for a closed-form premium, exponential claims and a
    zero, constant or linear penalty, given by their kind codes.

    Returns (value, ruined, deficit, used, status).
    """
    pa = c if pkind == 0 else (c + eps * a if pkind == 1 else c + 1.0 / (1.0 + a))
    return generic_path(u, mode, lambda x, level: _hit(pkind, c, eps, x, level),
                        lambda x, t: _flow(pkind, c, eps, x, t),
                        lambda v: -math.log1p(-v) / mu,
                        lambda y: (0.0, -wk, -wk + wbeta * y)[wkind],
                        pa, lam, q, x0, a, horizon, roulette)


def generic_path(u, mode, hit_fn, flow_fn, claim_ppf, w_fn, p_at_barrier,
                 lam, q, x0, a, horizon, roulette=None):
    """One path on the pre-drawn uniforms `u`, for any model given as
    callables: the hit time and the flow of the premium, the claim quantile
    function and the penalty.

    `roulette[k]` is the roulette uniform of iteration k, read at the even
    iterations that start past h0 = ln(10)/q: the path is kept with
    probability weight / e^{q (t - h0)} and then carries the weight
    e^{q (t - h0)} on every later reward; a path where that factor
    overflows is dropped.  With `roulette` None the path runs to the
    horizon or ruin.

    Returns (value, ruined, deficit, used, status); `ruined` is the path's
    weight when it is ruined, else 0.
    """
    nu = u.shape[0]
    h0 = math.log(10.0) / q if q > 0 else math.inf
    weight = 1.0
    val = 0.0
    t = 0.0
    lvl = x0
    if mode == 0 and lvl > a:
        val += lvl - a
        lvl = a
    i = 0
    while True:
        k = i // 2  # the iteration
        if roulette is not None and k % 2 == 0 and t > h0:
            if k >= roulette.shape[0]:
                return 0.0, 0, 0.0, i, 1
            try:
                grown = math.exp(q * (t - h0))
            except OverflowError:  # the engine's inf, which it always drops
                return val, 0, 0.0, i, 0
            if roulette[k] * grown >= weight:
                return val, 0, 0.0, i, 0
            weight = grown
        if i >= nu:
            return 0.0, 0, 0.0, i, 1
        tau = -math.log1p(-u[i]) / lam
        i += 1
        t_claim = t + tau
        cut = t_claim if t_claim < horizon else horizon
        if mode == 0:
            s = 0.0 if lvl >= a else hit_fn(lvl, a)
            if t + s < cut:
                val += weight * (p_at_barrier * (math.exp(-q * (t + s))
                                                 - math.exp(-q * cut)) / q)
        elif mode == 2:
            s = hit_fn(lvl, a)
            if t + s <= cut:
                return weight * math.exp(-q * (t + s)), 0, 0.0, i, 0
        if t_claim >= horizon:
            return val, 0, 0.0, i, 0
        if i >= nu:
            return 0.0, 0, 0.0, i, 1
        claim = float(claim_ppf(u[i]))
        i += 1
        if mode == 0 and t + s <= t_claim:
            pre = a
        else:
            pre = flow_fn(lvl, tau)
        new = pre - claim
        if new < 0.0:
            if mode == 2:
                return 0.0, weight, new, i, 0
            val += weight * (math.exp(-q * t_claim) * float(w_fn(new)))
            return val, weight, new, i, 0
        lvl = new
        t = t_claim


# ---------------------------------------------------------------------------
# penalty rate by quadrature (test oracle for `model.omega_eval`)


def omega_quadrature(params, x: float) -> float:
    """omega(x) = int_{z > x} w(x - z) f(z) dz at one x >= 0, by quadrature.

    For a tabulated density, Simpson's rule on every piece of [x, hi]
    between the knots of the density and of a tabulated penalty: on each
    piece the integrand is a product of two linear functions, which
    Simpson integrates exactly.  For exponential claims, adaptive `quad`
    (abs tol 1e-10) over [x, x + 60/mu].  Clamped at 0 like the exact
    evaluation.
    """
    from scipy.integrate import quad

    pen, claim = params.penalty, params.claim
    if pen.is_zero:
        return 0.0
    hi = claim.support_end
    if math.isinf(hi):
        hi = x + 60.0 / claim.mu
    if hi <= x:
        return 0.0
    if claim.kind == "tabulated":
        knots = claim._nodes if pen.kind != "tabulated" \
            else np.concatenate((claim._nodes, x - pen.xs))
        edges = np.unique(np.concatenate(([x, hi], knots[(knots > x) & (knots < hi)])))
        mid = 0.5 * (edges[:-1] + edges[1:])
        ge, gm = (np.asarray(pen.w(x - z)) * np.asarray(claim.density(z))
                  for z in (edges, mid))
        pieces = np.diff(edges) / 6.0 * (ge[:-1] + 4.0 * gm + ge[1:])
        return min(float(np.sum(pieces)), 0.0)
    tol = 1e-10
    val, err = quad(lambda z: pen.w(x - z) * claim.density(z), x, hi,
                    epsabs=tol, limit=200)
    if err > 100 * tol + 1e-8 * abs(val):
        raise NumericsError(f"omega({x}) quadrature error estimate {err:.2e} "
                            f"exceeds tolerance")
    return min(val, 0.0)


# ---------------------------------------------------------------------------
# golden-section maximization (test oracle for the refinement of a*)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, width: float):
    """Golden-section maximizer of the scalar fn on [lo, hi]; returns
    (argmax, final bracket width)."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > width:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    best = x1 if f1 >= f2 else x2
    return best, hi - lo


# ---------------------------------------------------------------------------
# closed forms (test oracles for the scale functions)


def closed_form_W_constant(params, x):
    """Two-exponential scale function: constant premium, exponential claims."""
    if params.premium.kind != "constant" or params.claim.kind != "exponential":
        raise ValueError("closed form needs a constant premium and exponential claims")
    c, mu, lam, q = params.premium.c, params.claim.mu, params.lam, params.q
    b = c * mu - lam - q
    disc = math.sqrt(b * b + 4.0 * c * q * mu)
    th_p = (-b + disc) / (2.0 * c)
    th_m = (-b - disc) / (2.0 * c)
    x = np.asarray(x, dtype=float)
    out = ((th_p + mu) * np.exp(th_p * x) - (th_m + mu) * np.exp(th_m * x)) / (th_p - th_m)
    return out if out.ndim else float(out)


def closed_form_G_ruin_constant(params, x):
    """Classical ruin probability as G: q = 0, w = -1, constant premium."""
    if params.premium.kind != "constant" or params.claim.kind != "exponential":
        raise ValueError("closed form needs a constant premium and exponential claims")
    if params.q != 0.0:
        raise ValueError("ruin-probability closed form requires q = 0")
    c, mu, lam = params.premium.c, params.claim.mu, params.lam
    if mu - lam / c <= 0:
        raise ValueError("needs positive safety loading (mu > lambda/c)")
    x = np.asarray(x, dtype=float)
    out = -(lam / (c * mu)) * np.exp(-(mu - lam / c) * x)
    return out if out.ndim else float(out)


def closed_form_W_linear(params, x):
    """Kummer-function form of W_q for linear premiums p(x) = c + eps x and
    exponential claims; needs mpmath (the `test` extra).

    W = P (C1 M(a, b, z) / M(a, b, z0) + C2 U(a, b, z) / U(a, b, z0)) with
    a = q/eps + 1, b = k + 1, k = (lam+q)/eps, z = mu x + z0, z0 = mu c/eps
    and P(x) = (1 + eps x/c)^k e^{-mu x}, so both solutions are 1 at x = 0.
    W(0) = 1 gives C2 = 1 - C1.  P'(0) = (lam+q)/c - mu, so the slope
    condition W'(0) = (lam+q)/c reads C1 dM + C2 dU = 1, with dM and dU the
    logarithmic z-derivatives of M and U at z0 (M' = (a/b) M(a+1, b+1),
    U' = -a U(a+1, b+1)).  Evaluated at 30 digits in mpmath, whose exponent
    range is unbounded, so a large k or z0 does not overflow.
    """
    prem, claim = params.premium, params.claim
    if prem.kind != "linear" or prem.epsilon <= 0 or claim.kind != "exponential":
        raise ValueError("closed form needs a linear premium (eps > 0) and "
                         "exponential claims")
    if params.q <= 0:
        raise ValueError("closed form needs q > 0 (speed condition)")
    import mpmath

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    with mpmath.workdps(30):
        lam, q, c, eps, mu = map(mpmath.mpf, (params.lam, params.q, prem.c,
                                              prem.epsilon, claim.mu))
        k = (lam + q) / eps
        a, b, z0 = q / eps + 1, k + 1, mu * c / eps
        M0, U0 = mpmath.hyp1f1(a, b, z0), mpmath.hyperu(a, b, z0)
        dM = a / b * mpmath.hyp1f1(a + 1, b + 1, z0) / M0
        dU = -a * mpmath.hyperu(a + 1, b + 1, z0) / U0
        C1 = (1 - dU) / (dM - dU)
        out = np.array([float((1 + eps * xi / c) ** k * mpmath.exp(-mu * xi)
                              * (C1 * mpmath.hyp1f1(a, b, z0 + mu * xi) / M0
                                 + (1 - C1) * mpmath.hyperu(a, b, z0 + mu * xi) / U0))
                        for xi in map(mpmath.mpf, xs)])
    return out if np.asarray(x).ndim else float(out[0])


# ---------------------------------------------------------------------------
# stationarity identity at the barrier (consistency check of v_a)


def barrier_boundary_identity(scale, a: float,
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
    sol = barrier_solution_at(scale, a)
    va = sol.v_at_barrier if v_at_barrier is None else v_at_barrier
    lam, q = params.lam, params.q
    # int_0^a v(u) f(a-u) du: trapezoid over grid nodes plus the partial cell
    integral = _trapezoid_convolution_at(sol.v, params.claim.density, a)
    return -(lam + q) * va + lam * integral + lam * omega_eval(params, a) \
        + float(params.premium.p(a))


def _trapezoid_convolution_at(m, density, y: float) -> float:
    """int_{x0}^{y} m(s) f(y - s) ds at one point y of m's grid range.

    The trapezoid over the grid nodes up to y, plus one trapezoid on the
    partial cell [x_J, y], with m(y) the linear interpolant.
    """
    dx = m.dx
    xs = m.x
    J = min(int(math.floor((y - m.x0) / dx + 1e-12)), m.n - 1)
    conv = 0.0
    if J >= 1:
        fv = np.asarray(density(y - xs[:J + 1]), dtype=float)
        vv = m.values[:J + 1]
        conv += dx * (float(np.dot(vv, fv)) - 0.5 * vv[0] * fv[0] - 0.5 * vv[J] * fv[J])
    rem = y - float(xs[J])
    if rem > 1e-14:
        conv += 0.5 * rem * (m.values[J] * float(density(rem))
                             + float(m(y)) * float(density(0.0)))
    return conv
