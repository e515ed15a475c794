"""Built-in reference sweeps for the optimal barrier.

Six parameter sweeps with published reference barrier values, used for
regression runs via `dividend-opt tables`.  Sweeps 1-3 use the linear
premium c + eps*x, sweeps 4-6 the bounded premium c + 1/(1+x).

Known discrepancy, documented rather than hidden: the reference values of
sweeps 4-6 trace back to a legacy computation that applied the boundary
slope (lam+q)/c at zero — correct for the linear premium where p(0) = c,
wrong for the bounded premium where p(0) = c + 1 — and sweep 4 moreover
used mu = 0.2 while being labelled mu = 0.3.  This solver computes the
barrier from the scale function that actually satisfies the defining
integro-differential relation, so its sweep-4-6 barriers differ from the
reference column by design; the CSV keeps both values side by side.

With no `x_max`, `run_sweep` solves each column on [0, 30], the floor of
`default_x_max` (grown as `locate_barrier` grows it), and keeps that a*
when W' is certified nondecreasing past the last node (`_edge_certificate`:
exponential claims, the zero penalty and a linear, constant or rational
premium).  h = 1/W' then falls past that node, so no longer domain holds a
larger maximum of h, which no finite scan of h shows.  A column outside
that test, or whose certificate or short solve fails, is solved again on
the default domain and reported exactly as `locate_barrier` reports it.
An explicit `x_max` (`--xmax`) solves every column on that domain alone,
as before.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .barrier import barrier_solution_at, find_barrier
from .errors import DomainTooShortError, NumericsError
from .model import ClaimModel, ModelParams, PenaltyModel, PremiumModel
from .scale import ScaleSolution, solve_scale

DEFAULT_DX = 0.005
MIN_X_MAX = 30.0  # the floor of `default_x_max`, and a sweep column's first domain
_MAX_DOMAIN_RETRIES = 3
# The certificate's relative margin is _EDGE_MARGIN_PER_DX2 dx^2, 1e-3 at the
# default dx: 90 times the largest relative error of W and W' at x = 30 over
# the 29 bundled columns, 0.45 dx^2 (sweep 2 at mu = 1.1, for dx from 0.0025
# to 0.05, against dx = 0.000625)
_EDGE_MARGIN_PER_DX2 = 40.0


@dataclass(frozen=True)
class SweepSpec:
    """One table: a varied parameter against fixed companions."""

    number: int
    premium_kind: str  # "linear" or "rational"
    varied: str  # "q", "mu", or "lambda"
    values: tuple
    reference: tuple
    fixed: dict  # remaining parameters among c, eps, mu, lam, q

    def model_for(self, value: float) -> ModelParams:
        p = dict(self.fixed)
        p[self.varied] = value
        if self.premium_kind == "linear":
            premium = PremiumModel.linear(p["c"], p["eps"])
        else:
            premium = PremiumModel.rational(p["c"])
        return ModelParams(premium, ClaimModel.exponential(p["mu"]),
                           PenaltyModel.zero(), lam=p["lambda"], q=p["q"])


SWEEPS = {
    1: SweepSpec(1, "linear", "q",
                 (0.025, 0.03, 0.04, 0.05, 0.06),
                 (17.82, 13.42, 8.42, 5.33, 3.18),
                 {"mu": 0.3, "eps": 0.02, "lambda": 0.1, "c": 1.0}),
    2: SweepSpec(2, "linear", "mu",
                 (0.25, 0.3, 0.4, 0.5, 0.6, 1.1),
                 (3.97, 5.33, 5.92, 5.7, 5.3, 3.72),
                 {"q": 0.05, "eps": 0.02, "lambda": 0.1, "c": 1.0}),
    3: SweepSpec(3, "linear", "lambda",
                 (0.05, 0.12, 0.15, 0.17, 0.2),
                 (4.84, 5.03, 4.08, 3.1, 1.07),
                 {"mu": 0.3, "q": 0.05, "eps": 0.02, "c": 1.0}),
    4: SweepSpec(4, "rational", "q",
                 (0.005, 0.01, 0.015, 0.02),
                 (37.03, 23.98, 17.16, 12.77),
                 {"mu": 0.3, "lambda": 0.1, "c": 1.0}),
    5: SweepSpec(5, "rational", "mu",
                 (0.15, 0.2, 0.25, 0.3),
                 (0.0, 23.98, 22.39, 20.05),
                 {"q": 0.01, "lambda": 0.1, "c": 1.0}),
    6: SweepSpec(6, "rational", "lambda",
                 (0.05, 0.12, 0.15, 0.2, 0.25),
                 (17.73, 20.55, 20.8, 19.16, 13.29),
                 {"q": 0.01, "mu": 0.3, "c": 1.0}),
}


def default_x_max(params: ModelParams) -> float:
    return max(MIN_X_MAX, 50.0 * params.claim.mean())


def locate_barrier(params: ModelParams, dx: float = DEFAULT_DX,
                   x_max: float | None = None, barrier: float | None = None):
    """Solve the scale functions and locate a*, or take the given `barrier`,
    growing the domain when G has not decayed by the truncation edge or the
    h-maximum lands on it.  The default domain reaches 10 mean claims past
    a given barrier."""
    if x_max is None:
        x_max = default_x_max(params)
        if barrier is not None:
            x_max = max(x_max, barrier + 10.0 * params.claim.mean())
    last = None
    for _ in range(_MAX_DOMAIN_RETRIES):
        try:
            scale = solve_scale(params, dx, x_max)
            return scale, (find_barrier(scale) if barrier is None
                           else barrier_solution_at(scale, barrier))
        except DomainTooShortError as exc:
            last = exc
            x_max = exc.suggested_x_max or 2.0 * x_max
    raise last


def run_sweep(which: int, dx: float = DEFAULT_DX, x_max: float | None = None):
    """Rows (param_value, a_star, a_star_ref, abs_diff, note) for one sweep.

    With no `x_max`, a column's a* comes from the certified short domain
    when it can (`_certified_a_star`), else from the default domain.  A
    numerical failure in one column aborts that column only (NaN + note).
    """
    spec = SWEEPS[which]
    rows = []
    for value, ref in zip(spec.values, spec.reference):
        params = spec.model_for(value)
        try:
            a = _certified_a_star(params, dx) if x_max is None else None
            if a is None:
                a = locate_barrier(params, dx=dx, x_max=x_max)[1].a_star
            rows.append((value, a, ref, abs(a - ref), ""))
        except NumericsError as exc:
            rows.append((value, math.nan, ref, math.nan, str(exc)))
    return rows


def _certified_a_star(params: ModelParams, dx: float) -> float | None:
    """a* located from [0, MIN_X_MAX] when `_edge_certificate` shows that no
    longer domain holds a larger h, else None: also for a model outside the
    certificate, which is not solved short, and when the short solve fails;
    the default domain then repeats or resolves it."""
    if (params.claim.kind != "exponential" or not params.penalty.is_zero
            or params.premium.kind not in ("constant", "linear", "rational")):
        return None
    try:
        scale, sol = locate_barrier(params, dx=dx, x_max=MIN_X_MAX)
    except (NumericsError, ValueError):
        return None
    return sol.a_star if _edge_certificate(scale, sol.alpha) else None


def _edge_certificate(scale: ScaleSolution, h_max: float) -> bool:
    """Whether W' is nondecreasing on [x1, inf), x1 the last node, and
    h = 1/W' at x1 is below `h_max`, the located maximum of h on [0, x1].

    For exponential(mu) claims and the zero penalty, differentiating the
    defining relation (the convolution's derivative is mu W less mu times
    the convolution) gives

        p W'' = (lam + q - p' - mu p) W' + mu q W,

    and differentiating again, at any critical point of W' (W'' = 0),

        p W''' = kappa W',   kappa = mu q - p'' - mu p'.

    Suppose W'(x1) > 0, W''(x1) > 0 and kappa > 0 on [x1, inf)
    (`_kappa_positive`).  Where W'' first fell to 0 past x1, W' would have
    risen and still be positive, so W''' = kappa W' / p > 0 there, while
    W'' was falling to 0: a contradiction.  So W' rises on [x1, inf), and
    h = 1/W' (G = 0) falls there.  W''(x1) comes from the relation with the
    march's W(x1) and W'(x1).  It must clear the relative margin
    _EDGE_MARGIN_PER_DX2 dx^2, above the march's own O(dx^2) error,
    against the sum of the magnitudes of its two terms, and h_max - h(x1)
    must clear the same margin against h_max.
    """
    params, W = scale.params, scale.W
    x1, w, wp = W.x_end, float(W.values[-1]), float(W.derivative_values[-1])
    mu, lam, q, premium = params.claim.mu, params.lam, params.q, params.premium
    if not (wp > 0.0 and _kappa_positive(premium, mu, q, x1)):
        return False
    margin = _EDGE_MARGIN_PER_DX2 * scale.dx ** 2
    slope_term = (lam + q - premium.p_prime(x1) - mu * premium.p(x1)) * wp
    level_term = mu * q * w
    return (slope_term + level_term > margin * (abs(slope_term) + abs(level_term))
            and h_max - 1.0 / wp > margin * h_max)


def _kappa_positive(premium: PremiumModel, mu: float, q: float, x1: float) -> bool:
    """Whether kappa = mu q - p'' - mu p' > 0 on all of [x1, inf).  For the
    linear law (constant included) kappa = mu (q - eps).  For the rational
    law p = c + 1/(1+x), (1+x)^3 kappa = mu q (1+x)^3 + mu (1+x) - 2, which
    increases in x, so its sign at x1 holds beyond.  False for a tabulated
    premium, whose p'' is not a function."""
    if premium.kind == "rational":
        u = 1.0 + x1
        return mu * q * u ** 3 + mu * u - 2.0 > 0.0
    return premium.kind != "tabulated" and premium.epsilon < q


def sweep_csv(rows) -> str:
    """The sweep as CSV text, one row per swept value; a note that holds a
    comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("param", "a_star", "a_star_ref", "abs_diff", "note"))
    for value, a, ref, diff, note in rows:
        writer.writerow((f"{value:.17g}", f"{a:.17g}", f"{ref:.17g}", f"{diff:.17g}",
                         note))
    return out.getvalue()
