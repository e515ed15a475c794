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
when `hjb.exact_verdict` certifies the barrier optimal on the whole
half-line, which no finite scan of h does.  A column it does not certify,
or whose short solve fails, is solved again on the default domain and
reported exactly as `locate_barrier` reports it.  An explicit `x_max`
(`--xmax`) solves every column on that domain alone, as before.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .barrier import barrier_solution_at, find_barrier
from .errors import DomainTooShortError, NumericsError
from .hjb import exact_verdict
from .model import ClaimModel, ModelParams, PenaltyModel, PremiumModel
from .scale import solve_scale

DEFAULT_DX = 0.005
MIN_X_MAX = 30.0  # the floor of `default_x_max`, and a sweep column's first domain
_MAX_DOMAIN_RETRIES = 3


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
    """a* located from [0, MIN_X_MAX] when the exact verdict above it says
    the barrier is optimal, else None: also when the verdict has no answer
    or the short solve fails, which the default domain then repeats or
    resolves."""
    try:
        sol = locate_barrier(params, dx=dx, x_max=MIN_X_MAX)[1]
    except (NumericsError, ValueError):
        return None
    verdict = exact_verdict(params, sol.a_star, sol.v_at_barrier)
    return sol.a_star if verdict is not None and verdict.optimal else None


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
