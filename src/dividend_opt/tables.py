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

The default domain of `locate_barrier` (no `x_max`) ends where two a
posteriori tests and a reach pass, at the end x_k >= MIN_X_MAX of one of
the chunks in which the march runs (`scale._march_chunks`), and no later
than `default_x_max`, max(30, 50 mean claims), the cap.  After a failed
test the march goes on to the first end at which the tests could pass
as far as that end shows (`_DomainTests.want`):

- the G test: G = G_p - r W with r = G_p(x_k) / W(x_k), so moving the end
  further changes G on [0, a*] by |r_inf - r_k| W(a*).  The differences
  of r over the last two spans of `_SUPER` nodes estimate the rest of r's
  geometric tail, which must stay below 1e-12 of max |G| on [0, a*]
  (`_G_CHANGE`); G = 0 without a penalty;
- the reach: x_k >= a* + 10 mean claims, or a* + max(support end, 10 mean
  claims) for a tabulated claim, with a given barrier standing in for a*;
- the h test: for exponential claims `_h_falls_past`, a proof that no x
  past x_k has a larger h, which reports the domain certified; for other
  claims, h nonincreasing node by node over the last `_SUPER` nodes,
  which proves nothing past x_k and reports it uncertified.

A model that has not passed by the cap gets the solve of the cap's
domain exactly, with its decay check and retries: its march is the one
the chunks ran.  The domain and how its end was chosen are
`ScaleSolution.domain`.

With no `x_max`, `run_sweep` solves each column on [0, 30], the floor of
`default_x_max` (grown as `locate_barrier` grows it), and keeps that a*
when `_edge_certificate` holds at the last node for the zero penalty and
a linear, constant or rational premium.  A column outside that test, or
whose certificate or short solve fails, is solved again with
`locate_barrier` and reported exactly as it reports it.  An explicit
`x_max` (`--xmax`) solves every column on that domain alone, as before.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from .barrier import barrier_solution_at, find_barrier
from .errors import DomainTooShortError, NumericsError
from .model import ClaimModel, ModelParams, PenaltyModel, PremiumModel, omega_eval
from .scale import (_MAX_SAFE_LOG, _SUPER, ScaleSolution, _grid_arrays, _kappa_positive,
                    _march_chunks, _second_derivative, _solution, _truncated, solve_scale)

DEFAULT_DX = 0.005
MIN_X_MAX = 30.0  # the floor of `default_x_max`, and a sweep column's first domain
_MAX_DOMAIN_RETRIES = 3
# The certificate's relative margin is _EDGE_MARGIN_PER_DX2 dx^2, 1e-3 at the
# default dx: 90 times the largest relative error of W and W' at x = 30 over
# the 29 bundled columns, 0.45 dx^2 (sweep 2 at mu = 1.1, for dx from 0.0025
# to 0.05, against dx = 0.000625)
_EDGE_MARGIN_PER_DX2 = 40.0
# the G test: the largest change of G on [0, a*] that a longer domain may
# still make, relative to max |G| on [0, a*]
_G_CHANGE = 1e-12


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
    h-maximum lands on it.

    With no `x_max`, the domain ends at the first chunk end where the tests
    of the module docstring pass, and otherwise at the cap, `default_x_max`
    or 10 mean claims past a given barrier if that is further.
    """
    reason, march = "xmax", None
    if x_max is None:
        x_max = default_x_max(params)
        if barrier is not None:
            x_max = max(x_max, barrier + 10.0 * params.claim.mean())
        found, march = _short_domain(params, dx, x_max, barrier)
        if found is not None:
            return found
        reason = "cap"
    last = None
    for _ in range(_MAX_DOMAIN_RETRIES):
        try:
            done, march = march, None  # the march to the cap serves the first solve only
            scale = solve_scale(params, dx, x_max) if done is None else _solution(
                params, x_max, *done)
            if scale.domain_reason != reason:
                scale = dataclasses.replace(scale, domain_reason=reason)
            return scale, (find_barrier(scale) if barrier is None
                           else barrier_solution_at(scale, barrier))
        except DomainTooShortError as exc:
            last = exc
            x_max = exc.suggested_x_max or 2.0 * x_max
    raise last


def _short_domain(params: ModelParams, dx: float, x_max: float, barrier: float | None):
    """March [0, x_max] in chunks and stop at the first chunk end where the
    tests pass: ((scale, solution), None) there, else (None, (x, u, d,
    omega)), the march of `solve_scale(params, dx, x_max)` run to its
    end."""
    x, p_vals = _grid_arrays(params, dx, x_max)
    omega = None if params.penalty.is_zero else omega_eval(params, x)
    tests = _DomainTests(params, dx, x.size, barrier)
    chunks = _march_chunks(params, p_vals, dx, omega, tests.want)
    k, u, d = next(chunks)
    while k < x.size:
        if tests.passed(k, u, d):
            chunks.close()  # the kernel's working arrays go before the solution is built
            scale = _truncated(params, dx, u, d, omega, k, params.claim.kind == "exponential")
            return (scale, find_barrier(scale) if barrier is None
                    else barrier_solution_at(scale, barrier)), None
        k, u, d = chunks.send(tests.want)
    return None, (x, u, d, omega)


class _DomainTests:
    """The reach, the G test and the h test of the module docstring at the
    chunk ends of one march, the cheapest first.  After each end they ask
    the march for the next one at `want`, the first node count at which
    the tests could pass as far as this end shows, and they keep h - r =
    (1 - G_p') / W' at each node read, which no later end changes.  A
    chunk that leaves float range or has W' <= 0 ends the testing, and so
    does 1 - G' <= 0 on a tested domain: the march runs on to the cap,
    whose solve reports those as it always has."""

    def __init__(self, params: ModelParams, dx: float, n: int, barrier: float | None):
        claim = params.claim
        self.params, self.dx, self.barrier = params, dx, barrier
        self.reach = 10.0 * claim.mean() if claim.kind == "exponential" else max(
            claim.support_end, 10.0 * claim.mean())
        self.want = self._node_count(max(MIN_X_MAX, (barrier or 0.0) + self.reach))
        self.hb, self.read = np.empty(n), 0  # h - r, read up to node `self.read`

    def _node_count(self, x: float) -> int:
        """The node count k whose last node dx (k - 1) reaches x."""
        return math.ceil(x / self.dx) + 1

    def passed(self, k: int, u: np.ndarray, d: np.ndarray) -> bool:
        """Whether the domain of the march's first k nodes, of the values u
        and derivatives d, passes; called at each chunk end in turn."""
        penalised, dx, barrier, i = u.shape[1] == 2, self.dx, self.barrier, k - 1
        self.want = k + _SUPER  # unless a test shows a later end
        if not self._read(k, u, d):
            self.want = self.hb.size  # no later end passes: the march runs to the cap
            return False
        r, tail = 0.0, 0.0
        if penalised:  # r = G_p / W at the end and one and two super-blocks before it
            if i < 2 * _SUPER:
                return False
            r, before, earlier = (u[j, 1] / u[j, 0] for j in (i, i - _SUPER, i - 2 * _SUPER))
            step, prior = abs(r - before), abs(before - earlier)
            rho = step / prior if prior else math.inf
            tail = 0.0 if step == 0.0 else step * rho / (1.0 - rho) if rho < 1.0 else math.inf
            if tail == math.inf:
                return False
        hb = self.hb[:k]
        if hb.min() + r <= 0.0:  # 1 - G' <= 0: the cap's solve warns of it
            self.want = self.hb.size
            return False
        if barrier is None:  # the largest node of h's maximum, as `find_barrier` ties it
            top = float(hb.max())
            h_max = top + r
            j = int(np.flatnonzero(hb >= top - 1e-9 * abs(h_max))[-1])
            a_hi = dx * (j + 1)  # a* lies in its bracket
            if j == i or dx * i < a_hi + self.reach:
                self.want = max(k + 1, self._node_count(a_hi + self.reach))
                return False
        else:
            a_hi, j = barrier, min(int(barrier / dx), i - 1)
            t = barrier / dx - j
            h_max = float((1.0 - t) * hb[j] + t * hb[j + 1]) + r
        if penalised:  # W rises: W(a_hi) is its largest on [0, a*]
            top_node = min(math.ceil(a_hi / dx), i)
            g = u[:top_node + 1, 1] - r * u[:top_node + 1, 0]
            change, allowed = tail * u[top_node, 0], _G_CHANGE * float(np.abs(g).max())
            if not change <= allowed:
                # the tail falls by rho per super-block: the spans it still needs
                spans = math.log(allowed / change) / math.log(rho) if allowed > 0.0 else 1.0
                self.want = k + _SUPER * max(1, math.ceil(spans))
                return False
        if self.params.claim.kind == "exponential":
            return _h_falls_past(self.params, dx, dx * i, (u[i, 0], d[i, 0]),
                                 (u[i, 1] - r * u[i, 0], d[i, 1] - r * d[i, 0])
                                 if penalised else (0.0, 0.0), h_max)
        return bool(np.all(np.diff(hb[max(0, k - _SUPER):]) <= 0.0))

    def _read(self, k, u, d) -> bool:
        """Read h - r at the nodes from `self.read` to k; False when they
        leave float range or W' is not positive."""
        k0 = self.read
        new_u, new_d = u[k0:k], d[k0:k]
        if not (np.isfinite(new_u).all() and np.isfinite(new_d).all()
                and new_d[:, 0].min() > 0.0 and new_u[:, 0].max() <= math.exp(_MAX_SAFE_LOG)):
            return False
        hb = self.hb[k0:k]
        np.divide(1.0 - new_d[:, 1] if u.shape[1] == 2 else 1.0, new_d[:, 0], out=hb)
        self.read = k
        return True


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
    """`_h_falls_past` at the last node of `scale`."""
    W, G = scale.W, scale.G
    return _h_falls_past(scale.params, scale.dx, W.x_end,
                         (W.values[-1], W.derivative_values[-1]),
                         (G.values[-1], G.derivative_values[-1]), h_max)


def _h_falls_past(params, dx, x1, w, g, h_max) -> bool:
    """Whether h < h_max on all of [x1, inf), for exponential(mu) claims
    and every penalty, from w = (W, W') and g = (G, G') at x1, a march's
    last node.

    U = G + h_max W solves the ODE p u'' = k u' + mu q u of `scale`, and
    where W' > 0, U' >= 1 exactly when h = (1 - G') / W' <= h_max.  V = U'
    solves p V'' = (k - p') V' + kappa V, kappa = mu q - p'' - mu p'.
    Suppose W'(x1) > 0, W''(x1) > 0, U'(x1) > 1, U''(x1) > 0 and kappa > 0
    on [x1, inf) (`_kappa_positive`).  Where V' first fell to 0 past x1, V
    would have risen and still be positive, so p V'' = kappa V > 0 there,
    while V' was falling to 0: a contradiction.  So U' rises on [x1, inf),
    and so does W' (U = W, G = 0), and h < h_max there.  For the zero
    penalty U = h_max W, and h = 1/W'.

    W'' and U'' come from `_second_derivative`.  Each must clear the
    relative margin _EDGE_MARGIN_PER_DX2 dx^2, above the march's own
    O(dx^2) error, against the sum of the magnitudes of its two terms, and
    h_max - h(x1) must clear the same margin against h_max.
    """
    (w, wp), (g, gp) = map(float, w), map(float, g)
    if not (wp > 0.0 and _kappa_positive(params.premium, params.claim.mu, params.q, x1)):
        return False
    margin = _EDGE_MARGIN_PER_DX2 * dx ** 2
    # the slope and level terms of W'' and U'', U = G + h_max W, in one evaluation of p and p'
    terms = _second_derivative(params, x1, np.array([0.0, w, 0.0, g + h_max * w]),
                               np.array([wp, 0.0, gp + h_max * wp, 0.0])).tolist()

    def rises(slope_term, level_term):
        return slope_term + level_term > margin * (abs(slope_term) + abs(level_term))

    return (rises(*terms[:2]) and rises(*terms[2:])
            and h_max - (1.0 - gp) / wp > margin * h_max)


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
