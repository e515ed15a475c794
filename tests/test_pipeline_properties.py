"""Properties of the pipeline on generated models, the start of a
pipeline-wide property suite.

The trapezoid limit: the march's step z = dx (lam + q - dx/2 lam f(0)) /
p(x) must stay inside (-2, 2) at every node x_i, i >= 1.  The models have
premiums whose lowest node is known (node 1 for a premium that does not
decrease, the last node for one that does not increase), so the test
knows on which side of the limit each one is.  At or past it,
`solve_scale` raises the trapezoid-limit error for every claim kind, and
0.99 times the dx that the error names passes the check; below it, it
never raises that error.

One test keeps dx within the step cap 0.01 min(1/lambda, mean claim),
where a solve below the limit returns W > 0 at every node or raises
another typed error.  The other takes dx past the cap, up to 10^4 times
it, where an exponential claim's dx/2 lam mu can exceed lam + q and the
step reach the pole z = -2, and checks only the limit: past the cap an
exponential claim with mu dx near 1 or more can give W <= 0 below the
limit, with warnings only; that is a different fault (under-resolution of
the density) and not the trapezoid limit.

The domain policy: `run_sweep` runs `locate_barrier`'s domain tests on
[0, MIN_X_MAX] with no reach.  Where they certify that domain, its a*
agrees with the default domain's within 1e-6, or, at a flat maximum, is
as good a maximizer of the default domain's h to round-off; otherwise
the sweep row is the default domain's, bit for bit.
"""

import math
import re
import types
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from conftest import erlang2_claim
from dividend_opt import (ClaimModel, DividendOptError, ModelParams, NumericsError,
                          PenaltyModel, PremiumModel, h_eval, solve_scale, tables)

ERLANG2 = erlang2_claim(0.01)
LIMIT = "trapezoid limit"
STABLE_DX = re.compile(r"decrease dx below (\S+), where")


def decades(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def models(draw, past_cap=False):
    """(params, dx, x_max, (step, past)): step is dx A / p at the grid's
    lowest premium node i >= 1, past whether it is outside (-2, 2); dx is
    within the step cap, or past it when `past_cap`."""
    lam = draw(decades(1e-2, 10.0))
    q = draw(st.just(0.0) | decades(1e-3, 1.0))
    if draw(st.booleans()):
        claim = ClaimModel.exponential(draw(decades(1e-1, 1e2)))
    else:
        claim = ERLANG2
    cap = 0.01 * min(1.0 / lam, claim.mean())
    dx = cap * draw(decades(1.0, 1e4) if past_cap else st.floats(0.05, 1.0))
    A = lam + q - 0.5 * dx * lam * claim.density(0.0)
    assume(A != 0.0)
    n = draw(st.integers(3, 200))
    # the target |step| at the lowest node, log-uniform around the limit,
    # and the limit itself: the step has A's sign
    target = draw(st.just(2.0) | st.floats(-3.0, 1.5).map(lambda e: 2.0 * 2.0 ** e))
    low = dx * abs(A) / target
    shape = draw(st.sampled_from(["constant", "linear", "increasing", "decreasing"]))
    ratio = draw(st.floats(1.0, 4.0))
    knot = dx * draw(st.integers(1, n - 1))  # a node
    if shape == "constant":
        premium, lowest = PremiumModel.constant(low), 1
    elif shape == "linear":
        premium, lowest = PremiumModel.linear(low, low * (ratio - 1.0) / (dx * n)), 1
    elif shape == "increasing":  # flat at `low` up to the knot, as on [0, 1] of
        # a thin-premium model
        premium = PremiumModel.tabulated([0.0, knot, 2.0 * knot], [low, low, ratio * low])
        lowest = 1
    else:  # held at `low` past the knot
        premium, lowest = PremiumModel.tabulated([0.0, knot], [ratio * low, low]), n - 1
    params = ModelParams(premium, claim, PenaltyModel.zero(), lam=lam, q=q)
    p_low = premium.p(dx * np.arange(n))[lowest]
    return params, dx, dx * (n - 1), (dx * A / p_low, p_low <= 0.5 * dx * abs(A))


def _solve(params, dx, x_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # W' <= 0 is judged below
        try:
            return solve_scale(params, dx, x_max)
        except DividendOptError as exc:
            return exc


def _check_the_limit(params, dx, x_max, step, past):
    """The solve at dx, after checking the limit: at or past it the limit
    error, whose named dx passes the check at 0.99 times; below it any
    outcome but that error."""
    out = _solve(params, dx, x_max)
    event(f"{params.claim.kind} {'past' if past else 'below'} "
          f"(z {'<' if step < 0 else '>'} 0): {type(out).__name__}")
    if past:
        assert isinstance(out, NumericsError) and LIMIT in str(out), (step, out)
        # the dx the error names passes the check on the same domain
        stable = float(STABLE_DX.search(str(out)).group(1))
        again = _solve(params, 0.99 * stable, x_max)
        assert not (isinstance(again, Exception) and LIMIT in str(again)), again
    elif isinstance(out, Exception):
        assert LIMIT not in str(out), (step, out)
    return out


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=models())
def test_step_at_or_past_the_limit_is_the_one_error(case):
    params, dx, x_max, (step, past) = case
    out = _check_the_limit(params, dx, x_max, step, past)
    if not (past or isinstance(out, Exception)):
        assert np.all(out.W.values > 0), (step, out.W.values)


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=models(past_cap=True))
def test_past_the_step_cap_both_poles_are_the_limit(case):
    params, dx, x_max, (step, past) = case
    _check_the_limit(params, dx, x_max, step, past)


@st.composite
def sweep_models(draw):
    """(params, dx): a zero-penalty model with exponential claims and a
    linear, rational or tabulated premium, with rates across decades, and
    the default dx or the step cap if that is smaller."""
    lam, q, mu = draw(decades(1e-2, 1.0)), draw(decades(1e-3, 0.2)), draw(decades(0.1, 10.0))
    c = draw(decades(0.3, 3.0))
    kind = draw(st.sampled_from(["linear", "rational", "tabulated"]))
    if kind == "linear":  # a slope below q keeps the speed condition
        premium = PremiumModel.linear(c, q * draw(st.floats(0.0, 0.9)))
    elif kind == "rational":
        premium = PremiumModel.rational(c)
    else:
        knots = draw(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=3, unique=True))
        levels = sorted(draw(st.lists(decades(0.3, 3.0), min_size=len(knots) + 1,
                                      max_size=len(knots) + 1)),
                        reverse=draw(st.booleans()))  # a tabulated premium is monotone
        premium = PremiumModel.tabulated([0.0, *sorted(knots)], levels)
    params = ModelParams(premium, ClaimModel.exponential(mu), PenaltyModel.zero(), lam=lam, q=q)
    return params, min(tables.DEFAULT_DX, 0.01 * min(1.0 / lam, 1.0 / mu))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DividendOptError, ValueError) as exc:
        return exc


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=sweep_models())
def test_sweep_and_default_domain_share_one_policy(case):
    params, dx = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # W' <= 0 is the solve's to report
        found = _outcome(tables._short_domain, params, dx, tables.MIN_X_MAX, None, 0.0)
        default = _outcome(tables.locate_barrier, params, dx)
        tables.SWEEPS[0] = types.SimpleNamespace(values=(0.0,), reference=(0.0,),
                                                 model_for=lambda value: params)
        try:
            (_, a, _, _, note), = tables.run_sweep(0, dx)
        finally:
            del tables.SWEEPS[0]
    certified = isinstance(found, tuple) and found[0].domain_certified
    event(f"{params.premium.kind}: {'certified' if certified else 'default domain'}")
    if certified:
        scale, sol = default
        assert a == found[1].a_star
        # a flat maximum of h (q near 1e-3) ties h to round-off over a few
        # refinement steps, which the march's round-off on either domain
        # breaks: the a* of [0, MIN_X_MAX] is then as good a maximizer of
        # the default domain's h as its own
        assert abs(a - sol.a_star) <= 1e-6 or abs(sol.alpha - h_eval(scale, a)) <= (
            1e-14 * sol.alpha), (a, sol.a_star)
    elif isinstance(default, NumericsError):
        assert math.isnan(a) and note == str(default)
    else:
        assert a == default[1].a_star and note == ""
