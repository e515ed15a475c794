import os
import subprocess
import sys

import numpy as np
import pytest

import dividend_opt
from dividend_opt import ClaimModel, ModelParams, PenaltyModel, PremiumModel
from dividend_opt.tables import SWEEPS, default_x_max, locate_barrier


def run_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's
    dividend_opt; returns its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dividend_opt.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


def make_params(premium="linear", claim_mu=0.3, penalty="zero", lam=0.1, q=0.05,
                c=1.0, eps=0.02, k=1.0, beta=0.5):
    if premium == "linear":
        prem = PremiumModel.linear(c, eps)
    elif premium == "constant":
        prem = PremiumModel.constant(c)
    elif premium == "rational":
        prem = PremiumModel.rational(c)
    else:
        raise ValueError(premium)
    if penalty == "zero":
        pen = PenaltyModel.zero()
    elif penalty == "constant":
        pen = PenaltyModel.constant(k)
    elif penalty == "linear":
        pen = PenaltyModel.linear(k, beta)
    else:
        raise ValueError(penalty)
    return ModelParams(prem, ClaimModel.exponential(claim_mu), pen, lam=lam, q=q)


def erlang2_claim(dx, rate=0.6, support=40.0):
    """Tabulated Erlang(2, rate) density on [0, support], normalized to unit mass."""
    ys = dx * np.arange(int(round(support / dx)) + 1)
    f = rate * rate * ys * np.exp(-rate * ys)
    return ClaimModel.tabulated(0.0, dx, f / np.trapezoid(f, dx=dx))


def shifted_exponential_claim():
    """Exponential(1) density shifted to [1, 21] (dx 0.01), unit mass."""
    dx = 0.01
    ys = 1.0 + dx * np.arange(2001)
    f = np.exp(-(ys - 1.0))
    return ClaimModel.tabulated(1.0, dx, f / np.trapezoid(f, dx=dx))


def tabulated_penalty(shift=0.0):
    """-min(2, 1 - 0.2y) sampled at 60 knots from -30 - shift to -0.5 - shift."""
    xs = np.linspace(-30.0, -0.5, 60) - shift
    return PenaltyModel.tabulated(xs, -np.minimum(2.0, 1.0 - 0.2 * xs))


# Valid JSON configurations that between them use every premium, claim and
# penalty kind; all floats, so that a round trip can compare them with ==.
CONFIG_DOCS = {
    "constant-exponential-zero": {
        "premium": {"kind": "constant", "c": 1.5},
        "claim": {"kind": "exponential", "mu": 0.3},
        "penalty": {"kind": "zero"}, "lambda": 0.1, "q": 0.05},
    "linear-tabulated-constant": {
        "premium": {"kind": "linear", "c": 1.0, "epsilon": 0.02},
        "claim": {"kind": "tabulated", "x0": 0.0, "dx": 0.5, "density": [1.0, 1.0, 1.0]},
        "penalty": {"kind": "constant", "k": 1.0}, "lambda": 0.1, "q": 0.05},
    "rational-exponential-linear": {
        "premium": {"kind": "rational", "c": 1.0},
        "claim": {"kind": "exponential", "mu": 0.3},
        "penalty": {"kind": "linear", "k": 1.0, "beta": 0.5}, "lambda": 0.1, "q": 0.01},
    "tabulated-tabulated-tabulated": {
        "premium": {"kind": "tabulated", "x": [0.0, 10.0, 2000.0], "p": [1.0, 1.2, 1.5]},
        "claim": {"kind": "tabulated", "x0": 0.5, "dx": 0.25,
                  "density": [0.5, 1.25, 1.25, 1.0, 0.5]},
        "penalty": {"kind": "tabulated", "x": [-5.0, -0.5], "w": [-2.0, -1.0]},
        "lambda": 0.1, "q": 0.05},
}


@pytest.fixture(scope="session")
def table1_q05():
    """The workhorse instance: linear premium, q = 0.05 column of sweep 1."""
    return make_params()


@pytest.fixture(scope="session")
def table_solutions():
    """Session cache of (scale, barrier solution) per sweep column."""
    cache = {}

    def get(which, value):
        key = (which, value)
        if key not in cache:
            cache[key] = locate_barrier(SWEEPS[which].model_for(value))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def cap_solutions():
    """Session cache of (scale, barrier solution) per sweep column on the
    cap's domain, `default_x_max`: the oracles that the default domain of
    `locate_barrier` is checked against."""
    cache = {}

    def get(which, value):
        key = (which, value)
        if key not in cache:
            params = SWEEPS[which].model_for(value)
            cache[key] = locate_barrier(params, x_max=default_x_max(params))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def scale_q05(table_solutions):
    scale, _ = table_solutions(1, 0.05)
    return scale


@pytest.fixture(scope="session")
def barrier_q05(table_solutions):
    _, sol = table_solutions(1, 0.05)
    return sol
