import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dividend_opt import (ClaimModel, DomainTooShortError, GridFunction,
                          ModelParams, NumericsError, OverflowDomainError, PenaltyModel,
                          PremiumModel,
                          closed_form_G_ruin_constant, closed_form_W_constant,
                          closed_form_W_linear, compute_G, compute_W,
                          find_barrier, solve_scale)
from dividend_opt import _reference
from dividend_opt.grid import atomic_write
from dividend_opt.model import omega_eval
from dividend_opt._reference import _RESCALE_AT
from dividend_opt.scale import (_BLOCK, _SUPER, _MarchInputs,
                                _check_G_decay, _check_premium, _fft_length, _march,
                                _march_chunks, _scan_block, _second_derivative,
                                _trapezoid_convolution, _unit_lower_inverse)
from dividend_opt.tables import SWEEPS, DEFAULT_DX, default_x_max, locate_barrier
from conftest import (erlang2_claim, grid_nodes, make_params, shifted_exponential_claim,
                      tabulated_penalty)

ORACLE_REL_TOL = 1e-11


def _max_rel_diff(fast, ref):
    """Largest node-wise |fast - ref| / |ref|; nodes where both agree exactly
    (the zero start of the penalty march) count as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(fast - ref) / np.abs(ref)
    return float(np.max(np.where(fast == ref, 0.0, rel)))


def _grid_with_density(params, dx, x_max):
    """The march's nodes on [0, x_max] and the premium and the claim density
    at them: the inputs of `_reference.volterra_march`."""
    x = grid_nodes(params, dx, x_max)
    return x, params.premium.p(x), np.asarray(params.claim.density(x), dtype=float)


def _oracle_diffs(params, dx, x_max, penalty_march=False):
    """The O(n) exponential march against the reference O(n^2) march on the
    grid of [0, x_max], W or, with `penalty_march`, G_p.  Returns the
    largest relative gaps in values and derivatives, in true units (the
    reference's stored value * exp(log_scale)), and the reference's
    log_scale."""
    x, p_vals, f_vals = _grid_with_density(params, dx, x_max)
    u, d = _march(_MarchInputs(params, dx, x_max))
    col, u0, src = (1, 0.0, omega_eval(params, x)) if penalty_march else (0, 1.0, None)
    ur, dr, Lr = _reference.volterra_march(p_vals, f_vals, params.lam, params.q,
                                           dx, u0, src)
    return (_max_rel_diff(u[:, col], ur * math.exp(Lr)),
            _max_rel_diff(d[:, col], dr * math.exp(Lr)), Lr)


SWEEP1_Q05 = SWEEPS[1].model_for(0.05)
# fast growth, (lam + q) / c = 600: the reference march rescales every ~0.58
# in x, and W leaves float range at about x = 1.14
FAST_GROWTH = ModelParams(PremiumModel.constant(0.01), ClaimModel.exponential(0.5),
                          PenaltyModel.linear(1.0, 0.5), lam=5.0, q=1.0)
# grid sizes n around the scan's blocks of B = _scan_block(n) steps
SCAN_SHAPES = {"two_nodes": 2, "three_nodes": 3, "one_step_short_of_whole_blocks": 1000,
               "whole_blocks": 1001, "one_step_past_whole_blocks": 1002, "ragged": 1005}


class TestExponentialMarchOracle:
    @pytest.mark.parametrize("which,value", [(w, v) for w, spec in SWEEPS.items()
                                             for v in spec.values])
    def test_sweep_instances_match_reference(self, which, value):
        params = SWEEPS[which].model_for(value)
        du, dd, _ = _oracle_diffs(params, DEFAULT_DX, default_x_max(params))
        assert du <= ORACLE_REL_TOL
        assert dd <= ORACLE_REL_TOL

    @pytest.mark.parametrize("which,value", [(w, v) for w, spec in SWEEPS.items()
                                             for v in spec.values])
    def test_sweep_instances_penalty_column_matches_reference(self, which, value):
        # G_p: the start H_0 = omega(0)/dx, on a domain short enough for the
        # O(n^2) reference
        params = dataclasses.replace(SWEEPS[which].model_for(value),
                                     penalty=PenaltyModel.linear(1.0, 0.5))
        du, dd, _ = _oracle_diffs(params, DEFAULT_DX, 30.0, penalty_march=True)
        assert du <= ORACLE_REL_TOL
        assert dd <= ORACLE_REL_TOL

    def test_source_term_and_rescale_match_reference(self):
        params = ModelParams(PremiumModel.constant(1.0), ClaimModel.exponential(1.0),
                             PenaltyModel.linear(1.0, 0.5), lam=0.5, q=0.5)
        du, dd, ref_log_scale = _oracle_diffs(params, 0.005, 600.0, penalty_march=True)
        assert ref_log_scale == pytest.approx(345.39, abs=0.01)  # one rescale at 1e150
        assert du <= ORACLE_REL_TOL
        assert dd <= ORACLE_REL_TOL

    def test_tabulated_penalty_march_matches_reference(self):
        # the march carries omega(0) e^{-mu x}, the reference the exact omega
        params = dataclasses.replace(SWEEP1_Q05, penalty=tabulated_penalty())
        du, dd, Lr = _oracle_diffs(params, DEFAULT_DX, default_x_max(params),
                                   penalty_march=True)
        assert Lr == 0.0
        assert du <= ORACLE_REL_TOL
        assert dd <= ORACLE_REL_TOL

    def test_penalised_W_is_the_zero_penalty_W(self):
        params = dataclasses.replace(SWEEP1_Q05, penalty=PenaltyModel.linear(1.0, 0.5))
        dx, x_max = DEFAULT_DX, default_x_max(params)
        W, W0 = solve_scale(params, dx, x_max).W, compute_W(params, dx, x_max)
        assert np.array_equal(W.values, W0.values)
        assert np.array_equal(W.derivative_values, W0.derivative_values)

    @pytest.mark.parametrize("penalty_march", [False, True])
    def test_rescales_crossing_mid_block_match_reference(self, penalty_march):
        dx, x_max = 0.001, 1.1
        x, p_vals, f_vals = _grid_with_density(FAST_GROWTH, dx, x_max)
        u0, src = (0.0, omega_eval(FAST_GROWTH, x)) if penalty_march else (1.0, None)
        ur, _, Lr = _reference.volterra_march(p_vals, f_vals, FAST_GROWTH.lam,
                                              FAST_GROWTH.q, dx, u0, src)
        # true log|u|: the first node past 1e150 is the first rescale
        with np.errstate(divide="ignore"):
            first = int(np.argmax(np.log(np.abs(ur)) + Lr > math.log(_RESCALE_AT)))
        B = _scan_block(x.size)
        assert (first - 1) % B not in (0, B - 1)  # strictly inside its block
        du, dd, _ = _oracle_diffs(FAST_GROWTH, dx, x_max, penalty_march)
        assert du <= ORACLE_REL_TOL
        assert dd <= ORACLE_REL_TOL

    @pytest.mark.parametrize("penalty_march", [False, True])
    @pytest.mark.parametrize("shape", sorted(SCAN_SHAPES))
    def test_block_edges_match_reference(self, shape, penalty_march):
        params = dataclasses.replace(SWEEP1_Q05, penalty=PenaltyModel.linear(1.0, 0.5))
        n = SCAN_SHAPES[shape]
        x_max = DEFAULT_DX * (n - 0.6)  # 0.4 dx past the last of n nodes
        assert _MarchInputs(params, DEFAULT_DX, x_max).n == n
        du, dd, Lr = _oracle_diffs(params, DEFAULT_DX, x_max, penalty_march)
        assert Lr == 0.0
        assert du <= ORACLE_REL_TOL
        assert dd <= ORACLE_REL_TOL

    def test_scan_shapes_cover_the_block_edges(self):
        residues = {shape: (n - 1) % _scan_block(n) for shape, n in SCAN_SHAPES.items()}
        B = _scan_block(1000)
        assert _scan_block(1001) == _scan_block(1002) == _scan_block(1005) == B > 1
        assert residues == {"two_nodes": 0, "three_nodes": 0,
                             "one_step_short_of_whole_blocks": B - 1, "whole_blocks": 0,
                             "one_step_past_whole_blocks": 1, "ragged": 4}

    def test_stable_G_matches_reference_combination(self):
        params = dataclasses.replace(SWEEP1_Q05, penalty=PenaltyModel.constant(1.0))
        dx, x_max = DEFAULT_DX, default_x_max(params)
        G = solve_scale(params, dx, x_max).G
        x, p_vals, f_vals = _grid_with_density(params, dx, x_max)
        (w, wd, Lw), (gp, gpd, Lg) = [
            _reference.volterra_march(p_vals, f_vals, params.lam, params.q, dx, u0, src)
            for u0, src in ((1.0, None), (0.0, omega_eval(params, x)))]
        assert Lw == Lg == 0.0
        r = gp[-1] / w[-1]
        gmax = float(np.max(np.abs(G.values)))
        assert np.max(np.abs(G.values - (gp - r * w))) <= 1e-10 * gmax
        assert np.max(np.abs(G.derivative_values - (gpd - r * wd))) <= 1e-10 * gmax


def test_march_working_set_within_twelve_floats_per_node():
    # one W march on 33 334 nodes, its inputs evaluated in it: the
    # responses (4 floats per node), 1/p, H and the two outputs (10.1
    # floats per node); a coefficient table or transposed temporaries
    # beside them go past the budget
    inputs = _MarchInputs(SWEEP1_Q05, DEFAULT_DX, default_x_max(SWEEP1_Q05))
    assert inputs.n == 33334
    tracemalloc.start()
    try:
        _march(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * inputs.n


def test_penalised_tabulated_solve_within_twenty_two_floats_per_node():
    # solve_scale on the tabulated_cli model, W and G_p by the blocked march
    # on 33 334 nodes: the grid, omega, the density, 1/p and the two (n, 2)
    # outputs, with the coefficient rows, source terms and block matrices
    # held per super-block (18.4 floats per node).  Those rows or a source
    # array over all n nodes go past the budget
    params, dx, x_max = TestBlockedMarchOracle.params_and_grid("tabulated_cli")
    n = _MarchInputs(params, dx, x_max).n
    assert n == 33334
    tracemalloc.start()
    try:
        solve_scale(params, dx, x_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 8 * n


def test_streamed_csv_write_within_one_megabyte(tmp_path):
    # a 33 334-row, 3-column CSV of about 1.9 MB, as `barrier` streams
    # v_curve.csv: one chunk's text and row tuple at a time, where the whole
    # text and its tuple of floats take several MB
    x = DEFAULT_DX * np.arange(33334)
    g = GridFunction(0.0, DEFAULT_DX, 3.3 * np.exp(-x / 7.0), np.cos(x))
    path = tmp_path / "v_curve.csv"
    tracemalloc.start()
    try:
        atomic_write(path, g.csv_chunks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 10**6
    assert peak <= 10**6


class TestExponentialMarchFailure:
    def test_trapezoid_limit_is_numerics_error(self):
        # dx/2 (lam + q - dx/2 lam mu) / p = 0.25 * 4 / 1 = 1 exactly: 1 - dx/2 A/p = 0
        params = ModelParams(PremiumModel.constant(1.0), ClaimModel.exponential(1.0),
                             PenaltyModel.zero(), lam=2.0, q=2.5)
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match=r"trapezoid limit.*dx=0\.5; decrease dx"):
                compute_W(params, 0.5, 5.0)

    def test_overflow_within_a_block_is_numerics_error(self):
        # dx/2 A/p = 1 - 1e-10 with A = lam + q - dx/2 lam mu, a quadratic in
        # dx/2: every step multiplies u by about 2e10, past float range within
        # the 35 steps of one block
        params = dataclasses.replace(FAST_GROWTH, penalty=PenaltyModel.zero())
        lam, q, mu, c = params.lam, params.q, params.claim.mu, 0.01
        half = ((lam + q) - math.sqrt((lam + q) ** 2 - 4 * lam * mu * c * (1 - 1e-10))) \
            / (2 * lam * mu)
        n = 12000
        assert _scan_block(n) == 35
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match="overflows float range.*decrease dx"):
                compute_W(params, 2 * half, 2 * half * (n - 1))


THIN_PREMIUM = ModelParams(PremiumModel.tabulated([0.0, 1.0, 2.0, 50.0],
                                                  [1e-4, 1e-4, 1.0, 1.5]),
                           erlang2_claim(0.01), PenaltyModel.zero(), lam=0.1, q=0.05)
LIMIT_MESSAGE = (r"the march reaches the trapezoid limit at x=\S+: the step "
                 r"dx \(lam \+ q - dx/2 lam f\(0\)\) / p\(x\) is \S+, outside \(-2, 2\), "
                 r"for dx=\S+; decrease dx below (\S+), where every step's factor is "
                 r"positive \(min p = \S+\); an accurate W needs dx within the step cap "
                 r"0\.01·min\(1/lambda, mean claim\) = (\S+)$")
# the stiff model: A = lam + q - dx/2 lam mu < 0 past dx = 3e-4
STIFF = ModelParams(PremiumModel.constant(1.5), ClaimModel.exponential(1e4),
                    PenaltyModel.zero(), lam=0.1, q=0.05)


# premiums whose least node value lies at a node next to a knot between
# nodes, at the grid's end or at its start, with dx = 0.01 on [0, 6]
PROBED_PREMIUMS = {
    "tabulated_rising": PremiumModel.tabulated([0.0, 0.3337, 0.7771, 5.0],
                                               [0.02, 0.02, 0.5, 0.6]),
    "tabulated_falling": PremiumModel.tabulated([0.0, 1.23456, 2.71828],
                                                [1.0, 0.5, 0.0123]),
    # dips of 1e-13 pass the monotonicity check; the least sample is at 0.3702
    "tabulated_dips": PremiumModel.tabulated([0.0, 0.1234, 0.2468, 0.3702, 1.0],
                                             [0.05, 0.05 - 1e-13, 0.05, 0.05 - 2e-13, 0.06]),
    "linear_rising": PremiumModel.linear(0.03, 0.02),
    "rational": PremiumModel.rational(0.01),
}


def _whole_grid_verdict(params, dx, n):
    """The premium checks on all n nodes at once: None, or the start of the
    error's text, up to the step at the first node past the limit."""
    p = params.premium.p(dx * np.arange(n))
    if np.any(p <= 0):
        return "premium not positive on the grid"
    A = params.lam + params.q - 0.5 * dx * params.lam * params.claim.density(0.0)
    bad = p[1:] <= 0.5 * dx * abs(A)
    if not bad.any():
        return None
    i = 1 + int(np.argmax(bad))
    return (f"the march reaches the trapezoid limit at x={i * dx:.6g}: the step dx "
            f"(lam + q - dx/2 lam f(0)) / p(x) is {dx * A / p[i]:.6g}, outside")


class TestPremiumCheck:
    """`_check_premium` reads p at the probe nodes only, unless a check
    fails, and gives the verdict and text of the checks on every node."""

    @pytest.mark.parametrize("name", sorted(PROBED_PREMIUMS))
    @pytest.mark.parametrize("margin", [-1e-12, 0.0, 1e-12])
    def test_verdict_is_the_whole_grids(self, name, margin):
        # q puts the limit dx/2 |A| at the least p on the nodes i >= 1,
        # times 1 + margin: just past it, on it, or just inside
        dx, n, lam, mu = 0.01, 601, 1.0, 1.0
        premium = PROBED_PREMIUMS[name]
        least = float(premium.p(dx * np.arange(1, n)).min())
        q = 2.0 * least * (1.0 + margin) / dx - lam + 0.5 * dx * lam * mu
        params = ModelParams(premium, ClaimModel.exponential(mu), PenaltyModel.zero(),
                             lam=lam, q=q)
        want = _whole_grid_verdict(params, dx, n)
        assert margin == 0.0 or (want is None) == (margin < 0)  # 0: either, by round-off
        if want is None:
            _check_premium(params, dx, n)
        else:
            with pytest.raises(NumericsError) as info:
                _check_premium(params, dx, n)
            assert str(info.value).startswith(want)

    def test_passing_check_reads_the_probe_only(self, monkeypatch):
        sizes = []
        p = PremiumModel.p
        monkeypatch.setattr(PremiumModel, "p", lambda self, x: sizes.append(np.size(x))
                            or p(self, x))
        _check_premium(SWEEP1_Q05, DEFAULT_DX, 33334)
        _check_premium(dataclasses.replace(SWEEP1_Q05, premium=bounded_premium()),
                       DEFAULT_DX, 33334)
        assert sizes == [2, 3 + 5 * bounded_premium().xs.size]


class TestTrapezoidLimit:
    """One stability rule for both kernels, checked before either runs: a
    step dx (lam + q - dx/2 lam f(0)) / p(x) outside (-2, 2) is a
    NumericsError that names the dx below which every step is stable."""

    @pytest.mark.parametrize("dx", [0.0034, 0.004, 0.008])
    def test_erlang2_past_the_limit(self, dx):
        # the tabulated twin of TestExponentialMarchFailure: dx 6 / 0.01 is
        # 2.04, 2.4 and 4.8, where the march would alternate in sign
        params = ModelParams(PremiumModel.constant(0.01), erlang2_claim(0.01),
                             PenaltyModel.zero(), lam=5.0, q=1.0)
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match=LIMIT_MESSAGE) as info:
                compute_W(params, dx, 0.5)
        assert f"for dx={dx:.6g}" in str(info.value)
        assert "below 0.00333333, where" in str(info.value)

    def test_locate_barrier_past_the_limit(self):
        # step 7.5: not an OverflowDomainError whose largest safe x_max
        # would itself march past the limit
        params = dataclasses.replace(THIN_PREMIUM, premium=PremiumModel.constant(1e-4))
        with pytest.raises(NumericsError, match=LIMIT_MESSAGE):
            locate_barrier(params, dx=0.005, x_max=30.0)

    def test_named_dx_passes_the_check(self):
        with pytest.raises(NumericsError, match=LIMIT_MESSAGE) as info:
            solve_scale(THIN_PREMIUM, DEFAULT_DX, 30.0)
        stable = float(re.search(LIMIT_MESSAGE, str(info.value)).group(1))
        assert stable == pytest.approx(2e-4 / 0.15, rel=1e-5)  # printed to 6 digits
        dx = 0.99 * stable
        sol = solve_scale(THIN_PREMIUM, dx, 0.1)
        assert np.all(sol.W.values > 0) and np.all(sol.W.derivative_values > 0)
        # W grows by about (1 + z/2) / (1 - z/2) = 149 per node: on [0, 30]
        # it leaves float range, which is no step past the limit
        with pytest.raises(OverflowDomainError):
            solve_scale(THIN_PREMIUM, dx, 30.0)

    @pytest.mark.parametrize("dx", [0.08, 0.1])
    def test_step_at_or_below_minus_two(self, dx):
        # (1 + z/2) / (1 - z/2) <= 0 at z = -2.125 and -3.32: W alternated in
        # sign (214 and 299 sign changes on [0, 30]) with warnings only
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match=LIMIT_MESSAGE) as info:
                solve_scale(STIFF, dx, 30.0)
        assert "outside (-2, 2)" in str(info.value)
        stable = float(re.search(LIMIT_MESSAGE, str(info.value)).group(1))
        # ((lam + q) + sqrt((lam + q)^2 + 4 lam mu p)) / (lam mu), far below
        # 2 p / (lam + q) = 20
        assert stable == pytest.approx((0.15 + math.sqrt(0.15 ** 2 + 4e3 * 1.5)) / 1e3,
                                       rel=1e-5)
        assert f"{stable:.4f}" == "0.0776"
        # 0.99 times that dx passes the check, but the factor is near 0
        # there: W falls about 100 times per node, and solve_scale warns
        # that the grid is under-resolved
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.warns(UserWarning, match="W' <= 0 .* the grid is under-resolved"):
                W = solve_scale(STIFF, 0.99 * stable, 30.0).W.values
        assert W[0] == 1.0 and W[1] < 0.51 and W[-1] <= 0.0
        # the step cap the error also names, 0.01 / mu, gives W > 0 and
        # W' > 0 on the whole grid
        cap = float(re.search(LIMIT_MESSAGE, str(info.value)).group(2))
        assert cap == 1e-6
        sol = solve_scale(STIFF, 0.99 * cap, 0.01)
        assert np.all(sol.W.values > 0) and np.all(sol.W.derivative_values > 0)

    def test_exponential_names_the_stable_dx(self):
        # TestExponentialMarchFailure's model: 2 min p / (lam + q) = 2 / 4.5
        params = ModelParams(PremiumModel.constant(1.0), ClaimModel.exponential(1.0),
                             PenaltyModel.zero(), lam=2.0, q=2.5)
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match=LIMIT_MESSAGE) as info:
                compute_W(params, 0.5, 5.0)
        assert re.search(LIMIT_MESSAGE, str(info.value)).group(1) == "0.444444"

    @pytest.mark.parametrize("claim", ["exponential", "erlang2"])
    def test_near_limit_overflow_has_one_wording(self, claim):
        # a step just below 2 overflows within one block of either kernel
        # (TestExponentialMarchFailure's and TestBlockedMarch's models), and
        # both report the step dx A / p
        if claim == "exponential":
            params = dataclasses.replace(FAST_GROWTH, penalty=PenaltyModel.zero())
            lam, q, mu, c = params.lam, params.q, params.claim.mu, 0.01
            dx = ((lam + q) - math.sqrt((lam + q) ** 2 - 4 * lam * mu * c * (1 - 1e-10))) \
                / (lam * mu)
            x_max = dx * 11999
        else:
            params = ModelParams(PremiumModel.constant(0.01),
                                 erlang2_claim(0.01, rate=0.5, support=20.0),
                                 PenaltyModel.zero(), lam=5.0, q=1.0)
            dx, x_max = 2.0 * 0.01 * (1.0 - 1e-6) / 6.0, 1.0
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match=(
                    r"^the march overflows float range within one block of \d+ nodes at "
                    r"x=\S+: the step dx \(lam \+ q - dx/2 lam f\(0\)\) / p\(x\) reaches 2, "
                    r"near its limit of 2, for dx=\S+; decrease dx$")):
                compute_W(params, dx, x_max)


def bounded_premium():
    """Tabulated premium 1 + 0.5 (1 - e^{-x/10}) on [0, 400]."""
    xs = np.linspace(0.0, 400.0, 401)
    return PremiumModel.tabulated(xs, 1.0 + 0.5 * (1.0 - np.exp(-xs / 10.0)))


LINEAR = PremiumModel.linear(1.0, 0.02)
# (claim, premium, penalty, lam, q, dx, x_max) for every tabulated-claim model
# of the test suite, the tabulated_cli benchmark model, a model whose march
# rescales, grids that end inside a block or a super-block, and density
# supports that fill the spectra ring of the older history in full, in one
# slot, and only as far as the grid reaches
BLOCKED_CASES = {
    "discretized_exponential": (
        lambda: TestTabulatedClaim.discretized_exponential(), LINEAR,
        PenaltyModel.constant(1.0), 0.1, 0.05, 0.02, 60.0),
    "erlang2_dx02_linear_penalty": (
        lambda: erlang2_claim(0.02), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.02, None),
    "erlang2_dx64th_tabulated_penalty": (
        lambda: erlang2_claim(1.0 / 64.0), LINEAR,
        tabulated_penalty(), 0.1, 0.05, 1.0 / 64.0, None),
    "shifted_exponential_constant_penalty": (
        shifted_exponential_claim, LINEAR, PenaltyModel.constant(1.0),
        0.1, 0.05, 0.01, 80.0),
    "bounded_premium_tabulated_penalty": (
        lambda: erlang2_claim(0.01), bounded_premium(),
        tabulated_penalty(), 0.1, 0.05, 0.01, 120.0),
    "tabulated_cli": (
        lambda: erlang2_claim(0.01), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, DEFAULT_DX, None),
    "tabulated_cli_no_penalty": (
        lambda: erlang2_claim(0.01), LINEAR,
        PenaltyModel.zero(), 0.1, 0.05, DEFAULT_DX, None),
    "fast_growth_rescales": (
        lambda: erlang2_claim(0.01, rate=0.5, support=20.0),
        PremiumModel.constant(0.01), PenaltyModel.linear(1.0, 0.5), 5.0, 1.0, 0.001, 1.1),
    "fewer_nodes_than_a_block": (
        lambda: erlang2_claim(0.02), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.02, 0.02 * (_BLOCK // 2)),
    "one_node_past_a_block": (
        lambda: erlang2_claim(0.02), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.02, 0.02 * _BLOCK),
    "one_node_past_a_super_block": (
        lambda: erlang2_claim(0.02), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.02, 0.02 * _SUPER),
    "support_past_eight_super_blocks": (
        lambda: erlang2_claim(0.01, rate=0.1, support=100.0), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.01, 125.0),
    "support_within_a_super_block": (
        lambda: erlang2_claim(0.01, rate=1.0, support=10.0), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.01, 40.0),
    "support_past_the_grid": (
        lambda: erlang2_claim(0.01, rate=0.1, support=100.0), LINEAR,
        PenaltyModel.linear(1.0, 0.5), 0.1, 0.05, 0.01, 30.0),
}
BLOCKED_REL_TOL = 1e-12


class TestBlockedMarchOracle:
    """The blocked march of every non-exponential claim against the O(n^2)
    reference, W and G_p, values and derivatives, in true units."""

    @staticmethod
    def params_and_grid(case):
        claim, premium, penalty, lam, q, dx, x_max = BLOCKED_CASES[case]
        params = ModelParams(premium, claim(), penalty, lam=lam, q=q)
        return params, dx, default_x_max(params) if x_max is None else x_max

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_matches_reference(self, case):
        params, dx, x_max = self.params_and_grid(case)
        x, p_vals, f_vals = _grid_with_density(params, dx, x_max)
        omega = None if params.penalty.is_zero else omega_eval(params, x)
        u, d = _march(_MarchInputs(params, dx, x_max))
        starts = [(1.0, None)] + ([] if omega is None else [(0.0, omega)])
        assert u.shape == d.shape == (x.size, len(starts))
        for k, (u0, src) in enumerate(starts):
            ur, dr, Lr = _reference.volterra_march(p_vals, f_vals, params.lam,
                                                   params.q, dx, u0, src)
            assert _max_rel_diff(u[:, k], ur * math.exp(Lr)) <= BLOCKED_REL_TOL
            assert _max_rel_diff(d[:, k], dr * math.exp(Lr)) <= BLOCKED_REL_TOL

    def test_march_makes_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg call in the blocked march")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        self.test_matches_reference("one_node_past_a_super_block")

    def test_grid_shapes_cover_the_block_edges(self):
        sizes = {case: _MarchInputs(*self.params_and_grid(case)).n
                 for case in BLOCKED_CASES}
        assert sizes["fewer_nodes_than_a_block"] < _BLOCK
        assert sizes["one_node_past_a_block"] == _BLOCK + 1
        assert sizes["one_node_past_a_super_block"] == _SUPER + 1
        assert sizes["tabulated_cli"] % _BLOCK and sizes["tabulated_cli"] % _SUPER

    def test_supports_cover_the_spectra_ring(self):
        def nodes_and_support(case):
            params, dx, x_max = self.params_and_grid(case)
            x = grid_nodes(params, dx, x_max)
            return x.size, int(np.flatnonzero(params.claim.density(x))[-1]) + 1

        n, K = nodes_and_support("support_past_eight_super_blocks")
        assert K - 1 > 8 * _SUPER and (K - 1) % _SUPER and n % _SUPER and n > K
        n, K = nodes_and_support("support_within_a_super_block")
        assert K < _SUPER and n > 2 * _SUPER
        n, K = nodes_and_support("support_past_the_grid")
        params = self.params_and_grid("support_past_the_grid")[0]
        assert K == n and params.claim.density(np.array([n * 0.01]))[0] > 0.0

    def test_every_transform_has_length_two_super_blocks(self, monkeypatch):
        # the older history is one rfft per finished super-block and one
        # irfft per started one, both of 2 S points, whatever the support:
        # no transform over the whole support per super-block
        lengths = []

        def recorded(fft, implied):
            def call(a, n=None, axis=-1, *args, **kwargs):
                lengths.append(implied(np.shape(a)[axis]) if n is None else n)
                return fft(a, n, axis, *args, **kwargs)
            return call

        monkeypatch.setattr(np.fft, "rfft", recorded(np.fft.rfft, lambda k: k))
        monkeypatch.setattr(np.fft, "irfft", recorded(np.fft.irfft, lambda k: 2 * (k - 1)))
        for case in ("tabulated_cli", "support_past_eight_super_blocks"):
            params, dx, x_max = self.params_and_grid(case)
            inputs = _MarchInputs(params, dx, x_max)
            lengths.clear()
            _march(inputs)
            # the density segments' spectra, then per super-block after the first
            assert len(lengths) == 1 + 2 * (-(-inputs.n // _SUPER) - 1)
            assert set(lengths) == {2 * _SUPER}

    def test_fast_growth_rescales(self):
        params, dx, x_max = self.params_and_grid("fast_growth_rescales")
        u, d = _march(_MarchInputs(params, dx, x_max))
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(d))
        assert np.max(np.abs(u)) > 1e150  # past the reference march's rescale threshold

    def test_overflow_within_a_block_is_numerics_error(self):
        # dx (lam+q) / p one millionth below the trapezoid limit 2: the step
        # multiplies u by about 2e6, past float range within one block
        params = ModelParams(PremiumModel.constant(0.01),
                             erlang2_claim(0.01, rate=0.5, support=20.0),
                             PenaltyModel.zero(), lam=5.0, q=1.0)
        dx = 2.0 * 0.01 * (1.0 - 1e-6) / 6.0
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match="decrease dx"):
                compute_W(params, dx, 1.0)


@pytest.mark.parametrize("lengths", [[_BLOCK] * 16, [_BLOCK - 1, _BLOCK, 1, 17],
                                     [5], [_BLOCK, 2]])
def test_unit_lower_inverse_matches_numpy(lengths):
    # well-conditioned unit lower-triangular matrices, each padded with
    # identity rows past its length, as the march pads a short block
    rng = np.random.default_rng(len(lengths))
    M = np.tril(rng.uniform(-0.05, 0.05, (len(lengths), _BLOCK, _BLOCK)), -1)
    for m, L in zip(M, lengths):
        m[L:] = 0.0
        m[np.diag_indices(_BLOCK)] = 1.0
    X = _unit_lower_inverse(M, np.empty_like(M))
    assert X.shape == M.shape
    assert np.all(np.triu(X, 1) == 0.0)
    for x, m in zip(X, M):
        ref = np.linalg.inv(m)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestComputeW:
    def test_value_and_slope_at_zero(self, table1_q05):
        W = compute_W(table1_q05, 0.01, 10.0)
        assert W.values[0] == 1.0
        # slope at zero is (lam+q)/p(0)
        assert W.derivative_values[0] == pytest.approx(0.15, rel=1e-14)

    def test_constant_premium_vs_two_exponential(self):
        params = make_params(premium="constant")
        W = compute_W(params, 0.005, 20.0)
        xs = np.linspace(0.0, 20.0, 81)
        ref = closed_form_W_constant(params, xs)
        rel = np.max(np.abs(W(xs) - ref) / np.abs(ref))
        assert rel < 1e-5

    @pytest.mark.parametrize("which,value", [(w, v) for w in (1, 2, 3)
                                             for v in SWEEPS[w].values])
    def test_linear_premium_vs_kummer(self, which, value):
        params = SWEEPS[which].model_for(value)
        W = compute_W(params, 0.005, 30.0)
        xs = np.linspace(0.0, 30.0, 61)
        ref = closed_form_W_linear(params, xs)
        rel = np.max(np.abs(W(xs) - ref) / np.abs(ref))
        assert rel < 1e-4

    def test_positive_and_increasing(self):
        params = make_params(premium="rational", q=0.01)
        W = compute_W(params, 0.01, 40.0)
        assert np.all(W.values > 0)
        assert np.all(np.diff(W.values) > 0)

    @pytest.mark.parametrize("dx,x_max,name", [(math.nan, 10.0, "dx"),
                                               (math.inf, 10.0, "dx"),
                                               (0.01, math.nan, "x_max"),
                                               (0.01, math.inf, "x_max")])
    def test_non_finite_grid_arguments_rejected(self, table1_q05, dx, x_max, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            solve_scale(table1_q05, dx, x_max)

    def test_unallocatable_grid_rejected(self, table1_q05):
        # 2e14 nodes, 1.4 PiB: the allocation fails at once, allocating nothing
        with pytest.raises(ValueError, match="increase dx or decrease x_max"):
            solve_scale(table1_q05, 0.005, 1e12)

    @pytest.mark.parametrize("dx,x_max", [(0.005, 1e308), (1e-320, 30.0)])
    def test_grid_past_float_range_rejected(self, table1_q05, dx, x_max):
        # x_max / dx is inf: the allocation's ValueError, not an OverflowError
        with pytest.raises(ValueError, match=r"^a grid of inf nodes \(dx=.*\) cannot be "
                                             r"allocated; increase dx or decrease x_max$"):
            solve_scale(table1_q05, dx, x_max)

    def test_step_warning(self, table1_q05):
        with pytest.warns(UserWarning, match="recommended cap"):
            compute_W(table1_q05, 0.05, 5.0)

    def test_refinement_order_at_least_1_8(self):
        params = make_params(premium="constant")
        xs = np.linspace(0.0, 15.0, 31)
        ref = closed_form_W_constant(params, xs)
        errs = [np.max(np.abs(compute_W(params, dxv, 16.0)(xs) - ref))
                for dxv in (0.02, 0.01, 0.005)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestComputeG:
    def test_zero_penalty_gives_zero(self, table1_q05):
        G = compute_G(table1_q05, 0.01, 20.0)
        assert np.all(G.values == 0.0)
        assert np.all(G.derivative_values == 0.0)

    def test_classical_ruin_probability(self):
        params = make_params(premium="constant", penalty="constant", k=1.0, q=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # W' underflows far out at q=0
            G = compute_G(params, 0.0025, 100.0)
        xs = np.linspace(0.0, 20.0, 81)
        ref = closed_form_G_ruin_constant(params, xs)
        assert np.max(np.abs(G(xs) - ref)) < 1e-6
        assert G.values[0] == pytest.approx(-1.0 / 3.0, abs=1e-7)

    def test_nonpositive_for_nonpositive_penalty(self):
        for pen in ("constant", "linear"):
            params = make_params(penalty=pen)
            G = compute_G(params, 0.01, 40.0)
            assert np.all(G.values <= 1e-12)

    def test_gamma_is_G_at_zero(self):
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        sol = solve_scale(params, 0.01, 50.0)
        assert sol.stable_coefficient == pytest.approx(float(sol.G.values[0]))

    def test_truncation_invariance(self):
        # +25% domain moves G on the first half by < 1e-6 * max|G|
        params = make_params(penalty="constant", k=1.0)
        g1 = compute_G(params, 0.01, 80.0)
        g2 = compute_G(params, 0.01, 100.0)
        xs = np.linspace(0.0, 40.0, 200)
        gmax = np.max(np.abs(g1.values))
        assert np.max(np.abs(g1(xs) - g2(xs))) < 1e-6 * gmax

    def test_domain_too_short_reported(self):
        params = make_params(penalty="constant", k=1.0)
        with pytest.raises(DomainTooShortError) as err:
            compute_G(params, 0.005, 3.0)
        assert err.value.suggested_x_max and err.value.suggested_x_max > 3.0

    @pytest.mark.parametrize("x_max", [None, 250.0, 375.0])
    def test_round_off_tail_is_not_a_short_domain(self, x_max):
        # the bounded tabulated premium of the Monte-Carlo benchmark with a
        # constant penalty: |G| on the last band is round-off of G_p - r W,
        # about 1e-15 of max |G_p|, and rises with x_max as max |G_p| does
        xs = np.linspace(0.0, 5000.0, 5001)
        premium = PremiumModel.tabulated(xs, 1.0 + 0.5 * (1.0 - np.exp(-xs / 10.0)))
        params = ModelParams(premium, ClaimModel.exponential(0.3),
                             PenaltyModel.constant(1.0), lam=0.1, q=0.05)
        if x_max is None:
            # on the cap's domain, where the round-off tail is; the default
            # domain ends where the tests pass, long before it
            cap = default_x_max(params)
            scale, barrier = locate_barrier(params, x_max=cap)
            assert scale.domain_end == pytest.approx(cap, abs=DEFAULT_DX)
            assert barrier.a_star == pytest.approx(7.2738, abs=1e-3)
            short, located = locate_barrier(params)
            assert short.domain == {"end": pytest.approx(102.37), "certified": True,
                                    "reason": "tests passed"}
            assert located.a_star == pytest.approx(barrier.a_star, abs=1e-6)
        else:
            G = solve_scale(params, DEFAULT_DX, x_max).G
            assert G.values[0] == pytest.approx(-0.248, abs=1e-3)

    def test_rising_tail_is_a_short_domain(self):
        # synthetic |G|: decays, then rises over the last 10% band above the
        # maximum of the band before it
        x = np.linspace(0.0, 20.0, 1001)
        g = -np.exp(-0.5 * x)
        g[900:] = -np.linspace(1.0, 2.0, 101) * abs(g[800])
        with pytest.raises(DomainTooShortError, match="not decaying") as err:
            _check_G_decay(g, 20.0, 0.0)
        assert err.value.suggested_x_max == 1.5 * 20.0

    def test_grid_too_coarse_for_decay_check_is_numerics_error(self):
        # dx = 0.5 on [0, 0.6] leaves 2 nodes: the 80-90% band is empty
        with pytest.warns(UserWarning, match="recommended cap"):
            with pytest.raises(NumericsError, match="grid of 2 nodes"):
                solve_scale(make_params(penalty="constant"), 0.5, 0.6)

    def test_refinement_order_at_least_1_8(self):
        params = make_params(premium="constant", penalty="constant", k=1.0, q=0.0)
        xs = np.linspace(0.0, 15.0, 31)
        ref = closed_form_G_ruin_constant(params, xs)
        errs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for dxv in (0.02, 0.01, 0.005):
                errs.append(np.max(np.abs(compute_G(params, dxv, 100.0)(xs) - ref)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestTrapezoidConvolution:
    @pytest.mark.parametrize("mu_dx", [1e-4, 3e-3, 0.1, 1.0, 7.0, 50.0])
    def test_matches_reference_quadrature(self, mu_dx):
        """The FFT convolution against the node-by-node trapezoid sum of
        `_reference._trapezoid_convolution_at`, for the exponential density
        mu = 0.3 at step mu_dx / mu, on a W-like and a G-like input of 2 and
        3 nodes and of sizes whose padded length 2n - 1 falls either side of
        the FFT lengths 64 and 1024."""
        mu = 0.3
        dx = mu_dx / mu
        density = lambda y: mu * np.exp(-mu * np.asarray(y))
        for n in (2, 3, 32, 33, 512, 513):
            t = np.linspace(0.0, 1.0, n)
            x = dx * np.arange(n)
            for u in (np.exp(5.0 * t) * (1.0 + 0.1 * np.sin(40.0 * t)),
                      -np.exp(-3.0 * t) + 0.4 * np.cos(25.0 * t)):
                fft = _trapezoid_convolution(u, density(x), dx)
                m = GridFunction(0.0, dx, u)
                ref = np.array([_reference._trapezoid_convolution_at(m, density, y)
                                for y in m.x])
                gap = float(np.max(np.abs(fft - ref)))
                assert gap <= 1e-12 * float(np.max(np.abs(ref))), (n, gap)

    def test_in_place_arithmetic_is_the_expression(self):
        """The transforms' product and the end corrections run in place; the
        bits are those of ldexp(dx (full - 0.5 s_0 f - 0.5 s f_0), e)."""
        rng = np.random.default_rng(5)
        n, dx = 777, 0.01
        u, f = 1e5 * rng.normal(size=n), rng.uniform(size=n)
        e = int(np.frexp(np.max(np.abs(u)))[1])
        s = np.ldexp(u, -e)
        nfft = _fft_length(2 * n - 1)
        full = np.fft.irfft(np.fft.rfft(s, nfft) * np.fft.rfft(f, nfft), nfft)[:n]
        expected = np.ldexp(dx * (full - 0.5 * s[0] * f - 0.5 * s * f[0]), e)
        assert np.array_equal(_trapezoid_convolution(u, f, dx), expected)

    @pytest.mark.parametrize("peak", [1e302, 1e306, 3e307])
    def test_huge_input_stays_in_float_range(self, peak):
        """A positive, growing W-like and a mixed-sign G-like input, of unit
        peak and of peak `peak`, against the exponential density mu = 0.3 on
        33 334 nodes of step 0.005: the huge input's convolution is finite
        and equals `peak` times the unit one's."""
        n, mu, dx = 33334, 0.3, 0.005
        t = np.linspace(0.0, 1.0, n)
        f = mu * np.exp(-mu * dx * np.arange(n))
        for u in (np.exp(5.0 * t) * (1.0 + 0.1 * np.sin(40.0 * t)),
                  -np.exp(-3.0 * t) + 0.4 * np.cos(25.0 * t)):
            u = u / np.max(np.abs(u))
            small = _trapezoid_convolution(u, f, dx)
            huge = _trapezoid_convolution(peak * u, f, dx)
            assert np.all(np.isfinite(huge))
            assert np.max(np.abs(huge / peak - small)) <= 1e-12 * np.max(np.abs(small))


class TestDiagnostics:
    @pytest.mark.parametrize("which,value", [(w, v) for w, spec in SWEEPS.items()
                                             for v in spec.values])
    def test_residual_W_at_round_off_on_sweeps(self, which, value, table_solutions):
        scale, _ = table_solutions(which, value)
        assert scale.diagnostics["residual_W"] <= 1e-12

    def test_residuals_tiny(self):
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        sol = solve_scale(params, 0.005, 50.0)
        assert sol.diagnostics["residual_W"] < 1e-6
        assert sol.diagnostics["residual_G"] < 1e-6
        assert sol.diagnostics["W_prime_positive"]
        assert sol.diagnostics["one_minus_G_prime_positive"]

    def test_g_decay_diagnostic(self):
        params = make_params(penalty="constant", k=1.0)
        sol = solve_scale(params, 0.01, 60.0)
        absg = np.abs(sol.G.values)
        n = absg.size
        assert absg[int(0.9 * n):].max() <= absg[int(0.8 * n):int(0.9 * n)].max()

    def test_w_prime_violation_is_flagged_not_clipped(self):
        # q=0 constant premium: W' decays to ~0 and march noise flips its sign
        params = make_params(premium="constant", penalty="constant", k=1.0, q=0.0)
        with pytest.warns(UserWarning, match="W' <= 0") as record:
            sol = solve_scale(params, 0.005, 120.0)
        assert not any("decrease dx" in str(w.message) for w in record)  # within the cap
        assert not sol.diagnostics["W_prime_positive"]
        assert "W_prime_first_violation_x" in sol.diagnostics
        # flagged, not clipped: negative samples survive
        assert np.min(sol.W.derivative_values) < 0

    def test_one_minus_g_prime_violation_is_flagged(self):
        # a penalty of 20 on a premium of 1: G'(0) = 1.186, so 1 - G' < 0 at 0
        params = make_params(premium="constant", penalty="constant", k=20.0)
        with pytest.warns(UserWarning, match=r"1 - G' <= 0 at x=0 "):
            sol = solve_scale(params, 0.005, 100.0)
        assert sol.G.derivative_values[0] == pytest.approx(1.186, abs=1e-3)
        assert not sol.diagnostics["one_minus_G_prime_positive"]
        assert sol.diagnostics["G_prime_first_violation_x"] == 0.0
        assert sol.diagnostics["W_prime_positive"]
        assert find_barrier(sol).a_star == pytest.approx(8.366, abs=1e-3)

    def test_w_prime_violation_on_under_resolved_grid_names_the_remedy(self):
        # mean claim 1e-4 puts the step cap at 1e-6; at dx 0.005, mu dx = 50
        params = make_params(premium="constant", c=1.5, claim_mu=1e4)
        with pytest.warns(UserWarning, match="recommended cap"), \
                pytest.warns(UserWarning, match="W' <= 0") as record:
            solve_scale(params, 0.005, 30.0)
        [msg] = [str(w.message) for w in record if "W' <= 0" in str(w.message)]
        for part in ("dx=0.005", "step cap 0.01·min(1/lambda, mean claim) = 1e-06",
                     "mu·dx = 50", "decrease dx"):
            assert part in msg


class TestRescaling:
    # growth rate ~ (lam+q)/c is huge for a small constant premium
    FAST = ModelParams(PremiumModel.constant(0.01), ClaimModel.exponential(0.5),
                       PenaltyModel.zero(), lam=5.0, q=1.0)

    def test_rescale_survives_within_float_range(self):
        W = compute_W(self.FAST, 0.001, 1.1)
        assert W.values[0] == 1.0
        assert np.all(np.isfinite(W.values))
        assert W.values[-1] > 1e150  # past the reference march's rescale threshold

    @pytest.mark.parametrize("x_max", [2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("claim", ["exponential", "tabulated"])
    def test_overflow_reports_largest_safe_domain(self, claim, x_max):
        params = self.FAST if claim == "exponential" else dataclasses.replace(
            TestBlockedMarchOracle.params_and_grid("fast_growth_rescales")[0],
            penalty=PenaltyModel.zero())
        with pytest.raises(OverflowDomainError) as err:
            compute_W(params, 0.001, x_max)
        safe = err.value.largest_safe_x_max
        assert safe is not None and 0.5 < safe < x_max
        W = compute_W(params, 0.001, 0.95 * safe)  # reported bound is usable
        assert np.all(np.isfinite(W.values)) and np.all(np.isfinite(W.derivative_values))

    def test_tabulated_hint_reaches_the_last_representable_node(self):
        # the blocked march keeps the rows of a block before its first
        # non-finite one, so the hint is the reference's last node with
        # |W| <= e^703 before W' overflows, not the start of that block
        params = dataclasses.replace(
            TestBlockedMarchOracle.params_and_grid("fast_growth_rescales")[0],
            penalty=PenaltyModel.zero())
        dx, x_max = 0.001, 2.0
        with pytest.raises(OverflowDomainError) as err:
            compute_W(params, dx, x_max)
        safe = err.value.largest_safe_x_max
        x, p_vals, f_vals = _grid_with_density(params, dx, x_max)
        ur, dr, Lr = _reference.volterra_march(p_vals, f_vals, params.lam, params.q,
                                               dx, 1.0, None)
        with np.errstate(divide="ignore"):
            log_w, log_d = np.log(np.abs(ur)) + Lr, np.log(np.abs(dr)) + Lr
        first = int(np.argmax((log_w > 708.0) | (log_d > math.log(np.finfo(float).max))))
        last_safe = x[np.flatnonzero(log_w[:first] <= 703.0)[-1]]
        assert safe >= 1.13
        assert safe == pytest.approx(last_safe, abs=1.5 * dx)

    @pytest.mark.parametrize("x_max", [1.138, 1.14, 1.144])
    def test_overflowing_derivative_is_overflow_error(self, x_max):
        # W itself is below e^708 up to x_max, W' = (lam + q)/c W ~ 600 W is not
        with pytest.raises(OverflowDomainError) as err:
            compute_W(self.FAST, 0.001, x_max)
        assert err.value.largest_safe_x_max < x_max


class TestTabulatedClaim:
    @staticmethod
    def discretized_exponential(mu=0.3, dx=0.02, end=50.0):
        ys = dx * np.arange(int(end / dx) + 1)
        f = mu * np.exp(-mu * ys)
        f /= np.trapezoid(f, dx=dx)
        return ClaimModel.tabulated(0.0, dx, f)

    def test_full_pipeline_matches_exponential(self):
        # discretizing the density must not move the located barrier much
        exp_params = make_params(penalty="constant", k=1.0)
        tab_params = ModelParams(exp_params.premium, self.discretized_exponential(),
                                 exp_params.penalty, lam=0.1, q=0.05)
        a_exp = find_barrier(solve_scale(exp_params, 0.02, 60.0)).a_star
        a_tab = find_barrier(solve_scale(tab_params, 0.02, 60.0)).a_star
        assert a_tab == pytest.approx(a_exp, abs=0.3)

    def test_gerber_simulation_consistent(self):
        from dividend_opt import SimulationConfig, simulate_gerber_shiu

        exp_params = make_params(penalty="constant", k=1.0)
        tab_params = ModelParams(exp_params.premium, self.discretized_exponential(),
                                 exp_params.penalty, lam=0.1, q=0.05)
        config = SimulationConfig(paths=3000, horizon=250.0, seed=51)
        e1 = simulate_gerber_shiu(exp_params, 2.0, config)
        e2 = simulate_gerber_shiu(tab_params, 2.0, config)
        combined = math.hypot(e1.std_error, e2.std_error)
        assert abs(e1.mean - e2.mean) <= 4.0 * combined


class TestClosedFormLinear:
    def test_boundary_values(self, table1_q05):
        assert closed_form_W_linear(table1_q05, 0.0) == pytest.approx(1.0, rel=1e-12)
        h = 1e-6
        fd = (closed_form_W_linear(table1_q05, h)
              - closed_form_W_linear(table1_q05, 0.0)) / h
        assert fd == pytest.approx(0.15, rel=1e-5)

    def test_rejects_wrong_families(self):
        with pytest.raises(ValueError):
            closed_form_W_linear(make_params(premium="constant"), 1.0)
        with pytest.raises(ValueError):
            closed_form_W_linear(make_params(q=0.0, eps=0.0, premium="linear"), 1.0)

    def test_huge_prefactor_exponent_solves(self):
        # (lam+q)/eps = 150 000 and z0 = mu c/eps = 12 000: c^150000 and the
        # Kummer values lie far outside float range, but not the normalised form
        params = make_params(c=40.0, eps=0.001)
        assert closed_form_W_linear(params, 0.0) == 1.0
        W = compute_W(params, 0.005, 30.0)
        xs = np.linspace(0.0, 30.0, 61)
        ref = closed_form_W_linear(params, xs)
        assert np.max(np.abs(W(xs) - ref) / np.abs(ref)) < 1e-6

    def test_integer_b_column(self):
        # q=0.04 makes b = (lam+q)/eps + 1 = 8 an integer, where U is the
        # limit of its connection formula through two M series
        params = make_params(q=0.04)
        W = compute_W(params, 0.005, 20.0)
        xs = np.linspace(0.0, 20.0, 41)
        ref = closed_form_W_linear(params, xs)
        assert np.max(np.abs(W(xs) - ref) / np.abs(ref)) < 1e-4


class TestMarchChunks:
    """`_march_chunks`: every chunk end holds the march's first nodes exactly
    as the march to the last node computes them, for both kernels, and it
    is the first end at or past the node count asked for; the inputs are
    evaluated up to that end only, to the values at the whole grid's nodes."""

    @pytest.mark.parametrize("claim", ["exponential", "tabulated"])
    @pytest.mark.parametrize("penalty", [PenaltyModel.zero(), PenaltyModel.linear(1.0, 0.5)])
    def test_prefix_at_every_chunk_end_is_the_march_to_the_end(self, claim, penalty):
        params = dataclasses.replace(SWEEP1_Q05, penalty=penalty)
        if claim == "tabulated":
            params = dataclasses.replace(params, claim=erlang2_claim(0.01))
        x = grid_nodes(params, DEFAULT_DX, default_x_max(params))
        c_end = 1.0 / params.premium.p(x)
        omega = None if penalty.is_zero else omega_eval(params, x)
        u_end, d_end = _march(_MarchInputs(params, DEFAULT_DX, default_x_max(params)))
        if claim == "tabulated":  # super-block ends
            def end_at(want):
                return _SUPER * math.ceil(want / _SUPER)
        else:  # block ends of the march to the end
            B = _scan_block(x.size)

            def end_at(want):
                return 1 + B * math.ceil((want - 1) / B)
        want, ends = 2500, []
        inputs = _MarchInputs(params, DEFAULT_DX, default_x_max(params))
        chunks = _march_chunks(inputs, want)
        k, u, d = next(chunks)
        while True:
            ends.append(k)
            assert k == min(end_at(want), x.size) == inputs.done
            assert np.array_equal(u[:k], u_end[:k]) and np.array_equal(d[:k], d_end[:k])
            assert np.array_equal(inputs.c[:k], c_end[:k])
            assert omega is None or np.array_equal(inputs.omega[:k], omega[:k])
            if k == x.size:
                break
            want = k + 700 + 300 * len(ends)
            k, u, d = chunks.send(want)
        assert len(ends) > 10


class TestSecondDerivative:
    """`_second_derivative`, the ODE p u'' = k u' + mu q u of exponential
    claims, against central differences of the march's own derivative
    samples: the two agree to the march's second order."""

    @staticmethod
    def gaps(params, dx):
        scale = solve_scale(params, dx, 60.0)
        out = []
        for f in (scale.W, scale.G):
            if not np.any(f.values):
                continue
            ode = _second_derivative(params, f.x, f.values, f.derivative_values)[1:-1]
            central = (f.derivative_values[2:] - f.derivative_values[:-2]) / (2.0 * dx)
            out.append(float(np.max(np.abs(ode - central) / np.max(np.abs(ode)))))
        return np.array(out)

    @pytest.mark.parametrize("which, value", [(1, 0.05), (4, 0.005)])
    @pytest.mark.parametrize("penalty", [PenaltyModel.zero(), PenaltyModel.constant(1.0),
                                         PenaltyModel.linear(1.0, 0.5)])
    def test_ode_against_central_differences(self, which, value, penalty):
        params = dataclasses.replace(SWEEPS[which].model_for(value), penalty=penalty)
        coarse, fine = self.gaps(params, 0.01), self.gaps(params, 0.005)
        assert coarse.size == (1 if penalty.is_zero else 2)  # W, and G when penalised
        assert np.all(fine < 1e-4)
        assert np.all((3.8 < coarse / fine) & (coarse / fine < 4.2))
