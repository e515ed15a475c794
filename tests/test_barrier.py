import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from dividend_opt import (ClaimModel, DomainTooShortError, GridFunction,
                          ModelParams, NumericsError, PenaltyModel, PremiumModel,
                          barrier_boundary_identity, barrier_solution_at,
                          find_barrier, h_eval, solve_scale, value_function)
from dividend_opt import _reference, tables
from dividend_opt import scale as scale_module
from dividend_opt.barrier import h_grid
from dividend_opt.model import omega_eval
from dividend_opt.scale import ScaleSolution
from dividend_opt.tables import SWEEPS, default_x_max, locate_barrier
from conftest import erlang2_claim, make_params


def ode_barrier_oracle(params, x_hi=80.0):
    """Independent a* oracle: high-precision RK on the second-order ODE that
    the scale function satisfies for exponential claims, boundary slope from
    the defining relation, barrier from minimizing W' (zero penalty)."""
    mu = params.claim.mu
    lam, q = params.lam, params.q
    p = params.premium.p
    pp = params.premium.p_prime

    def rhs(x, y):
        return [y[1], -((mu * p(x) + pp(x) - (lam + q)) / p(x)) * y[1]
                + (mu * q / p(x)) * y[0]]

    sol = solve_ivp(rhs, (0.0, x_hi), [1.0, (lam + q) / p(0.0)],
                    dense_output=True, rtol=1e-11, atol=1e-13, max_step=0.5)
    wp = lambda x: float(sol.sol(x)[1])
    res = minimize_scalar(wp, bounds=(1e-6, x_hi - 1.0), method="bounded",
                          options={"xatol": 1e-9})
    return 0.0 if wp(0.0) <= res.fun else float(res.x)


class TestH:
    def test_zero_penalty_is_reciprocal_slope(self, scale_q05):
        for y in (1.0, 5.0, 12.0):
            assert h_eval(scale_q05, y) == pytest.approx(
                1.0 / scale_q05.W.derivative(y), rel=1e-12)

    def test_h_at_zero_constant_premium(self):
        # h(0+) = p(0)/(lam+q) since W'(0) = (lam+q)/p(0) and G = 0
        params = make_params(premium="constant")
        scale = solve_scale(params, 0.005, 30.0)
        assert h_eval(scale, 0.0) == pytest.approx(1.0 / 0.15, rel=1e-3)

    @pytest.mark.parametrize("which,value", [(1, 0.05), (4, 0.005), (6, 0.25)])
    def test_h_at_zero_is_the_exact_right_limit(self, which, value, table_solutions):
        # node 0 and h_eval(0) hold (1 - G'(0)) / W'(0) from the relation's own
        # slopes, which for a zero penalty is p(0) / (lam + q)
        scale, _ = table_solutions(which, value)
        params = scale.params
        exact = (1.0 - scale.G.derivative_values[0]) / scale.W.derivative_values[0]
        assert exact == pytest.approx(params.premium.p(0.0) / (params.lam + params.q),
                                      rel=1e-15)
        assert h_grid(scale)[0] == pytest.approx(exact, rel=1e-15)
        assert h_eval(scale, 0.0) == pytest.approx(exact, rel=1e-15)

    def test_table1_peak_location(self, table_solutions):
        scale, sol = table_solutions(1, 0.025)
        assert sol.a_star == pytest.approx(17.82, abs=0.1)
        ys = np.linspace(0.5, 40.0, 80)
        hs = [h_eval(scale, float(y)) for y in ys]
        assert max(hs) <= h_eval(scale, sol.a_star) + 1e-9


class TestFindBarrier:
    def test_matches_independent_ode_oracle_linear(self, table_solutions):
        _, sol = table_solutions(1, 0.05)
        assert sol.a_star == pytest.approx(ode_barrier_oracle(make_params()), abs=5e-3)

    def test_matches_independent_ode_oracle_rational(self, table_solutions):
        _, sol = table_solutions(4, 0.005)
        oracle = ode_barrier_oracle(SWEEPS[4].model_for(0.005))
        assert sol.a_star == pytest.approx(oracle, abs=5e-3)

    @pytest.mark.parametrize("which,value", [(w, v) for w, spec in SWEEPS.items()
                                             for v in spec.values])
    def test_refinement_matches_golden_section(self, which, value, table_solutions):
        scale, sol = table_solutions(which, value)
        h = h_grid(scale)
        k = int(np.nonzero(h >= h.max() - 1e-9 * abs(h.max()))[0][-1])
        if k == 0:
            assert sol.a_star == 0.0
            return
        x = scale.W.x
        golden, _ = _reference.golden_max(lambda y: h_eval(scale, y),
                                          float(x[k - 1]), float(x[k + 1]), 1e-9)
        assert abs(sol.a_star - golden) <= 1e-6
        assert 0.0 < sol.refinement_width <= 1e-6

    def test_refinement_to_zero_width_stops_at_float_resolution(self, scale_q05,
                                                                 barrier_q05):
        sol = find_barrier(scale_q05, refine_width=0.0)
        assert sol.refinement_width <= 1e-14
        assert abs(sol.a_star - barrier_q05.a_star) <= 1e-6

    def test_boundary_barrier_is_exact_zero(self, table_solutions):
        _, sol = table_solutions(5, 0.15)
        assert sol.a_star == 0.0
        assert sol.refinement_width == 0.0

    def test_domain_too_short_raises(self):
        params = make_params(q=0.025)  # a* ~ 17.8
        scale = solve_scale(params, 0.01, 10.0)
        with pytest.raises(DomainTooShortError):
            find_barrier(scale)

    def test_too_few_nodes_is_numerics_error(self):
        # dx = 0.5 on [0, 0.6] leaves 2 nodes: no interior node brackets a maximum
        with pytest.warns(UserWarning, match="recommended cap"):
            scale = solve_scale(make_params(), 0.5, 0.6)
        assert scale.W.n == 2
        with pytest.raises(NumericsError, match="at least 3"):
            find_barrier(scale)

    def test_locate_barrier_grows_domain_when_G_has_not_decayed(self):
        params = make_params(penalty="constant", k=1.0)
        with pytest.raises(DomainTooShortError) as err:
            solve_scale(params, 0.01, 15.0)
        assert err.value.suggested_x_max == pytest.approx(22.5)
        scale, sol = locate_barrier(params, dx=0.01, x_max=15.0)
        assert scale.domain_end == pytest.approx(22.5)
        direct = find_barrier(solve_scale(params, 0.01, 22.5))
        assert sol.a_star == direct.a_star

    def test_locate_barrier_at_a_given_barrier_grows_domain(self):
        # G of this model decays slowly: the default [0, 50] is too short
        params = make_params(premium="constant", claim_mu=1.0, penalty="constant",
                             lam=0.95, q=0.001)
        scale, sol = locate_barrier(params, barrier=3.0)
        assert scale.domain_end > 50.0
        assert sol.a_star == 3.0 and sol.refinement_width == 0.0
        direct = barrier_solution_at(solve_scale(params, 0.005, scale.domain_end), 3.0)
        assert sol.v_at_barrier == direct.v_at_barrier

    def test_locate_barrier_domain_reaches_past_a_given_barrier(self):
        params = make_params()  # mean claim 10/3, default domain 500/3
        scale, sol = locate_barrier(params, dx=0.01, barrier=200.0)
        assert scale.domain_end == pytest.approx(200.0 + 100.0 / 3.0, abs=0.01)
        assert sol.a_star == 200.0

    def test_locate_barrier_reraises_after_its_retries(self, monkeypatch):
        tried = []

        def short(params, dx, x_max):
            tried.append(x_max)
            raise DomainTooShortError(f"short at {x_max}", suggested_x_max=2.0 * x_max)

        monkeypatch.setattr(tables, "solve_scale", short)
        with pytest.raises(DomainTooShortError, match="short at 40.0"):
            locate_barrier(make_params(), x_max=10.0)
        assert tried == [10.0, 20.0, 40.0]  # _MAX_DOMAIN_RETRIES solves

    def test_run_sweep_marks_a_failed_column_nan(self, monkeypatch):
        spec = SWEEPS[1]
        failing = spec.values[1]
        located = tables.locate_barrier

        def locate(params, dx, x_max):
            if params.q == failing:
                raise NumericsError("march failed")
            return located(params, dx, x_max)

        monkeypatch.setattr(tables, "locate_barrier", locate)
        rows = tables.run_sweep(1)
        assert [r[0] for r in rows] == list(spec.values)
        for value, a, ref, diff, note in rows:
            if value == failing:
                assert math.isnan(a) and math.isnan(diff)
                assert (ref, note) == (spec.reference[1], "march failed")
            else:
                assert math.isfinite(a) and diff == abs(a - ref) and note == ""

    def test_flat_profile_returns_right_edge_of_flat_region(self):
        # synthetic scale data: h = 1/W' flat over an interior plateau
        dx = 0.01
        n = 1001
        wd = np.full(n, 0.25)
        wd[:300] = np.linspace(0.35, 0.25, 300)
        wd[700:] = np.linspace(0.25, 0.40, n - 700)
        w = np.concatenate(([1.0], 1.0 + np.cumsum(wd[1:]) * dx))
        W = GridFunction(0.0, dx, w, wd)
        G = GridFunction(0.0, dx, np.zeros(n), np.zeros(n))
        scale = ScaleSolution(make_params(), W, G, {})
        sol = barrier_solution_at(scale, 0.0)  # assembly works at the edge
        found = find_barrier(scale)
        assert found.a_star == pytest.approx(dx * 699, abs=2 * dx)

    def test_degenerate_slope_reported(self):
        dx = 0.01
        n = 501
        wd = np.linspace(0.3, -0.01, n)  # W' crosses zero: degenerate model
        w = np.concatenate(([1.0], 1.0 + np.cumsum(wd[1:]) * dx))
        W = GridFunction(0.0, dx, w, wd)
        G = GridFunction(0.0, dx, np.zeros(n), np.zeros(n))
        scale = ScaleSolution(make_params(), W, G, {})
        with pytest.raises(NumericsError, match="degenera"):
            find_barrier(scale)

    def test_under_resolved_stiff_kernel_is_not_degeneracy(self):
        # mean claim 1e-4 puts the step cap at 1e-6; at dx 0.005, mu dx = 50
        params = make_params(premium="constant", c=1.5, claim_mu=1e4)
        with pytest.warns(UserWarning, match="recommended cap"), \
                pytest.warns(UserWarning, match="W' <= 0"):
            scale = solve_scale(params, 0.005, 30.0)
        for locate in (find_barrier, lambda s: h_eval(s, 1.0)):
            with pytest.raises(NumericsError) as err:
                locate(scale)
            msg = str(err.value)
            assert "degeneracy" not in msg
            for part in ("dx=0.005", "step cap 0.01·min(1/lambda, mean claim) = 1e-06",
                         "mu·dx = 50", "decrease dx"):
                assert part in msg


def todays_rows(which, dx=tables.DEFAULT_DX, x_max=None):
    """A sweep's rows from one `locate_barrier` per column on the given
    domain, or on the default one: the rows of an uncertified column."""
    spec = SWEEPS[which]
    rows = []
    for value, ref in zip(spec.values, spec.reference):
        a = locate_barrier(spec.model_for(value), dx=dx, x_max=x_max)[1].a_star
        rows.append((value, a, ref, abs(a - ref), ""))
    return rows


class TestCertifiedSweep:
    """`run_sweep` with no x_max keeps the a* of [0, MIN_X_MAX] where the
    exact verdict certifies it, and otherwise reports the default domain's."""

    def test_certifies_28_of_29_columns(self, monkeypatch):
        verdicts, domains = [], []
        verdict, located = tables.exact_verdict, tables.locate_barrier

        def spy_verdict(*args):
            verdicts.append(verdict(*args))
            return verdicts[-1]

        def spy_locate(params, dx, x_max):
            domains.append(x_max)
            return located(params, dx, x_max)

        monkeypatch.setattr(tables, "exact_verdict", spy_verdict)
        monkeypatch.setattr(tables, "locate_barrier", spy_locate)
        for which in SWEEPS:
            tables.run_sweep(which)
        assert len(verdicts) == 29
        assert sum(v.optimal for v in verdicts) == 28
        assert domains.count(tables.MIN_X_MAX) == 29 and domains.count(None) == 1

    def test_certified_a_star_within_the_refinement_width(self, table_solutions):
        for which, spec in SWEEPS.items():
            for value, (_, a, *_) in zip(spec.values, tables.run_sweep(which)):
                default = table_solutions(which, value)[1].a_star
                assert abs(a - default) <= 1e-6, (which, value)

    def test_uncertified_row_is_the_default_domains(self):
        # sweep 6 at lambda = 0.25: (A - q) v reaches +2.7e-2 above a* = 0
        assert repr(tables.run_sweep(6)[4]) == repr(todays_rows(6)[4])

    @pytest.mark.parametrize("error", [DomainTooShortError("short", suggested_x_max=None),
                                       ValueError("need 0 < dx < x_max")])
    def test_failed_short_solve_falls_back(self, error, monkeypatch):
        # a short domain that stays too short after its retries, or a dx
        # too coarse for [0, MIN_X_MAX] but not for the default domain
        located = tables.locate_barrier

        def locate(params, dx, x_max):
            if x_max == tables.MIN_X_MAX:
                raise error
            return located(params, dx, x_max)

        monkeypatch.setattr(tables, "locate_barrier", locate)
        assert repr(tables.run_sweep(1)) == repr(todays_rows(1))

    @pytest.mark.parametrize("which, dx, x_max", [(1, tables.DEFAULT_DX, 40.0),
                                                  (6, 0.01, 60.0)])
    def test_explicit_domain_is_todays(self, which, dx, x_max, monkeypatch):
        def verdict(*args):
            raise AssertionError("an explicit domain takes no verdict")

        monkeypatch.setattr(tables, "exact_verdict", verdict)
        assert repr(tables.run_sweep(which, dx=dx, x_max=x_max)) == repr(
            todays_rows(which, dx, x_max))


class TestValueFunction:
    def test_linear_above_barrier(self, scale_q05, barrier_q05):
        a = barrier_q05.a_star
        va = barrier_q05.v_at_barrier
        for excess in (0.5, 3.0, 10.0):
            assert value_function(scale_q05, a, a + excess) == pytest.approx(
                va + excess, rel=1e-12)

    def test_smooth_pasting_any_barrier(self, scale_q05):
        for a in (2.0, 5.0, 9.0):
            sol = barrier_solution_at(scale_q05, a)
            assert sol.smooth_pasting_residual <= 1e-3
            # numerical slope across the barrier is 1 on both sides
            h = 1e-4
            left = (value_function(scale_q05, a, a)
                    - value_function(scale_q05, a, a - h)) / h
            assert left == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("x", [-1e-12, -3.0, [0.0, 2.0, -0.5]])
    def test_negative_capital_is_error(self, scale_q05, barrier_q05, x):
        with pytest.raises(ValueError, match="initial capital must be >= 0"):
            value_function(scale_q05, barrier_q05.a_star, x)

    def test_nondecreasing_and_dominates_lump(self, scale_q05, barrier_q05):
        a = barrier_q05.a_star
        xs = np.linspace(0.0, 25.0, 120)
        vals = value_function(scale_q05, a, xs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= xs - a - 1e-12)

    def test_slope_floor_below_barrier(self, barrier_q05):
        below = barrier_q05.v.x <= barrier_q05.a_star
        assert np.min(barrier_q05.v.derivative_values[below]) >= 1.0 - 1e-6

    def test_barrier_dominance_on_grid(self, scale_q05, barrier_q05):
        # v at the located barrier dominates every other barrier choice
        xs = np.linspace(0.0, 20.0, 41)
        v_star = value_function(scale_q05, barrier_q05.a_star, xs)
        for b in (1.0, 3.0, 731 * 0.005, 8.0, 12.0):
            vb = value_function(scale_q05, b, xs)
            assert np.all(v_star >= vb - 1e-9)

    def test_penalty_scaling_moves_h_monotonically(self):
        # h with penalty t*w lies pointwise between the t=0 and t=1 profiles
        from dividend_opt import PenaltyModel
        base = make_params(penalty="linear", k=1.0, beta=0.5)
        ys = np.linspace(0.5, 20.0, 25)
        profiles = {}
        for t in (0.0, 0.5, 1.0):
            pen = PenaltyModel.linear(t * 1.0, t * 0.5) if t else PenaltyModel.zero()
            scale = solve_scale(dataclasses.replace(base, penalty=pen), 0.01, 60.0)
            profiles[t] = np.array([h_eval(scale, float(y)) for y in ys])
        lo = np.minimum(profiles[0.0], profiles[1.0])
        hi = np.maximum(profiles[0.0], profiles[1.0])
        assert np.all(profiles[0.5] >= lo - 1e-9)
        assert np.all(profiles[0.5] <= hi + 1e-9)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -1.0])
    def test_bad_barrier_is_value_error(self, scale_q05, a):
        with pytest.raises(ValueError, match="barrier a must be"):
            value_function(scale_q05, a, 1.0)


class TestBoundaryIdentity:
    def test_residual_small_at_star(self, scale_q05, barrier_q05):
        r = barrier_boundary_identity(scale_q05, barrier_q05.a_star)
        p_at = scale_q05.params.premium.p(barrier_q05.a_star)
        assert abs(r) <= 1e-5 * p_at

    def test_residual_small_at_any_barrier(self, scale_q05):
        for a in (0.5, 3.0, 11.0):
            assert abs(barrier_boundary_identity(scale_q05, a)) < 1e-8

    def test_constant_premium_chain_at_zero(self):
        # v_0(0) = h(0) = p(0)/(lam+q); residual = p(0) - (lam+q) v_0(0) = 0
        params = make_params(premium="constant")
        scale = solve_scale(params, 0.005, 30.0)
        v00 = value_function(scale, 0.0, 0.0)
        assert v00 == pytest.approx(1.0 / 0.15, rel=1e-10)
        r = barrier_boundary_identity(scale, 0.0)
        assert r == pytest.approx(params.premium.c - 0.15 * v00, abs=1e-12)

    def test_off_node_barrier_uses_exact_value_at_barrier(self):
        # a = 0.81 lies between the dx 0.02 nodes, where the linear
        # interpolant of the assembled v misses v_a(a) by about 2e-8
        scale = TestBarrierCoefficientFold.tabulated_penalised_scale()
        a = 0.81
        sol = barrier_solution_at(scale, a)
        va, v_interp = sol.v_at_barrier, sol.v(a)
        assert abs(v_interp - va) > 1e-8
        r = barrier_boundary_identity(scale, a)
        assert r == barrier_boundary_identity(scale, a, v_at_barrier=va)
        lamq = scale.params.lam + scale.params.q
        shifted = barrier_boundary_identity(scale, a, v_at_barrier=v_interp) - r
        assert shifted == pytest.approx(-lamq * (v_interp - va), rel=1e-5)

    def test_perturbation_moves_residual_linearly(self, scale_q05, barrier_q05):
        a = barrier_q05.a_star
        base = barrier_boundary_identity(scale_q05, a)
        bumped = barrier_boundary_identity(scale_q05, a,
                                           v_at_barrier=barrier_q05.v_at_barrier + 1e-3)
        lamq = scale_q05.params.lam + scale_q05.params.q
        assert bumped - base == pytest.approx(-lamq * 1e-3, rel=1e-3)


class TestBarrierCoefficientFold:
    """`barrier_solution_at` and `value_function` take the pair
    (alpha, v_a(a)) from one helper, so they agree exactly."""

    @staticmethod
    def tabulated_penalised_scale():
        """Erlang-2 claims tabulated at dx 0.02 on [0, 40], linear penalty."""
        dx = 0.02
        ys = dx * np.arange(2001)
        f = 0.36 * ys * np.exp(-0.6 * ys)
        claim = ClaimModel.tabulated(0.0, dx, f / np.trapezoid(f, dx=dx))
        params = ModelParams(PremiumModel.linear(1.0, 0.02), claim,
                             PenaltyModel.linear(1.0, 0.5), lam=0.1, q=0.05)
        return solve_scale(params, dx, default_x_max(params))

    @pytest.mark.parametrize("model", ["linear", "tabulated"])
    def test_value_at_barrier_agrees_exactly(self, model, table_solutions):
        if model == "linear":
            scale, sol = table_solutions(1, 0.05)
        else:
            scale = self.tabulated_penalised_scale()
            sol = find_barrier(scale)
        x = scale.W.x
        for a in (0.0, sol.a_star, 0.5 * (float(x[40]) + float(x[41])), float(x[123])):
            sol_a = barrier_solution_at(scale, a)
            va, v = sol_a.v_at_barrier, sol_a.v
            assert value_function(scale, a, a) == va
            # on the grid nodes, a itself when it is one
            assert np.array_equal(v.values, value_function(scale, a, v.x))
            if a in (0.0, float(x[123])):
                assert v(a) == va


def penalised_models():
    """Sweep 1 at q = 0.05 with the linear penalty -1 + 0.5x, and the same
    premium and penalty with Erlang(2, 0.6) claims tabulated at dx 0.01 on
    [0, 40] (the tabulated_cli model of perfbench)."""
    penalty = PenaltyModel.linear(1.0, 0.5)
    return {"sweep1": dataclasses.replace(SWEEPS[1].model_for(0.05), penalty=penalty),
            "erlang2": ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                                   penalty, lam=0.1, q=0.05)}


@pytest.fixture(scope="module")
def penalised_solutions():
    return {name: locate_barrier(m) for name, m in penalised_models().items()}


class TestComputedOnFirstRead:
    """The residual diagnostics of a ScaleSolution and the value curve of a
    BarrierSolution are computed when first read, equal bit for bit to the
    formulas written out here, and cached."""

    @pytest.mark.parametrize("which", [1, 6])
    def test_run_sweep_computes_no_residual(self, which, monkeypatch):
        plain = tables.run_sweep(which, dx=0.02)

        def residual(*args, **kwargs):
            raise AssertionError("run_sweep computed a generator residual")

        monkeypatch.setattr(scale_module, "_generator_residual", residual)
        assert repr(tables.run_sweep(which, dx=0.02)) == repr(plain)

    @pytest.mark.parametrize("model", ["sweep1", "erlang2"])
    def test_nothing_built_before_the_first_read(self, model):
        scale, sol = locate_barrier(penalised_models()[model])
        assert "diagnostics" not in scale.__dict__
        assert "v" not in sol.__dict__
        assert scale.diagnostics is scale.diagnostics
        assert sol.v is sol.v

    @pytest.mark.parametrize("model", ["sweep1", "erlang2"])
    def test_diagnostics_equal_the_residual_formula(self, model, penalised_solutions):
        scale, _ = penalised_solutions[model]
        params, W, G, dx = scale.params, scale.W, scale.G, scale.dx
        x = dx * np.arange(W.n)
        p = np.asarray(params.premium.p(x), dtype=float)
        resid_w = scale_module._generator_residual(params, p, W.values,
                                                   W.derivative_values, dx)
        resid_g = scale_module._generator_residual(params, p, G.values,
                                                   G.derivative_values, dx,
                                                   omega_eval(params, x))
        gmax = float(np.max(np.abs(G.values)))
        expected = [
            ("residual_W", float(np.max(np.abs(resid_w))) / float(np.max(np.abs(W.values)))),
            ("W_prime_positive", bool(np.all(W.derivative_values > 0))),
            ("one_minus_G_prime_positive", bool(np.all(1.0 - G.derivative_values > 0))),
            ("residual_G", float(np.max(np.abs(resid_g))) / gmax),
            ("G_nonpositive", bool(np.all(G.values <= 1e-12 * gmax))),
        ]
        assert list(scale.diagnostics.items()) == expected

    @pytest.mark.parametrize("model", ["sweep1", "erlang2"])
    def test_diagnostics_transform_the_density_once(self, model, monkeypatch):
        # W's and G's residual share one sample of the claim density and its
        # transform; the test above checks them bit for bit against residuals
        # that sample and transform the density each on their own
        scale, _ = locate_barrier(penalised_models()[model])
        samples, rfft = [], np.fft.rfft
        kernel = scale_module._claim_kernel
        monkeypatch.setattr(scale_module, "_claim_kernel",
                            lambda *args: samples.append(args) or kernel(*args))
        transforms = []
        monkeypatch.setattr(np.fft, "rfft",
                            lambda *args: transforms.append(args) or rfft(*args))
        assert scale.diagnostics["residual_G"] > 0.0
        assert (len(samples), len(transforms)) == (1, 3)  # f, then W and G

    @pytest.mark.parametrize("model", ["sweep1", "erlang2"])
    def test_value_curve_equals_the_two_branch_formula(self, model, penalised_solutions):
        scale, sol = penalised_solutions[model]
        W, G, a = scale.W, scale.G, sol.a_star
        x = scale.dx * np.arange(W.n)
        alpha = (1.0 - G.derivative(a)) / W.derivative(a)
        va = alpha * W(a) + G(a)
        below = x <= a
        values = np.where(below, alpha * W.values + G.values, x - a + va)
        derivs = np.where(below, alpha * W.derivative_values + G.derivative_values, 1.0)
        assert sol.v_at_barrier == va
        assert np.array_equal(sol.v.values, values)
        assert np.array_equal(sol.v.derivative_values, derivs)
        assert (sol.v.x0, sol.v.dx) == (0.0, scale.dx)
