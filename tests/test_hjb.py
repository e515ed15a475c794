import dataclasses

import numpy as np
import pytest

from dividend_opt import (ClaimModel, GridFunction, ModelParams, NumericsError,
                          PenaltyModel, PremiumModel, barrier_solution_at, find_barrier,
                          solve_scale, verify_optimality)
from dividend_opt.hjb import exact_verdict, residual_profile
from dividend_opt.model import omega_eval
from dividend_opt.scale import _trapezoid_convolution
from dividend_opt.tables import SWEEPS, locate_barrier
from conftest import erlang2_claim, make_params


class TestResidualProfile:
    def test_kills_constants(self, table1_q05):
        # m = -2 everywhere, including the negative-axis extension w = -2,
        # so A m = 0 and (A - q) m = -q m at every node
        n = 2001
        m = GridFunction(0.0, 0.01, np.full(n, -2.0), np.zeros(n))
        params = dataclasses.replace(table1_q05, penalty=PenaltyModel.constant(2.0))
        prof = residual_profile(m, params)
        assert np.max(np.abs(prof.values + params.q * m.values)) < 1e-6

    def test_annihilates_W(self, scale_q05, table1_q05):
        # W vanishes on the negative axis: extend it by the zero penalty
        W = scale_q05.W
        params = dataclasses.replace(table1_q05, penalty=PenaltyModel.zero())
        prof = residual_profile(W, params)
        assert np.max(np.abs(prof.values)) <= 1e-6 * np.max(np.abs(W.values))

    def test_annihilates_G(self):
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        G = solve_scale(params, 0.005, 60.0).G
        prof = residual_profile(G, params)
        assert np.max(np.abs(prof.values)) <= 1e-6 * np.max(np.abs(G.values))

    def test_missing_derivatives_rejected(self, table1_q05):
        m = GridFunction(0.0, 0.01, np.ones(101))
        with pytest.raises(NumericsError, match="derivative samples"):
            residual_profile(m, table1_q05)


def test_residual_profile_matches_fft_convolution():
    """`residual_profile` assembles p v' + lam (conv + omega - v) - q v from
    the trapezoid convolution of v with the claim density, on sweep 1 at
    q = 0.05 with a constant penalty: in place, with the bits of that
    expression.  `verify_optimality` passes the omega of the solve, which
    gives the same profile."""
    params = dataclasses.replace(SWEEPS[1].model_for(0.05),
                                 penalty=PenaltyModel.constant(1.0))
    _, sol = locate_barrier(params)
    v = sol.v
    x = v.x
    conv = _trapezoid_convolution(v.values, params.claim.density(x), v.dx)
    fft = (params.premium.p(x) * v.derivative_values
           + params.lam * (conv + omega_eval(params, x) - v.values) - params.q * v.values)
    assert np.array_equal(residual_profile(v, params).values, fft)
    assert np.array_equal(verify_optimality(sol, params).residual_profile.values, fft)


class TestVerifyOptimality:
    def test_table1_instance_passes(self, table_solutions, table1_q05):
        _, sol = table_solutions(1, 0.05)
        report = verify_optimality(sol, table1_q05)
        assert report.necessary_sufficient_pass
        assert report.max_residual_above <= report.tolerance
        # exponential density convex, linear premium concave
        assert report.thm_convex_concave_pass is True
        assert report.thm_h_monotone_pass is True
        assert report.thm_decreasing_density_pass is True
        assert report.sanity_band_max < report.tolerance

    def test_rational_premium_decreasing_density_route(self, table_solutions):
        scale, sol = table_solutions(4, 0.01)
        report = verify_optimality(sol, scale.params)
        assert report.necessary_sufficient_pass
        # p' < 0 <= q + lam and the exponential density decreases
        assert report.thm_decreasing_density_pass is True
        # rational premium is convex, so the convex/concave route fails
        assert report.thm_convex_concave_pass is False

    def test_misset_barrier_fails_with_positive_residual(self, table_solutions,
                                                         table1_q05):
        scale, sol = table_solutions(1, 0.05)
        bad = barrier_solution_at(scale, sol.a_star / 2.0)
        report = verify_optimality(bad, table1_q05)
        assert not report.necessary_sufficient_pass
        assert report.max_residual_above > 10 * report.tolerance
        # the violation is a genuine region, not a single noisy node
        g = report.residual_profile
        above = g.x > bad.a_star
        assert np.count_nonzero(g.values[above] > report.tolerance) > 10

    def test_penalty_instance(self):
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        scale = solve_scale(params, 0.005, 60.0)
        sol = find_barrier(scale)
        report = verify_optimality(sol, params)
        assert report.necessary_sufficient_pass
        assert report.thm_decreasing_density_pass is None  # needs zero penalty

    def test_residual_zero_below_any_barrier(self, scale_q05, table1_q05):
        # v_a is a combination of W and G on (0, a) for ANY a
        for a in (3.0, 7.0):
            v = barrier_solution_at(scale_q05, a).v
            prof = residual_profile(v, table1_q05)
            inner = (prof.x > 0.05) & (prof.x < a - 0.05)
            vmax = float(np.max(np.abs(v.values)))
            assert np.max(np.abs(prof.values[inner])) < 1e-6 * (1 + vmax)

    def test_grid_must_reach_past_barrier(self, table1_q05):
        scale = solve_scale(table1_q05, 0.01, 8.0)
        sol = barrier_solution_at(scale, 5.0)  # < 5 mean claim sizes of headroom
        with pytest.raises(NumericsError, match="mean claim"):
            verify_optimality(sol, table1_q05)

    def test_pass_verdict_stable_under_refinement(self, table1_q05):
        for dxv in (0.01, 0.005):
            scale = solve_scale(table1_q05, dxv, 60.0)
            report = verify_optimality(find_barrier(scale), table1_q05)
            assert report.necessary_sufficient_pass

    def test_zero_penalty_value_nonnegative(self, barrier_q05):
        assert np.all(barrier_q05.v.values >= 0.0)

    def test_report_serializes(self, table_solutions, table1_q05):
        import json

        _, sol = table_solutions(1, 0.05)
        report = verify_optimality(sol, table1_q05)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["necessary_sufficient_pass"] is True
        assert set(doc) >= {"barrier", "max_residual_above", "tolerance"}



def closed_form_residual(params, a, V, L):
    """(A - q) v at x = a + L for v = V + L past a, exponential claims: the
    formula as written, with S = ((lam + q) V - p(a)) / lam."""
    lam, q, mu, p = params.lam, params.q, params.claim.mu, params.premium.p
    S = ((lam + q) * V - p(a)) / lam
    return p(a + L) - q * (V + L) + lam * (np.exp(-mu * L) * (S - V + 1.0 / mu) - 1.0 / mu)


class TestExactVerdict:
    """`exact_verdict`: the sup above a* of the closed-form (A - q) v."""

    @pytest.mark.parametrize("which, value", [(1, 0.05), (3, 0.2), (4, 0.005), (6, 0.2),
                                              (6, 0.25)])
    def test_sup_agrees_with_the_grid_residual(self, table_solutions, which, value):
        scale, sol = table_solutions(which, value)
        verdict = exact_verdict(scale.params, sol.a_star, sol.v_at_barrier)
        report = verify_optimality(sol, scale.params)
        assert abs(verdict.sup_residual - report.max_residual_above) <= 1e-5

    def test_verdict_is_the_grid_verdict_on_every_column(self, table_solutions):
        failing = []
        for which, spec in SWEEPS.items():
            for value in spec.values:
                scale, sol = table_solutions(which, value)
                verdict = exact_verdict(scale.params, sol.a_star, sol.v_at_barrier)
                report = verify_optimality(sol, scale.params)
                assert verdict.optimal == report.necessary_sufficient_pass, (which, value)
                if not verdict.optimal:
                    failing.append((which, value, verdict))
        # sweep 6 at lambda = 0.25: a* = 0 and (A - q) v peaks 9.46 past it
        [(which, value, verdict)] = failing
        assert (which, value) == (6, 0.25)
        assert verdict.sup_residual == pytest.approx(2.695e-2, abs=5e-6)
        assert verdict.at == pytest.approx(9.46, abs=5e-3)

    def test_penalised_model_agrees_with_the_grid(self):
        # the penalty enters r only through S, from the relation at a*
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        _, sol = locate_barrier(params)
        verdict = exact_verdict(params, sol.a_star, sol.v_at_barrier)
        report = verify_optimality(sol, params)
        assert verdict.optimal and report.necessary_sufficient_pass
        assert abs(verdict.sup_residual - report.max_residual_above) <= 1e-5

    def test_misset_barrier_fails(self, table_solutions):
        scale, sol = table_solutions(1, 0.05)
        bad = barrier_solution_at(scale, sol.a_star / 2.0)
        verdict = exact_verdict(scale.params, bad.a_star, bad.v_at_barrier)
        report = verify_optimality(bad, scale.params)
        assert not verdict.optimal and verdict.at > 0.0
        assert abs(verdict.sup_residual - report.max_residual_above) <= 1e-5

    @pytest.mark.parametrize("premium, a, q", [
        (PremiumModel.linear(1.0, 0.02), 5.0, 0.05),
        (PremiumModel.constant(1.5), 2.0, 0.05),
        (PremiumModel.rational(1.0), 0.0, 0.01),
        (PremiumModel.rational(1.0), 12.0, 0.01),
        (PremiumModel.tabulated([0.0, 10.0, 2000.0], [1.0, 1.2, 1.5]), 3.0, 0.05),
        # a knot piece of slope 0.5 > q just past the barrier
        (PremiumModel.tabulated([0.0, 5.0, 6.0, 50.0], [1.0, 1.0, 1.5, 1.6]), 2.0, 0.05),
    ])
    @pytest.mark.parametrize("V", [0.5, 5.0, 20.0, 120.0])
    def test_sup_bounds_a_dense_scan(self, premium, a, q, V):
        # the sup over the half-line is at least the largest value on a fine
        # grid of L and exceeds it by no more than the grid's step can hide;
        # r(at) is the sup and r(0) = 0
        params = ModelParams(premium, ClaimModel.exponential(0.3), PenaltyModel.zero(),
                             lam=0.25, q=q)
        verdict = exact_verdict(params, a, V)
        L = np.linspace(0.0, 600.0, 600001)
        r = closed_form_residual(params, a, V, L)
        scale = 1e-12 * (1.0 + np.max(np.abs(r[:2000])))
        assert abs(closed_form_residual(params, a, V, 0.0)) <= scale
        assert verdict.sup_residual >= r.max() - scale
        assert verdict.sup_residual <= r.max() + 1e-7
        assert closed_form_residual(params, a, V, verdict.at) == pytest.approx(
            verdict.sup_residual, abs=scale)
        assert verdict.tolerance == 1e-6 * (1.0 + V)

    @pytest.mark.parametrize("eps", [0.05, 0.08])
    def test_no_verdict_for_a_slope_of_at_least_q(self, eps):
        # eps > q: r grows without bound; eps = q: the value is infinite
        assert exact_verdict(make_params(eps=eps, q=0.05), 5.0, 20.0) is None

    def test_no_verdict_without_discounting(self):
        assert exact_verdict(make_params(premium="constant", q=0.0), 5.0, 20.0) is None

    def test_no_verdict_for_a_tabulated_claim(self):
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                             PenaltyModel.zero(), lam=0.1, q=0.05)
        assert exact_verdict(params, 5.0, 20.0) is None
