import dataclasses

import numpy as np
import pytest

from dividend_opt import (GridFunction, NumericsError, PenaltyModel,
                          barrier_solution_at, find_barrier, solve_scale,
                          verify_optimality)
from dividend_opt.hjb import residual_profile
from dividend_opt.model import omega_eval
from dividend_opt.scale import _trapezoid_convolution
from dividend_opt.tables import SWEEPS, locate_barrier
from conftest import make_params


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

