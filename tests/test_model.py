import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from dividend_opt import (ClaimModel, ConfigError, FlowSolver, ModelParams,
                          ModelValidationError, PenaltyModel, PremiumModel,
                          omega_eval, params_from_dict, params_to_dict,
                          penalty_envelope, validate_model)
from dividend_opt._reference import omega_quadrature
from dividend_opt.model import _OMEGA_BLOCK
from dividend_opt.scale import _grid_arrays
from dividend_opt.tables import DEFAULT_DX, default_x_max
from conftest import (CONFIG_DOCS, erlang2_claim, make_params, run_python,
                      shifted_exponential_claim, tabulated_penalty)


# (constructor, arguments, the field its ConfigError must name)
BAD_FIELDS = [
    (PremiumModel.constant, (math.nan,), "c"),
    (PremiumModel.constant, (True,), "c"),
    (PremiumModel.constant, ("1.5",), "c"),
    (PremiumModel.linear, (1.0, math.nan), "epsilon"),
    (PremiumModel.rational, (math.inf,), "c"),
    (PremiumModel.tabulated, ([0.0, 1.0], [1.0, math.nan]), "p"),
    (PremiumModel.tabulated, ([0.0, 1.0], [1.0, "abc"]), "p"),
    (PremiumModel.tabulated, ([0.0, True], [1.0, 1.0]), "x"),
    (ClaimModel.exponential, (math.inf,), "mu"),
    (ClaimModel.exponential, (False,), "mu"),
    (ClaimModel.tabulated, (-math.inf, 0.5, [1.0, 1.0, 1.0]), "x0"),
    (ClaimModel.tabulated, (0.0, math.nan, [1.0, 1.0, 1.0]), "dx"),
    (ClaimModel.tabulated, (0.0, 0.5, [1.0, math.nan, 1.0]), "density"),
    (PenaltyModel.constant, (math.nan,), "k"),
    (PenaltyModel.constant, (True,), "k"),
    (PenaltyModel.linear, (1.0, math.inf), "beta"),
    (PenaltyModel.linear, (-math.inf, 0.5), "k"),
    (PenaltyModel.tabulated, ([-2.0, -1.0], [math.nan, -1.0]), "w"),
    (make_params, ("linear", 0.3, "zero", True), "lambda"),
    (make_params, ("linear", 0.3, "zero", 0.1, math.inf), "q"),
]


class TestFamilies:
    def test_premium_positivity_enforced(self):
        with pytest.raises(ConfigError):
            PremiumModel.constant(0.0)
        with pytest.raises(ConfigError):
            PremiumModel.constant(-1.0)
        with pytest.raises(ConfigError):
            PremiumModel.tabulated([0, 1, 2], [1.0, -0.5, 2.0])

    def test_tabulated_premium_monotone_enforced(self):
        with pytest.raises(ConfigError):
            PremiumModel.tabulated([0, 1, 2], [1.0, 2.0, 1.5])
        up = PremiumModel.tabulated([0, 1, 2], [1.0, 1.5, 2.0])
        down = PremiumModel.tabulated([0, 1, 2], [2.0, 1.5, 1.0])
        assert up.p(0.5) == pytest.approx(1.25)
        assert down.p(1.5) == pytest.approx(1.25)

    def test_tabulated_samples_are_copied_not_frozen(self):
        xs, ps = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.5, 2.0])
        prem = PremiumModel.tabulated(xs, ps)
        xs[0] = ps[0] = -1.0  # the caller's arrays stay writable
        assert prem.xs[0] == 0.0 and prem.ps[0] == 1.0
        assert not prem.xs.flags.writeable

    def test_tabulated_premium_held_beyond_both_end_knots(self):
        # p, p' and the flow's travel time follow one law: flat at the end
        # values outside [1, 3], linear between the knots
        prem = PremiumModel.tabulated([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        solver = FlowSolver(prem)
        for x, p, slope in ((0.0, 1.0, 0.0), (0.5, 1.0, 0.0), (1.5, 1.5, 1.0),
                            (2.5, 3.0, 2.0), (3.5, 4.0, 0.0), (1e6, 4.0, 0.0)):
            assert prem.p(x) == p and prem.p_prime(x) == slope
        assert np.array_equal(prem.p_prime(np.array([0.5, 1.5, 3.5])), [0.0, 1.0, 0.0])
        assert solver.travel_time(0.0, 0.5) == pytest.approx(0.5 / 1.0, rel=1e-15)
        assert solver.travel_time(3.5, 10.0) == pytest.approx(6.5 / 4.0, rel=1e-15)
        assert solver.travel_time(0.0, 10.0) == pytest.approx(
            1.0 + math.log(2.0) + math.log(2.0) / 2.0 + 7.0 / 4.0, rel=1e-14)

    def test_tabulated_concavity_includes_the_held_ends(self):
        # unevenly spaced concave samples; a table flat before a first knot
        # above 0 or after a falling last segment has a convex kink
        assert PremiumModel.tabulated([0.0, 10.0, 2000.0], [1.0, 1.2, 1.5]).concave
        assert not PremiumModel.tabulated([0.0, 1.0, 2.0], [2.0, 1.5, 1.0]).concave
        assert not PremiumModel.tabulated([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).concave

    def test_exponential_claim_density_cdf(self):
        cl = ClaimModel.exponential(0.3)
        ys = np.linspace(0, 20, 50)
        assert np.allclose(cl.density(ys), 0.3 * np.exp(-0.3 * ys))
        assert np.allclose(cl.cdf(ys), 1 - np.exp(-0.3 * ys))
        assert cl.mean() == pytest.approx(1 / 0.3)
        assert cl.density_convex and cl.density_decreasing

    def test_tabulated_claim_density_shape_flags(self):
        # the Erlang-2 density rises to its mode and bends; a sampled
        # exponential density is decreasing and convex
        erlang = erlang2_claim(0.01)
        assert not erlang.density_convex and not erlang.density_decreasing
        dx = 0.01
        f = 0.3 * np.exp(-0.3 * dx * np.arange(10001))
        sampled = ClaimModel.tabulated(0.0, dx, f / np.trapezoid(f, dx=dx))
        assert sampled.density_convex and sampled.density_decreasing

    def test_tabulated_claim_mass_check(self):
        dx = 0.01
        ys = dx * np.arange(1001)
        f = 0.5 * np.exp(-0.5 * ys)
        f /= np.trapezoid(f, dx=dx)
        cl = ClaimModel.tabulated(0.0, dx, f)
        # the grid truncates the tail at y=10, pulling the mean below 2
        assert abs(cl.mean() - 2.0) < 0.1
        with pytest.raises(ConfigError):
            ClaimModel.tabulated(0.0, dx, 2 * f)

    def test_claim_cdf_monotone(self):
        dx = 0.02
        ys = dx * np.arange(501)
        f = np.exp(-ys)
        f /= np.trapezoid(f, dx=dx)
        cl = ClaimModel.tabulated(0.0, dx, f)
        cdf = cl.cdf(ys)
        assert np.all(np.diff(cdf) >= 0)
        assert cl.cdf(ys[-1] + 1.0) == 1.0

    def test_penalty_sign_enforced(self):
        with pytest.raises(ConfigError):
            PenaltyModel.constant(-1.0)
        with pytest.raises(ConfigError):
            PenaltyModel.tabulated([-2.0, -1.0], [0.5, -0.5])
        pen = PenaltyModel.linear(1.0, 0.5)
        assert pen.w(-2.0) == pytest.approx(-2.0)

    def test_model_params_invariants(self):
        with pytest.raises(ConfigError):
            make_params(lam=0.0)
        with pytest.raises(ConfigError):
            make_params(q=-0.1)

    @pytest.mark.parametrize("field", ["lam", "q"])
    def test_nan_rates_rejected(self, field):
        with pytest.raises(ConfigError):
            make_params(**{field: math.nan})

    @pytest.mark.parametrize("build, args, field", BAD_FIELDS,
                             ids=[f"{b.__qualname__}{a}" for b, a, _ in BAD_FIELDS])
    def test_non_finite_bool_and_non_numeric_fields_rejected(self, build, args, field):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            build(*args)

    def test_tabulated_claim_with_offset_grid_is_one_distribution(self):
        # a shifted exponential on [1, 21]: no mass below x0 = 1
        cl = shifted_exponential_claim()
        assert cl.cdf(cl.support_end) == 1.0
        assert cl.cdf(0.999) == 0.0
        us = (np.arange(200000) + 0.5) / 200000
        assert float(np.mean(cl.ppf(us))) == pytest.approx(cl.mean(), abs=1e-4)
        assert cl.mean() == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("claim", ["shifted_exponential", "erlang2"])
    def test_tabulated_claim_ppf_inverts_cdf(self, claim):
        cl = (shifted_exponential_claim() if claim == "shifted_exponential"
              else erlang2_claim(0.01))
        # nodes, midpoints and points off the grid; where f < 1e-3 one ulp of
        # u moves y by more than 1e-12, so the round trip is ill-conditioned
        ys = np.linspace(cl.x0, cl.support_end, 8001)[1:-1]
        ys = ys[cl.density(ys) >= 1e-3]
        assert ys.size > 1000
        assert np.max(np.abs(cl.ppf(cl.cdf(ys)) - ys)) <= 1e-12
        assert cl.ppf(0.0) == cl.x0 and cl.cdf(cl.x0) == 0.0

    @pytest.mark.parametrize("claim", ["shifted_exponential", "erlang2"])
    def test_tabulated_claim_mean_is_first_tail_moment(self, claim):
        from scipy.integrate import simpson

        cl = (shifted_exponential_claim() if claim == "shifted_exponential"
              else erlang2_claim(0.01))
        # Simpson on half cells is exact for the cell-wise quadratic z f(z)
        zs = np.linspace(cl.x0, cl.support_end, 2 * (cl.f_vals.size - 1) + 1)
        fz = cl.density(zs)
        mean = simpson(zs * fz, x=zs) / simpson(fz, x=zs)
        assert cl.mean() == pytest.approx(mean, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("claim", ["shifted_exponential", "erlang2"])
    def test_tabulated_tails_are_the_plain_expressions(self, claim):
        # below the support's end the bits of `_tails`, which reads the
        # cell slopes derived once per claim, are those of the expressions,
        # at nodes, inside cells and below x0, and at and past the end both
        # tails are exactly 0 (the expressions leave round-off there), for
        # an array and for a 0-d input
        cl = (shifted_exponential_claim() if claim == "shifted_exponential"
              else erlang2_claim(0.01))
        ys = np.append(np.linspace(cl.x0 - 1.0, cl.support_end + 1.0, 7919), cl.support_end)
        f, dx = cl.f_vals, cl.dx
        y = np.minimum(np.maximum(ys, cl.x0), cl.support_end)
        j = np.minimum(((y - cl.x0) / dx).astype(np.intp), f.size - 2)
        g = cl._nodes[j]
        t = y - g
        fj = f[j]
        sj = (f[j + 1] - fj) / dx
        part0 = t * (fj + 0.5 * sj * t)
        part1 = g * part0 + t * t * (0.5 * fj + sj * t / 3.0)
        inside = ys < cl.support_end
        assert 0 < np.count_nonzero(~inside) < ys.size
        s0, s1 = cl._tails(ys)
        assert np.array_equal(s0, np.where(inside, cl._tail_vals[0, j] - part0, 0.0))
        assert np.array_equal(s1, np.where(inside, cl._tail_vals[1, j] - part1, 0.0))
        for i in (ys.size // 3, ys.size - 1):
            assert [float(s) for s in cl._tails(np.asarray(ys[i]))] == [s0[i], s1[i]]
        assert not np.any(cl._tails(ys[~inside])[0])

    def test_tabulated_claim_mass_below_grid_is_missing(self):
        # unit mass only when a box x0 * f[0] on [0, x0) is counted
        dx = 0.01
        ys = 1.0 + dx * np.arange(2001)
        f = np.exp(-(ys - 1.0))
        f /= np.trapezoid(f, dx=dx) + 1.0 * f[0]
        with pytest.raises(ConfigError, match="missing mass 0.49999"):
            ClaimModel.tabulated(1.0, dx, f)

    def test_import_does_not_load_scipy_integrate(self, tmp_path):
        # nor does validating a rational or a tabulated premium (closed forms,
        # no quadrature); a tabulated-claim solve loads no scipy.linalg: the
        # blocked march solves its triangular systems with numpy alone.  A
        # barrier / verify / simulate CLI session then loads no scipy or
        # mpmath module at all: both serve only the test oracles.  Nor does
        # it load `_reference`, which the oracle names of `dividend_opt`
        # load on first use.
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "premium": {"kind": "linear", "c": 1.0, "epsilon": 0.02},
            "claim": {"kind": "exponential", "mu": 0.3},
            "penalty": {"kind": "constant", "k": 1.0}, "lambda": 0.1, "q": 0.05}))
        out = tmp_path / "out"
        session = [["barrier", str(config), "--dx", "0.02", "--out", str(out / "b")],
                   ["verify", str(config), "--dx", "0.02", "--out", str(out / "v")],
                   ["simulate", str(config), "--x", "3.0", "--paths", "50",
                    "--horizon", "250", "--barrier-file", str(out / "b"),
                    "--out", str(out / "s")]]
        code = ("import contextlib, importlib.util, io, sys\n"
                "import numpy as np, dividend_opt as do, dividend_opt.cli as cli\n"
                "print('scipy.integrate' in sys.modules)\n"
                "for prem in (do.PremiumModel.rational(1.0),\n"
                "             do.PremiumModel.tabulated([0, 10, 100], [1.0, 1.2, 1.5])):\n"
                "    do.validate_model(do.ModelParams(prem, do.ClaimModel.exponential(0.3),\n"
                "                                     do.PenaltyModel.zero(), lam=0.1, q=0.05))\n"
                "print('scipy.integrate' in sys.modules)\n"
                "ys = 0.05 * np.arange(401)\n"
                "f = 0.36 * ys * np.exp(-0.6 * ys)\n"
                "claim = do.ClaimModel.tabulated(0.0, 0.05, f / np.trapezoid(f, dx=0.05))\n"
                "do.solve_scale(do.ModelParams(do.PremiumModel.linear(1.0, 0.02), claim,\n"
                "                              do.PenaltyModel.linear(1.0, 0.5),\n"
                "                              lam=0.1, q=0.05), 0.02, 60.0)\n"
                "print('scipy.linalg' in sys.modules)\n"
                f"for argv in {session!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert cli.main(argv) == 0, argv\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('scipy', 'mpmath')) == [])\n"
                "print(importlib.util.find_spec('dividend_opt.kummer') is None)\n"
                "print('dividend_opt._reference' in sys.modules)\n"
                "from dividend_opt import (closed_form_W_constant, closed_form_W_linear,\n"
                "                          closed_form_G_ruin_constant,\n"
                "                          barrier_boundary_identity)\n"
                "print('dividend_opt._reference' in sys.modules)\n"
                "print({'closed_form_W_constant', 'closed_form_W_linear',\n"
                "       'closed_form_G_ruin_constant',\n"
                "       'barrier_boundary_identity'} <= set(do.__all__))\n"
                "try:\n"
                "    do.no_such_name\n"
                "except AttributeError:\n"
                "    print(True)\n")
        assert run_python(code).split() == ["False", "False", "False", "True", "True",
                                            "False", "True", "True", "True"]


class TestOmega:
    def test_zero_penalty_gives_zero(self):
        params = make_params(penalty="zero")
        for x in (0.0, 1.0, 7.5):
            assert omega_eval(params, x) == 0.0

    def test_constant_penalty_closed_form(self):
        # w = -1: omega(x) = -(1 - F(x)) = -exp(-mu x)
        params = make_params(penalty="constant", k=1.0, beta=0.0)
        for x in (0.0, 0.7, 3.0):
            assert omega_eval(params, x) == pytest.approx(-math.exp(-0.3 * x), rel=1e-12)

    def test_linear_penalty_closed_form_vs_quadrature(self):
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        mu = 0.3
        x = 2.0
        expected = -math.exp(-mu * x) * (1.0 + 0.5 / mu)
        assert omega_eval(params, x) == pytest.approx(expected, rel=1e-12)
        brute, _ = quad(lambda z: (-1.0 + 0.5 * (x - z)) * mu * math.exp(-mu * z),
                        x, np.inf)
        assert omega_eval(params, x) == pytest.approx(brute, abs=1e-9)

    def test_omega_nonpositive_and_enveloped(self):
        params = make_params(penalty="linear", k=2.0, beta=1.0)
        env = penalty_envelope(params)
        for x in np.linspace(0.0, 30.0, 16):
            om = omega_eval(params, float(x))
            assert om <= 0.0
            surv = 1.0 - params.claim.cdf(x)
            assert abs(om) <= env * surv + 1e-12

    def test_envelope_memoryless_constant(self):
        params = make_params(penalty="linear", k=1.0, beta=0.5)
        assert penalty_envelope(params) == pytest.approx(1.0 + 0.5 / 0.3)

    def test_envelope_of_tabulated_claim_with_distant_mass(self):
        # three bumps: 0.985 of the mass on [0, 1], 0.012 at 50.5 and 0.003 at
        # 998.5 (mean 4.09); past the middle bump the mean residual life is
        # 998.5 - y, so the supremum is 1 + 947.5 at y = 51, far beyond
        # 10 x the mean, where sampling used to stop (it gave 240.1)
        f = np.zeros(2001)
        f[[1, 101, 1997]] = 2.0 * np.array([0.985, 0.012, 0.003])
        params = ModelParams(PremiumModel.constant(1.0), ClaimModel.tabulated(0.0, 0.5, f),
                             PenaltyModel.linear(1.0, 1.0), lam=0.1, q=0.05)
        assert penalty_envelope(params) == pytest.approx(948.5, rel=1e-12)

    def test_tabulated_envelope_where_the_mean_residual_life_falls(self):
        # Erlang-2 claims: the supremum is at y = 0, 1 + 0.5 E[C]
        for penalty, env in ((PenaltyModel.linear(1.0, 0.5), 2.6666716485429216),
                             (PenaltyModel.constant(1.0), 1.0)):
            params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                                 penalty, lam=0.1, q=0.05)
            assert penalty_envelope(params) == env

    def test_blocks_give_the_values_of_single_points(self):
        # omega_eval works through its nodes _OMEGA_BLOCK at a time: a value
        # on either side of a block edge is the one of its node alone, and a
        # 2-d input keeps its shape and values
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                             tabulated_penalty(), lam=0.1, q=0.05)
        x = np.linspace(0.0, 45.0, 2 * _OMEGA_BLOCK + 3)
        om = omega_eval(params, x)
        for i in (0, _OMEGA_BLOCK - 1, _OMEGA_BLOCK, 2 * _OMEGA_BLOCK, x.size - 1):
            assert om[i] == omega_eval(params, float(x[i]))
        grid = x[:2 * _OMEGA_BLOCK].reshape(2, _OMEGA_BLOCK).T
        assert np.array_equal(omega_eval(params, grid),
                              om[:2 * _OMEGA_BLOCK].reshape(2, _OMEGA_BLOCK).T)

    def test_working_set_within_three_floats_per_node(self):
        # the tabulated_cli model's omega on the 33 334 nodes of its solve:
        # the result and the temporaries of one block (1.9 floats per node).
        # The claim tails of all nodes at once go past the budget (12)
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                             PenaltyModel.linear(1.0, 0.5), lam=0.1, q=0.05)
        x = _grid_arrays(params, DEFAULT_DX, default_x_max(params))[0]
        assert x.size == 33334
        tracemalloc.start()
        try:
            omega_eval(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * x.size

    @pytest.mark.parametrize("penalty", ["linear", "constant", "tabulated"])
    def test_omega_is_zero_past_a_tabulated_support(self, penalty):
        # no claim reaches past the support's end, so omega is exactly 0 at
        # and past it; below the end a one-piece penalty's omega is the
        # expression in the per-node tails bit for bit (its other tails are
        # 0), and `TestOmegaOracle` checks the tabulated penalty there
        pen = {"linear": PenaltyModel.linear(1.0, 0.5), "constant": PenaltyModel.constant(1.0),
               "tabulated": tabulated_penalty()}[penalty]
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01), pen,
                             lam=0.1, q=0.05)
        x = _grid_arrays(params, DEFAULT_DX, default_x_max(params))[0]
        om = omega_eval(params, x)
        past = x >= params.claim.support_end
        assert np.count_nonzero(past) > 0.7 * x.size
        assert np.all(om[past] == 0.0)
        if penalty != "tabulated":
            ((a, b, _, _),) = pen._pieces()
            s0, s1 = params.claim._tails(x[~past])
            assert np.array_equal(om[~past],
                                  np.minimum((a + b * x[~past]) * s0 - b * s1, 0.0))

    def test_omega_evaluates_no_tail_past_the_support(self, monkeypatch):
        # the tabulated_cli model: 76 % of its nodes lie past the support,
        # and its one-piece penalty needs one tail per node below it
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                             PenaltyModel.linear(1.0, 0.5), lam=0.1, q=0.05)
        x = _grid_arrays(params, DEFAULT_DX, default_x_max(params))[0]
        sizes, tails = [], ClaimModel._tails
        monkeypatch.setattr(ClaimModel, "_tails",
                            lambda claim, y: sizes.append(np.size(y)) or tails(claim, y))
        omega_eval(params, x)
        assert sum(sizes) == np.count_nonzero(x < params.claim.support_end) < 0.25 * x.size

    def test_tabulated_penalty_quadrature(self):
        xs = np.linspace(-30.0, -1e-6, 400)
        pen = PenaltyModel.tabulated(xs, -np.minimum(1.0, -0.2 * xs))
        params = ModelParams(PremiumModel.constant(1.0), ClaimModel.exponential(0.3),
                             pen, lam=0.1, q=0.05)
        om = omega_eval(params, 1.0)
        assert om < 0.0
        assert abs(om) < 1.0  # |w| <= 1 so |omega| < survival < 1


PENALTIES = {
    "zero": PenaltyModel.zero(),
    "constant": PenaltyModel.constant(1.0),
    "linear": PenaltyModel.linear(1.0, 0.5),
    "tabulated": tabulated_penalty(),
}


class TestOmegaOracle:
    """The exact omega against `_reference.omega_quadrature`, node by node."""

    DX = 1.0 / 64.0

    @pytest.mark.parametrize("pen", sorted(PENALTIES))
    def test_tabulated_claims_match_simpson(self, pen):
        # tabulated knots half a cell off the claim grid, so that the tails
        # are evaluated inside cells as well as at nodes
        penalty = tabulated_penalty(0.5 * self.DX) if pen == "tabulated" else PENALTIES[pen]
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(self.DX),
                             penalty, lam=0.1, q=0.05)
        xs = self.DX * np.arange(0, 2561, 5)  # nodes on [0, 40]
        exact = omega_eval(params, xs)
        ref = np.array([omega_quadrature(params, float(x)) for x in xs])
        assert np.max(np.abs(exact - ref)) <= 1e-12
        assert exact[-1] == 0.0  # nothing beyond the support end

    @pytest.mark.parametrize("pen", ["linear", "tabulated"])
    def test_non_dyadic_grid_matches_simpson_on_and_off_nodes(self, pen):
        # the oracle splits at the kinks of f and of the penalty wherever
        # they fall, so it is exact up to rounding at nodes and between them
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                             PENALTIES[pen], lam=0.1, q=0.05)
        xs = np.concatenate((0.01 * np.arange(0, 4001, 7),
                             [0.0037, 1.23456, 7.77777, 19.995, 33.3333]))
        exact = omega_eval(params, xs)
        ref = np.array([omega_quadrature(params, float(x)) for x in xs])
        assert np.max(np.abs(exact - ref)) <= 1e-12

    def test_exponential_claims_tabulated_penalty_match_quad(self):
        params = ModelParams(PremiumModel.linear(1.0, 0.02), ClaimModel.exponential(0.3),
                             PENALTIES["tabulated"], lam=0.1, q=0.05)
        xs = 0.25 * np.arange(161)
        exact = omega_eval(params, xs)
        ref = np.array([omega_quadrature(params, float(x)) for x in xs])
        assert np.max(np.abs(exact - ref)) <= 1e-9

    @pytest.mark.parametrize("pen", ["constant", "linear"])
    def test_exponential_claims_match_closed_form(self, pen):
        params = make_params(penalty=pen, k=1.0, beta=0.5)
        xs = 0.01 * np.arange(4001)
        beta = params.penalty.beta
        closed = -(1.0 + beta / 0.3) * np.exp(-0.3 * xs)
        assert np.max(np.abs(omega_eval(params, xs) / closed - 1.0)) <= 1e-12

    @pytest.mark.parametrize("pen", ["constant", "linear", "tabulated"])
    @pytest.mark.parametrize("mu", [0.15, 0.3, 1.0])
    def test_exponential_claims_decay_like_the_claim_tail(self, pen, mu):
        # the deficit at ruin is Exp(mu) whatever the path before it, so
        # omega(x) = omega(0) e^{-mu x}: the exponential march relies on it
        params = ModelParams(PremiumModel.linear(1.0, 0.02), ClaimModel.exponential(mu),
                             PENALTIES[pen], lam=0.1, q=0.05)
        xs = np.linspace(0.0, 400.0, 4001)
        scaled = omega_eval(params, 0.0) * np.exp(-mu * xs)
        normal = np.abs(scaled) >= np.finfo(float).tiny
        rel = np.abs(omega_eval(params, xs[normal]) / scaled[normal] - 1.0)
        assert np.max(rel) <= 1e-12

    def test_array_matches_scalar_calls(self):
        params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                             PENALTIES["tabulated"], lam=0.1, q=0.05)
        xs = np.linspace(0.0, 45.0, 37)
        scalars = [omega_eval(params, float(x)) for x in xs]
        assert all(isinstance(v, float) for v in scalars)
        assert np.array_equal(omega_eval(params, xs), scalars)

    def test_negative_or_nan_x_rejected(self):
        params = make_params(penalty="constant")
        for x in (-0.5, math.nan, np.array([0.0, -1.0])):
            with pytest.raises(ValueError, match="x >= 0"):
                omega_eval(params, x)


class TestValidation:
    def test_constant_premium_passes_with_drift_margin(self):
        params = make_params(premium="constant")
        rep = validate_model(params)
        assert rep.passed
        assert rep.drift_x0 == 0.0
        # drift margin p - lam/mu = 1 - 1/3 > 0
        assert params.premium.c - params.lam * params.claim.mean() == pytest.approx(2 / 3)

    def test_table1_column_passes(self):
        rep = validate_model(make_params(q=0.025))
        assert rep.speed_pass and rep.passed

    def test_linear_speed_fails_when_slope_exceeds_discount(self):
        # closed-form flow makes e^{-qt} p(r_t) grow like e^{(eps-q)t}
        rep = validate_model(make_params(q=0.01, eps=0.02))
        assert not rep.speed_pass
        assert any("slope" in r for r in rep.reasons)

    def test_q_zero_with_linear_premium_raises(self):
        with pytest.raises(ModelValidationError):
            validate_model(make_params(q=0.0, eps=0.02))

    def test_q_zero_constant_premium_fails_speed_only(self):
        rep = validate_model(make_params(premium="constant", q=0.0))
        assert not rep.speed_pass
        assert rep.drift_pass and rep.penalty_pass

    def test_no_drift_detected(self):
        # constant premium below the claim outflow rate: R_t -> infinity fails
        rep = validate_model(make_params(premium="constant", c=0.2, lam=0.1,
                                         claim_mu=0.3))
        assert not rep.drift_pass

    def test_deterministic_reports(self):
        a = validate_model(make_params(premium="rational", q=0.01))
        b = validate_model(make_params(premium="rational", q=0.01))
        assert a == b

    @pytest.mark.parametrize("premium", ["linear", "constant", "rational", "tabulated"])
    def test_speed_bound_certifies(self, premium):
        if premium == "tabulated":  # knots end at 50: the flow from 100 starts past them
            xs = np.linspace(0.0, 50.0, 101)
            params = ModelParams(
                PremiumModel.tabulated(xs, 1.0 + 0.5 * (1.0 - np.exp(-xs / 10.0))),
                ClaimModel.exponential(0.3), PenaltyModel.zero(), lam=0.1, q=0.05)
        else:
            params = make_params(premium=premium, q=0.05, eps=0.02)
        A, B = validate_model(params).speed_bound
        # int_0^inf e^{-qt} p(r_t^x) dt along the exact flow, by the trapezoid
        # rule to a horizon where e^{-(q - eps) t} is e^{-27}
        ts = np.linspace(0.0, 900.0, 200001)
        solver = FlowSolver(params.premium)
        for x in (0.0, 1.0, 10.0, 100.0):
            integrand = np.exp(-0.05 * ts) * params.premium.p(solver.flow(x, ts))
            integral = np.trapezoid(integrand, ts)
            assert integral <= (A * x + B) * (1.0 + 1e-6)
            if premium in ("linear", "constant"):  # the bound is the integral
                assert integral == pytest.approx(A * x + B, rel=1e-6)

    def test_drift_x0_exact_at_a_crossing(self):
        rate = 0.1 / 0.3  # lam E[C]
        linear = validate_model(make_params(c=0.2, eps=0.02))
        assert linear.drift_pass
        assert linear.drift_x0 == pytest.approx((rate - 0.2) / 0.02, rel=1e-12)
        prem = PremiumModel.tabulated([0.0, 10.0, 2000.0], [0.2, 0.5, 1.5])
        tab = validate_model(ModelParams(prem, ClaimModel.exponential(0.3),
                                         PenaltyModel.zero(), lam=0.1, q=0.05))
        assert tab.drift_pass
        assert tab.drift_x0 == pytest.approx(10.0 * (rate - 0.2) / 0.3, rel=1e-12)
        assert prem.p(tab.drift_x0) == pytest.approx(rate, rel=1e-12)
        # held at 1.5 < lam E[C] = 2.5 beyond the last knot: no drift
        none = validate_model(ModelParams(prem, ClaimModel.exponential(0.04),
                                          PenaltyModel.zero(), lam=0.1, q=0.05))
        assert not none.drift_pass and none.drift_x0 == math.inf


class TestConfigSchema:
    DOC = {"premium": {"kind": "linear", "c": 1.0, "epsilon": 0.02},
           "claim": {"kind": "exponential", "mu": 0.3},
           "penalty": {"kind": "zero"}, "lambda": 0.1, "q": 0.05}

    def test_round_trip(self):
        params = params_from_dict(self.DOC)
        assert params.premium.kind == "linear"
        assert params.lam == 0.1
        assert params_from_dict(params_to_dict(params)) == params

    def test_unknown_keys_rejected(self):
        doc = dict(self.DOC)
        doc["extra"] = 1
        with pytest.raises(ConfigError):
            params_from_dict(doc)
        doc = {**self.DOC, "premium": {"kind": "linear", "c": 1.0,
                                       "epsilon": 0.02, "slope": 3}}
        with pytest.raises(ConfigError):
            params_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = {k: v for k, v in self.DOC.items() if k != "q"}
        with pytest.raises(ConfigError):
            params_from_dict(doc)

    @pytest.mark.parametrize("name", sorted(CONFIG_DOCS))
    def test_round_trip_every_kind(self, name):
        # compare dicts: dataclass == on the sample arrays would raise
        doc = json.loads(json.dumps(CONFIG_DOCS[name]))
        assert params_to_dict(params_from_dict(doc)) == CONFIG_DOCS[name]

    @pytest.mark.parametrize("doc, where", [
        ({**DOC, "premium": {"kind": "tabulated", "x": [0, 1, 2], "p": [1, 1.2]}},
         "tabulated premium fields 'x' and 'p'"),
        ({**DOC, "premium": {"kind": "tabulated", "x": [0, 2, 1], "p": [1, 1.2, 1.5]}},
         "tabulated premium grid"),
        ({**DOC, "claim": {"kind": "tabulated", "x0": 0, "dx": 1, "density": [1.0]}},
         "tabulated claim field 'density'"),
        ({**DOC, "claim": {"kind": "tabulated", "x0": 0, "dx": 0.5,
                           "density": [1.0, -0.5, 2.0, 1.0, 0.0]}},
         "claim density must be non-negative"),
        ({**DOC, "penalty": {"kind": "tabulated", "x": [-2, -1], "w": [-1.0]}},
         "tabulated penalty fields 'x' and 'w'"),
        ({**DOC, "penalty": {"kind": "tabulated", "x": [-1, 0], "w": [-1.0, -1.0]}},
         "tabulated penalty grid"),
        ({**DOC, "claim": {"kind": "exponential", "mu": 1e-320}}, "claim mean"),
        ([DOC], "configuration"),
    ], ids=["premium_lengths", "premium_x_not_increasing", "one_density_sample",
            "negative_density", "penalty_lengths", "penalty_x_not_negative",
            "infinite_claim_mean", "top_level_array"])
    def test_rejection_names_the_section(self, doc, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            params_from_dict(json.loads(json.dumps(doc)))

    def test_unknown_kind_rejected(self):
        doc = {**self.DOC, "claim": {"kind": "pareto", "alpha": 2.0}}
        with pytest.raises(ConfigError):
            params_from_dict(doc)
