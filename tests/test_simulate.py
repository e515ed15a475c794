import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dividend_opt import (ClaimModel, FlowSolver, HorizonError, ModelParams,
                          ModelValidationError, NumericsError, PenaltyModel,
                          PremiumModel, SimulationConfig, simulate_gerber_shiu,
                          simulate_two_sided, simulate_value, value_function)
from dividend_opt.tables import locate_barrier
from dividend_opt import _reference, simulate
from conftest import make_params


def cfg(paths=2000, horizon=250.0, seed=3, barrier=None):
    return SimulationConfig(paths=paths, horizon=horizon, seed=seed, barrier=barrier)


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(paths=0, horizon=10.0, seed=1)
        with pytest.raises(ValueError):
            SimulationConfig(paths=10, horizon=-1.0, seed=1)
        with pytest.raises(ValueError):
            SimulationConfig(paths=10, horizon=10.0, seed=-2)
        with pytest.raises(ValueError):
            SimulationConfig(paths=10, horizon=10.0, seed=1, barrier=-1.0)

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("paths", 2.5),
                                             ("paths", True)])
    def test_non_integer_paths_or_seed_rejected(self, field, value):
        fields = {"paths": 10, "horizon": 10.0, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimulationConfig(**fields)

    def test_numpy_integers_accepted(self):
        config = SimulationConfig(paths=np.int32(10), horizon=10.0, seed=np.uint64(7))
        assert (config.paths, config.seed) == (10, 7)

    @pytest.mark.parametrize("barrier", [math.inf, math.nan])
    def test_non_finite_barrier_rejected(self, barrier):
        with pytest.raises(ValueError, match="barrier"):
            SimulationConfig(paths=10, horizon=10.0, seed=1, barrier=barrier)

    def test_nan_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            SimulationConfig(paths=10, horizon=math.nan, seed=1)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf])
    def test_infinite_horizon_rejected(self, horizon):
        # an infinite horizon never truncates a path that escapes to infinity
        with pytest.raises(ValueError, match="finite number > 0"):
            SimulationConfig(paths=10, horizon=horizon, seed=1)


class TestNonFiniteCapital:
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_simulate_value(self, table1_q05, x):
        with pytest.raises(ValueError, match="initial capital x"):
            simulate_value(table1_q05, x, cfg(paths=10, barrier=5.0))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_simulate_gerber_shiu(self, table1_q05, x):
        with pytest.raises(ValueError, match="initial capital x"):
            simulate_gerber_shiu(table1_q05, x, cfg(paths=10))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_simulate_two_sided(self, table1_q05, x):
        with pytest.raises(ValueError, match="initial capital x"):
            simulate_two_sided(table1_q05, x, 6.0, cfg(paths=10))


class TestValue:
    def test_needs_barrier_and_positive_q(self, table1_q05):
        with pytest.raises(ValueError):
            simulate_value(table1_q05, 1.0, cfg())
        q0 = make_params(premium="constant", q=0.0)
        with pytest.raises(ModelValidationError):
            simulate_value(q0, 1.0, cfg(barrier=2.0, horizon=50.0))

    def test_lump_lower_bound_pathwise(self):
        # big q: the t=0 lump dominates; every path value >= x - a (zero penalty)
        params = make_params(q=10.0)
        est = simulate_value(params, 8.0, cfg(paths=500, horizon=10.0, barrier=3.0))
        assert est.mean >= 5.0
        assert est.mean == pytest.approx(5.0 + params.premium.p(3.0) / 10.0, rel=0.1)

    def test_claim_free_perpetuity(self):
        # lam ~ 0: sitting at the barrier collects p(a)/q almost surely
        params = make_params(lam=1e-6, q=0.05, eps=0.0)
        params = dataclasses.replace(params, premium=make_params(premium="constant").premium)
        est = simulate_value(params, 4.0, cfg(paths=200, horizon=1200.0, barrier=4.0))
        assert est.mean == pytest.approx(1.0 / 0.05, rel=2e-3)

    def test_flat_linear_premium_matches_constant(self):
        # a linear premium of slope 0 is the constant premium, path by path
        flat = make_params(eps=0.0)
        const = make_params(premium="constant")
        c = cfg(paths=200, seed=8, barrier=5.0)
        assert simulate_value(flat, 3.0, c) == simulate_value(const, 3.0, c)

    def test_matches_analytic_value(self, scale_q05, barrier_q05, table1_q05):
        a = barrier_q05.a_star
        est = simulate_value(table1_q05, a, cfg(paths=20000, seed=42, barrier=a))
        analytic = value_function(scale_q05, a, a)
        assert abs(est.mean - analytic) <= 3.0 * est.std_error
        assert est.ruin_fraction > 0.9  # ruin is a.s. under a barrier strategy

    def test_vanishing_linear_slope_matches_analytic_value(self):
        # eps = 1e-16: the flow's old form (x + c/eps) e^{eps t} - c/eps lost
        # every digit, and this estimate read z = +9.4
        params = make_params(eps=1e-16)
        scale, sol = locate_barrier(params)
        est = simulate_value(params, 5.0, cfg(paths=20000, horizon=300.0, seed=7,
                                              barrier=sol.a_star))
        assert abs(est.mean - value_function(scale, sol.a_star, 5.0)) <= 4.0 * est.std_error

    def test_horizon_error(self, table1_q05):
        with pytest.raises(HorizonError) as err:
            simulate_value(table1_q05, 5.0, cfg(paths=200, horizon=30.0, barrier=5.0))
        assert err.value.required_horizon > 30.0

    def test_penalty_reduces_value(self, table1_q05):
        pen = make_params(penalty="linear", k=1.0, beta=0.5)
        base = simulate_value(table1_q05, 5.0, cfg(paths=4000, seed=9, barrier=5.0))
        with_pen = simulate_value(pen, 5.0, cfg(paths=4000, seed=9, barrier=5.0))
        assert with_pen.mean < base.mean

    def test_optimal_barrier_dominates_halved_by_simulation(self, barrier_q05,
                                                            table1_q05):
        # independent confirmation of the HJB verdict on a mis-set barrier
        a = barrier_q05.a_star
        x = a / 2.0
        good = simulate_value(table1_q05, x, cfg(paths=30000, seed=37, barrier=a))
        bad = simulate_value(table1_q05, x, cfg(paths=30000, seed=37, barrier=a / 2))
        gap = good.mean - bad.mean
        combined = math.hypot(good.std_error, bad.std_error)
        assert gap > 3.0 * combined


class TestGerberShiu:
    def test_zero_penalty_trivial(self, table1_q05):
        est = simulate_gerber_shiu(table1_q05, 2.0, cfg(paths=300))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_classical_ruin_probability(self):
        params = make_params(premium="constant", penalty="constant", k=1.0, q=0.0)
        est = simulate_gerber_shiu(params, 0.0, cfg(paths=20000, horizon=1500.0,
                                                    seed=11))
        assert abs(est.mean - (-1.0 / 3.0)) <= 3.0 * est.std_error
        assert est.truncation_is_heuristic
        assert est.truncation_bound < 1e-6

    def test_matches_compute_G(self):
        from dividend_opt import solve_scale

        params = make_params(penalty="constant", k=1.0)
        scale = solve_scale(params, 0.005, 80.0)
        est = simulate_gerber_shiu(params, 2.0, cfg(paths=30000, seed=13))
        assert abs(est.mean - scale.G(2.0)) <= 3.0 * est.std_error

    def test_rejects_barrier(self, table1_q05):
        with pytest.raises(ValueError):
            simulate_gerber_shiu(table1_q05, 1.0, cfg(barrier=3.0))

    def test_q_zero_tabulated_premium_heuristic_bound(self):
        # the q = 0 tail bound reads the premium floor up to x + 1e6, far
        # past the last knot at 400, where the premium is held at its end value
        xs = np.linspace(0.0, 400.0, 401)
        premium = PremiumModel.tabulated(xs, 1.0 + 0.5 * (1.0 - np.exp(-xs / 10.0)))
        params = ModelParams(premium, ClaimModel.exponential(0.3), PenaltyModel.constant(1.0),
                             lam=0.1, q=0.0)
        est = simulate_gerber_shiu(params, 3.0, cfg(paths=200, horizon=250.0, seed=5))
        assert est.truncation_is_heuristic
        assert math.isfinite(est.mean) and math.isfinite(est.truncation_bound)
        assert -1.0 <= est.mean < 0.0

    def test_horizon_error(self):
        params = make_params(penalty="constant", k=1.0)
        with pytest.raises(HorizonError) as err:
            simulate_gerber_shiu(params, 2.0, cfg(paths=200, horizon=30.0))
        required = err.value.required_horizon
        assert required > 30.0
        assert str(err.value).endswith(f"need horizon >= {required:.1f}")


class TestTwoSided:
    def test_at_level_is_one(self, table1_q05):
        est = simulate_two_sided(table1_q05, 4.0, 4.0, cfg(paths=10))
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_ratio_identity(self, scale_q05, table1_q05):
        x, a = 2.0, 6.0
        est = simulate_two_sided(table1_q05, x, a, cfg(paths=20000, horizon=400.0,
                                                       seed=17))
        Wx, Wa = scale_q05.W(x), scale_q05.W(a)
        assert abs(est.mean * Wa - Wx) <= 3.0 * est.std_error * Wa

    def test_monotone_in_x_under_common_random_numbers(self, table1_q05):
        a = 6.0
        means = [simulate_two_sided(table1_q05, x, a,
                                    cfg(paths=4000, horizon=400.0, seed=23)).mean
                 for x in (0.0, 1.5, 3.0, 4.5, 6.0)]
        assert all(m2 >= m1 for m1, m2 in zip(means, means[1:]))

    def test_domain_checks(self, table1_q05):
        with pytest.raises(ValueError):
            simulate_two_sided(table1_q05, 5.0, 3.0, cfg())
        with pytest.raises(ValueError):
            simulate_two_sided(table1_q05, 1.0, 3.0, cfg(barrier=3.0))


class TestReproducibility:
    def test_bit_identical_reruns(self, table1_q05):
        a = 5.33
        e1 = simulate_value(table1_q05, 3.0, cfg(paths=500, seed=101, barrier=a))
        e2 = simulate_value(table1_q05, 3.0, cfg(paths=500, seed=101, barrier=a))
        assert e1 == e2

    def test_independent_of_chunk_size(self, table1_q05, monkeypatch):
        c = cfg(paths=600, seed=5, barrier=5.33)
        whole = simulate_value(table1_q05, 3.0, c)
        monkeypatch.setattr(simulate, "_CHUNK_PATHS", 7)
        assert simulate_value(table1_q05, 3.0, c) == whole

    def test_seed_changes_estimate(self, table1_q05):
        a = 5.33
        e1 = simulate_value(table1_q05, 3.0, cfg(paths=500, seed=1, barrier=a))
        e2 = simulate_value(table1_q05, 3.0, cfg(paths=500, seed=2, barrier=a))
        assert e1.mean != e2.mean

    def test_ci_and_json_fields(self, table1_q05):
        est = simulate_value(table1_q05, 3.0, cfg(paths=500, seed=4, barrier=5.33))
        assert est.ci95[0] == pytest.approx(est.mean - 1.96 * est.std_error)
        assert est.ci95[1] == pytest.approx(est.mean + 1.96 * est.std_error)
        doc = est.to_dict()
        assert set(doc) == {"mean", "std_error", "ci95", "paths", "ruin_fraction",
                            "truncation_bound", "seed"}

    def test_estimates_pinned(self, table1_q05):
        # values recorded from the engine with its Russian roulette past
        # ln(10)/q: any change to the streams, their order or the lockstep
        # arithmetic moves them
        xs = np.linspace(0.0, 5000.0, 5001)
        bounded = ModelParams(
            PremiumModel.tabulated(xs, 1.0 + 0.5 * (1.0 - np.exp(-xs / 10.0))),
            ClaimModel.exponential(0.3), PenaltyModel.zero(), lam=0.1, q=0.05)
        cases = [
            (simulate_value(table1_q05, 3.0, cfg(paths=2000, seed=2024, barrier=5.33)),
             11.05637651131171, 0.13164365602081374),
            (simulate_gerber_shiu(make_params(penalty="constant", k=1.0), 2.0,
                                  cfg(paths=2000, horizon=300.0, seed=2025)),
             -0.16048186053774266, 0.0074497860163121234),
            (simulate_value(bounded, 5.0, cfg(paths=100, seed=2026, barrier=4.0)),
             14.394443750156045, 0.630643794742515),
        ]
        for est, mean, std_error in cases:
            assert (est.mean, est.std_error) == (mean, std_error)

    def test_no_roulette_estimates_pinned(self, table1_q05):
        # with q = 0, or a horizon at most ln(10)/q = 46.05, no path is
        # past h0: these values were recorded before the roulette existed
        cases = [
            (simulate_gerber_shiu(make_params(premium="constant", penalty="constant",
                                              k=1.0, q=0.0), 0.0,
                                  cfg(paths=2000, horizon=300.0, seed=2027)),
             -0.3175, 0.010411583719001105, 0.3175),
            (simulate_two_sided(table1_q05, 2.0, 6.0, cfg(paths=2000, horizon=40.0,
                                                          seed=2028)),
             0.7116230164518209, 0.006152364795867909, 0.128),
        ]
        for est, mean, std_error, ruin_fraction in cases:
            assert (est.mean, est.std_error, est.ruin_fraction) == \
                (mean, std_error, ruin_fraction)


class TestRoulette:
    def test_drops_and_weights_paths_past_h0(self, table1_q05):
        # ruin is certain under a barrier strategy, and most paths outlive
        # h0 = 46.05; 99.5 % of them were ruined before the horizon 250
        # when every path ran to it
        config = cfg(paths=4000, seed=43, barrier=5.33)
        _values, weights = simulate._run_paths(table1_q05, 3.0, config,
                                               simulate._MODE_VALUE, 5.33)
        ruined = weights > 0
        assert np.mean(ruined) < 0.9  # the roulette dropped paths
        assert np.all(weights[ruined] >= 1.0) and np.any(weights > 1.0)
        est = simulate_value(table1_q05, 3.0, config)
        assert est.ruin_fraction == weights.mean()
        se = weights.std(ddof=1) / math.sqrt(weights.size)
        assert abs(est.ruin_fraction - 0.995) <= 4.0 * se

    def test_every_refill_shape_matches_the_oracle(self, monkeypatch):
        # in one chunk of 300 paths, refills of one block draw roulette
        # uniforms for the paths past h0, which come to outnumber the paths
        # ended; in chunks of 7 every refill covers many blocks and draws
        # roulette uniforms for all paths
        params = make_params(penalty="constant", k=1.0)
        config = cfg(paths=300, horizon=300.0, seed=41)
        whole = simulate._run_paths(params, 2.0, config, simulate._MODE_GERBER, 0.0)
        monkeypatch.setattr(simulate, "_CHUNK_PATHS", 7)
        chunked = simulate._run_paths(params, 2.0, config, simulate._MODE_GERBER, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))
        prem, pen = params.premium, params.penalty
        want = _oracle_values(
            lambda u, r: _reference.closed_form_path(
                u, simulate._MODE_GERBER, 1, prem.c, prem.epsilon, params.claim.mu,
                params.lam, params.q, 2.0, 0.0, config.horizon, 1, pen.k, pen.beta, r),
            config.seed, config.paths)
        _assert_close_per_path(whole, want)

    def test_overflowing_roulette_factor_drops_the_path(self):
        # q = 10, so h0 = 0.23: e^{q (t - h0)} leaves float range at
        # t = 71.2, which a path reaches alive now and then (path 1011 of
        # seed 7); it is dropped with weight 0 and leaves no NaN behind
        params = make_params(q=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_value(params, 0.5, cfg(paths=20000, horizon=100.0, seed=7,
                                                  barrier=1.0))
            got = simulate._lockstep(params, 0.5, 100.0, 7, simulate._MODE_VALUE, 1.0,
                                     1000, 1300)
        scale, _ = locate_barrier(params, barrier=1.0, x_max=60.0)
        assert math.isfinite(est.mean)
        assert abs(est.mean - value_function(scale, 1.0, 0.5)) <= 4.0 * est.std_error
        prem = params.premium
        want = _oracle_values(
            lambda u, r: _reference.closed_form_path(
                u, simulate._MODE_VALUE, 1, prem.c, prem.epsilon, params.claim.mu,
                params.lam, params.q, 0.5, 1.0, 100.0, 0, 0.0, 0.0, r),
            7, 300, first=1000)
        _assert_close_per_path(got, want)

    @pytest.mark.parametrize("case", ["value 8 paths", "gerber-shiu q = 0",
                                      "value 300 paths"])
    def test_refills_follow_one_schedule(self, monkeypatch, barrier_q05, case):
        # each refill is drawn when the last one's rows run out, and those
        # cover 2 max(1, _REFILL_BLOCKS // m) iterations of its m paths
        calls = []
        refill = simulate._refill

        def recorded(keys, seed, k, *args):
            calls.append((k, keys.size))
            return refill(keys, seed, k, *args)

        monkeypatch.setattr(simulate, "_refill", recorded)
        a = barrier_q05.a_star
        if case == "value 8 paths":  # the roulette runs: h0 = 46.05
            simulate_value(make_params(), a, cfg(paths=8, horizon=300.0, seed=1, barrier=a))
        elif case == "gerber-shiu q = 0":  # no roulette
            simulate_gerber_shiu(make_params(penalty="constant", q=0.0), 2.0,
                                 cfg(paths=50, horizon=300.0, seed=5))
        else:
            simulate_value(make_params(), 3.0, cfg(paths=300, seed=6, barrier=a))
        assert calls[0][0] == 0
        for (k, m), (k_next, _) in zip(calls, calls[1:]):
            assert k_next - k == 2 * max(1, simulate._REFILL_BLOCKS // m), calls

    def test_roulette_uniform_is_word_0_of_block_2_63_plus_k(self):
        keys = np.arange(5)
        counters = np.uint64(2 ** 63) + np.arange(4, dtype=np.uint64)
        got = simulate.philox_uniforms(keys, 9, counters[:, None])[0]
        for p in keys:
            gen = np.random.Generator(np.random.Philox(key=(9 << 64) + int(p),
                                                       counter=2 ** 63 - 1))
            assert np.array_equal(got[:, p], gen.random(16)[::4])


class TestNonFiniteValue:
    """A path value that is not a finite number is an error, never an
    estimate: it is planted in path 3 of the engine's output."""

    @staticmethod
    def plant(monkeypatch, value):
        lockstep = simulate._lockstep

        def planted(*args):
            values, ruined = lockstep(*args)
            values[3] = value
            return values, ruined

        monkeypatch.setattr(simulate, "_lockstep", planted)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("call", ["value", "gerber-shiu zero penalty", "two-sided"])
    def test_raises_numerics_error(self, monkeypatch, table1_q05, call, value):
        self.plant(monkeypatch, value)
        with pytest.raises(NumericsError, match=f"path 3 has the value {value}, "):
            if call == "value":
                simulate_value(table1_q05, 3.0, cfg(paths=20, barrier=5.0))
            elif call == "two-sided":
                simulate_two_sided(table1_q05, 2.0, 6.0, cfg(paths=20))
            else:  # a zero penalty skips the horizon check
                simulate_gerber_shiu(table1_q05, 2.0, cfg(paths=20))


class TestGenericEngine:
    def test_tabulated_premium_consistent_with_linear(self):
        # the generic (callable-driven) engine consumes the same uniforms as
        # the closed-form engine; a tabulated copy of the linear premium must
        # give nearly identical path values
        xs = np.linspace(0.0, 400.0, 8001)
        tab_premium = dict(kind="tabulated", x=xs.tolist(),
                           p=(1.0 + 0.02 * xs).tolist())
        from dividend_opt import params_from_dict

        lin = make_params()
        tab = params_from_dict({
            "premium": tab_premium,
            "claim": {"kind": "exponential", "mu": 0.3},
            "penalty": {"kind": "zero"}, "lambda": 0.1, "q": 0.05})
        c = cfg(paths=60, horizon=120.0, seed=31, barrier=5.0)
        # short horizon keeps the truncation bound irrelevant here
        with pytest.raises(HorizonError):
            simulate_value(lin, 3.0, c)
        long_cfg = cfg(paths=60, horizon=250.0, seed=31, barrier=5.0)
        e_lin = simulate_value(lin, 3.0, long_cfg)
        e_tab = simulate_value(tab, 3.0, long_cfg)
        assert e_tab.mean == pytest.approx(e_lin.mean, rel=1e-4)


class TestAdmissibility:
    def test_ruin_only_by_claims_1000_cases(self):
        # per-path audit across random parameter draws: the engine reports
        # ruin exactly when a claim pushed the level negative, never from
        # dividend payment (which is capped at the excess above the barrier)
        rng = np.random.Generator(np.random.Philox(key=808))
        for case in range(1000):
            pkind = int(rng.integers(3))
            c = 0.5 + rng.random()
            eps = 0.01 + 0.03 * rng.random()
            mu = 0.2 + rng.random()
            lam = 0.05 + 0.2 * rng.random()
            q = 0.02 + 0.08 * rng.random()
            x0 = 6.0 * rng.random()
            a = 4.0 * rng.random()
            u = np.random.Generator(np.random.Philox(key=(900, case))).random(512)
            val, ruined, deficit, used, status = _reference.closed_form_path(
                u, 0, pkind, c, eps, mu, lam, q, x0, a, 120.0, 0, 0.0, 0.0)
            assert status == 0
            assert (ruined == 1) == (deficit < 0.0)
            assert val >= max(0.0, x0 - a) - 1e-12  # dividends cannot ruin


class TestPhilox:
    def test_matches_numpy_streams_bit_for_bit(self):
        # seed 2**64 - 1 and path ids >= 2**32 fill every 32-bit half of the
        # key; counters 1-5 run past the first block
        paths = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 63 + 5,
                          2 ** 64 - 1], dtype=np.uint64)
        for seed in (0, 12345, 2 ** 63, 2 ** 64 - 1):
            got = simulate.philox_uniforms(paths, seed, np.arange(1, 6)[:, None])
            got = got.transpose(2, 1, 0).reshape(paths.size, 20)  # draw order
            for p, row in zip(paths, got):
                gen = np.random.Generator(np.random.Philox(key=(seed << 64) + int(p)))
                assert np.array_equal(row, gen.random(20))

    def test_large_counter_carries(self):
        # a counter past 2**32 exercises the carries of the 32-bit-half products
        bitgen = np.random.Philox(counter=2 ** 40 - 1, key=(99 << 64) + 3)
        want = np.random.Generator(bitgen).random(4)
        got = simulate.philox_uniforms(3, 99, 2 ** 40)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_blocks_across_the_32_bit_counter_boundary(self, seed):
        # 3 blocks x 300 keys, counters 2**32 - 1 to 2**32 + 1: the row words
        # of rounds 0 and 1 carry into the high half of the counter
        keys = np.arange(300, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        got = simulate.philox_uniforms(keys, seed, 2 ** 32 - 1 + np.arange(3)[:, None])
        got = got.transpose(2, 1, 0).reshape(keys.size, 12)  # draw order
        for k, row in zip(keys, got):
            bitgen = np.random.Philox(counter=2 ** 32 - 2, key=(seed << 64) + int(k))
            assert np.array_equal(row, np.random.Generator(bitgen).random(12))

    def test_counter_varying_along_paths_rejected(self):
        with pytest.raises(ValueError, match="counter"):
            simulate.philox_uniforms(np.arange(4), 1, np.arange(1, 5))


def _oracle_values(run_path, seed, paths, first=0):
    """Per-path (value, ruin weight) of a scalar engine on numpy's Philox
    streams of paths first .. first + paths - 1: the claim draws from
    block 1 on, the roulette uniform of iteration k from word 0 of block
    2**63 + k."""
    out = []
    for p in range(first, first + paths):
        key = (seed << 64) + p
        u = np.random.Generator(np.random.Philox(key=key)).random(4096)
        roulette = np.random.Generator(
            np.random.Philox(key=key, counter=2 ** 63 - 1)).random(4 * 2048)[::4]
        val, ruined, _deficit, _used, status = run_path(u, roulette)
        assert status == 0
        out.append((val, ruined))
    vals, ruined = zip(*out)
    return np.array(vals), np.array(ruined)


def _assert_close_per_path(got, want):
    (v, r), (v_ref, r_ref) = got, want
    assert np.array_equal(r > 0, r_ref > 0)
    # values below 1 are compared absolutely: the dividends of a path ruined
    # early are a difference of two close exponentials, and its ulp-level
    # differences do not shrink with it; ruin weights are at least 1
    assert np.max(np.abs(v - v_ref) / np.maximum(np.abs(v_ref), 1.0)) <= 1e-12
    assert np.max(np.abs(r - r_ref) / np.maximum(r_ref, 1.0)) <= 1e-12


MODES = [(simulate._MODE_VALUE, 5.0), (simulate._MODE_GERBER, 0.0),
         (simulate._MODE_TWO_SIDED, 6.0)]


class TestLockstepOracle:
    """The lockstep engine against the scalar per-path engines, path by path.

    The horizon 250 is past h0 = ln(10)/q = 46.05, so the roulette runs.
    Values and ruin weights may differ by a few ulp: numpy's exp and log
    against `math`'s.
    """

    @pytest.mark.parametrize("premium", ["constant", "linear", "rational"])
    @pytest.mark.parametrize("penalty", ["zero", "constant", "linear"])
    @pytest.mark.parametrize("mode,a", MODES)
    def test_closed_form_path(self, premium, penalty, mode, a):
        params = make_params(premium=premium, penalty=penalty)
        prem, pen = params.premium, params.penalty
        pkind = ("constant", "linear", "rational").index(premium)
        wkind = ("zero", "constant", "linear").index(penalty)
        config = cfg(paths=200, seed=77)
        got = simulate._run_paths(params, 3.0, config, mode, a)
        want = _oracle_values(
            lambda u, r: _reference.closed_form_path(
                u, mode, pkind, prem.c, prem.epsilon, params.claim.mu, params.lam,
                params.q, 3.0, a, config.horizon, wkind, pen.k, pen.beta, r),
            config.seed, config.paths)
        _assert_close_per_path(got, want)

    @pytest.mark.parametrize("mode,a", MODES)
    def test_generic_path_tabulated(self, mode, a):
        xs = np.linspace(0.0, 400.0, 401)
        premium = PremiumModel.tabulated(xs, 1.0 + 0.5 * (1.0 - np.exp(-xs / 10.0)))
        dx = 0.01
        ys = dx * np.arange(4001)
        f = 0.36 * ys * np.exp(-0.6 * ys)
        claim = ClaimModel.tabulated(0.0, dx, f / np.trapezoid(f, dx=dx))
        kx = np.linspace(-30.0, -0.5, 60)
        penalty = PenaltyModel.tabulated(kx, -np.minimum(2.0, 1.0 - 0.2 * kx))
        params = ModelParams(premium, claim, penalty, lam=0.1, q=0.05)
        solver = FlowSolver(premium)
        p_at_a = float(premium.p(a)) if mode == simulate._MODE_VALUE else 0.0
        config = cfg(paths=100, seed=78)
        got = simulate._run_paths(params, 3.0, config, mode, a)
        want = _oracle_values(
            lambda u, r: _reference.generic_path(
                u, mode, solver.hit_time, solver.forward, claim.ppf, penalty.w,
                p_at_a, params.lam, params.q, 3.0, a, config.horizon, r),
            config.seed, config.paths)
        _assert_close_per_path(got, want)

    def test_event_cap(self, monkeypatch):
        # q = 0 has no roulette: paths of positive drift outlive 32 claims
        params = make_params(penalty="constant", k=1.0, q=0.0)
        monkeypatch.setattr(simulate, "_MAX_BLOCK", 64)
        with pytest.raises(NumericsError, match="needs more than 64 draws"):
            simulate_gerber_shiu(params, 3.0, cfg(paths=20, horizon=1e4))


class TestPhiloxTiles:
    """Refills and `philox_uniforms` draw their blocks in tiles of at most
    _PHILOX_TILE keys; the tiling leaves every uniform as it is."""

    @pytest.mark.parametrize("mode,a", MODES, ids=["value", "gerber-shiu", "two-sided"])
    def test_results_do_not_depend_on_the_tile(self, monkeypatch, mode, a):
        params = (make_params(penalty="constant", k=1.0) if mode == simulate._MODE_GERBER
                  else make_params())
        config = cfg(paths=3000, horizon=300.0 if mode else 250.0, seed=19)
        whole = simulate._run_paths(params, 3.0, config, mode, a)
        monkeypatch.setattr(simulate, "_PHILOX_TILE", 300)
        tiles = []  # _philox_words calls per refill
        refill, words = simulate._refill, simulate._philox_words

        def counted_refill(*args):
            tiles.append(0)
            return refill(*args)

        def counted_words(*args):
            tiles[-1] += 1
            return words(*args)

        monkeypatch.setattr(simulate, "_refill", counted_refill)
        monkeypatch.setattr(simulate, "_philox_words", counted_words)
        tiled = simulate._run_paths(params, 3.0, config, mode, a)
        assert all(np.array_equal(x, y) for x, y in zip(whole, tiled))
        if mode == simulate._MODE_VALUE:  # the roulette runs: h0 = 46.05
            assert np.any(tiled[1] > 1.0)
            assert max(tiles) > 1 and min(tiles) >= 1

    def test_philox_uniforms_across_tile_edges(self):
        seed = 2 ** 64 - 1
        got = simulate.philox_uniforms(np.arange(20000), seed, np.arange(1, 3)[:, None])
        for p in (0, 8191, 8192, 19999):
            gen = np.random.Generator(np.random.Philox(key=(seed << 64) + p))
            assert np.array_equal(got[:, :, p].T.ravel(), gen.random(8))

    def test_scratch_never_exceeds_the_tile(self, monkeypatch, table1_q05):
        sizes = []
        scratch = simulate._philox_scratch

        def recorded(n):
            sizes.append(n)
            return scratch(n)

        monkeypatch.setattr(simulate, "_philox_scratch", recorded)
        simulate_value(table1_q05, 3.0, cfg(paths=40000, seed=29, barrier=5.33))
        assert sizes and max(sizes) <= simulate._PHILOX_TILE

    @pytest.mark.parametrize("call", ["value", "gerber-shiu"])
    def test_montecarlo_workload_calls_within_their_memory_budget(self, barrier_q05,
                                                                  call):
        # perfbench's `montecarlo` inputs at seed 7, whose `mc_seed(7, i)`
        # gives the seeds: the engine's per-path arrays and one tile of
        # Philox scratch (0.9 MB).  A scratch as large as the path count
        # (3.6 MB at 32 000 paths) goes past the budget: 7.99 and 8.34 MiB
        params = make_params()
        if call == "value":
            a = barrier_q05.a_star
            run = (simulate_value, params,
                   cfg(paths=32000, seed=4474668370826950401, barrier=a), 6.0)
        else:
            run = (simulate_gerber_shiu, dataclasses.replace(
                params, penalty=PenaltyModel.constant(1.0)),
                cfg(paths=20000, horizon=300.0, seed=793649811123725967), 5.5)
        function, model, config, budget_mib = run
        tracemalloc.start()
        try:
            function(model, 5.0, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget_mib * 2 ** 20
