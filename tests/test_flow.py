import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dividend_opt import FlowSolver, NumericsError, PremiumModel
from dividend_opt import _reference
from dividend_opt.flow import rational_flow

CONSTANT = PremiumModel.constant(1.0)
LINEAR = PremiumModel.linear(1.0, 0.02)
RATIONAL = PremiumModel.rational(1.0)
FAMILIES = [CONSTANT, LINEAR, RATIONAL]


def _ivp_flow(premium, x, t):
    sol = solve_ivp(lambda _, r: [premium.p(r[0])], (0, t), [x],
                    rtol=1e-12, atol=1e-13)
    return float(sol.y[0, -1])


class TestForward:
    def test_constant_linear_motion(self):
        assert FlowSolver(CONSTANT).forward(0.0, 5.0) == pytest.approx(5.0)

    def test_linear_closed_form(self):
        # oracle: independent RK integration of the same ODE
        val = FlowSolver(LINEAR).forward(0.0, 1.0)
        assert val == pytest.approx(50.0 * (math.exp(0.02) - 1.0), rel=1e-12)
        assert val == pytest.approx(_ivp_flow(LINEAR, 0.0, 1.0), rel=1e-9)

    def test_time_zero_identity(self):
        for prem in FAMILIES:
            for x in (0.0, 3.7):
                assert FlowSolver(prem).forward(x, 0.0) == x

    def test_rational_matches_rk(self):
        for x, t in [(0.0, 1.0), (2.0, 10.0), (5.0, 0.3)]:
            assert FlowSolver(RATIONAL).forward(x, t) == pytest.approx(
                _ivp_flow(RATIONAL, x, t), rel=1e-9)

    def test_tabulated_matches_linear(self):
        xs = np.linspace(0.0, 100.0, 2001)
        tab = PremiumModel.tabulated(xs, 1.0 + 0.02 * xs)
        got = FlowSolver(tab).forward(1.0, 5.0)
        want = FlowSolver(LINEAR).forward(1.0, 5.0)
        assert got == pytest.approx(want, rel=1e-7)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FlowSolver(CONSTANT).forward(1.0, -1.0)


class TestHitTime:
    def test_constant(self):
        assert FlowSolver(CONSTANT).hit_time(2.0, 5.0) == pytest.approx(3.0)

    def test_linear_closed_form(self):
        t = FlowSolver(LINEAR).hit_time(0.0, 17.82)
        assert t == pytest.approx(50.0 * math.log(1.0 + 0.02 * 17.82), rel=1e-12)

    def test_level_equal_start(self):
        for prem in FAMILIES:
            assert FlowSolver(prem).hit_time(4.0, 4.0) == 0.0

    def test_below_start_rejected(self):
        with pytest.raises(ValueError):
            FlowSolver(CONSTANT).hit_time(5.0, 4.0)

    def test_rational_vs_event_integration(self):
        # oracle: terminal-event RK45 on the same ODE
        level = 6.0
        t = FlowSolver(RATIONAL).hit_time(1.0, level)

        def reached(_, r):
            return r[0] - level

        reached.terminal = True
        sol = solve_ivp(lambda _, r: [RATIONAL.p(r[0])], (0, 10 * t), [1.0],
                        events=reached, rtol=1e-12, atol=1e-13)
        assert t == pytest.approx(float(sol.t_events[0][0]), rel=1e-8)

    def test_tabulated_hit(self):
        xs = np.linspace(0.0, 50.0, 1001)
        tab = PremiumModel.tabulated(xs, np.full_like(xs, 2.0))
        assert FlowSolver(tab).hit_time(1.0, 9.0) == pytest.approx(4.0, rel=1e-8)


class TestLinearFlowAsEpsilonVanishes:
    """The linear premium c + eps x as eps -> 0: its flow and travel time,
    vectorized and in the scalar oracle, keep their digits, where the forms
    (x + c/eps) e^{eps t} - c/eps and ln((b + c/eps)/(x + c/eps))/eps cancel
    them all (forward(5, 1) read 4.0 at eps = 1e-16)."""

    POINTS = [(0.0, 1.0, 1.0), (5.0, 1.0, 6.0), (3.7, 20.0, 41.0), (137.0, 0.0127, 140.0)]

    @staticmethod
    def _forms(eps):
        solver = FlowSolver(PremiumModel.linear(1.0, eps))
        return ((solver.flow, solver.travel_time),
                (lambda x, t: _reference._flow(1, 1.0, eps, x, t),
                 lambda x, b: _reference._hit(1, 1.0, eps, x, b)))

    @pytest.mark.parametrize("eps", [0.5, 0.02, 1e-5, 1e-8, 1e-13, 1e-16])
    def test_matches_mpmath(self, eps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            k = 1 / mpmath.mpf(eps)
            for x, t, b in self.POINTS:
                want_r = (x + k) * mpmath.exp(eps * mpmath.mpf(t)) - k
                want_t = mpmath.log((b + k) / (x + k)) / eps
                for flow, travel_time in self._forms(eps):
                    assert abs(flow(x, t) - want_r) <= 4e-16 * abs(want_r), (x, t)
                    assert abs(travel_time(x, b) - want_t) <= 4e-16 * want_t, (x, b)

    @pytest.mark.parametrize("eps", [1e-300, 1e-320])  # c/eps finite, then inf
    def test_reaches_the_constant_premium(self, eps):
        for x, t, b in self.POINTS:
            for flow, travel_time in self._forms(eps):
                assert flow(x, t) == pytest.approx(x + t, rel=1e-15)
                assert travel_time(x, b) == pytest.approx(b - x, rel=1e-15)


class TestProperties:
    def test_semigroup_1000_cases(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        solvers = [FlowSolver(p) for p in FAMILIES]
        for _ in range(1000):
            solver = solvers[rng.integers(len(solvers))]
            x = 10.0 * rng.random()
            s = 5.0 * rng.random()
            t = 5.0 * rng.random()
            once = solver.forward(x, s + t)
            twice = solver.forward(solver.forward(x, s), t)
            assert twice == pytest.approx(once, abs=1e-9, rel=1e-10)

    def test_hit_inverts_forward_1000_cases(self):
        rng = np.random.Generator(np.random.Philox(key=202))
        solvers = [FlowSolver(p) for p in FAMILIES]
        for _ in range(1000):
            solver = solvers[rng.integers(len(solvers))]
            x = 10.0 * rng.random()
            b = x + 0.01 + 20.0 * rng.random()
            t = solver.hit_time(x, b)
            assert solver.forward(x, t) == pytest.approx(b, abs=1e-8, rel=1e-9)

    def test_strict_monotonicity(self):
        rng = np.random.Generator(np.random.Philox(key=303))
        for prem in FAMILIES:
            solver = FlowSolver(prem)
            for _ in range(50):
                x = 5.0 * rng.random()
                t = 0.01 + 3.0 * rng.random()
                dt = 1e-3
                assert solver.forward(x, t + dt) > solver.forward(x, t)
                assert solver.forward(x + 1e-3, t) > solver.forward(x, t)


BOUNDED_XS = np.linspace(0.0, 5000.0, 5001)
BOUNDED = PremiumModel.tabulated(BOUNDED_XS, 1.0 + 0.5 * (1.0 - np.exp(-BOUNDED_XS / 10.0)))


class TestTabulatedFlow:
    def test_matches_dop853(self):
        # oracle: DOP853 on dr/dt = interpolated p(r), rtol = atol = 1e-13
        rng = np.random.Generator(np.random.Philox(key=404))
        solver = FlowSolver(BOUNDED)
        for _ in range(20):
            x, t = 30.0 * rng.random(), 20.0 * rng.random()
            sol = solve_ivp(lambda _, r: [np.interp(r[0], BOUNDED.xs, BOUNDED.ps)],
                            (0.0, t), [x], method="DOP853", rtol=1e-13, atol=1e-13)
            want = float(sol.y[0, -1])
            assert abs(solver.forward(x, t) - want) <= 1e-8 * want

    def test_hit_time_inverts_forward(self):
        rng = np.random.Generator(np.random.Philox(key=405))
        solver = FlowSolver(BOUNDED)
        for _ in range(200):
            x = 30.0 * rng.random()
            b = x + 0.01 + 40.0 * rng.random()
            assert abs(solver.forward(x, solver.hit_time(x, b)) - b) <= 1e-12 * b

    def test_premium_held_outside_knots(self):
        tab = PremiumModel.tabulated([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        solver = FlowSolver(tab)
        # beyond the last knot p stays 4, before the first it stays 1
        assert solver.forward(5.0, 0.5) == pytest.approx(7.0, rel=1e-15)
        assert solver.hit_time(0.25, 0.75) == pytest.approx(0.5, rel=1e-15)
        # across a knot: ln 2 on [1, 2] (p = r), then ln(2) / 2 on [2, 3] (p = 2r - 2)
        assert solver.hit_time(1.0, 3.0) == pytest.approx(1.5 * math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("premium", [*FAMILIES, BOUNDED, PremiumModel.linear(2.0, 0.0)])
    def test_arrays_match_scalar_calls(self, premium):
        solver = FlowSolver(premium)
        rng = np.random.Generator(np.random.Philox(key=406))
        x = 10.0 * rng.random(50)
        t = 5.0 * rng.random(50)
        b = x + 20.0 * rng.random(50)
        assert np.array_equal(solver.flow(x, t),
                              [solver.forward(xi, ti) for xi, ti in zip(x, t)])
        assert np.array_equal(solver.travel_time(x, b),
                              [solver.hit_time(xi, bi) for xi, bi in zip(x, b)])


class TestRationalFlowOracle:
    """`_reference._flow`, the scalar oracle of the rational-premium flow."""

    def test_non_convergence_raises(self):
        with pytest.raises(NumericsError, match="rational flow inversion failed"):
            _reference._flow(2, 1.0, 0.0, 1.0, float("nan"))

    @pytest.mark.parametrize("x,t", [(137.0, 0.0127), (1000.0, 3.0)])
    def test_agrees_with_the_vectorized_flow(self, x, t):
        # at x = 1000 convergence needs the b/c term of the stopping rule: the
        # float spacing of b alone is a time error above 1e-14 (1 + t)
        want = float(rational_flow(1.0, x, t))
        assert abs(_reference._flow(2, 1.0, 0.0, x, t) - want) <= 1e-15 * want
