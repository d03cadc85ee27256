"""Bias solver and small-signal tests.

The bisection oracle below was written before the Newton solver and stays
its own implementation: plain interval halving of the base-node balance.
"""

import decimal
import math
import random

import pytest

import econamp.circuit
from econamp.circuit import (
    INITIAL_GUESS,
    MAX_ITERATIONS,
    RESIDUAL_TOL,
    STEP_TOL,
    AmplifierConfig,
    OperatingPoint,
    SolverError,
    small_signal_params,
    solve_operating_point,
    static_finite_params,
)
from econamp.devices import (
    EXP_ARG_CAP,
    BjtParams,
    active_region_currents,
    beta_from_alpha,
    ebers_moll_currents,
    thermal_voltage,
)

K_BOLTZMANN = 1.380649e-23
Q_ELECTRON = 1.602176634e-19

DERIVED_CONFIG = AmplifierConfig(
    v_cc=12.0,
    r_b1=100e3,
    r_b2=20e3,
    r_l=1e3,
    device=BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, temperature=300.0),
)


def bisection_v_be(config, iterations=200):
    """Independent oracle: halve [0, hi] on the base-node residual."""
    dev = config.device
    vt = K_BOLTZMANN * dev.temperature / Q_ELECTRON
    v_th = config.v_cc * config.r_b2 / (config.r_b1 + config.r_b2)
    r_th = config.r_b1 * config.r_b2 / (config.r_b1 + config.r_b2)

    def f(v):
        i_b = dev.i_es * (1.0 - dev.alpha_n) * (math.exp(v / vt) - 1.0)
        return (v_th - v) / r_th - i_b

    lo, hi = 0.0, min(config.v_cc, vt * 199.0)
    assert f(lo) > 0.0 > f(hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_v_be(config, max_iterations=MAX_ITERATIONS):
    """The safeguarded Newton iteration as first written.

    Returns the v_be it converges to, "no bias solution" when the residual
    is still positive at the cap, or "did not converge" when it runs out of
    iterations. Every evaluation goes through active_region_currents. The
    solver evaluates the base current inline instead and must land on this
    v_be bit for bit.
    """
    dev = config.device
    vt = thermal_voltage(dev.temperature)
    v_th, r_th = config.thevenin()

    def residual(v):
        return (v_th - v) / r_th - active_region_currents(dev, v).i_b

    lo, hi = 0.0, min(config.v_cc, vt * (EXP_ARG_CAP - 1.0))
    if residual(hi) > 0.0:
        return "no bias solution"
    v = INITIAL_GUESS if lo < INITIAL_GUESS < hi else 0.5 * (lo + hi)
    f, step = residual(v), math.inf
    for _ in range(max_iterations):
        if abs(f) < RESIDUAL_TOL and (f == 0.0 or abs(step) < STEP_TOL):
            return v
        if f > 0.0:
            lo = v
        else:
            hi = v
        di_b = (1.0 - dev.alpha_n) * dev.i_es * math.exp(v / vt) / vt
        candidate = v - f / (-1.0 / r_th - di_b)
        if lo < candidate < hi:
            f_candidate = residual(candidate)
            if abs(f_candidate) <= 0.25 * abs(f):
                step, v, f = candidate - v, candidate, f_candidate
                continue
            if f_candidate > 0.0:
                lo = candidate
            else:
                hi = candidate
        mid = 0.5 * (lo + hi)
        step, v, f = mid - v, mid, residual(mid)
    return "did not converge"


def decimal_root(config, digits=60):
    """The root of the base-node balance in `digits`-digit arithmetic.

    The balance is formed from the float parameters the solver uses, and
    Newton's method is run in decimal from `bisection_v_be`'s estimate.
    """
    dev = config.device
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        v_th, r_th = map(decimal.Decimal, config.thevenin())
        vt = decimal.Decimal(thermal_voltage(dev.temperature))
        k_i = decimal.Decimal(1.0 - dev.alpha_n) * decimal.Decimal(dev.i_es)
        v = decimal.Decimal(bisection_v_be(config))
        for _ in range(200):
            e = (v / vt).exp()
            step = ((v_th - v) / r_th - k_i * (e - 1)) / (-1 / r_th - k_i * e / vt)
            v -= step
            if abs(step) <= abs(v) * decimal.Decimal(10) ** (10 - digits):
                return v
    raise AssertionError("decimal Newton did not converge")


def ulps_from(v, root):
    """Distance of the float `v` from the decimal `root`, in ulps of the root."""
    return float(abs(decimal.Decimal(v) - root)) / math.ulp(float(root))


def base_node_residual(config, op):
    v_th = config.v_cc * config.r_b2 / (config.r_b1 + config.r_b2)
    r_th = config.r_b1 * config.r_b2 / (config.r_b1 + config.r_b2)
    return (v_th - op.v_be) / r_th - op.i_b


def random_config(rng):
    return AmplifierConfig(
        v_cc=rng.uniform(5.0, 30.0),
        r_b1=10 ** rng.uniform(3.0, 6.0),
        r_b2=10 ** rng.uniform(3.0, 6.0),
        r_l=10 ** rng.uniform(2.0, 4.0),
        device=BjtParams(
            i_es=10 ** rng.uniform(-16, -12),
            i_cs=10 ** rng.uniform(-16, -12),
            alpha_n=rng.uniform(0.95, 0.999),
            temperature=rng.uniform(270.0, 370.0),
        ),
    )


class TestSolveOperatingPoint:
    def test_derived_config_against_bisection(self):
        op = solve_operating_point(DERIVED_CONFIG)
        assert 0.5 < op.v_be < 0.8
        assert op.v_be == pytest.approx(bisection_v_be(DERIVED_CONFIG), abs=1e-9)
        assert abs(base_node_residual(DERIVED_CONFIG, op)) < 1e-12
        assert op.v_ce == pytest.approx(DERIVED_CONFIG.v_cc - op.i_c * DERIVED_CONFIG.r_l)
        assert not op.saturated

    def test_dead_device_passes_no_current(self):
        config = AmplifierConfig(
            v_cc=10.0,
            r_b1=10e6,
            r_b2=10e6,
            r_l=1e3,
            device=BjtParams(i_es=1e-30, i_cs=1e-30, alpha_n=0.99),
        )
        op = solve_operating_point(config)
        assert op.i_c < 1e-4
        assert op.v_ce > 0.99 * config.v_cc

    def test_softer_divider_passes_less_current(self):
        doubled = AmplifierConfig(
            v_cc=DERIVED_CONFIG.v_cc,
            r_b1=2 * DERIVED_CONFIG.r_b1,
            r_b2=2 * DERIVED_CONFIG.r_b2,
            r_l=DERIVED_CONFIG.r_l,
            device=DERIVED_CONFIG.device,
        )
        assert doubled.thevenin()[0] == DERIVED_CONFIG.thevenin()[0]
        op = solve_operating_point(DERIVED_CONFIG)
        op_soft = solve_operating_point(doubled)
        assert op_soft.i_c < op.i_c
        # oracle agrees on both configs
        assert op_soft.v_be == pytest.approx(bisection_v_be(doubled), abs=1e-9)

    def test_randomized_configs_match_bisection(self):
        rng = random.Random(303)
        for _ in range(20):
            config = random_config(rng)
            op = solve_operating_point(config)
            assert op.v_be == pytest.approx(bisection_v_be(config), abs=1e-9)
            assert abs(base_node_residual(config, op)) < 1e-12
            assert op.i_e == pytest.approx(op.i_b + op.i_c, rel=1e-12)

    def test_saturated_flag(self):
        config = AmplifierConfig(
            v_cc=5.0,
            r_b1=100e3,
            r_b2=20e3,
            r_l=10e3,
            device=DERIVED_CONFIG.device,
        )
        op = solve_operating_point(config)
        assert op.v_ce <= 0.0
        assert op.saturated

    def test_derived_config_solution_is_pinned(self):
        # Exactly the [values] block `simulate` prints for
        # data/demo_amplifier.cfg; any change to the iteration path moves it.
        assert solve_operating_point(DERIVED_CONFIG) == OperatingPoint(
            v_be=0.7077395589436246,
            i_b=7.753562646511914e-05,
            i_c=0.007676027020046787,
            i_e=0.007753562646511907,
            v_ce=4.323972979953212,
            saturated=False,
        )

    def test_iterates_match_reference_iteration(self, monkeypatch):
        # Ranges far wider than random_config's: the harder the solve, the
        # more iterates a drift in the arithmetic can show up in.
        rng = random.Random(606)
        stalled = 0
        for k in range(1000):
            config = AmplifierConfig(
                v_cc=10 ** rng.uniform(-3.0, 4.0),
                r_b1=10 ** rng.uniform(0.0, 9.0),
                r_b2=10 ** rng.uniform(0.0, 9.0),
                r_l=10 ** rng.uniform(0.0, 6.0),
                device=BjtParams(
                    i_es=10 ** rng.uniform(-30, -3),
                    i_cs=1e-14,
                    alpha_n=rng.uniform(0.01, 0.999999),
                    temperature=rng.uniform(1.0, 1000.0),
                ),
            )
            max_iterations = (3, 7, MAX_ITERATIONS)[k % 3]
            monkeypatch.setattr(econamp.circuit, "MAX_ITERATIONS", max_iterations)
            expected = reference_v_be(config, max_iterations)
            if expected == "did not converge":
                # A stiff divider whose residual noise exceeds RESIDUAL_TOL
                # stalls the reference; the solver stops when its bracket
                # collapses, and only a short budget may still run out first.
                try:
                    op = solve_operating_point(config)
                except SolverError as exc:
                    assert max_iterations < MAX_ITERATIONS
                    assert f"did not converge in {max_iterations} iterations" in str(exc)
                else:
                    assert ulps_from(op.v_be, decimal_root(config)) <= 2.0
                    stalled += max_iterations == MAX_ITERATIONS
            elif expected == "no bias solution":
                with pytest.raises(SolverError, match=expected):
                    solve_operating_point(config)
            else:
                assert solve_operating_point(config).v_be == expected
        assert stalled >= 1

    def test_device_model_builds_only_the_returned_point(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return active_region_currents(*args, **kwargs)

        monkeypatch.setattr(econamp.circuit, "active_region_currents", counted)
        op = solve_operating_point(DERIVED_CONFIG)
        assert [args[1] for args in calls] == [op.v_be]

    def test_nonconvergence_reports_solver_error(self, monkeypatch):
        monkeypatch.setattr(econamp.circuit, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverError, match="did not converge in 2 iterations"):
            solve_operating_point(DERIVED_CONFIG)

    def test_stiff_divider_solves_to_float_resolution(self):
        # v_th/r_th is 2.4e3 A here, so the residual's rounding noise exceeds
        # RESIDUAL_TOL: this design used to spin to "did not converge".
        config = AmplifierConfig(
            v_cc=12.0, r_b1=5e-3, r_b2=1e-3, r_l=1e3, device=DERIVED_CONFIG.device
        )
        assert reference_v_be(config) == "did not converge"
        op = solve_operating_point(config)
        assert ulps_from(op.v_be, decimal_root(config)) <= 2.0
        assert op.v_be == pytest.approx(bisection_v_be(config), abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(v_cc=0.0, r_b1=1e3, r_b2=1e3, r_l=1e3),
            dict(v_cc=10.0, r_b1=0.0, r_b2=1e3, r_l=1e3),
            dict(v_cc=10.0, r_b1=1e3, r_b2=-1e3, r_l=1e3),
            dict(v_cc=10.0, r_b1=1e3, r_b2=1e3, r_l=0.0),
        ],
    )
    def test_config_invariants(self, kwargs):
        with pytest.raises(ValueError):
            AmplifierConfig(device=DERIVED_CONFIG.device, **kwargs)

    # Each non-finite value used to get past validation: v_cc=nan ran 100
    # iterations to "did not converge", v_cc=inf got the verdict "no bias
    # solution", r_l=nan solved to v_ce=nan with saturated=False.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("v_cc", math.nan),
            ("v_cc", math.inf),
            ("r_l", math.nan),
            ("r_l", math.inf),
            ("r_b1", math.inf),
            ("r_b2", math.nan),
        ],
    )
    def test_config_rejects_non_finite(self, field, value):
        kwargs = dict(v_cc=12.0, r_b1=100e3, r_b2=20e3, r_l=1e3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AmplifierConfig(device=DERIVED_CONFIG.device, **kwargs)

    def test_operating_point_conservation_enforced(self):
        with pytest.raises(ValueError, match="conservation"):
            OperatingPoint(v_be=0.6, i_b=1e-5, i_c=1e-3, i_e=2e-3, v_ce=5.0)


class TestSmallSignal:
    def test_slope_from_collector_current(self):
        # oracle: 1 mA / (kT/e at 300 K)
        op = OperatingPoint(v_be=0.65, i_b=1e-5, i_c=1.0e-3, i_e=1.01e-3, v_ce=5.0)
        ss = small_signal_params(DERIVED_CONFIG.device, op)
        assert ss.slope_s == pytest.approx(0.038681727071833609, rel=1e-9)
        assert ss.slope_s == pytest.approx(0.03868, rel=1e-3)

    def test_gain_identity(self):
        rng = random.Random(404)
        tested = 0
        for _ in range(50):
            config = random_config(rng)
            op = solve_operating_point(config)
            if op.v_be - op.v_ce > 4.0:
                continue  # collector junction past the overflow cap
            ss = small_signal_params(config.device, op)
            beta = beta_from_alpha(config.device.alpha_n)
            assert ss.r_in * ss.slope_s == pytest.approx(beta, rel=1e-14)
            tested += 1
        assert tested >= 25

    def test_slope_matches_finite_difference(self):
        op = solve_operating_point(DERIVED_CONFIG)
        analytic = small_signal_params(DERIVED_CONFIG.device, op)
        finite = static_finite_params(DERIVED_CONFIG.device, op.v_be, 1e-6)
        assert analytic.slope_s == pytest.approx(finite.slope_s, rel=1e-4)

    def test_output_conductance_matches_finite_difference(self):
        # bias the collector junction softly so its term is measurable
        device = BjtParams(i_es=1e-12, i_cs=1e-6, alpha_n=0.99, alpha_i=0.1)
        v_be, v_cb = 0.3, -0.05
        op_currents = ebers_moll_currents(device, v_be, v_cb)
        op = OperatingPoint(
            v_be=v_be,
            i_b=op_currents.i_b,
            i_c=op_currents.i_c,
            i_e=op_currents.i_e,
            v_ce=v_be - v_cb,
        )
        ss = small_signal_params(device, op)
        delta = 1e-5
        fd = (
            ebers_moll_currents(device, v_be, v_cb + delta).i_c
            - ebers_moll_currents(device, v_be, v_cb - delta).i_c
        ) / (2 * delta)
        assert ss.g_out == pytest.approx(abs(fd), rel=1e-4)

    def test_output_conductance_negligible_deep_in_active_region(self):
        op = solve_operating_point(DERIVED_CONFIG)
        ss = small_signal_params(DERIVED_CONFIG.device, op)
        assert ss.g_out < 1e-30

    def test_rejects_nonpositive_collector_current(self):
        op = OperatingPoint(v_be=0.0, i_b=0.0, i_c=0.0, i_e=0.0, v_ce=12.0)
        with pytest.raises(ValueError):
            small_signal_params(DERIVED_CONFIG.device, op)


class TestStaticFiniteParams:
    def test_second_order_convergence(self):
        op = solve_operating_point(DERIVED_CONFIG)
        exact = small_signal_params(DERIVED_CONFIG.device, op).slope_s
        err = abs(static_finite_params(DERIVED_CONFIG.device, op.v_be, 1e-3).slope_s - exact)
        err_half = abs(
            static_finite_params(DERIVED_CONFIG.device, op.v_be, 5e-4).slope_s - exact
        )
        assert err / err_half == pytest.approx(4.0, rel=0.05)

    def test_slope_positive(self):
        for v_be in (0.05, 0.3, 0.6):
            est = static_finite_params(DERIVED_CONFIG.device, v_be, 1e-6)
            assert est.slope_s > 0.0

    def test_input_resistance_matches_analytic(self):
        op = solve_operating_point(DERIVED_CONFIG)
        analytic = small_signal_params(DERIVED_CONFIG.device, op)
        finite = static_finite_params(DERIVED_CONFIG.device, op.v_be, 1e-6)
        assert finite.r_in == pytest.approx(analytic.r_in, rel=1e-3)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            static_finite_params(DERIVED_CONFIG.device, 0.6, 0.0)
        with pytest.raises(ValueError, match="flips"):
            static_finite_params(DERIVED_CONFIG.device, 0.1, 0.2)
