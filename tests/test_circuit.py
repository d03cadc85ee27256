"""Bias solver and small-signal tests.

The bisection oracle below was written before the Newton solver and stays
its own implementation: plain interval halving of the base-node balance.
"""

import decimal
import itertools
import math
import random
import sys

import pytest

import econamp.circuit
from econamp.amplifier import OperatingLimits
from econamp.circuit import (
    INITIAL_GUESS,
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
from econamp.simulate import evaluate_stage

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


def reference_v_be(config, max_iterations=100):
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


def wide_configs():
    """The 1,000 designs of the seed-606 draw.

    Ranges far wider than random_config's: the harder the solve, the more
    iterates a drift in the arithmetic can show up in.
    """
    rng = random.Random(606)
    for _ in range(1000):
        yield AmplifierConfig(
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


def extreme_configs():
    """Designs at the ends of the float range that the constructors accept.

    Temperatures from the lowest thermal_voltage takes to 1.7e308 K, 505.18 K
    among them, whose Vt*199/Vt rounds one ulp above 199; supplies, dividers
    and i_es from subnormal to near the float maximum.
    """
    temperatures = (1.611614435317884e-285, 1e-100, 1.0, 505.18216896157287, 1e100, 1.7e308)
    supplies = (5e-324, 1e-300, 12.0, 1e300, 1.7e308)
    dividers = ((1e-300, 1e-300), (1e5, 2e4), (5e-3, 1e-3), (1e300, 1e-300), (1.0, 1e308),
                (1e308, 1e308))
    for temperature, v_cc, (r_b1, r_b2), i_es, alpha_n in itertools.product(
        temperatures, supplies, dividers, (5e-324, 1e-14, 1e100, 1.7e308),
        (1e-300, 0.99, 1.0 - 2.0 ** -52),
    ):
        try:
            device = BjtParams(i_es=i_es, i_cs=i_es, alpha_n=alpha_n, temperature=temperature)
            yield AmplifierConfig(v_cc=v_cc, r_b1=r_b1, r_b2=r_b2, r_l=1e3, device=device)
        except ValueError:
            continue  # a design the constructors refuse never reaches the solve


def decimal_stage(config, v_be):
    """Every `simulate` figure after the root, in 80-digit decimal at `v_be`.

    The model evaluated from the config's float values, with Vt = k*T/q
    exact: the values the package's float arithmetic approximates.
    """
    dev = config.device
    d = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        # a saturated point's collector exponential lies past the default range
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        # the CODATA values exactly, as their shortest reprs spell them
        vt = d(repr(K_BOLTZMANN)) * d(dev.temperature) / d(repr(Q_ELECTRON))
        alpha, r_l = d(dev.alpha_n), d(config.r_l)
        i_e = d(dev.i_es) * ((d(v_be) / vt).exp() - 1)
        i_c = alpha * i_e
        v_ce = d(config.v_cc) - i_c * r_l
        slope_s = i_c / vt
        beta = alpha / (1 - alpha)
        return {
            "i_b": (1 - alpha) * i_e, "i_c": i_c, "i_e": i_e, "v_ce": v_ce,
            "r_in": beta / slope_s,
            "g_out": d(dev.i_cs) * ((d(v_be) - v_ce) / vt).exp() / vt,
            "slope_s": slope_s, "beta_current": beta, "voltage_gain": slope_s * r_l,
            "power_out": r_l * i_c * i_c,
        }


def stage_conditions(config, v_be, exact):
    """The condition number of each decimal_stage figure: how far its formula
    amplifies a relative error of one ulp in its inputs."""
    vt = K_BOLTZMANN * config.device.temperature / Q_ELECTRON
    x = abs(v_be) / vt  # exp(v_be/Vt) passes an error in Vt on, times x
    i_c, v_ce = float(exact["i_c"]), float(exact["v_ce"])
    cond_v_ce = x * (abs(config.v_cc) + abs(i_c * config.r_l)) / abs(v_ce)
    conditions = dict.fromkeys(exact, x)
    conditions.update(
        v_ce=cond_v_ce,
        # exp(v_cb/Vt), v_cb = v_be - v_ce: an absolute error in v_cb, over Vt
        g_out=(abs(v_be) + abs(v_ce) * (1 + cond_v_ce)) / vt,
        beta_current=0.0,  # alpha_n/(1 - alpha_n): the exponential cancels
    )
    return conditions


# k of each figure's bound, k*(1 + cond) ulp from decimal_stage; after each,
# the worst ratio measured on the wide draw and the demo config
STAGE_ULP_K = {
    "i_b": 4.5,           # 3.64
    "i_c": 4.0,           # 3.24
    "i_e": 4.0,           # 3.17
    "v_ce": 4.0,          # 3.20
    "r_in": 7.5,          # 6.27
    "g_out": 3.0,         # 2.41
    "slope_s": 6.5,       # 5.36
    "beta_current": 2.5,  # 2.03
    "voltage_gain": 6.5,  # 5.19
    "power_out": 8.0,     # 6.86
}


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

    def test_iterates_match_reference_iteration(self):
        stalled = 0
        for config in wide_configs():
            expected = reference_v_be(config)
            if expected == "did not converge":
                # A stiff divider whose residual noise exceeds RESIDUAL_TOL
                # stalls the reference; the solver stops when its bracket
                # collapses.
                op = solve_operating_point(config)
                assert ulps_from(op.v_be, decimal_root(config)) <= 2.0
                stalled += 1
            elif expected == "no bias solution":
                with pytest.raises(SolverError, match=expected):
                    solve_operating_point(config)
            else:
                assert solve_operating_point(config).v_be == expected
        assert stalled >= 1

    def test_solver_error_is_a_value_error(self):
        # the CLI exits 4 on a ValueError and on nothing else
        assert issubclass(SolverError, ValueError)

    def test_no_exponential_argument_reaches_the_cap(self, monkeypatch):
        # Why no CLI input raises the cap's OverflowError: the solve evaluates
        # below the cap, the returned point reuses its v_be, and for an active
        # point, the only one simulate passes on, v_cb = v_be - v_ce < v_be.
        # Every exponential the package evaluates is recorded, guarded or not.
        args = []

        def recorded(function):
            def call(arg):
                args.append((function.__name__, arg))
                return function(arg)
            return call

        monkeypatch.setattr(math, "expm1", recorded(math.expm1))
        monkeypatch.setattr(math, "exp", recorded(math.exp))
        active = 0
        for config in wide_configs():
            args.clear()
            try:
                op = solve_operating_point(config)
            except SolverError:
                op = None
            assert args and max(arg for _, arg in args) < EXP_ARG_CAP
            if op is None or op.saturated:
                continue
            vt = thermal_voltage(config.device.temperature)
            assert args[-1] == ("expm1", op.v_be / vt)  # the returned point
            args.clear()
            small_signal_params(config.device, op)
            assert args == [("exp", (op.v_be - op.v_ce) / vt)]
            assert args[0][1] < op.v_be / vt
            active += 1
        assert active > 800  # 818 of the draw

    def test_the_solve_guards_no_exponential(self, monkeypatch):
        # The bracket's top, min(v_cc, Vt*199), holds every argument within an
        # ulp of 199, under the cap: no guard could fire, so none is called.
        calls, args = [], []
        monkeypatch.setattr(econamp.circuit, "_junction_arg", lambda *a: calls.append(a))
        expm1 = math.expm1
        monkeypatch.setattr(math, "expm1", lambda arg: args.append(arg) or expm1(arg))
        top = math.nextafter(199.0, math.inf)
        outcomes = {"point": 0, "no bias solution": 0, "currents": 0, "v_ce": 0}
        for config in [DERIVED_CONFIG, *extreme_configs()]:
            args.clear()
            vt = thermal_voltage(config.device.temperature)
            assert min(config.v_cc, vt * 199.0) / vt <= top < EXP_ARG_CAP
            try:
                solve_operating_point(config)
                outcomes["point"] += 1
            except SolverError as error:
                assert str(error).startswith("no bias solution below the exponential overflow cap")
                outcomes["no bias solution"] += 1
            except ValueError as error:  # an OverflowError is not one, and fails the test
                kind = str(error).split(" must be finite")[0]
                assert kind in ("currents", "v_ce"), error
                outcomes[kind] += 1
            assert calls == [] and max(args) <= top
        assert min(outcomes.values()) >= 1, outcomes

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # The demo solve stops by the residual test; its returned point reuses
        # the exponential the loop computed there. (A solve that stops at a
        # collapsed bracket may evaluate an end of it twice, since its midpoint
        # rounds to one of the ends.) Its v_th of 2 V lies below the bracket's
        # top, which is not evaluated.
        args = []
        expm1 = math.expm1
        monkeypatch.setattr(math, "expm1", lambda arg: args.append(arg) or expm1(arg))
        op = solve_operating_point(DERIVED_CONFIG)
        vt = thermal_voltage(DERIVED_CONFIG.device.temperature)
        assert len(args) == len(set(args)) == 16
        assert args.count(op.v_be / vt) == 1

    def test_bracket_top_is_evaluated_only_below_v_th(self, monkeypatch):
        # Where v_th <= top, the residual at the top is (v_th - top)/r_th <= 0
        # less a base current >= 0: it can hold no verdict, so it is not formed.
        device = BjtParams(i_es=1e-100, i_cs=1e-100, alpha_n=0.99)
        vt = thermal_voltage(device.temperature)
        top = vt * (EXP_ARG_CAP - 1.0)
        args = []
        expm1 = math.expm1
        monkeypatch.setattr(math, "expm1", lambda arg: args.append(arg) or expm1(arg))
        # an equal divider halves v_cc, so v_th = 1.001*top and 0.999*top
        above = AmplifierConfig(v_cc=2.002 * top, r_b1=1e3, r_b2=1e3, r_l=1e3, device=device)
        with pytest.raises(SolverError, match="no bias solution below the exponential"):
            solve_operating_point(above)
        assert args == [top / vt]
        # 1-ohm resistors halve 2*top exactly, so v_th = top there
        for below in (
            AmplifierConfig(v_cc=2.0 * top, r_b1=1.0, r_b2=1.0, r_l=1e3, device=device),
            AmplifierConfig(v_cc=1.998 * top, r_b1=1e3, r_b2=1e3, r_l=1e3, device=device),
        ):
            args.clear()
            assert solve_operating_point(below).v_be < below.thevenin()[0] <= top
            assert args and top / vt not in args

    def test_returned_currents_match_the_device_model(self):
        # The returned point forms its currents inline, with the arithmetic
        # of active_region_currents: the same floats, bit for bit.
        for config in [DERIVED_CONFIG, *wide_configs()]:
            try:
                op = solve_operating_point(config)
            except SolverError:
                continue
            model = active_region_currents(config.device, op.v_be)
            assert [x.hex() for x in (op.i_e, op.i_c, op.i_b)] == [
                x.hex() for x in (model.i_e, model.i_c, model.i_b)
            ]

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

    def test_root_near_zero_volts_solves_to_float_resolution(self):
        # The root sits at v_be = 3.1e-11 V, where exp(v/Vt) - 1 cancels: the
        # base current carried a relative error of 1e-7 and v_be missed the
        # root by 4.7e7 ulps, with a true residual of 1.2e-12 A.
        device = BjtParams(i_es=1e7, i_cs=1e7, alpha_n=0.99)
        config = AmplifierConfig(v_cc=12.0, r_b1=100e3, r_b2=20e3, r_l=1e3, device=device)
        op = solve_operating_point(config)
        assert ulps_from(op.v_be, decimal_root(config)) <= 2.0

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

    # One design on each side of each divider condition: v_th and r_th normal
    # floats (>= sys.float_info.min), each finite, and v_th/r_th finite.
    @pytest.mark.parametrize(
        "v_cc, r_b1, r_b2, accepted",
        [
            (2 * sys.float_info.min, 1.0, 1.0, True),    # v_th = min
            (sys.float_info.min, 1.0, 1.0, False),       # v_th = min/2
            (1e298, 1.0, 1e10, True),                    # v_cc*r_b2 = 1e308
            (1e299, 1.0, 1e10, False),                   # v_cc*r_b2 overflows
            (12.0, 1.0, sys.float_info.min, True),       # r_th = min
            (12.0, 1.0, sys.float_info.min / 2, False),  # r_th = min/2
            (12.0, 1e154, 1e154, True),                  # r_b1*r_b2 = 1e308
            (12.0, 1e155, 1e155, False),                 # r_b1*r_b2 overflows
            (1e290, 1e-10, 1.0, True),                   # v_th/r_th = 1e300
            (1e300, 1e-10, 1.0, False),                  # v_th/r_th overflows
        ],
    )
    def test_divider_range(self, v_cc, r_b1, r_b2, accepted):
        kwargs = dict(v_cc=v_cc, r_b1=r_b1, r_b2=r_b2, r_l=1e3, device=DERIVED_CONFIG.device)
        if accepted:
            AmplifierConfig(**kwargs)
        else:
            with pytest.raises(ValueError, match=r"^v_cc, r_b1, r_b2 give v_th = "):
                AmplifierConfig(**kwargs)

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

    def test_r_in_is_beta_from_alpha_over_slope_bit_for_bit(self):
        # small_signal_params forms beta inline from the alpha_n BjtParams checked
        active = 0
        for config in wide_configs():
            try:
                op = solve_operating_point(config)
            except SolverError:
                continue
            if not op.saturated:
                ss = small_signal_params(config.device, op)
                assert ss.r_in == beta_from_alpha(config.device.alpha_n) / ss.slope_s
                active += 1
        assert active > 800

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


class TestStageAgainstDecimal:
    """The arithmetic after the root, apart from the root's own error: every
    figure of evaluate_stage, which `simulate` prints, against decimal_stage
    at the solver's v_be."""

    def test_figures_after_the_root_match_decimal_stage(self):
        worst = dict.fromkeys(STAGE_ULP_K, 0.0)
        active = 0
        for config in [*wide_configs(), DERIVED_CONFIG]:
            try:
                op, ss, gains, _ = evaluate_stage(config, OperatingLimits())
            except SolverError:
                continue
            figures = [(op, ("i_b", "i_c", "i_e", "v_ce"))]
            if ss is not None:  # simulate's small-signal and gain figures
                figures += [(ss, ss._fields), (gains, gains._fields)]
                active += 1
            exact = decimal_stage(config, op.v_be)
            conditions = stage_conditions(config, op.v_be, exact)
            for values, names in figures:
                for name in names:
                    ratio = ulps_from(getattr(values, name), exact[name]) / (1 + conditions[name])
                    worst[name] = max(worst[name], ratio)
        assert active > 800  # 818 of the draw, and the demo
        assert {name: ratio for name, ratio in worst.items() if ratio > STAGE_ULP_K[name]} == {}


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

    @pytest.mark.parametrize("v_be, delta, refusal, message", [
        # v_be is finite: delta takes the shifted voltage past the float range
        (sys.float_info.max, 1e300, ValueError,
         "delta 1e+300 takes v_be + delta past the float range at v_be = 1.79769e+308 V"),
        # the shifted voltage, not v_be, passes the exponential cap
        (1e300, 1e300, OverflowError,
         "v_be + delta = 2e+300 V gives exp argument 7.73635e+301 above the overflow cap 200"),
    ])
    def test_shifted_voltage_is_refused_by_its_name(self, v_be, delta, refusal, message):
        with pytest.raises(refusal) as info:
            static_finite_params(DERIVED_CONFIG.device, v_be, delta)
        assert str(info.value) == message

    @pytest.mark.parametrize("delta", [1e-17, 1e-20, 1e-300])
    def test_delta_below_float_resolution_is_refused(self, delta):
        # v_be +- delta both round to 0.6: the currents were equal and r_in's
        # division raised ZeroDivisionError
        with pytest.raises(ValueError) as info:
            static_finite_params(DERIVED_CONFIG.device, 0.6, delta)
        assert str(info.value) == (
            f"delta {delta:g} is below the float resolution of the currents at v_be = 0.6 V"
        )
