"""Device model tests.

Expected values tagged "oracle" were computed ahead of time with a
40-digit evaluation of the device equations (mpmath); the finite
difference checks are independent of the analytic formulas they verify.
"""

import math
import random
from fractions import Fraction

import pytest

from econamp.circuit import (
    AmplifierConfig,
    OperatingPoint,
    small_signal_params,
    solve_operating_point,
)
from econamp.devices import (
    BOLTZMANN_K,
    ELECTRON_CHARGE,
    BjtCurrents,
    BjtParams,
    MosParams,
    active_region_currents,
    beta_from_alpha,
    ebers_moll_currents,
    mos_drain_current,
    mos_transconductance,
    thermal_voltage,
)

# oracle: kT/e at 300 K from CODATA constants
VT_300 = 0.025851999786435532

EXAMPLE_BJT = BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, alpha_i=0.1, temperature=300.0)
EXAMPLE_MOS = MosParams(k_prime=2e-3, v_threshold=1.0)


def random_bjt(rng):
    alpha_n = rng.uniform(0.9, 0.999)
    return BjtParams(
        i_es=10 ** rng.uniform(-16, -10),
        i_cs=10 ** rng.uniform(-16, -10),
        alpha_n=alpha_n,
        alpha_i=rng.uniform(0.0, 0.2) * alpha_n,
        temperature=rng.uniform(250.0, 400.0),
    )


class TestThermalVoltage:
    def test_room_temperature(self):
        assert thermal_voltage(300.0) == pytest.approx(0.0258520, abs=1e-6)
        assert thermal_voltage(300.0) == pytest.approx(VT_300, rel=1e-12)

    def test_linear_in_temperature(self):
        assert thermal_voltage(600.0) == 2.0 * thermal_voltage(300.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -300.0])
    def test_nonpositive_temperature_rejected(self, bad):
        with pytest.raises(ValueError):
            thermal_voltage(bad)

    # k*T below the smallest normal float: thermal_voltage(1e-300) returned
    # 9.25e-305 V instead of 8.62e-305 V, and 5e-324 K gave Vt = 0.
    @pytest.mark.parametrize("bad", [1.6116144353178838e-285, 1e-300, 1e-310, 5e-324])
    def test_subnormal_k_t_rejected(self, bad):
        message = rf"^temperature = {bad} K gives k\*T = .* J, not a normal float$"
        with pytest.raises(ValueError, match=message):
            thermal_voltage(bad)
        with pytest.raises(ValueError, match=message):
            BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, temperature=bad)

    def test_lowest_accepted_temperature_keeps_its_bits(self):
        lowest = 1.611614435317884e-285
        assert thermal_voltage(lowest) == BOLTZMANN_K * lowest / ELECTRON_CHARGE
        assert BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, temperature=lowest)


NAN, INF = math.nan, math.inf
KT_1E_300 = "temperature = 1e-300 K gives k*T = 1.5e-323 J, not a normal float"


class TestBjtParamsRefusalOrder:
    """Which check refuses first, when more than one would."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(i_es=NAN, temperature=NAN), "i_es must be finite and > 0, got nan"),
            (dict(i_es=-1.0, temperature=0.0), "i_es must be finite and > 0, got -1.0"),
            (dict(i_cs=INF, temperature=-1.0), "i_cs must be finite and > 0, got inf"),
            (dict(temperature=NAN), "temperature must be finite and > 0, got nan"),
            (dict(temperature=INF), "temperature must be finite and > 0, got inf"),
            (dict(temperature=0.0), "temperature must be finite and > 0, got 0.0"),
            (dict(temperature=-1.0), "temperature must be finite and > 0, got -1.0"),
            (dict(temperature=0.0, alpha_n=1.5), "temperature must be finite and > 0, got 0.0"),
            (dict(temperature=1e-300), KT_1E_300),
            (dict(temperature=1e-300, alpha_n=1.5), KT_1E_300),
            (dict(alpha_n=1.5, alpha_i=-1.0), "alpha_n must lie strictly in (0, 1), got 1.5"),
        ],
    )
    def test_first_failing_check_names_the_refusal(self, kwargs, message):
        values = {"i_es": 1e-14, "i_cs": 1e-14, "alpha_n": 0.99, **kwargs}
        with pytest.raises(ValueError) as exc:
            BjtParams(**values)
        assert str(exc.value) == message


class TestEbersMoll:
    def test_zero_bias_gives_zero_currents(self):
        out = ebers_moll_currents(EXAMPLE_BJT, 0.0, 0.0)
        assert out.i_e == 0.0 and out.i_c == 0.0 and out.i_b == 0.0

    def test_forward_active_example(self):
        # oracle: v_be = 0.6 V, v_cb = -5 V with EXAMPLE_BJT
        out = ebers_moll_currents(EXAMPLE_BJT, 0.6, -5.0)
        assert out.i_e == pytest.approx(1.2010369553228534e-4, rel=1e-9)
        assert out.i_c == pytest.approx(1.1890265858597248e-4, rel=1e-9)
        assert out.i_b == pytest.approx(1.2010369463128534e-6, rel=1e-9)

    @pytest.mark.parametrize("v_cb", [-0.5, -1.0, -2.0, -5.0, -10.0])
    def test_matches_active_region_when_collector_reverse_biased(self, v_cb):
        full = ebers_moll_currents(EXAMPLE_BJT, 0.6, v_cb)
        act = active_region_currents(EXAMPLE_BJT, 0.6)
        assert full.i_e == pytest.approx(act.i_e, rel=1e-8)
        assert full.i_c == pytest.approx(act.i_c, rel=1e-8)

    def test_overflow_names_offending_voltage(self):
        with pytest.raises(OverflowError, match="v_be"):
            ebers_moll_currents(EXAMPLE_BJT, 6.0, -5.0)
        with pytest.raises(OverflowError, match="v_cb"):
            ebers_moll_currents(EXAMPLE_BJT, 0.6, 6.0)

    def test_conservation_over_random_draws(self):
        rng = random.Random(101)
        for _ in range(300):
            params = random_bjt(rng)
            v_be = rng.uniform(-0.2, 0.75)
            v_cb = rng.uniform(-10.0, 0.3)
            out = ebers_moll_currents(params, v_be, v_cb)
            scale = max(abs(out.i_e), abs(out.i_b), abs(out.i_c))
            assert abs(out.i_e - (out.i_b + out.i_c)) <= 1e-12 * scale


def _small_signal_with_v_cb(v_cb):
    # v_cb = v_be - v_ce; finite voltages of 1e308 and opposite signs give +-inf
    v_be = 0.6 if math.isfinite(v_cb) else math.copysign(1e308, v_cb)
    v_ce = 0.6 - v_cb if math.isfinite(v_cb) else -v_be
    op = OperatingPoint(v_be=v_be, i_b=1e-5, i_c=1e-3, i_e=1.01e-3, v_ce=v_ce)
    return small_signal_params(EXAMPLE_BJT, op)


# Every exponential of the package, as (guarded voltage, evaluation at v).
EXP_PATHS = {
    "active_region_currents": ("v_be", lambda v: active_region_currents(EXAMPLE_BJT, v)),
    "ebers_moll_currents-v_be": ("v_be", lambda v: ebers_moll_currents(EXAMPLE_BJT, v, -5.0)),
    "ebers_moll_currents-v_cb": ("v_cb", lambda v: ebers_moll_currents(EXAMPLE_BJT, 0.6, v)),
    "small_signal_params": ("v_cb", _small_signal_with_v_cb),
}
# A difference of finite voltages is never NaN, so small_signal_params gets none.
NON_FINITE_CASES = [
    (path, value)
    for path in EXP_PATHS
    for value in (math.nan, math.inf, -math.inf)
    if not (path == "small_signal_params" and math.isnan(value))
]


class TestExponentialGuard:
    @pytest.mark.parametrize("path", EXP_PATHS)
    def test_over_cap_raises_overflow_error(self, path):
        name, evaluate = EXP_PATHS[path]
        with pytest.raises(OverflowError) as exc:
            evaluate(6.0)
        assert str(exc.value) == (
            f"{name} = 6 V gives exp argument 232.1 above the overflow cap 200"
        )

    @pytest.mark.parametrize(
        "voltage, temperature, text",
        [
            (5.2, 300.0, "{} = 5.2 V gives exp argument 201.1 above the overflow cap 200"),
            (0.25, 1.0, "{} = 0.25 V gives exp argument 2901.1 above the overflow cap 200"),
            (1e-90, 1e-100,
             "{} = 1e-90 V gives exp argument 116045181215500.8 above the overflow cap 200"),
            (123456789.0, 1e-3,
             "{} = 1.23457e+08 V gives exp argument 1432656545178884.5 above the overflow cap 200"),
            # from 1e16 on, the argument is shown in g form: with .1f, the
            # 1e300 V case spelled out 302 digits in a 366-character message
            (1e-88, 1e-100,
             "{} = 1e-88 V gives exp argument 1.16045e+16 above the overflow cap 200"),
            (1e300, 300.0,
             "{} = 1e+300 V gives exp argument 3.86817e+301 above the overflow cap 200"),
            (1e308, 1e-100, "{} = 1e+308 V gives exp argument inf above the overflow cap 200"),
        ],
    )
    def test_over_cap_text_is_pinned(self, voltage, temperature, text):
        device = BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, temperature=temperature)
        for name, evaluate in [
            ("v_be", lambda: active_region_currents(device, voltage)),
            ("v_cb", lambda: ebers_moll_currents(device, 0.0, voltage)),
        ]:
            with pytest.raises(OverflowError) as exc:
                evaluate()
            assert str(exc.value) == text.format(name)

    @pytest.mark.parametrize("path", EXP_PATHS)
    def test_cap_itself_is_evaluated(self, path):
        evaluate = EXP_PATHS[path][1]
        evaluate(VT_300 * 199.0)

    @pytest.mark.parametrize("path, value", NON_FINITE_CASES)
    def test_non_finite_raises_value_error(self, path, value):
        name, evaluate = EXP_PATHS[path]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            evaluate(value)

    def test_deep_saturated_solution_refuses_small_signal(self):
        # the demo stage with r_l = 20e3 solves to v_ce = -141.5 V
        config = AmplifierConfig(
            v_cc=12.0, r_b1=100e3, r_b2=20e3, r_l=20e3, device=EXAMPLE_BJT
        )
        op = solve_operating_point(config)
        assert op.saturated
        with pytest.raises(OverflowError) as exc:
            small_signal_params(config.device, op)
        assert str(exc.value) == (
            "v_cb = 142.228 V gives exp argument 5501.6 above the overflow cap 200"
        )


class TestActiveRegion:
    def test_small_bias_is_exact(self):
        # exp(v/Vt) - 1 cancelled to a relative error of 6.7e-8 at 1 pV
        x = 1e-12 / VT_300
        out = active_region_currents(EXAMPLE_BJT, 1e-12)
        assert out.i_e == pytest.approx(1e-14 * (x + x * x / 2), rel=1e-14, abs=0.0)

    def test_zero_bias(self):
        out = active_region_currents(EXAMPLE_BJT, 0.0)
        assert out.i_e == 0.0 and out.i_c == 0.0 and out.i_b == 0.0

    def test_forward_example(self):
        # oracle: same parameters as the full-equation example
        out = active_region_currents(EXAMPLE_BJT, 0.6)
        assert out.i_e == pytest.approx(1.2010369553128534e-4, rel=1e-9)
        assert out.i_c == pytest.approx(1.1890265857597248e-4, rel=1e-9)
        assert out.i_b == pytest.approx(1.2010369553128534e-6, rel=1e-9)

    def test_collector_emitter_ratio_is_alpha(self):
        for v_be in (0.1, 0.3, 0.55, 0.7):
            out = active_region_currents(EXAMPLE_BJT, v_be)
            assert out.i_c / out.i_e == pytest.approx(EXAMPLE_BJT.alpha_n, rel=1e-14)

    def test_collector_current_strictly_increasing(self):
        grid = [k * 0.025 for k in range(1, 30)]
        currents = [active_region_currents(EXAMPLE_BJT, v).i_c for v in grid]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_gain_matches_closed_form(self):
        rng = random.Random(202)
        for _ in range(100):
            params = random_bjt(rng)
            out = active_region_currents(params, rng.uniform(0.2, 0.75))
            assert out.i_c / out.i_b == pytest.approx(
                beta_from_alpha(params.alpha_n), rel=1e-10
            )


class TestBetaFromAlpha:
    def test_half(self):
        assert beta_from_alpha(0.5) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.99, 99.0), (0.999, 999.0)])
    def test_high_gain(self, alpha, beta):
        assert beta_from_alpha(alpha) == pytest.approx(beta, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.2, -0.3])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            beta_from_alpha(bad)


class TestMos:
    def test_cutoff(self):
        assert mos_drain_current(EXAMPLE_MOS, 0.5, 5.0) == 0.0

    def test_saturation_example(self):
        assert mos_drain_current(EXAMPLE_MOS, 2.0, 5.0) == pytest.approx(1.0e-3, rel=1e-12)

    def test_triode_value(self):
        # k'*((vgs-VT)*vds - vds^2/2) = 2e-3*(2*1 - 0.5)
        assert mos_drain_current(EXAMPLE_MOS, 3.0, 1.0) == pytest.approx(3.0e-3, rel=1e-12)

    def test_branch_continuity(self):
        v_gs = 2.3
        v_ov = v_gs - EXAMPLE_MOS.v_threshold
        below = mos_drain_current(EXAMPLE_MOS, v_gs, v_ov * (1 - 1e-13))
        at = mos_drain_current(EXAMPLE_MOS, v_gs, v_ov)
        assert below == pytest.approx(at, rel=1e-12)

    def test_negative_vds_rejected(self):
        with pytest.raises(ValueError):
            mos_drain_current(EXAMPLE_MOS, 2.0, -0.1)

    @pytest.mark.parametrize("k_prime, v_gs, v_ds", [
        (1e-10, 1e160, 1e150),  # v_ov * v_ds alone is past the float range
        (1.2e308, 1.5000001, 1.5),  # k_prime * v_ds alone is
        (2e-3, 3.0, 1.0),
        (1e-300, 1e200, 3e199),
    ])
    def test_triode_current_is_the_exact_value_rounded(self, k_prime, v_gs, v_ds):
        exact = Fraction(k_prime) * Fraction(v_ds) * (Fraction(v_gs) - Fraction(v_ds) / 2)
        got = mos_drain_current(MosParams(k_prime, 0.0), v_gs, v_ds)
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("function, args, text", [
        (mos_drain_current, (1e300, 1e200), "i_d must be finite, got inf"),  # triode, was nan
        (mos_drain_current, (1e300, 2e300), "i_d must be finite, got inf"),  # saturation
        (mos_transconductance, (1e300,), "g_m must be finite, got inf"),
    ])
    def test_result_past_the_float_range_is_refused_by_name(self, function, args, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            function(MosParams(1e10, 0.0), *args)

    def test_transconductance_example(self):
        assert mos_transconductance(EXAMPLE_MOS, 2.0) == pytest.approx(2.0e-3, rel=1e-12)

    def test_transconductance_zero_at_threshold(self):
        assert mos_transconductance(EXAMPLE_MOS, EXAMPLE_MOS.v_threshold) == 0.0
        assert mos_transconductance(EXAMPLE_MOS, 0.2) == 0.0

    def test_transconductance_matches_finite_difference(self):
        # central differences of the drain current, saturation branch
        delta = 1e-6
        for k in range(10):
            v_gs = 1.5 + 0.25 * k
            v_ds = 10.0  # deep saturation either side of the step
            fd = (
                mos_drain_current(EXAMPLE_MOS, v_gs + delta, v_ds)
                - mos_drain_current(EXAMPLE_MOS, v_gs - delta, v_ds)
            ) / (2 * delta)
            assert mos_transconductance(EXAMPLE_MOS, v_gs) == pytest.approx(fd, rel=1e-6)


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(i_es=0.0, i_cs=1e-14, alpha_n=0.99),
            dict(i_es=1e-14, i_cs=-1e-14, alpha_n=0.99),
            dict(i_es=1e-14, i_cs=1e-14, alpha_n=1.0),
            dict(i_es=1e-14, i_cs=1e-14, alpha_n=0.0),
            dict(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, alpha_i=0.99),
            dict(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, alpha_i=-0.1),
            dict(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, temperature=0.0),
        ],
    )
    def test_bjt_invariants(self, kwargs):
        with pytest.raises(ValueError):
            BjtParams(**kwargs)

    # i_es=nan and temperature=inf used to be accepted: the bias solve then
    # ran to "did not converge", or to a zero-current point at Vt = inf.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("i_es", math.nan),
            ("i_es", math.inf),
            ("i_cs", math.nan),
            ("i_cs", math.inf),
            ("temperature", math.inf),
            ("temperature", math.nan),
        ],
    )
    def test_bjt_rejects_non_finite(self, field, value):
        kwargs = dict(i_es=1e-14, i_cs=1e-14, alpha_n=0.99)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BjtParams(**kwargs)

    def test_bjt_defaults(self):
        params = BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99)
        assert params.alpha_i == 0.0
        assert params.temperature == 300.0

    def test_mos_invariants(self):
        with pytest.raises(ValueError):
            MosParams(k_prime=0.0, v_threshold=1.0)

    def test_currents_conservation_enforced(self):
        with pytest.raises(ValueError):
            BjtCurrents(i_e=1.0, i_c=0.5, i_b=0.4)
        BjtCurrents(i_e=1.0, i_c=0.5, i_b=0.5)  # consistent triple passes
