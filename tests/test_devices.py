"""Device model tests.

Expected values tagged "oracle" were computed ahead of time with a
40-digit evaluation of the device equations (mpmath); the finite
difference checks are independent of the analytic formulas they verify.
"""

import math
import random

import pytest

from econamp.circuit import (
    AmplifierConfig,
    OperatingPoint,
    small_signal_params,
    solve_operating_point,
)
from econamp.devices import (
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
