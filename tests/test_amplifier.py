import math
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from econamp.amplifier import (
    OperatingLimits,
    breakdown_check,
    cascade_gain,
    current_gain,
    output_power,
    output_voltage,
    stage_gain,
    stage_voltage_gain,
)
from econamp.circuit import OperatingPoint, SmallSignalParams
from econamp.devices import active_region_currents, beta_from_alpha, BjtParams


def make_op(i_c=1e-3, v_ce=5.0, i_b=1e-5):
    return OperatingPoint(v_be=0.65, i_b=i_b, i_c=i_c, i_e=i_b + i_c, v_ce=v_ce)


class TestCurrentGain:
    def test_example(self):
        assert current_gain(99e-6, 1e-6) == pytest.approx(99.0, rel=1e-12)

    def test_identity(self):
        assert current_gain(3.7e-3, 3.7e-3) == 1.0

    def test_reproduces_closed_form_on_device_currents(self):
        params = BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.98)
        out = active_region_currents(params, 0.62)
        assert current_gain(out.i_c, out.i_b) == pytest.approx(
            beta_from_alpha(params.alpha_n), rel=1e-10
        )

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            current_gain(1e-3, 0.0)


class TestOutputQuantities:
    def test_voltage_example(self):
        assert output_voltage(1e-3, 1000.0) == pytest.approx(1.0)

    def test_voltage_zero_current(self):
        assert output_voltage(0.0, 4.7e3) == 0.0

    def test_voltage_bilinear(self):
        base = output_voltage(2e-3, 500.0)
        assert output_voltage(4e-3, 500.0) == pytest.approx(2 * base)
        assert output_voltage(2e-3, 1000.0) == pytest.approx(2 * base)

    def test_power_example(self):
        assert output_power(1e-3, 1000.0) == pytest.approx(1.0e-3)

    def test_power_even_in_current(self):
        assert output_power(-2e-3, 820.0) == output_power(2e-3, 820.0)

    def test_power_factorizes_through_voltage(self):
        rng = random.Random(11)
        for _ in range(50):
            i = rng.uniform(-0.1, 0.1)
            r = rng.uniform(1.0, 1e5)
            assert output_power(i, r) == pytest.approx(output_voltage(i, r) * i, rel=1e-12)

    def test_result_past_the_float_range_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^v_out must be finite, got inf$"):
            output_voltage(1e300, 1e300)
        with pytest.raises(ValueError, match=r"^v_out must be finite, got -inf$"):
            output_voltage(-1e300, 1e300)
        with pytest.raises(ValueError, match=r"^power_out must be finite, got inf$"):
            output_power(1e200, 1e10)
        # near the top of the float range, the value is returned, not refused
        assert output_voltage(1.7e298, 1e10) == pytest.approx(1.7e308, rel=1e-15)
        assert output_power(1e150, 1.7e8) == pytest.approx(1.7e308, rel=1e-15)

    def test_positive_load_required(self):
        with pytest.raises(ValueError):
            output_voltage(1e-3, 0.0)
        with pytest.raises(ValueError):
            output_power(1e-3, -10.0)


class TestStageVoltageGain:
    def test_example(self):
        ss = SmallSignalParams(r_in=1e3, g_out=0.0, slope_s=0.04)
        assert stage_voltage_gain(ss, 1000.0) == pytest.approx(40.0)

    def test_vanishes_with_load(self):
        ss = SmallSignalParams(r_in=1e3, g_out=0.0, slope_s=0.04)
        assert stage_voltage_gain(ss, 1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_load(self):
        ss = SmallSignalParams(r_in=1e3, g_out=0.0, slope_s=0.04)
        gains = [stage_voltage_gain(ss, r) for r in (100.0, 1e3, 1e4)]
        assert gains == sorted(gains)


class TestCascade:
    def test_example(self):
        assert cascade_gain([10.0, 20.0]) == 200.0

    def test_single_stage(self):
        assert cascade_gain([7.0]) == 7.0

    def test_inverse_stages(self):
        assert cascade_gain([2.0, 0.5]) == 1.0

    def test_permutation_invariant(self):
        rng = random.Random(12)
        gains = [rng.uniform(0.5, 20.0) for _ in range(6)]
        shuffled = gains[:]
        rng.shuffle(shuffled)
        assert cascade_gain(shuffled) == pytest.approx(cascade_gain(gains), rel=1e-12)

    def test_distributes_over_concatenation(self):
        rng = random.Random(13)
        for _ in range(30):
            a = [rng.uniform(0.1, 50.0) for _ in range(rng.randint(1, 5))]
            b = [rng.uniform(0.1, 50.0) for _ in range(rng.randint(1, 5))]
            assert cascade_gain(a + b) == pytest.approx(
                cascade_gain(a) * cascade_gain(b), rel=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cascade_gain([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_stage_rejected(self, bad):
        # used to return nan or inf
        with pytest.raises(ValueError, match="stage 2 gain must be finite"):
            cascade_gain([3.0, bad, 2.0])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows at stage 3"):
            cascade_gain([1e200, 1e-10, 1e200, 1.0])

    @pytest.mark.parametrize(
        "gains,stage",
        [([1e-200, 1e-200], 2), ([5e-324, 0.5], 2), ([3.0, 1e-200, 1e-200, 1e300], 3),
         ([-1e-200, 1e-200], 2)],
    )
    def test_underflow_rejected(self, gains, stage):
        # a product of non-zero gains that reached 0 used to be returned as 0.0
        with pytest.raises(ValueError, match=f"^cascade gain underflows at stage {stage}$"):
            cascade_gain(gains)

    @pytest.mark.parametrize(
        "gains,expected",
        [([0.0, 5.0], 0.0), ([1e-200, 1e-200, 0.0], 0.0), ([1e-160, 1e-160], 1e-160 * 1e-160)],
    )
    def test_zero_gain_and_subnormal_products_kept(self, gains, expected):
        assert cascade_gain(gains) == expected


class TestBreakdown:
    def test_current_limit(self):
        violations = breakdown_check(make_op(i_c=0.2, v_ce=1.0), OperatingLimits(i_c_max=0.1))
        assert violations
        assert "i_c" in violations

    def test_all_zero_point_is_healthy(self):
        op = OperatingPoint(v_be=0.0, i_b=0.0, i_c=0.0, i_e=0.0, v_ce=0.0)
        assert breakdown_check(op, OperatingLimits()) == ()

    def test_exactly_at_limit_is_healthy(self):
        limits = OperatingLimits(i_c_max=0.05, v_ce_max=10.0, p_max=0.5)
        op = make_op(i_c=0.05, v_ce=10.0)
        assert breakdown_check(op, limits) == ()

    def test_power_limit(self):
        violations = breakdown_check(make_op(i_c=0.09, v_ce=30.0), OperatingLimits())
        assert violations == ("power",)

    def test_multiple_violations_listed(self):
        violations = breakdown_check(
            make_op(i_c=0.5, v_ce=50.0), OperatingLimits(i_c_max=0.1, v_ce_max=40.0, p_max=0.5)
        )
        assert violations == ("i_c", "v_ce", "power")

    def test_monotone_in_limits(self):
        rng = random.Random(14)
        for _ in range(100):
            op = make_op(i_c=rng.uniform(0.0, 0.3), v_ce=rng.uniform(0.0, 60.0))
            tight = OperatingLimits(
                i_c_max=rng.uniform(0.01, 0.2),
                v_ce_max=rng.uniform(5.0, 50.0),
                p_max=rng.uniform(0.1, 2.0),
            )
            loose = OperatingLimits(
                i_c_max=tight.i_c_max * 2,
                v_ce_max=tight.v_ce_max * 2,
                p_max=tight.p_max * 2,
            )
            if breakdown_check(op, tight) == ():
                assert breakdown_check(op, loose) == ()

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            OperatingLimits(i_c_max=0.0)

    @pytest.mark.parametrize("name", ["i_c_max", "v_ce_max", "p_max"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_limit_rejected(self, name, bad):
        # NaN used to pass and turn every comparison into "healthy"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OperatingLimits(**{name: bad})

    def test_status_default_is_healthy(self):
        # a point inside every default limit violates none, as an empty tuple
        assert breakdown_check(make_op(), OperatingLimits()) == ()


class TestStageGainBundle:
    def test_composes_the_three_figures(self):
        op = make_op(i_c=2e-3, i_b=2e-5)
        ss = SmallSignalParams(r_in=500.0, g_out=0.0, slope_s=0.0774)
        bundle = stage_gain(op, ss, 1e3)
        assert bundle.beta_current == pytest.approx(100.0)
        assert bundle.voltage_gain == pytest.approx(77.4)
        assert bundle.power_out == pytest.approx(4e-3)

    def test_power_out_is_output_power(self):
        rng = random.Random(17)
        ss = SmallSignalParams(r_in=500.0, g_out=0.0, slope_s=0.0774)
        for _ in range(1000):
            i_c, r_l = 10 ** rng.uniform(-12, 0), 10 ** rng.uniform(0, 7)
            op = make_op(i_c=i_c, i_b=i_c / 100.0)
            assert stage_gain(op, ss, r_l).power_out == output_power(i_c, r_l)

    # The exact text and order of each refusal: every input is checked once,
    # i_c and i_b by current_gain, then r_l by stage_voltage_gain. The point
    # is a plain namespace, since OperatingPoint refuses these values itself.
    @pytest.mark.parametrize(
        "i_c, i_b, r_l, message",
        [
            (1e-3, 1e-5, math.nan, "r_l must be finite and > 0, got nan"),
            (1e-3, 1e-5, math.inf, "r_l must be finite and > 0, got inf"),
            (1e-3, 1e-5, 0.0, "r_l must be finite and > 0, got 0.0"),
            (1e-3, 1e-5, -1.0, "r_l must be finite and > 0, got -1.0"),
            (math.nan, 1e-5, 1e3, "i_out must be finite, got nan"),
            (math.inf, 1e-5, 1e3, "i_out must be finite, got inf"),
            (-math.inf, 1e-5, 1e3, "i_out must be finite, got -inf"),
            (1e-3, math.nan, 1e3, "i_in must be finite, got nan"),
            (1e-3, math.inf, 1e3, "i_in must be finite, got inf"),
            (1e-3, 0.0, 1e3, "input current must be non-zero"),
            (1e-3, 0.0, math.nan, "input current must be non-zero"),
            (math.nan, 1e-5, math.nan, "i_out must be finite, got nan"),
        ],
    )
    def test_refusals_are_pinned(self, i_c, i_b, r_l, message):
        op = SimpleNamespace(i_c=i_c, i_b=i_b)
        ss = SmallSignalParams(r_in=500.0, g_out=0.0, slope_s=0.0774)
        with pytest.raises(ValueError) as info:
            stage_gain(op, ss, r_l)
        assert str(info.value) == message


def test_importing_amplifier_loads_no_circuit(child_env):
    # the gains read circuit's types by their fields only
    child = (
        "import sys, econamp.amplifier\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'econamp'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [
        "econamp", "econamp.amplifier", "econamp.cascade", "econamp.errors",
    ]
