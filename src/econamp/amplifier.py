"""Stage gains, output power and operating-limit checks.

cascade_gain, the composition of stage gains, is defined in its own module
and re-exported here, so that `cascade` does not load this module. The two
value types here are errors.Record subclasses, like every value type of the
package, so importing this module loads only errors and cascade besides.
"""

from .cascade import cascade_gain  # noqa: F401 (re-exported)
from .errors import _FLOAT_MAX, _FLOAT_TINY, Record, require_finite

# circuit's OperatingPoint and SmallSignalParams are annotated by name only:
# the gains read only their fields, so importing this module loads no circuit.


class StageGain(Record):
    """Current gain, voltage gain magnitude and load power of one solved stage."""

    def __init__(self, beta_current: float, voltage_gain: float, power_out: float):
        if not (
            -_FLOAT_MAX <= beta_current <= _FLOAT_MAX
            and -_FLOAT_MAX <= voltage_gain <= _FLOAT_MAX
            and (_FLOAT_TINY <= power_out <= _FLOAT_MAX or power_out == 0.0)
        ):
            require_finite("beta_current, voltage_gain", (beta_current, voltage_gain))
            require_finite("power_out", (power_out,), ">= 0")
        d = self.__dict__
        d["beta_current"], d["voltage_gain"], d["power_out"] = (
            beta_current, voltage_gain, power_out
        )


class OperatingLimits(Record):
    """Device ratings; defaults are representative small-signal ratings."""

    def __init__(self, i_c_max: float = 0.1, v_ce_max: float = 40.0, p_max: float = 0.5):
        require_finite("i_c_max, v_ce_max, p_max", (i_c_max, v_ce_max, p_max), "> 0")
        d = self.__dict__
        d["i_c_max"], d["v_ce_max"], d["p_max"] = i_c_max, v_ce_max, p_max


def current_gain(i_out: float, i_in: float) -> float:
    """Output current over input current, refused as beta_current past the float range."""
    require_finite("i_out, i_in", (i_out, i_in))
    if i_in == 0:
        raise ValueError(f"i_in must be non-zero, got {i_in}")
    beta_current = i_out / i_in
    require_finite("beta_current", (beta_current,))
    return beta_current


def output_voltage(i_out: float, r_l: float) -> float:
    """Voltage taken from the load resistor: i_out * r_l, refused as v_out past the float range."""
    require_finite("i_out", (i_out,))
    require_finite("r_l", (r_l,), "> 0")
    v_out = i_out * r_l
    require_finite("v_out", (v_out,))
    return v_out


def output_power(i_c: float, r_l: float) -> float:
    """Power delivered to the load: r_l * i_c^2, refused as power_out past the float range."""
    require_finite("i_c", (i_c,))
    require_finite("r_l", (r_l,), "> 0")
    power_out = r_l * i_c * i_c
    require_finite("power_out", (power_out,))
    return power_out


def stage_voltage_gain(ss: "SmallSignalParams", r_l: float) -> float:
    """Magnitude of the stage voltage gain, slope_s * r_l, refused as voltage_gain
    past the float range.

    The CE stage inverts; the sign is a convention and is not returned.
    """
    require_finite("r_l", (r_l,), "> 0")
    voltage_gain = ss.slope_s * r_l
    require_finite("voltage_gain", (voltage_gain,))
    return voltage_gain


def stage_gain(op: "OperatingPoint", ss: "SmallSignalParams", r_l: float) -> StageGain:
    """Bundle the three gain figures of one solved stage.

    Refuses as current_gain and stage_voltage_gain do, in that order; where
    their inputs pass, the figures are formed here and StageGain checks each.
    """
    i_c, i_b = op.i_c, op.i_b
    if not (
        -_FLOAT_MAX <= i_c <= _FLOAT_MAX
        and -_FLOAT_MAX <= i_b <= _FLOAT_MAX
        and i_b != 0
        and _FLOAT_TINY <= r_l <= _FLOAT_MAX
    ):
        current_gain(i_c, i_b)
        stage_voltage_gain(ss, r_l)
    # current_gain's, stage_voltage_gain's and output_power's expressions
    return StageGain(i_c / i_b, ss.slope_s * r_l, r_l * i_c * i_c)


def breakdown_check(op: "OperatingPoint", limits: OperatingLimits) -> tuple[str, ...]:
    """Names of the operating limits the point exceeds; empty when healthy.

    The names come in the order i_c, v_ce, power. Strict violation
    triggers; sitting exactly at a limit is healthy.
    """
    violations = []
    if op.i_c > limits.i_c_max:
        violations.append("i_c")
    if op.v_ce > limits.v_ce_max:
        violations.append("v_ce")
    if op.i_c * op.v_ce > limits.p_max:
        violations.append("power")
    return tuple(violations)
