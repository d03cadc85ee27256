"""Stage gains, output power, cascade composition and operating-limit checks."""

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .circuit import OperatingPoint, SmallSignalParams
from .devices import require_finite


@dataclass(frozen=True)
class StageGain:
    beta_current: float
    voltage_gain: float
    power_out: float

    def __post_init__(self):
        require_finite("beta_current, voltage_gain", (self.beta_current, self.voltage_gain))
        require_finite("power_out", (self.power_out,), ">= 0")


@dataclass(frozen=True)
class OperatingLimits:
    """Device ratings; defaults are representative small-signal ratings."""

    i_c_max: float = 0.1
    v_ce_max: float = 40.0
    p_max: float = 0.5

    def __post_init__(self):
        require_finite(
            "i_c_max, v_ce_max, p_max", (self.i_c_max, self.v_ce_max, self.p_max), "> 0"
        )


def current_gain(i_out: float, i_in: float) -> float:
    """Output current over input current."""
    require_finite("i_out, i_in", (i_out, i_in))
    if i_in == 0:
        raise ValueError("input current must be non-zero")
    return i_out / i_in


def output_voltage(i_out: float, r_l: float) -> float:
    """Voltage taken from the load resistor: i_out * r_l."""
    require_finite("i_out", (i_out,))
    require_finite("r_l", (r_l,), "> 0")
    return i_out * r_l


def output_power(i_c: float, r_l: float) -> float:
    """Power delivered to the load: r_l * i_c^2."""
    require_finite("i_c", (i_c,))
    require_finite("r_l", (r_l,), "> 0")
    return r_l * i_c * i_c


def stage_voltage_gain(ss: SmallSignalParams, r_l: float) -> float:
    """Magnitude of the stage voltage gain, slope_s * r_l.

    The CE stage inverts; the sign is a convention and is not returned.
    """
    require_finite("r_l", (r_l,), "> 0")
    return ss.slope_s * r_l


def cascade_gain(stage_gains: Sequence[float]) -> float:
    """Total gain of stages in cascade: the product of the stage gains.

    A non-finite stage gain, or a product that overflows, raises ValueError
    naming the (1-based) stage.
    """
    if not stage_gains:
        raise ValueError("cascade needs at least one stage gain")
    total = 1.0
    for stage, gain in enumerate(stage_gains, start=1):
        require_finite(f"stage {stage} gain", (gain,))
        total *= gain
        if not math.isfinite(total):
            raise ValueError(f"cascade gain overflows at stage {stage}")
    return total


def stage_gain(op: OperatingPoint, ss: SmallSignalParams, r_l: float) -> StageGain:
    """Bundle the three gain figures of one solved stage."""
    return StageGain(
        beta_current=current_gain(op.i_c, op.i_b),
        voltage_gain=stage_voltage_gain(ss, r_l),
        power_out=output_power(op.i_c, r_l),
    )


def breakdown_check(op: OperatingPoint, limits: OperatingLimits) -> tuple[str, ...]:
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
