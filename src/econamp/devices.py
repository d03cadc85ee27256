"""The bipolar device of the stage: its parameters, thermal voltage and junction guard.

All functions are pure; parameter objects are frozen and validated on
construction, so values can be shared freely between threads. The stage
path needs only what is here. The current laws (BjtCurrents,
ebers_moll_currents, active_region_currents, beta_from_alpha) live in
currents and the square-law MOS device in mos, which no subcommand loads;
their names resolve from here too, importing their module on first use.

The stage's eight value types, here, in currents, mos, circuit and
amplifier, are errors.Record subclasses, as the economic ones are. Each
declares its fields once, as the parameters of its written-out __init__,
which runs the checks, then stores each field in the instance __dict__ by
item, in field order. That builds no keyword dict, and takes 0.07 to 0.2 us
less a value than __dict__.update on CPython 3.10 to 3.13.
"""

import math

from . import _forwarder
from .errors import _FLOAT_MAX, _FLOAT_MIN, _FLOAT_TINY, Record, require_finite

__getattr__ = _forwarder(globals(), {
    **dict.fromkeys(("MosParams", "mos_drain_current", "mos_transconductance"), "mos"),
    **dict.fromkeys(("BjtCurrents", "active_region_currents", "beta_from_alpha",
                     "ebers_moll_currents"), "currents"),
})

# CODATA 2018 exact values
BOLTZMANN_K = 1.380649e-23      # J/K
ELECTRON_CHARGE = 1.602176634e-19  # C

# Largest exponent argument accepted before the device model refuses to
# evaluate (e^200 ~ 7.2e86; anything out there is an unphysical regime).
EXP_ARG_CAP = 200.0

DEFAULT_TEMPERATURE = 300.0     # K, room temperature convention


def require_conserved(i_e: float, i_b: float, i_c: float) -> None:
    """Raise ValueError unless the currents are finite and i_e = i_b + i_c (rel 1e-12).

    An int past the float range is refused by require_finite, naming it.
    """
    try:
        scale = max(abs(i_e), abs(i_c), abs(i_b))
        # NaN fails the first comparison, inf the second
        conserved = abs(i_e - (i_b + i_c)) <= 1e-12 * scale < math.inf
    except OverflowError:  # an int past the float range met a float
        require_finite("i_e, i_b, i_c", (i_e, i_b, i_c))
        raise
    if not conserved:
        raise ValueError(
            f"currents must be finite and obey conservation i_e = i_b + i_c, "
            f"got i_e={i_e}, i_b={i_b}, i_c={i_c}"
        )


class BjtParams(Record):
    """Static bipolar transistor parameters (n-p-n convention).

    alpha_n is the forward common-base current-transfer ratio (i_c/i_e),
    alpha_i the reverse one; alpha_i defaults to 0 (pure forward modeling),
    temperature to 300 K and refused where thermal_voltage refuses it.
    """

    def __init__(
        self,
        i_es: float,
        i_cs: float,
        alpha_n: float,
        alpha_i: float = 0.0,
        temperature: float = DEFAULT_TEMPERATURE,
    ):
        if not (
            _FLOAT_TINY <= i_es <= _FLOAT_MAX
            and _FLOAT_TINY <= i_cs <= _FLOAT_MAX
            and _FLOAT_TINY <= temperature <= _FLOAT_MAX
        ):
            require_finite("i_es, i_cs, temperature", (i_es, i_cs, temperature), "> 0")
        if BOLTZMANN_K * temperature < _FLOAT_MIN:
            thermal_voltage(temperature)  # raises its k*T refusal
        if not 0.0 < alpha_n < 1.0:
            raise ValueError(f"alpha_n must lie strictly in (0, 1), got {alpha_n}")
        if not 0.0 <= alpha_i < alpha_n:
            raise ValueError(f"alpha_i must satisfy 0 <= alpha_i < alpha_n, got {alpha_i}")
        d = self.__dict__
        d["i_es"], d["i_cs"], d["alpha_n"], d["alpha_i"], d["temperature"] = (
            i_es, i_cs, alpha_n, alpha_i, temperature
        )


def thermal_voltage(temperature: float) -> float:
    """kT/e in volts (~25.85 mV at 300 K); the temperature must be finite,
    > 0 and give a normal float k*T (temperature >= 1.611614435317884e-285 K)."""
    require_finite("temperature", (temperature,), "> 0")
    if BOLTZMANN_K * temperature < _FLOAT_MIN:
        raise ValueError(
            f"temperature = {temperature} K gives k*T = {BOLTZMANN_K * temperature} J, "
            f"not a normal float"
        )
    return _thermal_voltage(temperature)


def _thermal_voltage(temperature: float) -> float:
    # for a temperature already validated, as every BjtParams one is
    return BOLTZMANN_K * temperature / ELECTRON_CHARGE


_ABOVE_CAP = f" above the overflow cap {EXP_ARG_CAP:g}"  # formatted once, not per refusal


def _junction_arg(voltage: float, vt: float, name: str) -> float:
    """voltage/vt, the argument of a junction exponential, or a refusal naming `name`.

    The package's one guard, on the exponentials whose argument is unbounded:
    the device laws', and small_signal_params' exp of v_cb. The bias solve
    guards none of its own; circuit's docstring says why. A NaN or infinite
    voltage, or an int past the float range, raises require_finite's
    ValueError, and an argument above EXP_ARG_CAP raises OverflowError("<name>
    = <v> V gives exp argument <arg> above the overflow cap 200") rather than
    letting exp return inf. The device laws take expm1 of it, which keeps
    exp(v/Vt) - 1 exact near 0 V, where the subtraction cancels: a root at
    3.1e-11 V came out 4.7e7 ulps off with it.
    """
    try:
        arg = voltage / vt
    except OverflowError:  # an int past the float range, which require_finite names
        arg = math.nan
    if not (arg <= EXP_ARG_CAP and voltage > -math.inf):  # NaN fails the first test
        require_finite(name, (voltage,))
        # .1f below 1e16, where it shows at most 17 digits; g above, so the text stays short
        text = f"{arg:.1f}" if arg < 1e16 else f"{arg:g}"
        raise OverflowError(f"{name} = {voltage:g} V gives exp argument {text}{_ABOVE_CAP}")
    return arg


