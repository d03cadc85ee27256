"""Device models: Ebers-Moll bipolar transistor and square-law MOS transistor.

All functions are pure; parameter objects are frozen and validated on
construction, so values can be shared freely between threads.

The stage's eight value types, here, in circuit and in amplifier, are
errors.Record subclasses, as the economic ones are. Each declares its fields
once, as the parameters of its written-out __init__, which runs the checks,
then stores every field in one step.
"""

import math
import sys

from .errors import Record, require_finite

# CODATA 2018 exact values
BOLTZMANN_K = 1.380649e-23      # J/K
ELECTRON_CHARGE = 1.602176634e-19  # C

# Largest exponent argument accepted before the device model refuses to
# evaluate (e^200 ~ 7.2e86; anything out there is an unphysical regime).
EXP_ARG_CAP = 200.0

DEFAULT_TEMPERATURE = 300.0     # K, room temperature convention


def require_conserved(i_e: float, i_b: float, i_c: float) -> None:
    """Raise ValueError unless the currents are finite and i_e = i_b + i_c (rel 1e-12)."""
    scale = max(abs(i_e), abs(i_c), abs(i_b))
    # NaN fails the first comparison, inf the second
    if not abs(i_e - (i_b + i_c)) <= 1e-12 * scale < math.inf:
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
        require_finite("i_es, i_cs, temperature", (i_es, i_cs, temperature), "> 0")
        if BOLTZMANN_K * temperature < sys.float_info.min:
            thermal_voltage(temperature)  # raises its k*T refusal
        if not 0.0 < alpha_n < 1.0:
            raise ValueError(f"alpha_n must lie strictly in (0, 1), got {alpha_n}")
        if not 0.0 <= alpha_i < alpha_n:
            raise ValueError(f"alpha_i must satisfy 0 <= alpha_i < alpha_n, got {alpha_i}")
        self.__dict__.update(
            i_es=i_es, i_cs=i_cs, alpha_n=alpha_n, alpha_i=alpha_i, temperature=temperature
        )


class MosParams(Record):
    """Square-law MOS parameters: k_prime in A/V^2, threshold in volts."""

    def __init__(self, k_prime: float, v_threshold: float):
        require_finite("k_prime", (k_prime,), "> 0")
        require_finite("v_threshold", (v_threshold,))
        self.__dict__.update(k_prime=k_prime, v_threshold=v_threshold)


class BjtCurrents(Record):
    """Terminal currents of a bipolar device; i_e = i_b + i_c by charge conservation."""

    def __init__(self, i_e: float, i_c: float, i_b: float):
        require_conserved(i_e, i_b, i_c)
        self.__dict__.update(i_e=i_e, i_c=i_c, i_b=i_b)


def thermal_voltage(temperature: float) -> float:
    """kT/e in volts (~25.85 mV at 300 K); the temperature must be finite,
    > 0 and give a normal float k*T (temperature >= 1.611614435317884e-285 K)."""
    require_finite("temperature", (temperature,), "> 0")
    if BOLTZMANN_K * temperature < sys.float_info.min:
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


def ebers_moll_currents(params: BjtParams, v_be: float, v_cb: float) -> BjtCurrents:
    """Static terminal currents from the full two-junction coupled exponentials.

    i_e = i_es*(exp(v_be/Vt) - 1) - alpha_i*i_cs*(exp(v_cb/Vt) - 1)
    i_c = alpha_n*i_es*(exp(v_be/Vt) - 1) - i_cs*(exp(v_cb/Vt) - 1)
    i_b = i_e - i_c

    v_cb is the collector-junction forward voltage: negative when the
    junction is reverse biased (the normal amplification regime).
    """
    vt = _thermal_voltage(params.temperature)
    x_be = math.expm1(_junction_arg(v_be, vt, "v_be"))
    x_cb = math.expm1(_junction_arg(v_cb, vt, "v_cb"))
    i_e = params.i_es * x_be - params.alpha_i * params.i_cs * x_cb
    i_c = params.alpha_n * params.i_es * x_be - params.i_cs * x_cb
    return BjtCurrents(i_e=i_e, i_c=i_c, i_b=i_e - i_c)


def active_region_currents(params: BjtParams, v_be: float) -> BjtCurrents:
    """Terminal currents with the collector junction strongly reverse biased.

    The collector-junction exponential drops out and only the emitter
    junction drives the device:

    i_e = i_es*(exp(v_be/Vt) - 1)
    i_c = alpha_n * i_e
    i_b = (1 - alpha_n) * i_e
    """
    vt = _thermal_voltage(params.temperature)
    i_e = params.i_es * math.expm1(_junction_arg(v_be, vt, "v_be"))
    return BjtCurrents(
        i_e=i_e,
        i_c=params.alpha_n * i_e,
        i_b=(1.0 - params.alpha_n) * i_e,
    )


def beta_from_alpha(alpha_n: float) -> float:
    """Common-emitter current gain beta = alpha_n / (1 - alpha_n)."""
    if not 0.0 < alpha_n < 1.0:
        raise ValueError(
            f"alpha_n must lie strictly in (0, 1) for a finite beta, got {alpha_n}"
        )
    return alpha_n / (1.0 - alpha_n)


def mos_drain_current(params: MosParams, v_gs: float, v_ds: float) -> float:
    """Square-law drain current with cutoff, triode and saturation regions.

    A current past the float range is refused as i_d.
    """
    require_finite("v_gs", (v_gs,))
    require_finite("v_ds", (v_ds,), ">= 0")
    v_ov = v_gs - params.v_threshold
    if v_ov <= 0:
        return 0.0
    if v_ov == math.inf:
        # v_gs - v_threshold overflowed, so every v_ds lies below it, in the triode
        # region: the law on the half of v_ov, which is finite, and twice the result
        half_ov = 0.5 * v_gs - 0.5 * params.v_threshold
        i_d = params.k_prime * v_ds * (half_ov - 0.25 * v_ds) * 2.0
    elif v_ds < v_ov:
        # factored, so no partial product overflows or cancels where i_d does not:
        # v_ov - v_ds/2 lies in (v_ov/2, v_ov]
        i_d = params.k_prime * v_ds * (v_ov - 0.5 * v_ds)
        if i_d == math.inf:  # k_prime * v_ds alone overflowed, the factor after it < 1
            i_d = params.k_prime * (v_ds * (v_ov - 0.5 * v_ds))
        elif params.k_prime * v_ds < sys.float_info.min:
            # k_prime * v_ds lost bits below the normal range: the frexp mantissas'
            # product, in [1/8, 1) or 0, scaled by the summed exponents; i_d < 4 here
            (m_k, e_k), (m_d, e_d), (m_f, e_f) = map(
                math.frexp, (params.k_prime, v_ds, v_ov - 0.5 * v_ds)
            )
            i_d = math.ldexp(m_k * m_d * m_f, e_k + e_d + e_f)
    else:
        i_d = 0.5 * params.k_prime * v_ov * v_ov
    require_finite("i_d", (i_d,))
    return i_d


def mos_transconductance(params: MosParams, v_gs: float) -> float:
    """Saturation-region slope dI_D/dV_GS = k_prime*(v_gs - V_T); 0 in cutoff.

    A slope past the float range is refused as g_m.
    """
    require_finite("v_gs", (v_gs,))
    v_ov = v_gs - params.v_threshold
    if v_ov <= 0:
        return 0.0
    if v_ov == math.inf:  # v_gs - v_threshold overflowed: twice the slope on its half
        g_m = params.k_prime * (0.5 * v_gs - 0.5 * params.v_threshold) * 2.0
    else:
        g_m = params.k_prime * v_ov
    require_finite("g_m", (g_m,))
    return g_m
