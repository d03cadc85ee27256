"""Device models: Ebers-Moll bipolar transistor and square-law MOS transistor.

All functions are pure; parameter objects are frozen and validated on
construction, so values can be shared freely between threads.
"""

import math
from dataclasses import dataclass

# CODATA 2018 exact values
BOLTZMANN_K = 1.380649e-23      # J/K
ELECTRON_CHARGE = 1.602176634e-19  # C

# Largest exponent argument accepted before the device model refuses to
# evaluate (e^200 ~ 7.2e86; anything out there is an unphysical regime).
EXP_ARG_CAP = 200.0

DEFAULT_TEMPERATURE = 300.0     # K, room temperature convention


def require_finite(names: str, values: tuple, bound: str = "") -> None:
    """Raise ValueError naming the first value that is not finite, or not past `bound`.

    The one validation rule of the package. `names` are the comma-separated
    names of `values`; `bound` is "" (finite only), "> 0" or ">= 0".
    """
    low = 0.0 if bound else -math.inf
    for value in values:  # the chained comparison also rejects NaN
        if not low < value < math.inf and not (value == 0.0 and bound == ">= 0"):
            # built only on failure; index() matches by identity first, so finds a NaN
            name = names.split(", ")[values.index(value)]
            raise ValueError(
                f"{name} must be finite{' and ' + bound if bound else ''}, got {value}"
            )


def require_conserved(i_e: float, i_b: float, i_c: float) -> None:
    """Raise ValueError unless the currents are finite and i_e = i_b + i_c (rel 1e-12)."""
    scale = max(abs(i_e), abs(i_c), abs(i_b))
    # NaN fails the first comparison, inf the second
    if not abs(i_e - (i_b + i_c)) <= 1e-12 * scale < math.inf:
        raise ValueError(
            f"currents must be finite and obey conservation i_e = i_b + i_c, "
            f"got i_e={i_e}, i_b={i_b}, i_c={i_c}"
        )


@dataclass(frozen=True)
class BjtParams:
    """Static bipolar transistor parameters (n-p-n convention).

    alpha_n is the forward common-base current-transfer ratio (i_c/i_e),
    alpha_i the reverse one; alpha_i defaults to 0 (pure forward modeling),
    temperature to 300 K.
    """

    i_es: float
    i_cs: float
    alpha_n: float
    alpha_i: float = 0.0
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        require_finite(
            "i_es, i_cs, temperature", (self.i_es, self.i_cs, self.temperature), "> 0"
        )
        if not 0.0 < self.alpha_n < 1.0:
            raise ValueError(f"alpha_n must lie strictly in (0, 1), got {self.alpha_n}")
        if not 0.0 <= self.alpha_i < self.alpha_n:
            raise ValueError(
                f"alpha_i must satisfy 0 <= alpha_i < alpha_n, got {self.alpha_i}"
            )


@dataclass(frozen=True)
class MosParams:
    """Square-law MOS parameters: k_prime in A/V^2, threshold in volts."""

    k_prime: float
    v_threshold: float

    def __post_init__(self):
        require_finite("k_prime", (self.k_prime,), "> 0")
        require_finite("v_threshold", (self.v_threshold,))


@dataclass(frozen=True)
class BjtCurrents:
    """Terminal currents of a bipolar device; i_e = i_b + i_c by charge conservation."""

    i_e: float
    i_c: float
    i_b: float

    def __post_init__(self):
        require_conserved(self.i_e, self.i_b, self.i_c)


def thermal_voltage(temperature: float) -> float:
    """kT/e in volts (~25.85 mV at 300 K)."""
    require_finite("temperature", (temperature,), "> 0")
    return _thermal_voltage(temperature)


def _thermal_voltage(temperature: float) -> float:
    # for a temperature already validated, as every BjtParams one is
    return BOLTZMANN_K * temperature / ELECTRON_CHARGE


def _junction_exp(voltage: float, vt: float, name: str) -> float:
    # exp(v/Vt), refusing a non-finite voltage and arguments past the overflow
    # cap: the package's one guard, used by the device laws and the bias solver.
    arg = voltage / vt
    if not (arg <= EXP_ARG_CAP and voltage > -math.inf):  # NaN fails the first test
        require_finite(name, (voltage,))
        raise OverflowError(
            f"{name} = {voltage:g} V gives exp argument {arg:.1f} "
            f"above the overflow cap {EXP_ARG_CAP:g}"
        )
    return math.exp(arg)


def ebers_moll_currents(params: BjtParams, v_be: float, v_cb: float) -> BjtCurrents:
    """Static terminal currents from the full two-junction coupled exponentials.

    i_e = i_es*(exp(v_be/Vt) - 1) - alpha_i*i_cs*(exp(v_cb/Vt) - 1)
    i_c = alpha_n*i_es*(exp(v_be/Vt) - 1) - i_cs*(exp(v_cb/Vt) - 1)
    i_b = i_e - i_c

    v_cb is the collector-junction forward voltage: negative when the
    junction is reverse biased (the normal amplification regime).
    """
    vt = _thermal_voltage(params.temperature)
    x_be = _junction_exp(v_be, vt, "v_be") - 1.0
    x_cb = _junction_exp(v_cb, vt, "v_cb") - 1.0
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
    i_e = params.i_es * (_junction_exp(v_be, vt, "v_be") - 1.0)
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
    """Square-law drain current with cutoff, triode and saturation regions."""
    require_finite("v_gs", (v_gs,))
    require_finite("v_ds", (v_ds,), ">= 0")
    v_ov = v_gs - params.v_threshold
    if v_ov <= 0:
        return 0.0
    if v_ds < v_ov:
        return params.k_prime * (v_ov * v_ds - 0.5 * v_ds * v_ds)
    return 0.5 * params.k_prime * v_ov * v_ov


def mos_transconductance(params: MosParams, v_gs: float) -> float:
    """Saturation-region slope dI_D/dV_GS = k_prime*(v_gs - V_T); 0 in cutoff."""
    require_finite("v_gs", (v_gs,))
    v_ov = v_gs - params.v_threshold
    if v_ov <= 0:
        return 0.0
    return params.k_prime * v_ov
