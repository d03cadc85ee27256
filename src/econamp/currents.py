"""The bipolar device's terminal-current laws and finite-difference parameters.

The bias solve forms the active-region currents inline and small_signal_params
takes its parameters in closed form, so no subcommand calls these and none
loads this module. Their names also resolve from devices, and
active_region_currents and static_finite_params from circuit, which import it
on their first use.
"""

import math

from .devices import BjtParams, _junction_arg, _thermal_voltage, require_conserved
from .errors import Record, require_finite


class BjtCurrents(Record):
    """Terminal currents of a bipolar device; i_e = i_b + i_c by charge conservation."""

    def __init__(self, i_e: float, i_c: float, i_b: float):
        require_conserved(i_e, i_b, i_c)
        d = self.__dict__
        d["i_e"], d["i_c"], d["i_b"] = i_e, i_c, i_b


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


def static_finite_params(device: BjtParams, v_be: float, delta: float) -> "SmallSignalParams":
    """Finite-variation estimates of the small-signal parameters.

    Central differences of the active-region currents over [v_be - delta,
    v_be + delta]; second-order accurate in delta. g_out is 0 because the
    active-region law carries no collector-voltage dependence. A delta too
    small for the currents at its two ends to differ is refused, and so is
    one that takes v_be + delta past the float range or the exponential cap.
    """
    from .circuit import SmallSignalParams  # loaded here, so the device laws load no circuit

    require_finite("v_be", (v_be,))
    require_finite("delta", (delta,), "> 0")
    if v_be - delta < 0:
        raise ValueError(
            f"delta {delta:g} flips the current sign at v_be - delta = "
            f"{v_be - delta:g} V"
        )
    top = v_be + delta
    if top == math.inf:
        raise ValueError(
            f"delta {delta:g} takes v_be + delta past the float range at v_be = {v_be:g} V"
        )
    # checked here, as the device law would name the shifted voltage v_be
    _junction_arg(top, _thermal_voltage(device.temperature), "v_be + delta")
    above = active_region_currents(device, top)
    below = active_region_currents(device, v_be - delta)
    if above.i_b == below.i_b or above.i_c == below.i_c:
        raise ValueError(
            f"delta {delta:g} is below the float resolution of the currents at "
            f"v_be = {v_be:g} V"
        )
    slope_s = (above.i_c - below.i_c) / (2.0 * delta)
    r_in = (2.0 * delta) / (above.i_b - below.i_b)
    return SmallSignalParams(r_in=r_in, g_out=0.0, slope_s=slope_s)
