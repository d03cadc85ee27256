"""The square-law MOS device, apart from the bipolar one the stage uses.

No subcommand evaluates a MOS device, so none loads this module; its names
also resolve from devices, which imports it on their first use.
"""

import math

from .errors import _FLOAT_MIN, Record, require_finite


class MosParams(Record):
    """Square-law MOS parameters: k_prime in A/V^2, threshold in volts."""

    def __init__(self, k_prime: float, v_threshold: float):
        require_finite("k_prime", (k_prime,), "> 0")
        require_finite("v_threshold", (v_threshold,))
        d = self.__dict__
        d["k_prime"], d["v_threshold"] = k_prime, v_threshold


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
        elif params.k_prime * v_ds < _FLOAT_MIN:
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
