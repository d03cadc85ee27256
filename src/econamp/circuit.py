"""DC bias solution of the voltage-divider common-emitter stage.

The divider (r_b1 from the supply, r_b2 to ground) is Thevenin-reduced and
the base node balanced against the exponential base current:

    (v_th - v_be) / r_th = i_b(v_be)

A safeguarded Newton iteration on v_be does the work: a Newton step is
accepted only while it stays inside the sign-change bracket and keeps
cutting the residual, otherwise the bracket is bisected. Plain Newton is
not enough here; descending the exponential it gains only one thermal
voltage per step.

Each evaluation of the balance costs one guarded exp(v_be/Vt): the base
current is computed inline with active_region_currents' arithmetic, and
the same exponential gives the Newton slope. Only the returned point goes
through the device model and its conservation checks.
"""

import math
from dataclasses import dataclass

from .devices import (
    EXP_ARG_CAP,
    BjtParams,
    _junction_exp,
    _thermal_voltage,
    active_region_currents,
    beta_from_alpha,
    require_conserved,
    require_finite,
)

RESIDUAL_TOL = 1e-12   # amperes, base-node Kirchhoff residual
STEP_TOL = 1e-12       # volts; polishes v_be past the residual window
MAX_ITERATIONS = 100
INITIAL_GUESS = 0.6    # volts, generic forward junction drop


class SolverError(RuntimeError):
    """Bias-point iteration failed to converge."""


@dataclass(frozen=True)
class AmplifierConfig:
    """Supply, bias divider, load and the device of one CE stage."""

    v_cc: float
    r_b1: float
    r_b2: float
    r_l: float
    device: BjtParams

    def __post_init__(self):
        require_finite(
            "v_cc, r_b1, r_b2, r_l", (self.v_cc, self.r_b1, self.r_b2, self.r_l), "> 0"
        )

    def thevenin(self):
        """(v_th, r_th) of the base divider."""
        total = self.r_b1 + self.r_b2
        return self.v_cc * self.r_b2 / total, self.r_b1 * self.r_b2 / total


@dataclass(frozen=True)
class OperatingPoint:
    """Solved DC state; `saturated` flags v_ce <= 0 (device out of the active region)."""

    v_be: float
    i_b: float
    i_c: float
    i_e: float
    v_ce: float
    saturated: bool = False

    def __post_init__(self):
        require_conserved(self.i_e, self.i_b, self.i_c)
        require_finite("v_be, v_ce", (self.v_be, self.v_ce))


@dataclass(frozen=True)
class SmallSignalParams:
    """Input resistance, output conductance and slope at an operating point."""

    r_in: float
    g_out: float
    slope_s: float

    def __post_init__(self):
        require_finite("r_in, slope_s", (self.r_in, self.slope_s), "> 0")
        require_finite("g_out", (self.g_out,), ">= 0")


def solve_operating_point(config: AmplifierConfig) -> OperatingPoint:
    """Solve the base-node balance and return the full DC state.

    Stops once the residual is under RESIDUAL_TOL, or once the bracket has
    collapsed to adjacent floats, the resolution limit of a stiff divider.
    Raises SolverError when neither happens within MAX_ITERATIONS, or when
    the solution would sit past the device's exponential overflow cap.
    """
    dev = config.device
    vt = _thermal_voltage(dev.temperature)
    v_th, r_th = config.thevenin()
    k_b = 1.0 - dev.alpha_n
    i_es = dev.i_es

    # One thermal voltage of margin keeps every evaluation below the cap.
    lo = 0.0
    hi = min(config.v_cc, vt * (EXP_ARG_CAP - 1.0))
    e = _junction_exp(hi, vt, "v_be")
    if (v_th - hi) / r_th - k_b * (i_es * (e - 1.0)) > 0.0:
        raise SolverError(
            f"no bias solution below the exponential overflow cap "
            f"(residual at v_be={hi:g} V is still positive)"
        )

    v = INITIAL_GUESS if lo < INITIAL_GUESS < hi else 0.5 * (lo + hi)
    e = _junction_exp(v, vt, "v_be")
    f = (v_th - v) / r_th - k_b * (i_es * (e - 1.0))
    step = math.inf
    for _ in range(MAX_ITERATIONS):
        if abs(f) < RESIDUAL_TOL and (f == 0.0 or abs(step) < STEP_TOL):
            return _operating_point(config, v)
        if f > 0.0:
            lo = v
        else:
            hi = v
        # d(residual)/dv, strictly negative for any valid config
        di_b = k_b * i_es * e / vt
        candidate = v - f / (-1.0 / r_th - di_b)
        if lo < candidate < hi:
            e_candidate = _junction_exp(candidate, vt, "v_be")
            f_candidate = (v_th - candidate) / r_th - k_b * (i_es * (e_candidate - 1.0))
            if abs(f_candidate) <= 0.25 * abs(f):
                step, v, f, e = candidate - v, candidate, f_candidate, e_candidate
                continue
            # Newton is crawling along the exponential; keep the bracket
            # shrinkage it bought and bisect instead.
            if f_candidate > 0.0:
                lo = candidate
            else:
                hi = candidate
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # No float lies inside the bracket, whose ends straddle the root:
            # the residual's rounding noise there exceeds RESIDUAL_TOL.
            return _operating_point(config, mid)
        e = _junction_exp(mid, vt, "v_be")
        step, v, f = mid - v, mid, (v_th - mid) / r_th - k_b * (i_es * (e - 1.0))
    raise SolverError(
        f"bias solve did not converge in {MAX_ITERATIONS} iterations "
        f"(last residual {f:.3e} A at v_be={v:.6f} V)"
    )


def _operating_point(config: AmplifierConfig, v_be: float) -> OperatingPoint:
    currents = active_region_currents(config.device, v_be)
    v_ce = config.v_cc - currents.i_c * config.r_l
    return OperatingPoint(
        v_be=v_be,
        i_b=currents.i_b,
        i_c=currents.i_c,
        i_e=currents.i_e,
        v_ce=v_ce,
        saturated=v_ce <= 0.0,
    )


def small_signal_params(device: BjtParams, op: OperatingPoint) -> SmallSignalParams:
    """Analytic small-signal parameters at a solved bias point.

    slope_s = di_c/dv_be = i_c/Vt, r_in = beta/slope_s, and g_out is the
    magnitude of di_c/dv_cb from the collector-junction exponential,
    i_cs*exp(v_cb/Vt)/Vt, which collapses to ~0 deep in the active region.
    The collector junction voltage is taken as v_cb = v_be - v_ce
    (negative when reverse biased); only the magnitude of the output
    conductance is reported.
    """
    require_finite("i_c", (op.i_c,), "> 0")
    vt = _thermal_voltage(device.temperature)
    slope_s = op.i_c / vt
    r_in = beta_from_alpha(device.alpha_n) / slope_s
    g_out = device.i_cs * _junction_exp(op.v_be - op.v_ce, vt, "v_cb") / vt
    return SmallSignalParams(r_in=r_in, g_out=g_out, slope_s=slope_s)


def static_finite_params(
    device: BjtParams, v_be: float, delta: float
) -> SmallSignalParams:
    """Finite-variation estimates of the small-signal parameters.

    Central differences of the active-region currents over [v_be - delta,
    v_be + delta]; second-order accurate in delta. g_out is 0 because the
    active-region law carries no collector-voltage dependence.
    """
    require_finite("v_be", (v_be,))
    require_finite("delta", (delta,), "> 0")
    if v_be - delta < 0:
        raise ValueError(
            f"delta {delta:g} flips the current sign at v_be - delta = "
            f"{v_be - delta:g} V"
        )
    above = active_region_currents(device, v_be + delta)
    below = active_region_currents(device, v_be - delta)
    slope_s = (above.i_c - below.i_c) / (2.0 * delta)
    r_in = (2.0 * delta) / (above.i_b - below.i_b)
    return SmallSignalParams(r_in=r_in, g_out=0.0, slope_s=slope_s)
