"""DC bias solution of the voltage-divider common-emitter stage.

The divider (r_b1 from the supply, r_b2 to ground) is Thevenin-reduced and
the base node balanced against the exponential base current:

    (v_th - v_be) / r_th = i_b(v_be)

A safeguarded Newton iteration on v_be does the work: a Newton step is
accepted only while it stays inside the sign-change bracket and cuts the
residual to a quarter at least, otherwise the bracket is bisected. Plain
Newton is not enough here; descending the exponential it gains only one
thermal voltage per step. There is no iteration budget: after the first
pass every pass moves an end of the bracket to a float strictly inside it,
and a bracket of floats cannot shrink forever. The longest solves bisect
down towards 0 V through the float exponents, with under a thousand
exponentials over 20,000 designs drawn across the whole float range.

Each iterate costs one expm1(v_be/Vt): the base current is computed inline
with active_region_currents' arithmetic, so every iterate is bit-identical
to one through the device model, the same value plus one gives the Newton
slope, and the returned point's currents come from the last one, formed
once and checked once, by OperatingPoint (current conservation, then a
finite v_be and v_ce). No exponential is guarded: the bracket's top,
min(v_cc, Vt*199), holds every argument at 199, or an ulp above it where
Vt*199 rounds up, under the device's overflow cap of 200. A residual still
positive there is the solve's one verdict, SolverError; every later point
lies strictly inside (0, top), and the guard would return the same
division, so every iterate is bit-identical to a guarded one too. The top
costs its exponential only where v_th > top. Elsewhere (v_th - top)/r_th
<= 0 and k_b*(i_es*expm1(top/Vt)) >= 0, so the residual there is never
positive, nor NaN, and the exponential would serve nothing else.
"""

import math

from . import _forwarder
from .devices import EXP_ARG_CAP, BjtParams, _junction_arg, _thermal_voltage, require_conserved
from .errors import _FLOAT_MAX, _FLOAT_MIN, _FLOAT_TINY, Record, SolverError, require_finite

# static_finite_params and active_region_currents live in currents, which no
# subcommand loads; both names resolve here too
__getattr__ = _forwarder(
    globals(), dict.fromkeys(("active_region_currents", "static_finite_params"), "currents")
)

RESIDUAL_TOL = 1e-12   # amperes, base-node Kirchhoff residual
STEP_TOL = 1e-12       # volts; polishes v_be past the residual window
INITIAL_GUESS = 0.6    # volts, generic forward junction drop


class AmplifierConfig(Record):
    """Supply, bias divider, load and the device of one CE stage.

    The divider's v_th and r_th must be finite normal floats, and v_th/r_th finite.
    """

    # The checked divider is kept in a slot, not a field: vars(), repr, ==,
    # hash and dataclasses.fields see only the fields.
    __slots__ = ("__dict__", "__weakref__", "_thevenin")

    def __init__(self, v_cc: float, r_b1: float, r_b2: float, r_l: float, device: BjtParams):
        if not (
            _FLOAT_TINY <= v_cc <= _FLOAT_MAX
            and _FLOAT_TINY <= r_b1 <= _FLOAT_MAX
            and _FLOAT_TINY <= r_b2 <= _FLOAT_MAX
            and _FLOAT_TINY <= r_l <= _FLOAT_MAX
        ):
            require_finite("v_cc, r_b1, r_b2, r_l", (v_cc, r_b1, r_b2, r_l), "> 0")
        total = r_b1 + r_b2
        v_th, r_th = v_cc * r_b2 / total, r_b1 * r_b2 / total
        low = _FLOAT_MIN
        # the chained comparisons also reject NaN
        if not (low <= v_th < math.inf and low <= r_th < math.inf and v_th / r_th < math.inf):
            raise ValueError(
                f"v_cc, r_b1, r_b2 give v_th = {v_th} V and r_th = {r_th} ohm; both must be "
                f"finite normal floats with v_th/r_th finite"
            )
        d = self.__dict__
        d["v_cc"], d["r_b1"], d["r_b2"], d["r_l"], d["device"] = v_cc, r_b1, r_b2, r_l, device
        object.__setattr__(self, "_thevenin", (v_th, r_th))

    def thevenin(self):
        """(v_th, r_th) of the base divider, formed once by __init__."""
        return self._thevenin


class OperatingPoint(Record):
    """Solved DC state; `saturated` flags v_ce <= 0 (device out of the active region)."""

    def __init__(
        self, v_be: float, i_b: float, i_c: float, i_e: float, v_ce: float,
        saturated: bool = False,
    ):
        # require_conserved's test where its scale, max(|i_e|, |i_c|, |i_b|), is i_e,
        # as on every solved point; formed once i_e is known to lie in the float range
        if not (
            0.0 <= i_b <= i_e <= _FLOAT_MAX
            and 0.0 <= i_c <= i_e
            and -(tol := 1e-12 * i_e) <= i_e - (i_b + i_c) <= tol
            and -_FLOAT_MAX <= v_be <= _FLOAT_MAX
            and -_FLOAT_MAX <= v_ce <= _FLOAT_MAX
        ):
            require_conserved(i_e, i_b, i_c)
            require_finite("v_be, v_ce", (v_be, v_ce))
        d = self.__dict__
        d["v_be"], d["i_b"], d["i_c"], d["i_e"], d["v_ce"], d["saturated"] = (
            v_be, i_b, i_c, i_e, v_ce, saturated
        )


class SmallSignalParams(Record):
    """Input resistance, output conductance and slope at an operating point."""

    def __init__(self, r_in: float, g_out: float, slope_s: float):
        if not (
            _FLOAT_TINY <= r_in <= _FLOAT_MAX
            and _FLOAT_TINY <= slope_s <= _FLOAT_MAX
            and (_FLOAT_TINY <= g_out <= _FLOAT_MAX or g_out == 0.0)
        ):
            require_finite("r_in, slope_s", (r_in, slope_s), "> 0")
            require_finite("g_out", (g_out,), ">= 0")
        d = self.__dict__
        d["r_in"], d["g_out"], d["slope_s"] = r_in, g_out, slope_s


def solve_operating_point(config: AmplifierConfig) -> OperatingPoint:
    """Solve the base-node balance and return the full DC state.

    Stops at a point whose residual is under RESIDUAL_TOL, when that residual
    is exactly zero or the step that reached the point was under STEP_TOL;
    or once the bracket has collapsed to adjacent floats, the resolution
    limit of a stiff divider, whose v_th/r_th of hundreds of amperes leaves
    rounding noise in the residual above RESIDUAL_TOL. On the demo stage
    Newton reaches 8.1e-20 A at v_be = 0.70773955894305696 by a 4.5e-12 V
    step, its next step rounds to zero, a point at the bracket's end that is
    not taken, and three bisections, the last by 5.7e-13 V, lead to the
    returned 0.7077395589436246, whose currents reuse its expm1: 16 points,
    one exponential each, and none at the bracket's top, 5.1 V, which lies
    above the demo's v_th of 2 V. Raises SolverError when the solution would
    sit past the device's exponential overflow cap.
    """
    expm1 = math.expm1  # looked up per call, so a patched math.expm1 is seen
    residual_tol, step_tol = RESIDUAL_TOL, STEP_TOL
    dev = config.device
    vt = _thermal_voltage(dev.temperature)
    v_th, r_th = config._thevenin
    k_b = 1.0 - dev.alpha_n
    i_es = dev.i_es
    # the loop's invariants: k_b * i_es * (e + 1.0) groups from the left, so
    # k_i * (e + 1.0) is the same product, and g_th is -1/r_th
    k_i = k_b * i_es
    g_th = -1.0 / r_th

    # One thermal voltage of margin keeps hi/Vt within an ulp of 199, under the
    # cap, and every later point lies strictly inside (0, hi): none needs a guard.
    # The residual at hi can be positive only where v_th > hi.
    lo = 0.0
    hi = min(config.v_cc, vt * (EXP_ARG_CAP - 1.0))
    if v_th > hi and (v_th - hi) / r_th - k_b * (i_es * expm1(hi / vt)) > 0.0:
        raise SolverError(
            f"no bias solution below the exponential overflow cap "
            f"(residual at v_be={hi:g} V is still positive)"
        )

    v = INITIAL_GUESS if INITIAL_GUESS < hi else 0.5 * (lo + hi)
    e = expm1(v / vt)
    f = (v_th - v) / r_th - k_b * (i_es * e)
    step = math.inf
    # Every pass after the first moves lo or hi to a float strictly inside the
    # bracket, so the residual test or the collapsed-bracket exit ends the loop.
    while True:
        # |f| comes from the bracket's sign test, which may run first: the
        # residual test reads neither end of the bracket
        if f > 0.0:
            lo, abs_f = v, f
        else:
            hi, abs_f = v, -f
        if abs_f < residual_tol and (f == 0.0 or -step_tol < step < step_tol):
            break
        # the divisor is d(residual)/dv, strictly negative for any valid config
        candidate = v - f / (g_th - k_i * (e + 1.0) / vt)
        if lo < candidate < hi:
            e_candidate = expm1(candidate / vt)
            f_candidate = (v_th - candidate) / r_th - k_b * (i_es * e_candidate)
            if -0.25 * abs_f <= f_candidate <= 0.25 * abs_f:  # |f_candidate| <= |f|/4
                step, v, f, e = candidate - v, candidate, f_candidate, e_candidate
                continue
            # Newton is crawling along the exponential; keep the bracket
            # shrinkage it bought and bisect instead.
            if f_candidate > 0.0:
                lo = candidate
            else:
                hi = candidate
        mid = 0.5 * (lo + hi)
        step, v, e = mid - v, mid, expm1(mid / vt)
        if not lo < mid < hi:
            # No float lies inside the bracket, whose ends straddle the root:
            # the residual's rounding noise there exceeds RESIDUAL_TOL.
            break
        f = (v_th - mid) / r_th - k_b * (i_es * e)

    # active_region_currents' arithmetic on the last point's exponential
    i_e = i_es * e
    i_c = dev.alpha_n * i_e
    v_ce = config.v_cc - i_c * config.r_l
    return OperatingPoint(v, k_b * i_e, i_c, i_e, v_ce, v_ce <= 0.0)


def small_signal_params(device: BjtParams, op: OperatingPoint) -> SmallSignalParams:
    """Analytic small-signal parameters at a solved bias point.

    slope_s = di_c/dv_be = i_c/Vt, r_in = beta/slope_s, and g_out is the
    magnitude of di_c/dv_cb from the collector-junction exponential,
    i_cs*exp(v_cb/Vt)/Vt, which collapses to ~0 deep in the active region.
    The collector junction voltage is taken as v_cb = v_be - v_ce
    (negative when reverse biased); only the magnitude of the output
    conductance is reported.

    i_c and slope_s below sys.float_info.min are refused, naming the inputs
    i_es, alpha_n, temperature, before r_in is formed or any exponential.
    """
    vt = _thermal_voltage(device.temperature)
    slope_s = op.i_c / vt
    if not (op.i_c >= _FLOAT_MIN and slope_s >= _FLOAT_MIN):
        raise ValueError(
            f"i_es, alpha_n, temperature give i_c = {op.i_c} A, slope_s = {slope_s} S; "
            f"both must be normal floats"
        )
    # beta_from_alpha's expression, without its check of an alpha_n BjtParams holds in (0, 1)
    r_in = device.alpha_n / (1.0 - device.alpha_n) / slope_s
    g_out = device.i_cs * math.exp(_junction_arg(op.v_be - op.v_ce, vt, "v_cb")) / vt
    return SmallSignalParams(r_in, g_out, slope_s)
