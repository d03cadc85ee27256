"""One common-emitter stage evaluated from raw floats, as bias_sweep runs it."""

from econamp.amplifier import OperatingLimits, breakdown_check, stage_gain
from econamp.circuit import (
    AmplifierConfig,
    SolverError,
    small_signal_params,
    solve_operating_point,
)
from econamp.devices import BjtParams

LIMITS = OperatingLimits()

OK = "ok"
VERDICT = "verdict"
KNOWN_DEFECT = "known_defect"
FAILED = "failed"


def classify(exc: Exception, op=None, ss=None) -> tuple:
    """(outcome, detail) of a stage that raised after building `op` and `ss`.

    Only the documented "no bias solution" SolverError is a domain verdict.
    An OverflowError from the small-signal step at a saturated operating
    point is the known saturation defect (ROADMAP item 3): it is no verdict
    either, and is counted apart so that it shows in ok_share on every run.
    Anything else stands in for a verdict and fails.
    """
    if isinstance(exc, SolverError) and "no bias solution" in str(exc):
        return VERDICT, "SolverError"
    if isinstance(exc, OverflowError) and op is not None and op.saturated and ss is None:
        return KNOWN_DEFECT, "OverflowError"
    return FAILED, type(exc).__name__


def _build(design):
    v_cc, r_b1, r_b2, r_l, i_es, i_cs, alpha_n, temperature = design
    device = BjtParams(i_es=i_es, i_cs=i_cs, alpha_n=alpha_n, temperature=temperature)
    return AmplifierConfig(v_cc=v_cc, r_b1=r_b1, r_b2=r_b2, r_l=r_l, device=device)


def _gains(op, ss, r_l):
    gains = stage_gain(op, ss, r_l)
    breakdown_check(op, LIMITS)
    return gains


# The module-level names `evaluate` looks up on every call; a traced run
# replaces each by a version that records a span under the given name.
LAYERS = (
    ("_build", "circuit.build"),
    ("solve_operating_point", "circuit.solve"),
    ("small_signal_params", "circuit.small_signal"),
    ("_gains", "amplifier.gain"),
)


def evaluate(design) -> tuple:
    """Build, solve, small-signal, gains and limit check of one design.

    Returns (outcome, detail, op, ss, gains); the last three are None past
    the step that raised.
    """
    op = ss = gains = None
    try:
        config = _build(design)
        op = solve_operating_point(config)
        ss = small_signal_params(config.device, op)
        gains = _gains(op, ss, config.r_l)
    except Exception as exc:  # every outcome is counted, none stops the sweep
        return (*classify(exc, op, ss), op, ss, gains)
    return OK, "", op, ss, gains
