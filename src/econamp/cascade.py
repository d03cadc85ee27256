"""The gain of stages in cascade, apart from the stage and economic modules.

econmap and amplifier re-export cascade_gain, so every name of it is this one
function, and the `cascade` subcommand loads neither of them.
"""

import math
from collections.abc import Sequence

from .errors import require_finite


def cascade_gain(stage_gains: Sequence[float]) -> float:
    """Total gain of stages in cascade: the product of the stage gains.

    A non-finite stage gain, a product that overflows, or a product of
    non-zero gains that underflows to 0 raises ValueError naming the
    (1-based) stage.
    """
    if not stage_gains:
        raise ValueError("cascade needs at least one stage gain")
    total, zero_at = 1.0, 0
    for stage, gain in enumerate(stage_gains, start=1):
        require_finite(f"stage {stage} gain", (gain,))
        total *= gain
        if not math.isfinite(total):
            raise ValueError(f"cascade gain overflows at stage {stage}")
        if not (total or zero_at):
            zero_at = stage
    if zero_at and all(stage_gains):
        raise ValueError(f"cascade gain underflows at stage {zero_at}")
    return total
