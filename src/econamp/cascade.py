"""The gain of stages in cascade, apart from the stage and economic modules.

econmap and amplifier re-export cascade_gain, so every name of it is this one
function, and the `cascade` subcommand loads neither of them.
"""

import math
from collections.abc import Sequence

from .errors import require_finite


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
