"""The package's one value check, its column test and its solver error.

A domain verdict is a ValueError naming what it refuses, SolverError too, and
any other exception is a bug. They live apart, so no layer imports another for them.
"""

import math


class SolverError(ValueError):
    """No bias solution below the exponential overflow cap."""


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


def all_finite(values) -> bool:
    """Whether every value is finite, as all(map(math.isfinite, values)) tells.

    A float sum with an inf or NaN term is not finite, with or without the
    compensation of Python 3.12's sum, so a finite sum answers in one pass.
    Only a column whose sum is not finite, or cannot be formed, is checked
    value by value, which also raises whatever that check raises.
    """
    try:
        if math.isfinite(sum(values)):
            return True
    except (TypeError, OverflowError):  # not numbers, or an int sum past the float range
        pass
    return all(map(math.isfinite, values))
