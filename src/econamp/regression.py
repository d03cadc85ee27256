"""The least-squares line of `fit`, apart from the rest of the economic mapping.

econmap re-exports RegressionFit and fit_linear and builds analyze_series'
regression on them, so every name of them is this module's, and the `fit`
subcommand loads this module without econmap.
"""

import math
import sys
from collections.abc import Sequence
from operator import mul

from .errors import Record, require_finite


class RegressionFit(Record):
    """Fitted line y = a0 + beta*x with its coefficient of determination."""

    def __init__(self, a0: float, beta: float, r_squared: float, n: int):
        super().__init__(a0, beta, r_squared, n)
        require_finite("a0, beta", (a0, beta))
        if n < 2:
            raise ValueError(f"fit needs n >= 2, got {n}")
        if not -1e-12 <= r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared out of [0, 1]: {r_squared}")


def _fsum(name: str, terms) -> float:
    """math.fsum, with a sum past the float range reported as a ValueError naming it."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a term or the sum overflowed, or inf - inf
        total = math.inf
    require_finite(name, (total,))
    return total


def _require_normal(name: str, value: float) -> float:
    """`value`, with a non-zero one below the smallest normal float refused as subnormal."""
    if 0.0 < abs(value) < sys.float_info.min:
        raise ValueError(f"{name} is subnormal, below {sys.float_info.min}: {value}")
    return value


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> RegressionFit:
    """Ordinary least squares for y = a0 + beta*x.

    r_squared = beta * S_xy/SS_tot, which equals 1 - SS_res/SS_tot for least
    squares with an intercept; an exactly constant y (SS_tot = 0, so the fit
    is a perfect horizontal line) reports r_squared = 1. A non-zero centred
    sum or slope below the smallest normal float is refused as subnormal:
    it has lost the precision r_squared is formed from.
    """
    if len(xs) != len(ys):
        raise ValueError(f"column lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 points, got n = {n}")
    x_bar = _fsum("sum of x", xs) / n
    y_bar = _fsum("sum of y", ys) / n
    dx = [x - x_bar for x in xs]
    dy = [y - y_bar for y in ys]
    # products, not ** 2: libm's pow does not round every square correctly
    s_xx = _require_normal("s_xx", _fsum("s_xx", map(mul, dx, dx)))
    if s_xx == 0:
        raise ValueError("s_xx = 0: the x values are identical or their spread underflows")
    s_xy = _require_normal("s_xy", _fsum("s_xy", map(mul, dx, dy)))
    # s_xy/ss_tot below is r_squared/beta: it can overflow only for a subnormal beta
    beta = _require_normal("slope beta", s_xy / s_xx)
    a0 = y_bar - beta * x_bar
    ss_tot = _require_normal("ss_tot", _fsum("ss_tot", map(mul, dy, dy)))
    r_squared = 1.0 if ss_tot == 0.0 else beta * (s_xy / ss_tot)
    return RegressionFit(a0=a0, beta=beta, r_squared=r_squared, n=n)
