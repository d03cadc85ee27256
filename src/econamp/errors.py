"""The package's one value check, its column test, its solver error and its value base.

A domain verdict is a ValueError naming what it refuses, SolverError too, and
any other exception is a bug. Record gives all twelve value types, the stage's
and the economic ones, their repr, ==, hash, copy and refusals. They live
apart, so no layer imports another for them.
"""

import math
import sys

_FLOAT_MAX = sys.float_info.max
_FLOAT_TINY = 5e-324  # the least positive float: for a float v, v >= it is v > 0


class SolverError(ValueError):
    """No bias solution below the exponential overflow cap."""


class Record:
    """An immutable value over the fields `_fields`, in its constructor's order.

    Its repr, == and hash are those of a frozen dataclass: repr and hash are
    over the fields in order, and == holds only between values of one class.
    Assigning or deleting any attribute raises `_refusal`. copy and pickle
    rebuild a value through its constructor, which validates it again. A
    subclass's __init__ validates and hands the field values to this one, or
    stores them itself.
    """

    __slots__ = _fields = ()
    _refusal = AttributeError

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise self._refusal(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise self._refusal(f"cannot delete field {name!r}")


def require_finite(names: str, values: tuple, bound: str = "") -> None:
    """Raise ValueError naming the first value that is not finite, or not past `bound`.

    The one validation rule of the package. `names` are the comma-separated
    names of `values`; `bound` is "" (finite only), "> 0" or ">= 0". An int
    past the float range is refused as not finite.
    """
    low = _FLOAT_TINY if bound else -_FLOAT_MAX
    for value in values:  # the chained comparison also rejects NaN
        if not low <= value <= _FLOAT_MAX and not (value == 0.0 and bound == ">= 0"):
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
