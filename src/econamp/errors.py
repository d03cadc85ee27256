"""The package's one value check, its column test, its solver error and its value base.

A domain verdict is a ValueError naming what it refuses, SolverError too, and
any other exception is a bug. Record is the one base of all twelve value
types, the eight stage ones (BjtParams, MosParams, BjtCurrents,
AmplifierConfig, OperatingPoint, SmallSignalParams, StageGain,
OperatingLimits) and the four economic ones (EconSeries, RegressionFit,
CoefficientReport, CobbDouglasParams): it takes their fields from their
__init__'s parameters, gives them repr, ==, hash, copy and the refusals, and
makes each a dataclass when dataclasses first asks about it. They live apart,
so no layer imports another for them.
"""

import math
import sys

_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = sys.float_info.min  # the least normal float
_FLOAT_TINY = 5e-324  # the least positive float: for a float v, v >= it is v > 0


class SolverError(ValueError):
    """No bias solution below the exponential overflow cap."""


class _DataclassOnFirstUse:
    """A dataclass attribute of a Record subclass, set by decorating the class on first read.

    Non-data, so once the decorator has stored the attribute in the class,
    lookups find it there and never come back here. Two threads that read it
    first at once both decorate the class, to the same fields.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner):
        if owner is Record:  # the base is no dataclass
            raise AttributeError(self.name)
        from dataclasses import dataclass

        dataclass(init=False, repr=False, eq=False)(owner)
        return owner.__dict__[self.name]


class Record:
    """An immutable value whose fields are the parameters of its class's __init__.

    A subclass declares each field once, as a parameter of its own __init__
    after self and before any *args or keyword-only one. Read from
    __init__.__code__, so without inspect, they give _fields and
    __match_args__ in order; their annotations become the class's
    __annotations__ and their defaults class attributes, as a class-body
    `name: type = default` line made them. A subclass that annotates a name in
    its body, or leaves a parameter unannotated, is refused with a TypeError
    naming it; one that defines no __init__ keeps its parent's fields.

    Its repr, == and hash are those of a frozen dataclass: repr and hash are
    over the fields in order, and == holds only between values of one class.
    Assigning or deleting any attribute raises FrozenInstanceError, an
    AttributeError. copy and pickle rebuild a value through its constructor,
    which validates it again. A subclass's __init__ validates and hands the
    field values to this one, or stores them in its __dict__ itself, one item
    per field in field order, as the stage types do: `d = self.__dict__`, then
    `d["a"], d["b"] = a, b`, which builds no keyword dict, as
    __dict__.update(a=a, b=b) does. On CPython 3.11.7 an OperatingPoint,
    checks included, takes 0.53 us so, against 0.62 us through update and
    about 1.1 us through this __init__ or as a frozen dataclass, whose
    __init__ calls object.__setattr__ once per field.

    A subclass becomes @dataclass(init=False, repr=False, eq=False) the first
    time its __dataclass_fields__ or __dataclass_params__ is read, as
    dataclasses.fields, replace and is_dataclass do. The decorator then takes
    the fields' names, order, annotations and defaults and generates no
    method. So fields, replace (which validates again) and vars() work as for
    a frozen dataclass, while __dataclass_params__.frozen reads False. Until
    then neither dataclasses nor inspect, which it imports, is loaded.
    """

    __slots__ = ()
    _fields = __match_args__ = ()
    __dataclass_fields__ = _DataclassOnFirstUse()
    __dataclass_params__ = _DataclassOnFirstUse()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if annotations := cls.__annotations__:  # the class's own only, since 3.10
            raise TypeError(
                f"{cls.__qualname__} annotates {', '.join(annotations)} in its body; "
                f"a Record's fields are its __init__'s parameters"
            )
        if init := cls.__dict__.get("__init__"):
            code = init.__code__
            cls._fields = cls.__match_args__ = names = code.co_varnames[1 : code.co_argcount]
            typed = init.__annotations__
            if untyped := [name for name in names if name not in typed]:
                raise TypeError(
                    f"{cls.__qualname__} leaves {', '.join(untyped)} unannotated in its "
                    f"__init__; a Record's fields are its __init__'s annotated parameters"
                )
            cls.__annotations__ = {name: typed[name] for name in names}
            defaults = init.__defaults__ or ()
            for name, default in zip(names[len(names) - len(defaults) :], defaults):
                setattr(cls, name, default)

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values))

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
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def require_finite(names: str, values: tuple, bound: str = "") -> None:
    """Raise ValueError naming the first value that is not finite, or not past `bound`.

    The one validation rule of the package. `names` are the comma-separated
    names of `values`; `bound` is "" (finite only), "> 0" or ">= 0". An int
    past the float range is refused as not finite. The hot sites, the stage
    types and stage_gain, test its passing condition inline, with the same
    chained comparisons, and call it only to refuse.
    """
    low = _FLOAT_TINY if bound else -_FLOAT_MAX
    for value in values:  # the chained comparison also rejects NaN
        if not low <= value <= _FLOAT_MAX and not (value == 0.0 and bound == ">= 0"):
            # built only on failure; index() matches by identity first, so finds a NaN
            name = names.split(", ")[values.index(value)]
            if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                # str() refuses an int of over 4,300 digits: name its size instead
                value = f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
            raise ValueError(
                f"{name} must be finite{' and ' + bound if bound else ''}, got {value}"
            )


def all_finite(values) -> bool:
    """Whether every value is finite, as all(map(math.isfinite, values)) tells.

    A float sum with an inf or NaN term is not finite, with or without the
    compensation of Python 3.12's sum, so a finite sum answers in one pass.
    Only a column whose sum is not finite, or cannot be formed, is checked
    value by value, as require_finite compares: an int past the float range
    is not finite there, and a value that is no number raises TypeError.
    """
    try:
        if math.isfinite(sum(values)):
            return True
    except (TypeError, OverflowError):  # not numbers, or an int sum past the float range
        pass
    return all(-_FLOAT_MAX <= value <= _FLOAT_MAX for value in values)
