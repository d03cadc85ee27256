"""The package's twelve value types keep the frozen-dataclass contract.

Each is an errors.Record with a written-out __init__ that validates and
then stores its fields. Record, whose fields are the class's annotations,
gives repr, ==, hash, copy and the refusals, and makes each type a
dataclass, whose decorator generates nothing, the first time dataclasses
asks for its fields; loading and running any subcommand imports no
dataclasses. One contract, ValueTypeContract, holds what a generated frozen
dataclass gave: the signature, the refusals on assignment and deletion,
repr, == and hash, dataclasses.replace (which re-validates), vars() and a
copy or pickle round-trip. Its cases are the one table VALUE_TYPES, run
here for the eight stage types and in test_econmap for the four economic
ones.
"""

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest

from econamp.amplifier import OperatingLimits, StageGain
from econamp.circuit import AmplifierConfig, OperatingPoint, SmallSignalParams
from econamp.devices import BjtCurrents, BjtParams, MosParams
from econamp.econmap import CobbDouglasParams, CoefficientReport, EconSeries, RegressionFit
from econamp.errors import Record

DEVICE = BjtParams(1e-14, 1e-14, 0.99)
FIT = RegressionFit(1.0, 2.0, 0.9, 5)

# (type, positional arguments, the same with a field or more changed, its
# repr, a field, a value that field refuses)
STAGE_TYPES = [
    (BjtParams, (1e-14, 2e-14, 0.99, 0.1, 310.0), (5e-15, 2e-14, 0.99, 0.1, 310.0),
     "BjtParams(i_es=1e-14, i_cs=2e-14, alpha_n=0.99, alpha_i=0.1, temperature=310.0)",
     "alpha_n", 1.0),
    (MosParams, (2e-3, 1.0), (1e-3, 1.0), "MosParams(k_prime=0.002, v_threshold=1.0)",
     "k_prime", 0.0),
    # its fields are tied by conservation, so all three change
    (BjtCurrents, (1.01e-3, 1e-3, 1e-5), (2.02e-3, 2e-3, 2e-5),
     "BjtCurrents(i_e=0.00101, i_c=0.001, i_b=1e-05)", "i_b", 2e-5),
    (AmplifierConfig, (12.0, 100e3, 20e3, 1e3, DEVICE), (6.0, 100e3, 20e3, 1e3, DEVICE),
     "AmplifierConfig(v_cc=12.0, r_b1=100000.0, r_b2=20000.0, r_l=1000.0, "
     "device=BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, alpha_i=0.0, temperature=300.0))",
     "r_b2", -1.0),
    (OperatingPoint, (0.65, 1e-5, 1e-3, 1.01e-3, 5.0, True),
     (0.325, 1e-5, 1e-3, 1.01e-3, 5.0, True),
     "OperatingPoint(v_be=0.65, i_b=1e-05, i_c=0.001, i_e=0.00101, v_ce=5.0, saturated=True)",
     "i_e", 2e-3),
    (SmallSignalParams, (2.5e3, 1e-9, 0.04), (1.25e3, 1e-9, 0.04),
     "SmallSignalParams(r_in=2500.0, g_out=1e-09, slope_s=0.04)", "g_out", -1e-9),
    (StageGain, (99.0, 40.0, 1e-3), (49.5, 40.0, 1e-3),
     "StageGain(beta_current=99.0, voltage_gain=40.0, power_out=0.001)", "power_out", -1.0),
    (OperatingLimits, (0.2, 30.0, 0.25), (0.1, 30.0, 0.25),
     "OperatingLimits(i_c_max=0.2, v_ce_max=30.0, p_max=0.25)", "p_max", 0.0),
]
ECONOMIC_TYPES = [
    (RegressionFit, (1.0, 2.0, 0.9, 5), (1.0, 2.0, 0.9, 6),
     "RegressionFit(a0=1.0, beta=2.0, r_squared=0.9, n=5)", "n", 1),
    (CobbDouglasParams, (1.0, 0.7, 0.3), (1.0, 0.7, 0.25),
     "CobbDouglasParams(g=1.0, lam=0.7, mu=0.3)", "g", 0.0),
    (CoefficientReport, (2.0, 0.5, 2.0, 2.0, 0.1, 3.0, FIT), (2.0, 0.5, 2.0, 2.0, 0.1, 3.0, None),
     "CoefficientReport(beta_v=2.0, harrod_b=0.5, domar_sigma=2.0, mean_beta=2.0, "
     "beta_p=0.1, keynes_m=3.0, fit=RegressionFit(a0=1.0, beta=2.0, r_squared=0.9, n=5))",
     "beta_v", float("nan")),
    (EconSeries, (("1990", "1991"), (1.0, 2.0), (0.5, 0.5), (3.0, 4.0), (None, 7.0)),
     (("1990", "1991"), (1.0, 2.0), (0.5, 0.5), (3.0, 4.0), (None, 8.0)),
     "EconSeries(labels=('1990', '1991'), investments=(1.0, 2.0), expenses=(0.5, 0.5), "
     "incomes=(3.0, 4.0), quantity_out=(None, 7.0))",
     "investments", (1.0, -2.0)),
]
VALUE_TYPES = STAGE_TYPES + ECONOMIC_TYPES


def contract_cases(rows):
    """The mark that runs ValueTypeContract's tests once per row of `rows`."""
    return pytest.mark.parametrize(
        "cls, args, changed, text, field, bad", rows, ids=[row[0].__name__ for row in rows]
    )


def _names(cls) -> list:
    return [field.name for field in dataclasses.fields(cls)]


class ValueTypeContract:
    """The tests of one value type, a row of VALUE_TYPES; run by a parametrized subclass."""

    def test_signature_is_the_fields(self, cls, args, changed, text, field, bad):
        parameters = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in parameters] == [f.name for f in fields]
        for parameter, field_ in zip(parameters, fields):
            # == is identity for a class, equality for tuple[float, ...] or float | None
            assert parameter.annotation == field_.type
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if field_.default is dataclasses.MISSING:
                assert parameter.default is inspect.Parameter.empty
            else:
                assert parameter.default == field_.default
                assert type(parameter.default) is type(field_.default)
        # the annotations are types, not strings: float itself or in a tuple's
        assert float in {t for f in fields for t in (f.type, *getattr(f.type, "__args__", ()))}

    def test_positional_and_keyword_construction(self, cls, args, changed, text, field, bad):
        built = cls(**dict(zip(_names(cls), args)))
        assert built == cls(*args)
        assert tuple(getattr(built, name) for name in _names(cls)) == args
        # the fields are the instance dict; a cache such as AmplifierConfig's
        # divider lives in a slot
        assert vars(built) == dict(zip(_names(cls), args))

    def test_defaults_are_stored(self, cls, args, changed, text, field, bad):
        required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
        built = cls(*args[: len(required)])
        for field_ in dataclasses.fields(cls)[len(required):]:
            assert getattr(built, field_.name) == field_.default

    def test_repr(self, cls, args, changed, text, field, bad):
        assert repr(cls(*args)) == text

    def test_equality_and_hash_are_over_the_fields(self, cls, args, changed, text, field, bad):
        value, other = cls(*args), cls(*changed)
        assert value == cls(*args) and not value != cls(*args)
        assert hash(value) == hash(cls(*args)) == hash(args)
        assert value != other and not value == other
        assert len({value, cls(*args), other}) == 2
        moved = {name: new for name, old, new in zip(_names(cls), args, changed) if new != old}
        replaced = dataclasses.replace(value, **moved)
        assert replaced == other and hash(replaced) == hash(tuple(vars(replaced).values()))

    def test_equality_is_only_within_one_class(self, cls, args, changed, text, field, bad):
        value = cls(*args)

        class Subclass(cls):
            __slots__ = ()

        assert Subclass._fields == cls._fields == tuple(_names(cls))
        others = (args, SimpleNamespace(**dict(zip(_names(cls), args))), Subclass(*args))
        for other in others:
            assert value != other and not value == other
            assert other != value and not other == value

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, changed, text, field, bad):
        value = cls(*args)
        for name in (*_names(cls), "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert repr(value) == text

    def test_replace_validates_again(self, cls, args, changed, text, field, bad):
        value = cls(*args)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            dataclasses.replace(value, **{field: bad})
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            cls(**{**vars(value), field: bad})
        # copy and pickle rebuild a value through its constructor, which checks it
        rebuild, values = value.__reduce__()
        assert (rebuild, values) == (cls, args)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            rebuild(*(bad if name == field else v for name, v in zip(_names(cls), values)))

    def test_copy_and_pickle_give_an_equal_value(self, cls, args, changed, text, field, bad):
        value = cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and repr(twin) == text
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, field, bad)


@contract_cases(STAGE_TYPES)
class TestStageTypes(ValueTypeContract):
    """The contract for the stage's eight value types."""


def test_every_stage_type_is_covered():
    # the package's dataclasses are exactly the twelve value types
    import econamp

    exported = {getattr(econamp, name) for name in econamp.__all__}
    assert {cls for cls in exported if dataclasses.is_dataclass(cls)} == {
        row[0] for row in VALUE_TYPES
    }


def test_methods_come_from_the_base():
    # the decorator generated none of them, and none is frozen by its flag
    for cls in (row[0] for row in VALUE_TYPES):
        assert issubclass(cls, Record) and "__init__" in vars(cls)
        assert not {"__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert cls.__dataclass_params__.frozen is False


# Imports dataclasses first, and with it the stdlib namedtuples built from
# source, then counts the code objects compiled from a string that run while
# the value types load; each method a dataclass generates is one.
GENERATED_CODE_CHILD = """\
import dataclasses, sys, types
generated = []


def count(event, args):
    if event == "exec" and isinstance(args[0], types.CodeType):
        if args[0].co_filename == "<string>":
            generated.append(args[0].co_name)


sys.addaudithook(count)
import econamp.devices, econamp.circuit, econamp.amplifier, econamp.econmap
print(len(generated))
"""


def test_loading_the_stage_path_runs_no_generated_code(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", GENERATED_CODE_CHILD],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
    # a class without a docstring gets one built from inspect.signature
    for cls in (row[0] for row in VALUE_TYPES):
        assert "__doc__" in vars(cls) and cls.__doc__
        assert not cls.__doc__.startswith(f"{cls.__name__}(")


# Solves the demo stage and analyzes the shipped series without dataclasses,
# then asks dataclasses about their values: each type is decorated on that
# first ask, and the contract holds.
LAZY_DATACLASS_CHILD = """\
import contextlib, io, sys
from econamp.amplifier import StageGain, breakdown_check, stage_gain
from econamp.circuit import OperatingPoint, small_signal_params, solve_operating_point
from econamp.cli import main, read_econ_series
from econamp.econmap import CobbDouglasParams, analyze_series
from econamp.errors import Record
from econamp.simulate import parse_config

config, limits = parse_config(open(sys.argv[1]).read())
op = solve_operating_point(config)
ss = small_signal_params(config.device, op)
gains = stage_gain(op, ss, config.r_l)
assert breakdown_check(op, limits) == ()
match op:
    case OperatingPoint(v_be, i_b):  # __match_args__ needs no decorator
        assert (v_be, i_b) == (op.v_be, op.i_b)
with contextlib.redirect_stdout(io.StringIO()) as report_text:
    assert main(["analyze", sys.argv[2]]) == 0
assert report_text.getvalue().startswith("periods: ")
series = read_econ_series(sys.argv[2])
report = analyze_series(series)
cobb_douglas = CobbDouglasParams(1.0, 0.7, 0.3)
assert not {"dataclasses", "inspect"} & set(sys.modules)


class Derived(StageGain):
    __slots__ = ()


import dataclasses

# the subclass is asked first, before its base is decorated
assert [f.name for f in dataclasses.fields(Derived)] == list(StageGain._fields)
assert not dataclasses.is_dataclass(Record) and not hasattr(Record, "__dataclass_fields__")
for value in (config, config.device, op, ss, gains, limits, series, report, report.fit,
              cobb_douglas):
    cls = type(value)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    names = [f.name for f in dataclasses.fields(value)]
    assert names == list(cls._fields) == list(cls.__match_args__)
    assert cls.__dataclass_params__.frozen is False
    # a second ask, and the decoration run again, as by two threads at once
    assert [f.name for f in dataclasses.fields(cls)] == names
    Record.__dict__["__dataclass_fields__"].__get__(None, cls)
    assert [f.name for f in dataclasses.fields(cls)] == names
    assert dataclasses.replace(value) == value
    try:
        value.extra = 1.0
    except dataclasses.FrozenInstanceError as refusal:
        assert str(refusal) == "cannot assign to field 'extra'"
    else:
        raise AssertionError("assignment taken")
assert [f.name for f in dataclasses.fields(Derived)] == list(StageGain._fields)
assert dataclasses.replace(op, v_ce=-1.0).v_ce == -1.0
try:
    dataclasses.replace(limits, p_max=0.0)
except ValueError as refusal:
    assert "p_max" in str(refusal)
else:
    raise AssertionError("replace took p_max = 0")
assert dataclasses.replace(report, fit=None).fit is None
try:
    dataclasses.replace(cobb_douglas, g=0.0)
except ValueError as refusal:
    assert str(refusal).startswith("g must be finite and > 0")
else:
    raise AssertionError("replace took g = 0")
print("ok")
"""


def test_stage_types_become_dataclasses_on_first_ask(data_dir, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_DATACLASS_CHILD, str(data_dir / "demo_amplifier.cfg"),
         str(data_dir / "synthetic_series.csv")],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_amplifier_config_forms_its_divider_once():
    # __init__ keeps the (v_th, r_th) it checks, outside the fields, for the
    # bias solve; copies and replaced values form it again from their fields
    config = AmplifierConfig(12.0, 100e3, 20e3, 1e3, DEVICE)
    twins = (config, copy.copy(config), copy.deepcopy(config), pickle.loads(pickle.dumps(config)))
    for twin in twins:
        assert twin.thevenin() == (12.0 * 20e3 / 120e3, 100e3 * 20e3 / 120e3)
    assert dataclasses.replace(config, r_b2=40e3).thevenin() == (
        12.0 * 40e3 / 140e3, 100e3 * 40e3 / 140e3
    )
