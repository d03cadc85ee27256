"""The stage's value types keep the frozen-dataclass contract.

Each of the eight is a dataclass on devices.Frozen with a written-out
__init__ that validates and then stores every field in one step. Frozen, an
errors.Record whose fields are the class's annotations, gives repr, ==,
hash, copy and the refusals, so the decorator generates nothing. These tests
hold what a generated frozen dataclass gave: the signature, the refusals on
assignment and deletion, repr, == and hash, dataclasses.replace (which
re-validates), vars() and a copy or pickle round-trip. The economic value
types, Records too, are held to the same contract in test_econmap.
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
from econamp.devices import BjtCurrents, BjtParams, Frozen, MosParams

DEVICE = BjtParams(1e-14, 1e-14, 0.99)

# (type, positional arguments, its repr, a field, a value that field refuses)
STAGE_TYPES = [
    (BjtParams, (1e-14, 2e-14, 0.99, 0.1, 310.0),
     "BjtParams(i_es=1e-14, i_cs=2e-14, alpha_n=0.99, alpha_i=0.1, temperature=310.0)",
     "alpha_n", 1.0),
    (MosParams, (2e-3, 1.0), "MosParams(k_prime=0.002, v_threshold=1.0)", "k_prime", 0.0),
    (BjtCurrents, (1.01e-3, 1e-3, 1e-5), "BjtCurrents(i_e=0.00101, i_c=0.001, i_b=1e-05)",
     "i_b", 2e-5),
    (AmplifierConfig, (12.0, 100e3, 20e3, 1e3, DEVICE),
     "AmplifierConfig(v_cc=12.0, r_b1=100000.0, r_b2=20000.0, r_l=1000.0, "
     "device=BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, alpha_i=0.0, temperature=300.0))",
     "r_b2", -1.0),
    (OperatingPoint, (0.65, 1e-5, 1e-3, 1.01e-3, 5.0, True),
     "OperatingPoint(v_be=0.65, i_b=1e-05, i_c=0.001, i_e=0.00101, v_ce=5.0, saturated=True)",
     "i_e", 2e-3),
    (SmallSignalParams, (2.5e3, 1e-9, 0.04),
     "SmallSignalParams(r_in=2500.0, g_out=1e-09, slope_s=0.04)", "g_out", -1e-9),
    (StageGain, (99.0, 40.0, 1e-3),
     "StageGain(beta_current=99.0, voltage_gain=40.0, power_out=0.001)", "power_out", -1.0),
    (OperatingLimits, (0.2, 30.0, 0.25),
     "OperatingLimits(i_c_max=0.2, v_ce_max=30.0, p_max=0.25)", "p_max", 0.0),
]


def _names(cls) -> list:
    return [field.name for field in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "cls, args, text, field, bad", STAGE_TYPES, ids=[row[0].__name__ for row in STAGE_TYPES]
)
class TestStageTypes:
    def test_signature_is_the_fields(self, cls, args, text, field, bad):
        parameters = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in parameters] == [f.name for f in fields]
        for parameter, field_ in zip(parameters, fields):
            assert parameter.annotation is field_.type
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if field_.default is dataclasses.MISSING:
                assert parameter.default is inspect.Parameter.empty
            else:
                assert parameter.default == field_.default
                assert type(parameter.default) is type(field_.default)
        assert float in {field_.type for field_ in fields}

    def test_positional_and_keyword_construction(self, cls, args, text, field, bad):
        built = cls(**dict(zip(_names(cls), args)))
        assert built == cls(*args)
        assert tuple(getattr(built, name) for name in _names(cls)) == args
        assert vars(built) == dict(zip(_names(cls), args))  # simulate's config echo

    def test_defaults_are_stored(self, cls, args, text, field, bad):
        required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
        built = cls(*args[: len(required)])
        for field_ in dataclasses.fields(cls)[len(required):]:
            assert getattr(built, field_.name) == field_.default

    def test_repr(self, cls, args, text, field, bad):
        assert repr(cls(*args)) == text

    def test_equality_and_hash_are_over_the_fields(self, cls, args, text, field, bad):
        value = cls(*args)
        assert value == cls(*args) and not value != cls(*args)
        assert hash(value) == hash(cls(*args)) == hash(args)
        assert value != args and not value == args
        if cls is not BjtCurrents:  # whose fields are tied by conservation
            other = dataclasses.replace(value, **{_names(cls)[0]: args[0] * 0.5})
            assert other != value and hash(other) == hash(tuple(vars(other).values()))

    def test_equality_is_only_within_one_class(self, cls, args, text, field, bad):
        value = cls(*args)

        class Subclass(cls):
            __slots__ = ()

        assert Subclass._fields == cls._fields == tuple(_names(cls))
        for other in (SimpleNamespace(**dict(zip(_names(cls), args))), Subclass(*args)):
            assert value != other and not value == other
            assert other != value and not other == value

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, text, field, bad):
        value = cls(*args)
        for name in (*_names(cls), "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert repr(value) == text

    def test_replace_validates_again(self, cls, args, text, field, bad):
        value = cls(*args)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            dataclasses.replace(value, **{field: bad})
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            cls(**{**vars(value), field: bad})

    def test_copy_and_pickle_give_an_equal_value(self, cls, args, text, field, bad):
        value = cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and repr(twin) == text
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, field, bad)


def test_every_stage_type_is_covered():
    # the package's dataclasses are exactly these eight
    import econamp

    exported = {getattr(econamp, name) for name in econamp.__all__}
    assert {cls for cls in exported if dataclasses.is_dataclass(cls)} == {
        row[0] for row in STAGE_TYPES
    }


def test_methods_come_from_the_base():
    # the decorator generated none of them, and none is frozen by its flag
    for cls in (row[0] for row in STAGE_TYPES):
        assert issubclass(cls, Frozen) and "__init__" in vars(cls)
        assert not {"__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert cls.__dataclass_params__.frozen is False


# Imports dataclasses first, and with it the stdlib namedtuples built from
# source, then counts the code objects compiled from a string that run while
# the stage path loads; each method a dataclass generates is one.
GENERATED_CODE_CHILD = """\
import dataclasses, sys, types
generated = []


def count(event, args):
    if event == "exec" and isinstance(args[0], types.CodeType):
        if args[0].co_filename == "<string>":
            generated.append(args[0].co_name)


sys.addaudithook(count)
import econamp.devices, econamp.circuit, econamp.amplifier
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
    for cls in (row[0] for row in STAGE_TYPES):
        assert "__doc__" in vars(cls) and cls.__doc__
        assert not cls.__doc__.startswith(f"{cls.__name__}(")


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
