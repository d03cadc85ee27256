import importlib
import importlib.util
import inspect
import math
import subprocess
import sys

import pytest

import econamp
from econamp.errors import Record, require_finite


@pytest.fixture
def fresh_package():
    # a second copy of the package namespace, whose names no other test has used yet
    spec = importlib.util.find_spec("econamp")
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def _public_names(package) -> set:
    return {
        name for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_all_is_every_public_name_the_package_binds(fresh_package):
    assert len(set(econamp.__all__)) == len(econamp.__all__)  # no duplicates
    assert _public_names(fresh_package) == set()  # each name is bound on its first use
    for package in (fresh_package, econamp):
        for name in package.__all__:
            getattr(package, name)
        assert _public_names(package) == set(package.__all__)


def test_dir_and_star_import_offer_every_public_name(fresh_package):
    assert set(dir(fresh_package)) >= {*fresh_package.__all__, "__version__"}
    namespace = {}
    exec("from econamp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(econamp.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'econamp' has no attribute 'no_such_name'"):
        econamp.no_such_name


def test_every_exported_name_resolves_to_econamp_code():
    for name in econamp.__all__:
        value = getattr(econamp, name)
        assert value.__name__ == name
        assert value.__module__.startswith("econamp."), name


# The names of econamp.__all__ that each submodule bound when the stage laws,
# the MOS device and the regression had not yet left devices, circuit and
# econmap, and the fit and analyze code cli: each still resolves there.
SUBMODULE_NAMES = {
    "amplifier": ("OperatingLimits", "StageGain", "breakdown_check", "cascade_gain",
                  "current_gain", "output_power", "output_voltage", "stage_gain",
                  "stage_voltage_gain"),
    "cascade": ("cascade_gain",),
    "circuit": ("AmplifierConfig", "BjtParams", "OperatingPoint", "SmallSignalParams",
                "SolverError", "active_region_currents", "small_signal_params",
                "solve_operating_point", "static_finite_params"),
    "cli": ("analyze_series", "cascade_gain", "fit_linear"),
    "devices": ("BjtCurrents", "BjtParams", "MosParams", "active_region_currents",
                "beta_from_alpha", "ebers_moll_currents", "mos_drain_current",
                "mos_transconductance", "thermal_voltage"),
    "econmap": ("CobbDouglasParams", "CoefficientReport", "EconSeries", "RegressionFit",
                "analyze_series", "beta_bank", "beta_p_economic", "beta_v_economic",
                "cascade_gain", "cobb_douglas", "domar_sigma", "fit_linear", "harrod_b",
                "keynes_multiplier"),
    "errors": ("SolverError",),
    "simulate": ("AmplifierConfig", "BjtParams", "OperatingLimits", "breakdown_check",
                 "small_signal_params", "solve_operating_point", "stage_gain"),
}


@pytest.mark.parametrize("module", sorted(SUBMODULE_NAMES))
def test_submodule_names_resolve_to_the_package_s(module):
    submodule = importlib.import_module(f"econamp.{module}")
    for name in SUBMODULE_NAMES[module]:
        assert getattr(submodule, name) is getattr(econamp, name), name


def test_all_names_every_name_the_submodules_resolve():
    assert econamp.__all__ == sorted(set().union(*SUBMODULE_NAMES.values()))


# Runs each statement given in a fresh copy of the package and prints, one line
# each, the econamp modules it loaded.
LOADS_CHILD = """\
import sys
for statement in sys.argv[1:]:
    for module in [m for m in sys.modules if m.partition(".")[0] == "econamp"]:
        del sys.modules[module]
    before = set(sys.modules)
    exec(statement)
    print(*sorted(m for m in set(sys.modules) - before if m.partition(".")[0] == "econamp"))
"""
DEVICE_LOADS = {"econamp", "econamp.errors", "econamp.devices"}
CIRCUIT_LOADS = DEVICE_LOADS | {"econamp.circuit"}
ECONMAP_LOADS = {"econamp", "econamp.errors", "econamp.cascade", "econamp.econmap"}
CLI_LOADS = {"econamp", "econamp.errors", "econamp.cascade", "econamp.cli"}
MOS, CURRENTS, REGRESSION = "econamp.mos", "econamp.currents", "econamp.regression"
MOS_NAMES = ("MosParams", "mos_drain_current", "mos_transconductance")
CURRENTS_NAMES = ("BjtCurrents", "active_region_currents", "beta_from_alpha",
                  "ebers_moll_currents")
# (module, name, the econamp modules looking it up there loaded while its code
# lived in devices, circuit, econmap or cli, the modules it loads beyond those)
MOVED_LOOKUPS = [
    *((module, name, DEVICE_LOADS, {MOS}) for module in ("devices", None) for name in MOS_NAMES),
    *((module, name, DEVICE_LOADS, {CURRENTS})
      for module in ("devices", None) for name in CURRENTS_NAMES),
    ("circuit", "active_region_currents", CIRCUIT_LOADS, {CURRENTS}),
    *((module, "static_finite_params", CIRCUIT_LOADS, {CURRENTS}) for module in ("circuit", None)),
    *((module, name, ECONMAP_LOADS, {REGRESSION})
      for module in ("econmap", None) for name in ("RegressionFit", "fit_linear")),
    *(("cli", name, CLI_LOADS, {"econamp.csvio"})
      for name in ("read_xy_columns", "read_econ_series", "render_coefficients")),
    ("cli", "fit_linear", CLI_LOADS, {REGRESSION}),
    ("cli", "analyze_series", CLI_LOADS, {"econamp.econmap", REGRESSION}),
]


def test_a_moved_name_loads_only_the_module_that_defines_it(child_env):
    # cli.analyze_series loads econmap, and with it the regression econmap imports
    lookups = [f"from econamp{'.' + module if module else ''} import {name}"
               for module, name, _, _ in MOVED_LOOKUPS]
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_CHILD, *lookups],
        capture_output=True, text=True, env=child_env, check=True,
    )
    loaded = [set(line.split()) for line in proc.stdout.splitlines()]
    assert len(loaded) == len(lookups)
    for (module, name, before, added), loads in zip(MOVED_LOOKUPS, loaded):
        assert loads - before == added, (module, name)


# A valid keyword set for every exported value type with a float field; each
# float field is then replaced in turn by NaN, inf and -inf.
VALID_FIELDS = {
    "BjtParams": dict(i_es=1e-14, i_cs=1e-14, alpha_n=0.99, alpha_i=0.1, temperature=300.0),
    "MosParams": dict(k_prime=2e-3, v_threshold=1.0),
    "BjtCurrents": dict(i_e=1.01e-3, i_c=1e-3, i_b=1e-5),
    "AmplifierConfig": dict(
        v_cc=12.0, r_b1=100e3, r_b2=20e3, r_l=1e3,
        device=econamp.BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99),
    ),
    "OperatingPoint": dict(v_be=0.65, i_b=1e-5, i_c=1e-3, i_e=1.01e-3, v_ce=5.0),
    "SmallSignalParams": dict(r_in=2.5e3, g_out=1e-9, slope_s=0.04),
    "StageGain": dict(beta_current=99.0, voltage_gain=40.0, power_out=1e-3),
    "OperatingLimits": dict(i_c_max=0.1, v_ce_max=40.0, p_max=0.5),
    "RegressionFit": dict(a0=1.0, beta=2.0, r_squared=0.9, n=5),
    "CoefficientReport": dict(beta_v=2.0, harrod_b=0.5, domar_sigma=2.0, mean_beta=2.0,
                              beta_p=0.1, keynes_m=3.0),
    "CobbDouglasParams": dict(g=1.0, lam=0.7, mu=0.3),
}

NON_FINITE = [math.nan, math.inf, -math.inf]


def _float_fields(cls):
    # a value type's fields are its constructor's parameters, dataclass or not
    return [
        name for name, parameter in inspect.signature(cls).parameters.items()
        if parameter.annotation in (float, float | None)
    ]


def test_every_value_type_with_a_float_field_is_covered():
    classes = [getattr(econamp, name) for name in econamp.__all__]
    value_types = {
        cls.__name__ for cls in classes
        if inspect.isclass(cls) and not issubclass(cls, Exception) and _float_fields(cls)
    }
    assert value_types == set(VALID_FIELDS)


@pytest.mark.parametrize(
    "type_name, field, bad",
    [
        (type_name, field, bad)
        for type_name in VALID_FIELDS
        for field in _float_fields(getattr(econamp, type_name))
        for bad in NON_FINITE
    ],
)
def test_value_type_rejects_non_finite_field(type_name, field, bad):
    cls = getattr(econamp, type_name)
    cls(**VALID_FIELDS[type_name])  # the valid set itself passes
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        cls(**{**VALID_FIELDS[type_name], field: bad})


# Several fields non-finite at once, so that inf - inf or NaN could cancel in
# a naive check; each was accepted before the one rule.
@pytest.mark.parametrize(
    "type_name, kwargs",
    [
        ("BjtCurrents", dict(i_e=math.inf, i_c=1.0, i_b=math.inf)),
        ("OperatingPoint", dict(v_be=0.65, i_b=math.inf, i_c=1e-3, i_e=math.inf, v_ce=5.0)),
        ("StageGain", dict(beta_current=math.nan, voltage_gain=math.nan, power_out=math.nan)),
    ],
)
def test_value_type_rejects_several_non_finite_fields(type_name, kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        getattr(econamp, type_name)(**kwargs)


# A Python int past the float range is not finite: while the check compared
# against +-inf, the two cascades raised a bare OverflowError and BjtParams
# accepted its i_es. CoefficientReport checked only its float fields, so
# accepted it; EconSeries' column check raised a bare OverflowError, and so did
# the current-conservation check of OperatingPoint and BjtCurrents.
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: econamp.cascade_gain([10**400]), "stage 1 gain"),
        (lambda: econamp.cascade_gain([2, 10**400]), "stage 2 gain"),
        (lambda: econamp.BjtParams(10**400, 1e-14, 0.99), "i_es"),
        (lambda: econamp.CoefficientReport(
            beta_v=10**400, harrod_b=1.0, domar_sigma=1.0, mean_beta=1.0), "beta_v"),
        (lambda: econamp.EconSeries(["a"], [10**400], [1.0], [1.0], [None]),
         "period 'a': investments"),
        (lambda: econamp.EconSeries(["a"], [1.0], [1.0], [1.0], [10**400]),
         "period 'a': quantity_out"),
        (lambda: econamp.OperatingPoint(0.65, 10**400, 1e-3, 1.01e-3, 5.0), "i_b"),
        (lambda: econamp.OperatingPoint(0.65, 1e-5, -10**400, 1.01e-3, 5.0), "i_c"),
        (lambda: econamp.OperatingPoint(0.65, 1e-5, 1e-3, 10**400, 5.0), "i_e"),
        (lambda: econamp.BjtCurrents(10**400, 1e-3, 1e-5), "i_e"),
        (lambda: econamp.BjtCurrents(1.01e-3, 1e-3, -10**400), "i_b"),
    ],
    ids=["cascade-stage-1", "cascade-stage-2", "BjtParams-i_es", "CoefficientReport-beta_v",
         "EconSeries-investments", "EconSeries-quantity_out", "OperatingPoint-i_b",
         "OperatingPoint-i_c", "OperatingPoint-i_e", "BjtCurrents-i_e", "BjtCurrents-i_b"],
)
def test_int_past_the_float_range_is_refused(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        call()


def test_refusal_names_the_size_of_an_int_past_the_float_range():
    # str() of an int of over 4,300 digits raises its own ValueError, which
    # took the place of the verdict; 10**400 printed all 401 digits
    for value, shown in [(10**5000, "an int of 16610 bits"),
                         (-10**400, "a negative int of 1329 bits")]:
        with pytest.raises(ValueError) as caught:
            econamp.cascade_gain([2, value])
        assert str(caught.value) == f"stage 2 gain must be finite, got {shown}"
    # a value the float range holds is shown as before, every digit of it
    top = int(sys.float_info.max)
    for value, bound in [(-top, "> 0"), (-1, ">= 0"), (0, "> 0"), (-1e300, ">= 0")]:
        with pytest.raises(ValueError) as caught:
            require_finite("x", (value,), bound)
        assert str(caught.value) == f"x must be finite and {bound}, got {value}"


def test_require_finite_bounds_ints_by_the_float_range():
    top = int(sys.float_info.max)  # the largest int a float holds exactly
    require_finite("x, y", (top, -top))
    require_finite("x", (1,), "> 0")
    require_finite("x", (0,), ">= 0")
    for values, bound in [((top + 1,), ""), ((-top - 1,), ""), ((0,), "> 0"),
                          ((-1,), ">= 0"), ((10**400,), ">= 0")]:
        with pytest.raises(ValueError, match=r"^x must be finite"):
            require_finite("x", values, bound)


def test_every_value_type_is_a_record():
    # the stage's and the economic value types share one base and its methods
    exported = [getattr(econamp, name) for name in econamp.__all__]
    value_types = [cls for cls in exported if inspect.isclass(cls) and getattr(cls, "_fields", ())]
    assert len(value_types) == 12
    for cls in value_types:
        assert issubclass(cls, Record), cls
        assert not {
            "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__"
        } & set(vars(cls)), cls


_DEVICE = econamp.BjtParams(i_es=1e-14, i_cs=1e-14, alpha_n=0.99)

# (function, valid keyword arguments, the checked arguments)
CHECKED_ARGUMENTS = [
    (econamp.thermal_voltage, dict(temperature=300.0), ["temperature"]),
    (econamp.ebers_moll_currents, dict(params=_DEVICE, v_be=0.6, v_cb=-5.0), ["v_be", "v_cb"]),
    (econamp.active_region_currents, dict(params=_DEVICE, v_be=0.6), ["v_be"]),
    (econamp.mos_drain_current,
     dict(params=econamp.MosParams(k_prime=2e-3, v_threshold=1.0), v_gs=2.0, v_ds=1.0),
     ["v_gs", "v_ds"]),
    (econamp.mos_transconductance,
     dict(params=econamp.MosParams(k_prime=2e-3, v_threshold=1.0), v_gs=2.0), ["v_gs"]),
    (econamp.static_finite_params, dict(device=_DEVICE, v_be=0.65, delta=1e-3),
     ["v_be", "delta"]),
    (econamp.current_gain, dict(i_out=1e-3, i_in=1e-5), ["i_out", "i_in"]),
    (econamp.output_voltage, dict(i_out=1e-3, r_l=1e3), ["i_out", "r_l"]),
    (econamp.output_power, dict(i_c=1e-3, r_l=1e3), ["i_c", "r_l"]),
    (econamp.stage_voltage_gain,
     dict(ss=econamp.SmallSignalParams(r_in=2.5e3, g_out=0.0, slope_s=0.04), r_l=1e3),
     ["r_l"]),
    (econamp.beta_p_economic, dict(total_finished_products=10.0, inputs_value=5.0),
     ["total_finished_products", "inputs_value"]),
    (econamp.beta_v_economic, dict(total_incomes=10.0, investments_plus_expenses=5.0),
     ["total_incomes", "investments_plus_expenses"]),
    (econamp.beta_bank, dict(output_values=10.0, total_values=5.0),
     ["output_values", "total_values"]),
    (econamp.harrod_b, dict(investments=5.0, incomes=10.0), ["investments", "incomes"]),
    (econamp.domar_sigma, dict(delta_q=10.0, total_investments=5.0),
     ["delta_q", "total_investments"]),
    (econamp.cobb_douglas,
     dict(params=econamp.CobbDouglasParams(g=1.0, lam=0.7, mu=0.3), labour_l=2.0, capital_k=3.0),
     ["labour_l", "capital_k"]),
    (econamp.keynes_multiplier, dict(delta_v=10.0, delta_i=5.0), ["delta_v", "delta_i"]),
]


@pytest.mark.parametrize(
    "func, argument, bad",
    [
        (func, argument, bad)
        for func, _, arguments in CHECKED_ARGUMENTS
        for argument in arguments
        for bad in NON_FINITE
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_checked_argument_rejects_non_finite(func, argument, bad):
    valid = next(kwargs for f, kwargs, _ in CHECKED_ARGUMENTS if f is func)
    func(**valid)  # the valid set itself passes
    with pytest.raises(ValueError, match=rf"\b{argument} must be finite"):
        func(**{**valid, argument: bad})
