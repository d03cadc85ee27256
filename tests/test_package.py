import dataclasses
import inspect
import math
from typing import Optional

import pytest

import econamp


def test_all_is_every_public_name_the_package_binds():
    public = {
        name for name, value in vars(econamp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(econamp.__all__) == public
    assert len(econamp.__all__) == len(public)  # no duplicates


def test_every_exported_name_resolves_to_econamp_code():
    for name in econamp.__all__:
        value = getattr(econamp, name)
        assert value.__name__ == name
        assert value.__module__.startswith("econamp."), name


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
    return [f.name for f in dataclasses.fields(cls) if f.type in (float, Optional[float])]


def test_every_value_type_with_a_float_field_is_covered():
    value_types = {
        name for name in econamp.__all__
        if dataclasses.is_dataclass(getattr(econamp, name))
        and _float_fields(getattr(econamp, name))
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
