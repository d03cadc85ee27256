"""Economic amplifier toolkit.

A common-emitter amplifier stage (Ebers-Moll bipolar device, square-law
MOS device, DC bias solve, small-signal parameters) together with the
economic mapping built on the same gain concept: value/product/bank gain
coefficients, the Harrod, Domar, Cobb-Douglas and Keynes correspondences,
and the income-vs-investment regression.

The public names load lazily (PEP 562): `import econamp` imports no
submodule, and the first use of a name imports the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "amplifier": (
        "OperatingLimits", "StageGain", "breakdown_check", "current_gain", "output_power",
        "output_voltage", "stage_gain", "stage_voltage_gain",
    ),
    "circuit": (
        "AmplifierConfig", "OperatingPoint", "SmallSignalParams", "small_signal_params",
        "solve_operating_point", "static_finite_params",
    ),
    "devices": (
        "BjtCurrents", "BjtParams", "MosParams", "active_region_currents", "beta_from_alpha",
        "ebers_moll_currents", "mos_drain_current", "mos_transconductance", "thermal_voltage",
    ),
    "cascade": ("cascade_gain",),
    "econmap": (
        "CobbDouglasParams", "CoefficientReport", "EconSeries", "RegressionFit",
        "analyze_series", "beta_bank", "beta_p_economic", "beta_v_economic", "cobb_douglas",
        "domar_sigma", "fit_linear", "harrod_b", "keynes_multiplier",
    ),
    "errors": ("SolverError",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
