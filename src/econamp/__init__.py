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
        "solve_operating_point",
    ),
    "devices": ("BjtParams", "thermal_voltage"),
    "currents": (
        "BjtCurrents", "active_region_currents", "beta_from_alpha", "ebers_moll_currents",
        "static_finite_params",
    ),
    "mos": ("MosParams", "mos_drain_current", "mos_transconductance"),
    "cascade": ("cascade_gain",),
    "econmap": (
        "CobbDouglasParams", "CoefficientReport", "EconSeries", "analyze_series", "beta_bank",
        "beta_p_economic", "beta_v_economic", "cobb_douglas", "domar_sigma", "harrod_b",
        "keynes_multiplier",
    ),
    "regression": ("RegressionFit", "fit_linear"),
    "errors": ("SolverError",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _forwarder(namespace: dict, homes: dict):
    """A PEP 562 module __getattr__ for the module whose globals are `namespace`.

    Each name of `homes` is looked up in the econamp submodule that `homes`
    maps it to, which is imported on first use, and bound in `namespace`, so
    later lookups skip the hook. The package finds its public names so, and
    devices, circuit and cli the names of code that lives in other modules.
    """

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
        return value

    return __getattr__


__getattr__ = _forwarder(globals(), _MODULE_OF)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
