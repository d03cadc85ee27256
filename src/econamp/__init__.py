"""Economic amplifier toolkit.

A common-emitter amplifier stage (Ebers-Moll bipolar device, square-law
MOS device, DC bias solve, small-signal parameters) together with the
economic mapping built on the same gain concept: value/product/bank gain
coefficients, the Harrod, Domar, Cobb-Douglas and Keynes correspondences,
and the income-vs-investment regression.
"""

from types import ModuleType as _ModuleType

from .amplifier import (
    OperatingLimits,
    StageGain,
    breakdown_check,
    cascade_gain,
    current_gain,
    output_power,
    output_voltage,
    stage_gain,
    stage_voltage_gain,
)
from .circuit import (
    AmplifierConfig,
    OperatingPoint,
    SmallSignalParams,
    SolverError,
    small_signal_params,
    solve_operating_point,
    static_finite_params,
)
from .devices import (
    BjtCurrents,
    BjtParams,
    MosParams,
    active_region_currents,
    beta_from_alpha,
    ebers_moll_currents,
    mos_drain_current,
    mos_transconductance,
    thermal_voltage,
)
from .econmap import (
    CobbDouglasParams,
    CoefficientReport,
    EconSeries,
    RegressionFit,
    analyze_series,
    beta_bank,
    beta_p_economic,
    beta_v_economic,
    cobb_douglas,
    domar_sigma,
    fit_linear,
    harrod_b,
    keynes_multiplier,
)

__version__ = "0.1.0"

# every public class and function bound above, not the submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
