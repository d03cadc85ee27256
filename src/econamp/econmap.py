"""Economic amplification coefficients and the income-vs-investment regression.

The amplifier picture maps directly onto the classic investment models:
total income over invested inputs is the economic gain (reciprocal of the
Harrod capital coefficient, identical to the Domar productivity), and the
Keynes multiplier is the economic slope, income increment per investment
increment. The linear model income = a0 + beta * input is fitted by
ordinary least squares. RegressionFit and fit_linear, which that fit uses,
and cascade_gain, the gain of stages in cascade, are re-exported from their
own modules, which `fit` and `cascade` load without this one.
"""

import math
from collections import Counter
from operator import add, truediv

from .cascade import cascade_gain  # noqa: F401 (re-exported)
from .errors import Record, all_finite, require_finite
from .regression import RegressionFit, _fsum, fit_linear


class EconSeries(Record):
    """A period series as parallel columns, one entry per labeled period.

    quantity_out counts finished products; an entry is None for a period
    without a count. Each column is stored as a tuple.
    """

    def __init__(
        self,
        labels: tuple[str, ...],
        investments: tuple[float, ...],
        expenses: tuple[float, ...],
        incomes: tuple[float, ...],
        quantity_out: tuple[float | None, ...],
    ):
        columns = [tuple(c) for c in (labels, investments, expenses, incomes, quantity_out)]
        super().__init__(*columns)
        if not self.labels:
            raise ValueError("series needs at least one period")
        if len({len(column) for column in columns}) != 1:
            raise ValueError(f"column lengths differ: {[len(column) for column in columns]}")
        counts = [qty for qty in self.quantity_out if qty is not None]
        if not all(
            all_finite(column) and min(column, default=0.0) >= 0
            for column in (self.investments, self.expenses, self.incomes, counts)
        ):  # a value fails: name the first period that holds one
            names = "investments, expenses, incomes, quantity_out"  # None passes as 0
            for label, inv, exp, inc, qty in zip(*columns):
                try:
                    require_finite(names, (inv, exp, inc, qty or 0.0), ">= 0")
                except ValueError as exc:
                    raise ValueError(f"period {label!r}: {exc}") from None
        if len(set(self.labels)) != len(self):
            dupes = sorted(l for l, count in Counter(self.labels).items() if count > 1)
            raise ValueError(f"duplicate period labels: {dupes}")

    def __len__(self):
        return len(self.labels)


class CoefficientReport(Record):
    """Every economic coefficient computable from one series.

    beta_p is a products-per-money ratio (dimensionally mixed, reported
    as a plain number); the purely monetary coefficients are dimensionless.
    """

    def __init__(
        self,
        beta_v: float,
        harrod_b: float,
        domar_sigma: float,
        mean_beta: float,
        beta_p: float | None = None,
        keynes_m: float | None = None,
        fit: RegressionFit | None = None,
    ):
        super().__init__(beta_v, harrod_b, domar_sigma, mean_beta, beta_p, keynes_m, fit)
        given = {  # every coefficient given; fit is checked by its own type
            name: value for name, value in zip(self._fields, self._values()[:-1])
            if value is not None
        }
        require_finite(", ".join(given), tuple(given.values()))


def _quotient(figure: str, names: str, numerator: float, denominator: float) -> float:
    """numerator / denominator, each refused by name: `names` are theirs, the
    numerator must be finite, the denominator finite and > 0, and a quotient
    past the float range is refused as `figure`."""
    numerator_name, denominator_name = names.split(", ")
    require_finite(numerator_name, (numerator,))
    require_finite(denominator_name, (denominator,), "> 0")
    quotient = numerator / denominator
    require_finite(figure, (quotient,))
    return quotient


def beta_p_economic(total_finished_products: float, inputs_value: float) -> float:
    """Product gain: total finished products over the value of the inputs."""
    return _quotient(
        "beta_p", "total_finished_products, inputs_value", total_finished_products, inputs_value
    )


def beta_v_economic(total_incomes: float, investments_plus_expenses: float) -> float:
    """Value gain: total incomes over invested inputs; > 1 means amplification."""
    return _quotient(
        "beta_v", "total_incomes, investments_plus_expenses",
        total_incomes, investments_plus_expenses,
    )


def beta_bank(output_values: float, total_values: float) -> float:
    """Bank gain over one standard period: output values over total values.

    The caller composes total_values (initial capital + amount obtained +
    given interests) and fixes the standard period.
    """
    return _quotient("beta_bank", "output_values, total_values", output_values, total_values)


def harrod_b(investments: float, incomes: float) -> float:
    """Capital coefficient: investments over incomes (reciprocal of the gain)."""
    return _quotient("harrod_b", "investments, incomes", investments, incomes)


def domar_sigma(delta_q: float, total_investments: float) -> float:
    """Investment productivity: production increment over total investments.

    With the production increment read as total income efficiency this is
    the same number as beta_v_economic.
    """
    return _quotient("domar_sigma", "delta_q, total_investments", delta_q, total_investments)


class CobbDouglasParams(Record):
    """Proportionality g and the elasticities of labour (lam) and capital (mu)."""

    def __init__(self, g: float, lam: float, mu: float):
        super().__init__(g, lam, mu)
        require_finite("g", (g,), "> 0")
        require_finite("lam, mu", (lam, mu))


def cobb_douglas(params: CobbDouglasParams, labour_l: float, capital_k: float) -> float:
    """Production Q = g * L^lambda * K^mu.

    A power that is not finite is refused with a ValueError naming it, as is
    float pow's OverflowError or ZeroDivisionError. When the left-to-right
    product overflows although both powers are finite, Q is formed from the
    factors' frexp mantissas and summed exponents. So only a Q outside the
    float range is refused, or one left unknown by a power that underflowed.
    """
    require_finite("labour_l, capital_k", (labour_l, capital_k))
    factors = (
        (labour_l, params.lam, "labour_l", "lam"),
        (capital_k, params.mu, "capital_k", "mu"),
    )
    for base, exponent, name, _ in factors:
        if base <= 0 and exponent != int(exponent):
            raise ValueError(
                f"{name} must be > 0 for fractional exponent {exponent}, got {base}"
            )
    powers = []
    for base, exponent, name, exponent_name in factors:
        try:
            powers.append(base**exponent)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(
                f"{name}**{exponent_name} must be finite, got {name} = {base!r}, "
                f"{exponent_name} = {exponent!r}"
            ) from None
    q = params.g * powers[0] * powers[1]
    underflowed = any(power == 0.0 != base for power, (base, *_) in zip(powers, factors))
    if not -math.inf < q < math.inf and not underflowed:
        # A partial product overflowed. The mantissas' product lies in [1/8, 1),
        # or is 0 for a zero base.
        (m_g, e_g), (m_l, e_l), (m_k, e_k) = map(math.frexp, (params.g, *powers))
        try:
            q = math.ldexp(m_g * m_l * m_k, e_g + e_l + e_k)
        except OverflowError:
            pass  # Q itself is past the float range; q keeps its signed inf
    if not -math.inf < q < math.inf:  # also rejects NaN, from inf * 0.0
        raise ValueError(f"Q = g * labour_l**lam * capital_k**mu must be finite, got {q}")
    return q


def keynes_multiplier(delta_v: float, delta_i: float) -> float:
    """Investment multiplier: income increment over investment increment."""
    require_finite("delta_v, delta_i", (delta_v, delta_i))
    if delta_i == 0:
        raise ValueError(f"delta_i must be non-zero, got {delta_i}")
    multiplier = delta_v / delta_i
    require_finite("keynes_m", (multiplier,))
    return multiplier


def analyze_series(series: EconSeries) -> CoefficientReport:
    """Aggregate a series into the full coefficient report.

    Totals feed beta_v, domar_sigma (same inputs denominator) and harrod_b
    (investments alone, so its reciprocal is the income/investment gain).
    mean_beta is the per-period mean income/inputs ratio. beta_p appears
    only when every period counts its finished products. keynes_m, the mean
    income increment over the mean investment increment, telescopes to
    (last - first incomes) / (last - first investments), so it needs
    end-point investments that differ (hence two periods). The fit needs two
    periods and non-degenerate inputs.
    """
    investments, expenses, incomes = series.investments, series.expenses, series.incomes
    total_inv = _fsum("total investments", investments)
    total_exp = _fsum("total expenses", expenses)
    total_inc = _fsum("total incomes", incomes)
    total_inputs = total_inv + total_exp
    require_finite("total inputs, total incomes", (total_inputs, total_inc), "> 0")

    inputs = list(map(add, investments, expenses))
    low, high = min(inputs), max(inputs)
    if low <= 0:  # every entry is >= 0, so the first zero names the period
        label = series.labels[inputs.index(0.0)]
        raise ValueError(f"period {label!r}: zero inputs, ratio undefined")
    mean_beta = _fsum("sum of period gains", map(truediv, incomes, inputs)) / len(inputs)

    total_qty = None
    if None not in series.quantity_out:
        total_qty = _fsum("total quantity_out", series.quantity_out)

    fit = fit_linear(inputs, incomes) if high > low else None  # varied: two periods at least

    # each ratio refuses its own overflow, in the report's field order
    return CoefficientReport(
        beta_v=beta_v_economic(total_inc, total_inputs),
        harrod_b=harrod_b(total_inv, total_inc),
        domar_sigma=domar_sigma(total_inc, total_inputs),
        mean_beta=mean_beta,
        beta_p=None if total_qty is None else beta_p_economic(total_qty, total_inputs),
        keynes_m=(
            keynes_multiplier(incomes[-1] - incomes[0], investments[-1] - investments[0])
            if investments[-1] != investments[0] else None
        ),
        fit=fit,
    )
