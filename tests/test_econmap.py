"""Economic coefficient and regression tests.

The OLS oracle is a raw-moment normal-equations solve (Cramer's rule),
a different route from the centered-sum formulas under test. The accuracy
references compute keynes_m and r_squared from their definitions in exact
rational arithmetic (fractions.Fraction) on the same float inputs.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from econamp.amplifier import OperatingLimits
from econamp.devices import active_region_currents, beta_from_alpha
from econamp.econmap import (
    CobbDouglasParams,
    CoefficientReport,
    EconSeries,
    RegressionFit,
    analyze_series,
    beta_bank,
    beta_p_economic,
    beta_v_economic,
    cascade_gain,
    cobb_douglas,
    domar_sigma,
    fit_linear,
    harrod_b,
    keynes_multiplier,
)
from econamp.errors import SolverError
from econamp.simulate import evaluate_stage
from test_circuit import wide_configs
from test_stage_types import ECONOMIC_TYPES, ValueTypeContract, contract_cases


def series(*rows):
    """EconSeries from (label, investments, expenses, incomes[, quantity_out]) rows."""
    return EconSeries(*zip(*((*row, None)[:5] for row in rows)))


def ols_oracle(xs, ys):
    """Normal equations on raw moments, solved by Cramer's rule."""
    n = len(xs)
    sx = math.fsum(xs)
    sy = math.fsum(ys)
    sxx = math.fsum(x * x for x in xs)
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    beta = (n * sxy - sx * sy) / det
    a0 = (sxx * sy - sx * sxy) / det
    return a0, beta


def ulps(got, exact):
    """Distance of a float from an exact value, in units in the last place of the value."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def exact_keynes(incomes, investments):
    """Mean income increment over mean investment increment, exactly; None if undefined."""
    income_steps = [Fraction(b) - Fraction(a) for a, b in zip(incomes, incomes[1:])]
    investment_steps = [Fraction(b) - Fraction(a) for a, b in zip(investments, investments[1:])]
    if not investment_steps or sum(investment_steps) == 0:
        return None
    n_steps = len(investment_steps)
    return (sum(income_steps) / n_steps) / (sum(investment_steps) / n_steps)


def exact_r_squared(xs, ys):
    """1 - SS_res/SS_tot of the exact least-squares line, and the condition
    number sum|dx*dy| / |sum dx*dy| of its cross sum S_xy."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    n = len(xs)
    x_bar, y_bar = sum(xs) / n, sum(ys) / n
    cross = [(x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)]
    beta = sum(cross) / sum((x - x_bar) ** 2 for x in xs)
    a0 = y_bar - beta * x_bar
    residual_squares = sum((y - (a0 + beta * x)) ** 2 for x, y in zip(xs, ys))
    total_squares = sum((y - y_bar) ** 2 for y in ys)
    return 1 - residual_squares / total_squares, float(sum(map(abs, cross)) / abs(sum(cross)))


class TestCoefficients:
    def test_beta_p(self):
        assert beta_p_economic(500.0, 100.0) == pytest.approx(5.0)
        assert beta_p_economic(0.0, 75.0) == 0.0
        # scaling money alone divides the ratio
        assert beta_p_economic(500.0, 200.0) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            beta_p_economic(500.0, 0.0)

    def test_beta_v(self):
        assert beta_v_economic(1000.0, 200.0) == pytest.approx(5.0)
        assert beta_v_economic(321.0, 321.0) == 1.0
        with pytest.raises(ValueError):
            beta_v_economic(1000.0, 0.0)

    def test_beta_bank(self):
        assert beta_bank(1100.0, 1000.0) == pytest.approx(1.1)
        assert beta_bank(42.0, 42.0) == 1.0
        with pytest.raises(ValueError):
            beta_bank(1.0, 0.0)

    def test_harrod(self):
        assert harrod_b(200.0, 1000.0) == pytest.approx(0.2)
        assert harrod_b(55.0, 55.0) == 1.0
        assert harrod_b(0.0, 10.0) == 0.0
        with pytest.raises(ValueError):
            harrod_b(200.0, 0.0)

    def test_domar(self):
        assert domar_sigma(500.0, 100.0) == pytest.approx(5.0)
        assert domar_sigma(0.0, 9.0) == 0.0
        with pytest.raises(ValueError):
            domar_sigma(1.0, 0.0)

    def test_keynes(self):
        assert keynes_multiplier(150.0, 50.0) == pytest.approx(3.0)
        assert keynes_multiplier(8.0, 8.0) == 1.0
        assert keynes_multiplier(-10.0, 5.0) < 0
        with pytest.raises(ValueError):
            keynes_multiplier(1.0, 0.0)

    @pytest.mark.parametrize("function, figure, numerator, denominator, text", [
        (beta_v_economic, "beta_v", 1e308, 1e-300, "inf"),
        (harrod_b, "harrod_b", 1e308, 1e-300, "inf"),
        (domar_sigma, "domar_sigma", 1e308, 1e-300, "inf"),
        (beta_p_economic, "beta_p", 1e308, 1e-300, "inf"),
        (beta_bank, "beta_bank", 1e308, 1e-300, "inf"),
        (keynes_multiplier, "keynes_m", 1e308, -1e-300, "-inf"),
    ], ids=["beta_v", "harrod_b", "domar_sigma", "beta_p", "beta_bank", "keynes_m"])
    def test_overflowing_ratio_is_refused_by_name(
        self, function, figure, numerator, denominator, text
    ):
        # valid, finite arguments whose quotient is past the float range
        with pytest.raises(ValueError, match=rf"^{figure} must be finite, got {text}$"):
            function(numerator, denominator)
        assert function(numerator, 1.0) == numerator

    def test_reciprocity(self):
        rng = random.Random(21)
        for _ in range(200):
            a = rng.uniform(1e-3, 1e9)
            b = rng.uniform(1e-3, 1e9)
            assert beta_v_economic(a, b) * harrod_b(b, a) == pytest.approx(1.0, rel=1e-12)

    def test_domar_is_beta_v(self):
        rng = random.Random(22)
        for _ in range(200):
            a = rng.uniform(0.0, 1e9)
            b = rng.uniform(1e-3, 1e9)
            assert domar_sigma(a, b) == beta_v_economic(a, b)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e6])
    def test_currency_rescaling_invariance(self, c):
        assert beta_v_economic(1000.0 * c, 230.0 * c) == pytest.approx(
            beta_v_economic(1000.0, 230.0), rel=1e-12
        )
        assert beta_bank(1100.0 * c, 1000.0 * c) == pytest.approx(
            beta_bank(1100.0, 1000.0), rel=1e-12
        )
        assert harrod_b(200.0 * c, 1000.0 * c) == pytest.approx(
            harrod_b(200.0, 1000.0), rel=1e-12
        )
        assert keynes_multiplier(150.0 * c, 50.0 * c) == pytest.approx(
            keynes_multiplier(150.0, 50.0), rel=1e-12
        )


class TestCobbDouglas:
    def test_plain_product(self):
        params = CobbDouglasParams(g=1.0, lam=1.0, mu=1.0)
        assert cobb_douglas(params, 2.0, 3.0) == pytest.approx(6.0)

    def test_square_roots(self):
        # oracle: 2 * sqrt(4) * sqrt(9) = 12
        params = CobbDouglasParams(g=2.0, lam=0.5, mu=0.5)
        assert cobb_douglas(params, 4.0, 9.0) == pytest.approx(12.0, rel=1e-12)

    def test_unit_elasticities_give_power_product(self):
        # matches the output-power analog U * I with L -> U, K -> I
        params = CobbDouglasParams(g=1.0, lam=1.0, mu=1.0)
        for u, i in ((1.0, 1e-3), (12.0, 0.05)):
            assert cobb_douglas(params, u, i) == u * i

    def test_fractional_exponent_needs_positive_base(self):
        params = CobbDouglasParams(g=1.0, lam=0.5, mu=1.0)
        with pytest.raises(ValueError):
            cobb_douglas(params, -4.0, 9.0)
        with pytest.raises(ValueError):
            cobb_douglas(CobbDouglasParams(g=1.0, lam=1.0, mu=0.3), 4.0, 0.0)

    def test_integer_exponent_allows_any_base(self):
        params = CobbDouglasParams(g=1.0, lam=2.0, mu=1.0)
        assert cobb_douglas(params, -2.0, 3.0) == pytest.approx(12.0)

    def test_g_validated(self):
        with pytest.raises(ValueError):
            CobbDouglasParams(g=0.0, lam=1.0, mu=1.0)

    # Each used to escape as float pow's error or as inf: an OverflowError
    # "(34, 'Numerical result out of range')", a ZeroDivisionError, and inf.
    @pytest.mark.parametrize(
        "params, labour_l, capital_k, message",
        [
            ((1.0, 2.0, 1.0), 1e200, 1.0,
             "labour_l**lam must be finite, got labour_l = 1e+200, lam = 2.0"),
            ((1.0, 2.0, 1.0), -1e200, 1.0,
             "labour_l**lam must be finite, got labour_l = -1e+200, lam = 2.0"),
            ((1.0, -1.0, 1.0), 0.0, 1.0,
             "labour_l**lam must be finite, got labour_l = 0.0, lam = -1.0"),
            ((1.0, 1.0, -400.0), 2.0, 0.1,
             "capital_k**mu must be finite, got capital_k = 0.1, mu = -400.0"),
            ((1.0, 1.0, -1.0), 2.0, 0.0,
             "capital_k**mu must be finite, got capital_k = 0.0, mu = -1.0"),
            ((1e300, 1.0, 1.0), 1e10, 1e10,
             "Q = g * labour_l**lam * capital_k**mu must be finite, got inf"),
            ((1e300, 1.0, 1.0), -1e10, 1e10,
             "Q = g * labour_l**lam * capital_k**mu must be finite, got -inf"),
            # g*L overflows to inf, and inf times the underflowed K**mu is NaN
            ((1e300, 1.0, 2.0), 1e10, 1e-200,
             "Q = g * labour_l**lam * capital_k**mu must be finite, got nan"),
        ],
    )
    def test_non_finite_power_or_product_is_refused(self, params, labour_l, capital_k, message):
        with pytest.raises(ValueError) as info:
            cobb_douglas(CobbDouglasParams(*params), labour_l, capital_k)
        assert str(info.value) == message

    def test_a_partial_product_past_the_float_range_is_not_refused(self):
        # g * labour_l overflows to inf, although Q itself is about 1e-10
        q = cobb_douglas(CobbDouglasParams(1e300, 1.0, 1.0), 1e10, 1e-320)
        exact = Fraction(1e300) * Fraction(1e10) * Fraction(1e-320)
        assert q == pytest.approx(1e-10, rel=1e-3) and q == float(exact)
        assert cobb_douglas(CobbDouglasParams(1e300, 1.0, 1.0), -1e10, 1e-300) == (
            pytest.approx(-1e10, rel=1e-12)
        )
        # a zero base gives Q = 0 exactly; only an underflowed power refuses
        assert cobb_douglas(CobbDouglasParams(1e300, 1.0, 1.0), 1e10, 0.0) == 0.0

    def test_overflowing_partial_products_round_to_the_exact_q(self):
        # Q = g * L**lam * K**mu from the float powers, within two ulp of the
        # exact product: the mantissas' product rounds twice, as the product
        # of three floats does when nothing overflows
        rng = random.Random(41)
        checked = 0
        for _ in range(2000):
            params = CobbDouglasParams(10 ** rng.uniform(200, 300), 1.0, rng.choice((1.0, 2.0)))
            labour_l = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(10, 300)
            capital_k = 10 ** rng.uniform(-150, -100)  # K**mu stays a normal float
            exact = (
                Fraction(params.g) * Fraction(labour_l) * Fraction(capital_k**params.mu)
            )
            if params.g * labour_l < math.inf and params.g * labour_l > -math.inf:
                continue
            if abs(exact) >= Fraction(sys.float_info.max):
                with pytest.raises(ValueError, match="must be finite, got -?inf$"):
                    cobb_douglas(params, labour_l, capital_k)
                continue
            q = cobb_douglas(params, labour_l, capital_k)
            assert abs(Fraction(q) - exact) <= 2 * Fraction(math.ulp(q)), (params, labour_l)
            checked += 1
        assert checked > 500

    def test_fractional_check_comes_before_any_power(self):
        # labour_l**lam would overflow; the bad capital_k is still named first
        params = CobbDouglasParams(g=1.0, lam=2.0, mu=0.5)
        with pytest.raises(ValueError, match="capital_k must be > 0 for fractional"):
            cobb_douglas(params, 1e200, -1.0)

    def test_product_order_is_unchanged(self):
        rng = random.Random(17)
        for _ in range(1000):
            params = CobbDouglasParams(
                10 ** rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
            )
            labour_l, capital_k = 10 ** rng.uniform(-5, 5), 10 ** rng.uniform(-5, 5)
            assert cobb_douglas(params, labour_l, capital_k) == (
                params.g * labour_l**params.lam * capital_k**params.mu
            )


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear([1.0, 2.0, 3.0], [7.0, 12.0, 17.0])
        assert fit.a0 == pytest.approx(2.0, abs=1e-12)
        assert fit.beta == pytest.approx(5.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n == 3

    def test_hand_derived_instance(self):
        # oracle: normal equations worked by hand give beta = 1.9, a0 = 0.9
        fit = fit_linear([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 4.0, 7.0])
        assert fit.beta == pytest.approx(1.9, abs=1e-12)
        assert fit.a0 == pytest.approx(0.9, abs=1e-12)
        assert 0.0 < fit.r_squared < 1.0

    def test_shift_equivariance(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [1.0, 3.0, 4.0, 7.0]
        base = fit_linear(xs, ys)
        shifted = fit_linear(xs, [y + 100.0 for y in ys])
        assert shifted.beta == pytest.approx(base.beta, rel=1e-12)
        assert shifted.a0 == pytest.approx(base.a0 + 100.0, rel=1e-12)

    def test_currency_rescaling(self):
        xs = [10.0, 20.0, 35.0, 50.0]
        ys = [52.0, 103.0, 180.0, 260.0]
        base = fit_linear(xs, ys)
        for c in (1e-3, 1e6):
            scaled = fit_linear([x * c for x in xs], [y * c for y in ys])
            assert scaled.beta == pytest.approx(base.beta, rel=1e-12)
            assert scaled.a0 == pytest.approx(base.a0 * c, rel=1e-12)
            assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(3, 12)
            xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
            ys = [3.0 + 2.5 * x + rng.uniform(-5.0, 5.0) for x in xs]
            fit = fit_linear(xs, ys)
            a0, beta = ols_oracle(xs, ys)
            assert fit.a0 == pytest.approx(a0, abs=1e-9)
            assert fit.beta == pytest.approx(beta, abs=1e-9)

    def test_optimality_under_perturbation(self):
        rng = random.Random(24)

        def rss(xs, ys, a0, beta):
            return math.fsum((y - (a0 + beta * x)) ** 2 for x, y in zip(xs, ys))

        for _ in range(20):
            n = rng.randint(3, 10)
            xs = [rng.uniform(0.0, 50.0) for _ in range(n)]
            ys = [rng.uniform(0.0, 50.0) for _ in range(n)]
            fit = fit_linear(xs, ys)
            best = rss(xs, ys, fit.a0, fit.beta)
            eps = 1e-3
            for da, db in ((eps, 0.0), (-eps, 0.0), (0.0, eps), (0.0, -eps)):
                assert rss(xs, ys, fit.a0 + da, fit.beta + db) >= best

    def test_r_squared_matches_exact_reference(self):
        # the residual pass 1 - SS_res/SS_tot was off by up to 4.2e6 ulp here
        rng = random.Random(26)
        for _ in range(1000):
            n = rng.randint(3, 30)
            x_scale, y_scale = (10.0 ** rng.uniform(-150.0, 150.0) for _ in range(2))
            x_offset, y_offset = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            slope, noise = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, 1.0)
            units = [x_offset + rng.uniform(-1.0, 1.0) for _ in range(n)]
            xs = [u * x_scale for u in units]
            ys = [(y_offset + slope * u + noise * rng.gauss(0.0, 1.0)) * y_scale for u in units]
            exact, kappa = exact_r_squared(xs, ys)
            # 8 ulp while S_xy is well-conditioned; beyond, its centered terms
            # lose accuracy in proportion to the condition number
            assert ulps(fit_linear(xs, ys).r_squared, exact) <= 8 * max(1.0, kappa / 2)

    def test_the_identity_line_fits_exactly(self):
        # libm's pow gave d**2 != d*d for this d, so beta and r_squared were
        # 0.9999999999999999 and 0.9999999999999998 from squares taken with **
        d = 923.2681140745275
        fit = fit_linear([-d, d], [-d, d])
        assert (fit.a0, fit.beta, fit.r_squared) == (0.0, 1.0, 1.0)
        rng = random.Random(31)
        for _ in range(200):
            xs = [rng.uniform(-1e3, 1e3) for _ in range(rng.randint(2, 20))]
            if max(xs) > min(xs):
                fit = fit_linear(xs, xs)
                assert (fit.beta, fit.r_squared) == (1.0, 1.0)

    def test_constant_y_is_a_perfect_horizontal_fit(self):
        fit = fit_linear([1.0, 2.0, 3.0], [4.5, 4.5, 4.5])
        assert fit.beta == 0.0
        assert fit.a0 == pytest.approx(4.5)
        assert fit.r_squared == 1.0

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            fit_linear([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_linear([1.0], [1.0])

    def test_fit_of_one_point_is_refused(self):
        with pytest.raises(ValueError) as info:
            RegressionFit(a0=0.0, beta=1.0, r_squared=1.0, n=1)
        assert str(info.value) == "fit needs n >= 2, got 1"

    # Finite points whose squared deviations overflow used to escape as the
    # float `**` OverflowError "(34, 'Numerical result out of range')".
    @pytest.mark.parametrize(
        "xs, ys, total",
        [
            ([1.0, 2.0, 3.0], [1e308, -1e308, 1e308], "ss_tot"),
            ([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0], "s_xx"),
            ([1e308, 1e308, 1.0], [1.0, 2.0, 3.0], "sum of x"),
        ],
    )
    def test_overflowing_sum_names_it(self, xs, ys, total):
        with pytest.raises(ValueError, match=f"{total} must be finite"):
            fit_linear(xs, ys)

    def test_subnormal_slope_is_named(self):
        # used to raise "r_squared out of [0, 1]: inf": s_xy/ss_tot overflowed
        with pytest.raises(ValueError, match=r"slope beta is subnormal, below .*: 1\.5e-310$"):
            fit_linear([1e150, 2e150, 3e150], [1e-160, 2e-160, 4e-160])

    # Each used to return a fit whose r_squared had lost precision, the first
    # 0.9643197 against an exact 0.9642857.
    @pytest.mark.parametrize(
        "xs, ys, name, value",
        [
            ([1e-160, 2e-160, 3e-160], [1e-160, 2e-160, 4e-160], "s_xx", "2e-320"),
            ([1e-150, 2e-150, 3e-150], [1e-160, 2e-160, 4e-160], "s_xy", "3e-310"),
            ([1e150, 2e150, 3e150], [1e-155, 2e-155, 4e-155], "ss_tot", r"4\.66+7e-310"),
        ],
    )
    def test_subnormal_centred_sum_is_named(self, xs, ys, name, value):
        with pytest.raises(ValueError, match=rf"^{name} is subnormal, below .*: {value}$"):
            fit_linear(xs, ys)


class TestSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            EconSeries((), (), (), (), ())
        with pytest.raises(ValueError, match="duplicate"):
            series(("1990", 1.0, 1.0, 1.0), ("1990", 2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="investments"):
            series(("1990", -1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="column lengths differ"):
            EconSeries(("1990", "1991"), (1.0, 2.0), (1.0, 2.0), (1.0,), (None, None))

    def test_duplicate_labels_are_listed_in_linear_time(self):
        # label.count per label took 11 s at 20,000 periods
        n = 100_000
        labels = [f"p{i}" for i in range(n)]
        labels[-1] = "p7"
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            EconSeries(labels, [1.0] * n, [1.0] * n, [1.0] * n, [None] * n)
        assert time.perf_counter() - start < 10.0
        assert str(info.value) == "duplicate period labels: ['p7']"

    def test_columns_are_tuples(self):
        built = EconSeries(["a", "b"], [1.0, 2.0], [0.0, 0.0], [5.0, 9.0], [None, 3.0])
        assert built == series(("a", 1.0, 0.0, 5.0), ("b", 2.0, 0.0, 9.0, 3.0))
        assert built.investments == (1.0, 2.0)
        assert len(built) == 2

    # each cell is checked with the label of its period, after the earlier periods
    @pytest.mark.parametrize(
        "column, bad",
        [
            (column, bad)
            for column in ("investments", "expenses", "incomes", "quantity_out")
            for bad in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_non_finite_cell_names_column_and_label(self, column, bad):
        cells = dict(investments=1.0, expenses=1.0, incomes=1.0, quantity_out=1.0)
        bad_row = ("1991", *{**cells, column: bad}.values())
        with pytest.raises(ValueError, match=rf"^period '1991': {column} must be finite"):
            series(("1990", *cells.values()), bad_row)

    # A column whose float sum overflows is checked value by value: it passes
    # when every value is finite, and a later NaN is still named by period.
    def test_column_whose_sum_overflows(self):
        rows = [("a", 1e308, 1e308, 1.0, 1e308), ("b", 1e308, 1e308, 2.0, 1e308)]
        assert series(*rows).investments == (1e308, 1e308)
        with pytest.raises(ValueError, match=r"^period 'c': investments must be finite and >= 0, "
                                             r"got nan$"):
            series(*rows, ("c", math.nan, 1.0, 3.0))

    def test_int_columns_whose_sum_passes_the_float_range(self):
        big = int(1e308)  # each converts to a float; their sum does not
        assert series(("a", big, big, 1), ("b", big, big, 2)).expenses == (big, big)

    def test_single_period_report(self):
        report = analyze_series(series(("p1", 200.0, 0.0, 1000.0)))
        assert report.beta_v == pytest.approx(5.0)
        assert report.harrod_b == pytest.approx(0.2)
        assert report.domar_sigma == pytest.approx(5.0)
        assert report.mean_beta == pytest.approx(5.0)
        assert report.fit is None
        assert report.keynes_m is None
        assert report.beta_p is None
        # reciprocity holds field-wise when expenses vanish
        assert report.beta_v * report.harrod_b == pytest.approx(1.0, rel=1e-12)

    def test_exact_line_series(self):
        report = analyze_series(series(*(
            (str(year), 7.0 * k, 3.0 * k, 2.0 + 50.0 * k)
            for year, k in zip(range(1990, 1996), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        )))
        assert report.fit is not None
        assert report.fit.beta == pytest.approx(5.0, abs=1e-12)
        assert report.fit.a0 == pytest.approx(2.0, abs=1e-12)
        assert report.fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_internal_consistency(self):
        rng = random.Random(25)
        rows = [
            (str(k), rng.uniform(10.0, 100.0), rng.uniform(10.0, 100.0), rng.uniform(50.0, 900.0))
            for k in range(8)
        ]
        report = analyze_series(series(*rows))
        # identification: same totals feed both coefficients
        assert report.domar_sigma == report.beta_v
        # reciprocity: harrod_b inverts the investments-only gain
        total_inv = sum(row[1] for row in rows)
        total_inc = sum(row[3] for row in rows)
        assert report.harrod_b * beta_v_economic(total_inc, total_inv) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_beta_p_needs_quantity_in_every_period(self):
        with_qty = series(("a", 10.0, 10.0, 100.0, 50.0), ("b", 20.0, 20.0, 200.0, 150.0))
        assert analyze_series(with_qty).beta_p == pytest.approx(200.0 / 60.0)
        partial = series(("a", 10.0, 10.0, 100.0, 50.0), ("b", 20.0, 20.0, 200.0))
        assert analyze_series(partial).beta_p is None

    def test_keynes_from_first_differences(self):
        report = analyze_series(series(
            ("a", 100.0, 0.0, 500.0), ("b", 120.0, 0.0, 590.0), ("c", 150.0, 0.0, 740.0)
        ))
        # mean dV / mean dI = ((90 + 150)/2) / ((20 + 30)/2)
        assert report.keynes_m == pytest.approx(240.0 / 50.0)

    def test_keynes_matches_exact_reference(self):
        # the summed first differences were off by up to 1.8e3 ulp here, and gave
        # a number for 40 of the 87 series whose multiplier is undefined
        rng = random.Random(27)
        for _ in range(1000):
            n = rng.randint(1, 30)
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            investments, expenses, incomes = (
                [rng.uniform(0.01, 1.0) * scale for _ in range(n)] for _ in range(3)
            )
            if rng.random() < 0.05:
                investments[-1] = investments[0]
            report = analyze_series(series(*zip(map(str, range(n)), investments, expenses,
                                                incomes)))
            exact = exact_keynes(incomes, investments)
            if exact is None:
                assert report.keynes_m is None
            else:
                assert ulps(report.keynes_m, exact) <= 4

    def test_keynes_absent_for_constant_investments(self):
        constant = series(("a", 100.0, 5.0, 500.0), ("b", 100.0, 6.0, 590.0))
        assert analyze_series(constant).keynes_m is None

    def test_fit_absent_for_constant_inputs(self):
        constant = series(("a", 100.0, 0.0, 500.0), ("b", 100.0, 0.0, 590.0))
        assert analyze_series(constant).fit is None

    # Finite cells whose totals overflow used to report beta_v = 0 with a
    # NaN fit, or to escape as "intermediate overflow in fsum".
    @pytest.mark.parametrize(
        "rows, total",
        [
            ([("1990", 1e308, 1e308, 5.0), ("1991", 2.0, 3.0, 5.0)], "total inputs"),
            ([("1990", 1e308, 0.0, 5.0), ("1991", 1e308, 0.0, 5.0)], "total investments"),
            ([("1990", 1.0, 0.0, 1e308), ("1991", 2.0, 0.0, 1e308)], "total incomes"),
        ],
    )
    def test_overflowing_total_names_it(self, rows, total):
        with pytest.raises(ValueError, match=f"{total} must be finite"):
            analyze_series(series(*rows))

    def test_overflowing_gain_is_rejected(self):
        # tiny inputs: every total is finite, but incomes/inputs is not
        tiny = series(("a", 1e-320, 0.0, 5.0), ("b", 1e-320, 0.0, 5.0))
        with pytest.raises(ValueError, match="must be finite"):
            analyze_series(tiny)

    def test_ratio_refusals_follow_the_fit(self):
        # beta_p = 2e307 / 3e-300 overflows, but the fit's refusal comes first,
        # as when the report's own check refused beta_p
        rows = [("a", 1e-300, 0.0, 1e-10, 1e307), ("b", 2e-300, 0.0, 1e-10, 1e307)]
        with pytest.raises(ValueError, match="^s_xx = 0: "):
            analyze_series(series(*rows))
        # no fit for constant inputs: beta_p is refused by name
        with pytest.raises(ValueError, match="^beta_p must be finite, got inf$"):
            analyze_series(series(rows[0], ("b", 1e-300, 0.0, 1e-10, 1e307)))

    def test_zero_input_period_is_labeled(self):
        zero = series(("1990", 100.0, 0.0, 500.0), ("1991", 0.0, 0.0, 100.0))
        with pytest.raises(ValueError, match="1991"):
            analyze_series(zero)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e6])
    def test_report_currency_invariance(self, c):
        def scaled(factor):
            return series(
                ("a", 100.0 * factor, 30.0 * factor, 500.0 * factor),
                ("b", 150.0 * factor, 40.0 * factor, 800.0 * factor),
                ("c", 210.0 * factor, 55.0 * factor, 1150.0 * factor),
            )

        base = analyze_series(scaled(1.0))
        other = analyze_series(scaled(c))
        assert other.beta_v == pytest.approx(base.beta_v, rel=1e-12)
        assert other.harrod_b == pytest.approx(base.harrod_b, rel=1e-12)
        assert other.domar_sigma == pytest.approx(base.domar_sigma, rel=1e-12)
        assert other.mean_beta == pytest.approx(base.mean_beta, rel=1e-12)
        assert other.keynes_m == pytest.approx(base.keynes_m, rel=1e-12)
        assert other.fit.beta == pytest.approx(base.fit.beta, rel=1e-12)
        assert other.fit.r_squared == pytest.approx(base.fit.r_squared, rel=1e-12)
        assert other.fit.a0 == pytest.approx(base.fit.a0 * c, rel=1e-9)


@contract_cases(ECONOMIC_TYPES)
class TestRecords(ValueTypeContract):
    """The stage types' contract, for the four economic value types."""


def test_coefficient_report_optional_fields_default_to_none():
    report = CoefficientReport(2.0, 0.5, 2.0, 2.0)
    assert (report.beta_p, report.keynes_m, report.fit) == (None, None, None)
    assert report == CoefficientReport(2.0, 0.5, 2.0, 2.0, None, None, None)
    assert repr(report) == (
        "CoefficientReport(beta_v=2.0, harrod_b=0.5, domar_sigma=2.0, mean_beta=2.0, "
        "beta_p=None, keynes_m=None, fit=None)"
    )


# The paper's analogy: a transistor's own currents, read as an economic unit
# with investments = i_b, expenses = 0 and incomes = i_c, give the economic
# coefficients the transistor's current gain beta = alpha_n/(1 - alpha_n).
# The bound of each identity in ulps; after each, the worst measured on the
# wide draw's active designs.
ANALOGY_ULPS = {
    "beta_v": 4,        # 3.0
    "domar_sigma": 4,   # 3.0
    "keynes_m": 4,      # 3.0
    "mean_beta": 2,     # 1.0
    "fit.beta": 4,      # 3.0
    "harrod_b*beta": 2,  # 1.5, in ulps of 1
    "cascade_gain": 2,  # 0.97, against the exact product of three stage betas
    "|fit.a0|": 2,      # 1.5, in ulps of the design's largest i_c; the exact a0 is 0
}


def test_transistor_currents_give_the_transistor_gain():
    worst = dict.fromkeys(ANALOGY_ULPS, 0.0)
    stage_betas = []
    for config in wide_configs():
        try:
            op, ss, gains, _ = evaluate_stage(config, OperatingLimits())
        except SolverError:
            continue
        if ss is None:  # saturated: no current gain
            continue
        stage_betas.append(gains.beta_current)
        device = config.device
        # twelve periods biased from the operating point down to 1/12 of its v_be
        currents = [active_region_currents(device, op.v_be * (12 - k) / 12) for k in range(12)]
        report = analyze_series(EconSeries(
            [str(k) for k in range(12)], [c.i_b for c in currents], [0.0] * 12,
            [c.i_c for c in currents], [None] * 12,
        ))
        beta = beta_from_alpha(device.alpha_n)
        for name, value in [
            ("beta_v", report.beta_v), ("domar_sigma", report.domar_sigma),
            ("keynes_m", report.keynes_m), ("mean_beta", report.mean_beta),
            ("fit.beta", report.fit.beta),
        ]:
            worst[name] = max(worst[name], ulps(value, Fraction(beta)))
        worst["harrod_b*beta"] = max(worst["harrod_b*beta"], ulps(report.harrod_b * beta, 1))
        a0_ulps = abs(report.fit.a0) / math.ulp(max(c.i_c for c in currents))
        worst["|fit.a0|"] = max(worst["|fit.a0|"], a0_ulps)
    for k in range(0, len(stage_betas) - 2, 3):  # cascades of three stages
        stages = stage_betas[k:k + 3]
        exact = math.prod(map(Fraction, stages))
        worst["cascade_gain"] = max(worst["cascade_gain"], ulps(cascade_gain(stages), exact))
    assert len(stage_betas) > 800  # 818 of the draw
    assert {name: value for name, value in worst.items() if value > ANALOGY_ULPS[name]} == {}
