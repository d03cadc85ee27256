"""Seeded input generation for the benchmark workloads.

Everything here runs outside the timed regions. The same seed always gives
the same inputs; the program under test only ever sees what is generated.
"""

import random

# Ranges of tests/test_acceptance.py::test_solver_oracle. Saturated designs
# are part of this draw on purpose: they expose the small-signal overflow.
DESIGN_RANGES = (
    ("v_cc", "uniform", 5.0, 30.0),
    ("r_b1", "log10", 3.0, 6.0),
    ("r_b2", "log10", 3.0, 6.0),
    ("r_l", "log10", 2.0, 4.0),
    ("i_es", "log10", -16.0, -12.0),
    ("i_cs", "log10", -16.0, -12.0),
    ("alpha_n", "uniform", 0.95, 0.999),
    ("temperature", "uniform", 270.0, 370.0),
)

SERIES_ROWS = 100_000
SERIES_HEADER = "period,investments,expenses,incomes,quantity_out"


class DesignStream:
    """Endless seeded stream of raw stage designs (tuples of 8 floats)."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"bias_sweep:{seed}")

    def take(self, count: int) -> list:
        uniform = self._rng.uniform
        out = []
        for _ in range(count):
            out.append(tuple(
                uniform(lo, hi) if kind == "uniform" else 10 ** uniform(lo, hi)
                for _, kind, lo, hi in DESIGN_RANGES
            ))
        return out


def make_series(seed: int, index: int, rows: int = SERIES_ROWS):
    """Columns of one period series: (labels, investments, expenses, incomes, quantity).

    Investments trend upward so the Keynes multiplier is well defined, and
    incomes follow a noisy line with a clearly non-zero intercept.
    """
    rng = random.Random(f"series_analysis:{seed}:{index}")
    uniform = rng.uniform
    intercept = uniform(20.0, 80.0)
    slope = uniform(3.0, 7.0)
    labels, inv, exp, inc, qty = [], [], [], [], []
    for k in range(rows):
        investments = round((50.0 + 0.02 * k) * (1.0 + uniform(-0.4, 0.4)), 2)
        expenses = round(uniform(10.0, 400.0), 2)
        incomes = round(
            intercept + slope * (investments + expenses) * (1.0 + uniform(-0.05, 0.05)), 2
        )
        labels.append(f"P{k:06d}")
        inv.append(investments)
        exp.append(expenses)
        inc.append(incomes)
        qty.append(round(uniform(1.0, 1000.0), 1))
    return labels, inv, exp, inc, qty


def write_series(path, columns) -> None:
    """Write the columns as the CSV the `analyze` and `fit` subcommands read."""
    lines = [SERIES_HEADER]
    lines.extend(f"{p},{a!r},{b!r},{c!r},{q!r}" for p, a, b, c, q in zip(*columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
