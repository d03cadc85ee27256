"""Regenerate data/synthetic_series.csv.

The series is built on the line incomes = 5.19 * (investments + expenses)
with at most 1% multiplicative noise per period. The noise draws are
recentered to zero mean, so the per-period mean income/inputs ratio is
5.19 up to rounding of the printed values.

Run with no arguments to rewrite the file; `--help` only prints this text.
"""

import argparse
import random
from pathlib import Path

TARGET_BETA = 5.19
N_PERIODS = 15
FIRST_YEAR = 1990
SEED = 20240519

OUT = Path(__file__).resolve().parent.parent / "data" / "synthetic_series.csv"


def series_text() -> str:
    """The CSV text of the series; the same on every call."""
    rng = random.Random(SEED)
    inputs = []
    for k in range(N_PERIODS):
        base = 120.0 + 45.0 * k
        inputs.append(base * (1.0 + rng.uniform(-0.05, 0.05)))
    noise = [rng.uniform(-0.005, 0.005) for _ in range(N_PERIODS)]
    mean_noise = sum(noise) / len(noise)
    noise = [e - mean_noise for e in noise]

    lines = ["period,investments,expenses,incomes"]
    for k, (total_in, eps) in enumerate(zip(inputs, noise)):
        investments = round(0.6 * total_in, 2)
        expenses = round(0.4 * total_in, 2)
        incomes = round(TARGET_BETA * (investments + expenses) * (1.0 + eps), 2)
        lines.append(f"{FIRST_YEAR + k},{investments},{expenses},{incomes}")
    return "\n".join(lines) + "\n"


def main():
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    text = series_text()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")

    ratios = []
    for line in text.splitlines()[1:]:
        _, inv, exp, inc = line.split(",")
        ratios.append(float(inc) / (float(inv) + float(exp)))
    mean_beta = sum(ratios) / len(ratios)
    print(f"wrote {OUT} ({N_PERIODS} periods, mean ratio {mean_beta:.6f})")


if __name__ == "__main__":
    main()
