"""Seeded robustness gate: random inputs for every subcommand through cli.main.

Every input gets one of the documented outcomes. No exception escapes
`main`, the exit code is 0, 2, 3 or 4, a `simulate` that exits 0 reports a
bias point that an independent base-node oracle accepts, and an exit-4
message names what it refuses: a config key, a CSV column, a cascade stage
or one of the derived figures README lists.

Values are drawn far outside any sensible design, log-uniform over the
whole float range with negatives and edge values mixed in, because that is
where overflow, underflow and division by zero hide. The shipped demo
config is also perturbed on a fixed grid: each key alone over the edge
values, and each pair of keys over a few extremes.
"""

import contextlib
import io
import itertools
import math
import random
import re

import pytest

from econamp import cli

K_BOLTZMANN = 1.380649e-23
Q_ELECTRON = 1.602176634e-19
RESIDUAL_TOL = 1e-12  # amperes, the acceptance gate's base-node tolerance

SIMULATE_KEYS = ("v_cc", "r_b1", "r_b2", "r_l", "i_es", "alpha_n")
CONFIG_KEYS = (
    "v_cc", "r_b1", "r_b2", "r_l", "i_es", "i_cs", "alpha_n", "alpha_i", "temperature",
    "i_c_max", "v_ce_max", "p_max",
)
EDGE_VALUES = ("0", "-0", "5e-324", "1e-310", "1.7e308", "nan", "inf", "1e400")
# the demo grid: each key alone over ONE_KEY_VALUES, each pair over PAIR_VALUES
ONE_KEY_VALUES = EDGE_VALUES + ("1e-300", "1e300", "1e6", "1e-30", "-1")
PAIR_VALUES = ("5e-324", "1e-305", "1e-30", "1e7", "1e300", "nan")
ECON_COLUMNS = ("period", "investments", "expenses", "incomes", "quantity_out")
# The derived figures README lists as names an exit-4 message may carry.
# v_th and r_th are named through v_cc, r_b1, r_b2, which are config keys.
DERIVED_FIGURES = (
    # simulate
    "v_be", "v_ce", "r_in", "power_out", "currents",
    # fit, and the regression in analyze
    "n", "sum of x", "sum of y", "s_xx", "s_xy", "ss_tot", "slope beta", "a0", "beta",
    "r_squared",
    # analyze
    "total investments", "total expenses", "total incomes", "total inputs",
    "total quantity_out", "sum of period gains",
    "beta_v", "harrod_b", "domar_sigma", "mean_beta", "beta_p", "keynes_m",
)
EXIT_CODES = (0, 2, 3, 4)


def run(argv):
    """(exit code, stdout, stderr) of cli.main; an escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def names_one_of(message, names):
    return any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", message) for name in names)


def wide_value(rng):
    """A number as config or CSV text: log-uniform on 1e-320..1e308, a quarter
    negated, or one of the edge values."""
    if rng.random() < 0.15:
        return rng.choice(EDGE_VALUES)
    value = 10.0 ** rng.uniform(-320, 308)
    return repr(-value if rng.random() < 0.25 else value)


def values_block(stdout):
    block = stdout.split("[values]\n", 1)[1]
    return dict(line.split("=", 1) for line in block.splitlines())


def base_node_failure(config, values):
    """Why a reported bias point is wrong, or None.

    Recomputed from the config values alone: the base-node residual must be
    under RESIDUAL_TOL or change sign across the floats next to v_be (the
    solver's resolution limit on a stiff divider), currents must be
    conserved and v_ce must be v_cc - i_c*r_l.
    """
    v_cc, r_b1, r_b2, r_l, i_es, alpha_n = (config[key] for key in SIMULATE_KEYS)
    vt = K_BOLTZMANN * config.get("temperature", 300.0) / Q_ELECTRON
    v_th = v_cc * r_b2 / (r_b1 + r_b2)
    r_th = r_b1 * r_b2 / (r_b1 + r_b2)

    def residual(v):
        return (v_th - v) / r_th - (1.0 - alpha_n) * i_es * math.expm1(v / vt)

    v_be, i_b, i_c, i_e, v_ce = (
        float(values[key]) for key in ("v_be", "i_b", "i_c", "i_e", "v_ce")
    )
    below, above = math.nextafter(v_be, -math.inf), math.nextafter(v_be, math.inf)
    if not (abs(residual(v_be)) < RESIDUAL_TOL or residual(below) >= 0.0 >= residual(above)):
        return f"base-node residual {residual(v_be):.3e} A at v_be={v_be!r}"
    if not abs(i_e - (i_b + i_c)) <= 1e-12 * max(abs(i_e), abs(i_b), abs(i_c)):
        return f"i_e={i_e!r} != i_b + i_c"
    if not abs(v_ce - (v_cc - i_c * r_l)) <= 2 * math.ulp(max(abs(v_cc), abs(i_c * r_l))):
        return f"v_ce={v_ce!r} != v_cc - i_c*r_l = {v_cc - i_c * r_l!r}"
    return None


def check(argv, names, failures):
    """Run one input and record in `failures` how its outcome breaks the rules."""
    code, out, err = run(argv)
    if code not in EXIT_CODES:
        failures.append((argv, f"exit code {code}"))
    elif code == 4 and not names_one_of(err, (*names, *DERIVED_FIGURES)):
        failures.append((argv, f"exit 4 names nothing it refuses: {err.strip()}"))
    return code, out


def check_simulate(path, configs):
    """Failures of `simulate` over `configs` (dicts of key -> value text), and
    whether any exited 0; an exit 0 must pass the base-node oracle."""
    failures, solved = [], False
    for config in configs:
        path.write_text("".join(f"{key} = {text}\n" for key, text in config.items()))
        code, out = check(["simulate", str(path)], CONFIG_KEYS, failures)
        if code == 0:
            solved = True
            floats = {key: float(text) for key, text in config.items()}
            reason = base_node_failure(floats, values_block(out))
            if reason:
                failures.append((config, reason))
    return failures, solved


def test_simulate(tmp_path):
    rng = random.Random(12345)
    configs = [{key: wide_value(rng) for key in SIMULATE_KEYS} for _ in range(3000)]
    failures, solved = check_simulate(tmp_path / "stage.cfg", configs)
    assert failures == []
    assert solved  # the draw does reach the oracle


def demo_config(data_dir):
    """The shipped demo config as key -> value text."""
    text = (data_dir / "demo_amplifier.cfg").read_text()
    lines = (line.split("#", 1)[0].strip() for line in text.split("\n"))
    return dict((part.strip() for part in line.split("=")) for line in lines if line)


def test_simulate_demo_one_key(tmp_path, data_dir):
    demo = demo_config(data_dir)
    configs = [{**demo, key: text} for key in CONFIG_KEYS for text in ONE_KEY_VALUES]
    failures, solved = check_simulate(tmp_path / "stage.cfg", configs)
    assert failures == []
    assert solved


def test_simulate_demo_key_pairs(tmp_path, data_dir):
    demo = demo_config(data_dir)
    configs = [
        {**demo, first: a, second: b}
        for first, second in itertools.combinations(CONFIG_KEYS, 2)
        for a, b in itertools.product(PAIR_VALUES, repeat=2)
    ]
    failures, solved = check_simulate(tmp_path / "stage.cfg", configs)
    assert failures == []
    assert solved


def random_csv(rng, columns, rows):
    """CSV text of `columns`, each cell at its column's scale in 1e-300..1e300;
    a cell may be an edge value, blank or not a number."""
    scales = [10.0 ** rng.uniform(-300, 300) for _ in columns]
    lines = [",".join(columns)]
    for _ in range(rows):
        cells = []
        for column, scale in zip(columns, scales):
            roll = rng.random()
            if column == "period":
                cells.append(f"p{rng.randrange(rows + 1)}")
            elif roll < 0.05:
                cells.append(rng.choice(EDGE_VALUES + ("", "x")))
            else:
                value = scale * rng.uniform(0.1, 10.0)
                cells.append(repr(-value if roll < 0.15 else value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["fit", "analyze"])
def test_csv_commands(tmp_path, command):
    rng = random.Random(f"csv-{command}")
    path = tmp_path / "series.csv"
    failures = []
    for _ in range(1000):
        if command == "fit":
            columns = ["cost", "output"]
            argv = ["fit", str(path), "--x", "cost", "--y", "output"]
        else:
            columns = list(ECON_COLUMNS[: 4 + rng.randrange(2)])
            argv = ["analyze", str(path)]
        path.write_text(random_csv(rng, columns, 1 + rng.randrange(8)))
        check(argv, columns, failures)
    assert failures == []


def test_cascade():
    rng = random.Random("cascade")
    failures = []
    for _ in range(1000):
        gains = [wide_value(rng) for _ in range(1 + rng.randrange(6))]
        check(["cascade", *gains], [f"stage {k}" for k in range(1, len(gains) + 1)], failures)
    assert failures == []
