"""Command line front end.

Subcommands:
  simulate <config>             solve one CE stage and report bias, small-signal
                                parameters, gains and limit warnings
  fit <csv> --x COL --y COL     least-squares line through two CSV columns,
                                plus a <input>.points.csv file for plotting
  analyze <csv>                 economic coefficient report for a period series
  cascade G1 [G2 ...]           product of stage gains

Exit codes: 0 success, 2 usage (bad invocation, unreadable file),
3 parse (malformed config or CSV), 4 solver or domain error.
"""

import argparse
import csv
import math
import sys
from dataclasses import MISSING, fields

from .amplifier import OperatingLimits, breakdown_check, cascade_gain, stage_gain
from .circuit import AmplifierConfig, SolverError, small_signal_params, solve_operating_point
from .devices import BjtParams
from .econmap import CoefficientReport, EconSeries, analyze_series, fit_linear

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

# the config schema is the fields of the three types a config builds
_CONFIG_FIELDS = [
    f for cls in (AmplifierConfig, BjtParams, OperatingLimits) for f in fields(cls)
    if f.name != "device"
]
CONFIG_KEYS = tuple(f.name for f in _CONFIG_FIELDS)
# i_cs has no dataclass default but defaults to i_es in a config
REQUIRED_CONFIG_KEYS = tuple(
    f.name for f in _CONFIG_FIELDS if f.default is MISSING and f.name != "i_cs"
)

ECON_COLUMNS = ("period", "investments", "expenses", "incomes")


class InputFormatError(Exception):
    """Malformed config or CSV content (maps to exit code 3)."""


# ---------------------------------------------------------------------------
# report rendering: every report is rows of (key, value, unit)

def _fmt(value) -> str:
    # human tables: 6 significant digits; ints whole (".6g" gives 1e+06)
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else format(value, ".6g")


def _rows(obj, **units) -> list:
    """(key, value, unit) rows of obj's fields named in `units`; None values for no obj."""
    return [(key, None if obj is None else getattr(obj, key), unit) for key, unit in units.items()]


def table(rows, width: int = 0) -> list[str]:
    """Human rows `  key = value unit`, keys padded to the longest or `width`.

    A None value prints as `n/a`, without its unit.
    """
    width = max(width, *(len(key) for key, _, _ in rows))
    return [
        f"  {key:<{width}} = {_fmt(value)}" + (f" {unit}" if unit and value is not None else "")
        for key, value, unit in rows
    ]


def values_block(rows) -> list[str]:
    """The `[values]` block: full-precision `key=value`, None rows left out."""
    return ["[values]"] + [
        f"{key}={str(value).lower() if isinstance(value, bool) else repr(value)}"
        for key, value, _ in rows
        if value is not None
    ]


# ---------------------------------------------------------------------------
# config file handling

def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines with # comments into a key->float dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise InputFormatError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise InputFormatError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(rhs.strip())
        except ValueError:
            raise InputFormatError(
                f"{source}:{lineno}: value for {key!r} is not a number: {rhs.strip()!r}"
            ) from None
    missing = [k for k in REQUIRED_CONFIG_KEYS if k not in values]
    if missing:
        raise InputFormatError(f"{source}: missing required keys: {', '.join(missing)}")
    return values


def _given(cls, values: dict) -> dict:
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


def build_simulation(values: dict) -> tuple[AmplifierConfig, OperatingLimits]:
    """Resolve parsed config values into typed objects.

    Omitted keys take the dataclass defaults, except i_cs, which defaults to i_es.
    """
    device = BjtParams(**_given(BjtParams, {"i_cs": values["i_es"], **values}))
    config = AmplifierConfig(device=device, **_given(AmplifierConfig, values))
    return config, OperatingLimits(**_given(OperatingLimits, values))


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        values = parse_config_text(fh.read(), source=args.config)
    config, limits = build_simulation(values)
    op = solve_operating_point(config)
    ss = gains = None  # the small-signal model holds only in the active region
    if not op.saturated:
        ss = small_signal_params(config.device, op)
        gains = stage_gain(op, ss, config.r_l)
    violations = breakdown_check(op, limits)
    op_rows = _rows(op, v_be="V", i_b="A", i_c="A", i_e="A", v_ce="V")
    ss_rows = _rows(ss, r_in="ohm", g_out="S", slope_s="S")
    gain_rows = _rows(gains, beta_current="", voltage_gain="", power_out="W")
    figures = op_rows + ss_rows + gain_rows
    warnings = []
    if op.saturated:
        warnings.append(f"saturation: v_ce = {_fmt(op.v_ce)} V <= 0, device out of active region")
    if violations:
        warnings.append("breakdown: " + ", ".join(violations))
    resolved = {**vars(config), **vars(config.device), **vars(limits)}
    lines = [
        "config:",
        *(f"{key} = {resolved[key]!r}" for key in CONFIG_KEYS),
        "",
        "operating point:", *table(op_rows, width=5), "",  # width as in the shipped format
        "small signal:", *table(ss_rows), "",
        "stage gains:", *table(gain_rows), "",
        "warnings:", *(f"  {w}" for w in warnings or ["none"]), "",
        *values_block(
            figures + [("saturated", op.saturated, ""), ("healthy", not violations, "")]
        ),
    ]
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# CSV handling

def _read_csv_rows(path: str, columns) -> tuple[list[str], list[int], list[tuple[int, list]]]:
    """Header, the index of each required column, and the non-blank data rows
    as (file line, cells): blank lines are dropped but still counted."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise InputFormatError(f"{path}: empty CSV")
    header = [cell.strip() for cell in rows[0][1]]
    missing = [c for c in columns if c not in header]
    if missing:
        raise InputFormatError(
            f"{path}: missing column(s) {', '.join(repr(c) for c in missing)}; "
            f"header has {header}"
        )
    return header, [header.index(c) for c in columns], rows[1:]


def _cell(path: str, row: list[str], rowno: int, index: int, column: str) -> str:
    if index >= len(row):
        raise InputFormatError(f"{path}:{rowno}: row has no {column!r} cell")
    return row[index].strip()


def _float_cell(path: str, row: list[str], rowno: int, index: int, column: str) -> float:
    text = _cell(path, row, rowno, index, column)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputFormatError(f"{path}:{rowno}: {column!r} is not a finite number: {text!r}")
    return value


def read_xy_columns(path: str, x_column: str, y_column: str):
    _, (ix, iy), rows = _read_csv_rows(path, (x_column, y_column))
    xs, ys = [], []
    for rowno, row in rows:
        xs.append(_float_cell(path, row, rowno, ix, x_column))
        ys.append(_float_cell(path, row, rowno, iy, y_column))
    return xs, ys


def read_econ_series(path: str) -> EconSeries:
    header, (i_label, i_inv, i_exp, i_inc), rows = _read_csv_rows(path, ECON_COLUMNS)
    qty_index = header.index("quantity_out") if "quantity_out" in header else None
    labels, investments, expenses, incomes, quantities = [], [], [], [], []
    for rowno, row in rows:
        quantity = None
        if qty_index is not None and qty_index < len(row) and row[qty_index].strip():
            quantity = _float_cell(path, row, rowno, qty_index, "quantity_out")
        quantities.append(quantity)
        labels.append(_cell(path, row, rowno, i_label, "period"))
        investments.append(_float_cell(path, row, rowno, i_inv, "investments"))
        expenses.append(_float_cell(path, row, rowno, i_exp, "expenses"))
        incomes.append(_float_cell(path, row, rowno, i_inc, "incomes"))
    # every cell is parsed before any value is judged
    return EconSeries(labels, investments, expenses, incomes, quantities)


# ---------------------------------------------------------------------------
# fit

def points_file_path(csv_path: str) -> str:
    return csv_path + ".points.csv"


def _fit_rows(fit) -> list:
    return _rows(fit, a0="", beta="", r_squared="", n="")


def _cmd_fit(args) -> int:
    xs, ys = read_xy_columns(args.csv, args.x, args.y)
    fit = fit_linear(xs, ys)
    out_path = points_file_path(args.csv)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y_observed,y_fitted\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x!r},{y!r},{fit.a0 + fit.beta * x!r}\n")
    rows = _fit_rows(fit)
    lines = [
        f"fit: {args.y} = a0 + beta * {args.x}",
        *table(rows[-1:] + rows[:-1]),
        f"  points file: {out_path}",
        "",
        *values_block(rows),
    ]
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

def render_coefficients(report: CoefficientReport, n_periods: int) -> str:
    rows = _rows(report, beta_v="", harrod_b="", domar_sigma="", mean_beta="", beta_p="",
                 keynes_m="")
    fit_rows = [] if report.fit is None else _fit_rows(report.fit)
    lines = [
        f"periods: {n_periods}", "",
        "coefficients:", *table(rows), "",
        "regression (incomes vs investments+expenses):",
        *(table(fit_rows) if fit_rows else ["  n/a (needs >= 2 periods with varying inputs)"]),
        "",
        *values_block(rows + [(f"fit_{key}", value, unit) for key, value, unit in fit_rows]),
    ]
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    series = read_econ_series(args.csv)
    report = analyze_series(series)
    print(render_coefficients(report, len(series)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cascade

def _cmd_cascade(args) -> int:
    print(repr(cascade_gain(args.gains)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="econamp",
        description="Amplifier-stage simulation and economic gain analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve a CE amplifier stage from a config file")
    p.add_argument("config", help="key = value config file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="least-squares line through two CSV columns")
    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--x", required=True, help="predictor column name")
    p.add_argument("--y", required=True, help="response column name")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("analyze", help="economic coefficient report for a period series")
    p.add_argument("csv", help="CSV with period,investments,expenses,incomes[,quantity_out]")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cascade", help="product of stage gains")
    p.add_argument("gains", nargs="+", type=float, help="stage gains")
    p.set_defaults(func=_cmd_cascade)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
