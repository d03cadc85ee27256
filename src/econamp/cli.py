"""Command line front end.

Subcommands:
  simulate <config>             solve one CE stage and report bias, small-signal
                                parameters, gains and limit warnings
  fit <csv> --x COL --y COL     least-squares line through two CSV columns,
                                plus a <input>.points.csv file for plotting
  analyze <csv>                 economic coefficient report for a period series
  cascade G1 [G2 ...]           product of stage gains

Exit codes: 0 success, 2 usage (bad invocation, unreadable file),
3 parse (malformed or undecodable config or CSV), 4 solver or domain error.
"""

import argparse
import io
import math
import sys
from itertools import repeat

# Each subcommand imports the layers it uses, so that `fit`, `analyze` and
# `cascade` load no circuit, no amplifier and no dataclasses. econmap stays
# a module import: its functions are looked up as attributes of this module,
# where a tracer can wrap them.
from .econmap import CoefficientReport, EconSeries, analyze_series, cascade_gain, fit_linear
from .errors import SolverError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4


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
# input files

def _read_text(path: str) -> str:
    """The file's UTF-8 text without a leading BOM, with every \\r\\n and
    lone \\r read as \\n; bytes that do not decode are a parse error naming
    the file and the byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path}: byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8 ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# ---------------------------------------------------------------------------
# config file handling

def parse_config(text: str, source: str = "<config>") -> "tuple[AmplifierConfig, OperatingLimits]":
    """The stage and its breakdown limits from `key = value` lines with # comments.

    The keys are the fields of AmplifierConfig, BjtParams and OperatingLimits
    but `device`. Those without a dataclass default are required, except i_cs,
    which defaults to i_es. Each error is an InputFormatError naming `source`.
    """
    from dataclasses import MISSING, fields

    from .amplifier import OperatingLimits
    from .circuit import AmplifierConfig
    from .devices import BjtParams

    config_fields = [
        (cls, f) for cls in (AmplifierConfig, BjtParams, OperatingLimits) for f in fields(cls)
        if f.name != "device"
    ]
    owner = {f.name: cls for cls, f in config_fields}
    given = {cls: {} for cls, _ in config_fields}  # each type's keyword arguments
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in owner:
            raise InputFormatError(f"{source}:{lineno}: unknown key {key!r}")
        values = given[owner[key]]
        if key in values:
            raise InputFormatError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(rhs.strip())
        except ValueError:
            raise InputFormatError(
                f"{source}:{lineno}: value for {key!r} is not a number: {rhs.strip()!r}"
            ) from None
    missing = [
        f.name for cls, f in config_fields
        if f.default is MISSING and f.name != "i_cs" and f.name not in given[cls]
    ]
    if missing:
        raise InputFormatError(f"{source}: missing required keys: {', '.join(missing)}")
    device = BjtParams(**{"i_cs": given[BjtParams]["i_es"], **given[BjtParams]})
    config = AmplifierConfig(device=device, **given[AmplifierConfig])
    return config, OperatingLimits(**given[OperatingLimits])


# ---------------------------------------------------------------------------
# simulate

def _cmd_simulate(args) -> int:
    from .amplifier import breakdown_check, stage_gain
    from .circuit import small_signal_params, solve_operating_point

    config, limits = parse_config(_read_text(args.config), source=args.config)
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
    # the three types' fields but `device`: the config keys, in order
    resolved = {**vars(config), **vars(config.device), **vars(limits)}
    lines = [
        "config:",
        *(f"{key} = {value!r}" for key, value in resolved.items() if key != "device"),
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
#
# A reader names the columns it needs in cell order, as (column, kind) pairs:
# a FLOAT cell must hold a finite number, a LABEL cell is kept as stripped
# text, and a COUNT column may be missing from the header and reads a blank
# or missing cell as None. The per-cell scan checks the cells row by row in
# that order and is the one source of CSV errors; the bulk tier converts a
# plain file column by column and defers to the scan on anything else.

FLOAT, LABEL, COUNT = "float", "label", "count"
ECON_CELLS = (
    ("quantity_out", COUNT), ("period", LABEL),
    ("investments", FLOAT), ("expenses", FLOAT), ("incomes", FLOAT),
)


def _scan_columns(path: str, text: str, columns) -> list[list]:
    """The columns by a row-major scan of every needed cell, in the csv
    module's excel dialect. Blank rows are dropped but still counted, so each
    error names the file line of the first bad cell."""
    import csv

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise InputFormatError(f"{path}: empty CSV")
    header = [cell.strip() for cell in rows[0][1]]
    missing = [name for name, kind in columns if kind != COUNT and name not in header]
    if missing:
        raise InputFormatError(
            f"{path}: missing column(s) {', '.join(repr(c) for c in missing)}; "
            f"header has {header}"
        )
    indices = [header.index(name) if name in header else None for name, _ in columns]
    out = [[] for _ in columns]
    for rowno, row in rows[1:]:
        for (column, kind), index, values in zip(columns, indices, out):
            if kind == COUNT and (index is None or index >= len(row) or not row[index].strip()):
                values.append(None)
                continue
            if index >= len(row):
                raise InputFormatError(f"{path}:{rowno}: row has no {column!r} cell")
            cell = row[index].strip()
            if kind == LABEL:
                values.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise InputFormatError(
                    f"{path}:{rowno}: {column!r} is not a finite number: {cell!r}"
                )
            values.append(value)
    return out


def _bulk_columns(text: str, columns) -> list[list] | None:
    """The columns of a plain file, converted a column at a time, or None.

    A file is plain when it holds no quote or NUL, its header line is not
    blank, every line has the header's comma count and no line is longer
    than the csv field size limit. The excel dialect then splits each line
    exactly at its commas, so a column is one stride of the flat cell list.
    A blank data line breaks the comma count or fails a FLOAT conversion, as
    does every other cell the scan would reject; any of these gives None,
    and so does a blank COUNT cell, which the scan reads as a missing count.
    """
    import csv

    if '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":  # the last line's terminator
        lines.pop()
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [cell.strip() for cell in lines[0].split(",")]
    width = len(header)
    if not any(header) or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    if any(kind != COUNT and column not in header for column, kind in columns):
        return None
    cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    out = []
    for column, kind in columns:
        if column not in header:  # a COUNT column the file does not have
            out.append([None] * (len(lines) - 1))
            continue
        raw = cells[header.index(column)::width]
        if kind == LABEL:
            out.append(list(map(str.strip, raw)))
            continue
        try:
            values = list(map(float, raw))
        except ValueError:
            return None
        if not all(map(math.isfinite, values)):
            return None
        out.append(values)
    return out


def _read_columns(path: str, columns) -> list[list]:
    """The named columns of a CSV file, as lists in the order of `columns`."""
    text = _read_text(path)
    out = _bulk_columns(text, columns)
    return _scan_columns(path, text, columns) if out is None else out


def read_xy_columns(path: str, x_column: str, y_column: str):
    xs, ys = _read_columns(path, ((x_column, FLOAT), (y_column, FLOAT)))
    return xs, ys


def read_econ_series(path: str) -> EconSeries:
    quantities, labels, investments, expenses, incomes = _read_columns(path, ECON_CELLS)
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
    a0, beta = fit.a0, fit.beta
    points = "".join([f"{x!r},{y!r},{a0 + beta * x!r}\n" for x, y in zip(xs, ys)])
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y_observed,y_fitted\n" + points)
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
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
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
