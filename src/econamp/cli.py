"""Command line front end.

Subcommands:
  simulate <config>             solve one CE stage and report bias, small-signal
                                parameters, gains and limit warnings
  fit <csv> --x COL --y COL     least-squares line through two CSV columns,
                                plus a <input>.points.csv file for plotting
  analyze <csv>                 economic coefficient report for a period series
  cascade G1 [G2 ...]           product of stage gains

Exit codes: 0 success, 2 usage (bad invocation, unreadable file),
3 parse (malformed or undecodable config or CSV), 4 domain: a ValueError
naming what it refuses, SolverError too. Other exceptions are bugs.
"""

import io
import math
import sys

# Each subcommand imports the layers it uses, so that `fit`, `analyze` and
# `cascade` load no circuit, no amplifier and no dataclasses. econmap stays
# a module import: its functions are looked up as attributes of this module,
# where a tracer can wrap them.
from .econmap import CoefficientReport, EconSeries, analyze_series, cascade_gain, fit_linear
from .errors import all_finite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4


class InputFormatError(Exception):
    """Malformed config or CSV content (maps to exit code 3)."""


class UsageError(Exception):
    """A refused command line (maps to exit code 2): argparse's usage and error lines."""

    def __init__(self, usage: str, prog: str, message: str):
        super().__init__(f"{usage}\n{prog}: error: {message}")


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

def _cmd_simulate(path: str) -> str:
    from .amplifier import breakdown_check, stage_gain
    from .circuit import small_signal_params, solve_operating_point

    config, limits = parse_config(_read_text(path), source=path)
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
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV handling
#
# A reader names the columns it needs in cell order, as (column, kind) pairs:
# a FLOAT cell must hold a finite number, a LABEL cell is kept as stripped
# text, and a COUNT column may be missing from the header and reads a blank
# or missing cell as None. The per-cell scan checks the cells row by row in
# that order and is the one source of CSV errors; the bulk tier converts a
# plain file a run of lines at a time and defers to the scan on anything else.

FLOAT, LABEL, COUNT = "float", "label", "count"
NOT_COMMA_OR_NEWLINE = bytes(b for b in range(256) if b not in b",\n")
RUN_CHARS = 1 << 16  # the bulk tier reads about 64 KiB of text at a time
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
    """The columns of a plain file, converted a run of lines at a time, or None.

    A file is plain when it holds no quote or NUL, its header line is not
    blank, every line has the header's comma count and no line is longer
    than the csv field size limit. The excel dialect then splits each line
    exactly at its commas, so a column is one stride of a run's cells. A run
    is the shortest stretch of whole data lines that holds RUN_CHARS
    characters or ends the text, so beside the columns only one run's text
    and cells are held at a time. A blank data line breaks the comma count
    or fails a FLOAT conversion, as does every other cell the scan would
    reject; any of these gives None, and so does a blank COUNT cell, which
    the scan reads as a missing count.
    """
    import csv

    if '"' in text or "\0" in text:
        return None
    limit = csv.field_size_limit()
    end = text.find("\n")
    if end < 0:
        end = len(text)
    header = [cell.strip() for cell in text[:end].split(",")]
    width = len(header)
    if not any(header) or end > limit:
        return None
    if any(kind != COUNT and column not in header for column, kind in columns):
        return None
    indices = [header.index(column) if column in header else None for column, _ in columns]
    out = [[] for _ in columns]
    line_shape = b"," * (width - 1) + b"\n"
    start = end + 1
    while start < len(text):
        stop = text.find("\n", start + RUN_CHARS - 1) + 1 or len(text)
        run = text[start:stop]
        start = stop
        # Every line's commas and terminator, in one pass over the run: no UTF-8
        # sequence of a character other than "," and "\n" holds byte 0x2c or 0x0a.
        shape = run.encode("utf-8", "surrogatepass").translate(None, NOT_COMMA_OR_NEWLINE)
        if not run.endswith("\n"):
            shape += b"\n"
        count = len(shape) // len(line_shape)
        if shape != line_shape * count:
            return None
        if len(run) > limit and max(map(len, run.split("\n"))) > limit:
            return None
        # the run's cells, each line's terminator read as a comma
        cells = run.removesuffix("\n").replace("\n", ",").split(",")
        for (_, kind), index, values in zip(columns, indices, out):
            if index is None:  # a COUNT column the file does not have
                values += [None] * count
            elif kind == LABEL:
                values += map(str.strip, cells[index::width])
            else:
                try:
                    converted = list(map(float, cells[index::width]))
                except ValueError:
                    return None
                if not all_finite(converted):
                    return None
                values += converted
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

POINTS_ROWS = 4096  # the points file is written this many rows at a time


def _fit_rows(fit) -> list:
    return _rows(fit, a0="", beta="", r_squared="", n="")


def _cmd_fit(path: str, x_column: str, y_column: str) -> str:
    xs, ys = read_xy_columns(path, x_column, y_column)
    fit = fit_linear(xs, ys)
    out_path = path + ".points.csv"
    a0, beta = fit.a0, fit.beta
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y_observed,y_fitted\n")
        for start in range(0, len(xs), POINTS_ROWS):
            block = zip(xs[start:start + POINTS_ROWS], ys[start:start + POINTS_ROWS])
            fh.write("".join([f"{x!r},{y!r},{a0 + beta * x!r}\n" for x, y in block]))
    rows = _fit_rows(fit)
    lines = [
        f"fit: {y_column} = a0 + beta * {x_column}",
        *table(rows[-1:] + rows[:-1]),
        f"  points file: {out_path}",
        "",
        *values_block(rows),
    ]
    return "\n".join(lines)


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


def _cmd_analyze(path: str) -> str:
    series = read_econ_series(path)
    report = analyze_series(series)
    return render_coefficients(report, len(series))


# ---------------------------------------------------------------------------
# cascade

def _cmd_cascade(gains: list) -> str:
    return repr(cascade_gain(gains))


# ---------------------------------------------------------------------------
# entry point

# The command line reads as argparse (Python 3.11) read it from a parser
# with these subcommands, and the help screens and usage errors are its text
# at 80 columns, at any terminal width. Unlike argparse, a token float()
# reads (-1e3, -inf) is never an option, and neither is an abbreviation of
# --help (--he) or -h with something attached (-hx, -h=1).

PROG = "econamp"
# subcommand: handler, usage tail, summary, (argument, help) lines, and the
# type of the positional argument, which comes first. It takes one token or,
# where the usage tail repeats it, each token of its first run. Each
# "--name VALUE" line is a required option that takes one value.
COMMANDS = {
    "simulate": (_cmd_simulate, "config", "solve a CE amplifier stage from a config file",
                 [("config", "key = value config file")], str),
    "fit": (_cmd_fit, "--x X --y Y csv", "least-squares line through two CSV columns",
            [("csv", "CSV file with a header row"), ("--x X", "predictor column name"),
             ("--y Y", "response column name")], str),
    "analyze": (_cmd_analyze, "csv", "economic coefficient report for a period series",
                [("csv", "CSV with period,investments,expenses,incomes[,quantity_out]")], str),
    "cascade": (_cmd_cascade, "gains [gains ...]", "product of stage gains",
                [("gains", "stage gains")], float),
}


def _help(usage: str, lines, description=()) -> str:
    """argparse's help screen; `lines` lists the positional arguments first."""
    n = sum(name[0] != "-" for name, _ in lines)
    pairs = [*lines[:n], ("-h, --help", "show this help message and exit"), *lines[n:]]
    width = min(22, 2 + max(len(name) for name, _ in pairs))  # the help column, as argparse
    rows = [f"  {name:<{width}}{text}" for name, text in pairs]
    return "\n".join(
        [usage, "", *description, "positional arguments:", *rows[:n], "", "options:", *rows[n:]]
    )


def _is_option(token: str, options) -> bool:
    if token in ("-h", "--help") or token.partition("=")[0] in options:
        return True
    if token[:1] != "-" or token in ("-", "--") or " " in token:
        return False
    try:
        float(token)
    except ValueError:
        return True
    return False


def _parse(argv: list):
    """(handler, its arguments) from the command line; a help request gives
    _help and its screen's parts. A refused command line raises UsageError."""
    choices = "{" + ",".join(COMMANDS) + "}"
    usage = f"usage: {PROG} [-h] {choices} ..."
    for index, command in enumerate(argv):
        if command in ("-h", "--help"):
            summaries = [("  " + name, spec[2]) for name, spec in COMMANDS.items()]
            return _help, [usage, [(choices, ""), *summaries],
                           ["Amplifier-stage simulation and economic gain analysis.", ""]]
        if not _is_option(command, ()) and argv[index:] != ["--"]:
            break
    else:
        raise UsageError(usage, PROG, "the following arguments are required: command")
    if command not in COMMANDS:
        raise UsageError(usage, PROG, f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, tail, _, lines, convert = COMMANDS[command]
    prog, many = f"{PROG} {command}", tail.endswith(" ...]")
    command_usage = f"usage: {prog} [-h] {tail}"
    names = [line.split()[0] for line, _ in lines]  # "csv", "--x", "--y"
    positional, *options = names
    extras = argv[:index]  # unknown options and left-over arguments
    given, closed = {}, False  # closed: the positional argument takes no more tokens
    ended = took = False  # ended: "--" was read; took: the last token went to the positional
    tokens = iter(argv[index + 1:])
    for token in tokens:
        follows, took = took, False
        if token == "--" and not ended:
            ended = True  # every later token is an argument
            if closed and not follows:  # as in argparse, one the positional cannot take
                extras.append(token)
        elif ended or not _is_option(token, options):
            if closed:
                extras.append(token)
                continue
            try:
                value = convert(token)
            except ValueError:
                raise UsageError(command_usage, prog, f"argument {positional}: invalid "
                                 f"{convert.__name__} value: {token!r}") from None
            given[positional] = [*given.get(positional, ()), value] if many else value
            closed, took = not many, True
        elif token in ("-h", "--help"):
            return _help, [command_usage, lines]
        else:
            closed = positional in given  # an option ends the positional's run of tokens
            name, equals, value = token.partition("=")
            if name not in options:
                extras.append(token)
                continue
            if not equals:
                value = next(tokens, "--")  # the end of the line is no value either
                if value == "--" or _is_option(value, options):
                    raise UsageError(command_usage, prog,
                                     f"argument {name}: expected one argument")
            given[name] = value
    missing = [name for name in names if name not in given]
    if missing:
        raise UsageError(command_usage, prog,
                         f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(usage, PROG, f"unrecognized arguments: {' '.join(extras)}")
    return handler, [given[name] for name in names]


def main(argv=None) -> int:
    try:
        handler, arguments = _parse(sys.argv[1:] if argv is None else argv)
        print(handler(*arguments))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
