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

import sys

# Each subcommand imports the code it runs when it runs: `simulate` the
# simulate module with the circuit, device and amplifier layers; `fit` csvio
# and regression; `analyze` those and econmap. None loads dataclasses.
# Importing this module loads only cascade_gain's module and errors.
from . import _forwarder
from .cascade import cascade_gain

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
# the handlers: each imports the code its subcommand runs when it runs

def _cmd_simulate(path: str) -> str:
    from .simulate import report

    return report(path)


def _cmd_fit(path: str, x_column: str, y_column: str) -> str:
    from .csvio import fit_report

    return fit_report(path, x_column, y_column)


def _cmd_analyze(path: str) -> str:
    from .csvio import analyze_report

    return analyze_report(path)


def _cmd_cascade(gains: list) -> str:
    return repr(cascade_gain(gains))


# Names of code that loads with its subcommand, resolved here on first use:
# the public parse_config, and the five that perfbench's traced run wraps as
# attributes of this module, read_econ_series, analyze_series,
# render_coefficients, read_xy_columns and fit_linear. The fit and analyze
# handlers call those five through this module, so they run a wrapper set here.
__getattr__ = _forwarder(globals(), {
    "parse_config": "simulate",
    **dict.fromkeys(("read_xy_columns", "read_econ_series", "render_coefficients",
                     "POINTS_ROWS"), "csvio"),
    "fit_linear": "regression",
    "analyze_series": "econmap",
})


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
