"""The `fit` and `analyze` subcommands: their CSV readers, reports and points file.

Only those two subcommands import this module. A reader names the columns it
needs in cell order, as (column, kind) pairs: a FLOAT cell must hold a finite
number, a LABEL cell is kept as stripped text, a COUNT column may be missing
from the header and reads a blank or missing cell as None, and a TEXT cell is
kept as the text the tier split, unstripped, of a column that a FLOAT or
LABEL pair before it names. The per-cell scan checks the cells row by row in
that order and is the one source of CSV errors; the bulk tier converts a
plain file a run of lines at a time and defers to the scan on anything else.
"""

import csv
import io
import math
import re

from . import cli
from .cli import InputFormatError, _read_text, _rows, table, values_block
from .errors import all_finite

FLOAT, LABEL, COUNT, TEXT = "float", "label", "count", "text"
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
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise InputFormatError(f"{path}: empty CSV")
    header = [cell.strip() for cell in rows[0][1]]
    missing = [name for name, kind in columns if kind in (FLOAT, LABEL) and name not in header]
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
            if kind == TEXT:
                values.append(row[index])
                continue
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
            elif kind == TEXT:
                values += cells[index::width]
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


# ---------------------------------------------------------------------------
# the points file
#
# A cell in fixed notation in [1, 1e7), of at most 15 significant digits and
# with no trailing fraction zero but a lone ".0", is repr of its value: two
# decimals of 15 digits or fewer never read as one double (DBL_DIG), so no
# shorter string reads back as it. This finds the newline before a cell that
# is not one; the look-behind refuses a last fraction digit 0 after a digit.
# A search keeps no regex state per cell, as a match of repeated cells does
# (about 250 bytes each).
NOT_OWN_REPR = rb"\n(?!-?[1-9][0-9]{0,6}\.[0-9]{1,8}(?<![^.]0)(?:\n|\Z))"


def _point_texts(cells, values) -> list:
    """The cells if each is repr of its value, else repr of each value."""
    # float() reads the digits of other scripts too, but no byte of their
    # UTF-8 is in the pattern
    data = ("\n" + "\n".join(cells)).encode()
    return list(map(repr, values)) if re.search(NOT_OWN_REPR, data) else cells


# ---------------------------------------------------------------------------
# the subcommands
#
# perfbench's traced run wraps read_econ_series, analyze_series,
# render_coefficients, read_xy_columns and fit_linear as attributes of cli,
# so the handlers look each one up there when they call it. econmap's types
# are annotated by name only: `fit` loads regression for its fit_linear, and
# no econmap.

POINTS_ROWS = 4096  # the points file is written this many rows at a time


def read_xy_columns(path: str, x_column: str, y_column: str):
    """The x and y values, then the x and y cells' text."""
    return _read_columns(
        path, ((x_column, FLOAT), (y_column, FLOAT), (x_column, TEXT), (y_column, TEXT))
    )


def read_econ_series(path: str) -> "EconSeries":
    from .econmap import EconSeries

    quantities, labels, investments, expenses, incomes = _read_columns(path, ECON_CELLS)
    # every cell is parsed before any value is judged
    return EconSeries(labels, investments, expenses, incomes, quantities)


def _fit_rows(fit) -> list:
    return _rows(fit, a0="", beta="", r_squared="", n="")


def fit_report(path: str, x_column: str, y_column: str) -> str:
    """The `fit` report of two columns of the CSV file at `path`, which also
    writes the points file beside it."""
    xs, ys, x_cells, y_cells = cli.read_xy_columns(path, x_column, y_column)
    fit = cli.fit_linear(xs, ys)
    out_path = path + ".points.csv"
    a0, beta = fit.a0, fit.beta
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y_observed,y_fitted\n")
        for start in range(0, len(xs), POINTS_ROWS):
            stop = start + POINTS_ROWS
            x_block = xs[start:stop]
            # each block's cells are written as read if all are their own repr
            block = zip(_point_texts(x_cells[start:stop], x_block),
                        _point_texts(y_cells[start:stop], ys[start:stop]), x_block)
            fh.write("".join([f"{x_text},{y_text},{a0 + beta * x!r}\n"
                              for x_text, y_text, x in block]))
    rows = _fit_rows(fit)
    lines = [
        f"fit: {y_column} = a0 + beta * {x_column}",
        *table(rows[-1:] + rows[:-1]),
        f"  points file: {out_path}",
        "",
        *values_block(rows),
    ]
    return "\n".join(lines)


def render_coefficients(report: "CoefficientReport", n_periods: int) -> str:
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


def analyze_report(path: str) -> str:
    """The `analyze` report of the period series in the CSV file at `path`."""
    series = cli.read_econ_series(path)
    report = cli.analyze_series(series)
    return cli.render_coefficients(report, len(series))
