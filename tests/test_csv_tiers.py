"""The bulk CSV tier against the per-cell scan.

`cli._read_columns` converts a plain file a run of lines at a time and
sends any other file to `cli._scan_columns`, the row-major scan that gives
every CSV error. On seeded generated files, most of them plain but for one
or two defects, the two-tier reader must give the same columns, or the same
error text, as the scan run alone, and every file left clean must take the
bulk tier.
"""

import csv
import random
import tracemalloc

import pytest

from econamp import cli
from econamp.cli import ECON_CELLS, FLOAT, InputFormatError

FILES = 400
FIELD_LIMIT = 100  # a lowered csv.field_size_limit, so an oversized line stays small
XY_NAMES = ("x", "y", "1", "", "note")  # "1" reads as a number, "" names a column too
TEXTS = ("P1", " a b ", "q\x0bq", "\x1cr", "s\x85", "t ", "\ufeffu", "1", "")
BAD_NUMBERS = ("nan", "inf", "-Infinity", "1e999", "abc", "", "  ", "1 2", "0x1")


def number(rng) -> str:
    value = rng.uniform(-1e3, 1e3)
    return rng.choice(
        (repr(value), str(int(value)), f" {value:.2f} ", f"\t{value:.1e}", "1_000", "-0")
    )


def generate(rng, most_rows=5):
    """(header, rows, spec) of a clean file: every needed cell converts."""
    if rng.random() < 0.5:
        header = ["period", "investments", "expenses", "incomes"]
        header += rng.sample(["quantity_out", "note", "incomes", "period"], rng.randint(0, 3))
        rng.shuffle(header)
        spec = ECON_CELLS
    else:
        header = [rng.choice(XY_NAMES) for _ in range(rng.randint(1, 4))]
        if not any(header):
            header[0] = "x"
        # mostly columns the header has, sometimes a missing one
        spec = tuple((rng.choice(header if rng.random() < 0.9 else XY_NAMES), FLOAT)
                     for _ in range(2))
    numeric = {name for name, kind in spec if kind != cli.LABEL}
    rows = [
        [number(rng) if name in numeric or rng.random() < 0.3 else rng.choice(TEXTS)
         for name in header]
        for _ in range(rng.randint(0, most_rows))
    ]
    return header, rows, spec


def defect_in_cells(rng, header, rows):
    """Change one cell, or a row's length, in place."""
    if not rows:
        return
    row = rng.choice(rows)
    index = rng.randrange(len(row))
    kind = rng.randrange(6)
    if kind == 0:
        row[index] = rng.choice(BAD_NUMBERS)
    elif kind == 1:  # a quoted cell, maybe holding a delimiter or a line break
        row[index] = '"' + rng.choice((row[index], "a,b", "c\nd", "e\r\nf", 'g""h')) + '"'
    elif kind == 2:
        row[index] += "\0"
    elif kind == 3:  # a ragged row
        if rng.random() < 0.5 and len(row) > 1:
            row.pop()
        else:
            row.append(number(rng))
    elif kind == 4:
        row[index] += "z" * FIELD_LIMIT
    elif "quantity_out" in header:  # a blank count
        row[header.index("quantity_out")] = rng.choice(("", " "))


def defect_in_lines(rng, lines):
    """Change the line structure in place."""
    kind = rng.randrange(4)
    at = rng.randrange(len(lines))
    if kind == 0:  # a blank line, empty or of blank cells
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "  ", ",", " ,  ,")))
    elif kind == 1:  # a \r\n line ending
        lines[at] += "\r"
    elif kind == 2 and "," in lines[at]:  # a lone \r, which csv reads as a line break
        cut = lines[at].index(",")
        lines[at] = lines[at][:cut] + "\r" + lines[at][cut:]
    else:  # a line exactly at the field size limit
        lines[at] = lines[at].ljust(FIELD_LIMIT, " ")[:FIELD_LIMIT]


@pytest.fixture
def small_field_limit():
    old = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(old)


def outcome(read, *args) -> str:
    try:
        return repr(read(*args))
    except InputFormatError as exc:
        return f"error: {exc}"


def scan_outcome(path, spec) -> str:
    return outcome(cli._scan_columns, str(path), cli._read_text(str(path)), spec)


def test_bulk_tier_matches_the_scan(tmp_path, small_field_limit):
    rng = random.Random(7)
    path = tmp_path / "series.csv"
    bulk = 0
    for _ in range(FILES):
        header, rows, spec = generate(rng)
        defects = rng.choice((0, 0, 1, 1, 2))
        for _ in range(defects):
            if rng.random() < 0.6:
                defect_in_cells(rng, header, rows)
        lines = [",".join(cells) for cells in [header, *rows]]
        for _ in range(defects):
            if rng.random() < 0.4:
                defect_in_lines(rng, lines)
        text = "\n".join(lines) + rng.choice(("\n", "\n", ""))
        path.write_text(text, encoding=rng.choice(("utf-8", "utf-8-sig")), newline="")
        assert outcome(cli._read_columns, str(path), spec) == scan_outcome(path, spec), (text, spec)
        clean = not defects and all(name in header for name, kind in spec if kind != cli.COUNT)
        if clean and max(map(len, lines)) <= FIELD_LIMIT:
            decoded = cli._read_text(str(path))
            assert cli._bulk_columns(decoded, spec) is not None, (text, spec)
            bulk += 1
    assert bulk >= FILES // 5


XY = (("x", FLOAT), ("y", FLOAT))


# Each file breaks one plain-file condition where no conversion fails, so
# that only the condition keeps it from the bulk tier; the blank first line
# matters only for a column named "" (too rare a draw for the test above).
# On Python 3.10 the csv module refuses a NUL.
@pytest.mark.parametrize(
    "text, spec",
    [
        ('x,y,z\n1,2,"a"\n3,4,b\n', XY),
        ("x,y,z\n1,2,a\0\n3,4,b\n", XY),
        (" , \n1,\n2,3\n", (("", FLOAT), ("", FLOAT))),
        ("x,y,z\n1,2,a\n3,4,b,c\n", XY),
        ("x,y,z\n1,2,a\n3,4," + "b" * FIELD_LIMIT + "\n", XY),
    ],
    ids=["quote", "nul", "blank_header", "comma_count", "line_length"],
)
def test_each_plain_condition_keeps_a_file_from_the_bulk_tier(
    tmp_path, small_field_limit, text, spec
):
    assert cli._bulk_columns("x,y,z\n1,2,a\n3,4,b\n", XY) == [[1.0, 3.0], [2.0, 4.0]]
    assert cli._bulk_columns(text, spec) is None
    path = tmp_path / "one.csv"
    path.write_text(text, newline="")
    assert outcome(cli._read_columns, str(path), spec) == scan_outcome(path, spec)


TWICE_X = (("x", FLOAT), ("x", FLOAT))


# The shape check compares every line's commas and terminator at once, on
# the text's UTF-8 bytes, and a column whose float sum is not finite is
# checked value by value. Each file gives the bulk tier's answer, and the
# two-tier reader gives the scan's columns or error text.
@pytest.mark.parametrize(
    "text, spec, bulk",
    [
        ("x,y\n1,2,3\n4\n", XY, None),  # the commas add up to the header's count
        ("x,y,z\n1,2,a\n3,4,b", XY, [[1.0, 3.0], [2.0, 4.0]]),
        ("x,y,z\n1,2,a\n3,4", XY, None),
        ("x,y,z\n1,2,a\n3,4,b\n\n", XY, None),
        ("x\n1\n\n2\n", TWICE_X, None),
        ("x\n1\n2", TWICE_X, [[1.0, 2.0], [1.0, 2.0]]),
        # U+012C, U+2C2C and U+0A0A: code points, not UTF-8 bytes, hold 0x2c and 0x0a
        ("period,investments,expenses,incomes\nĬ,1,2,3\nⰬਊ,2,3,4\n", ECON_CELLS,
         [[None, None], ["Ĭ", "Ⱜਊ"], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]),
        ("x,y\n1e308,1\n1e308,2\n", XY, [[1e308, 1e308], [1.0, 2.0]]),
        ("x,y\n1e308,1\n1e308,2\nnan,3\n", XY, None),
    ],
    ids=["offset_ragged", "no_terminator", "ragged_no_terminator", "trailing_blank",
         "one_column_blank", "one_column", "multibyte_label", "sum_overflows",
         "nan_after_overflow"],
)
def test_whole_text_and_whole_column_checks(tmp_path, text, spec, bulk):
    assert cli._bulk_columns(text, spec) == bulk
    path = tmp_path / "shape.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(cli._read_columns, str(path), spec) == scan_outcome(path, spec)
    if bulk is not None:
        assert repr(bulk) == scan_outcome(path, spec)


def test_lone_surrogate_counts_as_one_character():
    # no file decodes to one, but a caller's text may hold it
    text = "x,y,z\n1,2,\ud800\n3,4,b\n"
    assert cli._bulk_columns(text, XY) == [[1.0, 3.0], [2.0, 4.0]]
    assert cli._bulk_columns(text.replace("\n3", ",\n3"), XY) is None


# Every file reads \r\n and a lone \r as \n, so a file of any line ending
# takes the bulk tier and gives the columns of its \n copy.
@pytest.mark.parametrize(
    "data",
    [
        b"x,y,z\r\n1,2,a\r\n3,4,b\r\n",
        b"x,y,z\r1,2,a\r3,4,b\r",
        b"\xef\xbb\xbfx,y,z\r\n1,2,a\r\n3,4,b\r\n",
        b"x,y,z\r\n1,2,a\r3,4,b",
    ],
    ids=["crlf", "lone_cr", "bom_crlf", "mixed"],
)
def test_every_line_ending_takes_the_bulk_tier(tmp_path, data):
    path = tmp_path / "endings.csv"
    path.write_bytes(data)
    assert cli._bulk_columns(cli._read_text(str(path)), XY) == [[1.0, 3.0], [2.0, 4.0]]
    assert outcome(cli._read_columns, str(path), XY) == scan_outcome(path, XY)


def test_line_break_in_a_quoted_cell_reads_as_newline(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'period,investments,expenses,incomes\r\n"a\r\nb",1,2,3\r\n"c\rd",2,3,4\r\n')
    assert cli._read_columns(str(path), ECON_CELLS)[1] == ["a\nb", "c\nd"]


# Runs of a few characters put run boundaries at every line of a generated
# file, so each cell, defect and line ending falls in some run's first, last
# and only line. Each generated econ header, of 35 characters or more, is
# longer than the runs of 1, 3 and 8 characters.
@pytest.mark.parametrize("run_chars", [1, 3, 8, 40])
def test_runs_of_lines_match_the_scan(tmp_path, small_field_limit, monkeypatch, run_chars):
    monkeypatch.setattr(cli, "RUN_CHARS", run_chars)
    rng = random.Random(run_chars)
    path = tmp_path / "series.csv"
    bulk = 0
    for _ in range(FILES // 4):
        header, rows, spec = generate(rng, most_rows=40)
        defects = rng.choice((0, 0, 1, 1, 2))
        for _ in range(defects):
            if rng.random() < 0.6:
                defect_in_cells(rng, header, rows)
        lines = [",".join(cells) for cells in [header, *rows]]
        for _ in range(defects):
            if rng.random() < 0.4:
                defect_in_lines(rng, lines)
        text = "\n".join(lines) + rng.choice(("\n", "\n", ""))
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(cli._read_columns, str(path), spec) == scan_outcome(path, spec), (text, spec)
        clean = not defects and all(name in header for name, kind in spec if kind != cli.COUNT)
        if clean and max(map(len, lines)) <= FIELD_LIMIT:
            assert cli._bulk_columns(text, spec) is not None, (text, spec)
            bulk += 1
    assert bulk >= FILES // 20


def last_run_text(case: str, rows: int = 30) -> str:
    """A plain econ file whose last line holds the case's defect; its
    header, of 48 characters, is longer than each run the tests set."""
    lines = ["period,investments,expenses,incomes,quantity_out"]
    lines += [f"P{k},{k}.5,{k + 1},{2 * k + 3},{k % 7}" for k in range(rows)]
    period, investments, expenses, incomes, quantity = lines[-1].split(",")
    if case == "long_line":
        period = period.ljust(FIELD_LIMIT + 1, "z")
    elif case == "bad_cell":
        incomes = "1e999"
    elif case == "blank_quantity":
        quantity = " "
    lines[-1] = ",".join((period, investments, expenses, incomes, quantity))
    return "\n".join(lines) + ("" if case == "no_terminator" else "\n")


@pytest.mark.parametrize("run_chars", [1, 3, 8, 40])
@pytest.mark.parametrize(
    "case, bulk",
    [("clean", True), ("no_terminator", True), ("long_line", False), ("bad_cell", False),
     ("blank_quantity", False)],
)
def test_last_run_decides_the_tier(tmp_path, small_field_limit, monkeypatch, run_chars, case,
                                   bulk):
    text = last_run_text(case)
    whole = cli._bulk_columns(text, ECON_CELLS)
    monkeypatch.setattr(cli, "RUN_CHARS", run_chars)
    assert cli._bulk_columns(text, ECON_CELLS) == whole
    assert (whole is not None) == bulk
    path = tmp_path / "last.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(cli._read_columns, str(path), ECON_CELLS) == scan_outcome(path, ECON_CELLS)


def plain_series(rows: int) -> str:
    lines = ["period,investments,expenses,incomes,quantity_out"]
    lines += [f"P{k:06d},{50 + k * 0.01!r},{k % 397 + 0.25},{k * 0.37!r},{k % 1000}"
              for k in range(rows)]
    return "\n".join(lines) + "\n"


def transient_memory(text: str) -> int:
    """The bulk tier's traced peak less the memory its columns still hold."""
    tracemalloc.start()
    try:
        columns = cli._bulk_columns(text, ECON_CELLS)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns is not None
    return peak - held


# Beside the columns it returns, the bulk tier holds one run's text, bytes
# and cells, whatever the file's length (about 0.7 MiB here, at either size).
def test_bulk_tier_memory_is_one_run_beside_the_columns():
    small, large = (transient_memory(plain_series(rows)) for rows in (20_000, 80_000))
    assert small < 4 * 2**20 and large < 4 * 2**20
    assert large < small + 2**20
