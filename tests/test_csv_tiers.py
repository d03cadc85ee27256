"""The bulk CSV tier against the per-cell scan.

`cli._read_columns` converts a plain file a column at a time and sends any
other file to `cli._scan_columns`, the row-major scan that gives every CSV
error. On seeded generated files, most of them plain but for one or two
defects, the two-tier reader must give the same columns, or the same error
text, as the scan run alone, and every file left clean must take the bulk
tier.
"""

import csv
import random

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


def generate(rng):
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
        for _ in range(rng.randint(0, 5))
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
