"""Every bit-identity pin of the reproduction, checked by one SHA-256 per seeded draw.

    python3 scripts/digests.py

Each entry of PINS names a draw and the SHA-256 it gave when it was pinned.
The script prints `name: digest` for each draw, marks a digest that differs
from its pin MOVED, and then exits 1; it exits 0 when every pin holds. A
change that moves a figure re-pins it with one edit to PINS. Tier-1's
tests/test_digests.py checks every pin too, one test case per draw.

A stage draw takes perfbench's `inputs.DesignStream(seed)`. Each design is
built and run through `econamp.simulate.evaluate_stage` against the default
operating limits, as `simulate` takes it: solved, turned into small-signal
parameters and gains unless the point is saturated, and checked against the
limits. Each design gives one record line: every field of each value the
chain yielded, as `name=repr(value)`, then the violated limits, and, when a
step raised, the exception's type and message, which ends the design.

A series draw writes each series `inputs.make_series(seed, i, rows)` as the
CSV the series_analysis workload reads, and runs `econamp.cli.main` on it in
process as each command of COMMANDS. Each command gives one record: its
command line, its exit code, its stdout and stderr, and the bytes of the
points file a `fit` writes. A padded draw writes the same series, but every
7th row's numbers get one trailing zero (59.71 as 59.710), a form `repr`
never prints, so `fit` takes `repr` of those columns' values for the points
file.

A draw's digest is the SHA-256 of all its records, so equal digests mean that
every figure, refusal, message and points file is bit-identical. The figures
pass through libm's `exp` and `expm1`, so a platform whose libm rounds one of
them differently gives other stage digests.

The script imports econamp from the `src/` of the tree it sits in, so a copy
of it placed in another checkout measures that checkout. In a tree without
`src/` it measures the installed econamp.
"""

import functools
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from econamp.amplifier import OperatingLimits  # noqa: E402
from econamp.circuit import AmplifierConfig  # noqa: E402
from econamp.cli import main as cli_main  # noqa: E402
from econamp.devices import BjtParams  # noqa: E402
from econamp.simulate import evaluate_stage  # noqa: E402

# (kind, seed, count, rows per series): the SHA-256 the draw gave when pinned;
# the draws of 200 designs and of 2,000 rows are a quick first check
PINS = {
    ("stage", 1, 20_000, None): "216739d1935bfb376d0ed25e21cc490f1ea193434d2a3611e5ce8b16f32a2b59",
    ("stage", 2, 20_000, None): "2a8179580f6f06d60f4cf1d5a0394ca05d96ae06af5adbbdc9fb45db380a00a3",
    ("stage", 3, 20_000, None): "526ab72cc499cb1b76cc9e37e514b4961d6ed80131462decf97dafaceb358a88",
    ("stage", 1, 200, None): "5eed90fdb9fc43caca8f8164bc352f39e45a63301aa0b4e4a8be3e0c72f44c50",
    ("series", 1, 3, 100_000): "1118d2f836c4f541b4d9ba62e80e54a91975dcb4a5d55ce358caa14f64966274",
    # odd length, so the bulk CSV tier's runs of lines end at other rows than
    # on the 1e5-row series; pinned before the runs existed
    ("series", 2, 2, 70_001): "2c5ce62377f6f75a39728b7457f2a839477be407f164e9d457f6c718d572885a",
    ("series", 1, 3, 2_000): "0e67592ef539abd5a60da1e778027e6b88c76c895e2318e87e80dd39d0d2da3c",
    # pinned while fit still took repr of every x and y cell; no record holds
    # an input cell, so a padded draw gives the digest of its plain draw
    ("padded", 3, 2, 100_000): "c17b770840d8818f62732dfe594a7a5fc17d6a40768fb9f4e31bf390e304fa71",
    ("padded", 1, 3, 2_000): "0e67592ef539abd5a60da1e778027e6b88c76c895e2318e87e80dd39d0d2da3c",
}

LIMITS = OperatingLimits()
COMMANDS = (
    ("analyze",),
    ("fit", "--x", "investments", "--y", "incomes"),
    ("fit", "--x", "expenses", "--y", "quantity_out"),
)


@functools.cache
def perfbench_inputs():
    """perfbench's input module, loaded once from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def design_stream(seed: int):
    """perfbench's seeded DesignStream."""
    return perfbench_inputs().DesignStream(seed)


def series_stream(seed: int, count: int, rows: int) -> list:
    """The columns of the seed's first `count` series, `rows` periods each."""
    make_series = perfbench_inputs().make_series
    return [make_series(seed, index, rows) for index in range(count)]


def write_padded(path, columns) -> None:
    """perfbench's series CSV, with one trailing zero on every 7th row's numbers."""
    lines = [perfbench_inputs().SERIES_HEADER]
    for index, (label, *numbers) in enumerate(zip(*columns)):
        pad = "0" if index % 7 == 6 else ""
        lines.append(",".join([label, *(f"{number!r}{pad}" for number in numbers)]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def record(design: tuple) -> str:
    """One design's figures up to the step that raised, then that step's error."""
    v_cc, r_b1, r_b2, r_l, i_es, i_cs, alpha_n, temperature = design
    fields = []
    try:
        device = BjtParams(i_es=i_es, i_cs=i_cs, alpha_n=alpha_n, temperature=temperature)
        config = AmplifierConfig(v_cc=v_cc, r_b1=r_b1, r_b2=r_b2, r_l=r_l, device=device)
        for value in evaluate_stage(config, LIMITS):
            if isinstance(value, tuple):  # the last: the violated limits' names
                fields.append(f"violations={value!r}")
            elif value is not None:  # None: a saturated point's small-signal step and gains
                fields += [f"{name}={getattr(value, name)!r}" for name in value._fields]
    except Exception as exc:  # an error is a figure of the design too
        fields.append(f"{type(exc).__name__}: {exc}")
    return " ".join(fields)


def records(name: str, columns, padded: bool = False) -> bytes:
    """Every command's record for one series, written as `name` in the working directory."""
    (write_padded if padded else perfbench_inputs().write_series)(name, columns)
    out = []
    for command, *options in COMMANDS:
        argv = [command, name, *options]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
        out.append(f"$ {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}[stderr]\n"
                   f"{stderr.getvalue()}".encode())
        points = Path(name + ".points.csv")
        if points.exists():  # a fit wrote it
            out.append(b"[points]\n" + points.read_bytes())
            points.unlink()
    return b"".join(out)


def stage_digest(designs) -> str:
    """Hex SHA-256 of the designs' record lines, each ended by a newline."""
    sha = hashlib.sha256()
    for design in designs:
        sha.update((record(design) + "\n").encode())
    return sha.hexdigest()


def series_digest(series, padded: bool = False) -> str:
    """Hex SHA-256 of the records of each series, run in a temporary directory."""
    sha = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # so the stdout's points-file path is the same in every run
        try:
            for index, columns in enumerate(series):
                sha.update(records(f"series{index}.csv", columns, padded))
        finally:
            os.chdir(cwd)
    return sha.hexdigest()


def digest(kind: str, seed: int, count: int, rows) -> str:
    """The digest of one draw of PINS."""
    if kind == "stage":
        return stage_digest(design_stream(seed).take(count))
    return series_digest(series_stream(seed, count, rows), padded=kind == "padded")


def check(draw: tuple, pin: str) -> str:
    """`name: digest` for one draw, marked MOVED when the digest is not `pin`."""
    kind, seed, count, rows = draw
    name = f"{kind} seed {seed} x {count}" + (f" x {rows} rows" if rows else "")
    value = digest(*draw)
    return f"{name}: {value}" + ("" if value == pin else f" MOVED from {pin}")


def main() -> int:
    moved = False
    for draw, pin in PINS.items():
        line = check(draw, pin)
        print(line, flush=True)
        moved |= "MOVED" in line
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
