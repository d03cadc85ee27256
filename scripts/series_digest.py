"""One SHA-256 over every output of `analyze` and `fit` on seeded series, to compare two trees.

    python3 scripts/series_digest.py [--seed 1] [--count 3] [--rows 100000]

Each series `perfbench/inputs.make_series(seed, i)` is written as the CSV the
series_analysis workload reads, and `econamp.cli.main` runs on it in process
as each command of COMMANDS. Each command gives one record: its command line,
its exit code, its stdout and stderr, and the bytes of the points file a
`fit` writes. The script prints the SHA-256 of all records. Equal digests from
two trees mean that every figure, message and points file is bit-identical.

The script imports econamp from the `src/` of the tree it sits in, so a copy
of it placed in another checkout measures that checkout.
"""

import argparse
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

from econamp.cli import main as cli_main  # noqa: E402


@functools.cache
def perfbench_inputs():
    """perfbench's input module, loaded once from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


COMMANDS = (
    ("analyze",),
    ("fit", "--x", "investments", "--y", "incomes"),
    ("fit", "--x", "expenses", "--y", "quantity_out"),
)


def series_stream(seed: int, count: int, rows: int) -> list:
    """The columns of the seed's first `count` series, `rows` periods each."""
    make_series = perfbench_inputs().make_series
    return [make_series(seed, index, rows) for index in range(count)]


def records(name: str, columns) -> bytes:
    """Every command's record for one series, written as `name` in the working directory."""
    perfbench_inputs().write_series(name, columns)
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


def digest(series) -> str:
    """Hex SHA-256 of the records of each series, run in a temporary directory."""
    sha = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # so the stdout's points-file path is the same in every run
        try:
            for index, columns in enumerate(series):
                sha.update(records(f"series{index}.csv", columns))
        finally:
            os.chdir(cwd)
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="the make_series seed")
    parser.add_argument("--count", type=int, default=3, help="the number of series")
    parser.add_argument("--rows", type=int, default=100_000, help="the periods of each series")
    args = parser.parse_args(argv)
    print(digest(series_stream(args.seed, args.count, args.rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
