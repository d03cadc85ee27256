"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup bias_sweep V_CC R_B1 R_B2 R_L I_ES I_CS ALPHA_N T
    python3 perfbench/child.py setup series_analysis SERIES_CSV
    python3 perfbench/child.py setup cli_invocations WORKDIR SUBCOMMAND [ARG ...]
    python3 perfbench/child.py cli SUBCOMMAND [ARG ...]

`setup` times, inside a fresh process, the import of econamp and
econamp.cli plus the workload's first operation, and prints the seconds.
`cli` runs econamp.cli.main like `python -m econamp` does, then writes
"start import_end main_end" (perf_counter_ns) as the last line of stderr.
Both need PYTHONPATH to reach the package sources.
"""

import contextlib
import io
import sys
import time

clock = time.perf_counter_ns


def setup(workload: str, args: list) -> None:
    design = tuple(float(a) for a in args) if workload == "bias_sweep" else None
    start = clock()
    import econamp  # noqa: F401
    import econamp.cli

    if workload == "bias_sweep":
        from stage import evaluate

        evaluate(design)
    elif workload == "series_analysis":
        with contextlib.redirect_stdout(io.StringIO()):
            econamp.cli.main(["analyze", args[0]])
    else:
        import subprocess  # only here: `cli` children must not pay for it

        subprocess.run(
            [sys.executable, "-m", "econamp", *args[1:]],
            cwd=args[0], capture_output=True, check=True,
        )
    print((clock() - start) / 1e9)


def cli(argv: list) -> int:
    start = clock()
    import econamp.cli

    imported = clock()
    code = econamp.cli.main(argv)
    sys.stdout.flush()
    done = clock()
    print(f"{start} {imported} {done}", file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(cli(sys.argv[2:]))
