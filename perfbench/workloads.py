"""The three benchmark workloads.

Each is a closed loop in one process: one caller, the next operation only
after the previous one returned, no threads or pools. A workload generates
its inputs in `prepare` (untimed), names the arguments of its set-up probe,
and `run`s operations until the time is up, checking every output against
an independent oracle outside the timed region.
"""

import io
import os
import random
import shutil
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import inputs
import oracles
import speed
from spans import clock, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
GOLDEN = HERE / "golden"

OK, FAILED = "ok", "failed"  # the strings stage.OK and stage.FAILED use


class Tally:
    """Outcome and latency of every attempted operation.

    Each latency is kept raw and with the speed factor of its window, the
    operations since the previous `calibrate` call: the mean of the factors
    measured just before and just after the window.
    """

    def __init__(self, reference):
        self.latency_ns = array("q")
        self.factor = array("d")
        self._reference = reference
        self._calibrated = 0
        self._last_factor = reference()
        self.outcomes = Counter()
        self.failure_kinds = Counter()
        self.wrong = []

    def record(self, ns: int, outcome: str, detail: str = "") -> None:
        self.latency_ns.append(ns)
        self.factor.append(0.0)
        self.outcomes[outcome] += 1
        if outcome == FAILED:
            self.failure_kinds[detail] += 1

    def record_wrong(self, ns: int, reason: str) -> None:
        """An operation that returned a wrong result."""
        if len(self.wrong) < 5:
            self.wrong.append(reason)
        self.record(ns, FAILED, "wrong")

    def calibrate(self) -> None:
        """Measure the host speed and assign it to the open window."""
        now = self._reference()
        value = 0.5 * (self._last_factor + now)
        for i in range(self._calibrated, len(self.factor)):
            self.factor[i] = value
        self._calibrated = len(self.factor)
        self._last_factor = now

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def normalized_ns(self) -> list:
        return [ns * f for ns, f in zip(self.latency_ns, self.factor)]


def _ms(ns_values) -> float:
    return percentile(ns_values, 0.5) / 1e6


class BiasSweep:
    """Random stage designs through build, solve, small-signal, gains, limits."""

    name = "bias_sweep"
    work_unit = "stages"
    work_per_op = 1
    tail_quantile = 0.99
    reference = staticmethod(speed.kernel_factor)
    chunk = 1024
    # Prefix of the design stream over which device calls are counted, so
    # the count repeats exactly for a seed whatever the run length.
    counted_stages = 2000

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.first = inputs.DesignStream(seed).take(1)[0]

    def probe_args(self) -> list:
        return [repr(x) for x in self.first]

    def run(self, seconds: float, tracer) -> tuple:
        import econamp.circuit
        import stage

        stage.evaluate(self.first)  # untimed warm-up
        stream = inputs.DesignStream(self.seed)
        tally = Tally(self.reference)
        solved = saturated = 0
        calls = {"n": 0, "ns": 0, "counted": 0}
        if tracer:
            active = econamp.circuit.active_region_currents

            def counted_active(*args, **kwargs):
                start = clock()
                try:
                    return active(*args, **kwargs)
                finally:
                    calls["ns"] += clock() - start
                    calls["n"] += 1

            econamp.circuit.active_region_currents = counted_active
            for attr, name in stage.LAYERS:
                tracer.wrap(stage, attr, name)
        deadline = clock() + int(seconds * 1e9)
        while clock() < deadline:
            for design in stream.take(self.chunk):
                if tracer:
                    tracer.op += 1
                start = clock()
                outcome, detail, op, ss, gains = stage.evaluate(design)
                end = clock()
                reason = None
                if op is not None:
                    solved += 1
                    saturated += op.saturated
                    reason = oracles.check_stage(design, op, ss, gains)
                if reason:
                    tally.record_wrong(end - start, reason)
                else:
                    tally.record(end - start, outcome, detail)
                if tally.attempted == self.counted_stages:
                    calls["counted"] = calls["n"]
            tally.calibrate()
        if not tracer:
            return tally, {}
        econamp.circuit.active_region_currents = active
        counted = min(tally.attempted, self.counted_stages)
        layers = _span_metrics(tracer, tally, (
            ("circuit.build_us", "circuit.build", 0.5, 1e3),
            ("circuit.solve_p50_us", "circuit.solve", 0.5, 1e3),
            ("circuit.solve_p99_us", "circuit.solve", 0.99, 1e3),
            ("circuit.small_signal_us", "circuit.small_signal", 0.5, 1e3),
            ("amplifier.gain_us", "amplifier.gain", 0.5, 1e3),
        ))
        layers["devices.active_calls_per_stage"] = (calls["counted"] or calls["n"]) / counted
        mean_factor = sum(tally.factor) / len(tally.factor)
        layers["devices.active_call_us"] = calls["ns"] * mean_factor / max(calls["n"], 1) / 1e3
        layers["circuit.saturated_share"] = saturated / max(solved, 1)
        return tally, layers


class SeriesAnalysis:
    """`analyze` then `fit` through econamp.cli.main on 1e5-row series."""

    name = "series_analysis"
    work_unit = "rows"
    work_per_op = 2 * inputs.SERIES_ROWS  # each pass reads the series twice
    tail_quantile = 0.5  # a run has too few passes for a tail
    reference = staticmethod(speed.kernel_factor)
    files = 3
    fit_args = ("--x", "investments", "--y", "incomes")

    def prepare(self, seed: int, workdir: Path) -> None:
        self.paths, self.expected = [], []
        for index in range(self.files):
            columns = inputs.make_series(seed, index)
            path = str(workdir / f"series{index}.csv")
            inputs.write_series(path, columns)
            self.paths.append(path)
            self.expected.append((
                oracles.analyze_values(columns),
                oracles.fit_values(columns[1], columns[3]),
            ))

    def probe_args(self) -> list:
        return [self.paths[0]]

    def run(self, seconds: float, tracer) -> tuple:
        import econamp.cli as cli

        self._pass(cli, 0, _no_span)  # untimed warm-up
        os.remove(self.paths[0] + ".points.csv")
        if tracer:
            for attr, name in (
                ("read_econ_series", "cli.read_econ_series"),
                ("analyze_series", "econmap.analyze_series"),
                ("render_coefficients", "cli.render_coefficients"),
                ("read_xy_columns", "cli.read_xy_columns"),
                ("fit_linear", "econmap.fit_linear"),
            ):
                tracer.wrap(cli, attr, name)
            span = tracer.span
        else:
            span = _no_span
        tally = Tally(self.reference)
        deadline = clock() + int(seconds * 1e9)
        while clock() < deadline:
            index = tally.attempted % self.files
            if tracer:
                tracer.op += 1
            start = clock()
            with span("bench.pass"):
                codes, out_analyze, out_fit = self._pass(cli, index, span)
            end = clock()
            reason = self._check(index, codes, out_analyze, out_fit)
            if reason:
                tally.record_wrong(end - start, reason)
            else:
                tally.record(end - start, OK)
            tally.calibrate()
        if not tracer:
            return tally, {}
        return tally, _span_metrics(tracer, tally, (
            ("cli.read_econ_series_ms", "cli.read_econ_series", 0.5, 1e6),
            ("econmap.analyze_series_ms", "econmap.analyze_series", 0.5, 1e6),
            ("cli.render_coefficients_ms", "cli.render_coefficients", 0.5, 1e6),
            ("cli.read_xy_columns_ms", "cli.read_xy_columns", 0.5, 1e6),
            ("econmap.fit_linear_ms", "econmap.fit_linear", 0.5, 1e6),
            ("cli.points_write_ms", "cli.main_fit", "self", 1e6),
            ("cli.main_analyze_ms", "cli.main_analyze", 0.5, 1e6),
            ("cli.main_fit_ms", "cli.main_fit", 0.5, 1e6),
        ))

    def _pass(self, cli, index: int, span) -> tuple:
        path = self.paths[index]
        out_analyze, out_fit = io.StringIO(), io.StringIO()
        with span("cli.main_analyze"), redirect_stdout(out_analyze):
            code_analyze = cli.main(["analyze", path])
        with span("cli.main_fit"), redirect_stdout(out_fit):
            code_fit = cli.main(["fit", path, *self.fit_args])
        return (code_analyze, code_fit), out_analyze.getvalue(), out_fit.getvalue()

    def _check(self, index, codes, out_analyze, out_fit):
        if codes != (0, 0):
            return f"exit codes {codes}"
        want_analyze, want_fit = self.expected[index]
        reason = oracles.check_values(out_analyze, want_analyze)
        if reason:
            return "analyze: " + reason
        reason = oracles.check_values(out_fit, want_fit)
        if reason:
            return "fit: " + reason
        points = self.paths[index] + ".points.csv"
        with open(points, "rb") as fh:
            lines = fh.read().count(b"\n")
        os.remove(points)  # the next pass on this series must write it again
        if lines != inputs.SERIES_ROWS + 1:
            return f"points file has {lines} lines"
        return None


class CliInvocations:
    """`python -m econamp` subprocesses on copies of the shipped inputs."""

    name = "cli_invocations"
    work_unit = "invocations"
    work_per_op = 1
    tail_quantile = 0.95
    reference = staticmethod(speed.startup_factor)
    commands = {
        "simulate": ("simulate", "demo_amplifier.cfg"),
        "fit": ("fit", "synthetic_series.csv", "--x", "investments", "--y", "incomes"),
        "analyze": ("analyze", "synthetic_series.csv"),
        "cascade": ("cascade", "2.5", "4", "10"),
    }

    def prepare(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        for name in ("demo_amplifier.cfg", "synthetic_series.csv"):
            shutil.copyfile(DATA / name, workdir / name)
        self.golden = {
            cmd: (GOLDEN / f"{cmd}.out").read_bytes() for cmd in self.commands
        }
        self.rng = random.Random(f"cli_invocations:{seed}")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def probe_args(self) -> list:
        return [str(self.workdir), *self.commands["simulate"]]

    def _invoke(self, argv) -> tuple:
        start = clock()
        proc = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True)
        return start, clock(), proc

    def run(self, seconds: float, tracer) -> tuple:
        python = sys.executable
        for args in self.commands.values():  # untimed warm-up
            self._invoke([python, "-m", "econamp", *args])
        tally = Tally(self.reference)
        deadline = clock() + int(seconds * 1e9)
        while clock() < deadline:
            for cmd in self.rng.sample(sorted(self.commands), len(self.commands)):
                args = self.commands[cmd]
                if tracer:
                    tracer.op += 1
                    start, end, proc = self._invoke(
                        [python, str(HERE / "child.py"), "cli", *args]
                    )
                    root = tracer.add("bench.invocation", start, end)
                    times = proc.stderr.decode().split()[-3:]
                    if proc.returncode == 0 and len(times) == 3 and all(map(str.isdigit, times)):
                        child_start, imported, done = map(int, times)
                        tracer.add("interpreter.import", child_start, imported, root)
                        tracer.add(f"cli.main_{cmd}", imported, done, root)
                else:
                    start, end, proc = self._invoke([python, "-m", "econamp", *args])
                if proc.returncode != 0:
                    tally.record(end - start, FAILED, f"exit {proc.returncode}")
                elif proc.stdout != self.golden[cmd]:
                    tally.record_wrong(end - start, f"{cmd}: stdout differs from golden")
                else:
                    tally.record(end - start, OK)
            tally.calibrate()
            if tracer:
                for flags, name in ((["-S"], "interpreter.bare"), ([], "interpreter.site")):
                    start, end, _ = self._invoke([python, *flags, "-c", "pass"])
                    tracer.add(name, start, end)
        if not tracer:
            return tally, {}
        layers = _span_metrics(tracer, tally, (
            ("interpreter.import_ms", "interpreter.import", 0.5, 1e6),
            *((f"cli.main_{cmd}_ms", f"cli.main_{cmd}", 0.5, 1e6) for cmd in self.commands),
        ))
        # The start-up reference is the interpreter itself, so these two
        # environment figures are reported raw.
        raw = tracer.durations()
        layers["interpreter.bare_ms"] = _ms(raw["interpreter.bare"][0])
        layers["interpreter.site_ms"] = _ms(raw["interpreter.site"][0]) - layers["interpreter.bare_ms"]
        return tally, layers


def _no_span(name):
    return nullcontext()


def _span_metrics(tracer, tally, specs) -> dict:
    """Metrics from (metric, span name, quantile or "self", ns per unit) specs.

    A quantile is taken over the span's speed-normalized durations; "self"
    is the median of its self time, the duration minus what its child spans
    cover.
    """
    durations = tracer.durations(tally.factor)
    out = {}
    for metric, span_name, stat, scale in specs:
        total, own = durations.get(span_name, ([], []))
        if stat == "self":
            out[metric] = percentile(own, 0.5) / scale
        else:
            out[metric] = percentile(total, stat) / scale
    return out


WORKLOADS = {w.name: w for w in (BiasSweep, SeriesAnalysis, CliInvocations)}
