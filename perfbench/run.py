"""econamp benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload bias_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A single-workload run prints its metrics (end-to-end with --trace 0,
per-layer with --trace 1) and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. Full results, with the
environment record, go to .perfbench_out/. `--workload all` runs every
workload untraced and traced, prints the tracing overhead and rewrites
BENCHMARK.json from SPEC below. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import speed
from spans import Tracer, percentile
from workloads import DATA, GOLDEN, HERE, ROOT, SRC, WORKLOADS

OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_tmp"
SETUP_PROBES = 7

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "bias_sweep",
         "why": "random stage designs: circuit and devices do nearly all the work, econmap none; "
                "saturated designs stay in the draw"},
        {"name": "series_analysis",
         "why": "1e5-row series through cli analyze and fit: CSV parsing, aggregation and OLS do "
                "the work, circuit none; fit also writes"},
        {"name": "cli_invocations",
         "why": "python -m econamp subprocesses on the shipped inputs: interpreter start-up and "
                "import dominate, the solver is ~1% of a call"},
    ],
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.22},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.22},
        {"name": "ok_share", "unit": "share", "better": "higher", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "circuit.build_us", "unit": "us", "better": "lower"},
        {"name": "circuit.solve_p50_us", "unit": "us", "better": "lower"},
        {"name": "circuit.solve_p99_us", "unit": "us", "better": "lower"},
        {"name": "devices.active_calls_per_stage", "unit": "count", "better": "lower"},
        {"name": "devices.active_call_us", "unit": "us", "better": "lower"},
        {"name": "circuit.small_signal_us", "unit": "us", "better": "lower"},
        {"name": "amplifier.gain_us", "unit": "us", "better": "lower"},
        {"name": "circuit.saturated_share", "unit": "share", "better": "lower"},
        {"name": "cli.read_econ_series_ms", "unit": "ms", "better": "lower"},
        {"name": "econmap.analyze_series_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.render_coefficients_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.read_xy_columns_ms", "unit": "ms", "better": "lower"},
        {"name": "econmap.fit_linear_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.points_write_ms", "unit": "ms", "better": "lower"},
        {"name": "interpreter.bare_ms", "unit": "ms", "better": "lower"},
        {"name": "interpreter.site_ms", "unit": "ms", "better": "lower"},
        {"name": "interpreter.import_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.main_simulate_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.main_fit_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.main_analyze_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.main_cascade_ms", "unit": "ms", "better": "lower"},
        {"name": "bench.traced_p50_ms", "unit": "ms", "better": "lower"},
        {"name": "bench.tail_ms", "unit": "ms", "better": "lower"},
    ],
}


def environment(seed: int) -> dict:
    """What the start-up split and the timings are only meaningful next to."""
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True,
    )
    loaded = {name.split(".")[0] for name in probe.stdout.split()}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": " ".join((platform.system(), platform.release(), platform.machine())),
        "seed": seed,
        # non-stdlib modules that site imports before any user code runs
        "site_hooks": sorted(loaded - set(sys.stdlib_module_names) - {"__main__"}),
    }


def setup_seconds(workload) -> tuple:
    """(raw, speed-normalized) set-up times of fresh processes.

    Each probe imports econamp and econamp.cli, then runs the workload's
    first operation. Being a fresh interpreter, it is scaled by the
    start-up reference measured right after it.
    """
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload.name, *workload.probe_args()]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, normalized = [], []
    for attempt in range(SETUP_PROBES + 1):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        if attempt:  # the first probe only warms caches
            raw.append(float(proc.stdout.split()[-1]))
            normalized.append(raw[-1] * speed.startup_factor())
    return raw, normalized


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload.prepare(seed, workdir)
        setup_raw, setup = setup_seconds(workload)
        sys.path.insert(0, str(SRC))
        tracer = Tracer() if traced else None
        tally, layers = workload.run(seconds, tracer)
    finally:
        shutil.rmtree(workdir)
    attempted = tally.attempted
    failed = tally.outcomes["failed"]
    not_ok = failed + tally.outcomes["known_defect"]
    q_tail = workload.tail_quantile

    def timings(samples, setup_samples):
        return {
            "throughput_per_s": attempted * workload.work_per_op / (sum(samples) / 1e9),
            "p50_ms": percentile(samples, 0.5) / 1e6,
            "tail_ms": percentile(samples, q_tail) / 1e6,
            "ok_share": 1.0 - not_ok / attempted,
            "setup_s": statistics.median(setup_samples),
        }

    end_to_end = timings(tally.normalized_ns(), setup)
    if traced:
        layers["bench.traced_p50_ms"] = end_to_end["p50_ms"]
        layers["bench.tail_ms"] = end_to_end["tail_ms"]
        spec, values = SPEC["per_layer"], layers
    else:
        spec, values = SPEC["end_to_end"], end_to_end
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}
    result = {
        "workload": name,
        "trace": int(traced),
        "seconds": seconds,
        "environment": environment(seed),
        "work_unit": workload.work_unit,
        "samples": attempted,
        "tail_quantile": q_tail,
        "outcomes": dict(tally.outcomes),
        "failed_share": failed / attempted,
        "known_defect_share": tally.outcomes["known_defect"] / attempted,
        "failure_kinds": dict(tally.failure_kinds),
        "wrong_examples": tally.wrong,
        "speed_factor_median": statistics.median(tally.factor),
        "setup_samples_s": setup,
        "end_to_end": end_to_end,
        "raw_end_to_end": timings(tally.latency_ns, setup_raw),
        "correct": tally.failure_kinds["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if traced:
        tracer.write_csv(OUT_DIR / f"{name}-spans.csv")
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  trace {result['trace']}  "
          f"seconds {result['seconds']:g}  samples {result['samples']} operations "
          f"(work unit: {result['work_unit']})")
    print("environment", json.dumps(result["environment"]))
    print(f"outcomes {json.dumps(result['outcomes'])}  failed_share {result['failed_share']:.6f}  "
          f"known_defect_share {result['known_defect_share']:.6f}  "
          f"failure kinds {json.dumps(result['failure_kinds'])}")
    for reason in result["wrong_examples"]:
        print("WRONG", reason)
    print(f"timings, speed-normalized and raw (tail_ms is p{round(result['tail_quantile'] * 100)}):")
    for name, value in result["end_to_end"].items():
        print(f"  {name:32s} {value:.6g}  raw {result['raw_end_to_end'][name]:.6g}")
    print("metrics:")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; prints the tracing overhead."""
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
    status = 0
    rows = []
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results.append(json.loads(proc.stdout.splitlines()[-1]))
            if not results[-1]["correct"]:
                status = 1
        untraced = results[0]["metrics"]["p50_ms"]["value"]
        traced = results[1]["metrics"]["bench.traced_p50_ms"]["value"]
        rows.append((name, untraced, traced))
    print("tracing overhead on p50_ms (traced - untraced):")
    for name, untraced, traced in rows:
        print(f"  {name:16s} {untraced:.6g} -> {traced:.6g} ms "
              f"({(traced - untraced) / untraced:+.1%})")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    needed = (SRC / "econamp" / "cli.py", DATA / "demo_amplifier.cfg",
              DATA / "synthetic_series.csv", GOLDEN / "simulate.out")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an econamp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print_result(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
