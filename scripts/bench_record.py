"""Alternating parent/change benchmark runs, summarised into one JSON record.

    python3 scripts/bench_record.py --parent REV --out BENCH_<n>.json

The parent commit's files are unpacked with `git archive` into a temporary
directory, so the repository itself gains no worktree to prune. For every
workload of BENCHMARK.json, each of the 10 pairs runs
`perfbench/run.py --trace 0` once on the parent tree and once on this
checkout, for perfbench's own run length, with the pair's seed (1 to 10),
the side that goes first alternating from one pair to the next. After each
run its `.perfbench_out/` result is copied aside into `.perfbench_out/pairs/`,
since the next run overwrites it.

For each workload and end-to-end metric of BENCHMARK.json, the record holds
the parent and change medians and quartiles (speed-normalized, as perfbench
reports them), the medians of the raw timings, the change's relative move
(`change_ratio`, the change median over the parent median minus 1) and the
number of pairs the change won, ties counting for neither side. It also
holds the seeds, the run length, the host and the Python version.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_out" / "pairs"
SEEDS = range(1, 11)  # one pair per seed


def unpack(rev: str, dest: Path) -> str:
    """The commit id of `rev`, whose files are unpacked into `dest`."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def run(tree: Path, workload: str, seed: int, keep: Path) -> dict:
    """One untraced perfbench run in `tree`; its result is also copied to `keep`."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    result = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    shutil.copyfile(result, keep)
    return json.loads(result.read_text())


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summary(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' spread, raw medians, the relative move of the
    median and the pairs the change won."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [run[side]["metrics"][name]["value"] for run in pairs]
                  for side in ("parent", "change")}
        raw = {side: statistics.median(run[side]["raw_end_to_end"][name] for run in pairs)
               for side in ("parent", "change")}
        sides = {side: spread(values[side]) for side in ("parent", "change")}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "raw_median": raw,
            "change_ratio": sides["change"]["median"] / sides["parent"]["median"] - 1,
            "change_won": sum(sign * (change - parent) > 0
                              for parent, change in zip(values["parent"], values["change"])),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit the change is measured against")
    parser.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    results = {name: [] for name in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        parent = unpack(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in workloads:
                pair = {}
                for side in order:
                    keep = RUNS_DIR / f"{name}-seed{seed}-{side}.json"
                    pair[side] = run(trees[side], name, seed, keep)
                    print(f"pair {i + 1}/{len(SEEDS)} {name} {side}: p50_ms "
                          f"{pair[side]['metrics']['p50_ms']['value']:.4g}", file=sys.stderr)
                results[name].append(pair)
    environment = results[workloads[0]][0]["change"]["environment"]
    record = {
        "parent": parent,
        "change": "the checkout at " + subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip(),
        "python": environment["python"],
        "host": {key: environment[key] for key in ("platform", "nproc", "implementation")},
        "pairs": len(SEEDS),
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "goes_first": "the parent in pairs 1, 3, 5, ...; the change in pairs 2, 4, 6, ...",
        "workloads": {name: summary(pairs, spec["end_to_end"]) for name, pairs in results.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
