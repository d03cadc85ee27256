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
number of pairs the change won, ties counting for neither side. Its
`parent_spread` is the parent's q3 - q1 over the parent's median, and its
`verdict` is the first of these that holds:

- `gain`: the change won at least 9 of 10 pairs, and its median is better
  than the parent's by more than the parent's q3 - q1;
- `regression`: the change's median is worse than the parent's by more than
  the metric's `bound` in BENCHMARK.json;
- `unresolved`: `parent_spread` is wider than that bound, and not every
  change run beats every parent run;
- `no move`.

It also holds the seeds, the run length, the host and the Python version.
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


def verdict(parent: dict, change: dict, sign: int, bound: float, won: int) -> str:
    """The claim rule's reading of one metric's spreads; `sign` is 1 where higher is better."""
    iqr = parent["q3"] - parent["q1"]
    if won >= 0.9 * len(parent["runs"]) and sign * (change["median"] - parent["median"]) > iqr:
        return "gain"
    if -sign * (change["median"] / parent["median"] - 1) > bound:
        return "regression"
    beats = all(sign * (c - p) > 0 for c in change["runs"] for p in parent["runs"])
    if iqr / parent["median"] > bound and not beats:
        return "unresolved"
    return "no move"


def summary(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' spread, raw medians, the relative move of the
    median, the pairs the change won, the parent's spread and the verdict."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [run[side]["metrics"][name]["value"] for run in pairs]
                  for side in ("parent", "change")}
        raw = {side: statistics.median(run[side]["raw_end_to_end"][name] for run in pairs)
               for side in ("parent", "change")}
        sides = {side: spread(values[side]) for side in ("parent", "change")}
        won = sum(sign * (change - parent) > 0
                  for parent, change in zip(values["parent"], values["change"]))
        parent = sides["parent"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "raw_median": raw,
            "change_ratio": sides["change"]["median"] / parent["median"] - 1,
            "change_won": won,
            "parent_spread": (parent["q3"] - parent["q1"]) / parent["median"],
            "verdict": verdict(parent, sides["change"], sign, metric["bound"], won),
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
