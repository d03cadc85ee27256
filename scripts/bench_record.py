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
`parent_spread` is the parent's q3 - q1 over the parent's median.

BENCH_AA.json, at the root of the checkout, is the A/A record: this
script's record of a commit against itself, made with `--parent HEAD --out
BENCH_AA.json` on a clean checkout, whose medians differ by noise and drift
alone. That run reads no floor; every other run refuses to start unless
BENCH_AA.json exists and covers each workload and end-to-end metric of
BENCHMARK.json. Each metric then also holds the A/A record's
`aa_change_ratio` and `aa_parent_spread`, and its `aa_margin`: how far the
change's relative move in the better direction exceeds the A/A floor, the
larger of |aa_change_ratio| and aa_parent_spread. The record's `aa` names
the A/A record's commit, host and Python. A run also refuses to start where
the A/A record's Python version, platform, processor count or Python
implementation differs from this machine's, as perfbench records them,
since a floor measured elsewhere bounds nothing here.

Each metric's `verdict` is the first of these that holds:

- `gain`: the change won at least 9 of 10 pairs, and its median is better
  than the parent's by more than the parent's q3 - q1 and, outside the A/A
  record itself, its `aa_margin` is positive;
- `regression`: the change's median is worse than the parent's by more than
  the metric's `bound` in BENCHMARK.json;
- `unresolved`: `parent_spread` is wider than that bound, and not every
  change run beats every parent run;
- `no move`.

It also holds the seeds, the run length, the host and the Python version.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AA_RECORD = ROOT / "BENCH_AA.json"
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


def verdict(parent: dict, change: dict, sign: int, bound: float, won: int, floor: float) -> str:
    """The claim rule's reading of one metric's spreads; `sign` is 1 where higher is
    better, and a gain's relative move must also exceed `floor`, the A/A floor."""
    iqr = parent["q3"] - parent["q1"]
    past_iqr = sign * (change["median"] - parent["median"]) > iqr
    move = sign * (change["median"] / parent["median"] - 1)  # relative, better if positive
    if won >= 0.9 * len(parent["runs"]) and past_iqr and move > floor:
        return "gain"
    if -move > bound:
        return "regression"
    beats = all(sign * (c - p) > 0 for c in change["runs"] for p in parent["runs"])
    if iqr / parent["median"] > bound and not beats:
        return "unresolved"
    return "no move"


def read_aa(path: Path, spec: dict) -> dict:
    """The A/A record at `path`; exits unless it covers every workload and
    end-to-end metric of `spec`, the parsed BENCHMARK.json."""
    remake = f"make it with --parent HEAD --out {AA_RECORD.name} on a clean checkout"
    if not path.exists():
        raise SystemExit(f"{path} is missing: {remake}")
    aa = json.loads(path.read_text())
    missing = [f"{workload['name']} {metric['name']}"
               for workload in spec["workloads"] for metric in spec["end_to_end"]
               if metric["name"] not in aa["workloads"].get(workload["name"], {})]
    if missing:
        raise SystemExit(f"{path} lacks {', '.join(missing)}: {remake}")
    return aa


def machine() -> dict:
    """This machine's Python version and host, as perfbench's environment() records them."""
    return {
        "python": platform.python_version(),
        "host": {
            "platform": " ".join((platform.system(), platform.release(), platform.machine())),
            "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count()),
            "implementation": platform.python_implementation(),
        },
    }


def require_same_machine(aa: dict, here: dict) -> None:
    """Exits, naming the field, unless the A/A record `aa` was made on `here`."""
    fields = [("python", aa["python"], here["python"])]
    fields += [(f"host {key}", aa["host"][key], value) for key, value in here["host"].items()]
    for field, recorded, value in fields:
        if recorded != value:
            raise SystemExit(
                f"{AA_RECORD.name} was made with {field} {recorded!r}, and this machine has "
                f"{value!r}: re-make it with --parent HEAD --out {AA_RECORD.name} on a clean "
                f"checkout"
            )


def summary(pairs: list, metrics: list, aa: dict | None = None) -> dict:
    """Per metric: both sides' spread, raw medians, the relative move of the
    median, the pairs the change won, the parent's spread, the A/A figures
    of `aa` (one workload's summaries in an A/A record) and the verdict."""
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
        change_ratio = sides["change"]["median"] / parent["median"] - 1
        if aa is None:
            aa_figures, floor = {}, 0.0
        else:
            aa_ratio, aa_spread = aa[name]["change_ratio"], aa[name]["parent_spread"]
            floor = max(abs(aa_ratio), aa_spread)
            aa_figures = {"aa_change_ratio": aa_ratio, "aa_parent_spread": aa_spread,
                          "aa_margin": sign * change_ratio - floor}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "raw_median": raw,
            "change_ratio": change_ratio,
            "change_won": won,
            "parent_spread": (parent["q3"] - parent["q1"]) / parent["median"],
            **aa_figures,
            "verdict": verdict(parent, sides["change"], sign, metric["bound"], won, floor),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit the change is measured against")
    parser.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the A/A record is the floor, so its own run reads none
    aa = None if args.out.resolve() == AA_RECORD else read_aa(AA_RECORD, spec)
    if aa is not None:
        require_same_machine(aa, machine())
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
        "aa": None if aa is None else {
            "record": AA_RECORD.name, **{key: aa[key] for key in ("parent", "python", "host")}
        },
        "workloads": {
            name: summary(pairs, spec["end_to_end"], aa and aa["workloads"][name])
            for name, pairs in results.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
