import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
METRICS = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher"},
    {"name": "p50_ms", "unit": "ms", "better": "lower"},
]
# per pair (parent, change): a win, a loss, a tie, a win, a tie for the change
VALUES = {
    "throughput_per_s": [(10.0, 11.0), (10.0, 9.0), (10.0, 10.0), (10.0, 12.0), (10.0, 10.0)],
    "p50_ms": [(5.0, 4.0), (5.0, 6.0), (5.0, 5.0), (5.0, 3.0), (5.0, 5.0)],
}


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # defines the functions, runs nothing
    return script


def result(side: int, pair: int) -> dict:
    """One perfbench result: the speed-normalized value and a raw timing unlike it."""
    return {
        "metrics": {name: {"value": runs[pair][side]} for name, runs in VALUES.items()},
        "raw_end_to_end": {name: 100 * runs[pair][side] + pair for name, runs in VALUES.items()},
    }


def pairs(parent: int = 0, change: int = 1) -> list:
    return [{"parent": result(parent, i), "change": result(change, i)} for i in range(5)]


def test_change_won_counts_wins_in_either_direction(bench_record):
    summary = bench_record.summary(pairs(), METRICS)
    assert {name: summary[name]["change_won"] for name in VALUES} == {
        "throughput_per_s": 2, "p50_ms": 2,
    }


def test_tie_counts_for_neither_side(bench_record):
    # with the sides swapped the one loss becomes the one win; the two ties stay out
    summary = bench_record.summary(pairs(parent=1, change=0), METRICS)
    assert {name: summary[name]["change_won"] for name in VALUES} == {
        "throughput_per_s": 1, "p50_ms": 1,
    }


def test_spread_uses_inclusive_quartiles(bench_record):
    # the exclusive method would give q1 = 1.25 and q3 = 3.75
    assert bench_record.spread([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [4.0, 1.0, 3.0, 2.0],
    }


def test_summary_keeps_both_sides_and_raw_medians(bench_record):
    summary = bench_record.summary(pairs(), METRICS)
    for metric in METRICS:
        name = metric["name"]
        parent = [runs[0] for runs in VALUES[name]]
        change = [runs[1] for runs in VALUES[name]]
        assert summary[name]["unit"] == metric["unit"]
        assert summary[name]["better"] == metric["better"]
        assert summary[name]["parent"] == bench_record.spread(parent)
        assert summary[name]["change"] == bench_record.spread(change)
        assert summary[name]["raw_median"] == {
            "parent": statistics.median(100 * v + i for i, v in enumerate(parent)),
            "change": statistics.median(100 * v + i for i, v in enumerate(change)),
        }


def test_change_ratio_is_the_relative_move_of_the_medians(bench_record):
    # medians 5 -> 4 give -20%; the means' ratio (-23.5%) and the median of the
    # pairwise ratios (-25%) differ from it
    runs = [(4.0, 3.0), (5.0, 4.0), (8.0, 6.0)]
    record = [{side: {"metrics": {"p50_ms": {"value": run[k]}},
                      "raw_end_to_end": {"p50_ms": run[k]}}
               for k, side in enumerate(("parent", "change"))} for run in runs]
    assert bench_record.summary(record, METRICS[1:])["p50_ms"]["change_ratio"] == 4.0 / 5.0 - 1
