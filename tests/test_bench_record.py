import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
METRICS = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.22},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.22},
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



# ten parent runs 9.8 to 10.2: median 10.0, inclusive q1 9.9 and q3 10.1, a spread of 2%
PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.1, 9.9]


def verdicts(script, parent: list, change: list) -> dict:
    """Both metrics' verdicts on the same runs. Lower is better for p50_ms and
    higher for throughput_per_s, so runs that fall gain on the one only."""
    record = [{side: {"metrics": {m["name"]: {"value": value} for m in METRICS},
                      "raw_end_to_end": {m["name"]: value for m in METRICS}}
               for side, value in (("parent", p), ("change", c))}
              for p, c in zip(parent, change)]
    summary = script.summary(record, METRICS)
    return {name: (summary[name]["parent_spread"], summary[name]["verdict"])
            for name in ("p50_ms", "throughput_per_s")}


def test_parent_spread_is_the_quartile_gap_over_the_median(bench_record):
    for spread, _ in verdicts(bench_record, PARENT, PARENT).values():
        assert spread == pytest.approx((10.1 - 9.9) / 10.0)


def test_gain_needs_nine_of_ten_pairs_and_a_move_past_the_quartile_gap(bench_record):
    lower = [value - 1.0 for value in PARENT]  # median 9.0, 1.0 past the gap of 0.2
    assert verdicts(bench_record, PARENT, lower) == {
        "p50_ms": (pytest.approx(0.02), "gain"),
        "throughput_per_s": (pytest.approx(0.02), "no move"),  # 10% worse, inside 22%
    }
    nine = lower[:9] + [PARENT[9] + 1.0]  # one pair lost
    assert verdicts(bench_record, PARENT, nine)["p50_ms"][1] == "gain"
    eight = lower[:8] + [value + 1.0 for value in PARENT[8:]]  # two pairs lost
    assert verdicts(bench_record, PARENT, eight)["p50_ms"][1] == "no move"
    # ten pairs won, but the medians part by 0.1, less than the parent's gap
    slightly = [value - 0.1 for value in PARENT]
    assert verdicts(bench_record, PARENT, slightly)["p50_ms"][1] == "no move"


def test_regression_is_a_median_worse_than_the_bound(bench_record):
    assert verdicts(bench_record, PARENT, [value * 1.3 for value in PARENT]) == {
        "p50_ms": (pytest.approx(0.02), "regression"),
        "throughput_per_s": (pytest.approx(0.02), "gain"),
    }
    assert verdicts(bench_record, PARENT, [value * 0.7 for value in PARENT]) == {
        "p50_ms": (pytest.approx(0.02), "gain"),
        "throughput_per_s": (pytest.approx(0.02), "regression"),
    }
    # 20% worse is inside the bound of 22%
    assert verdicts(bench_record, PARENT, [value * 1.2 for value in PARENT])["p50_ms"][1] == (
        "no move"
    )


def test_unresolved_is_a_parent_spread_past_the_bound(bench_record):
    wide = [5.0, 15.0] * 5  # median 10, q1 5, q3 15: a spread of 100%
    assert verdicts(bench_record, wide, list(reversed(wide))) == {
        "p50_ms": (1.0, "unresolved"), "throughput_per_s": (1.0, "unresolved"),
    }
    # unless every change run beats every parent run: 4.0 < 5.0, but the medians
    # part by 6, less than the gap of 10, so it is no gain either
    assert verdicts(bench_record, wide, [4.0] * 10)["p50_ms"] == (1.0, "no move")


def test_no_move_when_the_runs_are_the_parent_s(bench_record):
    assert verdicts(bench_record, PARENT, PARENT) == {
        "p50_ms": (pytest.approx(0.02), "no move"),
        "throughput_per_s": (pytest.approx(0.02), "no move"),
    }
