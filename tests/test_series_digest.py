import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "series_digest.py"


@pytest.fixture(scope="module")
def series_digest():
    spec = importlib.util.spec_from_file_location("series_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # defines the functions, runs nothing
    return script


def test_small_draw_digest_is_pinned(series_digest):
    # Three 2,000-row series of seed 1; a change to any figure, message or
    # points-file byte of analyze or fit moves this value.
    series = series_digest.series_stream(1, 3, 2000)
    assert series_digest.digest(series) == (
        "0e67592ef539abd5a60da1e778027e6b88c76c895e2318e87e80dd39d0d2da3c"
    )


def test_records_hold_each_command_and_points_file(series_digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = series_digest.records("s.csv", series_digest.series_stream(2, 1, 4)[0]).decode()
    assert text.count("\nexit 0\n") == 3
    # each stderr is empty; each fit's points file follows its stderr
    assert "[stderr]\n$ fit s.csv --x investments --y incomes\n" in text
    assert text.count("[stderr]\n[points]\nx,y_observed,y_fitted\n") == 2
    assert "\n$ fit s.csv --x expenses --y quantity_out\n" in text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_digest_sees_one_changed_cell(series_digest):
    series = series_digest.series_stream(1, 2, 50)
    labels, investments, *rest = series[1]
    # one ulp more on one investment, which every command reads or fits
    moved = [series[0], (labels, [*investments[:7], investments[7] * (1 + 2**-52),
                                  *investments[8:]], *rest)]
    assert moved[1][1][7] != investments[7]
    assert series_digest.digest(moved) != series_digest.digest(series)


def test_main_prints_the_digest(series_digest, capsys):
    assert series_digest.main(["--seed", "2", "--count", "2", "--rows", "30"]) == 0
    expected = series_digest.digest(series_digest.series_stream(2, 2, 30))
    assert capsys.readouterr().out == expected + "\n"
