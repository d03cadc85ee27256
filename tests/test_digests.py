import importlib.util
from pathlib import Path

import pytest

from econamp.simulate import report

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "digests.py"
# data/demo_amplifier.cfg as a design tuple:
# v_cc, r_b1, r_b2, r_l, i_es, i_cs, alpha_n, temperature
DEMO = (12.0, 100e3, 20e3, 1e3, 1e-14, 1e-14, 0.99, 300.0)

_spec = importlib.util.spec_from_file_location("digests", SCRIPT)
DIGESTS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(DIGESTS)  # defines the functions, runs nothing


@pytest.fixture
def digests():
    return DIGESTS


def test_demo_record_holds_every_golden_figure(digests, tmp_path):
    # each float of the `[values]` block simulate prints, for the demo config
    # and the stream's first 8 designs, 4 of them saturated
    keys = ("v_cc", "r_b1", "r_b2", "r_l", "i_es", "i_cs", "alpha_n", "temperature")
    golden = (ROOT / "perfbench" / "golden" / "simulate.out").read_text()
    counts = []
    for design in [DEMO, *digests.design_stream(1).take(8)]:
        path = tmp_path / "stage.cfg"
        path.write_text("".join(f"{key} = {value!r}\n" for key, value in zip(keys, design)))
        printed = report(str(path))
        if design == DEMO:
            assert printed.split("[values]\n")[1] == golden.split("[values]\n")[1].rstrip("\n")
        values = printed.split("[values]\n")[1].splitlines()
        floats = [line for line in values if not line.endswith(("true", "false"))]
        fields = digests.record(design).split()
        assert set(floats) <= set(fields), design
        assert fields[-1].startswith("violations=(")
        counts.append(len(floats))
    # the demo's 11 figures; a saturated point prints only its operating point
    assert counts == [11, 5, 5, 11, 11, 5, 11, 11, 5]


@pytest.mark.parametrize(
    "design, error",
    [
        # saturated: the figures of the point, then no small-signal step
        ((12.0, 100e3, 20e3, 1e6, 1e-14, 1e-14, 0.99, 300.0),
         "v_ce=-7664.027020046788 saturated=True violations=()"),
        ((1e4, 1.0, 1e9, 1e3, 1e-300, 1e-14, 0.5, 300.0),
         "SolverError: no bias solution below the exponential overflow cap "
         "(residual at v_be=5.14455 V is still positive)"),
        ((12.0, 100e3, 20e3, 0.0, 1e-14, 1e-14, 0.99, 300.0),
         "ValueError: r_l must be finite and > 0, got 0.0"),
    ],
    ids=["saturated", "no-bias", "zero-r_l"],
)
def test_error_is_recorded_by_type_and_message(digests, design, error):
    assert digests.record(design).endswith(error)


# Every draw of PINS, as scripts/digests.py checks it: a change to any figure
# or refusal of the stage path, or to any figure, message or points-file
# byte of analyze or fit, moves a pin, and the failure names its draw.
@pytest.mark.parametrize(
    "draw", DIGESTS.PINS, ids=lambda draw: "-".join(str(part) for part in draw if part is not None)
)
def test_pin_holds(digests, draw):
    line = digests.check(draw, digests.PINS[draw])
    assert "MOVED" not in line, line


def test_digest_sees_one_changed_figure(digests):
    designs = digests.design_stream(1).take(50)
    moved = list(designs)
    # one ulp more r_l on design 2, which solves and passes every step
    moved[2] = (*moved[2][:3], moved[2][3] * (1 + 2**-52), *moved[2][4:])
    assert digests.record(moved[2]).endswith("violations=()")
    assert digests.stage_digest(moved) != digests.stage_digest(designs)


def test_records_hold_each_command_and_points_file(digests, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = digests.records("s.csv", digests.series_stream(2, 1, 4)[0]).decode()
    assert text.count("\nexit 0\n") == 3
    # each stderr is empty; each fit's points file follows its stderr
    assert "[stderr]\n$ fit s.csv --x investments --y incomes\n" in text
    assert text.count("[stderr]\n[points]\nx,y_observed,y_fitted\n") == 2
    assert "\n$ fit s.csv --x expenses --y quantity_out\n" in text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_padded_draw_pads_every_seventh_row(digests, tmp_path):
    columns = digests.series_stream(1, 1, 14)[0]
    digests.write_padded(tmp_path / "padded.csv", columns)
    digests.perfbench_inputs().write_series(tmp_path / "plain.csv", columns)
    padded = (tmp_path / "padded.csv").read_text().splitlines()
    plain = (tmp_path / "plain.csv").read_text().splitlines()
    assert padded[0] == plain[0] and len(padded) == len(plain) == 15
    for index, (line, plain_line) in enumerate(zip(padded[1:], plain[1:])):
        label, *numbers = plain_line.split(",")
        pad = "0" if index in (6, 13) else ""
        assert line == ",".join([label, *(number + pad for number in numbers)])


def test_digest_sees_one_changed_cell(digests):
    series = digests.series_stream(1, 2, 50)
    labels, investments, *rest = series[1]
    # one ulp more on one investment, which every command reads or fits
    moved = [series[0], (labels, [*investments[:7], investments[7] * (1 + 2**-52),
                                  *investments[8:]], *rest)]
    assert moved[1][1][7] != investments[7]
    assert digests.series_digest(moved) != digests.series_digest(series)


# A one-entry PINS table of 30 designs, held and moved: main's lines and exit
# code, without a second run of the draws test_pin_holds checks.
@pytest.mark.parametrize("held", [True, False], ids=["held", "moved"])
def test_main_checks_each_pin(digests, monkeypatch, capsys, held):
    draw = ("stage", 2, 30, None)
    value = digests.digest(*draw)
    pin = value if held else "0" * 64
    monkeypatch.setattr(digests, "PINS", {draw: pin})
    assert digests.main() == (0 if held else 1)
    moved = "" if held else f" MOVED from {pin}"
    assert capsys.readouterr().out == f"stage seed 2 x 30: {value}{moved}\n"
