"""The benchmark's oracles flag wrong results and pass right ones."""

import dataclasses
import io
from contextlib import redirect_stdout
from types import SimpleNamespace

import inputs
import oracles
import stage
from econamp.circuit import SolverError
from econamp.cli import main

# A design from the acceptance ranges that solves in the active region.
GOOD_DESIGN = (12.0, 1e5, 2e4, 1e3, 1e-14, 1e-14, 0.99, 300.0)
ROWS = 50


def _solved():
    outcome, _, op, ss, gains = stage.evaluate(GOOD_DESIGN)
    assert outcome == stage.OK
    return op, ss, gains


def test_solved_stage_passes():
    assert oracles.check_stage(GOOD_DESIGN, *_solved()) is None


def test_perturbed_v_be_is_flagged():
    op, ss, gains = _solved()
    moved = dataclasses.replace(op, v_be=op.v_be + 1e-6)
    assert "residual" in oracles.check_stage(GOOD_DESIGN, moved, ss, gains)


def test_inconsistent_voltage_gain_is_flagged():
    op, ss, gains = _solved()
    wrong = dataclasses.replace(gains, voltage_gain=gains.voltage_gain * (1 + 1e-9))
    assert "voltage_gain" in oracles.check_stage(GOOD_DESIGN, op, ss, wrong)


def test_perturbed_v_ce_is_flagged():
    op, ss, gains = _solved()
    moved = dataclasses.replace(op, v_ce=op.v_ce * (1 + 1e-6))
    assert "v_ce" in oracles.check_stage(GOOD_DESIGN, moved, ss, gains)


def test_wrong_saturated_flag_is_flagged():
    op, ss, gains = _solved()
    wrong = dataclasses.replace(op, saturated=not op.saturated)
    assert "saturated" in oracles.check_stage(GOOD_DESIGN, wrong, ss, gains)


def test_wrong_slope_is_flagged_even_with_consistent_gain():
    op, ss, gains = _solved()
    slope = ss.slope_s * (1 + 1e-9)
    wrong_ss = dataclasses.replace(ss, slope_s=slope)
    wrong_gains = dataclasses.replace(gains, voltage_gain=slope * GOOD_DESIGN[3])
    assert "slope_s" in oracles.check_stage(GOOD_DESIGN, op, wrong_ss, wrong_gains)


def test_classify():
    assert stage.classify(OverflowError("math range error")) == (stage.FAILED, "OverflowError")
    saturated = SimpleNamespace(saturated=True)
    assert stage.classify(OverflowError("cap"), saturated) == (stage.KNOWN_DEFECT, "OverflowError")
    active = SimpleNamespace(saturated=False)
    assert stage.classify(OverflowError("cap"), active) == (stage.FAILED, "OverflowError")
    assert stage.classify(ValueError("i_c"), saturated) == (stage.FAILED, "ValueError")
    verdict = SolverError("no bias solution below the exponential overflow cap")
    assert stage.classify(verdict) == (stage.VERDICT, "SolverError")
    assert stage.classify(SolverError("did not converge")) == (stage.FAILED, "SolverError")


def test_saturated_operating_point_passes():
    # r_l = 20e3 drives the demo stage deep into saturation; whatever the
    # later steps do with it, the solved operating point itself is right.
    design = (12.0, 1e5, 2e4, 2e4, 1e-14, 1e-14, 0.99, 300.0)
    _, _, op, ss, gains = stage.evaluate(design)
    assert op.saturated
    assert oracles.check_stage(design, op, ss, gains) is None


def _analyze_stdout(tmp_path, columns):
    path = tmp_path / "series.csv"
    inputs.write_series(path, columns)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", str(path)]) == 0
    return out.getvalue()


def test_analyze_values_match_oracle(tmp_path):
    columns = inputs.make_series(7, 0, rows=ROWS)
    stdout = _analyze_stdout(tmp_path, columns)
    assert oracles.check_values(stdout, oracles.analyze_values(columns)) is None


def test_corrupted_values_line_is_flagged(tmp_path):
    columns = inputs.make_series(7, 0, rows=ROWS)
    stdout = _analyze_stdout(tmp_path, columns)
    expected = oracles.analyze_values(columns)
    line = next(l for l in stdout.splitlines() if l.startswith("keynes_m="))
    nudged = f"keynes_m={float(line.partition('=')[2]) * (1 + 1e-6)!r}"
    for corrupted in (
        stdout.replace(line, nudged),
        stdout.replace(line, "keynes_m=nan"),
        stdout.replace(line, "keynes_m=abc"),
        stdout.replace(line + "\n", ""),
        stdout.replace("[values]", "[value]"),
    ):
        assert oracles.check_values(corrupted, expected) is not None


def test_fit_values_match_oracle(tmp_path):
    columns = inputs.make_series(8, 1, rows=ROWS)
    path = tmp_path / "series.csv"
    inputs.write_series(path, columns)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["fit", str(path), "--x", "investments", "--y", "incomes"]) == 0
    expected = oracles.fit_values(columns[1], columns[3])
    assert oracles.check_values(out.getvalue(), expected) is None
    points = (tmp_path / "series.csv.points.csv").read_text().splitlines()
    assert len(points) == ROWS + 1


def test_inputs_repeat_for_a_seed():
    assert inputs.DesignStream(3).take(5) == inputs.DesignStream(3).take(5)
    assert inputs.DesignStream(3).take(5) != inputs.DesignStream(4).take(5)
    assert inputs.make_series(3, 0, rows=10) == inputs.make_series(3, 0, rows=10)
