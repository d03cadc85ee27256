import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "stage_digest.py"
# data/demo_amplifier.cfg as a design tuple:
# v_cc, r_b1, r_b2, r_l, i_es, i_cs, alpha_n, temperature
DEMO = (12.0, 100e3, 20e3, 1e3, 1e-14, 1e-14, 0.99, 300.0)


@pytest.fixture(scope="module")
def stage_digest():
    spec = importlib.util.spec_from_file_location("stage_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # defines the functions, runs nothing
    return script


def test_demo_record_holds_every_golden_figure(stage_digest):
    # each float of the `[values]` block simulate prints for the demo config
    golden = (ROOT / "perfbench" / "golden" / "simulate.out").read_text()
    values = golden.split("[values]\n")[1].splitlines()
    floats = [line for line in values if not line.endswith(("true", "false"))]
    fields = stage_digest.record(DEMO).split()
    assert len(floats) == 11 and set(floats) <= set(fields)
    assert fields[-1] == "violations=()"


@pytest.mark.parametrize(
    "design, error",
    [
        # saturated: the figures of the point, then the small-signal step's error
        ((12.0, 100e3, 20e3, 1e6, 1e-14, 1e-14, 0.99, 300.0),
         "saturated=True OverflowError: v_cb = 7664.73 V gives exp argument 296485.2 "
         "above the overflow cap 200"),
        ((1e4, 1.0, 1e9, 1e3, 1e-300, 1e-14, 0.5, 300.0),
         "SolverError: no bias solution below the exponential overflow cap "
         "(residual at v_be=5.14455 V is still positive)"),
        ((12.0, 100e3, 20e3, 0.0, 1e-14, 1e-14, 0.99, 300.0),
         "ValueError: r_l must be finite and > 0, got 0.0"),
    ],
)
def test_error_is_recorded_by_type_and_message(stage_digest, design, error):
    assert stage_digest.record(design).endswith(error)


def test_small_draw_digest_is_pinned(stage_digest):
    # The first 200 designs of seed 1; a change to any figure or refusal of
    # the stage path moves this value.
    designs = stage_digest.design_stream(1).take(200)
    assert stage_digest.digest(designs) == (
        "b939a05bc42100c1b0aaa3f2e5d21c21fb16096158c22822b913613678a70a76"
    )


def test_digest_sees_one_changed_figure(stage_digest):
    designs = stage_digest.design_stream(1).take(50)
    moved = list(designs)
    # one ulp more r_l on design 2, which solves and passes every step
    moved[2] = (*moved[2][:3], moved[2][3] * (1 + 2**-52), *moved[2][4:])
    assert stage_digest.record(moved[2]).endswith("violations=()")
    assert stage_digest.digest(moved) != stage_digest.digest(designs)


def test_main_prints_the_digest(stage_digest, capsys):
    assert stage_digest.main(["--seed", "2", "--count", "30"]) == 0
    expected = stage_digest.digest(stage_digest.design_stream(2).take(30))
    assert capsys.readouterr().out == expected + "\n"
