import hashlib
import importlib
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import econamp
import econamp.circuit
from econamp import cli, csvio
from econamp.cli import main, parse_config

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# the argv of each golden capture, run in a directory holding copies of data/
GOLDEN_COMMANDS = {
    "simulate": ("simulate", "demo_amplifier.cfg"),
    "fit": ("fit", "synthetic_series.csv", "--x", "investments", "--y", "incomes"),
    "analyze": ("analyze", "synthetic_series.csv"),
    "cascade": ("cascade", "2.5", "4", "10"),
}

DERIVED_CONFIG_TEXT = """\
# CE stage used across the test suite
v_cc = 12
r_b1 = 100e3
r_b2 = 20e3
r_l = 1e3
i_es = 1e-14
alpha_n = 0.99
temperature = 300
"""

# independent bisection result for the config above (see test_circuit.py)
DERIVED_V_BE = 0.7077395589430571


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def values_block(stdout):
    lines = stdout.splitlines()
    start = lines.index("[values]") + 1
    out = {}
    for line in lines[start:]:
        key, _, value = line.partition("=")
        out[key] = value
    return out


def changed_config(changes):
    """DERIVED_CONFIG_TEXT with the given keys set to new value text."""
    lines = DERIVED_CONFIG_TEXT.split("\n")
    for key, text in changes.items():
        lines = [f"{key} = {text}" if line.startswith(f"{key} =") else line for line in lines]
    return "\n".join(lines)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "stage.cfg"
    path.write_text(DERIVED_CONFIG_TEXT)
    return path


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden(capsys, monkeypatch, tmp_path, data_dir, command):
    for name in ("demo_amplifier.cfg", "synthetic_series.csv"):
        (tmp_path / name).write_bytes((data_dir / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *GOLDEN_COMMANDS[command])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / f"{command}.out").read_bytes()


# The points file the golden `fit` writes beside the shipped series, byte for
# byte, whether tier-1 runs on the checkout or on the installed package.
SHIPPED_POINTS_SHA256 = "debf67fef5193525d79f61ab0c633a0f415302660a227be2ba980a6626d090e6"


def test_shipped_points_file_is_pinned(capsys, monkeypatch, tmp_path, data_dir):
    (tmp_path / "synthetic_series.csv").write_bytes((data_dir / "synthetic_series.csv").read_bytes())
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *GOLDEN_COMMANDS["fit"])[0] == 0
    points = (tmp_path / "synthetic_series.csv.points.csv").read_bytes()
    assert hashlib.sha256(points).hexdigest() == SHIPPED_POINTS_SHA256


def test_fit_with_attached_values_matches_golden(capsys, monkeypatch, tmp_path, data_dir):
    # `--x=V` is `--x V`: the same stdout and the same points file
    (tmp_path / "synthetic_series.csv").write_bytes((data_dir / "synthetic_series.csv").read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "fit", "synthetic_series.csv", "--x=investments", "--y=incomes"
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / "fit.out").read_bytes()
    points = (tmp_path / "synthetic_series.csv.points.csv").read_bytes()
    assert hashlib.sha256(points).hexdigest() == SHIPPED_POINTS_SHA256


# Cells that are their own repr in the form `fit` reuses: fixed notation in
# [1, 1e7), at most 15 significant digits, no trailing fraction zero but ".0".
OWN_REPR_CELLS = ["59.71", "-1.5", "7.0", "1.05", "-8806.3", "1234567.12345678",
                  "9999999.99999999"]
# Cells that read as numbers but are not their repr, or are a repr of
# another form: below 1, 16 and 17 digits, 1e7 and 1e16 and above.
OTHER_CELLS = ["1.50", "1e3", " 2.5", "1_0.5", "+1.5", ".5", "5.", "01.5", "0.1", "-0.0",
               "3.00", "0.0001", "1e-05", "١.5", "1١.5", "0.333333333333333", "14.30206016712772",
               "9999999.999999999", "0.30000000000000004", "1.0000000000000001", "1e7",
               "10000000.0", "1e16", "1e+16", "9007199254740994.0", "2.5e+17", "-1e22"]


def repr_points(x_cells, y_cells, a0: float, beta: float) -> bytes:
    """The points file as repr of every x and y value wrote it."""
    rows = [(float(x), float(y)) for x, y in zip(x_cells, y_cells)]
    return ("x,y_observed,y_fitted\n"
            + "".join(f"{x!r},{y!r},{a0 + beta * x!r}\n" for x, y in rows)).encode()


# The points file is byte for byte the one repr of every value writes, on a
# plain file (the bulk tier) and on the same file with quoted cells (the
# scan), whether a column's cells are reused or not: one cell of another
# form among own reprs keeps its block of rows, here the whole column, from
# being reused.
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize(
    "x_cells, y_cells, reused",
    [
        (OTHER_CELLS, (OWN_REPR_CELLS * 4)[:len(OTHER_CELLS)], (False, True)),
        (OWN_REPR_CELLS, OWN_REPR_CELLS[::-1], (True, True)),
        (OTHER_CELLS, OTHER_CELLS[::-1], (False, False)),
        (OWN_REPR_CELLS, ["1.50"] + OWN_REPR_CELLS[1:], (True, False)),
        (OWN_REPR_CELLS, OWN_REPR_CELLS[:-1] + ["1.50"], (True, False)),
        *((OWN_REPR_CELLS, OWN_REPR_CELLS[:3] + [cell] + OWN_REPR_CELLS[4:], (True, False))
          for cell in OTHER_CELLS),
    ],
    ids=["other_x", "own_both", "other_both", "other_first_y", "other_last_y",
         *(f"one_other_y{k}" for k in range(len(OTHER_CELLS)))],
)
def test_points_file_matches_repr_of_each_value(capsys, tmp_path, x_cells, y_cells, reused,
                                                quoted):
    assert len(x_cells) == len(y_cells)
    assert all(repr(float(cell)) == cell for cell in OWN_REPR_CELLS)
    quote = '"' if quoted else ""
    lines = ["x,y,note"] + [f"{quote}{x}{quote},{quote}{y}{quote},n"
                            for x, y in zip(x_cells, y_cells)]
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = cli._read_text(str(path))
    assert (csvio._bulk_columns(text, (("x", csvio.FLOAT),)) is None) == quoted
    xs, ys, x_read, y_read = cli.read_xy_columns(str(path), "x", "y")
    assert (x_read, y_read) == (x_cells, y_cells)
    assert ((csvio._point_texts(x_read, xs) is x_read), (csvio._point_texts(y_read, ys) is y_read)
            ) == reused
    code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
    assert (code, err) == (0, "")
    values = values_block(out)
    expected = repr_points(x_cells, y_cells, float(values["a0"]), float(values["beta"]))
    assert Path(f"{path}.points.csv").read_bytes() == expected


# The points file is written a block of POINTS_ROWS rows at a time, and each
# block's cells are reused or not on their own: a cell of another form in the
# first, a middle or the last of four blocks sends only its block to repr, and
# the bytes stay those repr of every value writes.
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("block", [0, 1, 3], ids=["first", "middle", "last"])
def test_points_file_reuses_cells_block_by_block(capsys, monkeypatch, tmp_path, block, quoted):
    rows = 3 * cli.POINTS_ROWS + 5
    x_cells = [f"{k + 1}.5" for k in range(rows)]
    y_cells = [f"{3 * k + 1}.25" for k in range(rows)]
    odd = block * cli.POINTS_ROWS + 2
    y_cells[odd] = y_cells[odd] + "0"
    quote = '"' if quoted else ""
    lines = ["x,y"] + [f"{quote}{x}{quote},{quote}{y}{quote}" for x, y in zip(x_cells, y_cells)]
    path = tmp_path / "blocks.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert (csvio._bulk_columns(cli._read_text(str(path)), (("x", csvio.FLOAT),)) is None) == quoted
    reused = []
    point_texts = csvio._point_texts

    def spy(cells, values):
        texts = point_texts(cells, values)
        reused.append(texts is cells)
        return texts

    monkeypatch.setattr(csvio, "_point_texts", spy)
    code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
    assert (code, err) == (0, "")
    # per block, x then y: every x block is reused, the y block with the odd cell is not
    assert reused == [k % 2 == 0 or k // 2 != block for k in range(8)]
    values = values_block(out)
    expected = repr_points(x_cells, y_cells, float(values["a0"]), float(values["beta"]))
    assert Path(f"{path}.points.csv").read_bytes() == expected


# A BOM or \r\n or \r line endings, as editors on Windows may save a file,
# read as the shipped files do.
@pytest.mark.parametrize("command", ["simulate", "fit", "analyze"])
@pytest.mark.parametrize(
    "prefix, newline",
    [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")],
    ids=["bom", "crlf", "cr", "bom_crlf"],
)
def test_saved_variant_matches_golden(
    capsys, monkeypatch, tmp_path, data_dir, command, prefix, newline
):
    for name in ("demo_amplifier.cfg", "synthetic_series.csv"):
        data = (data_dir / name).read_bytes()
        (tmp_path / name).write_bytes(prefix + data.replace(b"\n", newline))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *GOLDEN_COMMANDS[command])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / f"{command}.out").read_bytes()


def test_traced_layers_are_looked_up_as_module_attributes(capsys, monkeypatch, tmp_path, data_dir):
    # perfbench's traced series_analysis run times these by wrapping them on econamp.cli
    calls = dict.fromkeys(
        ("read_econ_series", "analyze_series", "render_coefficients", "read_xy_columns",
         "fit_linear"),
        0,
    )

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    (tmp_path / "synthetic_series.csv").write_bytes((data_dir / "synthetic_series.csv").read_bytes())
    monkeypatch.chdir(tmp_path)
    for command in ("analyze", "fit"):
        code, out, err = run_cli(capsys, *GOLDEN_COMMANDS[command])
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN_DIR / f"{command}.out").read_bytes()
    assert calls == dict.fromkeys(calls, 1)


# Every name perfbench imports from econamp or patches on its modules: stage.py's
# imports, the one bias_sweep's traced run patches on circuit, the five
# series_analysis' traced run wraps on cli, and the main its runs call.
PERFBENCH_NAMES = {
    "amplifier": ("OperatingLimits", "breakdown_check", "stage_gain"),
    "circuit": ("AmplifierConfig", "SolverError", "active_region_currents", "small_signal_params",
                "solve_operating_point"),
    "devices": ("BjtParams",),
    "cli": ("main", "read_econ_series", "analyze_series", "render_coefficients",
            "read_xy_columns", "fit_linear"),
}


def test_every_name_perfbench_uses_resolves():
    source = "\n".join(path.read_text() for path in GOLDEN_DIR.parent.glob("*.py"))
    imported = {
        (module, name.strip())
        for module, in_parens, on_line in re.findall(
            r"from econamp\.(\w+) import (?:\(([^)]*)\)|([\w, ]+))", source)
        for name in (in_parens or on_line).split(",") if name.strip()
    }
    listed = {(module, name) for module, names in PERFBENCH_NAMES.items() for name in names}
    assert imported and imported <= listed
    for module, name in sorted(listed):
        value = getattr(importlib.import_module(f"econamp.{module}"), name)
        assert callable(value), (module, name)
        if name in econamp.__all__:
            assert value is getattr(econamp, name), (module, name)


def test_report_rows_render_both_views():
    rows = [("n", 10**6, ""), ("gain", 1234567.0, "W"), ("beta_p", None, ""), ("ok", True, "")]
    assert cli.table(rows[:3], width=5) == [
        "  n      = 1000000",  # ".6g" would print 1e+06
        "  gain   = 1.23457e+06 W",
        "  beta_p = n/a",
    ]
    assert cli.values_block(rows) == ["[values]", "n=1000000", "gain=1234567.0", "ok=true"]


class TestSimulate:
    def test_matches_bisection_oracle(self, capsys, config_file):
        code, out, err = run_cli(capsys, "simulate", str(config_file))
        assert code == 0
        assert err == ""
        values = values_block(out)
        assert float(values["v_be"]) == pytest.approx(DERIVED_V_BE, abs=1e-9)
        assert values["saturated"] == "false"
        assert values["healthy"] == "true"

    def test_dead_device(self, capsys, tmp_path):
        path = tmp_path / "dead.cfg"
        path.write_text(
            "v_cc = 10\nr_b1 = 10e6\nr_b2 = 10e6\nr_l = 1e3\n"
            "i_es = 1e-30\nalpha_n = 0.99\n"
        )
        code, out, _ = run_cli(capsys, "simulate", str(path))
        assert code == 0
        values = values_block(out)
        assert float(values["i_c"]) < 1e-4
        assert float(values["v_ce"]) > 9.9
        assert "warnings:\n  none" in out

    def test_breakdown_warning(self, capsys, config_file, tmp_path):
        path = tmp_path / "hot.cfg"
        path.write_text(DERIVED_CONFIG_TEXT + "i_c_max = 1e-3\n")
        code, out, _ = run_cli(capsys, "simulate", str(path))
        assert code == 0
        assert "breakdown: i_c" in out
        assert values_block(out)["healthy"] == "false"

    def test_config_echo_round_trips(self, capsys, config_file):
        _, out, _ = run_cli(capsys, "simulate", str(config_file))
        lines = out.splitlines()
        start = lines.index("config:") + 1
        end = lines.index("", start)
        echoed = "\n".join(lines[start:end])
        assert parse_config(echoed) == parse_config(DERIVED_CONFIG_TEXT)

    def test_deterministic_output(self, capsys, config_file):
        _, first, _ = run_cli(capsys, "simulate", str(config_file))
        _, second, _ = run_cli(capsys, "simulate", str(config_file))
        assert first == second

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_unknown_key_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        # `device` is a field of AmplifierConfig but no config key
        for key in ("frobnicate", "device"):
            path.write_text(DERIVED_CONFIG_TEXT + f"{key} = 1\n")
            code, out, err = run_cli(capsys, "simulate", str(path))
            assert (code, out) == (3, "")
            assert err == f"error: {path}:9: unknown key {key!r}\n"  # line-numbered diagnostic

    def test_bad_number_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("v_cc = twelve\nr_b1 = 1\nr_b2 = 1\nr_l = 1\ni_es = 1e-14\nalpha_n = 0.99\n")
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 3
        assert ":1:" in err

    def test_undecodable_file_is_parse_error(self, capsys, tmp_path):
        # used to exit 4 with the bare codec message, naming no file
        path = tmp_path / "latin1.cfg"
        data = DERIVED_CONFIG_TEXT.replace("# CE stage", "# CE st\xe4ge").encode("latin-1")
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (3, "")
        offset = data.index(b"\xe4")
        assert err == (
            f"error: {path}: byte 0xe4 at offset {offset} is not UTF-8"
            " (invalid continuation byte)\n"
        )

    def test_line_without_equals_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DERIVED_CONFIG_TEXT + "r_l 1e3  # no sign\n")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}:9: expected 'key = value', got 'r_l 1e3  # no sign'\n"

    def test_duplicate_key_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DERIVED_CONFIG_TEXT + "v_cc = 15\n")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}:9: duplicate key 'v_cc'\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_error_line_counts_every_line_ending(self, capsys, tmp_path, newline):
        path = tmp_path / "bad.cfg"
        path.write_bytes((DERIVED_CONFIG_TEXT + "frobnicate = 3\n").replace("\n", newline).encode())
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}:9: unknown key 'frobnicate'\n"

    # A comment used to end at any character str.splitlines splits at, so
    # the rest of it was read as a config line: "expected 'key = value',
    # got 'voltage'", on a line number past the one the comment is on.
    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_comment_holds_any_character_but_newline(self, capsys, config_file, tmp_path, char):
        path = tmp_path / "marked.cfg"
        text = DERIVED_CONFIG_TEXT.replace("v_cc = 12", f"v_cc = 12  # supply{char}voltage")
        path.write_text(text)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "simulate", str(config_file))[1]

    def test_missing_required_keys_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "partial.cfg"
        # the required keys in field order: those of AmplifierConfig, then BjtParams
        for text, missing in [
            ("v_cc = 12\n", "r_b1, r_b2, r_l, i_es, alpha_n"),
            ("", "v_cc, r_b1, r_b2, r_l, i_es, alpha_n"),
        ]:
            path.write_text(text)
            code, _, err = run_cli(capsys, "simulate", str(path))
            assert code == 3
            assert err == f"error: {path}: missing required keys: {missing}\n"

    # r_l = 20e3 used to exit 4 with "v_cb = 142.228 V gives exp argument 5501.6
    # above the overflow cap 200"; r_l = 1.7e3 printed g_out = 1.2693e+17 S and
    # voltage_gain = 504.767, small-signal figures of a saturated device.
    @pytest.mark.parametrize("r_l, v_ce", [("20e3", "-141.521"), ("1.7e3", "-1.04925")])
    def test_saturated_stage_prints_na(self, capsys, tmp_path, data_dir, r_l, v_ce):
        path = tmp_path / "saturated.cfg"
        path.write_text((data_dir / "demo_amplifier.cfg").read_text().replace(
            "r_l  = 1e3", f"r_l  = {r_l}"
        ))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, err) == (0, "")
        assert f"  v_ce  = {v_ce} V\n" in out
        assert "small signal:\n  r_in    = n/a\n  g_out   = n/a\n  slope_s = n/a\n" in out
        assert (
            "stage gains:\n  beta_current = n/a\n  voltage_gain = n/a\n  power_out    = n/a\n"
        ) in out
        assert f"saturation: v_ce = {v_ce} V <= 0, device out of active region" in out
        values = values_block(out)
        assert values["saturated"] == "true"
        assert set(values) == {"v_be", "i_b", "i_c", "i_e", "v_ce", "saturated", "healthy"}

    def test_domain_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "invalid.cfg"
        path.write_text(DERIVED_CONFIG_TEXT.replace("alpha_n = 0.99", "alpha_n = 1.5"))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 4
        assert out == ""
        assert "alpha_n" in err

    def test_no_bias_solution_is_domain_error(self, capsys, tmp_path):
        # the verdict perfbench's classify counts as a domain error
        path = tmp_path / "tiny_i_es.cfg"
        path.write_text(
            "v_cc = 30\nr_b1 = 1e3\nr_b2 = 1e6\nr_l = 1e3\ni_es = 1e-100\nalpha_n = 0.99\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (4, "")
        assert err == (
            "error: no bias solution below the exponential overflow cap"
            " (residual at v_be=5.14455 V is still positive)\n"
        )

    def test_underflowing_divider_is_domain_error(self, capsys, tmp_path):
        # r_b1*r_b2 underflows to r_th = 0.0: this used to escape main as a
        # ZeroDivisionError traceback from the bias solve.
        path = tmp_path / "underflow.cfg"
        path.write_text(
            "v_cc = 659599538.9470944\nr_b1 = 5e-324\nr_b2 = 3.2600901356127586e-07\n"
            "r_l = 2.228674181096934e-48\ni_es = 1.1990606725778829e-217\n"
            "alpha_n = 7.637398391329253e-177\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (4, "")
        assert err.startswith("error: v_cc, r_b1, r_b2 give v_th = ")
        assert "r_th = 0.0 ohm" in err

    def test_overflowing_divider_is_domain_error(self, capsys, tmp_path):
        # v_cc*r_b2 overflows to v_th = inf: this used to exit 0 reporting
        # i_b=1.7976931348623085e+308, a v_be that is no root of the balance.
        path = tmp_path / "overflow.cfg"
        path.write_text(
            "v_cc = 7.002199614321936e+288\nr_b1 = 9.930255841793658e-06\n"
            "r_b2 = 7.680705355996769e+297\nr_l = 6.422843016677004e+127\n"
            "i_es = 2.257522619873115e+297\nalpha_n = 5e-324\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (4, "")
        assert err.startswith("error: v_cc, r_b1, r_b2 give v_th = inf V")

    def test_long_solve_runs_to_its_end(self, capsys, monkeypatch, tmp_path):
        # Bisecting down from a bracket near 0 V takes hundreds of passes; this
        # design used to stop at a 100-pass budget with "did not converge".
        calls = []

        def counted(arg):
            calls.append(arg)
            return expm1(arg)

        expm1 = math.expm1
        monkeypatch.setattr(math, "expm1", counted)
        path = tmp_path / "long.cfg"
        path.write_text(
            "v_cc = 9.890778908677686e-13\nr_b1 = 1388670.311318406\n"
            "r_b2 = 2.7112955100617086e-283\nr_l = 650235097604.5616\n"
            "i_es = 1.8559055227146503e-223\ni_cs = 1.8559055227146503e-223\n"
            "alpha_n = 1.0383004723610248e-151\n"
        )
        config, _ = parse_config(path.read_text())
        op = econamp.circuit.solve_operating_point(config)
        # each pass evaluates at most a Newton candidate and a midpoint
        assert len(calls) > 2 * 100 + 2
        v_th, r_th = config.thevenin()
        assert abs((v_th - op.v_be) / r_th - op.i_b) < 1e-12
        # i_c = alpha_n*i_e underflows to 0.0, which the small-signal model refuses
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (4, "")
        assert err.startswith("error: i_es, alpha_n, temperature give i_c = 0.0 A")

    # k*T below the smallest normal float: the first two used to escape main as
    # a ZeroDivisionError traceback, the third exited 4 with "voltage_gain
    # must be finite, got inf".
    @pytest.mark.parametrize(
        "changes",
        [
            {"temperature": "1e-310"},
            {"temperature": "5e-324"},
            {"v_cc": "1e6", "temperature": "1e-300"},
            {"temperature": "1.6116144353178838e-285"},
        ],
    )
    def test_subnormal_k_t_is_domain_error(self, capsys, tmp_path, changes):
        path = tmp_path / "cold.cfg"
        path.write_text(changed_config(changes))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (4, "")
        assert err.startswith(f"error: temperature = {changes['temperature']} K gives k*T = ")

    def test_lowest_temperature_solves(self, capsys, tmp_path):
        path = tmp_path / "cold.cfg"
        path.write_text(changed_config({"temperature": "1.611614435317884e-285"}))
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert (code, err) == (0, "")

    # i_c or slope_s = i_c/Vt below the smallest normal float: the first used
    # to escape main as a ZeroDivisionError traceback at r_in = beta/slope_s,
    # the second exited 4 with "i_c must be finite and > 0, got 0.0".
    @pytest.mark.parametrize(
        "changes, i_c, slope_s",
        [
            ({"alpha_n": "1e-305", "temperature": "1e7"}, "2.3e-322", "0.0"),
            ({"alpha_n": "1e-310", "temperature": "1e5"}, "0.0", "0.0"),
        ],
    )
    def test_subnormal_collector_current_is_domain_error(
        self, capsys, tmp_path, changes, i_c, slope_s
    ):
        path = tmp_path / "faint.cfg"
        path.write_text(changed_config(changes))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert (code, out) == (4, "")
        assert err == (
            f"error: i_es, alpha_n, temperature give i_c = {i_c} A, slope_s = {slope_s} S; "
            "both must be normal floats\n"
        )

    def test_non_finite_value_is_domain_error(self, capsys, tmp_path):
        # used to run the solver into "bias solve did not converge"
        path = tmp_path / "nan.cfg"
        path.write_text(DERIVED_CONFIG_TEXT.replace("v_cc = 12", "v_cc = nan"))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 4
        assert out == ""
        assert "v_cc" in err

    def test_non_finite_limit_is_domain_error(self, capsys, tmp_path):
        # used to print healthy=true and exit 0
        path = tmp_path / "nan_limit.cfg"
        path.write_text(DERIVED_CONFIG_TEXT + "i_c_max = nan\n")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 4
        assert out == ""
        assert "i_c_max" in err


@pytest.fixture
def ols_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x,y\n0,1\n1,3\n2,4\n3,7\n")
    return path


class TestFit:
    def test_exact_line(self, capsys, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("inp,out\n1,7\n2,12\n3,17\n")
        code, out, _ = run_cli(capsys, "fit", str(path), "--x", "inp", "--y", "out")
        assert code == 0
        values = values_block(out)
        assert float(values["beta"]) == pytest.approx(5.0, abs=1e-12)
        assert float(values["a0"]) == pytest.approx(2.0, abs=1e-12)
        assert float(values["r_squared"]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_derived_instance(self, capsys, ols_csv):
        code, out, _ = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "y")
        assert code == 0
        values = values_block(out)
        assert float(values["beta"]) == pytest.approx(1.9, abs=1e-12)
        assert float(values["a0"]) == pytest.approx(0.9, abs=1e-12)
        assert values["n"] == "4"

    def test_points_file(self, capsys, ols_csv):
        run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "y")
        points = Path(f"{ols_csv}.points.csv").read_text()
        lines = points.splitlines()
        assert lines[0] == "x,y_observed,y_fitted"
        assert len(lines) == 5
        x, y_obs, y_fit = (float(v) for v in lines[1].split(","))
        assert (x, y_obs) == (0.0, 1.0)
        assert y_fit == pytest.approx(0.9, abs=1e-12)

    def test_deterministic_output_and_points(self, capsys, ols_csv):
        _, first, _ = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "y")
        first_points = Path(f"{ols_csv}.points.csv").read_bytes()
        _, second, _ = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "y")
        second_points = Path(f"{ols_csv}.points.csv").read_bytes()
        assert first == second
        assert first_points == second_points

    def test_missing_column(self, capsys, ols_csv):
        code, out, err = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "income")
        assert code == 3
        assert out == ""
        assert err == f"error: {ols_csv}: missing column(s) 'income'; header has ['x', 'y']\n"

    def test_too_few_rows(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n1,2\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert code == 4
        assert "at least 2" in err

    def test_zero_variance_x(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n2,1\n2,5\n2,9\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert code == 4
        assert "identical" in err

    def test_non_numeric_cell(self, capsys, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("x,y\n1,2\nfoo,3\n")
        code, _, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert code == 3
        assert ":3:" in err

    def test_overflowing_sum_is_domain_error(self, capsys, tmp_path):
        # used to exit 4 with "error: (34, 'Numerical result out of range')"
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n1,1e308\n2,-1e308\n3,1e308\n")
        code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert (code, out) == (4, "")
        assert "ss_tot must be finite" in err

    # blank lines are dropped but still counted, and a quoted cell may span
    # lines: `foo` is on line 5, 4 and 4; each used to be reported one line early
    @pytest.mark.parametrize(
        "text, line",
        [
            ("x,y\n1,2\n\n2,3\nfoo,3\n", 5),
            ("\nx,y\n1,2\nfoo,3\n", 4),
            ('x,y\n"1\n",2\nfoo,3\n', 4),
        ],
    )
    def test_error_names_the_file_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert (code, out) == (3, "")
        assert err == f"error: {path}:{line}: 'x' is not a finite number: 'foo'\n"

    @pytest.mark.parametrize("text", ["x,y\n1,2\n3\n", "x,y\n1,2\n3\n4,zz\n"])
    def test_ragged_row_is_parse_error(self, capsys, tmp_path, text):
        # the short row 3 is reported, also when a bad cell follows on row 4
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert (code, out) == (3, "")
        assert err == f"error: {path}:3: row has no 'y' cell\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_parse_error(self, capsys, tmp_path, bad):
        # used to exit 4 with "r_squared out of [0, 1]: nan"
        path = tmp_path / "nan.csv"
        path.write_text(f"x,y\n1,2\n2,{bad}\n3,5\n")
        code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
        assert code == 3
        assert out == ""
        assert f"{path}:3: 'y'" in err


class TestAnalyze:
    def test_single_period(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("period,investments,expenses,incomes\n1990,200,0,1000\n")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        values = values_block(out)
        assert float(values["beta_v"]) == pytest.approx(5.0)
        assert float(values["harrod_b"]) == pytest.approx(0.2)
        assert "keynes_m" not in values
        assert "fit_beta" not in values

    def test_quantity_column(self, capsys, tmp_path):
        path = tmp_path / "qty.csv"
        path.write_text(
            "period,investments,expenses,incomes,quantity_out\n"
            "a,10,10,100,50\nb,20,20,200,150\n"
        )
        _, out, _ = run_cli(capsys, "analyze", str(path))
        assert float(values_block(out)["beta_p"]) == pytest.approx(200.0 / 60.0)

    def test_missing_trailing_quantity_cell_is_no_count(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "period,investments,expenses,incomes,quantity_out\n"
            "a,10,10,100,50\nb,20,20,200\n"
        )
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, err) == (0, "")
        assert "  beta_p      = n/a\n" in out
        assert "beta_p" not in values_block(out)

    def test_equal_end_point_investments_give_na(self, capsys, tmp_path):
        # the summed increments 2.8 - 2.3 - 0.5 used to round to 5.55e-17,
        # printing keynes_m = 3.60288e+16 for an undefined multiplier
        path = tmp_path / "round_trip.csv"
        path.write_text(
            "period,investments,expenses,incomes\na,0.2,1,5\nb,3.0,1,9\nc,0.7,1,6\nd,0.2,1,7\n"
        )
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, err) == (0, "")
        assert "  keynes_m    = n/a\n" in out
        assert "keynes_m" not in values_block(out)

    def test_currency_rescaling_keeps_dimensionless_values(self, capsys, tmp_path):
        base = tmp_path / "base.csv"
        base.write_text(
            "period,investments,expenses,incomes\n"
            "a,100,30,500\nb,150,40,800\nc,210,55,1150\n"
        )
        scaled = tmp_path / "scaled.csv"
        scaled.write_text(
            "period,investments,expenses,incomes\n"
            "a,100000,30000,500000\nb,150000,40000,800000\nc,210000,55000,1150000\n"
        )
        _, out_base, _ = run_cli(capsys, "analyze", str(base))
        _, out_scaled, _ = run_cli(capsys, "analyze", str(scaled))
        vb, vs = values_block(out_base), values_block(out_scaled)
        for key in ("beta_v", "harrod_b", "domar_sigma", "mean_beta", "keynes_m", "fit_beta"):
            assert float(vs[key]) == pytest.approx(float(vb[key]), rel=1e-12)

    def test_shipped_synthetic_series(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "analyze", str(data_dir / "synthetic_series.csv"))
        assert code == 0
        values = values_block(out)
        assert float(values["mean_beta"]) == pytest.approx(5.19, abs=0.01)
        assert float(values["fit_r_squared"]) >= 0.99

    def test_missing_columns(self, capsys, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("period,investments,incomes\n1990,1,5\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert "expenses" in err

    def test_negative_value_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("period,investments,expenses,incomes\n1990,-5,0,100\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 4
        assert "1990" in err

    @pytest.mark.parametrize(
        "rows, total",
        [
            # used to print beta_v=0.0, fit_a0=nan, fit_r_squared=1.0 and exit 0
            ("1990,1e308,1e308,5\n1991,2,3,5\n", "total inputs"),
            # used to exit 4 with "intermediate overflow in fsum"
            ("1990,1e308,0,5\n1991,1e308,0,5\n", "total investments"),
        ],
    )
    def test_overflowing_total_is_domain_error(self, capsys, tmp_path, rows, total):
        path = tmp_path / "huge.csv"
        path.write_text("period,investments,expenses,incomes\n" + rows)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (4, "")
        assert f"{total} must be finite" in err

    def test_file_is_parsed_before_values_are_judged(self, capsys, tmp_path):
        # a negative value in row 2 used to win over the bad cell in row 3 (exit 4)
        path = tmp_path / "mixed.csv"
        path.write_text("period,investments,expenses,incomes\n1990,-5,1,10\n1991,foo,1,10\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (3, "")
        assert f"{path}:3: 'investments'" in err

    @pytest.mark.parametrize(
        "column,row", [("expenses", "a,10,nan,100"), ("quantity_out", "a,10,5,100,inf")]
    )
    def test_non_finite_cell_is_parse_error(self, capsys, tmp_path, column, row):
        path = tmp_path / "nan.csv"
        path.write_text(f"period,investments,expenses,incomes,quantity_out\nz,1,1,9,3\n{row}\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert out == ""
        assert f"{path}:3: {column!r}" in err


# both subcommands read their CSV through one reader
CSV_COMMANDS = [("analyze",), ("fit", "--x", "investments", "--y", "incomes")]
ECON_HEADER = "period,investments,expenses,incomes\n"


def run_csv_command(capsys, argv, path):
    return run_cli(capsys, argv[0], str(path), *argv[1:])


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=["analyze", "fit"])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_undecodable_csv_is_parse_error(capsys, tmp_path, argv, bom):
    # used to exit 4 with the bare codec message, naming no file
    path = tmp_path / "latin1.csv"
    data = bom + (ECON_HEADER + "1990,1,2,3\n1991,2,3,4\xff\n").encode("latin-1")
    path.write_bytes(data)
    code, out, err = run_csv_command(capsys, argv, path)
    assert (code, out) == (3, "")
    offset = data.index(b"\xff")  # counted from the start of the file, BOM included
    assert err == f"error: {path}: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=["analyze", "fit"])
def test_blank_lines_only_is_empty_csv(capsys, tmp_path, argv):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"\n  \n,\r\n \t, \n")
    code, out, err = run_csv_command(capsys, argv, path)
    assert (code, out, err) == (3, "", f"error: {path}: empty CSV\n")


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=["analyze", "fit"])
@pytest.mark.parametrize("cell", ["a" * 131073, '"' + "a" * 131073 + '"'], ids=["plain", "quoted"])
def test_oversized_field_is_parse_error(capsys, tmp_path, argv, cell):
    # a cell over csv.field_size_limit() used to escape as a _csv.Error traceback
    path = tmp_path / "wide.csv"
    path.write_text(ECON_HEADER.replace("\n", ",note\n") + f"1990,1,2,3,x\n1991,2,3,4,{cell}\n")
    code, out, err = run_csv_command(capsys, argv, path)
    assert (code, out) == (3, "")
    assert err == f"error: {path}:3: field larger than field limit (131072)\n"


def test_subnormal_slope_is_domain_error(capsys, tmp_path):
    # used to exit 4 with "r_squared out of [0, 1]: inf"
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n1e150,1e-160\n2e150,2e-160\n3e150,4e-160\n")
    code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
    assert (code, out) == (4, "")
    assert err.startswith("error: slope beta is subnormal")


def test_subnormal_centred_sum_is_domain_error(capsys, tmp_path):
    # used to exit 0 with r_squared 0.9643197 against an exact 0.9642857
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n1e-160,1e-160\n2e-160,2e-160\n3e-160,4e-160\n")
    code, out, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
    assert (code, out) == (4, "")
    assert err == "error: s_xx is subnormal, below 2.2250738585072014e-308: 2e-320\n"


class TestCascade:
    @pytest.mark.parametrize(
        "gains,expected",
        [(["10", "20"], "200.0"), (["7"], "7.0"), (["2", "0.5"], "1.0")],
    )
    def test_products(self, capsys, gains, expected):
        code, out, _ = run_cli(capsys, "cascade", *gains)
        assert code == 0
        assert out.strip() == expected

    def test_no_arguments_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "cascade")
        assert code == 2

    def test_non_numeric_argument_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "cascade", "ten")
        assert code == 2

    @pytest.mark.parametrize(
        "gains,expected",
        [(["2", "-1e3"], "-2000.0"), (["-1.5E+2"], "-150.0"), (["-.5e1", "2"], "-10.0")],
    )
    def test_negative_gain_in_exponent_form(self, capsys, gains, expected):
        # argparse read -1e3 as an unknown option: "unrecognized arguments: -1e3", exit 2
        assert run_cli(capsys, "cascade", *gains) == (0, expected + "\n", "")

    @pytest.mark.parametrize(
        "gains,stage",
        [(["nan", "2"], "stage 1"), (["1e200", "1e200"], "stage 2"), (["-inf"], "stage 1"),
         (["inf"], "stage 1")],
    )
    def test_non_finite_gain_is_domain_error(self, capsys, gains, stage):
        # `cascade nan 2` used to print nan and exit 0
        code, out, err = run_cli(capsys, "cascade", *gains)
        assert code == 4
        assert out == ""
        assert stage in err

    @pytest.mark.parametrize("gains", [["1e-200", "1e-200"], ["5e-324", "0.5"]])
    def test_underflow_is_domain_error(self, capsys, gains):
        # a product of non-zero gains that underflowed printed 0.0 and exited 0
        assert run_cli(capsys, "cascade", *gains) == (
            4, "", "error: cascade gain underflows at stage 2\n"
        )

    @pytest.mark.parametrize(
        "gains,expected",
        [(["0", "5"], "0.0"), (["1e-200", "1e-200", "0"], "0.0"), (["1e-160", "1e-160"], "1e-320")],
    )
    def test_zero_gain_and_subnormal_products_print(self, capsys, gains, expected):
        assert run_cli(capsys, "cascade", *gains) == (0, expected + "\n", "")

    def test_internal_overflow_escapes_main(self, monkeypatch):
        # exit 4 is a ValueError's, a named verdict; any other exception is a
        # bug and shows as a traceback, OverflowError included
        def overflowing(gains):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "cascade_gain", overflowing)
        with pytest.raises(OverflowError, match="math range error"):
            main(["cascade", "2"])


# The help screens and usage lines, byte for byte: argparse's text at
# COLUMNS=80 on Python 3.11, which the CLI prints at any terminal width.
USAGE = "usage: econamp [-h] {simulate,fit,analyze,cascade} ..."
HELP_SCREENS = {
    None: f"""\
{USAGE}

Amplifier-stage simulation and economic gain analysis.

positional arguments:
  {{simulate,fit,analyze,cascade}}
    simulate            solve a CE amplifier stage from a config file
    fit                 least-squares line through two CSV columns
    analyze             economic coefficient report for a period series
    cascade             product of stage gains

options:
  -h, --help            show this help message and exit
""",
    "simulate": """\
usage: econamp simulate [-h] config

positional arguments:
  config      key = value config file

options:
  -h, --help  show this help message and exit
""",
    "fit": """\
usage: econamp fit [-h] --x X --y Y csv

positional arguments:
  csv         CSV file with a header row

options:
  -h, --help  show this help message and exit
  --x X       predictor column name
  --y Y       response column name
""",
    "analyze": """\
usage: econamp analyze [-h] csv

positional arguments:
  csv         CSV with period,investments,expenses,incomes[,quantity_out]

options:
  -h, --help  show this help message and exit
""",
    "cascade": """\
usage: econamp cascade [-h] gains [gains ...]

positional arguments:
  gains       stage gains

options:
  -h, --help  show this help message and exit
""",
}
SUBCOMMAND_USAGE = {
    command: screen.partition("\n")[0] for command, screen in HELP_SCREENS.items() if command
}


def test_help_exits_zero(capsys, monkeypatch):
    for columns, flag in (("40", "-h"), ("80", "--help"), ("200", "--help")):
        monkeypatch.setenv("COLUMNS", columns)
        assert run_cli(capsys, flag) == (0, HELP_SCREENS[None], "")


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_USAGE))
def test_subcommand_help_exits_zero(capsys, command):
    for argv in ([command, "--help"], [command, "-h"], ["--x", command, "2", "--z", "-h"]):
        assert run_cli(capsys, *argv) == (0, HELP_SCREENS[command], "")


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        ([], USAGE, "econamp: error: the following arguments are required: command"),
        (
            ["fit", "x.csv"],
            SUBCOMMAND_USAGE["fit"],
            "econamp fit: error: the following arguments are required: --x, --y",
        ),
        (
            ["cascade"],
            SUBCOMMAND_USAGE["cascade"],
            "econamp cascade: error: the following arguments are required: gains",
        ),
        (
            ["cascade", "2", "abc"],
            SUBCOMMAND_USAGE["cascade"],
            "econamp cascade: error: argument gains: invalid float value: 'abc'",
        ),
        (
            ["bogus", "fit"],
            USAGE,
            "econamp: error: argument command: invalid choice: 'bogus' "
            "(choose from 'simulate', 'fit', 'analyze', 'cascade')",
        ),
        (
            ["fit", "x.csv", "--y=b", "--x"],
            SUBCOMMAND_USAGE["fit"],
            "econamp fit: error: argument --x: expected one argument",
        ),
        (
            ["--z", "cascade", "2", "--x", "3"],
            USAGE,
            "econamp: error: unrecognized arguments: --z --x 3",
        ),
        # "--" ends the options; a "--" or a token after it that no argument takes is left over
        (["--"], USAGE, "econamp: error: the following arguments are required: command"),
        (
            ["--", "fit"],
            USAGE,
            "econamp: error: argument command: invalid choice: '--' "
            "(choose from 'simulate', 'fit', 'analyze', 'cascade')",
        ),
        (["simulate", "a", "--", "b"], USAGE, "econamp: error: unrecognized arguments: b"),
        (["simulate", "a", "--", "--"], USAGE, "econamp: error: unrecognized arguments: --"),
        (["simulate", "a", "b", "--"], USAGE, "econamp: error: unrecognized arguments: b --"),
        (["simulate", "--z", "a", "--"], USAGE, "econamp: error: unrecognized arguments: --z"),
        (
            ["fit", "a", "--x", "b", "--y", "c", "--"],
            USAGE,
            "econamp: error: unrecognized arguments: --",
        ),
        (
            ["fit", "--x", "--", "a"],
            SUBCOMMAND_USAGE["fit"],
            "econamp fit: error: argument --x: expected one argument",
        ),
        (
            ["fit", "a", "--", "--x", "b", "--y", "c"],
            SUBCOMMAND_USAGE["fit"],
            "econamp fit: error: the following arguments are required: --x, --y",
        ),
        (
            ["cascade", "--", "2", "--", "3"],
            SUBCOMMAND_USAGE["cascade"],
            "econamp cascade: error: argument gains: invalid float value: '--'",
        ),
        (
            ["cascade", "--", "-h"],
            SUBCOMMAND_USAGE["cascade"],
            "econamp cascade: error: argument gains: invalid float value: '-h'",
        ),
    ],
)
def test_usage_error_exits_two(capsys, argv, usage, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"{usage}\n{error}\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cascade", "2", "--", "3"], "6.0"),
        (["cascade", "--", "-1"], "-1.0"),
        (["cascade", "2", "--"], "2.0"),
    ],
)
def test_double_dash_ends_the_options(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected + "\n", "")


# main is the CLI's one writer: it prints what the parse and the handler give it
@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
def test_handler_returns_its_report(capsys, monkeypatch, tmp_path, data_dir, command):
    for name in ("demo_amplifier.cfg", "synthetic_series.csv"):
        (tmp_path / name).write_bytes((data_dir / name).read_bytes())
    monkeypatch.chdir(tmp_path)  # fit writes its points file beside its input
    handler, arguments = cli._parse(list(GOLDEN_COMMANDS[command]))
    report = handler(*arguments)
    assert capsys.readouterr() == ("", "")
    assert (report + "\n").encode() == (GOLDEN_DIR / f"{command}.out").read_bytes()


def test_parse_returns_the_handler_and_its_arguments(capsys):
    assert cli._parse(["cascade", "2"]) == (cli._cmd_cascade, [[2.0]])
    for command, screen in HELP_SCREENS.items():  # a help request parses to its screen
        handler, arguments = cli._parse([command, "-h"] if command else ["--help"])
        assert handler is cli._help
        assert handler(*arguments) + "\n" == screen
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        ([], USAGE, "econamp: error: the following arguments are required: command"),
        (
            ["bogus"],
            USAGE,
            "econamp: error: argument command: invalid choice: 'bogus' "
            "(choose from 'simulate', 'fit', 'analyze', 'cascade')",
        ),
        (
            ["cascade", "abc"],
            SUBCOMMAND_USAGE["cascade"],
            "econamp cascade: error: argument gains: invalid float value: 'abc'",
        ),
    ],
    ids=["no_command", "bogus", "cascade_abc"],
)
def test_refused_command_line_raises_usage_error(capsys, argv, usage, error):
    with pytest.raises(cli.UsageError) as caught:
        cli._parse(argv)
    assert str(caught.value) == f"{usage}\n{error}"
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["simulate", "config"], ["fit", "csv", "--x", "a", "--y=b"]])
def test_placeholder_name_is_an_argument(capsys, monkeypatch, tmp_path, argv):
    # a token spelled as a help-screen placeholder is a file name like any other
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {argv[1]!r}\n"


def reference_parser():
    """The argparse parser the CLI was built on: the reference its parse is held to."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="econamp",
        description="Amplifier-stage simulation and economic gain analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve a CE amplifier stage from a config file")
    p.add_argument("config", help="key = value config file")
    p.set_defaults(func=lambda args: cli._cmd_simulate(args.config))

    p = sub.add_parser("fit", help="least-squares line through two CSV columns")
    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--x", required=True, help="predictor column name")
    p.add_argument("--y", required=True, help="response column name")
    p.set_defaults(func=lambda args: cli._cmd_fit(args.csv, args.x, args.y))

    p = sub.add_parser("analyze", help="economic coefficient report for a period series")
    p.add_argument("csv", help="CSV with period,investments,expenses,incomes[,quantity_out]")
    p.set_defaults(func=lambda args: cli._cmd_analyze(args.csv))

    p = sub.add_parser("cascade", help="product of stage gains")
    p.add_argument("gains", nargs="+", type=float, help="stage gains")
    p.set_defaults(func=lambda args: cli._cmd_cascade(args.gains))

    return parser


def reference_main(argv):
    """main's exit code with the command line read by reference_parser."""
    try:
        args = reference_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        print(args.func(args))
    except (cli.InputFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, cli.InputFormatError):
            return cli.EXIT_PARSE
        return cli.EXIT_USAGE if isinstance(exc, OSError) else cli.EXIT_DOMAIN
    return cli.EXIT_OK


ARGV_ALPHABET = (
    "simulate", "fit", "analyze", "cascade", "bogus", "-h", "--help", "--x", "--y", "--x=i",
    "--y=j", "--z", "2", "-2", "abc", "inf", "missing.csv", "--", "-", "--x=",
)
# the invalid-choice wording varies with the Python version; the token it names does not
INVALID_CHOICE = re.compile(r"argument command: invalid choice: (\S+) \(choose from .*\)")


def test_command_line_reads_as_argparse_read_it(capsys, monkeypatch, tmp_path):
    # argparse wraps help text to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # no token names a file that exists
    rng = random.Random(14)
    for _ in range(2000):
        argv = rng.choices(ARGV_ALPHABET, k=rng.randrange(6))
        if argv and rng.random() < 0.5:  # most draws would not reach a subcommand's parse
            argv[0] = rng.choice(ARGV_ALPHABET[:4])
        want = reference_main(argv), *capsys.readouterr()
        got = main(argv), *capsys.readouterr()
        # the allowed differences: an older options heading, the invalid-choice wording
        want = (want[0], want[1].replace("optional arguments:", "options:"), want[2])
        want, got = ((code, out, INVALID_CHOICE.sub(r"invalid choice: \1", err))
                     for code, out, err in (want, got))
        assert got == want, argv


def test_cascade_gain_is_one_function_under_every_name():
    from econamp import amplifier, econmap

    assert amplifier.cascade_gain is econmap.cascade_gain is econamp.cascade_gain


def test_parse_config_is_public_and_loads_simulate_on_first_use(child_env):
    # README documents cli.parse_config; the module that defines it loads only
    # with `simulate` or on this name's first use
    child = (
        "import sys, econamp.cli\n"
        "print('econamp.simulate' in sys.modules)\n"
        "from econamp.cli import parse_config\n"
        "from econamp import simulate\n"
        "print(parse_config is simulate.parse_config is econamp.cli.parse_config)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nTrue\n", "")
    with pytest.raises(AttributeError, match="module 'econamp.cli' has no attribute 'no_such'"):
        cli.no_such


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "econamp", "cascade", "10", "20"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "200.0"


# main's return is the process's exit code: 2 usage, 3 parse, 4 a domain verdict
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["cascade", "abc"], 2,
         "econamp cascade: error: argument gains: invalid float value: 'abc'"),
        (["simulate", "parse.cfg"], 3,
         "error: parse.cfg:1: value for 'v_cc' is not a number: 'x'"),
        (["cascade", "inf"], 4, "error: stage 1 gain must be finite, got inf"),
    ],
    ids=["usage", "parse", "domain"],
)
def test_module_entry_point_exit_code(tmp_path, child_env, argv, code, err):
    (tmp_path / "parse.cfg").write_text("v_cc = x\n")
    proc = subprocess.run(
        [sys.executable, "-m", "econamp", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.splitlines()[-1] == err


# Runs its arguments as `python -m econamp` does (bare `import econamp` when
# there are none) and prints to stderr the modules that loaded beyond start-up.
LOADED_MODULES_CHILD = """\
import runpy, sys
before = set(sys.modules)
try:
    if len(sys.argv) > 1:
        runpy.run_module("econamp", run_name="__main__", alter_sys=True)
    else:
        import econamp
finally:
    print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""

# `fit` loads no econmap, and `simulate` neither the current laws nor the MOS device
CLI_MODULES = {"econamp", "econamp.cli", "econamp.cascade", "econamp.errors"}
FIT_MODULES = CLI_MODULES | {"econamp.csvio", "econamp.regression"}
LOADED_ECONAMP_MODULES = {
    None: {"econamp"},
    "simulate": CLI_MODULES | {"econamp.simulate", "econamp.amplifier", "econamp.circuit",
                               "econamp.devices"},
    "fit": FIT_MODULES,
    "analyze": FIT_MODULES | {"econamp.econmap"},
    "cascade": CLI_MODULES,
}


@pytest.mark.parametrize("command", [None, *sorted(GOLDEN_COMMANDS)])
def test_each_subcommand_loads_only_the_modules_it_uses(tmp_path, data_dir, child_env, command):
    for name in ("demo_amplifier.cfg", "synthetic_series.csv"):
        (tmp_path / name).write_bytes((data_dir / name).read_bytes())
    argv = GOLDEN_COMMANDS[command] if command else ()
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_CHILD, *argv],
        cwd=tmp_path,
        capture_output=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().split())
    assert {m for m in loaded if m.partition(".")[0] == "econamp"} == LOADED_ECONAMP_MODULES[command]
    if command is None:
        assert proc.stdout == b""
    else:
        assert proc.stdout == (GOLDEN_DIR / f"{command}.out").read_bytes()
    # the value types become dataclasses only when dataclasses is asked
    # about them: no command loads it
    assert not {"dataclasses", "inspect"} & loaded
    if command in (None, "simulate", "cascade"):  # csv is loaded by the CSV readers only
        assert "csv" not in loaded
    # the command line is read without argparse, and so without gettext and locale
    assert not {"argparse", "gettext", "locale"} & loaded
