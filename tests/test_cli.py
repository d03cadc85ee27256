import os
import subprocess
import sys
from pathlib import Path

import pytest

import econamp
from econamp import cli
from econamp.cli import build_simulation, main, parse_config_text, points_file_path

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
        config, limits = build_simulation(parse_config_text(echoed))
        original_config, original_limits = build_simulation(
            parse_config_text(DERIVED_CONFIG_TEXT)
        )
        assert config == original_config
        assert limits == original_limits

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
        path.write_text(DERIVED_CONFIG_TEXT + "frobnicate = 3\n")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 3
        assert out == ""
        assert "frobnicate" in err
        assert ":9:" in err  # line-numbered diagnostic

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
        path.write_text("v_cc = 12\n")
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 3
        assert err == f"error: {path}: missing required keys: r_b1, r_b2, r_l, i_es, alpha_n\n"

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
        points = Path(points_file_path(str(ols_csv))).read_text()
        lines = points.splitlines()
        assert lines[0] == "x,y_observed,y_fitted"
        assert len(lines) == 5
        x, y_obs, y_fit = (float(v) for v in lines[1].split(","))
        assert (x, y_obs) == (0.0, 1.0)
        assert y_fit == pytest.approx(0.9, abs=1e-12)

    def test_deterministic_output_and_points(self, capsys, ols_csv):
        _, first, _ = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "y")
        first_points = Path(points_file_path(str(ols_csv))).read_bytes()
        _, second, _ = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "y")
        second_points = Path(points_file_path(str(ols_csv))).read_bytes()
        assert first == second
        assert first_points == second_points

    def test_missing_column(self, capsys, ols_csv):
        code, out, err = run_cli(capsys, "fit", str(ols_csv), "--x", "x", "--y", "income")
        assert code == 3
        assert out == ""
        assert "missing column" in err and "income" in err

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
        "gains,stage", [(["nan", "2"], "stage 1"), (["1e200", "1e200"], "stage 2")]
    )
    def test_non_finite_gain_is_domain_error(self, capsys, gains, stage):
        # `cascade nan 2` used to print nan and exit 0
        code, out, err = run_cli(capsys, "cascade", *gains)
        assert code == 4
        assert out == ""
        assert stage in err


def test_module_entry_point():
    # the child imports the same econamp as this test, installed or not
    package_root = str(Path(econamp.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "econamp", "cascade", "10", "20"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "200.0"
