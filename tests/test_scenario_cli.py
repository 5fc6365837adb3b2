import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tempmem import cli
from tempmem.cli import main
from tempmem.recording import QuantizerSpec, default_slope
from tempmem.scenario import _KEYS, Scenario, ScenarioError, parse_scenario_text
from tempmem.wavefront import Wavefront, read_wavefront_csv, write_wavefront_csv

FULL_SCENARIO = """\
# desk-scale default experiment
array.rows = 4
array.cols = 2
array.c_line_pf = 1.0
array.v_read = 0.7746
array.theta = 0.7364
array.t_shifter_ns = 0.5

device.r_on = 10000.0
device.r_off_max = 1000000.0
device.tau_w_ns = 200.0
device.v_prog_threshold = 1.0
device.v_zero = 0.35
device.v_write_nominal = 1.4

variation.d2d_sigma = 0.01
variation.c2c_sigma = 0.042
variation.seed = 42

quantizer.kind = vernier
quantizer.t_clk_ns = 1.0
quantizer.t_fine_ns = 0.1

run.path = digital
run.column = 1
run.scale_cap = matched
run.trials = 25
run.channels = 4
run.span_ns = 40.0
run.tol = 0.005
run.step_ns = 0.05
run.max_iters = 2000
run.v_write = 1.4
run.window_ns = 40.0
run.workers = 1

calibrate.span_ns = 40.0
calibrate.r_span_ohm = 30000.0
calibrate.energy_fj = 600.0
"""


class TestScenarioParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_scenario_text("") == Scenario()

    def test_full_scenario(self):
        s = parse_scenario_text(FULL_SCENARIO)
        assert s.array.rows == 4 and s.array.cols == 2
        assert s.array.c_line == pytest.approx(1e-12)
        assert s.array.t_shifter == 0.5
        assert s.run.quantizer.kind == "vernier"
        assert s.run.path == "digital"
        assert s.run.column == 1
        assert s.variation.seed == 42

    def test_readme_example_parses(self):
        # The example under "Scenario files" in README.md, so that a key
        # removed from the parser cannot leave it stale.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Scenario files", 1)[1].split("```\n", 2)[1]
        s = parse_scenario_text(example, source="README.md")
        assert (s.run.path, s.run.channels, s.run.tol) == ("digital", 8, 0.005)
        assert s.variation.seed == 7

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match="line 2.*unknown key"):
            parse_scenario_text("array.rows = 2\narray.bogus = 1\n")

    def test_rail_is_a_constant_not_a_key(self):
        with pytest.raises(ScenarioError, match="line 1.*unknown key 'array.v_dd'"):
            parse_scenario_text("array.v_dd = 1.8\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ScenarioError, match="line 3.*duplicate.*line 1"):
            parse_scenario_text("array.rows = 2\n\narray.rows = 3\n")

    def test_bad_literal_reports_line(self):
        with pytest.raises(ScenarioError, match="line 1.*bad value"):
            parse_scenario_text("array.rows = two\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario_text("array.rows 2\n")

    def test_invariant_violations_surface(self):
        with pytest.raises(ScenarioError, match="theta"):
            parse_scenario_text("array.theta = 1.5\n")
        with pytest.raises(ScenarioError, match="native or digital"):
            parse_scenario_text("run.path = spice\n")

    def test_scale_cap_forms(self):
        assert parse_scenario_text("run.scale_cap = none\n").run.scale_cap == "none"
        assert parse_scenario_text("run.scale_cap = matched\n").run.scale_cap == \
            "matched"

    # A fixed recall capacitance is array.c_line_pf, not a run.scale_cap value.
    @pytest.mark.parametrize("value", ["2.0", "-1.0", "nan", "inf", "Matched"])
    def test_scale_cap_takes_only_matched_or_none(self, value):
        with pytest.raises(ScenarioError, match="invalid scenario") as err:
            parse_scenario_text(f"run.scale_cap = {value}\n")
        assert "run.scale_cap must be matched or none" in str(err.value)
        assert "array.c_line_pf" in str(err.value)

    def test_inline_comments_allowed(self):
        s = parse_scenario_text("array.rows = 3  # three bit lines\n")
        assert s.array.rows == 3

    def test_sweep_settings_read_by_the_traced_runner(self):
        # The names bench/traced.py reads from a parsed scenario.
        s = parse_scenario_text("array.c_line_pf = 2.0\nrun.channels = 5\n"
                                "quantizer.kind = vernier\n"
                                "quantizer.t_clk_ns = 0.5\n"
                                "quantizer.t_fine_ns = 0.25\n")
        settings = s.sweep_settings()
        assert settings is s.run
        assert s.array.c_line == pytest.approx(2e-12)
        assert settings.scale_cap == "matched"
        assert settings.n_channels == settings.channels == 5
        assert settings.slope == default_slope(0.5)
        assert settings.quantizer == QuantizerSpec(kind="vernier", t_clk=0.5,
                                                   t_fine=0.25)
        for name in ("trials", "span_ns", "path", "column", "v_write",
                     "window_ns", "tol", "step_ns", "max_iters"):
            assert getattr(settings, name) == getattr(Scenario().run, name)

    # Every key whose value is not an int or a word takes a float.
    FLOAT_KEYS = [key for key, (convert, _, _) in _KEYS.items()
                  if convert not in (int, str)]

    def test_float_keys_cover_every_section(self):
        assert {key.split(".")[0] for key in self.FLOAT_KEYS} == {
            "array", "device", "variation", "quantizer", "run", "calibrate"}
        assert _KEYS["run.scale_cap"][0] is str

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_device_and_array_values_rejected(self, key, value):
        with pytest.raises(ScenarioError, match="invalid scenario"):
            parse_scenario_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("line", [
        "run.span_ns = -5", "run.tol = -1", "run.tol = 0", "run.step_ns = 0",
        "run.max_iters = -3", "run.window_ns = -1", "run.column = -1",
        "run.v_write = 0", "variation.d2d_sigma = -0.1",
        "quantizer.t_clk_ns = 0", "quantizer.t_fine_ns = -0.1"])
    def test_out_of_range_run_values_rejected(self, line):
        with pytest.raises(ScenarioError, match="s.txt: invalid scenario"):
            parse_scenario_text(line + "\n", source="s.txt")

    # Sections are checked in the order array, device, variation, quantizer,
    # run, calibrate, whatever the order of the lines: the first bad
    # section is the one named.
    @pytest.mark.parametrize("text, named", [
        ("quantizer.t_clk_ns = -1\narray.theta = 2\n", "theta"),
        ("run.tol = -1\nquantizer.t_clk_ns = -1\n", "t_clk"),
        ("variation.seed = -1\ndevice.amp_a = -1\n", "amp_a"),
        ("calibrate.span_ns = inf\nrun.trials = 0\n", "run.trials"),
        ("quantizer.kind = vernier\ncalibrate.energy_fj = nan\n", "vernier")])
    def test_first_bad_section_in_check_order_is_named(self, text, named):
        with pytest.raises(ScenarioError, match="invalid scenario") as err:
            parse_scenario_text(text)
        assert named in str(err.value)


def run_cli(*argv):
    return main(list(argv))


def read_single_row_csv(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return next(reader)


class TestCliRecall:
    def test_fresh_array_recall(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("recall", "--out", str(out)) == 0
        w = read_wavefront_csv(out / "wavefront.csv")
        assert w.span == 0.0  # all devices at r_on
        energy = read_single_row_csv(out / "energy.csv")
        assert float(energy["per_line_fj"]) == pytest.approx(600.0, rel=1e-4)
        assert float(energy["stored_fj"]) == float(energy["dissipated_fj"])

    def test_grid_recall_matches_linear_column(self, tmp_path):
        grid = tmp_path / "grid.csv"
        rows = ["row,col,resistance_ohm"]
        for i, r in enumerate([10e3, 20e3, 30e3, 40e3]):
            for j in range(4):
                rows.append(f"{i},{j},{r}")
        grid.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run_cli("recall", "--grid", str(grid), "--out", str(out)) == 0
        w = read_wavefront_csv(out / "wavefront.csv")
        for t, expected in zip(w.times, [13.33, 26.67, 40.00, 53.33]):
            assert t == pytest.approx(expected, abs=0.01)

    def test_grid_cell_beyond_the_laws_reach_recalls(self, tmp_path):
        # With a small amp_a, 900 kohm lies (r - r_on) / amp_a = 8900 past
        # r_on: expm1 would overflow, so the cell's stress is inf.
        scenario = tmp_path / "small_amp.scn"
        scenario.write_text("array.rows = 1\narray.cols = 1\ndevice.amp_a = 100.0\n")
        grid = tmp_path / "grid.csv"
        grid.write_text("row,col,resistance_ohm\n0,0,900000.0\n")
        out = tmp_path / "out"
        assert run_cli("recall", "--scenario", str(scenario), "--grid", str(grid),
                       "--out", str(out)) == 0
        expected = 900000.0 * 1e-12 * math.log(1.0 / (1.0 - 0.7364)) * 1e9
        assert read_wavefront_csv(out / "wavefront.csv").times == (
            pytest.approx(expected, rel=1e-12),)

    def test_missing_grid_file_is_config_error(self, tmp_path, capsys):
        assert run_cli("recall", "--grid", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o")) == 2
        assert "error" in capsys.readouterr().err


class TestCliRoundtrip:
    def test_native_roundtrip_metrics(self, tmp_path):
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 10.0, 20.0, 40.0)))
        out = tmp_path / "out"
        assert run_cli("roundtrip", "--input", str(wf_path),
                       "--out", str(out)) == 0
        metrics = read_single_row_csv(out / "metrics.csv")
        assert float(metrics["tau"]) == 1.0
        assert float(metrics["rms_ns"]) <= 0.1 * 40.0
        assert (out / "input_wavefront.csv").exists()
        assert (out / "recalled_wavefront.csv").exists()

    def test_adapts_rows_to_input_channels(self, tmp_path):
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 5.0, 10.0, 20.0, 30.0, 40.0)))
        out = tmp_path / "out"
        assert run_cli("roundtrip", "--input", str(wf_path),
                       "--out", str(out)) == 0
        recalled = read_wavefront_csv(out / "recalled_wavefront.csv")
        assert len(recalled) == 6

    def test_digital_path_flag(self, tmp_path):
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 10.0, 40.0)))
        scen = tmp_path / "s.txt"
        scen.write_text("run.tol = 0.005\nrun.step_ns = 0.05\n"
                        "run.max_iters = 2000\n")
        out = tmp_path / "out"
        assert run_cli("roundtrip", "--input", str(wf_path), "--scenario",
                       str(scen), "--path", "digital", "--out", str(out)) == 0
        metrics = read_single_row_csv(out / "metrics.csv")
        assert float(metrics["tau"]) == 1.0
        assert int(metrics["all_converged"]) == 1


class TestCliCapture:
    def test_native_capture_outputs(self, tmp_path):
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((5.0, 25.0, 45.0)))
        out = tmp_path / "out"
        assert run_cli("capture", "--input", str(wf_path), "--out", str(out)) == 0
        with open(out / "capture.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["pulse_ns"]) for r in rows] == [0.0, 20.0, 40.0]
        assert float(rows[0]["resistance_ohm"]) == 10e3
        assert (out / "grid.csv").exists()
        assert "write energy" in (out / "capture_report.txt").read_text()

    def test_captured_grid_recalls_through_cli(self, tmp_path):
        # capture then recall via the exported grid reproduces the wavefront
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 10.0, 20.0, 40.0)))
        out1 = tmp_path / "cap"
        assert run_cli("capture", "--input", str(wf_path), "--out", str(out1)) == 0
        out2 = tmp_path / "rec"
        assert run_cli("recall", "--grid", str(out1 / "grid.csv"),
                       "--out", str(out2)) == 0
        recalled = read_wavefront_csv(out2 / "wavefront.csv")
        assert len(recalled) == 4

    def test_grid_of_fewer_channels_than_array_rows_recalls(self, tmp_path):
        # capture takes its rows from the input and recall --grid from the
        # grid, whatever array.rows (4 by default) says.
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 12.5, 30.0)))
        out1 = tmp_path / "cap"
        assert run_cli("capture", "--input", str(wf_path), "--out", str(out1)) == 0
        out2 = tmp_path / "rec"
        assert run_cli("recall", "--grid", str(out1 / "grid.csv"),
                       "--out", str(out2)) == 0
        assert len(read_wavefront_csv(out2 / "wavefront.csv")) == 3

    @pytest.mark.parametrize("row, message", [
        ("x,0,10000.0", "invalid literal for int() with base 10: 'x'"),
        ("0,4,10000.0", "cell (0,4) outside 1x4 array"),
        ("0,0", "expected 3 fields")])
    def test_bad_grid_line_names_file_and_line(self, tmp_path, capsys, row, message):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"row,col,resistance_ohm\n{row}\n")
        assert run_cli("recall", "--grid", str(grid), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {grid}: line 2: {message}\n"

    # recall --grid takes rows 0 up to the largest row index, so a gap in
    # the indices is missing cells, counted without building the array.
    @pytest.mark.parametrize("rows, missing", [
        ("0,0,10000.0\n2,0,10000.0\n", 1),
        ("0,0,10000.0\n1000000000000,0,10000.0\n", 999999999999)],
        ids=["gap", "far_row"])
    def test_gap_in_grid_rows_is_missing_cells(self, tmp_path, capsys, rows, missing):
        scen = tmp_path / "s.txt"
        scen.write_text("array.cols = 1\n")
        grid = tmp_path / "g.csv"
        grid.write_text("row,col,resistance_ohm\n" + rows)
        assert run_cli("recall", "--scenario", str(scen), "--grid", str(grid),
                       "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: {grid}: {missing} cells missing from the grid\n")


class TestCliSweep:
    def test_sweep_outputs_and_byte_stability(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text("run.trials = 12\nrun.channels = 4\nvariation.seed = 5\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("sweep", "--scenario", str(scen), "--out", str(out_a)) == 0
        assert run_cli("sweep", "--scenario", str(scen), "--out", str(out_b)) == 0
        for name in ("trial_report.csv", "trials.csv", "trial_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_and_trials_overrides(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("sweep", "--trials", "6", "--seed", "1",
                       "--out", str(out_a)) == 0
        assert run_cli("sweep", "--trials", "6", "--seed", "2",
                       "--out", str(out_b)) == 0
        assert (out_a / "trial_report.csv").read_bytes() != \
            (out_b / "trial_report.csv").read_bytes()

    def test_report_csv_parses_back(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--trials", "5", "--seed", "3",
                       "--out", str(out)) == 0
        report = read_single_row_csv(out / "trial_report.csv")
        assert int(report["n_trials"]) == 5


class TestRepeatedOutDir:
    """A command run into an --out that an earlier, larger run filled
    leaves the bytes of a fresh run: each file is rewritten in place and cut
    at its new end."""

    SWEEP_FILES = ("trial_report.csv", "trials.csv", "trial_report.txt")

    def test_sweep_over_a_larger_sweep(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run_cli("sweep", "--trials", "12", "--seed", "4",
                       "--out", str(reused)) == 0
        before = (reused / "trials.csv").stat().st_size
        for out in (reused, fresh):
            assert run_cli("sweep", "--trials", "3", "--seed", "4",
                           "--out", str(out)) == 0
        assert (reused / "trials.csv").stat().st_size < before
        for name in self.SWEEP_FILES:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_capture_over_a_larger_capture(self, tmp_path):
        wave4, wave3 = tmp_path / "wave.csv", tmp_path / "wave3.csv"
        write_wavefront_csv(wave4, Wavefront((0.0, 12.5, 30.0, 40.0)))
        write_wavefront_csv(wave3, Wavefront((0.0, 12.5, 30.0)))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run_cli("capture", "--input", str(wave4), "--out", str(reused)) == 0
        assert run_cli("capture", "--input", str(wave3), "--out", str(reused)) == 0
        assert run_cli("capture", "--input", str(wave3), "--out", str(fresh)) == 0
        for name in ("grid.csv", "capture.csv", "capture_report.txt"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_directory_in_place_of_an_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "trials.csv").mkdir(parents=True)
        assert run_cli("sweep", "--trials", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "trials.csv") in err

    def test_out_naming_a_regular_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert run_cli("sweep", "--trials", "2", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "not a directory\n"


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_leave_no_state_behind(self, tmp_path):
        # One process, one parser: a run with other options and a run that
        # fails to parse must not change what the same argv produces later.
        scen = tmp_path / "s.txt"
        scen.write_text("run.trials = 6\nrun.channels = 4\nvariation.seed = 5\n")
        out = {name: tmp_path / name for name in "ABC"}
        assert run_cli("sweep", "--scenario", str(scen), "--out", str(out["A"])) == 0
        assert run_cli("sweep", "--scenario", str(scen), "--seed", "9",
                       "--trials", "3", "--path", "digital",
                       "--out", str(out["B"])) == 0
        with pytest.raises(SystemExit):
            run_cli("sweep", "--bogus")
        assert run_cli("sweep", "--scenario", str(scen), "--out", str(out["C"])) == 0
        for name in ("trials.csv", "trial_report.csv"):
            a, b, c = ((out[k] / name).read_bytes() for k in "ABC")
            assert a == c
            assert b != a


class TestCliCalibrate:
    def test_default_targets_reproduce_module_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("calibrate", "--out", str(out)) == 0
        cal = read_single_row_csv(out / "calibration.csv")
        from tempmem.device import AMP_A_DEFAULT
        assert float(cal["amp_a_ohm"]) == pytest.approx(AMP_A_DEFAULT, rel=1e-9)
        assert float(cal["theta"]) == pytest.approx(0.7364, abs=2e-5)
        assert float(cal["v_read_v"]) == pytest.approx(math.sqrt(0.6), rel=1e-9)

    def test_calibrated_theta_closes_the_loop(self, tmp_path):
        # the derived theta maps the resistance window onto the span target
        out = tmp_path / "out"
        scen = tmp_path / "s.txt"
        scen.write_text("calibrate.span_ns = 25.0\ncalibrate.r_span_ohm = 20000\n")
        assert run_cli("calibrate", "--scenario", str(scen), "--out", str(out)) == 0
        cal = read_single_row_csv(out / "calibration.csv")
        lnf = math.log(1 / (1 - float(cal["theta"])))
        assert 20e3 * 1e-12 * lnf * 1e9 == pytest.approx(25.0, rel=1e-9)


class TestCliErrors:
    def test_zero_trials_exits_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--trials", "0",
                       "--out", str(tmp_path / "o")) == 1
        assert "run.trials must be at least 1" in capsys.readouterr().err

    def test_zero_calibration_span_exits_1(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text("calibrate.r_span_ohm = 0\n")
        assert run_cli("calibrate", "--scenario", str(scen),
                       "--out", str(tmp_path / "o")) == 1
        assert "r_span must be positive" in capsys.readouterr().err

    # Calibration targets whose derived theta or v_read no array could use.
    @pytest.mark.parametrize("lines, message", [
        ("calibrate.energy_fj = 0\n", "calibrate.energy_fj must be positive"),
        ("calibrate.energy_fj = -5\n", "calibrate.energy_fj must be positive"),
        ("calibrate.energy_fj = 5000\n", "v_read < 1.8 V, the digital rail"),
        ("calibrate.span_ns = 1e6\ncalibrate.r_span_ohm = 1\n",
         "theta must lie strictly between 0 and 1")],
        ids=["zero_energy", "negative_energy", "v_read_above_rail", "theta_of_1"])
    def test_unusable_calibration_exits_1(self, tmp_path, capsys, lines, message):
        scen = tmp_path / "s.txt"
        scen.write_text(lines)
        out = tmp_path / "o"
        assert run_cli("calibrate", "--scenario", str(scen), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.splitlines()) == 1
        assert not (out / "calibration.csv").exists()

    def test_bad_scenario_exits_2_with_line(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text("array.rows = 2\nnot a key = 1\n")
        assert run_cli("sweep", "--scenario", str(scen),
                       "--out", str(tmp_path / "o")) == 2
        assert "line 2" in capsys.readouterr().err

    def test_precondition_failure_exits_1(self, tmp_path, capsys):
        wf_path = tmp_path / "in.csv"
        wf_path.write_text("channel,time_ns\n0,1.0\n2,2.0\n")
        assert run_cli("roundtrip", "--input", str(wf_path),
                       "--out", str(tmp_path / "o")) == 1
        assert "contiguous" in capsys.readouterr().err

    def test_negative_seed_in_scenario_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text("variation.seed = -1\n")
        assert run_cli("sweep", "--scenario", str(scen),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "s.txt: invalid scenario" in err
        assert "variation.seed must be a non-negative integer" in err

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--seed", "-5",
                       "--out", str(tmp_path / "o")) == 1
        assert "variation.seed must be a non-negative integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["capture", "sweep"])
    def test_quantizer_count_overflow_exits_1(self, tmp_path, capsys, command):
        scen = tmp_path / "s.txt"
        scen.write_text("quantizer.t_clk_ns = 1e-300\nrun.path = digital\n"
                        "run.channels = 2\narray.rows = 2\nrun.span_ns = 1e10\n"
                        "run.trials = 1\n")
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 1e10)))
        extra = ["--input", str(wf_path)] if command == "capture" else []
        assert run_cli(command, "--scenario", str(scen), *extra,
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err

    def test_t_fine_on_a_counter_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text("quantizer.t_fine_ns = 0.1\n")
        assert run_cli("sweep", "--scenario", str(scen), "--trials", "2",
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "s.txt: invalid scenario" in err
        assert "a counter quantizer takes no t_fine" in err

    def test_trials_past_one_word_spawn_keys_exit_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--trials", "4294967296",
                       "--out", str(tmp_path / "o")) == 1
        assert "run.trials must be at least 1 and below 2**32" in \
            capsys.readouterr().err

    # Device values whose nominal sinh overflows or underflows, or whose
    # write energy's Ei(r_on / amp_a) overflows (10 kohm / 10 ohm is past
    # 709.78), are invalid scenarios; a write level beyond sinh's range
    # fails the run.  Warnings are errors, so a nan energy would fail here.
    @pytest.mark.parametrize("lines, status, message", [
        ("run.v_write = 400.0\n", 1, "beyond the sinh rate's range"),
        ("device.amp_a = 10\n", 2, "amp_a must be above r_on / 709.78"),
        ("device.v_write_nominal = 400.0\n", 2, "sinh(v_write_nominal / v_zero)"),
        ("device.v_zero = 1e-3\n", 2, "sinh(v_write_nominal / v_zero)"),
        ("device.v_zero = 1e300\ndevice.v_write_nominal = 1e-290\n"
         "device.v_prog_threshold = 1e-300\n", 2, "sinh(v_write_nominal / v_zero)")])
    @pytest.mark.parametrize("command", ["capture", "roundtrip", "sweep"])
    def test_sinh_out_of_range_exits_cleanly(self, tmp_path, capsys, command,
                                             lines, status, message):
        scen = tmp_path / "s.txt"
        scen.write_text(lines + "array.rows = 2\nrun.channels = 2\nrun.trials = 2\n")
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 10.0)))
        extra = [] if command == "sweep" else ["--input", str(wf_path)]
        assert run_cli(command, "--scenario", str(scen), *extra,
                       "--out", str(tmp_path / "o")) == status
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.splitlines()) == 1
        if status == 2:
            assert "s.txt: invalid scenario" in err

    # Timing differences whose squares overflow: a span, an input time and
    # a recall line capacitance out of float range for the rms.
    @pytest.mark.parametrize("lines, times, command", [
        ("run.span_ns = 1e160\n", None, "sweep"),
        ("", (0.0, 1e160, 5.0), "roundtrip"),
        ("run.scale_cap = none\narray.c_line_pf = 1e300\n", (0.0, 12.5, 30.0, 40.0),
         "roundtrip")], ids=["span", "input", "c_line"])
    def test_rms_overflow_exits_1(self, tmp_path, capsys, lines, times, command):
        scen = tmp_path / "s.txt"
        scen.write_text(lines + "run.trials = 2\n")
        extra = []
        if times:
            write_wavefront_csv(tmp_path / "in.csv", Wavefront(times))
            extra = ["--input", str(tmp_path / "in.csv")]
        assert run_cli(command, "--scenario", str(scen), *extra,
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the rms timing error overflows")
        assert len(err.splitlines()) == 1

    def test_amp_a_within_the_ei_bound_keeps_its_energies(self, tmp_path, capsys):
        # 10 kohm / 15 ohm is 666.7: the figures the write energy gave
        # before the bound was checked.
        scen = tmp_path / "s.txt"
        scen.write_text("device.amp_a = 15\n")
        wf_path = tmp_path / "in.csv"
        write_wavefront_csv(wf_path, Wavefront((0.0, 12.5, 30.0, 40.0)))
        for command in ("capture", "roundtrip"):
            assert run_cli(command, "--scenario", str(scen), "--input", str(wf_path),
                           "--out", str(tmp_path / command)) == 0
        assert run_cli("sweep", "--scenario", str(scen), "--trials", "3",
                       "--out", str(tmp_path / "sweep")) == 0
        assert "write energy:     16168.15 fJ" in capsys.readouterr().out
        metrics = read_single_row_csv(tmp_path / "roundtrip" / "metrics.csv")
        assert float(metrics["write_energy_fj"]) == 16168.152465545196
        report = read_single_row_csv(tmp_path / "sweep" / "trial_report.csv")
        assert float(report["energy_mean_j"]) == 5.179579657370497e-10

    # Writes that reach Ei's overflow (10 kohm + 15 ohm ln(1 + s / tau) is
    # past 709.78 x 15 ohm long before the 1 Mohm clamp) used to report an
    # energy of inf; so may a stress of 1e300 ns past a 1e-10 ohm clamp.
    @pytest.mark.parametrize("command, lines, times", [
        ("sweep", "device.amp_a = 15\nrun.span_ns = 1e22\n", None),
        ("roundtrip", "device.amp_a = 15\n", (0.0, 1e22)),
        ("capture", "device.amp_a = 15\n", (0.0, 1e300)),
        ("capture", "device.r_on = 1e-12\ndevice.r_off_max = 1e-10\n"
                    "device.amp_a = 1e-11\n", (0.0, 1e300))],
        ids=["sweep", "roundtrip", "capture", "vast_stress"])
    def test_infinite_write_energy_exits_1(self, tmp_path, capsys, command, lines,
                                           times):
        scen = tmp_path / "s.txt"
        scen.write_text(lines + "run.trials = 2\n")
        extra = []
        if times:
            write_wavefront_csv(tmp_path / "in.csv", Wavefront(times))
            extra = ["--input", str(tmp_path / "in.csv")]
        assert run_cli(command, "--scenario", str(scen), *extra,
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the write energy is not finite")
        assert len(err.splitlines()) == 1

    def test_energy_overflowing_fj_exits_1(self, tmp_path, capsys):
        # A write energy of about 2.9e293 J is finite; in fJ it is not.
        write_wavefront_csv(tmp_path / "in.csv", Wavefront((0.0, 1.5e308)))
        out = tmp_path / "o"
        assert run_cli("capture", "--input", str(tmp_path / "in.csv"),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: an energy of ") and "overflows in fJ" in err
        assert len(err.splitlines()) == 1
        assert not (out / "capture_report.txt").exists()

    def test_recall_time_overflow_exits_1(self, tmp_path, capsys):
        # Edge times of 1e308 pF lines overflow; warnings are errors here.
        scen = tmp_path / "s.txt"
        scen.write_text("array.c_line_pf = 1e308\n")
        assert run_cli("recall", "--scenario", str(scen),
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == "error: wavefront times must be finite and non-negative\n"

    # Finite figures with no upper bound print in exponent notation from
    # 1e16 up; in fixed point they ran to some 300 digits.
    @pytest.mark.parametrize("command, lines, times, text", [
        ("capture", "", (0.0, 1e300), "write energy:     1.96e+300 fJ"),
        ("recall", "array.c_line_pf = 1e290\n", None,
         "recalled column 0: span 0.000 ns, 6.0e+292 fJ/line")],
        ids=["capture", "recall"])
    def test_vast_figures_print_short(self, tmp_path, capsys, command, lines,
                                      times, text):
        scen = tmp_path / "s.txt"
        scen.write_text(lines)
        extra = []
        if times:
            write_wavefront_csv(tmp_path / "in.csv", Wavefront(times))
            extra = ["--input", str(tmp_path / "in.csv")]
        assert run_cli(command, "--scenario", str(scen), *extra,
                       "--out", str(tmp_path / "o")) == 0
        assert text in capsys.readouterr().out.splitlines()
        assert command != "capture" or len(text) < 40

    def test_header_only_input_exits_1(self, tmp_path, capsys):
        wf_path = tmp_path / "in.csv"
        wf_path.write_text("channel,time_ns\n")
        assert run_cli("capture", "--input", str(wf_path),
                       "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {wf_path}: no channels\n"

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run_cli("roundtrip", "--input", str(tmp_path / "none.csv"),
                       "--out", str(tmp_path / "o")) == 2


class TestByteOrderMark:
    """Files saved with a UTF-8 byte order mark read as the same files
    without one."""

    def test_scenario(self, tmp_path):
        outs = []
        for encoding in ("utf-8", "utf-8-sig"):
            scen = tmp_path / f"{encoding}.txt"
            scen.write_text("run.trials = 3\nvariation.seed = 9\n", encoding=encoding)
            outs.append(tmp_path / encoding)
            assert run_cli("sweep", "--scenario", str(scen), "--out", str(outs[-1])) == 0
        assert (outs[0] / "trials.csv").read_text().count("\n") == 4
        assert (outs[0] / "trials.csv").read_bytes() == (outs[1] / "trials.csv").read_bytes()

    def test_wavefront_and_grid(self, tmp_path):
        text = "channel,time_ns\n0,0.0\n1,12.5\n2,30.0\n"
        for encoding in ("utf-8", "utf-8-sig"):
            (tmp_path / f"{encoding}.csv").write_text(text, encoding=encoding)
            assert run_cli("capture", "--input", str(tmp_path / f"{encoding}.csv"),
                           "--out", str(tmp_path / f"cap-{encoding}")) == 0
        grid = (tmp_path / "cap-utf-8" / "grid.csv").read_bytes()
        assert (tmp_path / "cap-utf-8-sig" / "grid.csv").read_bytes() == grid
        (tmp_path / "bom-grid.csv").write_bytes(b"\xef\xbb\xbf" + grid)
        for name, path in (("plain", tmp_path / "cap-utf-8" / "grid.csv"),
                           ("bom", tmp_path / "bom-grid.csv")):
            assert run_cli("recall", "--grid", str(path),
                           "--out", str(tmp_path / name)) == 0
        recalled = (tmp_path / "plain" / "wavefront.csv").read_bytes()
        assert recalled.count(b"\n") == 4
        assert (tmp_path / "bom" / "wavefront.csv").read_bytes() == recalled


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        # The child imports the tempmem under test, installed or not.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "tempmem", "calibrate", "--out",
             str(tmp_path / "out")],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "amp_a" in result.stdout
