import csv
import math
import subprocess
import sys

import pytest

from tempmem.cli import main
from tempmem.scenario import _KEYS, Scenario, ScenarioError, parse_scenario_text
from tempmem.wavefront import Wavefront, read_wavefront_csv, write_wavefront_csv

FULL_SCENARIO = """\
# desk-scale default experiment
array.rows = 4
array.cols = 2
array.c_line_pf = 1.0
array.v_read = 0.7746
array.v_dd = 1.8
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
        assert s.quantizer.kind == "vernier"
        assert s.run.path == "digital"
        assert s.run.column == 1
        assert s.variation.seed == 42

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match="line 2.*unknown key"):
            parse_scenario_text("array.rows = 2\narray.bogus = 1\n")

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
        assert parse_scenario_text("run.scale_cap = 2.0\n").run.scale_cap == 2.0
        with pytest.raises(ScenarioError):
            parse_scenario_text("run.scale_cap = -1.0\n")

    def test_inline_comments_allowed(self):
        s = parse_scenario_text("array.rows = 3  # three bit lines\n")
        assert s.array.rows == 3

    def test_sweep_settings_translate_pf(self):
        s = parse_scenario_text("run.scale_cap = 2.0\n")
        assert s.sweep_settings().scale_cap == pytest.approx(2e-12)

    # Every key whose value is not an int or a word takes a float.
    FLOAT_KEYS = [key for key, (convert, _, _) in _KEYS.items()
                  if convert not in (int, str)]

    def test_float_keys_cover_every_section(self):
        assert {key.split(".")[0] for key in self.FLOAT_KEYS} == {
            "array", "device", "variation", "quantizer", "run", "calibrate"}
        assert "run.scale_cap" in self.FLOAT_KEYS

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

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run_cli("roundtrip", "--input", str(tmp_path / "none.csv"),
                       "--out", str(tmp_path / "o")) == 2


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "tempmem", "calibrate", "--out",
             str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "amp_a" in result.stdout
