import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tempmem.crossbar import ArrayConfig, ln_factor, new_array, reset_lines
from tempmem.device import DeviceParams, resistance_of
from tempmem.recording import (CaptureResult, QuantizerSpec, capture_digital,
                               capture_native, default_slope,
                               matched_capacitance, program_closed_loop,
                               quantize, round_trip, write_capture_csv)
from tempmem.wavefront import Wavefront, rank_of

P = DeviceParams()


def cfg_for(n_rows):
    return ArrayConfig(rows=n_rows, cols=1)


class TestQuantize:
    def test_counter_floors_normalized_times(self):
        q = QuantizerSpec(kind="counter", t_clk=1.0)
        out = quantize(Wavefront((0.0, 9.7, 20.3)), q)
        assert out.coarse == (0, 9, 20)
        assert out.fine is None

    def test_all_equal_gives_zeros(self):
        q = QuantizerSpec(kind="counter", t_clk=1.0)
        assert quantize(Wavefront((7.0, 7.0, 7.0)), q).coarse == (0, 0, 0)

    def test_vernier_refines_residue(self):
        q = QuantizerSpec(kind="vernier", t_clk=1.0, t_fine=0.1)
        out = quantize(Wavefront((0.0, 9.7)), q)
        assert out.coarse == (0, 9)
        assert out.fine == (0, 7)

    def test_vernier_effective_counts(self):
        q = QuantizerSpec(kind="vernier", t_clk=1.0, t_fine=0.1)
        out = quantize(Wavefront((0.0, 9.7)), q)
        assert out.effective_counts(q) == pytest.approx((0.0, 9.7))

    def test_unnormalized_input_measures_relative_delay(self):
        q = QuantizerSpec(kind="counter", t_clk=2.0)
        assert quantize(Wavefront((10.0, 14.1, 18.0)), q).coarse == (0, 2, 4)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(kind="sar")
        with pytest.raises(ValueError):
            QuantizerSpec(t_clk=0.0)
        with pytest.raises(ValueError):
            QuantizerSpec(kind="vernier", t_clk=1.0, t_fine=1.0)
        with pytest.raises(ValueError):
            QuantizerSpec(kind="vernier", t_clk=1.0)


class TestCaptureNative:
    def test_reference_wavefront(self):
        cfg = cfg_for(3)
        w = Wavefront((5.0, 25.0, 45.0))
        state, result = capture_native(new_array(cfg, P), cfg, P, 0, w)
        assert result.pulses == (0.0, 20.0, 40.0)
        assert result.final_resistances[0] == P.r_on
        assert result.final_resistances[1] == pytest.approx(25682.761, abs=0.01)
        assert result.final_resistances[2] == pytest.approx(40e3, rel=1e-9)
        assert result.iterations == (1, 1, 1)
        assert result.converged == (True, True, True)

    def test_first_channel_device_untouched(self):
        cfg = cfg_for(3)
        fresh = new_array(cfg, P)
        state, _ = capture_native(fresh, cfg, P, 0, Wavefront((5.0, 25.0, 45.0)))
        assert state.stress[0, 0] == fresh.stress[0, 0] == 0.0
        assert state.resistance[0, 0] == fresh.resistance[0, 0]

    def test_simultaneous_wavefront_leaves_column_on(self):
        cfg = cfg_for(4)
        state, result = capture_native(new_array(cfg, P), cfg, P, 0,
                                       Wavefront((3.0,) * 4))
        assert result.pulses == (0.0,) * 4
        assert all(r == P.r_on for r in result.final_resistances)

    def test_capture_charges_lines_and_sets_enable(self):
        cfg = cfg_for(2)
        state, _ = capture_native(new_array(cfg, P), cfg, P, 0,
                                  Wavefront((0.0, 10.0)))
        assert state.lines_charged

    def test_requires_initialized_column(self):
        cfg = cfg_for(2)
        state, _ = capture_native(new_array(cfg, P), cfg, P, 0,
                                  Wavefront((0.0, 10.0)))
        state = reset_lines(state)
        with pytest.raises(ValueError, match="ON state"):
            capture_native(state, cfg, P, 0, Wavefront((0.0, 10.0)))

    def test_rejects_weak_write_voltage(self):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match="threshold"):
            capture_native(new_array(cfg, P), cfg, P, 0,
                           Wavefront((0.0, 10.0)), v_write=0.5)

    def test_rejects_channel_count_mismatch(self):
        cfg = cfg_for(3)
        with pytest.raises(ValueError, match="channels"):
            capture_native(new_array(cfg, P), cfg, P, 0, Wavefront((0.0, 1.0)))

    def test_out_of_window_span_flags_but_proceeds(self):
        cfg = cfg_for(2)
        _, result = capture_native(new_array(cfg, P), cfg, P, 0,
                                   Wavefront((0.0, 90.0)))
        assert result.window_exceeded
        assert result.final_resistances[1] > P.r_on

    def test_write_energy_matches_quadrature(self):
        cfg = cfg_for(3)
        w = Wavefront((5.0, 25.0, 45.0))
        _, result = capture_native(new_array(cfg, P), cfg, P, 0, w)
        v = P.v_write_nominal
        expected = 0.0
        for dur in (0.0, 20.0, 40.0):
            val, _ = quad(lambda u: v * v / resistance_of(u, P), 0.0, dur, limit=200)
            expected += val * 1e-9
        assert result.write_energy == pytest.approx(expected, rel=1e-9)

    # Times on a quarter-ns grid subtract exactly, making the invariant
    # testable as equality rather than within-ulp closeness.
    @given(st.lists(st.integers(min_value=0, max_value=400), min_size=2,
                    max_size=8))
    def test_pulse_differences_equal_time_differences(self, quarters):
        times = [q / 4.0 for q in quarters]
        cfg = cfg_for(len(times))
        _, result = capture_native(new_array(cfg, P), cfg, P, 0,
                                   Wavefront(tuple(times)))
        for i in range(len(times)):
            for j in range(len(times)):
                assert result.pulses[i] - result.pulses[j] == times[i] - times[j]

    # Femtosecond-grid times: separations below ~1e-14 ns change the
    # stored resistance by less than one ulp of r_on and cannot be
    # resolved by any recall, so "distinct" means distinct at a
    # physically storable separation.
    @given(st.lists(st.integers(min_value=0, max_value=40_000_000), min_size=2,
                    max_size=8, unique=True))
    def test_order_preserved_through_round_trip(self, femtos):
        times = [f * 1e-6 for f in femtos]
        w = Wavefront(tuple(times))
        rt = round_trip(w, cfg_for(len(times)), P)
        assert rank_of(rt.recalled_normalized) == rank_of(w)
        assert rt.tau == 1.0


class TestClosedLoop:
    def test_converges_to_midwindow_target(self):
        cfg = cfg_for(1)
        target = resistance_of(20.0, P)
        _, result = program_closed_loop(new_array(cfg, P), cfg, P, 0, [target],
                                        tol=0.01, step=1.0, max_iters=100)
        assert result.converged == (True,)
        assert result.iterations[0] <= 21
        assert abs(result.final_resistances[0] - target) / target <= 0.01

    def test_on_state_target_needs_no_pulses(self):
        cfg = cfg_for(2)
        _, result = program_closed_loop(new_array(cfg, P), cfg, P, 0,
                                        [P.r_on, P.r_on], tol=0.001)
        assert result.iterations == (0, 0)
        assert result.pulses == (0.0, 0.0)
        assert result.converged == (True, True)

    def test_unreachable_high_target_flags_failure(self):
        cfg = cfg_for(1)
        _, result = program_closed_loop(new_array(cfg, P), cfg, P, 0, [40e3],
                                        tol=0.001, step=1.0, max_iters=5)
        assert result.converged == (False,)
        assert result.iterations == (5,)

    def test_target_below_start_fails_without_burning_iterations(self):
        cfg = cfg_for(1)
        from dataclasses import replace
        grid = replace(P, r_on=np.array([[11e3]]))
        _, result = program_closed_loop(new_array(cfg, grid), cfg, grid, 0,
                                        [10e3], tol=0.001, step=1.0,
                                        max_iters=100)
        assert result.converged == (False,)
        assert result.iterations == (0,)

    def test_overshoot_bounded_by_one_step(self):
        cfg = cfg_for(1)
        # fine tol with a coarse step: the loop may jump past the band,
        # but never by more than one step's resistance change
        target = 17.2e3
        _, result = program_closed_loop(new_array(cfg, P), cfg, P, 0, [target],
                                        tol=1e-4, step=1.0, max_iters=100)
        max_step_dr = P.amp_a * 1.0 / P.tau_w
        assert result.final_resistances[0] <= target * (1 + 1e-4) + max_step_dr

    def test_rejects_bad_targets(self):
        cfg = cfg_for(1)
        with pytest.raises(ValueError):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [-1.0])
        with pytest.raises(ValueError):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [1e3, 2e3])


class TestCaptureDigital:
    def test_counter_targets_on_default_slope(self):
        cfg = cfg_for(4)
        w = Wavefront((0.0, 10.0, 20.0, 40.0))
        q = QuantizerSpec(kind="counter", t_clk=1.0)
        assert default_slope(q.t_clk) == 750.0
        _, result = capture_digital(new_array(cfg, P), cfg, P, 0, w, q,
                                    tol=1e-3, step=0.01, max_iters=8000)
        for got, target in zip(result.final_resistances,
                               [10e3, 17.5e3, 25e3, 40e3]):
            assert abs(got - target) / target <= 1e-3
        assert result.converged == (True,) * 4

    def test_single_channel_needs_no_programming(self):
        cfg = cfg_for(1)
        q = QuantizerSpec()
        _, result = capture_digital(new_array(cfg, P), cfg, P, 0,
                                    Wavefront((12.0,)), q)
        assert result.iterations == (0,)
        assert result.final_resistances == (P.r_on,)

    def test_round_trip_error_bounded_by_quantization(self):
        # floor quantization contributes at most t_clk per channel on top
        # of the verify tolerance
        cfg = cfg_for(4)
        q = QuantizerSpec(kind="counter", t_clk=1.0)
        w = Wavefront((0.0, 9.7, 20.3, 33.4))
        rt = round_trip(w, cfg, P, path="digital", quantizer=q, tol=1e-3,
                        step=0.01, max_iters=8000, scale_cap=None)
        ns_per_count = default_slope(q.t_clk) * cfg.c_line * ln_factor(cfg.theta) * 1e9
        slack = 1e-3 * 40e3 * cfg.c_line * ln_factor(cfg.theta) * 1e9
        assert rt.max_abs_ns <= q.t_clk * ns_per_count + 2 * slack
        assert all(rt.capture.converged)

    def test_window_flag_propagates(self):
        cfg = cfg_for(2)
        q = QuantizerSpec()
        _, result = capture_digital(new_array(cfg, P), cfg, P, 0,
                                    Wavefront((0.0, 90.0)), q, tol=0.01,
                                    step=1.0, max_iters=200)
        assert result.window_exceeded


class TestRoundTrip:
    def test_native_ideal_matched(self):
        w = Wavefront((5.0, 25.0, 45.0, 15.0))
        rt = round_trip(w, cfg_for(4), P)
        assert rt.tau == 1.0
        assert rt.rms_ns <= 0.10 * w.span
        # matched capacitance reproduces the recorded span
        assert rt.recalled_normalized.span == pytest.approx(w.span, rel=1e-9)

    def test_matched_capacitance_formula(self):
        cfg = cfg_for(4)
        w = Wavefront((5.0, 25.0, 45.0, 15.0))
        rt = round_trip(w, cfg, P)
        delta_r = max(rt.capture.final_resistances) - min(rt.capture.final_resistances)
        assert rt.c_used == pytest.approx(
            matched_capacitance(w.span, delta_r, cfg), rel=1e-12)

    def test_digital_path_rms_below_spec_example(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            vals = np.concatenate(([0.0, 40.0], rng.uniform(0, 40, 6)))
            w = Wavefront(tuple(vals[rng.permutation(8)]))
            rt = round_trip(w, cfg_for(8), P, path="digital", tol=1e-3,
                            step=0.01, max_iters=8000)
            assert rt.rms_ns <= 0.8
            assert all(rt.capture.converged)

    def test_all_equal_wavefront(self):
        w = Wavefront((7.0, 7.0, 7.0))
        rt = round_trip(w, cfg_for(3), P)
        assert rt.tau == 1.0
        assert rt.recalled.span == 0.0

    def test_fixed_capacitance_and_explicit_float(self):
        w = Wavefront((0.0, 10.0, 40.0))
        rt_none = round_trip(w, cfg_for(3), P, scale_cap=None)
        rt_same = round_trip(w, cfg_for(3), P, scale_cap=1e-12)
        assert rt_none.c_used == 1e-12
        assert rt_same.recalled == rt_none.recalled

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError, match="path"):
            round_trip(Wavefront((0.0, 1.0)), cfg_for(2), P, path="analog")

    def test_recall_without_reset_is_rejected(self):
        # the round trip inserts the reset; doing it by hand without one fails
        from tempmem.crossbar import recall
        cfg = cfg_for(2)
        state, _ = capture_native(new_array(cfg, P), cfg, P, 0,
                                  Wavefront((0.0, 10.0)))
        with pytest.raises(ValueError, match="reset"):
            recall(state, cfg, 0)


class TestCaptureCsv:
    def test_round_trip(self, tmp_path):
        result = CaptureResult(pulses=(0.0, 20.5), final_resistances=(1e4, 2.5e4),
                               write_energy=1e-12, iterations=(0, 7),
                               converged=(True, True))
        path = tmp_path / "capture.csv"
        write_capture_csv(path, result)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["channel"]) for r in rows] == [0, 1]
        assert tuple(float(r["pulse_ns"]) for r in rows) == result.pulses
        assert tuple(float(r["resistance_ohm"]) for r in rows) == \
            result.final_resistances
        assert tuple(int(r["iterations"]) for r in rows) == result.iterations
