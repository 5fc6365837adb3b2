import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tempmem import device
from tempmem.crossbar import ArrayConfig, ln_factor, new_array, reset_lines
from tempmem.device import DeviceParams
from tempmem.recording import (CaptureResult, QuantizerSpec, SweepSettings,
                               capture, capture_digital, capture_native,
                               default_slope, matched_capacitance,
                               program_closed_loop, quantize, round_trip,
                               write_capture_csv)
from tempmem.variability import VariationSpec, c2c_noise, sample_array

from reference_law import DeviceState, apply_pulse, pulse_energy, resistance_of
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


def one_pulse(pulse_noise, duration):
    """One call of the noise on a one-element array: a single draw."""
    return float(pulse_noise(np.array([duration]))[0])


def reference_closed_loop(params, col, targets, *, tol, step, max_iters,
                          pulse_noise=None):
    """The closed loop pulse by pulse through the scalar device law, one
    noise call per pulse."""
    v = -params.v_write_nominal
    pulses, finals, iterations, converged = [], [], [], []
    energy = 0.0
    for i, target in enumerate(targets):
        p = replace(params, r_on=float(np.asarray(params.r_on)[i, col])) \
            if np.ndim(params.r_on) else params
        dev = DeviceState(0.0, p.r_on)
        applied, iters = 0.0, 0
        while abs(dev.resistance - target) / target > tol:
            if dev.resistance > target * (1.0 + tol) or iters >= max_iters:
                break
            dur = one_pulse(pulse_noise, step) if pulse_noise is not None else step
            energy += pulse_energy(dev, v, dur, p)
            dev = apply_pulse(dev, v, dur, p)
            applied += dur
            iters += 1
        pulses.append(applied)
        finals.append(dev.resistance)
        iterations.append(iters)
        converged.append(abs(dev.resistance - target) / target <= tol)
    return CaptureResult(tuple(pulses), tuple(finals), energy,
                         tuple(iterations), tuple(converged))


def reference_native(params, col, w, pulse_noise=None):
    """Native capture device by device through the scalar device law."""
    v = -params.v_write_nominal
    t0 = min(w.times)
    pulses, finals = [], []
    energy = 0.0
    for i, t in enumerate(w.times):
        p = replace(params, r_on=float(np.asarray(params.r_on)[i, col])) \
            if np.ndim(params.r_on) else params
        dev = DeviceState(0.0, p.r_on)
        dur = t - t0 if pulse_noise is None else one_pulse(pulse_noise, t - t0)
        energy += pulse_energy(dev, v, dur, p)
        pulses.append(dur)
        finals.append(apply_pulse(dev, v, dur, p).resistance)
    return pulses, finals, energy


class LoggedNoise:
    """A pulse noise that counts its calls and keeps every duration it
    has handed out, in order."""

    def __init__(self, noise):
        self.noise, self.calls, self.drawn = noise, 0, []

    def __call__(self, durations):
        out = self.noise(durations)
        self.calls += 1
        self.drawn.extend(out.tolist())
        return out


def assert_same_capture(got, want):
    assert got.pulses == want.pulses
    assert got.final_resistances == want.final_resistances
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.write_energy == want.write_energy


class TestKernelsMatchScalarLaw:
    """The array kernels give exactly what the scalar law gives."""

    def run_both(self, params, targets, col=0, cols=1, noise_seed=None,
                 make_noise=None, **kw):
        """The block kernel against the reference; with noise, also the
        durations each drew.  Returns the kernel's result and noise."""
        cfg = ArrayConfig(rows=len(targets), cols=cols)
        if noise_seed is not None:
            spec = VariationSpec(c2c_sigma=0.2)
            make_noise = lambda: c2c_noise(spec, np.random.default_rng(noise_seed))
        noises = [None, None]
        if make_noise is not None:
            noises = [LoggedNoise(make_noise()), LoggedNoise(make_noise())]
        state, got = program_closed_loop(new_array(cfg, params), cfg, params,
                                         col, targets, pulse_noise=noises[0],
                                         **kw)
        want = reference_closed_loop(params, col, targets,
                                     pulse_noise=noises[1], **kw)
        assert_same_capture(got, want)
        assert state.resistance[:, col].tolist() == list(want.final_resistances)
        if make_noise is not None:
            block, single = noises
            assert single.calls == sum(want.iterations)
            # The kernel draws what the pulses use, in order, then at most
            # some read-ahead it leaves unused.
            assert block.drawn[:single.calls] == single.drawn
            assert block.calls <= max(1, single.calls)
        return got, noises[0]

    def test_d2d_grid_with_c2c_noise(self):
        grid = sample_array(P, VariationSpec(d2d_sigma=0.05), 6, 3,
                            np.random.default_rng(7))
        targets = [10e3, 12e3, 17.5e3, 25e3, 33.3e3, 40e3]
        got, _ = self.run_both(grid, targets, col=2, cols=3, noise_seed=11,
                               tol=1e-3, step=0.05, max_iters=3000)
        assert sum(got.iterations) > 1000

    # At r_off_max = 35011.01752498446 the law gives one ulp less than
    # r_off_max at the clamp stress, so splitting a pulse there matters.
    CLAMPS = [20e3, 35011.01752498446]

    @pytest.mark.parametrize("r_off_max", CLAMPS)
    def test_trajectory_crossing_the_clamp(self, r_off_max):
        params = replace(P, r_off_max=r_off_max)
        got, _ = self.run_both(params, [15e3, 50e3, 60e3], tol=1e-3, step=1.0,
                               max_iters=80)
        assert got.final_resistances[1:] == (r_off_max, r_off_max)
        assert got.iterations[1:] == (80, 80)

    def test_device_starting_above_its_band(self):
        grid = replace(P, r_on=np.array([[13e3], [10e3]]))
        got, _ = self.run_both(grid, [12e3, 12e3], tol=1e-3, step=0.5,
                               max_iters=100)
        assert got.iterations[0] == 0 and got.converged[0] is False

    def test_max_iters_exhaustion(self):
        got, _ = self.run_both(P, [30e3, 40e3], noise_seed=3, tol=1e-4,
                               step=0.1, max_iters=25)
        assert got.iterations == (25, 25)
        assert got.converged == (False, False)

    def test_zero_length_pulses(self):
        got, _ = self.run_both(P, [20e3, 15e3],
                               make_noise=lambda: np.zeros_like, tol=1e-3,
                               step=1.0, max_iters=40)
        assert got.iterations == (40, 40)
        assert got.write_energy == 0.0
        # zero-length pulses between real ones, and leading a block
        def make_noise():
            lengths = itertools.cycle([0.0, 0.3, 0.0, 0.0, 0.7])
            return lambda d: np.array([next(lengths) for _ in range(d.size)])
        self.run_both(P, [20e3, 15e3], make_noise=make_noise, tol=1e-3,
                      step=1.0, max_iters=400)

    def test_zero_length_pulses_keep_the_starting_resistance(self):
        # The column holds 10 kohm at zero stress, but the params say
        # 13 kohm, above the 12 kohm band: zero-length pulses leave the read
        # resistance at 10 kohm, and only the first real pulse moves it.
        cfg = cfg_for(1)
        params = replace(P, r_on=13e3)
        lengths = iter([0.0, 0.0, 0.3] + [1.0] * 20)
        noise = lambda d: np.array([next(lengths) for _ in range(d.size)])
        _, got = program_closed_loop(new_array(cfg, P), cfg, params, 0, [12e3],
                                     tol=1e-3, step=1.0, max_iters=20,
                                     pulse_noise=noise)
        assert got.iterations == (3,) and got.pulses == (0.3,)
        assert got.final_resistances == (resistance_of(0.3, params),)
        assert got.write_energy == pulse_energy(DeviceState(0.0, 13e3), -1.4,
                                                0.3, params)

    def test_stateful_noise_across_devices_stopping_mid_block(self):
        # Each device stops inside its block; the draws it leaves go to
        # the next device, and the last device's are read ahead.
        got, noise = self.run_both(P, [17e3, 25e3, 12e3, 30e3, 20e3],
                                   noise_seed=21, tol=3e-3, step=0.05,
                                   max_iters=3000)
        assert got.converged == (True,) * 5
        assert len(noise.drawn) > sum(got.iterations)
        assert noise.calls < 2 * len(got.iterations)

    def test_device_in_band_between_long_ones(self):
        # The middle device starts in its band: it takes no pulse and no
        # draw, and the first device's spare draws pass it by.
        grid = replace(P, r_on=np.array([[10e3], [20e3], [10e3]]))
        got, _ = self.run_both(grid, [30e3, 20e3, 32e3], noise_seed=4,
                               tol=1e-3, step=0.05, max_iters=3000)
        assert got.iterations[1] == 0 and got.converged[1] is True
        assert min(got.iterations[0], got.iterations[2]) > 300

    def test_max_iters_cap_mid_block(self):
        # Pulses at half the nominal length: each block's noiseless
        # estimate falls short, so a device needs several blocks, and the
        # second device's budget runs out inside what would be its next.
        def make_noise():
            c2c = c2c_noise(VariationSpec(c2c_sigma=0.2), np.random.default_rng(8))
            return lambda d: 0.5 * c2c(d)
        got, noise = self.run_both(P, [15e3, 30e3, 16e3], make_noise=make_noise,
                                   tol=1e-3, step=0.05, max_iters=600)
        assert got.iterations[1] == 600
        assert got.converged == (True, False, True)
        assert noise.calls > 3

    def test_negative_duration_raises_before_the_law_runs(self, monkeypatch):
        # The negative duration sits in the block's margin, past the pulse
        # where the device would stop; the whole block is checked first.
        def law(*args):
            raise AssertionError("the device law ran")
        monkeypatch.setattr(device, "per_element", law)
        cfg = cfg_for(1)
        last_negative = lambda d: np.where(np.arange(d.size) == d.size - 1, -1.0, d)
        with pytest.raises(ValueError, match="non-negative"):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3], tol=1e-3,
                                step=0.05, pulse_noise=last_negative)

    def test_negative_noise_raises(self):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match="non-negative"):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3, 20e3],
                                pulse_noise=lambda d: -d)
        with pytest.raises(ValueError, match="non-negative"):
            capture_native(new_array(cfg, P), cfg, P, 0, Wavefront((0.0, 5.0)),
                           pulse_noise=lambda d: d - 1.0)

    def test_noise_giving_the_wrong_count_raises(self):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match="one duration per pulse"):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3, 20e3],
                                pulse_noise=lambda d: d[:-1])
        with pytest.raises(ValueError, match="one duration per pulse"):
            capture_native(new_array(cfg, P), cfg, P, 0, Wavefront((0.0, 5.0)),
                           pulse_noise=lambda d: d[:1])

    @pytest.mark.parametrize("r_off_max", [1e6] + CLAMPS)
    def test_native_column(self, r_off_max):
        rng = np.random.default_rng(5)
        grid = sample_array(replace(P, r_off_max=r_off_max),
                            VariationSpec(d2d_sigma=0.05), 8, 2, rng)
        w = Wavefront(tuple(rng.uniform(0.0, 90.0, 8)))
        spec = VariationSpec(c2c_sigma=0.1)
        cfg = ArrayConfig(rows=8, cols=2)
        state, got = capture_native(new_array(cfg, grid), cfg, grid, 1, w,
                                    pulse_noise=c2c_noise(spec, np.random.default_rng(1)))
        pulses, finals, energy = reference_native(
            grid, 1, w, c2c_noise(spec, np.random.default_rng(1)))
        assert got.pulses == tuple(pulses)
        assert got.final_resistances == tuple(finals)
        assert got.write_energy == energy
        assert state.resistance[:, 1].tolist() == finals
        if r_off_max < 1e6:
            assert finals.count(r_off_max) >= 2


class TestClosedLoopArguments:
    @pytest.mark.parametrize("kw", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1.0},
        {"step": math.nan}, {"step": math.inf}, {"step": 0.0},
        {"max_iters": -1}, {"max_iters": 2.5}, {"v_write": math.nan}, {"v_write": math.inf},
        {"v_write": 0.5},
    ])
    def test_rejected(self, kw):
        cfg = cfg_for(2)
        with pytest.raises(ValueError):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3, 20e3], **kw)

    def test_zero_max_iters_pulses_nothing(self):
        cfg = cfg_for(1)
        _, result = program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3],
                                        max_iters=0)
        assert result.iterations == (0,) and result.converged == (False,)


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
        rt = round_trip(w, cfg, P, SweepSettings(
            path="digital", quantizer=q, tol=1e-3, step_ns=0.01,
            max_iters=8000, scale_cap="none"))
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
            rt = round_trip(w, cfg_for(8), P, SweepSettings(
                path="digital", tol=1e-3, step_ns=0.01, max_iters=8000))
            assert rt.rms_ns <= 0.8
            assert all(rt.capture.converged)

    def test_all_equal_wavefront(self):
        w = Wavefront((7.0, 7.0, 7.0))
        rt = round_trip(w, cfg_for(3), P)
        assert rt.tau == 1.0
        assert rt.recalled.span == 0.0

    def test_fixed_capacitance_and_explicit_float(self):
        w = Wavefront((0.0, 10.0, 40.0))
        rt_none = round_trip(w, cfg_for(3), P, SweepSettings(scale_cap="none"))
        rt_same = round_trip(w, cfg_for(3), P, SweepSettings(scale_cap=1e-12))
        assert rt_none.c_used == 1e-12
        assert rt_same.recalled == rt_none.recalled

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError, match="path"):
            round_trip(Wavefront((0.0, 1.0)), cfg_for(2), P,
                       SweepSettings(path="analog"))

    def test_recall_without_reset_is_rejected(self):
        # the round trip inserts the reset; doing it by hand without one fails
        from tempmem.crossbar import recall
        cfg = cfg_for(2)
        state, _ = capture_native(new_array(cfg, P), cfg, P, 0,
                                  Wavefront((0.0, 10.0)))
        with pytest.raises(ValueError, match="reset"):
            recall(state, cfg, 0)


class TestSweepSettings:
    """A settings value built in code is checked as a scenario's run
    section is; a nan window_ns, say, would hide every window overrun."""

    @pytest.mark.parametrize("field, value", [
        ("window_ns", math.nan), ("window_ns", -1.0), ("window_ns", math.inf),
        ("path", "analog"), ("span_ns", -5.0), ("span_ns", math.nan),
        ("scale_cap", 0.0), ("scale_cap", -1e-12), ("scale_cap", math.inf),
        ("scale_cap", None), ("scale_cap", "Matched"), ("tol", 0.0),
        ("step_ns", math.nan), ("max_iters", -3), ("column", -1),
        ("v_write", 0.0), ("trials", 0), ("channels", 0), ("workers", 0),
        ("slope", 0.0), ("slope", math.nan)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSettings(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("column", 0.5), ("trials", 2.5), ("channels", 2.5),
        ("max_iters", 10.5), ("workers", 1.5)])
    def test_rejects_non_integral_count(self, field, value):
        with pytest.raises(ValueError, match=f"run.{field} must be an integer"):
            SweepSettings(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        s = SweepSettings(column=np.int64(1), trials=np.int32(3),
                          channels=np.uint8(4), max_iters=np.int64(7),
                          workers=np.int16(2))
        assert (s.column, s.trials, s.channels, s.max_iters, s.workers) == \
            (1, 3, 4, 7, 2)

    def test_one_class_everywhere(self):
        import tempmem
        from tempmem import variability
        assert variability.SweepSettings is SweepSettings
        assert tempmem.SweepSettings is SweepSettings

    def test_capture_reads_column_and_route_from_settings(self):
        cfg = ArrayConfig(rows=2, cols=3)
        w = Wavefront((0.0, 10.0))
        for path in ("native", "digital"):
            state, result = capture(new_array(cfg, P), cfg, P, w,
                                    SweepSettings(path=path, column=2))
            assert state.resistance[1, 2] == result.final_resistances[1] > P.r_on
            assert (state.stress[:, :2] == 0.0).all()
        assert result.iterations[1] > 1  # the closed loop ran


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
