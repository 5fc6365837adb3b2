import csv
import itertools
import math
from dataclasses import replace
from functools import partial, reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from tempmem import device
from tempmem.crossbar import ArrayConfig, ln_factor, new_array, recall
from tempmem.device import DeviceParams
from tempmem.recording import (CaptureResult, QuantizerSpec, SweepSettings,
                               capture, capture_native, default_slope,
                               matched_capacitance, program_closed_loop,
                               quantize, recall_and_score, round_trip,
                               write_capture_csv, _BLOCK_MAX, _block_size)
from tempmem.variability import VariationSpec, perturb_pulse, sample_array

from reference_law import (DeviceState, apply_pulse, pulse_energy, reset_energy,
                           resistance_of)
from tempmem.wavefront import Wavefront, normalize, rank_of

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

    def test_count_beyond_a_float_raises(self):
        q = QuantizerSpec(kind="counter", t_clk=1e-300)
        with pytest.raises(ValueError, match="overflows"):
            quantize(Wavefront((0.0, 1e10)), q)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(kind="sar")
        with pytest.raises(ValueError):
            QuantizerSpec(t_clk=0.0)
        with pytest.raises(ValueError):
            QuantizerSpec(kind="vernier", t_clk=1.0, t_fine=1.0)
        with pytest.raises(ValueError):
            QuantizerSpec(kind="vernier", t_clk=1.0)

    def test_counter_takes_no_t_fine(self):
        with pytest.raises(ValueError, match="a counter quantizer takes no t_fine"):
            QuantizerSpec(kind="counter", t_clk=1.0, t_fine=0.1)


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
        assert state[0, 0] == fresh[0, 0] == P.r_on

    def test_simultaneous_wavefront_leaves_column_on(self):
        cfg = cfg_for(4)
        state, result = capture_native(new_array(cfg, P), cfg, P, 0,
                                       Wavefront((3.0,) * 4))
        assert result.pulses == (0.0,) * 4
        assert all(r == P.r_on for r in result.final_resistances)

    def test_requires_initialized_column(self):
        cfg = cfg_for(2)
        state, _ = capture_native(new_array(cfg, P), cfg, P, 0,
                                  Wavefront((0.0, 10.0)))
        with pytest.raises(ValueError, match="ON state"):
            capture_native(state, cfg, P, 0, Wavefront((0.0, 10.0)))
        with pytest.raises(ValueError, match="ON state"):
            program_closed_loop(state, cfg, P, 0, [20e3, 20e3])
        with pytest.raises(ValueError, match="ON state"):
            capture(state, cfg, P, Wavefront((0.0, 10.0)),
                    SweepSettings(path="digital"))

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
        assert rank_of(normalize(rt.recalled)) == rank_of(w)
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

    def test_defaults_are_sweep_settings(self):
        # The sixth 1 ns pulse toward 15 kohm stops 0.9% short: inside a 1%
        # band but not a 0.1% one, so a looser default tol stops there.
        cfg = cfg_for(1)
        s = SweepSettings()
        _, got = program_closed_loop(new_array(cfg, P), cfg, P, 0, [15e3])
        _, want = program_closed_loop(new_array(cfg, P), cfg, P, 0, [15e3], tol=s.tol,
                                      step=s.step_ns, max_iters=s.max_iters)
        assert got == want
        _, loose = program_closed_loop(new_array(cfg, P), cfg, P, 0, [15e3], tol=0.01)
        assert loose != want

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
                          v_write=None, pulse_noise=None, pulse_by_pulse=False):
    """The closed loop pulse by pulse through the scalar device law at
    v_write (nominal by default), one noise call per pulse.  The write
    energy integrates each device's RESET energy once, over its trajectory
    from (0, r_on) to its final stress and resistance, summed in device
    order; with `pulse_by_pulse` it is instead the sum of every pulse's
    `pulse_energy` in pulse order."""
    v = -(params.v_write_nominal if v_write is None else v_write)
    rate = device.programming_rate(v, params)
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
            if pulse_by_pulse:
                energy += pulse_energy(dev, v, dur, p)
            dev = apply_pulse(dev, v, dur, p)
            applied += dur
            iters += 1
        if not pulse_by_pulse:
            energy += float(reset_energy(
                np.array([0.0, dev.stress]), np.array([p.r_on, dev.resistance]),
                v, rate, p.r_on, p)[0])
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
        self.noise, self.calls, self.drawn, self.sizes = noise, 0, [], []

    def __call__(self, durations):
        out = self.noise(durations)
        self.calls += 1
        self.drawn.extend(out.tolist())
        self.sizes.append(durations.size)
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
                 make_noise=None, v_write=None, **kw):
        """The block kernel against the reference, both at v_write; with
        noise, also the durations each drew.  Returns the kernel's result
        and noise."""
        cfg = ArrayConfig(rows=len(targets), cols=cols)
        if noise_seed is not None:
            spec = VariationSpec(c2c_sigma=0.2)
            make_noise = lambda: partial(perturb_pulse, spec=spec,
                                         rng=np.random.default_rng(noise_seed))
        noises = [None, None]
        if make_noise is not None:
            noises = [LoggedNoise(make_noise()), LoggedNoise(make_noise())]
        state, got = program_closed_loop(new_array(cfg, params), cfg, params,
                                         col, targets, pulse_noise=noises[0],
                                         v_write=v_write, **kw)
        want = reference_closed_loop(params, col, targets, v_write=v_write,
                                     pulse_noise=noises[1], **kw)
        assert_same_capture(got, want)
        assert state[:, col].tolist() == list(want.final_resistances)
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

    # Steps of about 0.03 ns of stress at each level.
    @pytest.mark.parametrize("v_write, step", [(1.0, 0.1), (1.2, 0.05), (2.0, 0.005)])
    def test_write_level_off_nominal(self, v_write, step):
        # Off rate 1 a pulse total is not its device's stress: it is
        # folded from the applied durations apart.
        got, _ = self.run_both(P, [15e3, 25e3, 2 * P.r_off_max], noise_seed=5,
                               tol=1e-3, step=step, max_iters=2000, v_write=v_write)
        assert got.converged == (True, True, False)
        assert got.iterations[2] == 2000

    def test_column_off_the_params_r_on_is_not_on(self):
        # The column holds P's 10 kohm, but these params put r_on at
        # 13 kohm: a write starts from r_on, so the column is not ON.
        cfg = cfg_for(1)
        params = replace(P, r_on=13e3)
        with pytest.raises(ValueError, match="ON state"):
            program_closed_loop(new_array(cfg, P), cfg, params, 0, [12e3],
                                tol=1e-3, step=1.0, max_iters=20)
        with pytest.raises(ValueError, match="ON state"):
            capture_native(new_array(cfg, P), cfg, params, 0, Wavefront((0.0,)))

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
            c2c = partial(perturb_pulse, spec=VariationSpec(c2c_sigma=0.2),
                          rng=np.random.default_rng(8))
            return lambda d: 0.5 * c2c(d)
        targets = [15e3, 30e3, 16e3]
        got, _ = self.run_both(P, targets, make_noise=make_noise, tol=1e-3,
                               step=0.05, max_iters=600)
        assert got.iterations[1] == 600
        assert got.converged == (True, False, True)
        # Each device applies more pulses than its first, noiseless, block.
        firsts = [_block_size(float(device.stress_at(t * (1 - 1e-3), P.r_on, P))
                              / 0.05, 600) for t in targets]
        assert all(n > first for n, first in zip(got.iterations, firsts))

    def test_no_call_asks_for_more_than_block_max(self):
        # Two devices with targets beyond the clamp and budgets past
        # _BLOCK_MAX: each block is all the pulses its budget has left, up
        # to _BLOCK_MAX, so the calls draw no more than the pulses.
        budget = _BLOCK_MAX + 1000
        cfg = cfg_for(2)
        noise = LoggedNoise(partial(perturb_pulse, spec=VariationSpec(),
                                    rng=np.random.default_rng(9)))
        _, got = program_closed_loop(new_array(cfg, P), cfg, P, 0,
                                     [2 * P.r_off_max] * 2, tol=1e-3, step=0.01,
                                     max_iters=budget, pulse_noise=noise)
        assert got.iterations == (budget,) * 2 and not any(got.converged)
        assert max(noise.sizes) <= _BLOCK_MAX and sum(noise.sizes) == 2 * budget
        # Device k applies the stream's draws budget k to budget (k + 1) - 1,
        # in order; at the nominal write level its stress is their sum.
        for k, (applied, r) in enumerate(zip(got.pulses, got.final_resistances)):
            assert applied == reduce(add, noise.drawn[budget * k:budget * (k + 1)],
                                     0.0)
            assert r == resistance_of(applied, P)

    def test_draws_past_the_pulses_stay_within_one_block(self):
        # Converging, above-band and unreachable devices share one stream.
        # The unreachable device's block is its whole budget, all applied,
        # so it leaves no draw; a block of a later device is at most its
        # noiseless first one, and its last pulse is applied.
        grid = replace(P, r_on=np.array([[10e3], [10e3], [13e3], [10e3], [10e3]]))
        targets = [20e3, 2 * P.r_off_max, 12e3, 25e3, 15e3]
        kw = dict(noise_seed=6, tol=3e-3, step=0.05, max_iters=3000)
        got, noise = self.run_both(grid, targets, **kw)
        assert got.converged == (True, False, False, True, True)
        assert got.iterations[1:3] == (3000, 0)
        firsts = [_block_size(float(device.stress_at(t * (1 - 3e-3), 10e3, P))
                              / 0.05, 3000) for t in targets[3:]]
        assert 0 < len(noise.drawn) - sum(got.iterations) < max(firsts)
        # A column that ends on the unreachable device leaves the stream
        # where pulse-by-pulse calls would.
        got, noise = self.run_both(replace(grid, r_on=grid.r_on[:2]),
                                   targets[:2], **kw)
        assert len(noise.drawn) == sum(got.iterations)

    def test_negative_duration_raises_before_the_law_runs(self, monkeypatch):
        # The negative duration sits in the block's margin, past the pulse
        # where the device would stop; the whole block is checked first.
        def law(*args):
            raise AssertionError("the device law ran")
        monkeypatch.setattr(device, "resistance", law)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_noise_raises_in_capture_native(self, bad):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match="non-negative and finite"):
            capture_native(new_array(cfg, P), cfg, P, 0, Wavefront((0.0, 5.0)),
                           pulse_noise=lambda d: np.where(d > 0, bad, d))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_noise_raises_in_closed_loop(self, bad):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match="non-negative and finite"):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3, 20e3],
                                pulse_noise=lambda d: np.full(d.shape, bad))

    def test_noise_giving_the_wrong_count_raises(self):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match="one duration per pulse"):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3, 20e3],
                                pulse_noise=lambda d: d[:-1])
        with pytest.raises(ValueError, match="one duration per pulse"):
            capture_native(new_array(cfg, P), cfg, P, 0, Wavefront((0.0, 5.0)),
                           pulse_noise=lambda d: d[..., :1])

    @pytest.mark.parametrize("r_off_max", [1e6] + CLAMPS)
    def test_native_column(self, r_off_max):
        rng = np.random.default_rng(5)
        grid = sample_array(replace(P, r_off_max=r_off_max),
                            VariationSpec(d2d_sigma=0.05), 8, 2, rng)
        w = Wavefront(tuple(rng.uniform(0.0, 90.0, 8)))
        spec = VariationSpec(c2c_sigma=0.1)
        cfg = ArrayConfig(rows=8, cols=2)
        state, got = capture_native(
            new_array(cfg, grid), cfg, grid, 1, w,
            pulse_noise=partial(perturb_pulse, spec=spec, rng=np.random.default_rng(1)))
        pulses, finals, energy = reference_native(
            grid, 1, w, partial(perturb_pulse, spec=spec, rng=np.random.default_rng(1)))
        assert got.pulses == tuple(pulses)
        assert got.final_resistances == tuple(finals)
        assert got.write_energy == energy
        assert state[:, 1].tolist() == finals
        if r_off_max < 1e6:
            assert finals.count(r_off_max) >= 2

    @staticmethod
    def draw_target(data, r_on, r_off_max, tol):
        """A target whose band lies below the device's start, around it, on
        the way up, at the clamp, with its bottom at the clamp, or beyond."""
        kind = data.draw(st.sampled_from(["below", "around", "reach", "clamp",
                                          "band_at_clamp", "beyond"]))
        u = data.draw(st.floats(0.0, 1.0))
        return {"below": r_on / (1.0 + tol) * (1.0 - 0.5 * u),
                "around": r_on * (1.0 + tol * (u - 0.5)),
                "reach": r_on + u * (r_off_max - r_on),
                "clamp": r_off_max,
                "band_at_clamp": r_off_max / (1.0 - tol),
                "beyond": r_off_max * (1.0 + u)}[kind]

    @staticmethod
    def draw_noise(data):
        """None, c2c noise, c2c noise at half length, or a repeating pattern
        of length factors that may hold zeros."""
        kind = data.draw(st.sampled_from(["none", "c2c", "half", "pattern"]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        c2c = lambda: partial(perturb_pulse, spec=VariationSpec(c2c_sigma=0.2),
                              rng=np.random.default_rng(seed))
        if kind == "c2c":
            return c2c
        if kind == "half":
            return lambda: (lambda d, noise=c2c(): 0.5 * noise(d))
        if kind == "pattern":
            factors = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                         min_size=1, max_size=5))
            def make_noise():
                lengths = itertools.cycle(factors)
                return lambda d: d * np.array([next(lengths) for _ in range(d.size)])
            return make_noise
        return None

    # The kernel evaluates the law only from each device's guard stress
    # on; these draws put the guard below the start, on the way and at the
    # clamp, with blocks that end short of it.
    @settings(max_examples=60, deadline=None)
    @given(r_off_max=st.sampled_from([1e6] + CLAMPS), tol=st.floats(1e-4, 0.5),
           step=st.floats(0.005, 1.0), max_iters=st.integers(0, 2000),
           data=st.data())
    def test_guard_skips_no_stopping_pulse(self, r_off_max, tol, step,
                                           max_iters, data):
        rows = data.draw(st.integers(1, 4))
        r_ons = [data.draw(st.sampled_from([10e3, 13e3, r_off_max * (1 - 1e-10)]))
                 for _ in range(rows)]
        params = replace(P, r_off_max=r_off_max, r_on=np.array([r_ons]).T)
        targets = [self.draw_target(data, r_on, r_off_max, tol) for r_on in r_ons]
        # Rate 1 folds each pulse total with the stress; other rates apart.
        v_write = data.draw(st.one_of(
            st.sampled_from([None, P.v_write_nominal]),
            st.floats(P.v_prog_threshold, P.v_write_nominal, exclude_max=True),
            st.floats(P.v_write_nominal, 2 * P.v_write_nominal, exclude_min=True)))
        self.run_both(params, targets, make_noise=self.draw_noise(data), tol=tol,
                      step=step, max_iters=max_iters, v_write=v_write)

    @pytest.mark.parametrize("sigma", [0.0, 0.042])
    def test_energy_near_the_pulse_by_pulse_sum(self, sigma):
        # At criterion 6's settings, one integral per device moves only the
        # last bits of the energy summed pulse by pulse.
        cfg, q = cfg_for(8), QuantizerSpec(kind="counter", t_clk=1.0)
        rng = np.random.default_rng(4)
        for seed in range(2):
            vals = np.concatenate(([0.0, 40.0], rng.uniform(0.0, 40.0, 6)))
            w = Wavefront(tuple(vals[rng.permutation(8)]))
            targets = [P.r_on + default_slope(q.t_clk) * c
                       for c in quantize(w, q).effective_counts(q)]
            kw = dict(tol=1e-3, step=0.01, max_iters=8000)
            noises = [partial(perturb_pulse, spec=VariationSpec(c2c_sigma=sigma),
                              rng=np.random.default_rng(seed)) for _ in range(2)]
            _, got = program_closed_loop(new_array(cfg, P), cfg, P, 0, targets,
                                         pulse_noise=noises[0], **kw)
            want = reference_closed_loop(P, 0, targets, pulse_noise=noises[1],
                                         pulse_by_pulse=True, **kw)
            assert got.iterations == want.iterations
            assert got.write_energy == pytest.approx(want.write_energy,
                                                     rel=1e-12, abs=0)


class TestClosedLoopArguments:
    # The arguments are checked as the settings they become are, so each
    # message names the settings field.
    @pytest.mark.parametrize("kw, match", [
        ({"tol": math.nan}, "run.tol"), ({"tol": math.inf}, "run.tol"),
        ({"tol": 0.0}, "run.tol"), ({"tol": -1.0}, "run.tol"),
        ({"step": math.nan}, "run.step_ns"), ({"step": math.inf}, "run.step_ns"),
        ({"step": 0.0}, "run.step_ns"),
        ({"max_iters": -1}, "run.max_iters"), ({"max_iters": 2.5}, "run.max_iters"),
        ({"v_write": math.nan}, "run.v_write"), ({"v_write": math.inf}, "run.v_write"),
        ({"v_write": 0.5}, "threshold"),
    ])
    def test_rejected(self, kw, match):
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match=match):
            program_closed_loop(new_array(cfg, P), cfg, P, 0, [20e3, 20e3], **kw)

    @pytest.mark.parametrize("kw, match", [
        ({"window_ns": math.nan}, "run.window_ns"),
        ({"v_write": math.nan}, "run.v_write"),
    ])
    def test_capture_native_rejected(self, kw, match):
        # A nan window would compare false with every span and hide every
        # overrun.
        cfg = cfg_for(2)
        with pytest.raises(ValueError, match=match):
            capture_native(new_array(cfg, P), cfg, P, 0, Wavefront((0.0, 5.0)), **kw)

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
        _, result = capture(new_array(cfg, P), cfg, P, w, SweepSettings(
            path="digital", quantizer=q, tol=1e-3, step_ns=0.01, max_iters=8000))
        for got, target in zip(result.final_resistances,
                               [10e3, 17.5e3, 25e3, 40e3]):
            assert abs(got - target) / target <= 1e-3
        assert result.converged == (True,) * 4

    def test_single_channel_needs_no_programming(self):
        cfg = cfg_for(1)
        q = QuantizerSpec()
        _, result = capture(new_array(cfg, P), cfg, P, Wavefront((12.0,)),
                            SweepSettings(path="digital", quantizer=q, tol=0.01))
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
        _, result = capture(new_array(cfg, P), cfg, P, Wavefront((0.0, 90.0)),
                            SweepSettings(path="digital", quantizer=q, tol=0.01,
                                          step_ns=1.0, max_iters=200))
        assert result.window_exceeded


class TestRoundTrip:
    def test_native_ideal_matched(self):
        w = Wavefront((5.0, 25.0, 45.0, 15.0))
        rt = round_trip(w, cfg_for(4), P)
        assert rt.tau == 1.0
        assert rt.rms_ns <= 0.10 * w.span
        # matched capacitance reproduces the recorded span
        assert normalize(rt.recalled).span == pytest.approx(w.span, rel=1e-9)

    def test_matched_capacitance_formula(self):
        cfg = cfg_for(4)
        w = Wavefront((5.0, 25.0, 45.0, 15.0))
        rt = round_trip(w, cfg, P)
        delta_r = max(rt.capture.final_resistances) - min(rt.capture.final_resistances)
        assert rt.c_used == pytest.approx(
            matched_capacitance(w.span, delta_r, cfg), rel=1e-12)

    def test_overflowing_matched_capacitance_raises_without_warning(self):
        # A vast span over a spread of 1e-27 ohm matches no finite
        # capacitance; warnings are errors under pytest.
        assert matched_capacitance(1e300, 1e-27, cfg_for(2)) == math.inf
        with pytest.raises(ValueError, match="c_line must be positive and finite"):
            recall_and_score(np.array([[0.0, 1e300]]),
                             np.array([[1e-12, 1e-12 + 1e-27]]), cfg_for(2), "matched")

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

    def test_fixed_capacitance_is_the_configured_c_line(self):
        w = Wavefront((0.0, 10.0, 40.0))
        cfg = replace(cfg_for(3), c_line=0.7e-12)
        rt = round_trip(w, cfg, P, SweepSettings(scale_cap="none"))
        assert rt.c_used == 0.7e-12
        state, _ = capture_native(new_array(cfg, P), cfg, P, 0, w)
        recalled, energy = recall(state, cfg, 0)
        assert rt.recalled == recalled
        assert rt.recall_energy == energy

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError, match="path"):
            round_trip(Wavefront((0.0, 1.0)), cfg_for(2), P,
                       SweepSettings(path="analog"))


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
        ("scale_cap", 1e-12), ("scale_cap", math.nan)])
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
            assert state[1, 2] == result.final_resistances[1] > P.r_on
            assert (state[:, :2] == P.r_on).all()
        assert result.iterations[1] > 1  # the closed loop ran


class TestCaptureLeavesItsInputGrid:
    """A capture returns a new grid and leaves the one it was given as it
    was, other columns included."""

    CFG = ArrayConfig(rows=3, cols=2)
    W = Wavefront((0.0, 10.0, 4.0))

    def check(self, write):
        first, _ = write(new_array(self.CFG, P), 0)
        before = first.copy()
        second, result = write(first, 1)
        assert np.array_equal(first, before)
        assert np.array_equal(second[:, 0], first[:, 0])
        assert second[:, 1].tolist() == list(result.final_resistances)
        assert (second[:, 1] > P.r_on).any()

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_capture(self, path):
        self.check(lambda state, col: capture(
            state, self.CFG, P, self.W, SweepSettings(path=path, column=col)))

    def test_capture_native(self):
        self.check(lambda state, col: capture_native(state, self.CFG, P, col, self.W))

    def test_program_closed_loop(self):
        self.check(lambda state, col: program_closed_loop(
            state, self.CFG, P, col, [12e3, 15e3, 11e3], step=0.01, max_iters=8000))

    def test_integer_grid_is_written_in_float(self):
        grid = np.full((3, 2), int(P.r_on))
        state, result = capture_native(grid, self.CFG, P, 0, self.W)
        assert state.dtype == np.float64
        assert state[:, 0].tolist() == list(result.final_resistances)
        assert (grid == int(P.r_on)).all()


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
