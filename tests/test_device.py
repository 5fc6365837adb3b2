import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy.integrate import quad
from scipy.special import expi

from tempmem.crossbar import base_params
from tempmem.device import (AMP_A_DEFAULT, DeviceParams, _reset_constants,
                            calibrate_amp, programming_rate, resistance,
                            stress_at, write_energy)
from tempmem.variability import _spread

from reference_law import (DeviceState, apply_pulse, pulse_energy, reset_energy,
                           resistance_of, stress_of)

P = DeviceParams()


def stressed(stress, params=P):
    return DeviceState(stress=stress, resistance=resistance_of(stress, params))


class TestResistanceOf:
    def test_zero_stress_is_on_state(self):
        assert resistance_of(0.0, P) == P.r_on == 10e3

    def test_calibration_identity_at_window_edge(self):
        # 40 ns at nominal voltage spans exactly r_on .. r_on + 30 kohm
        assert resistance_of(40.0, P) == pytest.approx(40e3, rel=1e-12)

    def test_midwindow_value(self):
        r = resistance_of(20.0, P)
        assert r == pytest.approx(25682.76096589668, rel=1e-12)
        assert abs(r - 25.68e3) < 5.0

    def test_clamps_at_r_off_max(self):
        assert resistance_of(1e9, P) == P.r_off_max

    def test_negative_stress_rejected(self):
        with pytest.raises(ValueError):
            resistance_of(-1.0, P)

    @given(st.floats(min_value=0.0, max_value=5e4),
           st.floats(min_value=1e-6, max_value=5e4))
    def test_strictly_increasing_below_clamp(self, s, ds):
        assert resistance_of(s + ds, P) > resistance_of(s, P)


class TestApplyPulse:
    def test_nominal_write_rate_is_unity(self):
        out = apply_pulse(stressed(0.0), -1.4, 20.0, P)
        assert out.stress == 20.0
        assert out.resistance == pytest.approx(25682.76096589668, rel=1e-12)

    def test_subthreshold_pulse_is_bit_identical(self):
        dev = stressed(123.0)
        assert apply_pulse(dev, -0.77, 100.0, P) is dev
        assert apply_pulse(dev, 0.77, 100.0, P) is dev

    def test_zero_duration_is_identity(self):
        dev = stressed(0.0)
        assert apply_pulse(dev, -1.4, 0.0, P) is dev
        assert apply_pulse(dev, 1.8, 0.0, P) is dev

    def test_set_polarity_erases(self):
        out = apply_pulse(stressed(500.0), 1.4, 5.0, P)
        assert out.stress == 0.0
        assert out.resistance == P.r_on

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            apply_pulse(stressed(0.0), -1.4, -1.0, P)

    def test_voltage_acceleration_is_sinh_shaped(self):
        # above nominal programs faster, below (but over threshold) slower
        assert programming_rate(-1.6, P) > 1.0
        assert 0.0 < programming_rate(-1.1, P) < 1.0
        assert programming_rate(-1.4, P) == 1.0
        assert programming_rate(0.99, P) == 0.0

    @pytest.mark.parametrize("v", [-400.0, 400.0, -1e300])
    def test_rate_beyond_sinhs_range_raises_value_error(self, v):
        with pytest.raises(ValueError, match="beyond the sinh rate's range"):
            programming_rate(v, P)

    def test_rate_quotient_overflow_raises_value_error(self):
        # Both sinhs are finite, their quotient is not.
        params = DeviceParams(v_zero=1.0, v_write_nominal=0.5, v_prog_threshold=0.1)
        assert programming_rate(-700.0, params) < math.inf
        with pytest.raises(ValueError, match="beyond the sinh rate's range"):
            programming_rate(-710.0, params)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_stress_additivity_exact_on_integer_durations(self, s, a, b):
        start = stressed(float(s))
        split = apply_pulse(apply_pulse(start, -1.4, float(a), P), -1.4, float(b), P)
        joint = apply_pulse(start, -1.4, float(a + b), P)
        assert split.stress == joint.stress
        assert split.resistance == joint.resistance

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=1.0, max_value=2.5))
    def test_stress_additivity_close_for_arbitrary_floats(self, s, a, b, v):
        start = stressed(s)
        split = apply_pulse(apply_pulse(start, -v, a, P), -v, b, P)
        joint = apply_pulse(start, -v, a + b, P)
        assert math.isclose(split.stress, joint.stress, rel_tol=1e-12, abs_tol=1e-12)

    @given(st.floats(min_value=-0.999, max_value=0.999),
           st.floats(min_value=0.0, max_value=1e6))
    def test_read_safety_below_threshold(self, v, duration):
        dev = stressed(77.0)
        assert apply_pulse(dev, v, duration, P) is dev


def initialize_on(state, params=P):
    """Ideal SET: a positive pulse at the write level returns the device
    to the ON state."""
    return apply_pulse(state, params.v_write_nominal, 1.0, params)


# One device of the law: its ON resistance, a small amp_a that puts the
# inverse's expm1 argument beyond 700 within the range, and a place in
# that range (a stress, or a fraction of the way from r_on to r_off_max).
R_ONS = st.floats(min_value=1e3, max_value=5e5)
AMPS = st.floats(min_value=50.0, max_value=1e5)
STRESSES = st.floats(min_value=0.0, max_value=1e7) | st.just(math.inf)
FRACTIONS = st.floats(min_value=0.0, max_value=1.0)


class TestOneLaw:
    """`resistance` and `stress_at` are the scalar reference law and its
    inverse, bit for bit, on floats and on per-device arrays."""

    @given(STRESSES, R_ONS, AMPS)
    def test_resistance_on_floats(self, stress, r_on, amp_a):
        params = DeviceParams(r_on=r_on, amp_a=amp_a)
        assert float(resistance(stress, r_on, params)) == resistance_of(stress, params)

    @given(FRACTIONS, R_ONS, AMPS)
    def test_stress_at_on_floats(self, frac, r_on, amp_a):
        params = DeviceParams(r_on=r_on, amp_a=amp_a)
        r = r_on + frac * (params.r_off_max - r_on)
        assert float(stress_at(r, r_on, params)) == stress_of(r, params)

    @given(st.lists(st.tuples(STRESSES, FRACTIONS, R_ONS), min_size=1, max_size=12),
           AMPS)
    def test_per_device_arrays(self, devices, amp_a):
        params = DeviceParams(amp_a=amp_a)
        stress, frac, r_on = (np.array(c) for c in zip(*devices))
        r = r_on + frac * (params.r_off_max - r_on)
        each = [replace(params, r_on=x) for x in r_on.tolist()]
        assert resistance(stress, r_on, params).tolist() == [
            resistance_of(s, p) for s, p in zip(stress.tolist(), each)]
        assert stress_at(r, r_on, params).tolist() == [
            stress_of(x, p) for x, p in zip(r.tolist(), each)]

    def test_inverse_on_both_sides_of_700(self):
        params = DeviceParams(amp_a=1000.0)
        r_on = np.array([[10e3, 10e3, 10e3]])
        r = r_on + 1000.0 * np.array([[699.0, 700.0, np.nextafter(700.0, 800.0)]])
        got = stress_at(r, r_on, params)
        assert got[0, :2].tolist() == [stress_of(x, params) for x in r[0, :2].tolist()]
        assert np.isfinite(got[0, :2]).all() and got[0, 2] == math.inf


class TestInitializeOn:
    def test_erases_accumulated_stress(self):
        out = initialize_on(stressed(500.0))
        assert out.stress == 0.0
        assert out.resistance == P.r_on

    def test_idempotent(self):
        once = initialize_on(stressed(0.0))
        assert initialize_on(once) == once

    def test_resistance_is_on_state(self):
        assert resistance_of(initialize_on(stressed(42.0)).stress, P) == 10e3


class TestCalibrateAmp:
    def test_default_window_calibration(self):
        cal = calibrate_amp(30e3, 40.0, P)
        assert cal.amp_a == pytest.approx(164544.448, abs=1.0)
        assert cal.amp_a == AMP_A_DEFAULT

    def test_rejects_nonpositive_spans(self):
        with pytest.raises(ValueError):
            calibrate_amp(0.0, 40.0, P)
        with pytest.raises(ValueError):
            calibrate_amp(30e3, 0.0, P)

    def test_huge_knee_gives_near_linear_model(self):
        params = calibrate_amp(30e3, 40.0, DeviceParams(tau_w=1e6))
        assert params.amp_a == pytest.approx(750e6, rel=1e-4)
        slope = 30e3 / 40.0
        for t in (5.0, 17.0, 33.0, 40.0):
            linear = params.r_on + slope * t
            assert resistance_of(t, params) == pytest.approx(linear, rel=1e-5)


class TestModelShape:
    @pytest.mark.parametrize("d", [50.0, 200.0, 500.0])
    def test_log_compression_beyond_window(self, d):
        rs = [resistance_of(k * d, P) for k in range(5)]
        increments = [b - a for a, b in zip(rs, rs[1:])]
        assert all(x > y for x, y in zip(increments, increments[1:]))

    def test_near_linearity_inside_window(self):
        slope = 30e3 / 40.0
        for t in [x * 0.5 for x in range(81)]:
            deviation = abs(resistance_of(t, P) - (P.r_on + slope * t)) / 30e3
            assert deviation <= 0.10


class TestParamsValidation:
    def test_rejects_inverted_resistance_window(self):
        with pytest.raises(ValueError):
            DeviceParams(r_on=2e6)

    def test_rejects_bad_threshold_ordering(self):
        with pytest.raises(ValueError):
            DeviceParams(v_prog_threshold=1.5, v_write_nominal=1.4)

    def test_rejects_nonpositive_shape_constants(self):
        with pytest.raises(ValueError):
            DeviceParams(amp_a=0.0)
        with pytest.raises(ValueError):
            DeviceParams(tau_w=-1.0)
        with pytest.raises(ValueError):
            DeviceParams(v_zero=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(v_write_nominal=400.0), dict(v_zero=1e-3),
        # v_write_nominal / v_zero underflows to 0, and so does its sinh
        dict(v_zero=1e300, v_write_nominal=1e-290, v_prog_threshold=1e-300)])
    def test_rejects_nominal_sinh_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match=r"sinh\(v_write_nominal / v_zero\)"):
            DeviceParams(**kwargs)

    def test_accepts_nominal_sinh_at_its_extremes(self):
        # sinh(700) is finite, and sinh of a subnormal ratio is positive.
        assert programming_rate(-700.0, DeviceParams(v_zero=1.0, v_write_nominal=700.0,
                                                     v_prog_threshold=1.0)) == 1.0
        DeviceParams(v_zero=1e10, v_write_nominal=1e-300, v_prog_threshold=1e-301)

    def test_r_on_grid_checked_per_device(self):
        grid = np.array([[9e3, 8e3, 7e3], [6e3, 5e3, 4e3]])
        assert base_params(DeviceParams(r_on=grid)).r_on == 9e3
        for bad in (np.array([[1e4, np.nan]]), np.array([[1e4, 2e6]]),
                    np.full(4, 1e4)):
            with pytest.raises(ValueError):
                DeviceParams(r_on=bad)


class TestPulseEnergy:
    def quad_oracle(self, s0, v, duration, params):
        rate = programming_rate(v, params)

        def r_of(u):
            return resistance_of(s0 + rate * u, params)

        val, _ = quad(lambda u: v * v / r_of(u), 0.0, duration, limit=200)
        return val * 1e-9

    def test_matches_quadrature_at_nominal_write(self):
        e = pulse_energy(stressed(0.0), -1.4, 20.0, P)
        assert e == pytest.approx(self.quad_oracle(0.0, -1.4, 20.0, P), rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=300.0),
           st.floats(min_value=0.1, max_value=120.0),
           st.floats(min_value=1.0, max_value=2.2))
    def test_matches_quadrature_over_parameter_space(self, s0, duration, v):
        e = pulse_energy(stressed(s0), -v, duration, P)
        assert e == pytest.approx(self.quad_oracle(s0, -v, duration, P), rel=1e-7)

    def test_subthreshold_pulse_dissipates_at_constant_resistance(self):
        e = pulse_energy(stressed(0.0), -0.5, 100.0, P)
        assert e == pytest.approx(0.5 ** 2 * 100e-9 / 10e3, rel=1e-12)

    def test_zero_duration_costs_nothing(self):
        assert pulse_energy(stressed(0.0), -1.4, 0.0, P) == 0.0

    def test_crossing_the_clamp_is_piecewise(self):
        params = DeviceParams(r_off_max=12e3)  # clamp close above r_on
        s_clamp = params.tau_w * math.expm1((params.r_off_max - params.r_on)
                                            / params.amp_a)
        duration = s_clamp + 50.0
        e = pulse_energy(stressed(0.0, params), -1.4, duration, params)
        assert e == pytest.approx(self.quad_oracle(0.0, -1.4, duration, params),
                                  rel=1e-7)

    def test_set_polarity_rejected(self):
        with pytest.raises(ValueError):
            pulse_energy(stressed(0.0), 1.4, 10.0, P)

    @staticmethod
    def scalar_formula(s0, v, duration, params):
        """The RESET energy written with scalar floats and scalar expi, one
        pulse at a time: the closed form the array version must reproduce."""
        rate = programming_rate(v, params)
        s1 = s0 + duration * rate
        a = params.amp_a
        x = (params.r_off_max - params.r_on) / a
        s_clamp = math.inf if x > 700.0 else params.tau_w * math.expm1(x)
        total = 0.0
        hi = min(s1, s_clamp)
        if hi > s0:
            pref = (params.tau_w / a) * math.exp(-params.r_on / a)
            total += pref * (float(expi(resistance_of(hi, params) / a))
                             - float(expi(resistance_of(s0, params) / a)))
        if s1 > s_clamp:
            total += (s1 - max(s0, s_clamp)) / params.r_off_max
        return (v * v / rate) * total * 1e-9

    @given(st.floats(min_value=0.0, max_value=300.0),
           st.floats(min_value=1e-6, max_value=300.0),
           st.floats(min_value=1.0, max_value=2.2),
           st.sampled_from([12e3, 35011.01752498446, 40e3, 1e6]))
    def test_bit_identical_to_scalar_formula(self, s0, duration, v, r_off_max):
        params = DeviceParams(r_off_max=r_off_max)
        assert pulse_energy(stressed(s0, params), -v, duration, params) == \
            self.scalar_formula(s0, -v, duration, params)

    def test_reset_energy_over_a_trajectory(self):
        # At this r_off_max the law gives one ulp less than r_off_max at the
        # clamp stress (about 32.8 ns), so the split point matters.
        self.check_trajectory(35011.01752498446)

    def test_reset_energy_where_ei_at_the_clamp_differs(self):
        # Here Ei of the law at the clamp stress also differs from
        # Ei(r_off_max / amp_a), so the clamp's own resistance matters.
        self.check_trajectory(57001.45528267501)

    @staticmethod
    def check_trajectory(r_off_max):
        # Consecutive points of a trajectory crossing the clamp, one call.
        params = DeviceParams(r_off_max=r_off_max)
        c = math.floor(params.tau_w * math.expm1(
            (r_off_max - params.r_on) / params.amp_a))
        stress = np.array([0.0, 1.0, 2.5, 6.0, c - 3.0, c, c + 1.0, c + 7.0])
        r = np.array([resistance_of(x, params) for x in stress.tolist()])
        got = reset_energy(stress, r, -1.4, 1.0, params.r_on, params)
        want = [pulse_energy(stressed(s, params), -1.4, d, params)
                for s, d in zip(stress[:-1].tolist(), np.diff(stress).tolist())]
        assert got.tolist() == want

    def test_reset_energy_per_trajectory_r_on(self):
        # Two-point trajectories of devices with their own r_on, pulse axis
        # last, as a native column gives them.
        params = DeviceParams(r_off_max=35011.01752498446)
        devices = [replace(params, r_on=x) for x in (9e3, 10e3, 11e3, 10.5e3)]
        durations = [5.0, 0.0, 40.0, 33.0]
        stress = np.array([[0.0, d] for d in durations])
        r = np.array([[p.r_on, resistance_of(d, p)] for p, d in zip(devices, durations)])
        r_on = np.array([p.r_on for p in devices])
        got = reset_energy(stress, r, -1.4, 1.0, r_on, params)
        assert got.shape == (4, 1)
        assert got[:, 0].tolist() == [
            pulse_energy(stressed(0.0, p), -1.4, d, p) for p, d in zip(devices, durations)]

    @pytest.mark.parametrize("r_on", [
        np.random.default_rng(2).uniform(9e3, 11e3, (20, 25)), 10123.4],
        ids=["grid", "float"])
    @pytest.mark.parametrize("params", [
        P, DeviceParams(amp_a=1000.0, r_off_max=710e3)])
    def test_reset_constants_are_math_per_element(self, params, r_on):
        # The second params put the expm1 argument on both sides of 700.  A
        # float r_on gives 0-d arrays.
        got = _reset_constants(r_on, params)
        assert all(np.shape(c) == np.shape(r_on) for c in got)
        for k, x in enumerate(np.ravel(r_on).tolist()):
            assert tuple(np.ravel(c)[k] for c in got) == _reset_reference(x, params)

    def test_reset_energy_per_trial_and_device_r_on(self):
        # A trials x rows block of two-point trajectories, as the batched
        # Monte Carlo engine gives them.  With this small amp_a the clamp
        # stress of the 10 kohm devices is beyond expm1's range (no clamp)
        # and that of the 30 kohm ones within it.
        params = DeviceParams(amp_a=1000.0, r_off_max=720e3)
        r_on = np.array([[10e3, 30e3, 12e3], [30e3, 10e3, 11e3]])
        durations = np.array([[5.0, 0.0, 40.0], [200.0, 1.0, 33.0]])
        law = np.vectorize(lambda d, x: resistance_of(d, replace(params, r_on=x)))
        got = reset_energy(np.stack((np.zeros(durations.shape), durations), -1),
                           np.stack((r_on, law(durations, r_on)), -1), -1.4, 1.0,
                           r_on, params)
        assert got.shape == (2, 3, 1)
        assert got[..., 0].tolist() == [
            [self.scalar_formula(0.0, -1.4, d, replace(params, r_on=x))
             for d, x in zip(row_d, row_r)]
            for row_d, row_r in zip(durations.tolist(), r_on.tolist())]


def _reset_reference(x: float, params: DeviceParams) -> tuple[float, float, float]:
    """`_reset_constants` of one device ON at x, with `math.*`."""
    a, tau = params.amp_a, params.tau_w
    s_clamp = stress_of(params.r_off_max, replace(params, r_on=x))
    return (s_clamp, min(x + a * math.log1p(s_clamp / tau), params.r_off_max),
            (tau / a) * math.exp(-x / a))


class TestWriteEnergy:
    """`write_energy` is the reference's `reset_energy` on two-point
    trajectories from (0, r_on), bit for bit, and raises where that is
    not finite."""

    @hsettings(max_examples=80, deadline=None)
    @given(params=st.sampled_from([
               P, DeviceParams(r_off_max=35011.01752498446),
               DeviceParams(r_off_max=57001.45528267501),
               # The clamp stress of the 10 kohm devices is beyond expm1's
               # range (inf), that of the 30 kohm ones within it.
               DeviceParams(amp_a=1000.0, r_off_max=720e3)]),
           shape=st.sampled_from([(), (8,), (3, 8)]),
           seed=st.integers(0, 2**32 - 1),
           v=st.floats(min_value=1.0, max_value=2.2))
    def test_equals_reset_energy_from_on(self, params, shape, seed, v):
        rng = np.random.default_rng(seed)
        r_on = rng.choice([9e3, 10e3, 11e3, 30e3], shape)
        s_clamp = _reset_constants(r_on, params)[0]
        reach = np.where(np.isfinite(s_clamp), s_clamp, 400.0)
        # Stress 0, exactly the clamp stress, below it and beyond it
        kind = rng.integers(0, 4, shape)
        stress = np.select([kind == 0, kind == 1, kind == 2],
                           [0.0, reach, reach * rng.uniform(0.0, 1.0, shape)],
                           reach * rng.uniform(1.0, 3.0, shape))
        if not shape:
            r_on, stress = float(r_on), float(stress)
        r = resistance(stress, r_on, params)
        rate = programming_rate(-v, params)
        want = reset_energy(np.stack((np.zeros(shape), stress), -1),
                            np.stack((np.broadcast_to(r_on, shape), r), -1),
                            -v, rate, r_on, params)[..., 0]
        if not np.isfinite(want).all():
            # Ei(R / amp_a) overflows past R = 709.78 amp_a: 30 kohm devices
            # near or past their clamp at r_off_max = 720 amp_a.
            with pytest.raises(ValueError, match="write energy is not finite"):
                write_energy(stress, r, r_on, -v, rate, params)
            return
        got = write_energy(stress, r, r_on, -v, rate, params)
        assert np.shape(got) == shape
        assert np.asarray(got).tolist() == want.tolist()


class TestClampConstantsNearTheClamp:
    """`write_energy` takes the clamp constants of only the devices whose
    stress reaches the largest r_on's clamp stress, less a relative 1e-9,
    and equals the formula with every device's constants, bit for bit."""

    # At r_off_max = 35011.01752498446 the law gives one ulp less than
    # r_off_max at the clamp stress, so a device past it needs its own
    # constants.
    @pytest.mark.parametrize("r_off_max", [1e6, 20e3, 35011.01752498446])
    @pytest.mark.parametrize("reach", ["none", "some", "all", "bound"])
    def test_equals_every_devices_constants(self, r_off_max, reach):
        params = DeviceParams(r_off_max=r_off_max)
        rng = np.random.default_rng(6)
        shape = (4, 8)
        r_on = 10e3 * rng.lognormal(0.0, 0.1, shape)
        s_clamp = _reset_constants(r_on, params)[0]
        top = np.unravel_index(r_on.argmax(), shape)
        bound = s_clamp[top]
        assert bound == s_clamp.min()  # the largest r_on sets the bound
        below = bound * rng.uniform(0.0, 0.999, shape)
        past = np.nextafter(s_clamp, math.inf) * rng.uniform(1.0, 1.5, shape)
        if reach == "bound":
            # Exactly at the bound, at its slack and an ulp under that; the
            # largest r_on's device past its own clamp by a relative 5e-10.
            cut = bound * (1 - 1e-9)
            stress = rng.choice([bound, cut, np.nextafter(cut, 0.0)], shape)
            stress[top] = bound * (1 + 5e-10)
        else:
            stress = {"none": below, "all": past,
                      "some": np.where(np.arange(32).reshape(shape) % 2, below,
                                       past)}[reach]
        beyond = stress > s_clamp
        assert {"none": not beyond.any(), "all": beyond.all(),
                "some": 0 < beyond.sum() < beyond.size,
                "bound": beyond.sum() == 1 and beyond[top]}[reach]
        r = resistance(stress, r_on, params)
        rate = programming_rate(-1.4, params)
        want = reset_energy(np.stack((np.zeros(shape), stress), -1),
                            np.stack((r_on, r), -1), -1.4, rate, r_on, params)
        got = write_energy(stress, r, r_on, -1.4, rate, params)
        assert got.tolist() == want[..., 0].tolist()


class TestEiOverflow:
    """Where Ei(r_on / amp_a) overflows (r_on / amp_a beyond about 709.78)
    the write energy of a moved device would be inf - inf."""

    def test_moved_device_raises(self):
        params = DeviceParams(amp_a=15.0)  # 10 kohm / 15 ohm is 666.7
        r_on = np.array([10e3, 11e3])
        stress = np.array([1.0, 1.0])
        r = resistance(stress, r_on, params)
        rate = programming_rate(-1.4, params)
        assert np.isfinite(write_energy(stress[:1], r[:1], r_on[:1], -1.4, rate,
                                        params)).all()
        with pytest.raises(ValueError, match=r"amp_a must be above r_on / 709\.78"):
            write_energy(stress, r, r_on, -1.4, rate, params)

    def test_unmoved_device_takes_no_energy(self):
        params = DeviceParams(amp_a=15.0)
        got = write_energy(np.array([0.0]), np.array([11e3]), np.array([11e3]),
                           -1.4, 1.0, params)
        assert got.tolist() == [0.0]


class TestNumpyFacts:
    """The numpy behaviour the block kernels rest on.  If an upgrade
    changes it, these fail instead of the simulated rows shifting."""

    def test_standard_normal_block_equals_scalar_draws(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        block = a.standard_normal(1000).tolist()
        assert block == [b.standard_normal() for _ in range(1000)]
        assert a.standard_normal() == b.standard_normal()
        shaped = np.random.default_rng(4).standard_normal((3, 5))
        rng = np.random.default_rng(4)
        assert shaped.ravel().tolist() == [rng.standard_normal() for _ in range(15)]

    def test_add_accumulate_is_a_left_fold(self):
        # 1e-16 is under half an ulp of 1.0, so a left fold never moves
        # off 1.0, while pairwise summation adds the small terms first.
        x = np.array([1.0] + [1e-16] * 1023)
        assert np.sum(x) != 1.0
        assert np.add.accumulate(x)[-1] == 1.0
        assert np.cumsum(x)[-1] == 1.0
        y = np.random.default_rng(0).random(1000) * 1e-3
        total = 1.0
        for v in y.tolist():
            total += v
        assert np.cumsum(np.concatenate(([1.0], y)))[-1] == total


# Arguments of every class the law admits: zeros of both signs,
# subnormals, the knee's scale, the clamp and beyond, inf and nan.
EDGES = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.3, 40.0, 1e6, 3e6, 1e300,
         math.inf, math.nan]
# Those classes in float32 and int, where the law's arithmetic before
# its libm call is exact under POW2's power-of-two constants, so that
# float64 arithmetic on the same values is the reference.
EDGES_OF = {np.float64: EDGES,
            np.float32: [0.0, -0.0, 2.0**-130, 2.0**-127, 0.25, 40.0, 2.0**20,
                         3e6, math.inf, math.nan],
            np.int64: [0, 1, 40, 4096, 10**6, 3 * 10**6]}
POW2 = DeviceParams(amp_a=4096.0, tau_w=256.0, r_off_max=2.0**20)
# log1p(SIGMA**2) is exactly 0.25, so _spread's exponent -0.125 + 0.5 z is
# exact in float32 too.
SIGMA = 0.5329403500277883


def _arrays(values, dtype):
    """values as a 1-D and a 2-D array of dtype, an empty one, and each
    value as a 0-d one."""
    a = np.array(values, dtype)
    return [a, np.stack((a, a[::-1])), a[:0]] + [np.array(v, dtype) for v in values]


def _assert_is_reference(got, x, reference):
    """got is float64 of x's shape and, element by element, reference of
    x's values, bit for bit: signed zeros apart, any nan as any nan."""
    assert np.result_type(got) == np.float64 and np.shape(got) == x.shape
    key = lambda v: "nan" if v != v else float.hex(v)
    assert [key(v) for v in np.ravel(got).tolist()] == \
        [key(reference(v)) for v in x.ravel().tolist()]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", list(EDGES_OF), ids=lambda d: d.__name__)
class TestLibmRoute:
    """The law's exp, log1p and expm1 (scipy's Box-Cox ufuncs at lambda 0)
    give `math.*`'s bits, as float64 whatever the input's dtype, shape or
    class of value, and warn of nothing."""

    def test_resistance(self, dtype):
        for x in _arrays(EDGES_OF[dtype], dtype):
            _assert_is_reference(resistance(x, POW2.r_on, POW2), x,
                                 lambda s: resistance_of(s, POW2))

    def test_stress_at(self, dtype):
        # From ON at 0 ohm, expm1's argument is r / amp_a: every class of
        # value, and both sides of the cap at 700.  DeviceParams rejects
        # that r_on, so the reference reads it from a stand-in.
        on_at_zero = SimpleNamespace(r_on=0.0, amp_a=POW2.amp_a, tau_w=POW2.tau_w)
        for x in _arrays(EDGES_OF[dtype], dtype):
            _assert_is_reference(stress_at(x, 0.0, POW2), x,
                                 lambda r: stress_of(r, on_at_zero))

    def test_reset_constants(self, dtype):
        values = [v for v in EDGES_OF[dtype] if 0 < v < POW2.r_off_max]
        for x in _arrays(values, dtype):
            got = _reset_constants(x, POW2)
            for k in range(3):
                _assert_is_reference(got[k], x,
                                     lambda r_on: _reset_reference(r_on, POW2)[k])

    def test_spread(self, dtype):
        z = [v for v in EDGES_OF[dtype] if math.isfinite(v) and v < 1e3]
        z += [-v for v in z]
        for x in _arrays(z, dtype):
            _assert_is_reference(_spread(1e4, SIGMA, x), x,
                                 lambda zi: 1e4 * math.exp(-0.125 + 0.5 * zi))
