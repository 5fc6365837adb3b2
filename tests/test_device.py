import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tempmem.device import (AMP_A_DEFAULT, DeviceParams, DeviceState,
                            apply_pulse, calibrate_amp,
                            programming_rate, pulse_energy, resistance_of)

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

    def test_r_on_grid_checked_per_device(self):
        assert DeviceParams(r_on=np.full((2, 3), 9e3)).at(1, 2).r_on == 9e3
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
