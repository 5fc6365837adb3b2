from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tempmem.crossbar import (ArrayConfig, edge_times, ln_factor, new_array,
                              read_grid_csv, recall, reset_lines, write_grid_csv)
from tempmem.device import DeviceParams
from tempmem.wavefront import rank_of

from reference_law import resistance_of

P = DeviceParams()


def column_state(resistances):
    """Single-column array with the given resistances."""
    return np.array(resistances, dtype=float).reshape(-1, 1)


def rc_threshold_oracle(r, c, theta, dt=1e-4):
    """Brute-force RC charge to threshold: v' = (1 - v)/RC, crossing theta.

    Times are in ns (c in F, r in ohm); linear interpolation at the
    crossing step.
    """
    rc = r * c * 1e9
    t, v = 0.0, 0.0
    while v < theta:
        v_next = v + dt * (1.0 - v) / rc
        if v_next >= theta:
            return t + dt * (theta - v) / (v_next - v)
        v, t = v_next, t + dt
    return t


class TestRecall:
    def test_linear_column_edge_times(self):
        state = column_state([10e3, 20e3, 30e3, 40e3])
        cfg = ArrayConfig(rows=4, cols=1)
        w, _ = recall(state, cfg, 0)
        for t, expected in zip(w.times, [13.33, 26.67, 40.00, 53.33]):
            assert t == pytest.approx(expected, abs=0.01)

    def test_matches_numerical_charging_oracle(self):
        cfg = ArrayConfig(rows=3, cols=1)
        resistances = [12.5e3, 27e3, 38.1e3]
        w, _ = recall(column_state(resistances), cfg, 0)
        for t, r in zip(w.times, resistances):
            oracle = rc_threshold_oracle(r, cfg.c_line, cfg.theta)
            assert t == pytest.approx(oracle, abs=2e-3)

    def test_equal_resistances_are_simultaneous(self):
        state = column_state([17e3] * 5)
        w, _ = recall(state, ArrayConfig(rows=5, cols=1), 0)
        assert w.span == 0.0

    def test_shifter_delay_is_additive(self):
        state = column_state([10e3, 40e3])
        base, _ = recall(state, ArrayConfig(rows=2, cols=1), 0)
        shifted, _ = recall(state, ArrayConfig(rows=2, cols=1, t_shifter=2.5), 0)
        for t0, t1 in zip(base.times, shifted.times):
            assert t1 == t0 + 2.5

    def test_output_is_absolute_not_normalized(self):
        w, _ = recall(column_state([20e3]), ArrayConfig(rows=1, cols=1), 0)
        assert w.times[0] > 0.0

    def test_rejects_bad_column(self):
        state = column_state([10e3])
        with pytest.raises(ValueError, match="column"):
            recall(state, ArrayConfig(rows=1, cols=1), 1)

    def test_rejects_dimension_mismatch(self):
        state = column_state([10e3, 20e3])
        with pytest.raises(ValueError, match="dimensions"):
            recall(state, ArrayConfig(rows=3, cols=1), 0)

    def test_recall_repeats(self):
        cfg = ArrayConfig(rows=3, cols=1)
        state = column_state([10e3, 22e3, 37e3])
        assert recall(state, cfg, 0) == recall(state, cfg, 0)

    def test_leaves_devices_untouched(self):
        state = new_array(ArrayConfig(rows=2, cols=2), P)
        before = state.copy()
        recall(state, ArrayConfig(rows=2, cols=2), 1)
        assert np.array_equal(state, before)

    @given(st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=2,
                    max_size=8, unique=True))
    def test_rank_order_follows_resistance_order(self, stresses):
        resistances = [resistance_of(s, P) for s in stresses]
        state = column_state(resistances)
        cfg = ArrayConfig(rows=len(stresses), cols=1)
        w, _ = recall(state, cfg, 0)
        by_resistance = tuple(int(i) for i in np.argsort(resistances, kind="stable"))
        assert rank_of(w) == by_resistance


class TestEnergy:
    def test_per_line_independent_of_state(self):
        cfg = ArrayConfig(rows=6, cols=1)
        rng = np.random.default_rng(5)
        reports = []
        for _ in range(50):
            rs = P.r_on + rng.uniform(0.0, 30e3, cfg.rows)
            _, e = recall(column_state(rs), cfg, 0)
            reports.append(e)
        first = reports[0]
        assert all(e == first for e in reports)
        assert first.per_line == cfg.c_line * cfg.v_read ** 2

    def test_supply_split_half_and_half(self):
        cfg = ArrayConfig(rows=4, cols=1)
        _, e = recall(column_state([10e3, 15e3, 20e3, 25e3]), cfg, 0)
        assert e.stored == e.dissipated
        assert e.per_line * cfg.rows == e.stored + e.dissipated

    def test_default_budget_is_600_fj_per_line(self):
        cfg = ArrayConfig(rows=1, cols=1)
        _, e = recall(column_state([33e3]), cfg, 0)
        assert e.per_line == pytest.approx(600e-15, rel=1e-4)


class TestRecallScaled:
    def test_doubling_capacitance_doubles_times(self):
        cfg = ArrayConfig(rows=3, cols=1, t_shifter=1.0)
        state = column_state([10e3, 25e3, 40e3])
        base, _ = recall(state, cfg, 0)
        doubled, _ = recall(state, replace(cfg, c_line=2.0 * cfg.c_line), 0)
        for t0, t1 in zip(base.times, doubled.times):
            assert t1 - cfg.t_shifter == pytest.approx(2.0 * (t0 - cfg.t_shifter),
                                                       rel=1e-12)

    def test_identity_at_configured_capacitance(self):
        cfg = ArrayConfig(rows=2, cols=1)
        state = column_state([11e3, 29e3])
        assert recall(state, replace(cfg, c_line=cfg.c_line), 0) == \
            recall(state, cfg, 0)

    def test_energy_scales_with_capacitance(self):
        cfg = ArrayConfig(rows=2, cols=1)
        state = column_state([11e3, 29e3])
        _, e = recall(state, replace(cfg, c_line=2e-12), 0)
        assert e.per_line == pytest.approx(2e-12 * cfg.v_read ** 2, rel=1e-12)

    def test_rejects_nonpositive_capacitance(self):
        state = column_state([10e3])
        with pytest.raises(ValueError):
            recall(state, replace(ArrayConfig(rows=1, cols=1), c_line=0.0), 0)


class TestResetLines:
    """`reset_lines` stays only while the benchmark's runners call it."""

    def test_devices_bit_identical(self):
        state = column_state([10e3, 20e3])
        assert reset_lines(state) is state


class TestDynamicRange:
    """The recall span of one device's resistances from r_on up to r_max:
    (r_max - r_on) * c_line * ln(1/(1-theta)), in ns."""

    def test_default_window_spans_40ns(self):
        w, _ = recall(column_state([P.r_on, 40e3]), ArrayConfig(rows=2, cols=1), 0)
        assert w.span == pytest.approx(40.0, abs=1e-3)

    def test_zero_at_r_on(self):
        cfg = ArrayConfig(rows=3, cols=1)
        w, _ = recall(new_array(cfg, P), cfg, 0)
        assert w.span == 0.0

    def test_monotone_in_theta(self):
        spans = [np.ptp(edge_times(np.array([P.r_on, 40e3]), 1e-12,
                                   ArrayConfig(rows=2, cols=1, theta=th)))
                 for th in (0.3, 0.5, 0.7364, 0.9)]
        assert all(a < b for a, b in zip(spans, spans[1:]))

    def test_reaches_r_off_max(self):
        cfg = ArrayConfig(rows=2, cols=1)
        t_on, t_off = edge_times(np.array([P.r_on, P.r_off_max]), cfg.c_line, cfg)
        assert t_off - t_on == pytest.approx(
            (P.r_off_max - P.r_on) * cfg.c_line * ln_factor(cfg.theta) * 1e9,
            rel=1e-12)


class TestConfigValidation:
    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            ArrayConfig(rows=1, cols=1, theta=1.0)
        with pytest.raises(ValueError):
            ArrayConfig(rows=1, cols=1, theta=0.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ArrayConfig(rows=0, cols=1)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_rejects_non_integral_geometry(self, field):
        with pytest.raises(ValueError, match=f"array.{field} must be an integer"):
            ArrayConfig(**{"rows": 2, "cols": 2, field: 2.5})

    def test_numpy_integer_geometry_accepted(self):
        cfg = ArrayConfig(rows=np.int64(3), cols=np.int32(2))
        assert new_array(cfg, P).shape == (3, 2)

    def test_rejects_read_voltage_above_rail(self):
        with pytest.raises(ValueError):
            ArrayConfig(rows=1, cols=1, v_read=2.0)

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            ArrayConfig(rows=1, cols=1, c_line=0.0)


class TestNewArray:
    def test_all_devices_on(self):
        cfg = ArrayConfig(rows=3, cols=2)
        state = new_array(cfg, P)
        assert np.all(state == P.r_on)
        assert type(state) is np.ndarray
        assert (state.dtype, state.shape) == (np.float64, (3, 2))

    def test_per_device_params_grid(self):
        cfg = ArrayConfig(rows=2, cols=1)
        grid = replace(P, r_on=np.array([[10.1e3], [9.9e3]]))
        state = new_array(cfg, grid)
        assert state[:, 0].tolist() == [10.1e3, 9.9e3]

    def test_rejects_mismatched_params_grid(self):
        grid = replace(P, r_on=np.full((2, 2), 1e4))
        with pytest.raises(ValueError, match="dimensions"):
            new_array(ArrayConfig(rows=2, cols=1), grid)

    def test_does_not_share_the_params_grid(self):
        grid = replace(P, r_on=np.array([[10.1e3], [9.9e3]]))
        state = new_array(ArrayConfig(rows=2, cols=1), grid)
        state[0, 0] = 2e4
        assert grid.r_on[0, 0] == 10.1e3


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        cfg = ArrayConfig(rows=2, cols=2)
        state = np.array([[resistance_of(float(i + j), P) for j in range(2)]
                          for i in range(2)])
        path = tmp_path / "grid.csv"
        write_grid_csv(path, state)
        loaded = read_grid_csv(path, cfg, P)
        assert np.allclose(loaded, state)
        assert type(loaded) is np.ndarray
        assert (loaded.dtype, loaded.shape) == (np.float64, (2, 2))

    def test_writes_row_major_reprs(self, tmp_path):
        # Each resistance is written as its shortest round-trip repr.
        r = np.array([[0.1 + 0.2, 1e4], [12345.678901234567, 1e-5],
                      [2.0**0.5 * 1e4, 99999.99999999999]])
        path = tmp_path / "grid.csv"
        write_grid_csv(path, r)
        assert path.read_bytes() == (
            "row,col,resistance_ohm\r\n0,0,0.30000000000000004\r\n"
            "0,1,10000.0\r\n1,0,12345.678901234567\r\n1,1,1e-05\r\n"
            "2,0,14142.135623730952\r\n2,1,99999.99999999999\r\n").encode()

    def test_rejects_missing_cells(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("row,col,resistance_ohm\n0,0,10000.0\n")
        with pytest.raises(ValueError, match="missing"):
            read_grid_csv(path, ArrayConfig(rows=2, cols=1), P)

    def test_rejects_out_of_range_resistance(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("row,col,resistance_ohm\n0,0,5.0\n")
        with pytest.raises(ValueError, match="outside"):
            read_grid_csv(path, ArrayConfig(rows=1, cols=1), P)

    def test_out_of_range_resistance_names_file_and_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("row,col,resistance_ohm\n0,0,10000.0\n\n0,1,5.0\n")
        with pytest.raises(ValueError) as info:
            read_grid_csv(path, ArrayConfig(rows=1, cols=2), P)
        assert str(info.value) == (f"{path}: line 4: cell (0,1): resistance 5.0 "
                                   "outside [r_on, r_off_max]")

    @pytest.mark.parametrize("row, message", [
        ("0,0,10000.0", "duplicate cell (0,0)"),
        ("2,0,10000.0", "cell (2,0) outside 2x1 array"),
        ("1,0", "expected 3 fields"),
        ("1,0,high", "could not convert string to float: 'high'"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "grid.csv"
        path.write_text(f"row,col,resistance_ohm\n0,0,10000.0\n\n{row}\n")
        with pytest.raises(ValueError) as info:
            read_grid_csv(path, ArrayConfig(rows=2, cols=1), P)
        assert str(info.value) == f"{path}: line 4: {message}"
