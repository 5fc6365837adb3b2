"""Acceptance suite: one test per headline behavior, each printing a
PASS line with its runtime when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

import tempmem as tm
from tempmem.crossbar import ArrayState

from reference_law import resistance_of

P = tm.DeviceParams()


def column_state(resistances):
    stress = [P.tau_w * math.expm1((r - P.r_on) / P.amp_a) for r in resistances]
    return ArrayState(stress=np.array(stress).reshape(-1, 1),
                      resistance=np.array(resistances, dtype=float).reshape(-1, 1))


def report(num, name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): PASS ({elapsed:.2f} s)")


def test_criterion_1_recall_energy_data_independent():
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=4, cols=1)
    rng = np.random.default_rng(1)
    reports = []
    for _ in range(100):
        rs = P.r_on + rng.uniform(0.0, 30e3, cfg.rows)
        _, e = tm.recall(column_state(rs), cfg, 0)
        reports.append(e)
    first = reports[0]
    assert all(e == first for e in reports), "energy must not depend on state"
    assert first.per_line == cfg.c_line * cfg.v_read ** 2
    assert first.per_line == pytest.approx(600e-15, rel=1e-4)
    assert first.stored == first.dissipated
    assert first.stored == pytest.approx(cfg.rows * 300e-15, rel=1e-4)
    assert first.per_line * cfg.rows == first.stored + first.dissipated
    report(1, "recall energy 600 fJ/line, half stored half dissipated", t0, 1.0)


def test_criterion_2_recall_linearity_and_range():
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=4, cols=1)
    w, _ = tm.recall(column_state([10e3, 20e3, 30e3, 40e3]), cfg, 0)
    for t, expected in zip(w.times, [13.33, 26.67, 40.00, 53.33]):
        assert abs(t - expected) <= 0.01, (t, expected)
    assert abs(w.span - 40.0) <= 0.01
    assert tm.dynamic_range(cfg, P, 40e3) == pytest.approx(40.0, abs=0.01)
    gaps = [b - a for a, b in zip(w.times, w.times[1:])]
    assert max(gaps) - min(gaps) < 1e-9, "linear R must recall linearly"
    report(2, "10-40 kohm column recalls 13.33/26.67/40.00/53.33 ns", t0, 1.0)


def test_criterion_3_native_round_trip_fidelity():
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=4, cols=1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = tm.Wavefront(tuple(rng.uniform(0.0, 40.0, 4)))
        rt = tm.round_trip(w, cfg, P)
        assert rt.tau == 1.0, (w, rt.tau)
        assert rt.rms_ns <= 0.10 * w.span, (w, rt.rms_ns)
    report(3, "native round trip: tau 1.0, rms <= 10% of span, 100/100", t0, 5.0)


def test_criterion_4_first_edge_invariance():
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=4, cols=1)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        w = tm.Wavefront(tuple(rng.uniform(0.0, 40.0, 4)))
        state, result = tm.capture_native(tm.new_array(cfg, P), cfg, P, 0, w)
        first = int(np.argmin(w.times))
        assert result.final_resistances[first] == P.r_on
        assert state.stress[first, 0] == 0.0
    report(4, "first-arriving channel stays exactly at r_on, 1000/1000", t0, 5.0)


def test_criterion_5_log_compression_and_linear_window():
    t0 = time.perf_counter()
    # beyond the window: strictly decreasing increments
    rs = [resistance_of(s, P) for s in (0.0, 100.0, 200.0, 300.0, 400.0)]
    incs = [b - a for a, b in zip(rs, rs[1:])]
    assert all(x > y for x, y in zip(incs, incs[1:])), incs
    # inside the window: increments equal within 10% of their mean
    rs = [resistance_of(s, P) for s in (0.0, 10.0, 20.0, 30.0, 40.0)]
    incs = [b - a for a, b in zip(rs, rs[1:])]
    mean = sum(incs) / len(incs)
    assert all(abs(i - mean) / mean <= 0.10 for i in incs), incs
    report(5, "log compression outside window, near-linear inside", t0, 1.0)


def test_criterion_6_digital_path_error_and_convergence():
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=8, cols=1)
    q = tm.QuantizerSpec(kind="counter", t_clk=1.0)
    rng = np.random.default_rng(4)
    # step sized so one pulse moves R by less than the 0.1% verify band
    step, max_iters = 0.01, 8000
    for _ in range(15):
        vals = np.concatenate(([0.0, 40.0], rng.uniform(0.0, 40.0, 6)))
        w = tm.Wavefront(tuple(vals[rng.permutation(8)]))
        rt = tm.round_trip(w, cfg, P, tm.SweepSettings(
            path="digital", quantizer=q, tol=1e-3, step_ns=step,
            max_iters=max_iters))
        assert all(rt.capture.converged), rt.capture.iterations
        assert max(rt.capture.iterations) <= max_iters
        assert rt.rms_ns <= 1.0, rt.rms_ns
    report(6, "digital path: rms <= 1 ns at t_clk 1 ns, tol 0.1%", t0, 5.0)


def test_criterion_7_rank_order_dominance_and_bits():
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=8, cols=1)
    spec = tm.VariationSpec(d2d_sigma=0.01, c2c_sigma=0.042, seed=20260809)
    rep, _ = tm.monte_carlo(cfg, P, spec, 1000, tm.SweepSettings())
    assert rep.rank_exact_rate >= rep.timing_success_rate
    assert 4.0 <= rep.effective_bits_mean <= 5.0, rep.effective_bits_mean
    # regression values pinned from the first oracle run of this harness
    assert rep.rank_exact_rate == 0.591, rep.rank_exact_rate
    assert rep.timing_success_rate == 0.154, rep.timing_success_rate
    report(7, "rank order beats exact timing; 4-5 effective bits", t0, 60.0)


def test_criterion_8_sweep_determinism_serial_vs_parallel(tmp_path):
    t0 = time.perf_counter()
    cfg = tm.ArrayConfig(rows=8, cols=1)
    spec = tm.VariationSpec(seed=11)
    rep_a, rows_a = tm.monte_carlo(cfg, P, spec, 200, tm.SweepSettings())
    rep_b, rows_b = tm.monte_carlo(cfg, P, spec, 200, tm.SweepSettings())
    rep_p, rows_p = tm.monte_carlo(cfg, P, spec, 200, tm.SweepSettings(),
                                   workers=2)
    assert rep_a == rep_b == rep_p
    assert rows_a == rows_b == rows_p
    from tempmem.variability import write_trial_report_csv, write_trials_csv
    for tag, rep, rows in (("a", rep_a, rows_a), ("p", rep_p, rows_p)):
        write_trial_report_csv(tmp_path / f"report_{tag}.csv", rep)
        write_trials_csv(tmp_path / f"trials_{tag}.csv", rows)
    assert (tmp_path / "report_a.csv").read_bytes() == \
        (tmp_path / "report_p.csv").read_bytes()
    assert (tmp_path / "trials_a.csv").read_bytes() == \
        (tmp_path / "trials_p.csv").read_bytes()
    report(8, "sweep byte-identical across runs, serial == parallel", t0, 60.0)
