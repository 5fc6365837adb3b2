import csv
from dataclasses import replace

import numpy as np
import pytest

from tempmem.crossbar import ArrayConfig
from tempmem.device import DeviceParams
from tempmem.recording import round_trip
from tempmem.variability import (SweepSettings, VariationSpec, c2c_noise,
                                 monte_carlo, perturb_pulse, random_wavefront, sample_array,
                                 write_trial_report_csv, write_trials_csv)

P = DeviceParams()
CFG8 = ArrayConfig(rows=8, cols=1)


class TestSampleArray:
    def test_zero_sigma_reproduces_base(self):
        spec = VariationSpec(d2d_sigma=0.0, c2c_sigma=0.0, seed=1)
        grid = sample_array(P, spec, 3, 2)
        assert grid.r_on.shape == (3, 2)
        assert np.all(grid.r_on == P.r_on)
        assert replace(grid, r_on=P.r_on) == P

    def test_deterministic_given_seed(self):
        spec = VariationSpec(seed=99)
        assert np.array_equal(sample_array(P, spec, 4, 4).r_on,
                              sample_array(P, spec, 4, 4).r_on)

    def test_different_seeds_differ(self):
        a = sample_array(P, VariationSpec(seed=1), 2, 2)
        b = sample_array(P, VariationSpec(seed=2), 2, 2)
        assert not np.array_equal(a.r_on, b.r_on)

    def test_empirical_relative_spread(self):
        spec = VariationSpec(d2d_sigma=0.01, seed=3)
        r_on = sample_array(P, spec, 100, 100).r_on
        rel_std = r_on.std() / r_on.mean()
        assert 0.009 <= rel_std <= 0.011

    def test_mean_preserving(self):
        spec = VariationSpec(d2d_sigma=0.042, seed=4)
        r_on = sample_array(P, spec, 100, 100).r_on
        assert r_on.mean() == pytest.approx(P.r_on, rel=2e-3)


class TestPerturbPulse:
    def test_zero_sigma_is_identity(self):
        spec = VariationSpec(c2c_sigma=0.0, seed=1)
        rng = np.random.default_rng(0)
        assert perturb_pulse(17.3, spec, rng) == 17.3

    def test_zero_duration_stays_zero(self):
        spec = VariationSpec(c2c_sigma=0.042, seed=1)
        rng = np.random.default_rng(0)
        assert perturb_pulse(0.0, spec, rng) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            perturb_pulse(-1.0, VariationSpec(), np.random.default_rng(0))

    def test_empirical_sigma_near_4_2_percent(self):
        spec = VariationSpec(c2c_sigma=0.042, seed=5)
        rng = np.random.default_rng(5)
        draws = np.array([perturb_pulse(10.0, spec, rng) for _ in range(20_000)])
        rel_std = draws.std() / draws.mean()
        assert rel_std == pytest.approx(0.042, rel=0.05)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            VariationSpec(d2d_sigma=-0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                VariationSpec(d2d_sigma=bad)
            with pytest.raises(ValueError):
                VariationSpec(c2c_sigma=bad)

    @pytest.mark.parametrize("sigma", [0.0, 0.042, 0.3])
    def test_c2c_noise_equals_perturb_pulse_draw_for_draw(self, sigma):
        spec = VariationSpec(c2c_sigma=sigma)
        noise = c2c_noise(spec, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        durations = [0.0, 0.01, 1.0, 17.3, 40.0] * 200
        assert [noise(d) for d in durations] == \
            [perturb_pulse(d, spec, rng) for d in durations]
        with pytest.raises(ValueError):
            noise(-1.0)


class TestRandomWavefront:
    def test_span_is_exact(self):
        rng = np.random.default_rng(7)
        w = random_wavefront(rng, 8, 40.0)
        assert len(w) == 8
        assert w.span == 40.0
        assert min(w.times) == 0.0

    def test_single_channel(self):
        w = random_wavefront(np.random.default_rng(7), 1, 40.0)
        assert w.times == (0.0,)

    def test_deterministic(self):
        a = random_wavefront(np.random.default_rng(11), 6, 40.0)
        b = random_wavefront(np.random.default_rng(11), 6, 40.0)
        assert a == b


class TestMonteCarlo:
    def test_noise_free_collapse_matches_deterministic_round_trip(self):
        spec = VariationSpec(d2d_sigma=0.0, c2c_sigma=0.0, seed=123)
        settings = SweepSettings(n_channels=4)
        report, rows = monte_carlo(ArrayConfig(rows=4, cols=1), P, spec, 20,
                                   settings)
        assert report.rank_exact_rate == 1.0
        # replay each trial without any noise plumbing: identical metrics
        children = np.random.SeedSequence(spec.seed).spawn(20)
        for row, child in zip(rows, children):
            rng = np.random.default_rng(child)
            w = random_wavefront(rng, 4, settings.span_ns)
            rt = round_trip(w, ArrayConfig(rows=4, cols=1), P)
            assert row.rms_ns == rt.rms_ns
            assert row.tau == rt.tau
            assert row.bits == rt.bits

    def test_deterministic_reports(self):
        spec = VariationSpec(seed=77)
        r1, rows1 = monte_carlo(CFG8, P, spec, 40)
        r2, rows2 = monte_carlo(CFG8, P, spec, 40)
        assert r1 == r2
        assert rows1 == rows2

    def test_parallel_equals_serial(self):
        spec = VariationSpec(seed=77)
        serial, rows_s = monte_carlo(CFG8, P, spec, 30)
        parallel, rows_p = monte_carlo(CFG8, P, spec, 30, workers=2)
        assert serial == parallel
        assert rows_s == rows_p

    def test_mean_tau_degrades_with_c2c_noise(self):
        means = []
        for sigma in (0.0, 0.042, 0.15, 0.4):
            spec = VariationSpec(d2d_sigma=0.01, c2c_sigma=sigma, seed=7)
            report, _ = monte_carlo(CFG8, P, spec, 150)
            means.append(report.mean_tau)
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_rank_code_beats_exact_timing_at_every_level(self):
        for sigma in (0.0, 0.02, 0.042, 0.1):
            spec = VariationSpec(d2d_sigma=0.01, c2c_sigma=sigma, seed=13)
            report, _ = monte_carlo(CFG8, P, spec, 150)
            assert report.rank_exact_rate >= report.timing_success_rate

    def test_rates_lie_in_unit_interval(self):
        report, _ = monte_carlo(CFG8, P, VariationSpec(seed=3), 25)
        assert 0.0 <= report.rank_exact_rate <= 1.0
        assert 0.0 <= report.timing_success_rate <= 1.0
        assert -1.0 <= report.mean_tau <= 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(CFG8, P, VariationSpec(), 0)

    def test_digital_path_sweep(self):
        # d2d spread can put a device's ON state above its target, which a
        # RESET-only verify loop can never reach, so convergence is only
        # guaranteed without d2d noise
        settings = SweepSettings(n_channels=4, path="digital", tol=5e-3,
                                 step_ns=0.05, max_iters=2000)
        spec = VariationSpec(d2d_sigma=0.0, c2c_sigma=0.042, seed=21)
        report, rows = monte_carlo(ArrayConfig(rows=4, cols=1), P, spec, 10,
                                   settings)
        assert report.n_trials == 10
        assert all(r.converged for r in rows)


class TestReportCsv:
    def test_report_round_trip(self, tmp_path):
        report, rows = monte_carlo(CFG8, P, VariationSpec(seed=9), 12)
        path = tmp_path / "report.csv"
        write_trial_report_csv(path, report)
        with open(path, newline="") as f:
            (row,) = csv.DictReader(f)
        assert int(row["n_trials"]) == report.n_trials
        for key, value in row.items():
            assert float(value) == getattr(report, key)

    def test_trials_csv_written(self, tmp_path):
        report, rows = monte_carlo(CFG8, P, VariationSpec(seed=9), 5)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("trial,tau,rms_ns")
        assert len(lines) == 6
