import csv
import math
import multiprocessing
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from tempmem import variability
from tempmem.crossbar import ArrayConfig
from tempmem.device import DeviceParams
from tempmem.recording import round_trip
from tempmem.variability import (SweepSettings, VariationSpec, monte_carlo,
                                 perturb_pulse, random_wavefront, sample_array,
                                 write_trial_report_csv, write_trials_csv)

P = DeviceParams()
CFG8 = ArrayConfig(rows=8, cols=1)


def _rng(seed):
    return np.random.default_rng(seed)


class TestSampleArray:
    def test_zero_sigma_reproduces_base(self):
        spec = VariationSpec(d2d_sigma=0.0, c2c_sigma=0.0, seed=1)
        grid = sample_array(P, spec, 3, 2, _rng(1))
        assert grid.r_on.shape == (3, 2)
        assert np.all(grid.r_on == P.r_on)
        assert replace(grid, r_on=P.r_on) == P

    def test_deterministic_given_seed(self):
        spec = VariationSpec(seed=99)
        assert np.array_equal(sample_array(P, spec, 4, 4, _rng(99)).r_on,
                              sample_array(P, spec, 4, 4, _rng(99)).r_on)

    def test_different_seeds_differ(self):
        a = sample_array(P, VariationSpec(), 2, 2, _rng(1))
        b = sample_array(P, VariationSpec(), 2, 2, _rng(2))
        assert not np.array_equal(a.r_on, b.r_on)

    def test_empirical_relative_spread(self):
        spec = VariationSpec(d2d_sigma=0.01, seed=3)
        r_on = sample_array(P, spec, 100, 100, _rng(3)).r_on
        rel_std = r_on.std() / r_on.mean()
        assert 0.009 <= rel_std <= 0.011

    def test_mean_preserving(self):
        spec = VariationSpec(d2d_sigma=0.042, seed=4)
        r_on = sample_array(P, spec, 100, 100, _rng(4)).r_on
        assert r_on.mean() == pytest.approx(P.r_on, rel=2e-3)

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (0, 0), (-1, 2)])
    def test_empty_grid_rejected_before_any_draw(self, rows, cols):
        rng = _rng(5)
        with pytest.raises(ValueError, match="rows >= 1 and cols >= 1"):
            sample_array(P, VariationSpec(), rows, cols, rng)
        assert rng.bit_generator.state == _rng(5).bit_generator.state


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

    def test_nan_duration_rejected(self):
        for bad in (float("nan"), np.array([1.0, float("nan")])):
            with pytest.raises(ValueError, match="non-negative"):
                perturb_pulse(bad, VariationSpec(), np.random.default_rng(0))

    def test_infinite_duration_passes(self):
        # `recording._effective` rejects infinite durations downstream.
        assert perturb_pulse(math.inf, VariationSpec(), _rng(0)) == math.inf

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            VariationSpec(d2d_sigma=-0.1)
        # 1e200 is finite, but its square, which _spread takes, is not.
        for bad in (float("nan"), float("inf"), 1e200):
            with pytest.raises(ValueError):
                VariationSpec(d2d_sigma=bad)
            with pytest.raises(ValueError):
                VariationSpec(c2c_sigma=bad)

    def test_seed_validation(self):
        for bad in (-1, 1.5, "3"):
            with pytest.raises(ValueError, match="variation.seed"):
                VariationSpec(seed=bad)
        assert VariationSpec(seed=np.uint64(2**63)).seed == 2**63

    @pytest.mark.parametrize("sigma", [0.0, 0.042, 0.3])
    def test_bound_noise_on_one_element_arrays_equals_float_calls(self, sigma):
        spec = VariationSpec(c2c_sigma=sigma)
        noise = partial(perturb_pulse, spec=spec, rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        durations = [0.0, 0.01, 1.0, 17.3, 40.0] * 200
        assert [noise(np.array([d]))[0] for d in durations] == \
            [perturb_pulse(d, spec, rng) for d in durations]
        with pytest.raises(ValueError):
            perturb_pulse(np.array([1.0, -1.0]), spec, np.random.default_rng(9))

    @pytest.mark.parametrize("sigma", [0.0, 0.042, 0.3])
    def test_one_call_on_an_array_equals_one_call_per_element(self, sigma):
        spec = VariationSpec(c2c_sigma=sigma)
        durations = np.array([0.0, 0.01, 1.0, 17.3, 40.0] * 200)
        rng = np.random.default_rng(9)
        singles = [perturb_pulse(d, spec, rng) for d in durations.tolist()]
        assert all(type(x) is float for x in singles)
        rng = np.random.default_rng(9)
        block = perturb_pulse(durations, spec, rng)
        assert block.tolist() == singles
        # the stream is left where the single calls leave it
        assert perturb_pulse(5.0, spec, rng) == \
            perturb_pulse(5.0, spec, _advanced(9, durations.size))
        grid = perturb_pulse(durations.reshape(20, 50), spec,
                             np.random.default_rng(9))
        assert grid.shape == (20, 50)
        assert grid.ravel().tolist() == singles
        noise = partial(perturb_pulse, spec=spec, rng=np.random.default_rng(9))
        parts = [noise(durations[i:j]) for i, j in ((0, 1), (1, 400), (400, 1000))]
        assert np.concatenate(parts).tolist() == singles


# From no spread through the default c2c sigma to extremes whose factors
# span many orders of magnitude.
SIGMAS = (0.0, 1e-6, 0.042, 0.3, 2.0, 1e3)


def _per_element(x, sigma, z):
    """Each x times a mean-one lognormal factor of relative std-dev sigma,
    one scalar `math.exp` per standard normal in z."""
    s2 = math.log1p(sigma * sigma)
    return [xi * math.exp(-0.5 * s2 + math.sqrt(s2) * zi) for xi, zi in zip(x, z)]


class TestPerElementReference:
    """Both noise functions equal a per-element Python reference on a fresh
    same-seed generator's standard normals, bit for bit, and leave the
    stream where that generator is: one draw per element, even at sigma 0."""

    # Room above r_on for the widest spreads' factors.
    WIDE = replace(P, r_off_max=1e30)

    @pytest.mark.parametrize("sigma", SIGMAS)
    @hsettings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), rows=st.integers(1, 9),
           cols=st.integers(1, 9))
    def test_sample_array(self, seed, rows, cols, sigma):
        rng, ref = _rng(seed), _rng(seed)
        spec = VariationSpec(d2d_sigma=sigma)
        r_on = sample_array(self.WIDE, spec, rows, cols, rng).r_on
        z = ref.standard_normal((rows, cols))
        assert r_on.shape == (rows, cols)
        expected = _per_element([self.WIDE.r_on] * z.size, sigma, z.ravel().tolist())
        assert r_on.ravel().tolist() == expected
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("sigma", SIGMAS)
    @hsettings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           shape=st.lists(st.integers(0, 5), max_size=3).map(tuple), data=st.data())
    def test_perturb_pulse(self, seed, shape, sigma, data):
        size = math.prod(shape)
        durations = data.draw(st.lists(st.floats(0.0, 1e6), min_size=size,
                                       max_size=size))
        rng, ref = _rng(seed), _rng(seed)
        arg = np.array(durations).reshape(shape) if shape else durations[0]
        out = perturb_pulse(arg, VariationSpec(c2c_sigma=sigma), rng)
        z = ref.standard_normal(shape)
        expected = _per_element(durations, sigma, np.ravel(z).tolist())
        if shape:
            assert out.shape == shape
            assert out.ravel().tolist() == expected
        else:
            assert type(out) is float and [out] == expected
        assert rng.bit_generator.state == ref.bit_generator.state


def _advanced(seed, n):
    """A generator seeded with `seed` that has made n standard normal draws."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(n)
    return rng


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

    def test_rejects_no_channels(self):
        with pytest.raises(ValueError, match="need at least one channel"):
            random_wavefront(np.random.default_rng(7), 0, 40.0)

    def test_deterministic(self):
        a = random_wavefront(np.random.default_rng(11), 6, 40.0)
        b = random_wavefront(np.random.default_rng(11), 6, 40.0)
        assert a == b


class TestMonteCarlo:
    def test_noise_free_collapse_matches_deterministic_round_trip(self):
        spec = VariationSpec(d2d_sigma=0.0, c2c_sigma=0.0, seed=123)
        settings = SweepSettings(channels=4)
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

    @staticmethod
    def stub_pool(monkeypatch):
        """Stand in for the process pool: record each pool's size and its
        number of blocks, and the multiprocessing context it was given, and
        map here."""
        started, contexts = [], []

        class Pool:
            def __init__(self, max_workers, mp_context=None):
                started.append([max_workers])
                contexts.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                started[-1].append(len(jobs))
                return map(fn, jobs)

        monkeypatch.setattr(variability, "ProcessPoolExecutor", Pool)
        return started, contexts

    @pytest.mark.parametrize("cpus, trials, pools", [
        (2, 1, []), (2, 2, [[2, 2]]), (2, 100, [[2, 2]]), (1, 100, []),
        (64, 2, [[2, 2]]), (64, 100, [[50, 50]])])
    def test_pool_starts_no_more_workers_than_blocks(self, monkeypatch, cpus,
                                                     trials, pools):
        # Fork starts every max_workers process on the first submit, so the
        # pool is sized by the usable CPUs and the blocks, and the blocks by
        # the capped worker count: one block per worker, so workers=64 runs
        # 100 trials as 2 blocks of 50 on 2 CPUs and 50 blocks of 2 on 64.
        started, contexts = self.stub_pool(monkeypatch)
        monkeypatch.setattr(variability.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        spec = VariationSpec(seed=77)
        assert monte_carlo(CFG8, P, spec, trials, workers=64) == \
            monte_carlo(CFG8, P, spec, trials)
        assert started == pools
        # Each pool is given its context (the next test pins which).
        assert len(contexts) == len(pools) and None not in contexts

    def test_block_holds_at_most_block_cells_devices(self, monkeypatch):
        # 8 x 4096 devices a trial: a block of 2 trials is 2**16 devices,
        # so 10 trials on 2 CPUs run as 5 blocks, not as 2 of 5.
        started, _ = self.stub_pool(monkeypatch)
        monkeypatch.setattr(variability.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        cfg, spec = ArrayConfig(rows=8, cols=4096), VariationSpec(seed=77)
        assert monte_carlo(cfg, P, spec, 10, workers=2) == \
            monte_carlo(cfg, P, spec, 10)
        assert started == [[2, 5]]

    # Any split of n trials into consecutive (first, count) blocks, here as
    # its block sizes, gives the rows of one (0, n) block, in order.
    @hsettings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), path=st.sampled_from(["native", "digital"]),
           counts=st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_any_block_plan_gives_the_rows_of_one_block(self, seed, path, counts):
        cfg, spec = ArrayConfig(rows=4, cols=2), VariationSpec(seed=seed)
        n = sum(counts)
        settings = SweepSettings(channels=4, path=path, step_ns=1.0, trials=n)
        firsts = np.cumsum([0] + counts[:-1]).tolist()
        split = [row for first, count in zip(firsts, counts) for row in
                 variability._run_block((first, count, cfg, P, spec, settings))]
        assert split == variability._run_block((0, n, cfg, P, spec, settings))

    @pytest.mark.parametrize("methods", [
        pytest.param(["fork", "spawn", "forkserver"], marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="the platform has no fork")),
        ["spawn", "forkserver"], ["spawn"]])
    def test_pool_context_is_fork_where_the_platform_has_it(self, monkeypatch,
                                                            methods):
        # A forkserver or spawn worker re-imports tempmem (about 0.5 s), so
        # the pool forks wherever it can, and takes the default elsewhere,
        # whatever Python's default start method is.
        _, contexts = self.stub_pool(monkeypatch)
        monkeypatch.setattr(variability.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(variability.multiprocessing,
                            "get_all_start_methods", lambda: methods)
        monte_carlo(CFG8, P, VariationSpec(seed=77), 100, workers=2)
        want = (multiprocessing.get_context("fork") if "fork" in methods
                else multiprocessing.get_context())
        assert contexts == [want]

    @pytest.mark.parametrize("count, pools", [(2, [[2, 2]]), (None, [])])
    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch, count, pools):
        started, _ = self.stub_pool(monkeypatch)
        monkeypatch.delattr(variability.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(variability.os, "cpu_count", lambda: count)
        monte_carlo(CFG8, P, VariationSpec(seed=77), 100, workers=64)
        assert started == pools

    def test_serial_sweep_does_not_ask_for_cpus(self, monkeypatch):
        def fail(*args):
            raise AssertionError("CPU count queried")

        monkeypatch.setattr(variability.os, "sched_getaffinity", fail, raising=False)
        monkeypatch.setattr(variability.os, "cpu_count", fail)
        monte_carlo(CFG8, P, VariationSpec(seed=77), 3)

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

    def test_report_means_are_left_folds(self):
        # Python 3.12's sum compensates float sums; reports must not.
        assert variability._mean([0.1] * 10, 1) == 0.9999999999999999
        spec = VariationSpec(c2c_sigma=0.2, seed=8)
        report, rows = monte_carlo(CFG8, P, spec, 60)

        def fold(values):
            total = 0
            for v in values:
                total += v
            return total / 60

        energies = [r.write_energy_j + r.recall_energy_j for r in rows]
        rms = [r.rms_ns for r in rows]
        # A sum on which compensation would change the bits
        assert fold(energies) != math.fsum(energies) / 60
        assert (report.mean_tau, report.rms_timing_ns, report.effective_bits_mean,
                report.energy_mean_j) == (fold(r.tau for r in rows), fold(rms),
                                          fold(r.bits for r in rows), fold(energies))

    def test_rates_lie_in_unit_interval(self):
        report, _ = monte_carlo(CFG8, P, VariationSpec(seed=3), 25)
        assert 0.0 <= report.rank_exact_rate <= 1.0
        assert 0.0 <= report.timing_success_rate <= 1.0
        assert -1.0 <= report.mean_tau <= 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(CFG8, P, VariationSpec(), 0)

    # The counts are checked as SweepSettings checks them, naming the field.
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="run.workers must be at least 1"):
            monte_carlo(CFG8, P, VariationSpec(), 4, workers=0)

    def test_rejects_a_float_trial_count(self):
        with pytest.raises(ValueError, match="run.trials must be an integer"):
            monte_carlo(CFG8, P, VariationSpec(), 2.0)

    def test_rejects_a_float_worker_count(self):
        with pytest.raises(ValueError, match="run.workers must be an integer"):
            monte_carlo(CFG8, P, VariationSpec(), 4, workers=1.5)

    def test_digital_path_sweep(self):
        # d2d spread can put a device's ON state above its target, which a
        # RESET-only verify loop can never reach, so convergence is only
        # guaranteed without d2d noise
        settings = SweepSettings(channels=4, path="digital", tol=5e-3,
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
