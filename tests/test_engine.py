"""The batched Monte Carlo engine against the per-trial layer functions.

`monte_carlo` evaluates a block of trials on arrays with a trials axis.
Its rows must equal, with `==`, the rows of a per-trial reference built
from the public layer functions and the scalar scores of
`reference_scoring`, one trial at a time.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from tempmem import variability
from tempmem.crossbar import (ArrayConfig, base_params, ln_factor, new_array,
                              recall)
from tempmem.device import DeviceParams
from tempmem.recording import (QuantizerSpec, SweepSettings, capture_native,
                               default_slope, program_closed_loop, quantize,
                               recall_and_score, round_trip)
from tempmem.variability import (TrialRow, VariationSpec, monte_carlo, perturb_pulse,
                                 random_wavefront, sample_array)
from tempmem.wavefront import (EFFECTIVE_BITS_CAP, Wavefront, effective_bits,
                               fidelity, normalize, rank_of)

from reference_scoring import kendall_tau_of, timing_error_of

P = DeviceParams()

# numpy's pairwise sum unrolls by 8, so row counts around 8 and 16 check
# that the batched reductions keep the 1-D summation order.
ROWS = (1, 2, 7, 8, 9, 17)
# (run.scale_cap, array c_line): "none" recalls at the configured c_line.
SCALES = (("matched", 1e-12), ("none", 1e-12), ("none", 0.7e-12))


def reference_rows(cfg, base, spec, n_trials, s):
    """Each trial one at a time through the public layer functions."""
    rows = []
    for i, seed in enumerate(np.random.SeedSequence(spec.seed).spawn(n_trials)):
        rng = np.random.default_rng(seed)
        w = random_wavefront(rng, s.channels, s.span_ns)
        grid = sample_array(base, spec, cfg.rows, cfg.cols, rng=rng)
        noise = partial(perturb_pulse, spec=spec, rng=rng)
        state = new_array(cfg, grid)
        if s.path == "native":
            state, cap = capture_native(state, cfg, grid, s.column, w, s.v_write,
                                        window_ns=s.window_ns, pulse_noise=noise)
        else:
            q = s.quantizer
            r_on = base_params(grid).r_on
            targets = [r_on + default_slope(q.t_clk) * c
                       for c in quantize(w, q).effective_counts(q)]
            state, cap = program_closed_loop(
                state, cfg, grid, s.column, targets, tol=s.tol, v_write=s.v_write,
                step=s.step_ns, max_iters=s.max_iters, pulse_noise=noise)
        delta_r = max(cap.final_resistances) - min(cap.final_resistances)
        if s.scale_cap == "matched" and delta_r > 0 and w.span > 0:
            c_line = w.span * 1e-9 / (delta_r * ln_factor(cfg.theta))
        else:
            c_line = cfg.c_line
        recalled, energy = recall(state, replace(cfg, c_line=c_line), s.column)
        in_n, out_n = normalize(w), normalize(recalled)
        rms, max_abs = timing_error_of(in_n, out_n)
        rows.append(TrialRow(
            trial=i, tau=kendall_tau_of(rank_of(in_n), rank_of(out_n)), rms_ns=rms,
            max_abs_ns=max_abs,
            bits=effective_bits(w.span, rms) if w.span > 0 else EFFECTIVE_BITS_CAP,
            write_energy_j=cap.write_energy,
            recall_energy_j=energy.per_line * cfg.rows,
            converged=all(cap.converged), window_exceeded=w.span > s.window_ns))
    return tuple(rows)


def sweep_settings(path, rows, scale_cap, span_ns):
    """Settings for a route: "native", "digital" (a counter), or "vernier",
    the digital route through a counter and vernier, whose counts are
    fractional."""
    s = SweepSettings(channels=rows, scale_cap=scale_cap, span_ns=span_ns,
                      column=1, window_ns=30.0)
    if path != "native":
        # A step small enough to land in the band, and a budget that some
        # devices run out of.
        s = replace(s, path="digital", step_ns=0.05, tol=2e-3, max_iters=300)
    if path == "vernier":
        s = replace(s, quantizer=QuantizerSpec("vernier", t_clk=1.0, t_fine=0.1))
    return s


class TestEngineEqualsLayers:
    @pytest.mark.parametrize("scale_cap, c_line", SCALES)
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("path", ["native", "digital", "vernier"])
    @hsettings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           d2d=st.sampled_from([0.0, 0.01, 0.2]),
           c2c=st.sampled_from([0.0, 0.042, 0.3]),
           span_ns=st.sampled_from([0.0, 1.5, 40.0]))
    def test_rows_equal(self, path, rows, scale_cap, c_line, seed, d2d, c2c,
                        span_ns):
        cfg = ArrayConfig(rows=rows, cols=2, c_line=c_line)
        spec = VariationSpec(d2d_sigma=d2d, c2c_sigma=c2c, seed=seed)
        s = sweep_settings(path, rows, scale_cap, span_ns)
        _, got = monte_carlo(cfg, P, spec, 3, s)
        assert got == reference_rows(cfg, P, spec, 3, s)

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_one_trial_past_a_block_and_across_workers(self, path):
        cfg = ArrayConfig(rows=8, cols=1024)
        block = variability._BLOCK_CELLS // (cfg.rows * cfg.cols)
        assert block >= 2
        spec = VariationSpec(d2d_sigma=0.01, c2c_sigma=0.042, seed=31)
        s = sweep_settings(path, cfg.rows, "matched", 40.0)
        report, serial = monte_carlo(cfg, P, spec, block + 1, s)
        assert serial == reference_rows(cfg, P, spec, block + 1, s)
        assert monte_carlo(cfg, P, spec, block + 1, s, workers=2) == (report, serial)

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_grid_base_params(self, path):
        # A base that already holds an r_on grid is spread device by device.
        cfg = ArrayConfig(rows=8, cols=2)
        base = replace(P, r_on=np.linspace(9e3, 11e3, 16).reshape(8, 2))
        spec = VariationSpec(seed=4)
        s = sweep_settings(path, 8, "matched", 40.0)
        assert monte_carlo(cfg, base, spec, 5, s)[1] == \
            reference_rows(cfg, base, spec, 5, s)

    @staticmethod
    def _streams(seed, n_trials, s):
        """Each trial's generator, past its wavefront's draws."""
        for child in np.random.SeedSequence(seed).spawn(n_trials):
            rng = np.random.default_rng(child)
            random_wavefront(rng, s.channels, s.span_ns)
            yield rng

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_r_on_just_below_r_off_max_passes(self, path):
        # Within the check's slack of the bound the grid is checked in full,
        # which passes it.
        cfg = ArrayConfig(rows=4, cols=2)
        s = sweep_settings(path, 4, "matched", 40.0)
        for r_on in (1e4 * (1 - 1e-12), np.array([[1e4 * (1 - 1e-12), 9e3]] * 4)):
            base = replace(P, r_on=r_on, r_off_max=1e4)
            spec = VariationSpec(d2d_sigma=0.0, seed=2)
            assert monte_carlo(cfg, base, spec, 3, s)[1] == \
                reference_rows(cfg, base, spec, 3, s)

    def test_boundary_checks_kept(self):
        cfg = ArrayConfig(rows=4, cols=2)
        with pytest.raises(ValueError, match="channels"):
            monte_carlo(cfg, P, VariationSpec(), 2, SweepSettings(channels=3))
        with pytest.raises(ValueError, match="out of range"):
            monte_carlo(cfg, P, VariationSpec(), 2,
                        SweepSettings(channels=4, column=2))
        # A spread that puts some r_on at or above r_off_max
        with pytest.raises(ValueError, match="r_off_max"):
            monte_carlo(cfg, replace(P, r_off_max=10.5e3),
                        VariationSpec(d2d_sigma=0.5), 4, SweepSettings(channels=4))
        with pytest.raises(ValueError, match="threshold"):
            monte_carlo(cfg, P, VariationSpec(), 2,
                        SweepSettings(channels=4, v_write=0.5))
        # A recall line capacitance so large the edge times overflow
        with pytest.raises(ValueError, match="finite"):
            monte_carlo(replace(cfg, c_line=1e300), P, VariationSpec(), 2,
                        SweepSettings(channels=4, scale_cap="none"))

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_r_on_checked_off_the_captured_column(self, path):
        # Spreads that put an r_on only outside the captured column at or
        # above r_off_max: the whole grid is checked, not just the column.
        cfg = ArrayConfig(rows=4, cols=2)
        spec = VariationSpec(d2d_sigma=0.03, seed=45)
        s = SweepSettings(path=path, channels=4, column=1)
        tight = replace(P, r_off_max=1.1e4)
        grids = [sample_array(P, spec, 4, 2, rng=rng) for rng in
                 self._streams(spec.seed, 3, s)]
        assert any((g.r_on >= 1.1e4).any() for g in grids)
        assert all((g.r_on[:, 1] < 1.1e4).all() for g in grids)
        with pytest.raises(ValueError, match="r_off_max"):
            monte_carlo(cfg, tight, spec, 3, s)
        grid_base = replace(tight, r_on=np.array([[1.099e4, 1e4]] * 4))
        with pytest.raises(ValueError, match="r_off_max"):
            monte_carlo(cfg, grid_base, VariationSpec(d2d_sigma=0.01), 2, s)

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_spread_past_the_ei_bound_raises(self, path):
        # 10 kohm / 15 ohm is below Ei's 709.78, but a 20% spread takes
        # some r_on past 10.65 kohm: a write energy of nan, not a row.
        with pytest.raises(ValueError, match="amp_a must be above"):
            monte_carlo(ArrayConfig(rows=4, cols=1), replace(P, amp_a=15.0),
                        VariationSpec(d2d_sigma=0.2, seed=1), 5,
                        SweepSettings(path=path, channels=4, max_iters=5))


def states(generators) -> list:
    return [g.bit_generator.state for g in generators]


class TestDerivedStreams:
    """A block derives each trial's generator (`_trial_generators`) from
    its seed words; it must give numpy's own stream of
    `SeedSequence(seed).spawn(n)[k]`."""

    BLOCK = variability._BLOCK_CELLS // 32  # trials per block at 8 x 4

    @hsettings(max_examples=30, deadline=None)
    @given(seed=st.one_of(
               st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**128,
                                2**128 + 2**96 + 7, 2**200 - 1]),
               st.integers(0, 2**256),
               st.integers(0, 2**63 - 1).map(np.int64),
               st.integers(0, 2**64 - 1).map(np.uint64)),
           first=st.sampled_from([0, 1, BLOCK - 2, BLOCK - 1, BLOCK]),
           count=st.integers(1, 3))
    def test_states_equal_numpys(self, seed, first, count):
        children = np.random.SeedSequence(seed).spawn(first + count)[first:]
        assert states(variability._trial_generators(seed, first, count)) == states(
            map(np.random.default_rng, children))

    def test_whole_block_equals_numpys(self):
        seed = 2**64 + 12345
        children = np.random.SeedSequence(seed).spawn(self.BLOCK)
        assert states(variability._trial_generators(seed, 0, self.BLOCK)) == states(
            map(np.random.default_rng, children))

    # Sweeps whose spawn keys would reach 2**32, where keys gain a second
    # word, and sweeps wholly past it: rejected before any draw.
    @pytest.mark.parametrize("first, count", [
        (2**32 - 2, 4), (2**32 - 1000, 2048), (2**32, 3), (2**40 + 7, 5),
        (2**64 - 3, 3)])
    @pytest.mark.parametrize("seed", [7, 2**96 + 5])
    def test_spawn_keys_past_one_word_rejected(self, seed, first, count,
                                               monkeypatch):
        def no_draws(*args):
            raise AssertionError("seeded trial generators")

        monkeypatch.setattr(variability, "_trial_generators", no_draws)
        with pytest.raises(ValueError, match=r"below 2\*\*32"):
            SweepSettings(trials=first + count)
        with pytest.raises(ValueError, match=r"below 2\*\*32"):
            monte_carlo(ArrayConfig(rows=8, cols=4), P, VariationSpec(seed=seed),
                        first + count)

    # One-trial blocks (digital sweeps at scale) from seeds of 1 to 8
    # 32-bit words, numpy integer seeds among them, up to the largest key
    # of one word.
    @pytest.mark.parametrize("seed", [
        *(2**(32 * w) - 1 - w for w in range(1, 9)), 2**(32 * 7),
        np.int64(2**63 - 1), np.int64(0), np.uint64(2**64 - 1), np.uint64(2**32)])
    @pytest.mark.parametrize("first", [0, 1, BLOCK - 1, 2**32 - 1])
    def test_one_trial_blocks(self, seed, first):
        assert states(variability._trial_generators(seed, first, 1)) == [
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first,)))
            .bit_generator.state]

    @hsettings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**64))
    def test_trial_generators_draw_as_fresh_ones(self, seed):
        def draws(gens):
            # A digital block's draws: every trial's wavefront and normals
            # first, then each trial's closed-loop noise, so that each
            # generator must hold its own stream.
            out = []
            for g in gens:
                vals, order, z = np.empty(6), np.arange(8), np.empty(40)
                g.random(out=vals)
                g.shuffle(order)
                g.standard_normal(out=z)
                out.append([vals.tolist(), order.tolist(), z.tolist()])
            for g, o in zip(gens, out):
                o.append(g.standard_normal(64).tolist())
            return out

        children = np.random.SeedSequence(seed).spawn(2)
        assert draws(list(variability._trial_generators(seed, 0, 2))) == draws(
            [np.random.default_rng(c) for c in children])

    @pytest.mark.parametrize("path", ["native", "digital"])
    def test_one_channel_sweep_across_blocks_and_workers(self, path):
        # One channel draws no wavefront, only its grid and noise.
        cfg = ArrayConfig(rows=1, cols=2)
        spec = VariationSpec(d2d_sigma=0.01, c2c_sigma=0.042, seed=12)
        s = sweep_settings(path, 1, "matched", 40.0)
        report, serial = monte_carlo(cfg, P, spec, 16, s)
        assert serial == reference_rows(cfg, P, spec, 16, s)
        assert monte_carlo(cfg, P, spec, 16, s, workers=2) == (report, serial)


class TestFidelity:
    """`wavefront.fidelity` row by row against the scalar scores of
    `reference_scoring`."""

    @pytest.mark.parametrize("n", ROWS)
    def test_rows_equal_scalar_scores(self, n):
        rng = np.random.default_rng(n)
        inputs = rng.uniform(0.0, 40.0, (300, n))
        recalled = inputs + rng.normal(0.0, 0.5, (300, n)) + 20.0
        got = [x.tolist() for x in fidelity(inputs, recalled)]
        want = []
        for a, b in zip(inputs.tolist(), recalled.tolist()):
            in_n, out_n = normalize(Wavefront(a)), normalize(Wavefront(b))
            rms, max_abs = timing_error_of(in_n, out_n)
            span = Wavefront(a).span
            want.append((kendall_tau_of(rank_of(in_n), rank_of(out_n)), rms,
                         max_abs, effective_bits(span, rms) if span > 0
                         else EFFECTIVE_BITS_CAP))
        assert list(zip(*got)) == want

    def test_overflowing_rms_raises(self):
        # 1e153 ns squares to a finite 1e306; 1e160 ns overflows.
        _, rms, _, _ = fidelity(np.array([[0.0, 1e153]]), np.zeros((1, 2)))
        assert rms.tolist() == [1e153 / 2 ** 0.5]
        with pytest.raises(ValueError, match="rms timing error overflows"):
            fidelity(np.array([[0.0, 5.0], [0.0, 1e160]]), np.zeros((2, 2)))

    def test_bits_are_math_log2(self):
        # numpy's log2 differs from math.log2 on about 1 in 10^4 inputs, so
        # this takes many rows of span / (2 rms) ratios.
        rng = np.random.default_rng(3)
        inputs = np.zeros((60000, 2))
        inputs[:, 1] = rng.uniform(1.0, 80.0, 60000)
        recalled = inputs * rng.uniform(0.5, 1.5, (60000, 1))
        _, rms, _, bits = fidelity(inputs, recalled)
        assert bits.tolist() == [effective_bits(s, r) for s, r in
                                 zip(inputs[:, 1].tolist(), rms.tolist())]


class TestTies:
    """Ties in the recalled edges are scored by channel index.  Counts of 5
    on a 1 ns counter put both later channels on one target, so both
    inputs recall as (0, 5.7, 5.7)."""

    S = SweepSettings(path="digital", channels=3, step_ns=0.01, tol=1e-3,
                      max_iters=8000, quantizer=QuantizerSpec(t_clk=1.0))
    CFG = ArrayConfig(rows=3, cols=1)
    INPUTS = ((0.0, 5.2, 5.7), (0.0, 5.7, 5.2))

    def test_round_trip(self):
        taus = []
        for times in self.INPUTS:
            rt = round_trip(Wavefront(times), self.CFG, P, self.S)
            out = normalize(rt.recalled).times
            assert out[1] == out[2] == pytest.approx(5.7)
            taus.append(rt.tau)
        assert taus == [1.0, 1 / 3]

    def test_batched_scoring(self):
        resistances = [round_trip(Wavefront(t), self.CFG, P, self.S)
                       .capture.final_resistances for t in self.INPUTS]
        rt = recall_and_score(np.array(self.INPUTS), np.array(resistances),
                              self.CFG, "matched")
        assert rt.tau.tolist() == [1.0, 1 / 3]

    def test_many_ties_keep_channel_order(self):
        # Beyond 16 channels numpy's default argsort is no longer stable;
        # on integer times with many ties the batched tau must still equal
        # the pair count of the stable `rank_of`s.
        rng = np.random.default_rng(8)
        inputs = rng.integers(0, 6, (20, 40)).astype(float)
        recalled = rng.integers(0, 4, (20, 40)).astype(float)
        tau = fidelity(inputs, recalled)[0]
        assert tau.tolist() == [
            kendall_tau_of(rank_of(Wavefront(a)), rank_of(Wavefront(b)))
            for a, b in zip(inputs.tolist(), recalled.tolist())]
