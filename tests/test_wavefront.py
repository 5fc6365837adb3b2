import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import stats

from tempmem.wavefront import (Wavefront, effective_bits, kendall_tau,
                               normalize, rank_of, read_wavefront_csv,
                               timing_error, write_csv, write_wavefront_csv,
                               _csv_line, _fixed, _write_lines)

from reference_scoring import kendall_tau_of


def wf(*times):
    return Wavefront(tuple(times))


times_lists = st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                       max_size=12)


class TestWavefrontType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Wavefront(())

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            wf(1.0, -0.5)
        with pytest.raises(ValueError):
            wf(1.0, math.inf)
        with pytest.raises(ValueError):
            wf(1.0, math.nan)

    def test_span(self):
        assert wf(5.0, 25.0, 45.0).span == 40.0
        assert wf(7.0).span == 0.0


class TestNormalize:
    def test_shifts_by_minimum(self):
        assert normalize(wf(5.0, 25.0, 45.0)).times == (0.0, 20.0, 40.0)

    def test_degenerate_all_equal(self):
        assert normalize(wf(7.0, 7.0, 7.0)).times == (0.0, 0.0, 0.0)

    def test_already_normalized_unchanged(self):
        assert normalize(wf(0.0, 10.0, 40.0)).times == (0.0, 10.0, 40.0)

    @given(times_lists)
    def test_idempotent(self, times):
        once = normalize(Wavefront(tuple(times)))
        assert normalize(once) == once


class TestRankOf:
    def test_sorted_input(self):
        assert rank_of(wf(0.0, 20.0, 40.0)) == (0, 1, 2)

    def test_reversed_input(self):
        assert rank_of(wf(40.0, 20.0, 0.0)) == (2, 1, 0)

    def test_tie_breaks_by_channel_index(self):
        assert rank_of(wf(5.0, 5.0, 1.0)) == (2, 0, 1)

    @given(times_lists)
    def test_invariant_under_normalize(self, times):
        w = Wavefront(tuple(times))
        assert rank_of(w) == rank_of(normalize(w))

    # Integer times stay distinct through the maps; float inputs that are
    # closer than an ulp of the mapped value would collapse into ties.
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=12, unique=True),
           st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_invariant_under_monotone_maps(self, times, gain, offset):
        w = Wavefront(tuple(float(t) for t in times))
        affine = Wavefront(tuple(gain * t + offset for t in w.times))
        compressed = Wavefront(tuple(math.log1p(t) for t in w.times))
        assert rank_of(affine) == rank_of(w)
        assert rank_of(compressed) == rank_of(w)


class TestKendallTau:
    def test_identical_orders(self):
        r = (2, 0, 1, 3)
        assert kendall_tau(r, r) == 1.0

    def test_reversed_orders(self):
        assert kendall_tau((0, 1, 2, 3), (3, 2, 1, 0)) == -1.0

    def test_single_swap(self):
        tau = kendall_tau((0, 1, 2), (1, 0, 2))
        assert tau == pytest.approx(1.0 / 3.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            kendall_tau((0, 1), (0, 1, 2))

    def test_single_channel_defined_as_one(self):
        assert kendall_tau((0,), (0,)) == 1.0

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_matches_scipy_oracle(self, a, b):
        ours = kendall_tau(tuple(a), tuple(b))
        pos_a = np.argsort(a)
        pos_b = np.argsort(b)
        expected = stats.kendalltau(pos_a, pos_b).statistic
        assert ours == pytest.approx(expected, abs=1e-12)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n)))))
    def test_matches_the_pair_count(self, orders):
        a, b = (tuple(o) for o in orders)
        assert kendall_tau(a, b) == kendall_tau_of(a, b)

    @given(st.permutations(list(range(5))), st.permutations(list(range(5))))
    def test_symmetric(self, a, b):
        ra, rb = tuple(a), tuple(b)
        assert kendall_tau(ra, rb) == kendall_tau(rb, ra)


class TestFixed:
    """Report figures keep their fixed-point text below 1e16, where a
    float's integer digits are still exact, and turn short above it."""

    @pytest.mark.parametrize("x, digits, text", [
        (0.0, 4, "0.0000"), (16168.152465545196, 2, "16168.15"),
        (9999999999999998.0, 2, "9999999999999998.00"), (1e16, 2, "1.00e+16"),
        (1.96e300, 2, "1.96e+300")])
    def test_exponent_form_from_1e16(self, x, digits, text):
        assert _fixed(x, digits) == text


class TestTimingError:
    def test_identical(self):
        assert timing_error(wf(0.0, 10.0), wf(0.0, 10.0)) == (0.0, 0.0)

    def test_two_channel_example(self):
        rms, max_abs = timing_error(wf(0.0, 10.0), wf(0.0, 14.0))
        assert rms == pytest.approx(math.sqrt(8.0))
        assert max_abs == 4.0

    def test_shift_invariance(self):
        rms, max_abs = timing_error(wf(0.0, 10.0, 20.0), wf(5.0, 15.0, 25.0))
        assert rms == 0.0 and max_abs == 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            timing_error(wf(0.0), wf(0.0, 1.0))

    # Integer grid keeps the shifted subtraction exact in floating point.
    @given(st.lists(st.integers(min_value=0, max_value=100_000), min_size=1,
                    max_size=12),
           st.integers(min_value=0, max_value=100_000))
    def test_invariant_under_common_shift(self, times, shift):
        a = Wavefront(tuple(float(t) for t in times))
        b = Wavefront(tuple(float(t + shift) for t in times))
        assert timing_error(a, b) == (0.0, 0.0)


class TestEffectiveBits:
    def test_five_bit_level(self):
        assert effective_bits(40.0, 0.625) == pytest.approx(5.0)

    def test_four_bit_level(self):
        assert effective_bits(40.0, 1.25) == pytest.approx(4.0)

    def test_zero_rms_hits_cap(self):
        assert effective_bits(40.0, 0.0) == 8.0

    def test_tiny_rms_capped(self):
        assert effective_bits(40.0, 1e-9) == 8.0

    def test_rejects_nonpositive_span(self):
        with pytest.raises(ValueError):
            effective_bits(0.0, 1.0)


class TestWriteInPlace:
    """Output files are written over their old bytes and cut at the new
    end, never truncated to zero first: the same file, as a hard link or an
    open reader sees it, with the bytes of a fresh write."""

    ROWS = [[i, i / 7] for i in range(40)]

    def test_shorter_over_longer_equals_fresh_write(self, tmp_path):
        old, fresh = tmp_path / "old.csv", tmp_path / "fresh.csv"
        write_csv(old, ["a", "b"], self.ROWS)
        write_csv(old, ["a", "b"], self.ROWS[:3])
        write_csv(fresh, ["a", "b"], self.ROWS[:3])
        assert old.read_bytes() == fresh.read_bytes() == \
            b"a,b\r\n0,0.0\r\n1,0.14285714285714285\r\n2,0.2857142857142857\r\n"

    def test_report_text_equals_write_text(self, tmp_path):
        # The text reports keep open(path, "w")'s newline translation.
        old, fresh = tmp_path / "old.txt", tmp_path / "fresh.txt"
        old.write_text("a much longer earlier report\n" * 9)
        _write_lines(old, ["trials: 2\nmean tau: 1.000\n"])
        fresh.write_text("trials: 2\nmean tau: 1.000\n")
        assert old.read_bytes() == fresh.read_bytes()

    def test_hard_link_and_open_reader_see_the_new_bytes(self, tmp_path):
        path, link = tmp_path / "t.csv", tmp_path / "link.csv"
        write_csv(path, ["a", "b"], self.ROWS)
        os.link(path, link)
        inode = path.stat().st_ino
        with open(path, "rb") as reader:
            write_csv(path, ["a", "b"], self.ROWS[:2])
            new = path.read_bytes()
            assert reader.read() == new
        assert link.read_bytes() == new == b"a,b\r\n0,0.0\r\n1,0.14285714285714285\r\n"
        assert path.stat().st_ino == inode

    def test_raise_mid_stream_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], self.ROWS)
        with pytest.raises(ValueError, match="quoting"):
            write_csv(path, ["a", "b"], [[1, 2.5], ["x,y", 3]] + self.ROWS)
        assert path.read_bytes() == b"a,b\r\n1,2.5\r\n"

    # About 560 kB of lines: many times the text layer's buffer.
    MANY = [[i, i / 7, -i / 3] for i in range(12000)]

    def test_several_chunks_equal_open_w_writelines(self, tmp_path):
        old, fresh = tmp_path / "old.csv", tmp_path / "fresh.csv"
        write_csv(old, ["a", "b", "c"], self.MANY + self.MANY)
        write_csv(old, ["a", "b", "c"], self.MANY)
        with open(fresh, "w", newline="") as f:
            f.writelines(map(_csv_line, [["a", "b", "c"]] + self.MANY))
        assert old.stat().st_size > 4 * (1 << 16)
        assert old.read_bytes() == fresh.read_bytes()

    def test_raise_after_the_first_chunk_leaves_the_lines_before_it(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], self.MANY + self.MANY)
        with pytest.raises(ValueError, match="quoting"):
            write_csv(path, ["a", "b", "c"], self.MANY + [["x,y", 3, 4]] + self.MANY)
        assert path.read_bytes() == "".join(
            map(_csv_line, [["a", "b", "c"]] + self.MANY)).encode()

    def test_non_ascii_report_equals_write_text(self, tmp_path):
        old, fresh = tmp_path / "old.txt", tmp_path / "fresh.txt"
        text = "span: 40 µs — τ ≥ 0.5\nÅngström, naïve\n"
        old.write_text("a much longer earlier report\n" * 9)
        _write_lines(old, [text])
        fresh.write_text(text)
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_no_descriptor_left_open(self, tmp_path):
        # os.open's descriptor is closed by the file object that wraps it,
        # after a normal write and after a line that raises alike.
        path, before = tmp_path / "t.csv", len(os.listdir("/proc/self/fd"))
        write_csv(path, ["a", "b"], self.ROWS)
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ValueError, match="quoting"):
            write_csv(path, ["a", "b"], [[1, 2.5], ["x,y", 3]])
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null(self):
        # A character device cannot be cut: it is written and left as it is.
        write_csv("/dev/null", ["a", "b"], self.ROWS)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_csv(fifo, ["a", "b"], self.ROWS[:2])
            assert os.read(reader, 4096) == b"a,b\r\n0,0.0\r\n1,0.14285714285714285\r\n"
        finally:
            os.close(reader)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_csv(tmp_path / "new.csv", ["a"], [[1]])
            with open(tmp_path / "open_w.csv", "w"):
                pass
        finally:
            os.umask(old)
        assert (tmp_path / "new.csv").stat().st_mode == \
            (tmp_path / "open_w.csv").stat().st_mode


class TestCsvRoundTrip:
    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], ([i, repr(i / 4)] for i in range(2)))
        assert path.read_bytes() == b"a,b\r\n0,0.0\r\n1,0.25\r\n"

    # A float cell must read as repr of the float, as the csv module writes
    # it, on every supported Python.
    @pytest.mark.parametrize("x", [0.1, 1 / 3, 1e-20, 5e300, -0.0, math.inf,
                                   np.float64(0.1)])
    def test_float_cells_are_their_repr(self, tmp_path, x):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[x]])
        assert path.read_text() == f"x\n{float(x)!r}\n"

    # The cells the program writes: ints, floats (the extremes among them),
    # numpy floats and bools; header names need no quoting.
    CELLS = st.one_of(
        st.integers(), st.booleans(), st.floats(),
        st.floats().map(np.float64),
        st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e-320, 5e300,
                         np.float64(-0.0), np.float64(1e-320)]))
    NAMES = st.text(st.sampled_from([chr(c) for c in range(32, 127)
                                     if chr(c) not in ',"']), min_size=1)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.lists(NAMES, min_size=1, max_size=5),
           rows=st.lists(st.lists(CELLS, min_size=1, max_size=9), max_size=6))
    def test_bytes_are_csv_writers(self, tmp_path, header, rows):
        path = tmp_path / "t.csv"
        write_csv(path, header, rows)
        want = io.StringIO(newline="")
        csv.writer(want).writerows([header] + rows)
        assert path.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "a\rb", "a\nb", "\r\n"])
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_cell_needing_quotes_raises(self, tmp_path, cell, where):
        path = tmp_path / "t.csv"
        header, rows = ["a", "b"], [[1, 2.5], ["x", 3]]
        if where == "header":
            header[1] = cell
        else:
            rows[1][0] = cell
        with pytest.raises(ValueError, match="quoting"):
            write_csv(path, header, rows)
        # Nothing from the bad line on is written, quoted or not.
        assert path.read_bytes() == (b"" if where == "header" else b"a,b\r\n1,2.5\r\n")

    def test_one_empty_cell_raises(self, tmp_path):
        # csv.writer quotes a row of one empty cell, so that it reads back.
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "t.csv", ["a"], [[""]])

    def test_write_read_identity(self, tmp_path):
        w = wf(0.0, 9.700000000000001, 20.3, 1e-3)
        path = tmp_path / "w.csv"
        write_wavefront_csv(path, w)
        assert read_wavefront_csv(path) == w

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("chan,ns\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_wavefront_csv(path)

    def test_rejects_non_contiguous_channels(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("channel,time_ns\n0,1.0\n2,2.0\n")
        with pytest.raises(ValueError, match="contiguous"):
            read_wavefront_csv(path)

    def test_rejects_duplicate_channel(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("channel,time_ns\n0,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_wavefront_csv(path)

    @pytest.mark.parametrize("time", ["nan", "inf", "-1.0"])
    def test_bad_time_names_file_and_line(self, tmp_path, time):
        path = tmp_path / "w.csv"
        path.write_text(f"channel,time_ns\n0,1.0\n\n1,{time}\n")
        with pytest.raises(ValueError) as info:
            read_wavefront_csv(path)
        assert str(info.value) == (f"{path}: line 4: wavefront times must be "
                                   "finite and non-negative")

    def test_line_numbers_count_lines_not_records(self, tmp_path):
        # A quoted field may span lines; errors name the line in the file.
        path = tmp_path / "w.csv"
        path.write_text('channel,time_ns\n0,"1.0\n"\n1,2.0,3\n')
        with pytest.raises(ValueError, match="w.csv: line 4: expected 2 fields"):
            read_wavefront_csv(path)

    def test_accepts_shuffled_rows(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("channel,time_ns\n1,2.0\n0,1.0\n")
        assert read_wavefront_csv(path).times == (1.0, 2.0)
