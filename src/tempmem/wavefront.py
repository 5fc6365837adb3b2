"""Wavefronts (one event time per wire) and code-space fidelity metrics.

A wavefront is the value passed between every stage of the memory:
recall produces one, capture consumes one.  Two views of the same
wavefront matter: the exact per-channel timings, and the rank order of
arrival, which survives any monotone distortion of the timings.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from dataclasses import dataclass
from itertools import chain

import numpy as np

EFFECTIVE_BITS_CAP = 8.0  # declared precision ceiling of the bits metric


@dataclass(frozen=True)
class Wavefront:
    """Per-channel event times in ns; channel index is positional."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("wavefront needs at least one channel")
        if any(not math.isfinite(t) or t < 0 for t in times):
            raise ValueError("wavefront times must be finite and non-negative")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def span(self) -> float:
        return max(self.times) - min(self.times)


def normalize(w: Wavefront) -> Wavefront:
    """Shift all times so the first event sits at 0 ns."""
    t0 = min(w.times)
    return Wavefront(tuple(t - t0 for t in w.times))


def rank_of(w: Wavefront) -> tuple[int, ...]:
    """Arrival order of the channels, as channel indices sorted by event
    time; simultaneous edges break ties by ascending channel index."""
    return tuple(np.argsort(w.times, kind="stable").tolist())


def kendall_tau(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """Kendall rank correlation of two arrival orders (`rank_of`s), in
    [-1, 1]: the one-row case of `_taus`."""
    if len(a) != len(b):
        raise ValueError("rank orders must have the same channel count")
    return float(_taus(np.array([a]), np.array([b]))[0])


def timing_error(a: Wavefront, b: Wavefront) -> tuple[float, float]:
    """(rms, max abs) per-channel timing difference in ns, after both
    wavefronts are normalized to their first edge: the one-row case of
    `fidelity`."""
    if len(a) != len(b):
        raise ValueError("wavefronts must have the same channel count")
    _, rms, max_abs, _ = fidelity(np.array([a.times]), np.array([b.times]))
    return float(rms[0]), float(max_abs[0])


def effective_bits(span: float, rms: float) -> float:
    """Timing precision in bits: log2(span / 2*rms), capped at 8 bits."""
    if span <= 0:
        raise ValueError("span must be positive")
    if rms <= 0:
        return EFFECTIVE_BITS_CAP
    return min(math.log2(span / (2.0 * rms)), EFFECTIVE_BITS_CAP)


def _taus(order_a: np.ndarray, order_b: np.ndarray) -> np.ndarray:
    """Kendall's tau of pairs of arrival orders, one pair per row of two
    arrays of orders (channel indices along the last axis): the count of
    concordant less discordant channel pairs over the pair count.  Memory
    stays within a few arrays of the orders' size: the pairs are counted
    one channel distance d at a time."""
    n = order_a.shape[-1]
    if n < 2:
        return np.ones(order_a.shape[:-1])
    # Each channel's position in b, listed in a's order: a pair is
    # concordant when these rise from the earlier channel in a to the later.
    in_b = np.take_along_axis(np.argsort(order_b, axis=-1), order_a, axis=-1)
    concordant = sum((in_b[..., :-d] < in_b[..., d:]).sum(axis=-1)
                     for d in range(1, n))
    pairs = n * (n - 1) // 2
    return (2 * concordant - pairs) / (n * (n - 1) / 2)


def fidelity(inputs: np.ndarray, recalled: np.ndarray):
    """Scores of recalled wavefronts against their inputs, one per row of
    two arrays of event times (trials x channels): (tau, rms, max_abs,
    bits), each an array with one element per row.

    Row by row they equal, bit for bit, Kendall's tau of the `rank_of`s
    and the rms and max abs timing error of the wavefronts normalized to
    their first edges: ties keep channel order (a stable argsort), and the
    mean of squares sums along the last axis of a C-contiguous array, in
    numpy's 1-D pairwise order.  The bits are `effective_bits` row by row
    (EFFECTIVE_BITS_CAP for an input of zero span).  Differences whose
    mean square overflows (beyond about 1e154 ns) raise ValueError.
    `kendall_tau` and `timing_error` are the one-row case;
    `tests/reference_scoring.py` states tau and the timing error one
    wavefront at a time.
    """
    in_n = inputs - inputs.min(axis=-1, keepdims=True)
    out_n = recalled - recalled.min(axis=-1, keepdims=True)
    tau = _taus(np.argsort(in_n, axis=-1, kind="stable"),
                np.argsort(out_n, axis=-1, kind="stable"))
    diff = np.ascontiguousarray(in_n - out_n)
    max_abs = np.abs(diff).max(axis=-1)
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(diff * diff, axis=-1))
    if not (rms < math.inf).all():
        raise ValueError(f"the rms timing error overflows: timing differences "
                         f"reach {max_abs.max():g} ns")
    span = inputs.max(axis=-1) - inputs.min(axis=-1)
    bits = np.array([effective_bits(a, r) if a > 0 else EFFECTIVE_BITS_CAP
                     for a, r in zip(span.tolist(), rms.tolist())])
    return tau, rms, max_abs, bits


def _fixed(x: float, digits: int) -> str:
    """A report figure with `digits` decimals; from 1e16 up, where a float's
    integer digits stop being exact, in exponent notation, so that a figure
    with no upper bound still prints in a short form."""
    return f"{x:.{digits}{'f' if abs(x) < 1e16 else 'e'}}"


def _csv_line(row) -> str:
    """A sequence of cells as one CSV line, their str()s joined by commas:
    csv.writer's bytes for the program's ints, floats (a float's str is its
    repr) and bools, which need no quoting.  ValueError for a cell that
    would (a comma, quote or line break in it, or a one-cell row's empty
    cell), rather than writing it unquoted."""
    line = ",".join(map(str, row))
    if ('"' in line or "\r" in line or "\n" in line
            or (line.count(",") != len(row) - 1 if line else len(row) == 1)):
        raise ValueError(f"a CSV cell would need quoting: {line!r}")
    return line + "\r\n"


def _write_lines(path, lines, newline=None) -> None:
    """Write `lines` to `path` as open(path, "w", newline=newline) would, but
    over the old bytes, then cut a regular file at the new end: the file keeps
    its inode and is never truncated to zero, which on ext4 writes out the old
    data.  A line that raises leaves exactly the lines before it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline=newline) as f:
        try:
            f.writelines(lines)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null or a FIFO
                f.truncate()


def write_csv(path, header, rows) -> None:
    """Write a CSV file, the header row and then each of `rows` (sequences
    of cells) by `_csv_line`, streamed through the file's buffer."""
    _write_lines(path, map(_csv_line, chain([header], rows)), newline="")


def write_wavefront_csv(path, w: Wavefront) -> None:
    write_csv(path, ["channel", "time_ns"], enumerate(w.times))


def read_csv(path, header, row) -> None:
    """Call `row(fields)` on each non-blank row below the `header` row; its
    ValueError, or a wrong field count, gets the prefix "{path}: line {n}: ".
    A UTF-8 byte order mark before the header is dropped."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise ValueError(f"{path}: expected header '{','.join(header)}'")
        for fields in reader:
            if not fields:
                continue
            try:
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields")
                row(fields)
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def read_wavefront_csv(path) -> Wavefront:
    """Parse a `channel,time_ns` file; channels must be 0..N-1 contiguous."""
    rows = {}

    def row(fields):
        # Wavefront parses the time and rejects a nan, inf or negative one.
        ch, t = int(fields[0]), Wavefront(fields[1:]).times[0]
        if ch in rows:
            raise ValueError(f"duplicate channel {ch}")
        rows[ch] = t

    read_csv(path, ["channel", "time_ns"], row)
    if not rows:
        raise ValueError(f"{path}: no channels")
    if sorted(rows) != list(range(len(rows))):
        raise ValueError(f"{path}: channel indices must be contiguous 0..N-1")
    return Wavefront(tuple(rows[ch] for ch in range(len(rows))))
