"""Wavefronts (one event time per wire) and code-space fidelity metrics.

A wavefront is the value passed between every stage of the memory:
recall produces one, capture consumes one.  Two views of the same
wavefront matter: the exact per-channel timings, and the rank order of
arrival, which survives any monotone distortion of the timings.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .device import per_element

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


@dataclass(frozen=True)
class RankOrder:
    """Channel indices sorted by ascending event time (ties by channel)."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..n-1")
        object.__setattr__(self, "order", order)

    def __len__(self) -> int:
        return len(self.order)


def normalize(w: Wavefront) -> Wavefront:
    """Shift all times so the first event sits at 0 ns."""
    t0 = min(w.times)
    return Wavefront(tuple(t - t0 for t in w.times))


def rank_of(w: Wavefront) -> RankOrder:
    """Arrival order of the channels; simultaneous edges break ties by
    ascending channel index."""
    order = np.argsort(np.asarray(w.times), kind="stable")
    return RankOrder(tuple(int(i) for i in order))


def kendall_tau(a: RankOrder, b: RankOrder) -> float:
    """Kendall rank correlation of two arrival orders, in [-1, 1]."""
    if len(a) != len(b):
        raise ValueError("rank orders must have the same channel count")
    n = len(a)
    if n < 2:
        return 1.0
    pos_a = [0] * n
    pos_b = [0] * n
    for pos, ch in enumerate(a.order):
        pos_a[ch] = pos
    for pos, ch in enumerate(b.order):
        pos_b[ch] = pos
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j])
            if s > 0:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def timing_error(a: Wavefront, b: Wavefront) -> tuple[float, float]:
    """(rms, max abs) per-channel timing difference in ns, after both
    wavefronts are normalized to their first edge."""
    if len(a) != len(b):
        raise ValueError("wavefronts must have the same channel count")
    da = np.asarray(normalize(a).times)
    db = np.asarray(normalize(b).times)
    diff = da - db
    return float(np.sqrt(np.mean(diff * diff))), float(np.max(np.abs(diff)))


def effective_bits(span: float, rms: float) -> float:
    """Timing precision in bits: log2(span / 2*rms), capped at 8 bits."""
    if span <= 0:
        raise ValueError("span must be positive")
    if rms <= 0:
        return EFFECTIVE_BITS_CAP
    return min(math.log2(span / (2.0 * rms)), EFFECTIVE_BITS_CAP)


def _taus(order_a: np.ndarray, order_b: np.ndarray) -> np.ndarray:
    """`kendall_tau` of pairs of arrival orders, one pair per row of two
    arrays of orders (channel indices along the last axis), from the same
    integer concordant and discordant counts.  Memory stays within a few
    arrays of the orders' size: the pairs are counted one channel
    distance d at a time."""
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

    Row by row they equal `kendall_tau` of the `rank_of`s, `timing_error`
    and `effective_bits` of the normalized wavefronts, bit for bit, with
    EFFECTIVE_BITS_CAP as the bits of an input of zero span: ties keep
    channel order (a stable argsort), the mean of squares sums along the
    last axis of a C-contiguous array, in numpy's 1-D pairwise order, and
    log2 is `math.log2` per element.
    """
    in_n = inputs - inputs.min(axis=-1, keepdims=True)
    out_n = recalled - recalled.min(axis=-1, keepdims=True)
    tau = _taus(np.argsort(in_n, axis=-1, kind="stable"),
                np.argsort(out_n, axis=-1, kind="stable"))
    diff = np.ascontiguousarray(in_n - out_n)
    rms = np.sqrt(np.mean(diff * diff, axis=-1))
    max_abs = np.abs(diff).max(axis=-1)
    span = inputs.max(axis=-1) - inputs.min(axis=-1)
    scored = (span > 0) & (rms > 0)
    ratio = np.divide(span, 2.0 * rms, out=np.ones(rms.shape), where=scored)
    bits = np.where(scored, np.minimum(per_element(math.log2, ratio),
                                       EFFECTIVE_BITS_CAP), EFFECTIVE_BITS_CAP)
    return tau, rms, max_abs, bits


def write_csv(path, header, rows) -> None:
    """Write a CSV file, the header row and then each of `rows`, in one
    write: one call per row costs more than formatting in memory."""
    text = io.StringIO()
    csv.writer(text).writerows(chain([header], rows))
    with open(path, "w", newline="") as f:
        f.write(text.getvalue())


def write_wavefront_csv(path, w: Wavefront) -> None:
    write_csv(path, ["channel", "time_ns"],
              ([ch, repr(t)] for ch, t in enumerate(w.times)))


def read_csv(path, header):
    """(line number, fields) of each non-blank row below the `header` row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise ValueError(f"{path}: expected header '{','.join(header)}'")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: "
                                 f"expected {len(header)} fields")
            yield reader.line_num, fields


def read_wavefront_csv(path) -> Wavefront:
    """Parse a `channel,time_ns` file; channels must be 0..N-1 contiguous."""
    rows = {}
    for lineno, fields in read_csv(path, ["channel", "time_ns"]):
        try:
            # Wavefront parses the time and rejects a nan, inf or negative one.
            ch, t = int(fields[0]), Wavefront(fields[1:]).times[0]
            if ch in rows:
                raise ValueError(f"duplicate channel {ch}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        rows[ch] = t
    if not rows:
        raise ValueError(f"{path}: no channels")
    if sorted(rows) != list(range(len(rows))):
        raise ValueError(f"{path}: channel indices must be contiguous 0..N-1")
    return Wavefront(tuple(rows[ch] for ch in range(len(rows))))
