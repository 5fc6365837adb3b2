"""Host speed references: a fixed pure-Python loop timed beside the
program's passes, and a fixed fresh process timed beside its set-up.

The benchmark runs on shared machines whose single-thread speed changes by
up to 2x within seconds, and drifts over minutes.  Timing the program alone
measures that drift as much as the program.  So every timed pass is
bracketed by two chunks of this reference loop, and its time is scaled by
how slow the host ran the reference right then:

    scaled = elapsed / slowdown,   slowdown = mean(chunk times) / NOMINAL_CHUNK_S

A scaled time is the time the work would take on a host that runs one chunk
in NOMINAL_CHUNK_S.  The loop uses no tempmem code, so a change to the
program moves the scaled time by exactly as much as it moves the raw time
on a steady host.  Its mix mirrors the program's host time: frozen
dataclass construction and `replace`, `math` calls, scalar numpy draws,
`min` and `abs`.

Set-up time is work of another kind: starting an interpreter and importing
modules from disk, which follows the host's speed differently from the
loop.  So each set-up probe is paired with a fresh process that starts
the interpreter and imports the program's third-party dependencies, but
no tempmem code, and the median probe time is scaled by how slow the
median reference start ran against NOMINAL_START_S.

Do not change this file between the commits being compared: its constants,
loop and start-up code define the unit of every scaled metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

CHUNK_ITERS = 10_000
# Seconds one chunk takes on the nominal host: about what a 2-vCPU Xeon VM
# with Python 3.11 and numpy 2.4 takes in its usual state.
NOMINAL_CHUNK_S = 0.04

# Code of the start-up reference process; it prints 'ready' when done.
START_CODE = "import numpy, scipy.special; print('ready', flush=True)"
# Seconds from starting that process to 'ready' on the nominal host.
NOMINAL_START_S = 0.45


@dataclass(frozen=True)
class _Cell:
    r: float
    k: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("r must be positive")


def _rate(cell: _Cell, v: float) -> float:
    return cell.k * math.sinh(v / (1.0 + abs(math.log1p(cell.r))))


def _chunk(rng: np.random.Generator) -> float:
    cell = _Cell(1.0e4, 2.0)
    acc = 0.0
    for _ in range(CHUNK_ITERS):
        cell = replace(cell, r=cell.r * math.exp(1e-6 * rng.standard_normal()))
        acc += min(abs(_rate(cell, 0.5)), 10.0)
    return acc


def chunk_s() -> float:
    """Wall time of one chunk of the reference loop, in seconds."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    _chunk(rng)
    return time.perf_counter() - t0


class Meter:
    """Scales the wall time of work done between two reference chunks.

    Call `scale(elapsed)` right after each timed piece of work: it times a
    new chunk and pairs it with the one timed after the previous piece (or
    at construction), so consecutive pieces share the chunk between them.
    Call `restart()` after other work, so the next piece is paired with a
    chunk timed right before it.
    """

    def __init__(self):
        self.slowdowns = []
        self.restart()

    def restart(self):
        self.last = chunk_s()

    def scale(self, elapsed: float) -> float:
        after = chunk_s()
        slowdown = (self.last + after) / (2.0 * NOMINAL_CHUNK_S)
        self.last = after
        self.slowdowns.append(slowdown)
        return elapsed / slowdown
