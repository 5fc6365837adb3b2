"""The scores stated one wavefront at a time: the reference the batched
scorer `tempmem.wavefront.fidelity` is tested against.

`kendall_tau_of` counts concordant and discordant channel pairs of two
arrival orders (tuples of channel indices, as `rank_of` gives them) in a
pair loop, and `timing_error_of` takes the rms and max abs difference of
two normalized wavefronts.  The simulator scores
whole trial blocks at once (`wavefront._taus` and `fidelity`, whose
one-row cases are `kendall_tau` and `timing_error`), bit for bit; these
functions are kept here, outside the package, as the tests' oracle.
"""

import numpy as np

from tempmem.wavefront import Wavefront, normalize


def kendall_tau_of(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """Kendall rank correlation of two arrival orders, in [-1, 1], from
    the O(n^2) count of concordant and discordant channel pairs."""
    if len(a) != len(b):
        raise ValueError("rank orders must have the same channel count")
    n = len(a)
    if n < 2:
        return 1.0
    pos_a = [0] * n
    pos_b = [0] * n
    for pos, ch in enumerate(a):
        pos_a[ch] = pos
    for pos, ch in enumerate(b):
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


def timing_error_of(a: Wavefront, b: Wavefront) -> tuple[float, float]:
    """(rms, max abs) per-channel timing difference in ns, after both
    wavefronts are normalized to their first edge."""
    if len(a) != len(b):
        raise ValueError("wavefronts must have the same channel count")
    diff = np.asarray(normalize(a).times) - np.asarray(normalize(b).times)
    return float(np.sqrt(np.mean(diff * diff))), float(np.max(np.abs(diff)))
