"""Fingerprints of the numeric primitives the golden outputs rest on.

The goldens (tests/test_golden.py) and the acceptance pins compare exact
bits.  Those bits come from numpy's PCG64 draws (`random`, `shuffle`,
`standard_normal` and `lognormal`), from libm's exp, log1p and expm1
(called through `math`, and through scipy's Box-Cox ufuncs at lambda 0:
`inv_boxcox`, `boxcox1p` and `inv_boxcox1p`), from `scipy.special.expi`
and from numpy's `cumsum` and `mean`.  Each case runs fixed inputs through one
primitive and compares a digest of the results with the one recorded
under Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and glibc 2.36 on x86-64.
So when a golden fails on another platform, the case failing here names
the primitive whose bits moved.  Each Box-Cox route is also checked
against `math` on the running platform, wherever the goldens were
recorded.

The inputs are built with Python's correctly rounded float arithmetic
(`math.sqrt`, `*`, `+`, `/`), so they are the same bits everywhere.
Print the digests of the running platform with

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import boxcox1p, expi, inv_boxcox, inv_boxcox1p

SEED = 20200316
N = 4096


def grid(scale: float, offset: float) -> list[float]:
    """N fixed inputs, sqrt(k) * scale + offset, of full mantissas."""
    return [math.sqrt(k) * scale + offset for k in range(N)]


def through(f, scale: float, offset: float) -> np.ndarray:
    """f applied to each of `grid(scale, offset)`."""
    return np.array([f(x) for x in grid(scale, offset)])


def shuffled() -> np.ndarray:
    """One long shuffle, then 256 of eight channels, as a sweep's trials
    shuffle theirs, all from one stream."""
    gen = np.random.default_rng(SEED)
    orders = [np.arange(N)] + [np.arange(8) for _ in range(256)]
    for order in orders:
        gen.shuffle(order)
    return np.concatenate(orders)


RECIPROCALS = np.array([1.0 / k for k in range(1, N + 1)])

PRIMITIVES = {
    "PCG64.random": lambda: np.random.default_rng(SEED).random(N),
    "PCG64.shuffle": shuffled,
    "PCG64.standard_normal":
        lambda: np.random.default_rng(SEED).standard_normal(N),
    "PCG64.lognormal":
        lambda: np.random.default_rng(SEED).lognormal(-0.125, 0.5, N),
    "math.exp": lambda: through(math.exp, 0.5, -16.0),
    "math.log1p": lambda: through(math.log1p, 1.0, -0.75),
    "math.expm1": lambda: through(math.expm1, 10.0, -5.0),
    "scipy.special.inv_boxcox":
        lambda: inv_boxcox(np.array(grid(0.5, -16.0)), 0.0, dtype=float),
    "scipy.special.boxcox1p":
        lambda: boxcox1p(np.array(grid(1.0, -0.75)), 0.0, dtype=float),
    "scipy.special.inv_boxcox1p":
        lambda: inv_boxcox1p(np.array(grid(10.0, -5.0)), 0.0, dtype=float),
    "scipy.special.expi": lambda: expi(np.array(grid(0.25, 0.01))),
    "numpy.cumsum": lambda: np.cumsum(RECIPROCALS),
    # One long mean and one per row of eight, as a sweep's rms takes them.
    "numpy.mean": lambda: np.concatenate((
        [np.mean(RECIPROCALS)], np.mean(RECIPROCALS.reshape(-1, 8), axis=-1))),
}

DIGESTS = {
    "PCG64.random": "59aa00983d72d80f",
    "PCG64.shuffle": "a39d5cd452b6ed6f",
    "PCG64.standard_normal": "2f37e712edf0b2e2",
    "PCG64.lognormal": "37ffcd5435c98ff8",
    "math.exp": "d79633a57d50ce12",
    "math.log1p": "3acd03d9b3f13828",
    "math.expm1": "0f92a316a3fb8bab",
    "scipy.special.inv_boxcox": "d79633a57d50ce12",
    "scipy.special.boxcox1p": "3acd03d9b3f13828",
    "scipy.special.inv_boxcox1p": "0f92a316a3fb8bab",
    "scipy.special.expi": "914e9015bee68deb",
    "numpy.cumsum": "eba388143a8abafd",
    "numpy.mean": "c3974c6a835b385c",
}


def digest(values: np.ndarray) -> str:
    """The first 16 hex digits of the SHA-256 of values as little-endian
    float64s."""
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gives_the_recorded_bits(name):
    assert digest(PRIMITIVES[name]()) == DIGESTS[name], (
        f"{name} gives other bits than where the goldens were recorded; "
        f"goldens that depend on it may differ here for that reason")


# The route by which tempmem.device and variability call each libm function
# (see the device module docstring), and `math`'s call of it, on one grid.
BOX_COX = {"scipy.special.inv_boxcox": "math.exp",
           "scipy.special.boxcox1p": "math.log1p",
           "scipy.special.inv_boxcox1p": "math.expm1"}


@pytest.mark.parametrize("route", sorted(BOX_COX))
def test_box_cox_at_lambda_0_is_libm_as_math_calls_it(route):
    assert PRIMITIVES[route]().tolist() == PRIMITIVES[BOX_COX[route]]().tolist(), (
        f"{route} at lambda 0 gives other bits than {BOX_COX[route]} here: with "
        f"this scipy the device law and the variability spreads no longer give "
        f"libm's bits, and the goldens differ")


@pytest.mark.parametrize("sigma", [0.0, 1e-6, 0.042, 0.3, 2.0, 1e3])
def test_lognormal_is_libm_exp_of_mean_plus_sigma_times_normal(sigma):
    """`variability.sample_array` and `perturb_pulse` draw their factors with
    `Generator.lognormal` and rely on it computing, per standard normal z,
    exactly `math.exp(mean + sigma * z)` as the engine's `_spread` does."""
    s2 = math.log1p(sigma * sigma)
    mean, scale = -0.5 * s2, math.sqrt(s2)
    z = np.random.default_rng(SEED).standard_normal(N).tolist()
    assert np.random.default_rng(SEED).lognormal(mean, scale, N).tolist() == \
        [math.exp(mean + scale * x) for x in z], (
        "Generator.lognormal is not libm's exp of mean + sigma * z, rounded "
        "step by step (a build may fuse them into one FMA); sample_array and "
        "perturb_pulse then differ from the engine's spread")


if __name__ == "__main__":
    for name, make in PRIMITIVES.items():
        print(f'    "{name}": "{digest(make())}",')
