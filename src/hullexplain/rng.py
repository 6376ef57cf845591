"""Counter-based pseudo-random generator with splittable streams.

Every random quantity in this package (simplex samples, dataset noise,
bootstrap resamples, LIME perturbations, weight initialization) is drawn
from the generator defined here, so a run is reproducible from its
(seed, stream) pair alone and the same numbers can be regenerated in any
language from the recipe below.

Definition (all arithmetic mod 2**64):

    PHI  = 0x9E3779B97F4A7C15
    mix(z):                       # SplitMix64 finalizer
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    key(seed, stream) = mix(mix(seed + PHI) ^ mix(stream + 2*PHI))
    raw(key, n)       = mix(key + n * PHI)          # n = 0, 1, 2, ...

Derived variates, in the order the counter is consumed:

    unit        u = (raw >> 11) * 2**-53            # double in [0, 1)
    exponential e = -log(1 - u)                     # rate 1
    normal      Box-Muller on consecutive (u1, u2):
                r = sqrt(-2*log(1 - u1)); t = 2*pi*u2
                pair = (r*cos(t), r*sin(t))
                normal(n) consumes 2*ceil(n/2) units and truncates.
    integer     below(bound) = floor(u * bound)     # bound << 2**53
    shuffle     Fisher-Yates, i = n-1..1, j = below(i + 1)
                (the n-1 units are drawn in one block, in this counter order)

`derive_seed` folds extra integers into a seed with the same mixer; the
bagged-tree regressor uses it to give each tree its own bootstrap seed.
`explain_many` gives the i-th explained point its own simplex stream
(`cfg.stream + i`, so `stream=i` from the CLI) under the run seed, and
`lime_explain` gives the i-th row its perturbations and then its weights on
stream `stream + i`, so the CLI's baseline for test point i uses the same
`stream=i`.
"""
from __future__ import annotations

import numpy as np

_PHI = np.uint64(0x9E3779B97F4A7C15)
_TWO_PHI = np.uint64(0x3C6EF372FE94F82A)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def stream_key(seed: int, stream: int) -> int:
    """64-bit key identifying the (seed, stream) pair."""
    s = np.array([seed], dtype=np.uint64) + _PHI
    t = np.array([stream], dtype=np.uint64) + _TWO_PHI
    return int(_mix(_mix(s) ^ _mix(t))[0])


def derive_seed(seed: int, *indices: int) -> int:
    """Fold integers into a seed, giving an independent 64-bit seed."""
    out = np.array([seed], dtype=np.uint64)
    for ix in indices:
        out = _mix(out + _PHI) ^ _mix(np.array([ix], dtype=np.uint64) + _TWO_PHI)
    return int(_mix(out)[0])


class Prng:
    """Counter-based generator; one instance owns one (seed, stream) pair.

    Instances with equal (seed, stream) produce identical sequences.
    Distinct streams under the same seed are statistically independent.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._key = np.uint64(stream_key(seed, stream))
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit words as a uint64 array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _mix(self._key + idx * _PHI)

    def skip(self, n: int) -> None:
        """Advance the counter by `n` draws without producing output."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._counter += n

    def unit(self, n: int) -> np.ndarray:
        """`n` doubles uniform on [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return lo + (hi - lo) * self.unit(n)

    def exponential(self, n: int) -> np.ndarray:
        """`n` unit-rate exponential variates."""
        return -np.log1p(-self.unit(n))

    def normal(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.unit(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        t = (2.0 * np.pi) * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(t)
        z[1::2] = r * np.sin(t)
        return mean + std * z[:n]

    def below(self, bound: int, n: int = 1) -> np.ndarray:
        """`n` integers uniform on {0, ..., bound-1}."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.unit(n) * bound).astype(np.int64), bound - 1)

    def shuffled(self, n: int) -> np.ndarray:
        """A permutation of range(n) by seeded Fisher-Yates.

        The n-1 units are drawn in one block; unit t picks the partner of
        i = n-1-t exactly as below(i + 1) would, so the permutation and the
        counter match one below() call per swap.
        """
        perm = list(range(n))
        if n > 1:
            for i, u in zip(range(n - 1, 0, -1), self.unit(n - 1).tolist()):
                j = min(int(u * (i + 1)), i)
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int_)
