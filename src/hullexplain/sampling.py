"""Uniform sampling on the unit simplex and the map back to primal space.

Weights are produced by normalizing independent unit exponentials
(equivalently, spacings of sorted uniforms), which is the uniform
distribution on the simplex. The generator is counter-based, so a
sampler is a pure function of (seed, stream_id, draw offset).
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .geometry import as_points
from .rng import Prng


class SimplexSampler:
    """Draws rows of d nonnegative weights summing to one, uniformly.

    Successive calls continue the same counter stream, so
    draw(2) then draw(3) yields exactly the rows of a fresh draw(5).
    """

    def __init__(self, d: int, seed: int, stream_id: int = 0):
        if d < 1:
            raise InvalidInputError("simplex dimension d must be >= 1")
        self.d = int(d)
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._prng = Prng(seed, stream_id)

    def draw(self, n_points: int) -> np.ndarray:
        if n_points < 0:
            raise InvalidInputError("n_points must be >= 0")
        spacings = self._prng.exponential(n_points * self.d).reshape(n_points, self.d)
        totals = spacings.sum(axis=1, keepdims=True)
        degenerate = totals[:, 0] <= 0.0
        if degenerate.any():  # astronomically rare: every exponential exactly 0
            spacings[degenerate] = 1.0
            totals = spacings.sum(axis=1, keepdims=True)
        return spacings / totals


def map_to_primal(weights, extremes) -> np.ndarray:
    """Convex combinations of the extreme points: weights @ extremes.

    weights: (n, d) simplex rows (or a single d-vector); extremes: (d, m).
    """
    ext = as_points(extremes, "extremes")
    w = np.asarray(weights, dtype=np.float64)
    single = w.ndim == 1
    if single:
        w = w[None, :]
    if w.shape[1] != ext.shape[0]:
        raise InvalidInputError(
            f"weights have {w.shape[1]} entries but there are {ext.shape[0]} extremes"
        )
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weights contain non-finite entries")
    if np.any(w < -1e-12) or np.any(np.abs(w.sum(axis=1) - 1.0) > 1e-9):
        raise InvalidInputError("weights must be nonnegative and sum to one")
    out = w @ ext
    return out[0] if single else out
