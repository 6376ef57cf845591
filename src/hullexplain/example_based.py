"""Example-based explanation in simplex coordinates.

The dual surrogate's coefficients live on the extreme points of the local
hull, so normalizing them turns the fit into a statement about which
nearby instances explain the query. This module computes those normalized
contributions, the blended explaining instance, accumulated-local-effect
curves over the weight coordinates, and a deviation-based importance that
puts the three curve families (ALE, linear fit, additive net) on one scale.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateNormalizationError,
    FlatCurveWarning,
    InvalidInputError,
    UniformFallbackWarning,
)
from .geometry import Polytope, as_points
from .surrogate import fit_linear

METHODS = ("ale", "lr", "nam")


@dataclass
class ExampleImportance:
    method: str
    raw: np.ndarray         # nonnegative deviations, one per coordinate
    normalized: np.ndarray  # raw / sum(raw), sums to 1


@dataclass
class AleCurve:
    """First-order accumulated local effects of one weight coordinate.

    centered_effects[k] is the accumulated effect over bin k, shifted so
    the sample-weighted mean is zero; counts[k] is that bin's occupancy.
    """

    coord: int
    bin_edges: np.ndarray
    centered_effects: np.ndarray
    counts: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def values_at(self, col) -> np.ndarray:
        """Step-function curve value for each coordinate value in col."""
        col = np.asarray(col, dtype=np.float64)
        idx = np.searchsorted(self.bin_edges, col, side="right") - 1
        idx = np.clip(idx, 0, len(self.centered_effects) - 1)
        return self.centered_effects[idx]


def contribution_weights(b) -> np.ndarray:
    """Normalize dual coefficients to unit sum: v = b / sum(b).

    The formula is applied verbatim, so negative contributions survive;
    they mark extreme points the fit moves against. The sum counts as zero
    when it is within 1e-15 of sum |b|, a test that no scale of b changes."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.size == 0:
        raise InvalidInputError("b must be a nonempty 1-d vector")
    total = float(b.sum())
    if abs(total) <= 1e-15 * float(np.abs(b).sum()):
        raise DegenerateNormalizationError(
            "dual coefficients sum to zero; contributions are undefined"
        )
    return b / total


def explaining_instance(v, poly) -> np.ndarray:
    """The v-blend of the extreme points, sum_i v_i x*_i."""
    extremes = poly.extremes if isinstance(poly, Polytope) else as_points(poly)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (extremes.shape[0],):
        raise InvalidInputError(
            f"v has shape {v.shape}, expected ({extremes.shape[0]},)"
        )
    return v @ extremes


def _merge_sparse_bins(edges: np.ndarray, col: np.ndarray) -> np.ndarray:
    # drop interior edges until every bin holds at least 2 samples
    while len(edges) > 2:
        idx = np.clip(np.searchsorted(edges, col, side="right") - 1,
                      0, len(edges) - 2)
        counts = np.bincount(idx, minlength=len(edges) - 1)
        if counts.min() >= 2:
            break
        k = int(np.argmin(counts))
        edges = np.delete(edges, k if k > 0 else 1)
    return edges


def _replace_column(lam: np.ndarray, coord: int, value: float,
                    renormalize: bool) -> np.ndarray:
    out = lam.copy()
    if renormalize:
        old = out[:, coord]
        rest = 1.0 - old
        d = lam.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(rest > 0.0, (1.0 - value) / rest, 0.0)
        for j in range(d):
            if j == coord:
                continue
            # old == 1 leaves nothing to scale; spread the mass uniformly
            out[:, j] = np.where(rest > 0.0, out[:, j] * scale,
                                 (1.0 - value) / max(d - 1, 1))
    out[:, coord] = value
    return out


def ale_curve(lam, coord: int, fn, r_bins: int = 20, *,
              binning: str = "width", renormalize: bool = False) -> AleCurve:
    """Standard first-order ALE of fn along one weight coordinate.

    Bins partition the coordinate's sampled range (equal width by default,
    "quantile" for equal occupancy), sparse bins are merged until each holds
    at least two samples (or one bin holds them all), and each bin's effect
    is the in-bin average of fn at the upper edge minus fn at the lower edge.
    Replacement keeps the other coordinates fixed unless renormalize is
    set, which rescales them to restore the unit sum (at the price of
    crediting this coordinate with their movement).
    """
    lam = as_points(lam, "lam")
    n, d = lam.shape
    if not 0 <= coord < d:
        raise InvalidInputError(f"coord {coord} out of range for d={d}")
    if r_bins < 1:
        raise InvalidInputError("r_bins must be >= 1")
    if binning not in ("width", "quantile"):
        raise InvalidInputError("binning must be 'width' or 'quantile'")
    col = lam[:, coord]
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        warnings.warn(
            f"coordinate {coord} is constant across samples; flat curve",
            FlatCurveWarning, stacklevel=2,
        )
        eps = np.finfo(np.float64).eps * max(1.0, abs(lo))
        return AleCurve(coord=coord, bin_edges=np.array([lo, lo + eps]),
                        centered_effects=np.zeros(1),
                        counts=np.array([n]))
    if binning == "quantile":
        edges = np.unique(np.quantile(col, np.linspace(0.0, 1.0, r_bins + 1)))
    else:
        edges = np.linspace(lo, hi, r_bins + 1)
    edges = _merge_sparse_bins(edges, col)
    idx = np.clip(np.searchsorted(edges, col, side="right") - 1,
                  0, len(edges) - 2)
    r = len(edges) - 1
    effects = np.zeros(r)
    for k in range(r):
        inbin = lam[idx == k]
        upper = fn(_replace_column(inbin, coord, edges[k + 1], renormalize))
        lower = fn(_replace_column(inbin, coord, edges[k], renormalize))
        effects[k] = float(np.mean(np.asarray(upper) - np.asarray(lower)))
    accumulated = np.cumsum(effects)
    counts = np.bincount(idx, minlength=r)
    centered = accumulated - np.average(accumulated, weights=counts)
    return AleCurve(coord=coord, bin_edges=edges,
                    centered_effects=centered, counts=counts)


def deviation_importance(values) -> float:
    """Sample standard deviation of curve values: how much the curve moves."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        raise InvalidInputError("deviation needs at least 2 values")
    return float(np.std(values, ddof=1))


def importances(lam, z, method: str, fn=None, nam_model=None,
                r_bins: int = 20) -> ExampleImportance:
    """Per-coordinate importance by one of the three curve families.

    All three deviations are taken over curve values at the sampled
    coordinates themselves, so the methods stay commensurable:
      ale - step values of the ALE curve (fn required);
      lr  - b_k lambda_k from a no-intercept linear fit of (lam, z);
      nam - the trained net's per-coordinate shape values.
    """
    lam = as_points(lam, "lam")
    n, d = lam.shape
    method = method.lower()
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}")
    if method == "ale":
        if fn is None:
            raise InvalidInputError("ALE importances need the black-box callable fn")
        raw = np.empty(d)
        for k in range(d):
            curve = ale_curve(lam, k, fn, r_bins)
            raw[k] = deviation_importance(curve.values_at(lam[:, k]))
    elif method == "lr":
        if z is None:
            raise InvalidInputError("LR importances need targets z")
        z = np.asarray(z, dtype=np.float64)
        model = fit_linear(lam, z, with_intercept=False)
        raw = np.array([
            deviation_importance(model.coefficients[k] * lam[:, k])
            for k in range(d)
        ])
    else:
        if nam_model is None:
            raise InvalidInputError("NAM importances need a trained model")
        shapes = nam_model.contributions(lam)
        raw = np.array([deviation_importance(shapes[:, k]) for k in range(d)])
    total = float(raw.sum())
    if total <= 0.0:
        warnings.warn(
            "all importances are zero; falling back to uniform weights",
            UniformFallbackWarning, stacklevel=2,
        )
        normalized = np.full(d, 1.0 / d)
    else:
        normalized = raw / total
    return ExampleImportance(method=method, raw=raw, normalized=normalized)
