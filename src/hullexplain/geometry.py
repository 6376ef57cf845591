"""Convex geometry over finite point sets.

Extreme-point identification and least-distance projection onto the
convex hull of reference points. Both rest on one kernel, Wolfe's
minimum-norm-point algorithm (Wolfe 1976, Math. Programming 11): an exact,
finite active-set method that alternates adding the most violating point
to a corral with affine least-squares steps that drop points whose weight
would turn negative. Nothing here enumerates facets, and affinely
dependent inputs are fine in any dimension. A solve that reaches its cycle
bound raises `ConvergenceError` rather than returning a truncated answer.
Both take their default tolerance from one rule, `hull_tol`, which scales
with the points. The module also holds what the other modules share about
point arrays: validation, the exact nearest-neighbour search and the
power-of-two scaling that keeps squares finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidInputError

_EPS = float(np.finfo(np.float64).eps)
_NEAREST_CELLS = 2**16  # entries of the differences one nearest() chunk holds
# values scaled below 2**_SQUARE_EXP square below 2**960, so that sums of up
# to 2**32 such squares stay finite
_SQUARE_EXP = 480


def as_points(points, name: str = "points", dim: int | None = None) -> np.ndarray:
    """Validate and return a (count, m) float array of points."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a nonempty 2-d array of row vectors")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite coordinates")
    if dim is not None and arr.shape[1] != dim:
        raise InvalidInputError(
            f"{name} has dimension {arr.shape[1]}, expected {dim}"
        )
    return arr


def as_vector(x, name: str = "vector", dim: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite coordinates")
    if dim is not None and arr.shape[0] != dim:
        raise InvalidInputError(f"{name} has length {arr.shape[0]}, expected {dim}")
    return arr


def square_scale(v) -> int:
    """The least k >= 0 that brings max |v| * 2**-k below 2**_SQUARE_EXP.

    Square np.ldexp(v, -k) and scale a root of the result back by 2**k.
    Power-of-two scaling is exact unless it takes a tiny value below the
    normal range, and ordinary data gets k = 0, which changes no bit.
    """
    return max(0, int(np.frexp(np.abs(v).max())[1]) - _SQUARE_EXP)


def nearest(X: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k rows of X nearest each row of Q, nearest first.

    Rows are ordered by (squared distance from exact differences, index). A
    partition keeps each query's k rows in linear time; only those are sorted.
    """
    out = np.empty((Q.shape[0], k), dtype=np.intp)
    step = max(1, _NEAREST_CELLS // X.size)
    for lo in range(0, Q.shape[0], step):
        delta = X - Q[lo : lo + step, None, :]
        d2 = np.einsum("qij,qij->qi", delta, delta)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        # nearer rows, then the lowest-index rows at the k-th distance, in index order
        closer, tied = d2 < kth, d2 == kth
        need = k - closer.sum(axis=1, keepdims=True)
        idx = np.nonzero(closer | tied & (np.cumsum(tied, axis=1) <= need))[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(d2, idx, axis=1), axis=1, kind="stable")
        out[lo : lo + step] = np.take_along_axis(idx, order, axis=1)
    return out


def hull_tol(points: np.ndarray) -> float:
    """The default tolerance of hull decisions about a point set: 1e-8 times
    the diagonal of its bounding box, so that it scales with the points and
    not with the units of their features. The diagonal is taken at a
    power-of-two scale, so it does not overflow where its square would.
    Identical points have diagonal 0 and get the smallest positive normal
    double, which still merges them."""
    span = points.max(axis=0) - points.min(axis=0)
    k = square_scale(span)
    return max(1e-8 * float(np.ldexp(np.linalg.norm(np.ldexp(span, -k)), k)),
               np.finfo(np.float64).tiny)


@dataclass
class Polytope:
    """Extreme points of a point set's convex hull."""

    extremes: np.ndarray        # (d, m), rows are extreme points
    extreme_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def d(self) -> int:
        return self.extremes.shape[0]


def _affine_min_norm(corral: np.ndarray) -> np.ndarray:
    """Affine weights (summing to one) of the min-norm point of aff(corral)."""
    base = corral[0]
    beta = np.linalg.lstsq((corral[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate([[1.0 - beta.sum()], beta])


def _min_norm_point(P: np.ndarray, gap_tol: float, decide: float | None = None):
    """Simplex weights w of the point x = w @ P of conv(rows of P) nearest the origin.

    Wolfe's major cycles add the row minimizing p_j . x to the corral;
    minor cycles move to the affine min-norm point of the corral, stepping
    back to the first zero weight and dropping it when that point leaves
    the simplex. Starts at the shortest row and stops once the Frank-Wolfe
    gap 2 (x.x - min_j p_j.x), which bounds |x|^2 - dist^2, falls to
    gap_tol or to the 64 eps max|p|^2 that float64 can resolve. With
    `decide`, also stops as soon as dist <= decide (|x| <= decide) or
    dist > decide (2 min_j p_j.x - x.x > decide^2) is proven. Returns (w, x).
    """
    n, m = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    gap_floor = max(gap_tol, 64.0 * _EPS * float(sq.max()))
    corral = np.array([int(np.argmin(sq))])
    w = np.ones(1)
    x = P[corral[0]]
    # Wolfe's method is finite but has no polynomial cycle bound. Solves here
    # take under (n + m + 1) / 2 major cycles, so four times n + m + 1 means
    # rounding has stalled the solve.
    limit = 4 * (n + m + 1)
    for _ in range(limit):
        xx = float(x @ x)
        scores = P @ x
        j = int(np.argmin(scores))
        gap = 2.0 * (xx - float(scores[j]))
        if gap <= gap_floor:
            break
        if decide is not None and (xx <= decide * decide or xx - gap > decide * decide):
            break
        if j in corral:  # exactly, every corral point has p_j . x = x . x
            raise ConvergenceError(
                f"min-norm point stalled with gap {gap:.3g} above {gap_floor:.3g}"
            )
        corral = np.append(corral, j)
        w = np.append(w, 0.0)
        alpha = _affine_min_norm(P[corral])
        while alpha.min() <= 0.0:
            out = alpha <= 0.0
            ratio = w[out] / np.maximum(w[out] - alpha[out], np.finfo(np.float64).tiny)
            w = w + float(ratio.min()) * (alpha - w)
            w[np.nonzero(out)[0][ratio == ratio.min()]] = 0.0
            keep = w > 0.0
            corral, w = corral[keep], w[keep]
            alpha = _affine_min_norm(P[corral])
        w = alpha
        x = w @ P[corral]
    else:
        raise ConvergenceError(
            f"min-norm point did not converge within {limit} cycles "
            f"({n} points in {m} dimensions)"
        )
    weights = np.zeros(n)
    weights[corral] = w / w.sum()
    return weights, x


def project_points_onto_hull(queries, refs, tol: float | None = None):
    """Least-distance projections of the rows of `queries` onto the convex
    hull of `refs`: (simplex weights matrix, distance vector).

    Each image is weights @ refs, accurate in distance to `tol`, which
    defaults to hull_tol(refs).
    """
    ref_arr = as_points(refs, "refs")
    q_arr = as_points(queries, "queries", dim=ref_arr.shape[1])
    if tol is None:
        tol = hull_tol(ref_arr)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    lam = np.stack([_min_norm_point(ref_arr - q, tol * tol)[0] for q in q_arr])
    return lam, np.linalg.norm(lam @ ref_arr - q_arr, axis=1)


def _collapse_duplicates(points: np.ndarray, tol: float) -> np.ndarray:
    """Indices of representatives after collapsing within-tol duplicates.

    Scanned in index order so the lowest index survives each cluster.
    """
    kept: list[int] = []
    for i in range(points.shape[0]):
        if kept:
            d = np.linalg.norm(points[kept] - points[i], axis=1)
            if d.min() <= tol:
                continue
        kept.append(i)
    return np.asarray(kept, dtype=np.int64)


def _leave_one_out_extremes(points: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask: point i is extreme iff its distance to the hull of the others > tol."""
    mask = np.zeros(points.shape[0], dtype=bool)
    for i, p in enumerate(points):
        _, x = _min_norm_point(np.delete(points, i, axis=0) - p, (0.1 * tol) ** 2, decide=tol)
        mask[i] = float(x @ x) > tol * tol
    return mask


def find_extreme_points(points, tol: float | None = None) -> Polytope:
    """Identify the extreme points of a finite set.

    A point is extreme iff it lies more than `tol` outside the convex hull
    of the remaining points; within-tol duplicates collapse to the
    lowest-index representative first. Every point kept after that collapse
    lies within tol of the hull of the extremes; a collapsed duplicate is
    not rechecked and lies within 2 tol. `tol` defaults to hull_tol(points),
    so the decisions do not depend on the units of the features.
    """
    pts = as_points(points)
    if tol is None:
        tol = hull_tol(pts)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    keep = _collapse_duplicates(pts, tol)
    uniq = pts[keep]
    n = uniq.shape[0]
    if n == 1:
        return Polytope(extremes=uniq.copy(), extreme_indices=keep[:1])

    mask = _leave_one_out_extremes(uniq, tol)
    if not mask.any():
        # Fully degenerate cluster; keep the lowest-index representative.
        mask[0] = True
    extreme_local = np.nonzero(mask)[0]

    # Coverage refinement: every kept non-extreme must sit within tol of the
    # hull of the extremes. Chained tolerances can break this; promote the
    # worst offender until it holds. Collapsed duplicates are not rechecked.
    while True:
        non_extreme = np.setdiff1d(np.arange(n), extreme_local)
        if non_extreme.size == 0:
            break
        _, dist = project_points_onto_hull(
            uniq[non_extreme], uniq[extreme_local], tol=0.05 * tol
        )
        worst = int(np.argmax(dist))
        if dist[worst] <= tol:
            break
        extreme_local = np.sort(np.append(extreme_local, non_extreme[worst]))

    original = keep[extreme_local]
    return Polytope(extremes=pts[original], extreme_indices=original)
