"""Convex geometry over finite point sets.

Extreme-point identification, hull membership, and least-distance
projection onto the convex hull of reference points. All three rest on
one kernel, Wolfe's minimum-norm-point algorithm (Wolfe 1976, Math.
Programming 11): an exact, finite active-set method that alternates
adding the most violating point to a corral with affine least-squares
steps that drop points whose weight would turn negative. Nothing here
enumerates facets, and affinely dependent inputs are fine in any
dimension. A solve that reaches its cycle bound raises
`ConvergenceError` rather than returning a truncated answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidInputError

_EPS = float(np.finfo(np.float64).eps)


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


def bounding_diameter(points: np.ndarray) -> float:
    """Diagonal of the axis-aligned bounding box (cheap diameter proxy)."""
    pts = as_points(points)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def default_projection_tol(refs: np.ndarray) -> float:
    return 1e-8 * (1.0 + bounding_diameter(refs))


@dataclass
class HullProjection:
    """Least-distance convex combination of the reference points."""

    weights: np.ndarray  # simplex vector over the reference points
    image: np.ndarray    # weights @ refs
    distance: float      # Euclidean distance from the query to the image


@dataclass
class Polytope:
    """Extreme points of a point set's convex hull."""

    extremes: np.ndarray        # (d, m), rows are extreme points
    tol: float                  # tolerance used for extremeness decisions
    extreme_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def d(self) -> int:
        return self.extremes.shape[0]

    @property
    def dim(self) -> int:
        return self.extremes.shape[1]


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


def project_onto_hull(query, refs, tol: float | None = None) -> HullProjection:
    """Least-distance projection of `query` onto the convex hull of `refs`.

    `tol` is the distance accuracy of the returned projection; defaults to
    1e-8 * (1 + bounding diameter of refs).
    """
    ref_arr = as_points(refs, "refs")
    q = as_vector(query, "query", dim=ref_arr.shape[1])
    lam, dist = project_points_onto_hull(q[None, :], ref_arr, tol=tol)
    return HullProjection(weights=lam[0], image=lam[0] @ ref_arr, distance=float(dist[0]))


def project_points_onto_hull(queries, refs, tol: float | None = None):
    """Batched `project_onto_hull`; returns (weights matrix, distance vector)."""
    ref_arr = as_points(refs, "refs")
    q_arr = as_points(queries, "queries", dim=ref_arr.shape[1])
    if tol is None:
        tol = default_projection_tol(ref_arr)
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


def find_extreme_points(points, tol: float) -> Polytope:
    """Identify the extreme points of a finite set.

    A point is extreme iff it lies more than `tol` outside the convex hull
    of the remaining points; within-tol duplicates collapse to the
    lowest-index representative first. Every point kept after that collapse
    lies within tol of the hull of the extremes; a collapsed duplicate is
    not rechecked and lies within 2 tol.
    """
    pts = as_points(points)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    keep = _collapse_duplicates(pts, tol)
    uniq = pts[keep]
    n = uniq.shape[0]
    if n == 1:
        return Polytope(extremes=uniq.copy(), tol=tol, extreme_indices=keep[:1])

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
    return Polytope(extremes=pts[original], tol=tol, extreme_indices=original)


def contains(poly: Polytope, query, tol: float | None = None):
    """Membership test with the projection as witness: (inside, projection)."""
    q = as_vector(query, "query", dim=poly.dim)
    if tol is None:
        tol = poly.tol
    proj = project_onto_hull(q, poly.extremes, tol=min(0.1 * tol, default_projection_tol(poly.extremes)))
    return proj.distance <= tol, proj
