"""Convex geometry over finite point sets.

Extreme-point identification and least-distance projection onto the
convex hull of reference points. Both rest on one kernel, Wolfe's
minimum-norm-point algorithm (Wolfe 1976, Math. Programming 11): an exact,
finite active-set method that alternates adding the most violating point
to a corral with affine least-squares steps that drop points whose weight
would turn negative. Nothing here enumerates facets, and affinely
dependent inputs are fine in any dimension.

The kernel runs a batch of problems in lockstep. Each problem is a query
and a mask of the allowed rows of one set of a stack; the mask leaves out
a point's own row in its leave-one-out test and the rows that duplicate
collapse dropped. The affine steps of the whole batch are one stacked QR
and triangular solve, with zero-padded columns past each corral; solved
problems leave the batch; problems go in blocks whose per-problem arrays
hold _NEAREST_CELLS entries. Every step is elementwise, a reduction within
one problem or a stacked LAPACK call, so a problem gets the same bits in
any batch and a set of a stack gets the extreme points it gets alone. If
any problem stalls or reaches its cycle bound, the call raises
`ConvergenceError` rather than returning a truncated answer.

Both public functions take their default tolerance from one rule,
`hull_tol`, which scales with the points, and move each set to its first
point and scale it by 2**-square_scale of its bounding box before any
square is taken: exact, so ordinary data keeps every bit and huge
coordinates do not overflow. The module also holds what the other modules
share about point arrays: validation, the exact nearest-neighbour search
and that power-of-two scaling.
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


class Polytopes(tuple):
    """The Polytope of each set of a stack, in stack order."""

    @property
    def d(self) -> int:
        """Extreme points over all the sets, so that a count of the extreme
        points one call found reads the same for one set or a stack."""
        return sum(p.d for p in self)


def _affine_min_norm(P: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Affine weights (summing to one) of the min-norm point of the affine
    hull of each corral: the first cnt[b] rows of P[b], weights zero past them.

    With base c0 and columns D = c_i - c0, the weights are 1 - sum(beta),
    beta for the least-squares beta of D beta = -c0. One QR of [D | -c0]
    gives R and Q^T (-c0) together. Columns past a corral are zero, so their
    reflections are the identity; a unit diagonal and a zero right-hand side
    there make their beta zero. Every problem has the same column count, so
    its arithmetic does not depend on the rest of the batch.
    """
    B, cap, m = P.shape
    pad = np.arange(cap - 1) >= (cnt - 1)[:, None]
    A = np.empty((B, m, cap))  # [D | -c0], one column per corral point
    np.subtract(P[:, 1:], P[:, :1], out=A[:, :, :-1].transpose(0, 2, 1))
    np.copyto(A[:, :, :-1], 0.0, where=pad[:, None, :])
    np.negative(P[:, 0], out=A[:, :, -1])
    R = np.linalg.qr(A, mode="r")
    tri, rhs = R[:, : cap - 1, : cap - 1], np.where(pad, 0.0, R[:, : cap - 1, cap - 1])
    diag = np.arange(cap - 1)
    tri[:, diag, diag] = np.where(pad, 1.0, tri[:, diag, diag])
    try:
        beta = np.linalg.solve(tri, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ConvergenceError("min-norm point met an affinely dependent corral") from None
    return np.concatenate([1.0 - beta.sum(axis=1, keepdims=True), beta], axis=1)


def _wolfe(T, which, q, allowed, gap_tol, decide=None):
    """Wolfe's min-norm-point algorithm on a batch of problems, in lockstep.

    T is an (S, m, n) stack of point sets, each stored transposed. Problem b
    asks for the point x = w @ P of the convex hull of the rows of
    P = T[which[b]].T - q[b] that allowed[b] marks nearest the origin. Major
    cycles add the allowed row minimizing p_j . x to the corral; minor
    cycles move to the affine min-norm point of the corral, stepping back to
    the first zero weight and dropping it when that point leaves the
    simplex. Each problem starts at its shortest allowed row and stops once
    its Frank-Wolfe gap 2 (x.x - min_j p_j.x), which bounds |x|^2 - dist^2,
    falls to gap_tol[b] or to the 64 eps max|p|^2 that float64 can resolve.
    With `decide`, it also stops as soon as dist <= decide[b] (|x| <= decide[b])
    or dist > decide[b] (2 min_j p_j.x - x.x > decide[b]^2) is proven.

    The row minimizing p_j . x is the row minimizing t_j . x, so the sets
    are not translated per problem: a set translated to its first row keeps
    the rounding of t_j . x within that of p_j . x. Its gap is then taken
    from p_j. Solved problems leave the live set. Every step is elementwise,
    a per-problem reduction or a stacked LAPACK call, so a problem's result
    does not depend on the rest of its batch.

    Returns (C, W, X): corral indices, simplex weights over them (zero past
    each corral) and x, one row per problem. If any problem stalls or
    reaches its cycle bound, raises ConvergenceError and returns nothing.
    """
    S, m, n = T.shape
    B = which.shape[0]
    cap = min(n, m + 1)  # an affinely independent corral
    pos = np.arange(cap)
    shared = S == 1  # all problems read one set, which is not copied per problem
    refs = T if shared else T[which]
    sq = np.zeros((B, n))
    for k in range(m):
        d = refs[:, k] - q[:, k, None]
        sq += d * d
    floor = np.maximum(gap_tol, 64.0 * _EPS * np.where(allowed, sq, 0.0).max(axis=1))
    penalty = np.where(allowed, 0.0, np.inf)
    # Wolfe's method is finite but has no polynomial cycle bound. Solves here
    # take under (n + m + 1) / 2 major cycles, so four times n + m + 1 means
    # rounding has stalled the solve.
    limit = 4 * (allowed.sum(axis=1) + m + 1)
    C = np.zeros((B, cap), dtype=np.intp)
    C[:, 0] = np.argmin(sq + penalty, axis=1)
    W = np.zeros((B, cap))
    W[:, 0] = 1.0
    cnt = np.ones(B, dtype=np.intp)
    X = T[which, :, C[:, 0]] - q
    cycles = np.zeros(B, dtype=np.intp)
    live = np.arange(B)
    out_C, out_W, out_X = np.zeros_like(C), np.zeros_like(W), np.empty((B, m))
    while True:
        if np.any(cycles >= limit):
            b = int(np.argmax(cycles >= limit))
            raise ConvergenceError(
                f"min-norm point did not converge within {limit[b]} cycles "
                f"({limit[b] // 4 - m - 1} points in {m} dimensions)"
            )
        scores = np.einsum("bkj,bk->bj", T if shared else T[which], X)
        scores += penalty
        j = np.argmin(scores, axis=1)
        xx = np.einsum("bi,bi->b", X, X)
        gap = 2.0 * (xx - np.einsum("bi,bi->b", T[which, :, j] - q, X))
        stop = gap <= floor
        if decide is not None:
            stop |= (xx <= decide * decide) | (xx - gap > decide * decide)
        # exactly, every corral point has p_j . x = x . x; a full corral holds
        # every row (cap = n) or the origin in its affine hull (cap = m + 1)
        stalled = ~stop & (np.any((C == j[:, None]) & (pos < cnt[:, None]), axis=1)
                           | (cnt == cap))
        if stalled.any():
            b = int(np.argmax(stalled))
            raise ConvergenceError(
                f"min-norm point stalled with gap {gap[b]:.3g} above {floor[b]:.3g}"
            )
        if stop.any():
            done, w = live[stop], W[stop]
            out_C[done], out_X[done] = C[stop], X[stop]
            out_W[done] = w / w.sum(axis=1, keepdims=True)
            go = ~stop
            if not go.any():
                return out_C, out_W, out_X
            live, which, q, penalty, floor, limit, C, W, cnt, X, cycles, j = (
                a[go] for a in (live, which, q, penalty, floor, limit, C, W, cnt, X,
                                cycles, j))
            if decide is not None:
                decide = decide[go]
        rows = np.arange(live.size)
        C[rows, cnt] = j
        cnt += 1
        cycles += 1
        P = T[which[:, None], :, C] - q[:, None]
        alpha = _affine_min_norm(P, cnt)
        while True:
            out = (alpha <= 0.0) & (pos < cnt[:, None])
            step = np.nonzero(out.any(axis=1))[0]
            if not step.size:
                break
            o, w, a = out[step], W[step], alpha[step]
            ratio = np.divide(w, np.maximum(w - a, np.finfo(np.float64).tiny),
                              out=np.full_like(w, np.inf), where=o)
            theta = ratio.min(axis=1, keepdims=True)
            w = w + theta * (a - w)
            w[o & (ratio == theta)] = 0.0
            keep = w > 0.0
            order = np.argsort(~keep, axis=1, kind="stable")
            cnt[step] = keep.sum(axis=1)
            C[step] = np.take_along_axis(C[step], order, axis=1)
            W[step] = np.take_along_axis(np.where(keep, w, 0.0), order, axis=1)
            P[step] = np.take_along_axis(P[step], order[:, :, None], axis=1)
            alpha[step] = _affine_min_norm(P[step], cnt[step])
        W = alpha
        X = np.einsum("bc,bcj->bj", W, P)


def _min_norm_points(sets, which, queries, allowed, gap, decide=None, skip=None):
    """Wolfe solves of many projection problems over a stack of point sets.

    Problem b projects queries[b] onto the hull of the rows of
    sets[which[b]] that allowed[which[b]] marks, less row skip[b] if given,
    to the gap distance gap[b] (and with the decision distance decide[b]).
    Problems go to `_wolfe` in blocks whose per-problem arrays hold at most
    _NEAREST_CELLS entries, so working memory stays bounded: a row of scores
    (for a stack of more than one set, the problem's copy of its set) and
    four copies of its corral's QR system (the input, LAPACK's copy, R and
    the solve's copy). Returns its (C, W, X).
    """
    S, n, m = sets.shape
    T = np.ascontiguousarray(sets.transpose(0, 2, 1))
    count = which.shape[0]
    C = np.empty((count, min(n, m + 1)), np.intp)
    W, X = np.empty(C.shape), np.empty((count, m))
    step = max(1, _NEAREST_CELLS // ((n if S == 1 else n * m) + 4 * m * min(n, m + 1)))
    for lo in range(0, count, step):
        blk = slice(lo, lo + step)
        mask = allowed[which[blk]]
        if skip is not None:
            mask[np.arange(mask.shape[0]), skip[blk]] = False
        C[blk], W[blk], X[blk] = _wolfe(T, which[blk], queries[blk], mask, gap[blk] ** 2,
                                        None if decide is None else decide[blk])
    return C, W, X


def _distances(sets, which, queries, C, W):
    """|W @ corral - query| per problem: the distance each solve certifies."""
    image = np.einsum("bc,bcj->bj", W, sets[which[:, None], C])
    r = image - queries
    return np.sqrt(np.einsum("bj,bj->b", r, r))


def project_points_onto_hull(queries, refs, tol: float | None = None):
    """Least-distance projections of the rows of `queries` onto the convex
    hull of `refs`: (simplex weights matrix, distance vector).

    Each image is weights @ refs, accurate in distance to `tol`, which
    defaults to hull_tol(refs). One batch of Wolfe solves serves all rows.
    """
    ref_arr = as_points(refs, "refs")
    q_arr = as_points(queries, "queries", dim=ref_arr.shape[1])
    if tol is None:
        tol = hull_tol(ref_arr)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    n, count = ref_arr.shape[0], q_arr.shape[0]
    sets, q = ref_arr - ref_arr[0], q_arr - ref_arr[0]
    k = square_scale(np.maximum(sets.max(axis=0), q.max(axis=0))
                     - np.minimum(sets.min(axis=0), q.min(axis=0)))
    sets, q = np.ldexp(sets, -k)[None], np.ldexp(q, -k)
    which = np.zeros(count, dtype=np.intp)
    C, W, _ = _min_norm_points(sets, which, q, np.ones((1, n), dtype=bool),
                               np.full(count, np.ldexp(tol, -k)))
    lam = np.zeros((count, n + 1))
    np.put_along_axis(lam, np.where(W > 0.0, C, n), W, axis=1)
    return lam[:, :n], np.ldexp(_distances(sets, which, q, C, W), k)


def _collapse_duplicates(sets: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """(S, n) mask of the rows kept after collapsing within-tol duplicates.

    Scanned in index order: a row is dropped when it lies within tol of a
    kept row before it, so the lowest index survives each cluster.
    """
    kept = np.ones(sets.shape[:2], dtype=bool)
    for i in range(1, sets.shape[1]):
        d = np.linalg.norm(sets[:, :i] - sets[:, i : i + 1], axis=2)
        kept[:, i] = ~np.any(kept[:, :i] & (d <= tol[:, None]), axis=1)
    return kept


def _leave_one_out_extremes(sets: np.ndarray, kept: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """(S, n) mask: a kept row is extreme iff its distance to the hull of the
    other kept rows of its set is > tol. A set with one kept row has none."""
    s, i = np.nonzero(kept & (kept.sum(axis=1) > 1)[:, None])
    _, _, x = _min_norm_points(sets, s, sets[s, i], kept, 0.1 * tol[s], decide=tol[s], skip=i)
    extreme = np.zeros(kept.shape, dtype=bool)
    extreme[s, i] = np.einsum("ij,ij->i", x, x) > tol[s] ** 2
    return extreme


def _cover(sets: np.ndarray, kept: np.ndarray, extreme: np.ndarray, tol: np.ndarray) -> None:
    """Promote, in place and set by set, the kept non-extreme row farthest
    from the hull of the extremes until every one lies within tol of it.
    Each round projects the rows of all the sets not yet covered at once."""
    open_sets = np.ones(sets.shape[0], dtype=bool)
    while True:
        s, i = np.nonzero(kept & ~extreme & open_sets[:, None])
        if not s.size:
            return
        C, W, _ = _min_norm_points(sets, s, sets[s, i], extreme, 0.05 * tol[s])
        dist = _distances(sets, s, sets[s, i], C, W)
        # the farthest row of each set, the lowest index among equals
        order = np.lexsort((-dist, s))
        worst = order[np.r_[True, s[order][1:] != s[order][:-1]]]
        worst = worst[dist[worst] > tol[s[worst]]]
        open_sets[:] = False
        open_sets[s[worst]] = True
        extreme[s[worst], i[worst]] = True


def find_extreme_points(points, tol: float | None = None) -> Polytope | Polytopes:
    """Identify the extreme points of a finite set, or of each set of an
    (S, n, m) stack of equal-size sets, whose Polytopes come back in order.

    A point is extreme iff it lies more than `tol` outside the convex hull
    of the remaining points; within-tol duplicates collapse to the
    lowest-index representative first. Every point kept after that collapse
    lies within tol of the hull of the extremes; a collapsed duplicate is
    not rechecked and lies within 2 tol. `tol` defaults to hull_tol of each
    set, so the decisions do not depend on the units of the features. Each
    set is moved to its first point and scaled by 2**-square_scale of its
    bounding box, which is exact, so its squares stay finite. The
    leave-one-out tests of all the sets, and then each round of coverage
    checks, are one batch of solves, and a set's result does not depend on
    the rest of the stack.
    """
    stack = np.ndim(points) == 3
    sets = np.stack([as_points(p) for p in points]) if stack else as_points(points)[None]
    if tol is not None and tol <= 0:
        raise InvalidInputError("tol must be positive")
    tols = np.array([hull_tol(p) if tol is None else float(tol) for p in sets])
    moved = sets - sets[:, :1]
    k = np.array([square_scale(p.max(axis=0) - p.min(axis=0)) for p in moved])
    scaled, stol = np.ldexp(moved, -k[:, None, None]), np.ldexp(tols, -k)
    kept = _collapse_duplicates(scaled, stol)
    extreme = _leave_one_out_extremes(scaled, kept, stol)
    # Fully degenerate cluster; keep the lowest-index representative.
    extreme[~extreme.any(axis=1), 0] = True
    _cover(scaled, kept, extreme, stol)
    polys = [Polytope(extremes=p[idx], extreme_indices=idx)
             for p, idx in zip(sets, (np.nonzero(e)[0] for e in extreme))]
    return Polytopes(polys) if stack else polys[0]
