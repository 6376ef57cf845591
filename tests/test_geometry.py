"""Hull projection and extreme-point identification.

Cross-checked in 2-d against independent classical oracles: a
monotone-chain convex hull for extreme sets, and exact point-to-segment
arithmetic for hull distances. Higher dimensions are covered by
invariants (feasibility, idempotence, coverage, equivariance) and by 7-d
certificates that need no oracle: the KKT conditions of a projection, and
distance bounds that any simplex weights prove.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullexplain.datasets import SyntheticSpec, generate
from hullexplain.errors import ConvergenceError, InvalidInputError
from hullexplain import geometry
from hullexplain.geometry import (
    Polytopes,
    _min_norm_points,
    find_extreme_points,
    hull_tol,
    nearest,
    project_points_onto_hull,
    square_scale,
)
from hullexplain.rng import Prng


# ---------------------------------------------------------------- oracles

def monotone_chain(points):
    """Classic 2-d convex hull; returns vertex indices, strictly convex corners only."""
    pts = [(float(x), float(y), i) for i, (x, y) in enumerate(points)]
    pts.sort()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:  # all collinear: keep the two ends
        hull = [pts[0], pts[-1]]
    return sorted(p[2] for p in hull)


def segment_distance(q, a, b):
    """Exact distance from point q to segment ab."""
    q, a, b = map(np.asarray, (q, a, b))
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((q - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(q - (a + t * ab)))


def polygon_distance(q, vertices):
    """Distance from q to a convex polygon given by hull vertices (any order): 0 inside."""
    verts = np.asarray(vertices, dtype=float)
    if len(verts) == 1:
        return float(np.linalg.norm(q - verts[0]))
    # order by angle around the centroid to walk the boundary
    c = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0]))
    verts = verts[order]
    n = len(verts)
    inside = True
    sign = 0.0
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cr = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        if sign == 0.0 and cr != 0.0:
            sign = np.sign(cr)
        elif cr * sign < 0.0:
            inside = False
    if inside and n >= 3:
        return 0.0
    return min(segment_distance(q, verts[i], verts[(i + 1) % n]) for i in range(n))


# ------------------------------------------------------------- projection

class TestProjection:
    def test_point_inside_triangle_has_zero_distance(self):
        refs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lam, dist = project_points_onto_hull([[0.2, 0.2]], refs)
        assert dist[0] < 1e-7
        assert np.allclose(lam[0] @ refs, [0.2, 0.2], atol=1e-7)

    def test_point_outside_projects_to_face(self):
        refs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        lam, dist = project_points_onto_hull([[1.0, 1.0]], refs)
        assert abs(dist[0] - np.sqrt(2) / 2) < 1e-6
        assert np.allclose(lam[0] @ refs, [0.5, 0.5], atol=1e-6)

    def test_weights_are_a_simplex_vector(self):
        refs = Prng(1, 0).normal(40).reshape(10, 4)
        lam, _ = project_points_onto_hull([np.full(4, 5.0)], refs)
        assert np.all(lam >= 0.0)
        assert abs(lam[0].sum() - 1.0) <= 1e-12

    def test_single_reference(self):
        lam, dist = project_points_onto_hull([[3.0, 4.0]], [[0.0, 0.0]])
        assert abs(dist[0] - 5.0) < 1e-12
        assert lam.tolist() == [[1.0]]

    def test_duplicate_references_are_harmless(self):
        refs = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        lam, dist = project_points_onto_hull([[1.0, 1.0]], refs)
        assert abs(dist[0] - 1.0) < 1e-6
        assert abs((lam[0] @ refs)[0] - 1.0) < 1e-6

    def test_matches_segment_oracle(self):
        prng = Prng(7, 0)
        refs = prng.uniform(8, -1.0, 1.0).reshape(4, 2)
        queries = prng.uniform(40, -3.0, 3.0).reshape(20, 2)
        hull_idx = monotone_chain(refs)
        for q in queries:
            want = polygon_distance(q, refs[hull_idx])
            _, got = project_points_onto_hull([q], refs, tol=1e-9)
            assert abs(got[0] - want) < 1e-7

    def test_batch_agrees_with_single(self):
        prng = Prng(21, 0)
        refs = prng.normal(30).reshape(10, 3)
        queries = prng.normal(15).reshape(5, 3)
        lam, dist = project_points_onto_hull(queries, refs, tol=1e-9)
        for i in range(len(queries)):
            lam1, dist1 = project_points_onto_hull(queries[i : i + 1], refs, tol=1e-9)
            assert abs(dist[i] - dist1[0]) < 1e-7
            assert np.allclose(lam[i] @ refs, lam1[0] @ refs, atol=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            project_points_onto_hull([[np.nan, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            project_points_onto_hull([[0.0, 0.0]], [[np.inf, 0.0], [1.0, 1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            project_points_onto_hull([[0.0, 0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])

    def test_high_dimensional_affinely_dependent(self):
        # 3 points spanning a plane inside R^6; query off the plane
        prng = Prng(4, 0)
        base = prng.normal(18).reshape(3, 6)
        q = base.mean(axis=0) + 0.5 * np.ones(6)
        lam, _ = project_points_onto_hull([q], base, tol=1e-9)
        resid = q - lam[0] @ base
        # optimality: residual orthogonal to all active edges
        active = lam[0] > 1e-9
        for i in np.nonzero(active)[0]:
            for j in np.nonzero(active)[0]:
                assert abs(resid @ (base[i] - base[j])) < 1e-6


# ---------------------------------------------------------- extreme points

def leave_one_out(pts, tol):
    """The leave-one-out mask of one set with no duplicates collapsed."""
    return geometry._leave_one_out_extremes(
        np.asarray(pts, dtype=float)[None], np.ones((1, len(pts)), dtype=bool),
        np.array([tol]))[0]


def brute_force_extremes_2d(points, tol):
    keep = []
    pts = np.asarray(points, dtype=float)
    for i in range(len(pts)):
        if keep and min(np.linalg.norm(pts[k] - pts[i]) for k in keep) <= tol:
            continue
        keep.append(i)
    uniq = pts[keep]
    if len(uniq) == 1:
        return [keep[0]]
    out = []
    for local, orig in enumerate(keep):
        others = np.delete(uniq, local, axis=0)
        hull = others[monotone_chain(others)] if len(others) > 1 else others
        if polygon_distance(uniq[local], hull) > tol:
            out.append(orig)
    return out


class TestExtremePoints:
    def test_unit_square_with_interior_points(self):
        pts = np.array(
            [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.25, 0.75]], dtype=float
        )
        poly = find_extreme_points(pts, tol=1e-6)
        assert poly.extreme_indices.tolist() == [0, 1, 2, 3]
        assert poly.d == 4

    def test_collinear_points_keep_only_ends(self):
        t = np.linspace(0.0, 1.0, 7)
        pts = np.stack([t, 2 * t], axis=1)
        poly = find_extreme_points(pts, tol=1e-6)
        assert poly.extreme_indices.tolist() == [0, 6]

    def test_duplicates_collapse_to_lowest_index(self):
        pts = np.array([[0, 0], [1, 0], [1e-9, 0], [0, 1], [1, 0]], dtype=float)
        poly = find_extreme_points(pts, tol=1e-6)
        assert poly.extreme_indices.tolist() == [0, 1, 3]

    def test_single_point(self):
        poly = find_extreme_points([[2.0, 3.0, 4.0]], tol=1e-6)
        assert poly.d == 1
        assert poly.extremes.tolist() == [[2.0, 3.0, 4.0]]

    def test_all_identical_points(self):
        pts = np.zeros((5, 3))
        poly = find_extreme_points(pts, tol=1e-6)
        assert poly.d == 1
        assert poly.extreme_indices.tolist() == [0]

    def test_matches_monotone_chain_on_many_random_sets(self):
        # 2-d oracle equivalence over >= 100 random configurations
        for trial in range(120):
            prng = Prng(500, trial)
            n = 3 + int(prng.below(12, 1)[0])
            pts = prng.uniform(2 * n, -1.0, 1.0).reshape(n, 2)
            poly = find_extreme_points(pts, tol=1e-9)
            want = sorted(brute_force_extremes_2d(pts, 1e-9))
            assert poly.extreme_indices.tolist() == want, f"trial {trial}"

    def test_idempotent_on_its_own_output(self):
        prng = Prng(77, 0)
        pts = prng.normal(60).reshape(20, 3)
        first = find_extreme_points(pts, tol=1e-8)
        second = find_extreme_points(first.extremes, tol=1e-8)
        assert second.d == first.d
        assert np.allclose(np.sort(second.extremes, axis=0), np.sort(first.extremes, axis=0))

    def test_coverage_invariant(self):
        # every non-extreme point lies within tol of the hull of the extremes
        prng = Prng(88, 0)
        pts = prng.uniform(80, 0.0, 1.0).reshape(40, 2)
        tol = 1e-7
        poly = find_extreme_points(pts, tol=tol)
        non_idx = np.setdiff1d(np.arange(40), poly.extreme_indices)
        _, dist = project_points_onto_hull(pts[non_idx], poly.extremes, tol=0.01 * tol)
        assert dist.max() <= tol

    def test_coverage_pass_promotes_an_uncovered_point(self):
        # leave-one-out keeps only rows 0 and 1: rows 2 and 3 each lie within
        # tol of the hull of the others, but row 3 is 1.8e-6 from the segment
        pts = np.array([[0, 0], [1, 0], [0.5 - 2e-6, 0.9e-6], [0.5, 1.8e-6]])
        tol = 1e-6
        assert leave_one_out(pts, tol).tolist() == [True, True, False, False]
        poly = find_extreme_points(pts, tol=tol)
        assert poly.extreme_indices.tolist() == [0, 1, 3]
        _, dist = project_points_onto_hull(pts, poly.extremes, tol=0.01 * tol)
        assert dist.max() <= tol

    def test_all_non_extreme_set_falls_back_then_promotes(self):
        # on a fine circle every point is within tol of the hull of the others,
        # so the pass starts from row 0 alone and promotes until all are covered
        t = 2 * np.pi * np.arange(60) / 60
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        tol = 0.01
        assert not leave_one_out(pts, tol).any()
        poly = find_extreme_points(pts, tol=tol)
        assert poly.d == 32
        _, dist = project_points_onto_hull(pts, poly.extremes, tol=0.01 * tol)
        assert dist.max() <= tol

    def test_collapsed_duplicate_is_not_rechecked(self):
        # row 3 collapses into row 2, which is within tol of the segment; row 3
        # itself lies 1.7e-6 from it, inside the documented 2 tol bound
        pts = np.array([[0, 0], [1, 0], [0.5, 0.9e-6], [0.5, 1.7e-6]])
        tol = 1e-6
        poly = find_extreme_points(pts, tol=tol)
        assert poly.extreme_indices.tolist() == [0, 1]
        _, dist = project_points_onto_hull(pts, poly.extremes, tol=0.01 * tol)
        assert tol < dist[3] <= 2 * tol
        assert abs(dist[3] - 1.7e-6) <= 1e-9

    def test_scale_and_translation_equivariance(self):
        prng = Prng(15, 0)
        pts = prng.normal(30).reshape(15, 2)
        base = find_extreme_points(pts, tol=1e-8).extreme_indices.tolist()
        for scale in (3.5, 1e-12, 1e12):
            moved = scale * pts + scale / 3.5 * np.array([100.0, -40.0])
            assert find_extreme_points(moved, tol=scale * 1e-8).extreme_indices.tolist() == base
            # the default tolerance scales with the points by itself
            assert find_extreme_points(moved).extreme_indices.tolist() == base

    def test_prefiltered_large_set_matches_direct_rule(self):
        # 304 points, 300 of them interior: each leave-one-out test must still be exact
        prng = Prng(31, 0)
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        interior = 0.1 + 0.8 * prng.unit(600).reshape(300, 2)
        pts = np.vstack([corners, interior])
        poly = find_extreme_points(pts, tol=1e-9)
        assert poly.extreme_indices.tolist() == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_oracle_equivalence_hypothesis(self, seed):
        prng = Prng(seed, 9)
        n = 3 + int(prng.below(10, 1)[0])
        pts = prng.uniform(2 * n, -2.0, 2.0).reshape(n, 2)
        poly = find_extreme_points(pts, tol=1e-9)
        assert poly.extreme_indices.tolist() == sorted(brute_force_extremes_2d(pts, 1e-9))


# ------------------------------------------------------- 7-d certificates

def points_7d(prng, n, flat):
    """n generic points in R^7, or on a random 3-d affine subspace of it."""
    if flat:
        basis = prng.normal(21).reshape(3, 7)
        return prng.normal(3 * n).reshape(n, 3) @ basis + prng.normal(7)
    return prng.normal(7 * n).reshape(n, 7)


def certified_distance_bounds(q, refs):
    """(lower, upper) bounds on dist(q, hull(refs)) that hold for any simplex weights.

    The upper bound is the distance to the weights' image; the lower bound
    is how far every ref lies from q along the unit residual direction.
    """
    w, _ = project_points_onto_hull([q], refs, tol=1e-12)
    resid = q - w[0] @ refs
    upper = float(np.linalg.norm(resid))
    if upper == 0.0:
        return 0.0, 0.0
    return max(0.0, float(np.min((q - refs) @ resid)) / upper), upper


class TestSevenDimensional:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_projection_meets_kkt_certificate(self, seed, flat):
        prng = Prng(seed, 17)
        n = 2 + int(prng.below(24, 1)[0])
        refs = points_7d(prng, n, flat)
        q = 3.0 * prng.normal(7)
        lam, _ = project_points_onto_hull([q], refs)
        w = lam[0]
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        image = w @ refs
        # optimality: no ref lies beyond the image along the residual
        resid = q - image
        scale = 1.0 + float(np.max(np.sum((refs - q) ** 2, axis=1)))
        assert float(np.max((refs - image) @ resid)) <= 1e-10 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_extremes_are_certified_by_distance_bounds(self, seed, flat):
        prng = Prng(seed, 18)
        n = 4 + int(prng.below(20, 1)[0])
        pts = points_7d(prng, n, flat)
        tol = 1e-6
        # Two points at 0.8 tol (at most) and exactly 1.5 tol outside the hull:
        # each sits above the midpoint of two points, drawn from disjoint halves
        # of the set, moved onto a supporting hyperplane.
        for height, lo, hi in ((0.8, 0, n // 2), (1.5, n // 2, n)):
            u = prng.normal(7)
            u /= np.linalg.norm(u)
            top = pts @ u
            a, b = lo + np.argsort(top[lo:hi])[-2:]
            pts[[a, b]] += (top.max() - top[[a, b]])[:, None] * u
            pts = np.vstack([pts, 0.5 * (pts[a] + pts[b]) + height * tol * u])
        kept = set(find_extreme_points(pts, tol=tol).extreme_indices.tolist())
        assert len(pts) - 1 in kept and len(pts) - 2 not in kept
        for i in range(len(pts)):
            lower, upper = certified_distance_bounds(pts[i], np.delete(pts, i, axis=0))
            if i in kept:
                assert lower > tol, f"point {i} kept at distance <= {upper}"
            else:
                assert upper <= tol, f"point {i} dropped at distance >= {lower}"

def stack_of_sets(prng, count, n, m, kind):
    """`count` sets of n points in R^m: generic, on a 2-d affine subspace,
    or generic with exact and within-tol copies of earlier rows."""
    sets = prng.normal(count * n * m).reshape(count, n, m)
    if kind == "flat":
        sets = sets[:, :, :2] @ prng.normal(2 * m).reshape(2, m) + prng.normal(m)
    if kind == "duplicates":
        sets[:, n // 2] = sets[:, 0]
        sets[:, n - 1] = sets[:, 1] + 1e-12 * prng.normal(count * m).reshape(count, m)
    return sets


class TestStacks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 7]),
           st.sampled_from(["generic", "flat", "duplicates"]))
    def test_each_set_of_a_stack_equals_the_set_alone(self, seed, m, kind):
        prng = Prng(seed, 31)
        n = 3 + int(prng.below(12, 1)[0])
        sets = stack_of_sets(prng, 1 + int(prng.below(6, 1)[0]), n, m, kind)
        polys = find_extreme_points(sets)
        assert isinstance(polys, Polytopes) and len(polys) == len(sets)
        assert polys.d == sum(p.d for p in polys)
        for pts, poly in zip(sets, polys):
            alone = find_extreme_points(pts)
            assert poly.extreme_indices.tobytes() == alone.extreme_indices.tobytes()
            assert poly.extremes.tobytes() == alone.extremes.tobytes()

    def test_a_stack_of_one_set_is_that_set(self):
        pts = Prng(5, 0).normal(40).reshape(20, 2)
        [poly] = find_extreme_points(pts[None])
        assert poly.extreme_indices.tolist() == find_extreme_points(pts).extreme_indices.tolist()

    def test_rejects_non_finite_sets(self):
        sets = np.zeros((2, 3, 2))
        sets[1, 2, 0] = np.nan
        with pytest.raises(InvalidInputError):
            find_extreme_points(sets)


class TestKernel:
    """The batched Wolfe solves behind find_extreme_points and projection."""

    @staticmethod
    def solve(sets, which, queries, allowed, gap=1e-9, skip=None):
        which = np.asarray(which, dtype=np.intp)
        return _min_norm_points(np.asarray(sets, dtype=float), which,
                                np.asarray(queries, dtype=float), np.asarray(allowed),
                                np.full(which.shape[0], gap), skip=skip)

    @pytest.mark.parametrize("m", [1, 2, 7])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_a_problem_gets_the_same_bits_in_any_batch(self, m, symmetric):
        prng = Prng(40 + m, 0)
        sets = prng.normal(3 * 12 * m).reshape(3, 12, m)
        queries = 1.5 * prng.normal(50 * m).reshape(50, m)
        if symmetric:
            # rotated cross-polytopes queried near their centres: many rows
            # tie in exact arithmetic, so rounding alone picks among them
            rot = np.linalg.qr(prng.normal(m * m).reshape(m, m))[0]
            cross = np.vstack([np.eye(m), -np.eye(m), 2 * np.eye(m), -2 * np.eye(m)]) @ rot
            sets = np.stack([np.resize(cross, (12, m)) for _ in range(3)])
            queries = 1e-9 * queries
        allowed = prng.unit(36).reshape(3, 12) < 0.8
        allowed[:, 0] = True
        which = prng.below(3, 50)
        batch = self.solve(sets, which, queries, allowed)
        for b in range(50):
            alone = self.solve(sets, which[b : b + 1], queries[b : b + 1], allowed)
            for got, want in zip(batch, alone):
                assert got[b].tobytes() == want[0].tobytes(), b
        # a lone set is read in place, not copied per problem: same bits
        one_set = self.solve(sets[:1], np.zeros(50), queries, allowed[:1])
        for b in np.nonzero(which == 0)[0]:
            for got, want in zip(one_set, batch):
                assert got[b].tobytes() == want[b].tobytes(), b

    def test_a_single_allowed_row_gets_weight_one(self):
        sets = Prng(3, 0).normal(12).reshape(1, 6, 2)
        allowed = np.zeros((1, 6), dtype=bool)
        allowed[0, 4] = True
        C, W, X = self.solve(sets, [0, 0], [[5.0, 5.0], sets[0, 1]], allowed)
        assert C[:, 0].tolist() == [4, 4] and W[:, 0].tolist() == [1.0, 1.0]
        assert np.all(W[:, 1:] == 0.0)
        assert np.array_equal(X, sets[0, 4] - np.array([[5.0, 5.0], sets[0, 1]]))

    def test_skip_leaves_out_each_problems_own_row(self):
        sets = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
        C, W, X = self.solve(sets, [0] * 4, sets[0], np.ones((1, 4), dtype=bool),
                             skip=np.arange(4))
        for i in range(4):
            assert i not in C[i][W[i] > 0]
        assert np.allclose(np.einsum("ij,ij->i", X, X), 0.5)

    def test_a_problem_at_its_cycle_bound_fails_the_whole_batch(self, monkeypatch):
        # an affine step that never moves repeats the first major cycle of
        # every problem that does not stop at once, until its cycle bound
        refs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        queries = [[0.0, 0.0], [0.2, 0.2]]
        lam, _ = project_points_onto_hull(queries, refs)
        assert lam.shape == (2, 3)
        monkeypatch.setattr(geometry, "_affine_min_norm",
                            lambda P, cnt: (np.arange(P.shape[1]) == 0) + 0.0 * P[:, :, 0])
        assert project_points_onto_hull(queries[:1], refs)[0].tolist() == [[1.0, 0.0, 0.0]]
        with pytest.raises(ConvergenceError, match="did not converge within 24 cycles"):
            project_points_onto_hull(queries, refs)

    def test_a_stalled_problem_fails_the_whole_batch(self):
        # a NaN query makes every score NaN, so the first major cycle picks
        # the corral's own row again
        sets = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ConvergenceError, match="stalled with gap nan"):
            self.solve(sets, [0, 0], [[0.2, 0.2], [np.nan, 0.0]], np.ones((1, 3), dtype=bool))


class TestHugeCoordinates:
    def test_extreme_set_of_a_ring_scaled_by_2_520(self):
        # squares of the scaled coordinates overflow; each set is scaled by a
        # power of two before any is squared, which changes no decision
        x = generate(SyntheticSpec("feat-ex3", seed=1)).x
        want = find_extreme_points(x).extreme_indices.tolist()
        with np.errstate(over="raise", invalid="raise"):
            assert find_extreme_points(np.ldexp(x, 520)).extreme_indices.tolist() == want
            assert find_extreme_points(np.ldexp(x[None], 520))[0].extreme_indices.tolist() == want

    def test_projection_distances_scale_back(self):
        refs = Prng(9, 0).normal(20).reshape(10, 2)
        queries = 3.0 * Prng(9, 1).normal(8).reshape(4, 2)
        lam, dist = project_points_onto_hull(queries, refs)
        with np.errstate(over="raise", invalid="raise"):
            big_lam, big_dist = project_points_onto_hull(np.ldexp(queries, 600),
                                                         np.ldexp(refs, 600))
        assert np.array_equal(big_lam, lam)
        assert np.array_equal(big_dist, np.ldexp(dist, 600))


class TestHullTol:
    def test_is_1e_8_times_the_bounding_box_diagonal(self):
        assert hull_tol(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])) == 5e-8

    def test_identical_points_get_a_positive_tol(self):
        assert hull_tol(np.zeros((4, 3))) > 0.0
        assert hull_tol(np.full((1, 2), 7.0)) > 0.0

    @pytest.mark.parametrize("c", [2.0**-40, 2.0**-20, 2.0**40, 2.0**520])
    def test_scales_with_the_points(self, c):
        pts = Prng(3, 0).normal(30).reshape(10, 3)
        assert hull_tol(c * pts) == c * hull_tol(pts)


class TestHelpers:
    def test_tol_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            find_extreme_points(np.eye(2), tol=0.0)


def stable_order(X, Q):
    """Rows of X by exact squared distance to each row of Q, ties by index."""
    out = []
    for q in Q:
        delta = X - q
        out.append(np.argsort(np.einsum("ij,ij->i", delta, delta), kind="stable"))
    return np.array(out)


class TestNearest:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_equals_a_stable_full_sort_for_every_k(self, seed, lattice):
        prng = Prng(seed, 0)
        n, m = 1 + prng.below(1, 30)[0], 1 + prng.below(1, 4)[0]
        X = prng.normal(n * m).reshape(n, m)
        if lattice:
            # tenths-lattice rows, copies among them, and queries between
            # lattice points: many exact distance ties
            X = np.floor(prng.unit(n * m) * 3).reshape(n, m) / 10
        Q = np.vstack([X[: 1 + n // 2] + 0.05, prng.normal(5 * m).reshape(5, m), X[-1:]])
        want = stable_order(X, Q)
        for k in range(1, n + 1):
            got = nearest(X, Q, k)
            assert got.dtype == np.intp
            assert np.array_equal(got, want[:, :k]), k

    def test_ties_at_the_kth_place_take_the_lowest_indices(self):
        X = 3.0 + Prng(7, 0).unit(80).reshape(40, 2)
        X[[5, 30]] = [0.25, 0.0]
        X[[2, 14, 22, 37]] = [0.5, -0.25]
        assert nearest(X, np.zeros((1, 2)), 4).tolist() == [[5, 30, 2, 14]]

    def test_rows_spanning_chunks_equal_rows_alone(self):
        prng = Prng(8, 0)
        X = np.floor(prng.unit(600) * 4).reshape(300, 2) / 10
        Q = np.vstack([X, X + 0.05])
        assert Q.shape[0] > geometry._NEAREST_CELLS // X.size
        alone = np.vstack([nearest(X, q[None, :], 7) for q in Q])
        assert np.array_equal(nearest(X, Q, 7), alone)
        assert np.array_equal(alone, stable_order(X, Q)[:, :7])


class TestSquareScale:
    def test_ordinary_values_are_not_scaled(self):
        assert square_scale(np.array([0.0])) == 0
        assert square_scale(np.array([-3.0, 1e100, 2.0**479])) == 0

    def test_least_power_of_two_below_the_limit(self):
        limit = 2.0**geometry._SQUARE_EXP
        for v in (limit, 1e200, -1e300, np.finfo(np.float64).max):
            k = square_scale(np.array([1.0, v]))
            assert abs(np.ldexp(v, -k)) < limit <= abs(np.ldexp(v, 1 - k))
