"""Contribution weights, explaining instance, ALE curves, deviation importance.

Closed-form oracles: at d=2 the renormalized replacement pins the other
coordinate to 1 - lambda_1, so a linear h = b . lambda has ALE slope exactly
b1 - b2; plain replacement leaves it at b1. The two-point deviation oracle
is sqrt(0.5) by hand.
"""
import math

import numpy as np
import pytest

from hullexplain.datasets import gen_lambda_experiment, lambda_function
from hullexplain.errors import (
    DegenerateNormalizationError,
    FlatCurveWarning,
    InvalidInputError,
    UniformFallbackWarning,
)
from hullexplain.example_based import (
    ale_curve,
    contribution_weights,
    deviation_importance,
    explaining_instance,
    importances,
)
from hullexplain.geometry import find_extreme_points
from hullexplain.rng import Prng
from hullexplain.sampling import SimplexSampler
from hullexplain.surrogate import fit_linear


class TestContributionWeights:
    def test_uniform(self):
        assert np.allclose(contribution_weights([1, 1, 1, 1]), 0.25)

    def test_single_mass(self):
        assert np.array_equal(contribution_weights([2, 0, 0, 0]), [1, 0, 0, 0])

    def test_negative_weight_preserved(self):
        v = contribution_weights([3.0, -1.0])
        assert np.allclose(v, [1.5, -0.5])
        assert v.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [1e-16, 1.0, 1e16])
    def test_weights_do_not_depend_on_the_scale_of_b(self, c):
        np.testing.assert_allclose(contribution_weights(np.array([3.0, 1.0]) * c),
                                   [0.75, 0.25], rtol=1e-15)
        np.testing.assert_allclose(contribution_weights(np.array([3.0, -1.0]) * c),
                                   [1.5, -0.5], rtol=1e-15)

    def test_zero_sum_rejected(self):
        for c in (1e-16, 1.0, 1e16):
            with pytest.raises(DegenerateNormalizationError):
                contribution_weights(np.array([1.0, -1.0]) * c)
        with pytest.raises(DegenerateNormalizationError):
            contribution_weights(np.zeros(3))

    def test_bad_shape(self):
        with pytest.raises(InvalidInputError):
            contribution_weights(np.ones((2, 2)))


class TestExplainingInstance:
    triangle = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])

    def test_unit_vector_returns_extreme(self):
        out = explaining_instance([0.0, 1.0, 0.0], self.triangle)
        assert np.array_equal(out, self.triangle[1])

    def test_uniform_returns_centroid(self):
        out = explaining_instance(np.full(3, 1 / 3), self.triangle)
        assert np.allclose(out, self.triangle.mean(axis=0))

    def test_linear_in_v(self):
        p = Prng(3, 0)
        v = p.unit(3)
        w = p.unit(3)
        a = 0.37
        left = explaining_instance(a * v + (1 - a) * w, self.triangle)
        right = (a * explaining_instance(v, self.triangle)
                 + (1 - a) * explaining_instance(w, self.triangle))
        assert np.allclose(left, right, atol=1e-15)

    def test_fitted_triangle_matches_hand_arithmetic(self):
        # dual fit of a linear function over the triangle, then the v-blend
        poly = find_extreme_points(self.triangle, 1e-9)
        lam = SimplexSampler(3, seed=5).draw(60)
        x = lam @ poly.extremes
        z = 2.0 * x[:, 0] + 1.0 * x[:, 1]
        b = fit_linear(lam, z, with_intercept=False).coefficients
        v = contribution_weights(b)
        out = explaining_instance(v, poly)
        assert np.allclose(out, v @ poly.extremes, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            explaining_instance([1.0, 0.0], self.triangle)


def linear_fn(b):
    b = np.asarray(b, dtype=np.float64)
    return lambda lam: np.asarray(lam) @ b


class TestAleCurve:
    def test_plain_slope_is_b1(self):
        lam = SimplexSampler(3, seed=2).draw(600)
        curve = ale_curve(lam, 0, linear_fn([4.0, -1.0, 2.0]), 10)
        # accumulated effects of a linear fn are linear in the edge positions
        slopes = np.diff(curve.centered_effects) / np.diff(curve.bin_centers)
        assert np.allclose(slopes, 4.0, atol=1e-9)

    def test_renormalized_slope_is_b1_minus_b2_at_d2(self):
        lam = SimplexSampler(2, seed=3).draw(400)
        b = [5.0, 2.0]
        curve = ale_curve(lam, 0, linear_fn(b), 8, renormalize=True)
        slopes = np.diff(curve.centered_effects) / np.diff(curve.bin_centers)
        assert np.allclose(slopes, 3.0, atol=1e-9)

    def test_null_coordinate_curve_is_zero(self):
        lam = SimplexSampler(6, seed=4).draw(500)
        fn = lambda_function("ex-based-1")  # ignores coords 2, 4, 5
        z_range = np.ptp(fn(lam))
        curve = ale_curve(lam, 2, fn, 20)
        assert np.max(np.abs(curve.centered_effects)) <= 1e-6 * z_range

    def test_sine_coordinate_hump(self):
        lam = gen_lambda_experiment("ex-based-1", seed=0).x
        curve = ale_curve(lam, 3, lambda_function("ex-based-1"), 20)
        peak = curve.bin_centers[np.argmax(curve.centered_effects)]
        assert 0.25 <= peak <= 0.6
        # interior maximum: a hump, not a monotone ramp
        assert np.argmax(curve.centered_effects) not in (0, len(curve.counts) - 1)

    def test_weighted_mean_is_zero(self):
        lam = SimplexSampler(4, seed=6).draw(300)
        curve = ale_curve(lam, 1, lambda_function("ex-based-2"), 15)
        mean = np.average(curve.centered_effects, weights=curve.counts)
        assert abs(mean) <= 1e-9

    def test_constant_coordinate_warns_flat(self):
        lam = np.column_stack([np.full(50, 0.3), np.full(50, 0.7)])
        with pytest.warns(FlatCurveWarning):
            curve = ale_curve(lam, 0, linear_fn([1.0, 1.0]), 5)
        assert np.array_equal(curve.centered_effects, [0.0])

    def test_bins_respect_min_occupancy(self):
        # heavily skewed coordinate: merging must leave >= 2 samples per bin
        p = Prng(9, 0)
        col = p.unit(200) ** 6
        lam = np.column_stack([col, 1.0 - col])
        curve = ale_curve(lam, 0, linear_fn([1.0, 0.0]), 20, binning="quantile")
        assert curve.counts.min() >= 2
        assert np.all(np.diff(curve.bin_edges) > 0)

    def test_values_at_maps_samples_to_bins(self):
        lam = SimplexSampler(3, seed=8).draw(100)
        curve = ale_curve(lam, 0, linear_fn([2.0, 0.0, 0.0]), 6)
        vals = curve.values_at(lam[:, 0])
        assert vals.shape == (100,)
        assert set(np.unique(vals)) <= set(curve.centered_effects)

    def test_input_validation(self):
        lam = SimplexSampler(3, seed=1).draw(50)
        fn = linear_fn([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            ale_curve(lam, 5, fn, 10)
        with pytest.raises(InvalidInputError):
            ale_curve(lam, 0, fn, 0)
        with pytest.raises(InvalidInputError):
            ale_curve(lam, 0, fn, 10, binning="log")


class TestDeviationImportance:
    def test_constant_is_zero(self):
        assert deviation_importance([3.0, 3.0, 3.0]) == 0.0

    def test_two_point_oracle(self):
        assert deviation_importance([0.0, 1.0]) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    def test_linear_grid(self):
        grid = np.linspace(0.0, 1.0, 21)
        b = -3.5
        want = abs(b) * np.std(grid, ddof=1)
        assert deviation_importance(b * grid) == pytest.approx(want, abs=1e-12)
        # ratio of two linear coordinates is the coefficient ratio
        r = deviation_importance(2.0 * grid) / deviation_importance(-8.0 * grid)
        assert r == pytest.approx(0.25, abs=1e-12)

    def test_translation_invariant(self):
        p = Prng(11, 0)
        vals = p.normal(40)
        for shift in (-17.0, 0.003, 1e6):
            assert deviation_importance(vals + shift) == pytest.approx(
                deviation_importance(vals), rel=1e-9
            )

    def test_absolutely_homogeneous(self):
        p = Prng(12, 0)
        vals = p.normal(40)
        base = deviation_importance(vals)
        for c in (-2.0, 0.5, 30.0):
            assert deviation_importance(c * vals) == pytest.approx(
                abs(c) * base, rel=1e-12
            )

    def test_short_input_rejected(self):
        with pytest.raises(InvalidInputError):
            deviation_importance([1.0])


class TestImportances:
    def test_lr_closed_form_on_linear_target(self):
        lam = SimplexSampler(4, seed=13).draw(500)
        b = np.array([3.0, -1.0, 0.5, 2.0])
        z = lam @ b
        imp = importances(lam, z, "lr")
        want_raw = np.abs(b) * lam.std(axis=0, ddof=1)
        assert np.allclose(imp.raw, want_raw, atol=1e-9)
        assert imp.normalized.sum() == pytest.approx(1.0, abs=1e-9)

    def test_ale_ignored_coordinate_share(self):
        ds = gen_lambda_experiment("ex-based-1", seed=0)
        imp = importances(ds.x, ds.y, "ale", fn=lambda_function("ex-based-1"))
        for k in (2, 4, 5):
            assert imp.normalized[k] <= 0.02

    def test_argmax_stability_ale_and_lr(self):
        ds = gen_lambda_experiment("ex-based-1", seed=0)
        ale = importances(ds.x, ds.y, "ale", fn=lambda_function("ex-based-1"))
        lr = importances(ds.x, ds.y, "lr")
        for imp in (ale, lr):
            order = np.argsort(imp.normalized)[::-1]
            assert order[0] == 3 and order[1] == 1

    def test_uniform_fallback_on_constant_fn(self):
        lam = SimplexSampler(3, seed=14).draw(80)
        with pytest.warns(UniformFallbackWarning):
            imp = importances(lam, None, "ale", fn=lambda L: np.zeros(len(L)))
        assert np.allclose(imp.normalized, 1.0 / 3.0)

    def test_missing_prerequisites(self):
        lam = SimplexSampler(3, seed=1).draw(30)
        with pytest.raises(InvalidInputError):
            importances(lam, None, "ale")
        with pytest.raises(InvalidInputError):
            importances(lam, None, "lr")
        with pytest.raises(InvalidInputError):
            importances(lam, np.zeros(30), "nam")
        with pytest.raises(InvalidInputError):
            importances(lam, np.zeros(30), "pdp")
