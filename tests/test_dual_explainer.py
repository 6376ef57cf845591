"""Dual explanation pipeline: exactness, geometry cases, determinism."""
import warnings

import numpy as np
import pytest

from hullexplain.blackbox import Predictor, analytic, knn_fit
from hullexplain.errors import ConfigError, InvalidInputError, RankDeficiencyWarning
from hullexplain.explainer import (
    DualConfig,
    explain_global,
    explain_local,
    explain_many,
    feature_importance,
)
from hullexplain.geometry import project_points_onto_hull
from hullexplain.rng import Prng

LINEAR7_COEF = np.array([10.0, -20.0, -2.0, 3.0, 0.0, 0.0, 0.0])


class TestExactLinearRecovery:
    def test_local_on_linear_black_box(self):
        # random neighborhoods in R^7 put 11 points in general position,
        # so the hull has >= 8 extremes and recovery must be exact
        pred = analytic("linear7")
        prng = Prng(50, 0)
        X = prng.uniform(200 * 7, 0.0, 1.0).reshape(200, 7)
        for i in range(5):
            x0 = prng.uniform(7, 0.1, 0.9)
            expl = explain_local(x0, X, pred, DualConfig(K=10, seed=i))
            assert np.max(np.abs(expl.a - LINEAR7_COEF)) < 1e-6, f"point {i}"

    def test_global_on_simplex_vertices(self):
        pred = analytic("linear7")
        expl = explain_global(np.eye(7), pred, DualConfig())
        assert np.max(np.abs(expl.a - LINEAR7_COEF)) < 1e-6

    def test_global_on_random_linear_data(self):
        prng = Prng(51, 0)
        X = prng.normal(300).reshape(100, 3)
        coef = np.array([2.0, -1.0, 0.5])

        class Lin:
            input_dim = 3

            def predict(self, Q):
                return np.asarray(Q) @ coef

        expl = explain_global(X, Lin(), DualConfig(n_lambda=40))
        assert np.max(np.abs(expl.a - coef)) < 1e-6
        assert abs(expl.intercept) < 1e-6

    def test_affine_constant_lands_in_the_intercept(self):
        # shifting the target by a constant must shift only the intercept
        prng = Prng(51, 1)
        X = 50.0 + prng.normal(300).reshape(100, 3)  # far from the origin
        coef = np.array([2.0, -1.0, 0.5])

        class Aff:
            input_dim = 3

            def predict(self, Q):
                return np.asarray(Q) @ coef + 4.0

        expl = explain_global(X, Aff(), DualConfig(n_lambda=40))
        assert np.max(np.abs(expl.a - coef)) < 1e-6
        assert abs(expl.intercept - 4.0) < 1e-6
        samples = expl.lambdas @ expl.poly.extremes
        assert np.max(np.abs(expl.model.predict(samples) - Aff().predict(samples))) < 1e-6


class TestGeometryCases:
    def test_interior_point_is_not_an_extreme(self):
        prng = Prng(52, 0)
        X = prng.uniform(80, -1.0, 1.0).reshape(40, 2)
        x0 = np.array([0.0, 0.0])  # deep inside the cloud
        expl = explain_local(x0, X, analytic("ring"), DualConfig(K=12))
        assert expl.diagnostics["contains_x0"] is True
        assert not any(np.allclose(e, x0) for e in expl.poly.extremes)

    def test_outside_point_becomes_an_extreme(self):
        prng = Prng(53, 0)
        X = prng.uniform(80, -1.0, 1.0).reshape(40, 2)
        x0 = np.array([5.0, 5.0])  # far outside the cloud
        expl = explain_local(x0, X, analytic("ring"), DualConfig(K=12))
        assert expl.diagnostics["contains_x0"] is False
        assert any(np.allclose(e, x0) for e in expl.poly.extremes)

    def test_x0_equal_to_training_point_collapses(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        expl = explain_local(X[2], X, analytic("ring"), DualConfig(K=4))
        # the duplicate collapses to the training copy; x0's own row is gone
        assert expl.diagnostics["contains_x0"] is True
        assert expl.poly.d == 4

    def test_queries_stay_inside_the_neighbor_hull(self):
        pred = analytic("ring")
        prng = Prng(54, 0)
        X = prng.normal(100).reshape(50, 2)
        x0 = X[7] + 0.01
        cfg = DualConfig(K=10, n_lambda=25)
        expl = explain_local(x0, X, pred, cfg)
        samples = expl.lambdas @ expl.poly.extremes
        _, dist = project_points_onto_hull(samples, expl.poly.extremes, tol=0.01 * cfg.tol)
        assert dist.max() <= cfg.tol

    def test_repeated_single_point_dataset(self):
        point = np.array([2.0, 1.0, 2.0])
        X = np.tile(point, (5, 1))
        with pytest.warns(RankDeficiencyWarning):
            expl = explain_global(X, _const_pred(), DualConfig())
        assert expl.poly.d == 1
        # minimum-norm solution of a . point = b1
        b1 = expl.b[0]
        want = b1 * point / (point @ point)
        assert np.allclose(expl.a, want, atol=1e-6)


def _const_pred():
    class P:
        input_dim = 3

        def predict(self, Q):
            return np.full(np.asarray(Q).shape[0], 4.5)

    return P()


class TestConfigAndDeterminism:
    def test_n_lambda_smaller_than_d_errors_naming_both(self):
        prng = Prng(55, 0)
        X = prng.uniform(140, 0.0, 1.0).reshape(20, 7)
        x0 = prng.uniform(7, 0.2, 0.8)
        with pytest.raises(ConfigError, match="n_lambda = 5.*11"):
            explain_local(x0, X, analytic("linear7"), DualConfig(K=10, n_lambda=5))

    def test_too_few_training_rows(self):
        with pytest.raises(InvalidInputError, match="fewer than K"):
            explain_local(np.zeros(2), np.eye(2), analytic("ring"), DualConfig(K=5))

    def test_seeded_determinism(self):
        prng = Prng(56, 0)
        X = prng.uniform(60, -1, 1).reshape(30, 2)
        pred = knn_fit(X, X[:, 0] + X[:, 1], k=3)
        cfg = DualConfig(K=8, seed=9, stream=4)
        a = explain_local(np.array([0.1, 0.2]), X, pred, cfg)
        b = explain_local(np.array([0.1, 0.2]), X, pred, DualConfig(K=8, seed=9, stream=4))
        assert a.a.tolist() == b.a.tolist()
        assert a.b.tolist() == b.b.tolist()
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_different_streams_differ(self):
        prng = Prng(57, 0)
        X = prng.uniform(60, -1, 1).reshape(30, 2)
        pred = analytic("ring")
        a = explain_local(np.array([0.1, 0.2]), X, pred, DualConfig(K=8, seed=9, stream=0))
        b = explain_local(np.array([0.1, 0.2]), X, pred, DualConfig(K=8, seed=9, stream=1))
        assert not np.array_equal(a.lambdas, b.lambdas)

    def test_permutation_invariance(self):
        prng = Prng(58, 0)
        X = prng.uniform(60, -1, 1).reshape(30, 2)
        pred = analytic("ring")
        x0 = np.array([0.05, -0.1])
        base = explain_local(x0, X, pred, DualConfig(K=10))
        perm = Prng(59, 0).shuffled(30)
        shuffled = explain_local(x0, X[perm], pred, DualConfig(K=10))
        assert np.allclose(np.sort(base.a), np.sort(shuffled.a), atol=1e-9)

    def test_dual_dataset_shape_and_residual_diagnostic(self):
        prng = Prng(60, 0)
        X = prng.uniform(60, -1, 1).reshape(30, 2)
        expl = explain_local(np.zeros(2), X, analytic("ring"), DualConfig(K=10, n_lambda=17))
        assert expl.lambdas.shape[0] == 17
        assert expl.z.shape == (17,)
        assert expl.diagnostics["fit_residual_rms"] >= 0.0
        assert expl.diagnostics["d"] == expl.poly.d


class CountingPredictor(Predictor):
    """Counts the batches that reach the wrapped predictor."""

    def __init__(self, inner):
        self.inner = inner
        self.input_dim = inner.input_dim
        self.calls = 0

    def _predict_batch(self, X):
        self.calls += 1
        return self.inner.predict(X)


class TestExplainMany:
    @pytest.mark.parametrize("kind", ["knn", "analytic"])
    def test_rows_equal_explain_local_on_their_streams(self, kind):
        prng = Prng(63, 0)
        X = prng.uniform(120, -1.0, 1.0).reshape(60, 2)
        pred = (knn_fit(X, X[:, 0] ** 2 - X[:, 1], k=4) if kind == "knn"
                else analytic("ring"))
        X0 = np.vstack([X[:5], prng.uniform(4, -0.5, 0.5).reshape(2, 2)])
        cfg = DualConfig(K=8, n_lambda=20, seed=7, stream=3)
        many = explain_many(X0, X, pred, cfg)
        assert len(many) == X0.shape[0]
        for i, got in enumerate(many):
            want = explain_local(X0[i], X, pred, DualConfig(K=8, n_lambda=20, seed=7,
                                                            stream=3 + i))
            assert got.a.tobytes() == want.a.tobytes(), f"row {i}"
            assert got.b.tobytes() == want.b.tobytes(), f"row {i}"
            assert got.intercept == want.intercept, f"row {i}"
            assert got.z.tobytes() == want.z.tobytes(), f"row {i}"
            assert np.array_equal(got.poly.extreme_indices, want.poly.extreme_indices)
            assert got.diagnostics == want.diagnostics

    def test_one_predictor_call_each(self):
        prng = Prng(64, 0)
        X = prng.uniform(80, -1.0, 1.0).reshape(40, 2)
        cfg = DualConfig(K=6, n_lambda=12)
        for run in (lambda p: explain_many(X[:10], X, p, cfg),
                    lambda p: explain_local(X[0], X, p, cfg),
                    lambda p: explain_global(X, p, DualConfig(n_lambda=40))):
            pred = CountingPredictor(analytic("ring"))
            run(pred)
            assert pred.calls == 1

    def test_f_x0_is_the_black_box_value_at_each_row(self):
        prng = Prng(67, 0)
        X = prng.uniform(80, -1.0, 1.0).reshape(40, 2)
        pred = knn_fit(X, X[:, 0] - X[:, 1] ** 2, k=3)
        X0 = np.vstack([X[:4], prng.uniform(6, -0.5, 0.5).reshape(3, 2)])
        cfg = DualConfig(K=6, n_lambda=12)
        want = pred.predict(X0)
        many = explain_many(X0, X, pred, cfg)
        assert all(type(e.f_x0) is float for e in many)
        assert np.array([e.f_x0 for e in many]).tobytes() == want.tobytes()
        assert explain_local(X0[5], X, pred, cfg).f_x0 == want[5]
        assert explain_global(X, pred, DualConfig(n_lambda=60)).f_x0 is None

    @pytest.mark.parametrize("X0", [np.zeros((3, 3)), np.array([[0.1, np.nan]]),
                                    np.array([[np.inf, 0.0], [0.0, 0.0]])])
    def test_bad_rows_rejected(self, X0):
        X = Prng(65, 0).uniform(40, -1.0, 1.0).reshape(20, 2)
        with pytest.raises(InvalidInputError):
            explain_many(X0, X, analytic("ring"), DualConfig(K=5))

    def test_explain_local_names_x0_and_checks_config_first(self):
        X = Prng(66, 0).uniform(40, -1.0, 1.0).reshape(20, 2)
        with pytest.raises(InvalidInputError, match="x0 has length 3, expected 2"):
            explain_local(np.zeros(3), X, analytic("ring"), DualConfig(K=5))
        with pytest.raises(ConfigError, match="K must be"):
            explain_local(np.zeros(3), X, analytic("ring"), DualConfig(K=0))


class TestFeatureImportance:
    def test_normalized_table_row(self):
        expl = _expl_with_a(LINEAR7_COEF)
        got = feature_importance(expl, "normalized")
        want = np.array([10, 20, 2, 3, 0, 0, 0]) / 35.0
        assert np.allclose(got, want, atol=1e-12)
        assert abs(got.sum() - 1.0) < 1e-12

    def test_signed_returns_a(self):
        expl = _expl_with_a(np.array([1.0, -2.0]))
        assert feature_importance(expl, "signed").tolist() == [1.0, -2.0]

    def test_unit_vector(self):
        got = feature_importance(_expl_with_a(np.array([0.0, -3.0, 0.0])), "normalized")
        assert got.tolist() == [0.0, 1.0, 0.0]

    def test_all_zero_falls_back_to_uniform_with_warning(self):
        from hullexplain.errors import UniformFallbackWarning

        with pytest.warns(UniformFallbackWarning):
            got = feature_importance(_expl_with_a(np.zeros(4)), "normalized")
        assert got.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_unknown_mode(self):
        with pytest.raises(InvalidInputError):
            feature_importance(_expl_with_a(np.ones(2)), "absolute")


def _expl_with_a(a):
    from hullexplain.explainer import DualExplanation
    from hullexplain.geometry import Polytope

    m = len(a)
    return DualExplanation(
        a=np.asarray(a, dtype=float),
        b=np.zeros(1),
        intercept=0.0,
        poly=Polytope(extremes=np.zeros((1, m)), tol=1e-6),
        lambdas=np.ones((1, 1)),
        z=np.zeros(1),
    )


class TestDerivedOrderings:
    def test_quadratic_dominance_far_from_origin(self):
        # f = -x1^2 + 2 x2 on [15,16]^2: |df/dx1| ~ 31 vs 2
        pred = analytic("quad2")
        prng = Prng(61, 0)
        X = prng.uniform(200, 15.0, 16.0).reshape(100, 2)
        ratios = []
        for i in range(10):
            x0 = prng.uniform(2, 15.2, 15.8)
            expl = explain_local(x0, X, pred, DualConfig(K=10, seed=i))
            norm = feature_importance(expl, "normalized")
            ratios.append(norm[0])
        assert min(ratios) > 0.9

    def test_quadratic_reversed_near_origin(self):
        # on [0,1]^2 the slope of -x1^2 is at most 2, tying x2's coefficient;
        # x2 dominates on average
        pred = analytic("quad2")
        prng = Prng(62, 0)
        X = prng.uniform(200, 0.0, 1.0).reshape(100, 2)
        firsts = []
        for i in range(20):
            x0 = prng.uniform(2, 0.1, 0.9)
            expl = explain_local(x0, X, pred, DualConfig(K=10, seed=i))
            firsts.append(feature_importance(expl, "normalized")[0])
        assert np.mean(firsts) < 0.5
