"""Linear surrogates: weighted least-squares fitting, primal recovery, baseline explainer.

Derived expectations come from independent oracles: a dense
normal-equations solve, fits with rows physically deleted, and a
large-sample baseline run.
"""
import warnings

import numpy as np
import pytest

from hullexplain import surrogate
from hullexplain.blackbox import Predictor, analytic
from hullexplain.errors import DegenerateWeightWarning, InvalidInputError, RankDeficiencyWarning
from hullexplain.rng import Prng
from hullexplain.surrogate import (
    LimeConfig,
    fit_linear,
    lime_explain,
    recover_primal,
)


def normal_equations(X, t, w=None, intercept=True):
    """Independent dense solve of the same objective."""
    A = np.hstack([X, np.ones((X.shape[0], 1))]) if intercept else X
    W = np.diag(w) if w is not None else np.eye(X.shape[0])
    return np.linalg.solve(A.T @ W @ A, A.T @ W @ t)


class CountingPredictor(Predictor):
    """Counts the batches that reach the wrapped predictor."""

    def __init__(self, inner):
        self.inner = inner
        self.input_dim = inner.input_dim
        self.calls = 0

    def _predict_batch(self, X):
        self.calls += 1
        return self.inner.predict(X)


class TestFitLinear:
    def test_identity_design_returns_targets(self):
        b = np.array([3.0, -1.0, 0.5])
        model = fit_linear(np.eye(3), b, with_intercept=False)
        assert np.allclose(model.coefficients, b, atol=1e-12)
        assert model.intercept == 0.0

    def test_exact_linear_targets_recovered(self):
        prng = Prng(1, 0)
        X = prng.normal(120).reshape(40, 3)
        coef = np.array([2.0, -1.0, 0.25])
        t = X @ coef + 0.75
        model = fit_linear(X, t)
        assert np.allclose(model.coefficients, coef, atol=1e-8)
        assert abs(model.intercept - 0.75) < 1e-8

    def test_zero_weight_equals_row_deletion(self):
        prng = Prng(2, 0)
        X = prng.normal(30).reshape(10, 3)
        t = prng.normal(10)
        w = np.ones(10)
        w[4] = 0.0
        with_zero = fit_linear(X, t, weights=w)
        deleted = fit_linear(np.delete(X, 4, axis=0), np.delete(t, 4))
        assert np.allclose(with_zero.coefficients, deleted.coefficients, atol=1e-9)
        assert abs(with_zero.intercept - deleted.intercept) < 1e-9

    def test_duplicated_rows_with_halved_weights_match(self):
        prng = Prng(3, 0)
        X = prng.normal(24).reshape(8, 3)
        t = prng.normal(8)
        base = fit_linear(X, t, weights=np.ones(8))
        doubled = fit_linear(
            np.vstack([X, X]), np.concatenate([t, t]), weights=np.full(16, 0.5)
        )
        assert np.allclose(base.coefficients, doubled.coefficients, atol=1e-9)

    def test_matches_normal_equations_weighted_ridge(self):
        prng = Prng(4, 0)
        X = prng.normal(60).reshape(20, 3)
        t = prng.normal(20)
        w = prng.unit(20) + 0.1
        model = fit_linear(X, t, weights=w)
        want = normal_equations(X, t, w=w)
        assert np.allclose(model.coefficients, want[:3], atol=1e-8)
        assert abs(model.intercept - want[3]) < 1e-8

    def test_kkt_stationarity(self):
        prng = Prng(5, 0)
        X = prng.normal(50).reshape(10, 5)
        t = prng.normal(10)
        model = fit_linear(X, t, with_intercept=True)
        resid = t - model.predict(X)
        grad_coef = -2.0 * X.T @ resid
        grad_int = -2.0 * resid.sum()
        norm = np.linalg.norm(np.concatenate([grad_coef, [grad_int]]))
        assert norm <= 1e-8 * (1.0 + np.linalg.norm(t))

    def test_rank_deficiency_warns_and_solves_min_norm(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        t = np.array([2.0, 4.0, 6.0])
        with pytest.warns(RankDeficiencyWarning):
            model = fit_linear(X, t, with_intercept=False)
        assert np.allclose(model.predict(X), t, atol=1e-10)
        assert np.allclose(model.coefficients, [1.0, 1.0], atol=1e-10)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            fit_linear(np.eye(2), np.ones(3))
        with pytest.raises(InvalidInputError):
            fit_linear(np.eye(2), np.array([1.0, np.inf]))
        with pytest.raises(InvalidInputError):
            fit_linear(np.eye(2), np.ones(2), weights=np.zeros(2))
        with pytest.raises(InvalidInputError):
            fit_linear(np.eye(2), np.ones(2), weights=np.array([-1.0, 1.0]))


class TestRecoverPrimal:
    def test_identity_extremes(self):
        b = np.array([1.5, -2.0, 0.5])
        assert np.allclose(recover_primal(b, np.eye(3)), b, atol=1e-12)

    def test_consistent_system_recovers_truth(self):
        prng = Prng(6, 0)
        E = prng.normal(35).reshape(5, 7)
        a_true = prng.normal(7)
        b = E @ a_true
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)  # d=5 < m=7
            a = recover_primal(b, E)
        assert np.allclose(E @ a, b, atol=1e-8)

    def test_square_invertible_matches_inverse(self):
        prng = Prng(7, 0)
        E = prng.normal(16).reshape(4, 4) + 2.0 * np.eye(4)
        b = prng.normal(4)
        a = recover_primal(b, E)
        assert np.allclose(a, np.linalg.solve(E, b), atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        prng = Prng(8, 0)
        E = prng.normal(49).reshape(7, 7)
        b = prng.normal(7)
        a = recover_primal(b, E)
        want = np.linalg.solve(E.T @ E, E.T @ b)
        assert np.allclose(a, want, atol=1e-8)

    def test_underdetermined_warns(self):
        with pytest.warns(RankDeficiencyWarning):
            a = recover_primal(np.array([2.0]), np.array([[1.0, 1.0]]))
        # minimum-norm solution of a1 + a2 = 2
        assert np.allclose(a, [1.0, 1.0], atol=1e-10)


class TestLime:
    def test_recovers_exact_linear_function(self):
        pred = analytic("linear7")
        x0 = Prng(10, 0).normal(7)
        [model] = lime_explain(x0, pred, LimeConfig(), seed=5)
        want = np.array([10.0, -20.0, -2.0, 3.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(model.coefficients - want)) < 1e-6

    def test_collapsed_sampling_pins_intercept_at_fx0(self):
        pred = analytic("quad2")
        x0 = np.array([0.5, 0.25])
        cfg = LimeConfig(cov_diag=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            [model] = lime_explain(x0, pred, cfg, seed=3)
        assert abs(model.predict_one(x0) - pred.predict_one(x0)) < 1e-4

    def test_seeded_determinism(self):
        pred = analytic("ring")
        x0 = np.array([0.7, -0.7])
        [a] = lime_explain(x0, pred, LimeConfig(), seed=11)
        [b] = lime_explain(x0, pred, LimeConfig(), seed=11)
        assert a.coefficients.tolist() == b.coefficients.tolist()
        assert a.intercept == b.intercept
        [c] = lime_explain(x0, pred, LimeConfig(), seed=12)
        assert a.coefficients.tolist() != c.coefficients.tolist()

    def test_null_feature_coefficient_vanishes_in_large_samples(self):
        pred = analytic("linear7")
        x0 = np.zeros(7)
        cfg = LimeConfig(n_samples=10_000)
        [model] = lime_explain(x0, pred, cfg, seed=21)
        coefs = np.abs(model.coefficients)
        assert coefs[4:].max() <= 0.05 * coefs.max()

    def test_rows_equal_one_row_calls_on_their_streams(self):
        # row i draws on stream + i, and all rows share one predictor call
        pred = CountingPredictor(analytic("ring"))
        X0 = Prng(22, 0).uniform(10, -1.0, 1.0).reshape(5, 2)
        many = lime_explain(X0, pred, LimeConfig(), seed=4, stream=7)
        assert pred.calls == 1
        assert len(many) == 5
        for i, got in enumerate(many):
            [want] = lime_explain(X0[i], analytic("ring"), LimeConfig(), seed=4, stream=7 + i)
            assert got.coefficients.tobytes() == want.coefficients.tobytes(), f"row {i}"
            assert got.intercept == want.intercept, f"row {i}"

    def test_all_zero_weights_are_floored_with_a_warning(self, monkeypatch):
        # the weight draw is the n_samples-long normal draw; zero it for every row
        class ZeroWeights(Prng):
            def normal(self, n):
                return np.zeros(n) if n == 30 else super().normal(n)

        monkeypatch.setattr(surrogate, "Prng", ZeroWeights)
        pred = analytic("linear7")
        X0 = Prng(23, 0).normal(14).reshape(2, 7)
        with pytest.warns(DegenerateWeightWarning) as rec:
            models = lime_explain(X0, pred, LimeConfig(n_samples=30), seed=1)
        assert len(rec) == 2
        for model in models:
            assert np.max(np.abs(model.coefficients - [10, -20, -2, 3, 0, 0, 0])) < 1e-6

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            lime_explain(np.zeros(3), analytic("ring"), LimeConfig(n_samples=3), seed=0)
        with pytest.raises(InvalidInputError):
            LimeConfig(v=0.0).validate(2)
        with pytest.raises(InvalidInputError):
            LimeConfig(cov_diag=-1.0).validate(2)
