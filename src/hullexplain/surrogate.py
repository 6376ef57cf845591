"""Linear surrogate machinery: weighted least squares, primal coefficient
recovery, and the Gaussian-perturbation baseline explainer.

The dual explainer fits its no-intercept model in simplex coordinates
with fit_linear and then maps the coefficients back to feature space with
recover_primal; the baseline uses the same fitter with an intercept.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeightWarning,
    InvalidInputError,
    RankDeficiencyWarning,
)
from .geometry import as_points, as_vector
from .rng import Prng


@dataclass
class LinearModel:
    """g(x) = coefficients . x + intercept; intercept stays 0 for dual models."""

    coefficients: np.ndarray
    intercept: float = 0.0

    def predict(self, X) -> np.ndarray:
        arr = as_points(X, "X", dim=self.coefficients.shape[0])
        return arr @ self.coefficients + self.intercept

    def predict_one(self, x) -> float:
        return float(self.predict(np.asarray(x, dtype=np.float64)[None, :])[0])


def fit_linear(
    inputs,
    targets,
    weights=None,
    with_intercept: bool = True,
) -> LinearModel:
    """Solve min_a sum_i w_i (t_i - a.x_i - c)^2 by weighted least squares.

    Solved through an orthogonal factorization of the sqrt-weight-scaled
    design; a rank-deficient design is resolved in the minimum-norm sense
    and reported with a rank-deficiency warning.
    """
    X = as_points(inputs, "inputs")
    t = np.asarray(targets, dtype=np.float64)
    n, m = X.shape
    if t.shape != (n,):
        raise InvalidInputError("targets must be a vector matching the rows of inputs")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("targets contain non-finite values")

    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise InvalidInputError("weights must match the number of rows")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidInputError("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise InvalidInputError("weights must not be all zero")
        root = np.sqrt(w)
    else:
        root = None

    cols = m + 1 if with_intercept else m
    design = np.empty((n, cols))
    design[:, :m] = X
    if with_intercept:
        design[:, m] = 1.0
    rhs = t.copy()
    if root is not None:
        design = design * root[:, None]
        rhs = rhs * root

    # lstsq counts singular values above matrix_rank's default
    # threshold, eps * max(n, cols) * s_max
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < cols:
        warnings.warn(
            "rank-deficient design; coefficients are the minimum-norm solution",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    coef = sol[:m]
    intercept = float(sol[m]) if with_intercept else 0.0
    return LinearModel(coefficients=coef, intercept=intercept)


def recover_primal(b, extremes) -> np.ndarray:
    """Feature-space coefficients a with a . x*_i closest to b_i in least squares.

    `extremes` is the d x m matrix of extreme points. d < m means the
    system is underdetermined; the minimum-norm solution is returned with
    a rank-deficiency warning. There is no ridge term: minimum-norm least
    squares already covers rank deficiency, and any fixed positive ridge
    measurably biases the exact-recovery cases this feeds
    (1e-8 costs ~5e-6 per coefficient on unit-box neighborhoods).
    """
    E = as_points(extremes, "extremes")
    bv = as_vector(b, "b", dim=E.shape[0])
    d, m = E.shape
    if d < m:
        warnings.warn(
            f"only {d} extreme points for {m} features; "
            "primal coefficients are underdetermined",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return np.linalg.lstsq(E, bv, rcond=None)[0]


@dataclass
class LimeConfig:
    """Gaussian-perturbation baseline settings.

    v parameterizes the random per-sample weights: each sample's weight is
    |u| with u ~ N(0, v). Weighted least squares is invariant under a
    common rescaling of the weights, so v sets only the scale of the draw;
    it is kept as an explicit knob for interface fidelity with the
    baseline it reproduces.
    """

    n_samples: int = 30
    cov_diag: float | np.ndarray = 0.05  # per-feature sampling variance
    v: float = 0.01                      # variance of the random weight draw

    def variances(self, m: int) -> np.ndarray:
        var = np.asarray(self.cov_diag, dtype=np.float64)
        if var.ndim == 0:
            var = np.full(m, float(var))
        if var.shape != (m,) or np.any(var <= 0) or not np.all(np.isfinite(var)):
            raise InvalidInputError("cov_diag must be positive (scalar or length-m)")
        return var

    def validate(self, m: int):
        if self.n_samples < m + 1:
            raise InvalidInputError(
                f"n_samples = {self.n_samples} cannot identify {m} coefficients "
                "plus an intercept"
            )
        if not self.v > 0:
            raise InvalidInputError("weight parameter v must be positive")
        self.variances(m)


def lime_explain(X0, predictor, cfg: LimeConfig, seed: int, stream: int = 0) -> list[LinearModel]:
    """Local affine fit on Gaussian perturbations around each row x0 of X0.

    Perturbations are N(x0, diag(cov_diag)); each sample carries a random
    weight |u|, u ~ N(0, v), independent of its position. Position-based
    kernel weights would pin the fit to the black box's value at x0 and
    hide exactly the failure this baseline is meant to expose: perturbed
    samples landing outside the data domain drag the whole fit with them.
    Row i draws its noise and then its weights from Prng(seed, stream + i);
    the samples of all rows go to one predictor call, and then each row
    gets its own weighted fit. Weights that all collapse to zero are
    floored at 1e-300 with a warning so the fit stays defined.
    """
    centers = as_points(X0, "X0")
    m = centers.shape[1]
    cfg.validate(m)
    sd = np.sqrt(cfg.variances(m))
    draws = []
    for i, center in enumerate(centers):
        prng = Prng(seed, stream + i)
        noise = prng.normal(cfg.n_samples * m).reshape(cfg.n_samples, m)
        w = np.abs(np.sqrt(cfg.v) * prng.normal(cfg.n_samples))
        if not np.any(w > 0.0):
            warnings.warn(
                "all perturbation weights collapsed to zero; flooring at 1e-300",
                DegenerateWeightWarning,
                stacklevel=2,
            )
            w = np.maximum(w, 1e-300)
        draws.append((center + noise * sd, w / w.max()))
    z_rows = predictor.predict(np.vstack([samples for samples, _ in draws]))
    return [fit_linear(samples, z, weights=w, with_intercept=True)
            for (samples, w), z in zip(draws, z_rows.reshape(len(draws), cfg.n_samples))]
