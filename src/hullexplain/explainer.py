"""Feature-based dual explanation of a black-box regressor.

Local mode: take the K nearest training neighbors of the explained point,
append the point itself, reduce to the extreme points of that set, sample
combination weights uniformly on the simplex, query the black box at the
mapped points (all of which lie inside the neighbor hull, so no
out-of-domain queries ever happen), fit a no-intercept linear model in
simplex coordinates, and map its coefficients back to feature space.
Global mode runs the same pipeline over the whole dataset with no
explained point appended. explain_many explains many points, f(x0)
included, with one black-box call; explain_local is its one-row case.

The simplex-to-feature map back-solves b_i = g(x*_i) as an affine fit:
coefficients against the centered extreme points plus a compensating
intercept. Solving it without the intercept would fold the black box's
local constant level into the coefficients along the hull-center
direction (for a neighborhood centered at c the shift is roughly
f_const * c / ||c||^2), which swamps the gradient signal whenever the
data sits far from the origin. Centering removes that term exactly and
reproduces the coefficients of a linear black box bit-for-bit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError, UniformFallbackWarning
from .geometry import Polytope, as_points, as_vector, find_extreme_points, nearest, square_scale
from .sampling import SimplexSampler, map_to_primal
from .surrogate import LinearModel, fit_linear, recover_primal


@dataclass
class DualConfig:
    """K neighbours per local hull, n_lambda simplex samples per fit, and the
    seed and first stream of the simplex draws. The extreme-point tolerance
    is not a setting: each hull takes geometry.hull_tol of its own points."""

    K: int = 10
    n_lambda: int = 30
    seed: int = 0
    stream: int = 0

    def validate(self):
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.n_lambda < 2:
            raise ConfigError("n_lambda must be >= 2")


@dataclass
class DualExplanation:
    a: np.ndarray                 # feature-space coefficients (the explanation)
    b: np.ndarray                 # simplex-space coefficients, one per extreme
    intercept: float              # affine offset of the recovered surrogate
    poly: Polytope
    lambdas: np.ndarray           # (n_lambda, d) sampled weights
    z: np.ndarray                 # black-box values at the mapped points
    f_x0: float | None = None     # black-box value at x0; None from explain_global
    diagnostics: dict = field(default_factory=dict)

    @property
    def model(self) -> LinearModel:
        """The recovered feature-space surrogate g(x) = a . x + intercept."""
        return LinearModel(coefficients=self.a, intercept=self.intercept)


def _train_matrix(train) -> np.ndarray:
    x = getattr(train, "x", train)
    return as_points(x, "train")


def _affine_recovery(b, extremes):
    """Slope and intercept of the affine least-squares solve of g(x*_i) = b_i.

    Among all minimizers, the intercept is kept as small as possible: when
    the extremes span a hyperplane u . x = 1 exactly (one-hot vertices, a
    single repeated point), the constant is representable as a pure slope
    and gets folded back so the result matches the plain no-intercept
    solve. On a full-dimensional hull the minimizer is unique and the
    intercept simply carries the black box's local level.
    """
    center = extremes.mean(axis=0)
    b_bar = float(b.mean())
    a = recover_primal(b - b_bar, extremes - center)
    a0 = b_bar - float(a @ center)
    ones = np.ones(extremes.shape[0])
    u, *_ = np.linalg.lstsq(extremes, ones, rcond=None)
    if np.linalg.norm(extremes @ u - ones) <= 1e-8 * np.sqrt(extremes.shape[0]):
        a = a + a0 * u
        a0 = 0.0
    return a, a0


def _rms(r: np.ndarray) -> float:
    k = square_scale(r)
    return float(np.ldexp(np.sqrt(np.mean(np.ldexp(r, -k) ** 2)), k))


def _run_pipeline(point_sets, X0, predictor, cfg: DualConfig):
    """point_sets is an (S, n, m) stack; its extreme points are found in one
    call. Set i gets its own extreme points and a simplex draw on stream
    cfg.stream + i; the query blocks of all sets and then the explained rows
    X0 (None for a global fit, else row i is point cfg.K of set i) go to one
    predictor call, and then each set gets its own dual fit and recovery.
    """
    hulls = []
    for i, poly in enumerate(find_extreme_points(point_sets)):
        if cfg.n_lambda < poly.d:
            raise ConfigError(f"n_lambda = {cfg.n_lambda} is less than the {poly.d} extreme "
                              "points; the dual fit would be underdetermined")
        sampler = SimplexSampler(d=poly.d, seed=cfg.seed, stream_id=cfg.stream + i)
        hulls.append((poly, sampler.draw(cfg.n_lambda)))
    queries = [map_to_primal(lam, poly.extremes) for poly, lam in hulls]
    z_all = predictor.predict(np.vstack(queries if X0 is None else queries + [X0]))
    z_rows = z_all[: len(hulls) * cfg.n_lambda].reshape(len(hulls), cfg.n_lambda)
    f_x0 = [None] * len(hulls) if X0 is None else z_all[z_rows.size :].tolist()
    out = []
    for (poly, lam), z, fx in zip(hulls, z_rows, f_x0):
        b = fit_linear(lam, z, with_intercept=False).coefficients
        a, a0 = _affine_recovery(b, poly.extremes)
        diagnostics = {
            "d": poly.d,
            "contains_x0": None if X0 is None else cfg.K not in poly.extreme_indices,
            "fit_residual_rms": _rms(z - lam @ b),
        }
        out.append(DualExplanation(a=a, b=b, intercept=a0, poly=poly, lambdas=lam, z=z,
                                   f_x0=fx, diagnostics=diagnostics))
    return out


def explain_many(X0, train, predictor, cfg: DualConfig) -> list[DualExplanation]:
    """Explain each row of X0 from its K-neighbor hull, with one black-box call.

    Row i equals explain_local(X0[i], ...) on stream cfg.stream + i: the
    predictor contract (a batch equals its rows predicted alone) makes it so.
    The same call evaluates the rows of X0 themselves, into each f_x0.
    """
    cfg.validate()
    X = _train_matrix(train)
    Q = as_points(X0, "X0", dim=X.shape[1])
    if X.shape[0] < cfg.K:
        raise InvalidInputError(f"training set has {X.shape[0]} rows, fewer than K = {cfg.K}")
    return _run_pipeline(np.hstack([X[nearest(X, Q, cfg.K)], Q[:, None]]), Q, predictor, cfg)


def explain_local(x0, train, predictor, cfg: DualConfig) -> DualExplanation:
    """Explain the prediction at x0 from its K-neighbor hull."""
    cfg.validate()
    X = _train_matrix(train)
    return explain_many(as_vector(x0, "x0", dim=X.shape[1])[None, :], X, predictor, cfg)[0]


def explain_global(train, predictor, cfg: DualConfig) -> DualExplanation:
    """One explanation over the hull of the entire dataset."""
    cfg.validate()
    return _run_pipeline(_train_matrix(train)[None], None, predictor, cfg)[0]


def feature_importance(expl: DualExplanation, mode: str = "signed") -> np.ndarray:
    """signed: the raw coefficients; normalized: |a_i| / sum |a_j|."""
    if mode == "signed":
        return expl.a.copy()
    if mode != "normalized":
        raise InvalidInputError(f"unknown importance mode {mode!r}")
    mags = np.abs(expl.a)
    total = mags.sum()
    if total == 0.0:
        warnings.warn(
            "all coefficients are zero; reporting uniform importances",
            UniformFallbackWarning,
            stacklevel=2,
        )
        return np.full(mags.shape[0], 1.0 / mags.shape[0])
    return mags / total
