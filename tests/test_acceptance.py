"""Full-pipeline acceptance gate.

Each test is one shipped guarantee, checked end to end at its stated
tolerance: reference importance tables, surrogate fidelity comparisons,
and the core mathematical properties. Reference rows and their frozen
run seeds live next to the assertions.
"""
import time

import numpy as np

from hullexplain import example_based, nam
from hullexplain.blackbox import analytic, knn_fit, trees_fit
from hullexplain.cli import main
from hullexplain.datasets import (
    SyntheticSpec,
    gen_edge_testset,
    gen_lambda_experiment,
    gen_ring,
    generate,
    lambda_function,
    load_csv,
)
from hullexplain.explainer import DualConfig, explain_local, explain_many, feature_importance
from hullexplain.geometry import hull_tol, project_points_onto_hull
from hullexplain.rng import Prng
from hullexplain.sampling import SimplexSampler
from hullexplain.surrogate import LimeConfig, lime_explain

FIXTURE = "tests/data/ccpp_fixture.csv"


def median_mse_pair(train_x, tests, bb, dual_cfg, lime_cfg, seed):
    duals = explain_many(tests, train_x, bb, DualConfig(**dual_cfg, seed=seed))
    limes = lime_explain(tests, bb, lime_cfg, seed=seed)
    f_x0 = np.array([d.f_x0 for d in duals])
    e_d = f_x0 - [d.model.predict_one(x0) for d, x0 in zip(duals, tests)]
    e_l = f_x0 - [g.predict_one(x0) for g, x0 in zip(limes, tests)]
    return float(np.median(e_d * e_d)), float(np.median(e_l * e_l))


def test_1_linear7_mean_coefficients_within_half():
    t0 = time.monotonic()
    ds = generate(SyntheticSpec("feat-ex1", seed=1))
    results = explain_many(ds.x, ds.x, analytic("linear7"),
                           DualConfig(K=10, n_lambda=30, seed=1))
    mean_a = np.array([e.a for e in results]).mean(axis=0)
    truth = np.array([10.0, -20.0, -2.0, 3.0, 0.0, 0.0, 0.0])
    assert len(results) == 1000
    assert np.abs(mean_a - truth).max() < 0.5
    assert time.monotonic() - t0 < 120.0


def test_2_quadratic_importance_orderings():
    pred = analytic("quad2")

    ds = generate(SyntheticSpec("feat-ex2a", seed=1))
    results = explain_many(ds.x, ds.x, pred, DualConfig(K=6, n_lambda=30, seed=1))
    mean_imp = np.array([feature_importance(e, "normalized")
                         for e in results]).mean(axis=0)
    assert mean_imp[1] > mean_imp[0]

    ds = generate(SyntheticSpec("feat-ex2b", seed=1))
    results = explain_many(ds.x, ds.x, pred, DualConfig(K=6, n_lambda=30, seed=1))
    mean_imp = np.array([feature_importance(e, "normalized")
                         for e in results]).mean(axis=0)
    assert mean_imp[0] >= 0.9


def test_3_ring_dual_beats_lime_both_blackboxes():
    t0 = time.monotonic()
    train = gen_ring(400, seed=1)
    tests = gen_ring(100, rho_sq_range=(3.61, 4.0), seed=101).x
    lime_cfg = LimeConfig(n_samples=30, cov_diag=0.05, v=0.01)
    dual_cfg = dict(K=6, n_lambda=30)
    for bb in (knn_fit(train.x, train.y, k=6),
               trees_fit(train.x, train.y, n_trees=100, seed=1)):
        dual_med, lime_med = median_mse_pair(train.x, tests, bb,
                                             dual_cfg, lime_cfg, seed=1)
        assert dual_med < lime_med
    assert time.monotonic() - t0 < 120.0


def test_4_ccpp_fixture_dual_beats_lime_both_blackboxes():
    ds = load_csv(FIXTURE, target_column="PE", zscore=True)
    tests = gen_edge_testset(ds.x, 50, seed=2)
    # perturbation variance scaled to the 500-row fixture's data density so
    # the sampling cloud stands in the same proportion to the K=10 hull as
    # on the full 9568-row dataset (0.05 * (9568/500)^(2/3))
    lime_cfg = LimeConfig(n_samples=30, cov_diag=np.full(4, 0.36), v=0.5)
    dual_cfg = dict(K=10, n_lambda=30)
    for bb in (knn_fit(ds.x, ds.y, k=10),
               trees_fit(ds.x, ds.y, n_trees=100, seed=2)):
        dual_med, lime_med = median_mse_pair(ds.x, tests, bb,
                                             dual_cfg, lime_cfg, seed=2)
        assert dual_med < lime_med


def test_5_sine_mixture_importance_table():
    t0 = time.monotonic()
    ds = gen_lambda_experiment("ex-based-1", seed=0)
    fn = lambda_function("ex-based-1")
    assert ds.n == 2000

    ale = example_based.importances(ds.x, ds.y, "ale", fn=fn).normalized
    np.testing.assert_allclose(
        ale, [0.172, 0.259, 0.000, 0.569, 0.000, 0.000], atol=0.05)

    lr = example_based.importances(ds.x, ds.y, "lr").normalized
    np.testing.assert_allclose(
        lr, [0.182, 0.245, 0.054, 0.405, 0.062, 0.052], atol=0.05)

    net = nam.AdditiveNet(6, seed=8)
    cfg = nam.TrainConfig(lr=5e-4, alpha=1e-4, epochs=300, batch=128, seed=0)
    net, history = nam.train(net, ds.x, ds.y, cfg)
    assert history[-1] <= 0.1 * history[0]
    nn = example_based.importances(ds.x, ds.y, "nam", nam_model=net).normalized
    assert nn[3] > nn[1] > nn[0] > max(nn[2], nn[4], nn[5])
    assert abs(nn[3] - 0.569) < 0.1
    assert time.monotonic() - t0 < 600.0


def test_6_polynomial_and_sign_importance_tables():
    ds = gen_lambda_experiment("ex-based-2", seed=13)
    fn = lambda_function("ex-based-2")
    ale = example_based.importances(ds.x, ds.y, "ale", fn=fn).normalized
    np.testing.assert_allclose(ale, [0.392, 0.087, 0.089, 0.432], atol=0.06)
    lr = example_based.importances(ds.x, ds.y, "lr").normalized
    np.testing.assert_allclose(lr, [0.357, 0.081, 0.112, 0.450], atol=0.06)
    net, _ = nam.train(nam.AdditiveNet(4, seed=9), ds.x, ds.y,
                       nam.TrainConfig(alpha=1e-6, seed=0))
    nn = example_based.importances(ds.x, ds.y, "nam", nam_model=net).normalized
    assert nn[3] > nn[0] > nn[2] > nn[1]

    ds = gen_lambda_experiment("ex-based-3", seed=3)
    fn = lambda_function("ex-based-3")
    ale = example_based.importances(ds.x, ds.y, "ale", fn=fn).normalized
    np.testing.assert_allclose(ale, [0.411, 0.395, 0.194], atol=0.06)
    lr = example_based.importances(ds.x, ds.y, "lr").normalized
    np.testing.assert_allclose(lr, [0.430, 0.310, 0.260], atol=0.06)
    net, _ = nam.train(nam.AdditiveNet(3, seed=11), ds.x, ds.y,
                       nam.TrainConfig(alpha=0.0, seed=0))
    nn = example_based.importances(ds.x, ds.y, "nam", nam_model=net).normalized
    assert nn[0] > nn[1] > nn[2]


def test_7a_exact_recovery_on_linear_blackbox():
    ds = generate(SyntheticSpec("feat-ex1", seed=3))
    truth = np.array([10.0, -20.0, -2.0, 3.0, 0.0, 0.0, 0.0])
    for i in (0, 17, 123):
        expl = explain_local(ds.x[i], ds.x, analytic("linear7"),
                             DualConfig(K=10, n_lambda=30, seed=3, stream=i))
        assert np.abs(expl.a - truth).max() < 1e-6


def test_7b_all_surrogate_queries_stay_in_hull():
    train = gen_ring(300, seed=4)
    bb = knn_fit(train.x, train.y, k=6)
    for i in range(5):
        expl = explain_local(train.x[i], train.x, bb,
                             DualConfig(K=10, n_lambda=30, seed=4, stream=i))
        refs = expl.poly.extremes
        _, dist = project_points_onto_hull(expl.lambdas @ refs, refs)
        assert dist.max() <= hull_tol(refs)


def test_7c_extreme_points_match_2d_oracle():
    from hullexplain.geometry import find_extreme_points

    def hull_vertices(pts):
        pts_sorted = sorted(map(tuple, pts))

        def cross(o, a, b):
            return ((a[0] - o[0]) * (b[1] - o[1])
                    - (a[1] - o[1]) * (b[0] - o[0]))

        def half(seq):
            out = []
            for p in seq:
                while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                    out.pop()
                out.append(p)
            return out

        lower = half(pts_sorted)
        upper = half(reversed(pts_sorted))
        return set(lower[:-1] + upper[:-1])

    for seed in range(100):
        n = 3 + (seed * 7) % 38
        pts = Prng(seed, 0).unit(2 * n).reshape(n, 2)
        poly = find_extreme_points(pts)
        got = set(map(tuple, poly.extremes))
        assert got == hull_vertices(pts), f"seed {seed}"


def test_7d_nam_gradient_matches_finite_differences():
    lam = SimplexSampler(2, 77).draw(16)
    z = 3.0 * lam[:, 0] - lam[:, 1]
    net = nam.AdditiveNet(2, seed=0)
    # move pre-activations off the rectifier kinks so central differences
    # see a smooth function
    net.params[:] += Prng(300, 0).normal(net.params.size, 0.0, 0.05)
    grad = nam.gradient(net, lam, z, alpha=1e-4)
    step = 1e-5
    scale = max(1.0, float(np.abs(grad).max()))
    idx = list(range(0, net.params.size, 131)) + [net.params.size - 1]
    for j in idx:
        saved = net.params[j]
        net.params[j] = saved + step
        up = nam.loss(net, lam, z, alpha=1e-4)
        net.params[j] = saved - step
        down = nam.loss(net, lam, z, alpha=1e-4)
        net.params[j] = saved
        fd = (up - down) / (2 * step)
        assert abs(fd - grad[j]) <= 1e-4 * scale, f"param {j}"


def test_7e_simplex_sampler_moments_and_marginal_cdf():
    d, n = 4, 20000
    lam = SimplexSampler(d, 123).draw(n)
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-12)
    assert np.abs(lam.mean(axis=0) - 1.0 / d).max() < 0.005
    var_truth = (d - 1.0) / (d * d * (d + 1.0))
    assert np.abs(lam.var(axis=0) - var_truth).max() < 0.002
    # marginal CDF of one coordinate: F(t) = 1 - (1-t)^(d-1)
    col = np.sort(lam[:, 0])
    empirical = np.arange(1, n + 1) / n
    theoretical = 1.0 - (1.0 - col) ** (d - 1)
    assert np.abs(empirical - theoretical).max() < 0.02


def test_7f_deviation_importance_invariances():
    values = Prng(9, 0).normal(200, 1.5, 2.0)
    base = example_based.deviation_importance(values)
    shifted = example_based.deviation_importance(values + 17.25)
    assert abs(shifted - base) < 1e-9 * max(1.0, base)
    for s in (2.0, -3.5, 0.25):
        scaled = example_based.deviation_importance(s * values)
        assert abs(scaled - abs(s) * base) < 1e-9 * max(1.0, abs(s) * base)


def test_7g_seeded_runs_are_byte_identical(tmp_path):
    args = ["explain", "--synthetic", "feat-ex3", "--blackbox", "knn",
            "--bb-k", "6", "--K", "8", "--n-lambda", "20", "--points", "6",
            "--seed", "11", "--no-timestamp"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a), "--jobs", "1"]) == 0
    assert main(args + ["--out-dir", str(b), "--jobs", "4"]) == 0
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()
