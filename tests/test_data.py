"""Dataset generators, CSV ingestion, and the hull-edge test set.

Ring oracle: the squared norm of each noiseless point equals the drawn
squared radius by construction, and the squared radii are uniform on the
requested interval. Z-score oracle: hand arithmetic on a 3-row column.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from hullexplain.blackbox import ANALYTIC_FUNCTIONS
from hullexplain.datasets import (
    Dataset,
    SyntheticSpec,
    TRIANGLE_VERTICES,
    gen_edge_testset,
    gen_lambda_experiment,
    gen_linear7,
    gen_quad2,
    gen_ring,
    generate,
    lambda_function,
    load_csv,
    save_csv,
)
from hullexplain.errors import (
    DataFormatError,
    DegenerateHullError,
    InvalidInputError,
)
from hullexplain.geometry import (
    default_projection_tol,
    find_extreme_points,
    project_onto_hull,
)
from hullexplain.rng import Prng

FIXTURES = Path(__file__).parent / "data"


class TestRing:
    def test_squared_norm_equals_drawn_radius(self):
        ds = gen_ring(300, (0.0, 4.0), seed=5)
        drawn = Prng(5, 0).uniform(300, 0.0, 4.0)
        assert np.max(np.abs((ds.x**2).sum(axis=1) - drawn)) < 1e-12

    def test_radius_uniform_decile_check(self):
        ds = gen_ring(10_000, (0.0, 4.0), seed=1)
        rho_sq = (ds.x**2).sum(axis=1)
        # empirical CDF at the deciles of U[0, 4]
        for q in np.arange(0.1, 1.0, 0.1):
            assert abs(np.mean(rho_sq <= 4.0 * q) - q) <= 0.03

    def test_annulus_range(self):
        ds = gen_ring(500, (3.61, 4.0), seed=2)
        rho_sq = (ds.x**2).sum(axis=1)
        assert rho_sq.min() >= 3.61 - 1e-12
        assert rho_sq.max() <= 4.0 + 1e-12

    def test_noise_is_small_and_centered(self):
        ds = gen_ring(5000, (0.0, 4.0), seed=3)
        noise = ds.y - (ds.x**2).sum(axis=1)
        assert abs(noise.mean()) < 0.01
        assert abs(noise.std() - 0.05) < 0.01

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_ring(10, (4.0, 4.0), seed=0)
        with pytest.raises(InvalidInputError):
            gen_ring(10, (-1.0, 4.0), seed=0)


class TestFeatureExperiments:
    def test_linear7_formula_at_ones(self):
        fn, dim = ANALYTIC_FUNCTIONS["linear7"]
        assert dim == 7
        assert fn(np.ones((1, 7)))[0] == pytest.approx(-9.0)

    def test_linear7_noise_and_box(self):
        ds = gen_linear7(4000, seed=9)
        assert ds.x.shape == (4000, 7)
        assert ds.x.min() >= 0.0 and ds.x.max() < 1.0
        fn, _ = ANALYTIC_FUNCTIONS["linear7"]
        noise = ds.y - fn(ds.x)
        assert abs(noise.mean()) < 0.01
        assert abs(noise.std() - 0.1) < 0.01

    def test_quad2_boxes(self):
        near = gen_quad2(200, (0.0, 1.0), seed=4)
        far = gen_quad2(200, (15.0, 16.0), seed=4)
        assert near.x.min() >= 0.0 and near.x.max() < 1.0
        assert far.x.min() >= 15.0 and far.x.max() < 16.0
        fn, _ = ANALYTIC_FUNCTIONS["quad2"]
        assert np.max(np.abs(far.y - fn(far.x))) < 0.3  # 0.05-sigma noise


class TestLambdaExperiments:
    def test_shapes_and_targets(self):
        for eid, n, d in [("ex-based-1", 2000, 6), ("ex-based-2", 1000, 4),
                          ("ex-based-3", 1000, 3)]:
            ds = gen_lambda_experiment(eid, seed=0)
            assert ds.x.shape == (n, d)
            assert np.max(np.abs(ds.x.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(ds.x >= 0.0)
            assert np.array_equal(ds.y, lambda_function(eid)(ds.x))

    def test_sign_experiment_maps_into_triangle(self):
        ds = gen_lambda_experiment("ex-based-3", n=200, seed=1)
        mapped = ds.x @ TRIANGLE_VERTICES
        for p in mapped[:50]:
            proj = project_onto_hull(p, TRIANGLE_VERTICES)
            assert np.linalg.norm(proj.image - p) <= 1e-9

    def test_unknown_id_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_lambda_experiment("ex-based-9", seed=0)
        with pytest.raises(InvalidInputError):
            lambda_function("feat-ex1")


class TestDispatcher:
    def test_published_sizes(self):
        sizes = {"feat-ex1": (1000, 7), "feat-ex2a": (400, 2),
                 "feat-ex2b": (400, 2), "feat-ex3": (400, 2),
                 "ex-based-1": (2000, 6), "ex-based-2": (1000, 4),
                 "ex-based-3": (1000, 3)}
        for eid, shape in sizes.items():
            ds = generate(SyntheticSpec(eid, seed=0))
            assert ds.x.shape == shape, eid

    def test_seeded_determinism(self):
        a = generate(SyntheticSpec("feat-ex1", seed=11))
        b = generate(SyntheticSpec("feat-ex1", seed=11))
        c = generate(SyntheticSpec("feat-ex1", seed=12))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_unknown_id(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec("nope", seed=0)

    def test_override_n(self):
        ds = generate(SyntheticSpec("feat-ex2b", n=50, seed=0))
        assert ds.n == 50


class TestLoadCsv:
    def write(self, tmp_path, text, name="t.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_hand_checked_zscore(self, tmp_path):
        p = self.write(tmp_path, "a,b,t\n1,5,0\n2,5.5,1\n3,6,2\n")
        ds = load_csv(p, target_column="t", zscore=True)
        # column a: mean 2, population std sqrt(2/3)
        s = math.sqrt(2.0 / 3.0)
        want = np.array([-1.0, 0.0, 1.0]) / s
        assert np.allclose(ds.x[:, 0], want, atol=1e-12)
        assert ds.normalization[0] == pytest.approx((2.0, s))
        assert np.array_equal(ds.y, [0.0, 1.0, 2.0])
        assert ds.feature_names == ["a", "b"]
        assert ds.target_name == "t"

    def test_zscore_idempotent_on_standardized(self, tmp_path):
        s = math.sqrt(2.0 / 3.0)
        col = np.array([-1.0, 0.0, 1.0]) / s
        rows = "\n".join(repr(float(v)) for v in col)
        p = self.write(tmp_path, "a\n" + rows + "\n")
        ds = load_csv(p, zscore=True)
        assert np.max(np.abs(ds.x[:, 0] - col)) < 1e-9

    def test_target_by_index(self, tmp_path):
        p = self.write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        ds = load_csv(p, target_column=1)
        assert ds.feature_names == ["a", "c"]
        assert np.array_equal(ds.y, [2.0, 5.0])
        neg = load_csv(p, target_column=-1)
        assert neg.target_name == "c"

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
        ds = load_csv(p)
        assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DataFormatError, match="no_such"):
            load_csv(tmp_path / "no_such.csv")

    def test_ragged_row_diagnostic(self, tmp_path):
        p = self.write(tmp_path, "a,b,c\n1,2,3\n1,2\n")
        with pytest.raises(DataFormatError, match="row 2 has 2 cells, expected 3"):
            load_csv(p)

    def test_bad_cell_diagnostic(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataFormatError, match="row 2, column 'b'"):
            load_csv(p)

    def test_constant_column_zscore_rejected(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,7\n2,7\n")
        with pytest.raises(DataFormatError, match="'b' is constant"):
            load_csv(p, zscore=True)

    def test_unknown_target_rejected(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="'t' not in header"):
            load_csv(p, target_column="t")
        with pytest.raises(DataFormatError, match="out of range"):
            load_csv(p, target_column=5)


class TestSaveCsv:
    def test_roundtrip_exact(self, tmp_path):
        ds = gen_quad2(25, (0.0, 1.0), seed=3)
        out = tmp_path / "dump.csv"
        save_csv(ds, out)
        back = load_csv(out, target_column="y")
        # repr floats parse back to the identical doubles
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert back.feature_names == ds.feature_names

    def test_features_only(self, tmp_path):
        ds = Dataset(x=np.array([[1.0, 2.0]]), y=None, feature_names=["p", "q"])
        out = tmp_path / "xonly.csv"
        save_csv(ds, out)
        assert load_csv(out).feature_names == ["p", "q"]


class TestCcppFixture:
    def test_shape_and_schema(self):
        ds = load_csv(FIXTURES / "ccpp_fixture.csv", target_column="PE")
        assert ds.x.shape == (500, 4)
        assert ds.feature_names == ["AT", "V", "AP", "RH"]

    def test_zscore_moments(self):
        ds = load_csv(FIXTURES / "ccpp_fixture.csv", target_column="PE", zscore=True)
        assert np.max(np.abs(ds.x.mean(axis=0))) < 1e-9
        assert np.max(np.abs(ds.x.std(axis=0) - 1.0)) < 1e-9


class TestEdgeTestset:
    def test_points_inside_training_hull(self):
        train = gen_ring(200, (0.0, 4.0), seed=6)
        pts = gen_edge_testset(train, 40, seed=1)
        assert pts.shape == (40, 2)
        poly = find_extreme_points(train.x, 1e-8)
        tol = default_projection_tol(poly.extremes)
        for p in pts:
            proj = project_onto_hull(p, poly.extremes)
            assert proj.distance <= tol

    def test_deterministic(self):
        train = gen_ring(100, (0.0, 4.0), seed=6)
        a = gen_edge_testset(train, 10, seed=3)
        b = gen_edge_testset(train, 10, seed=3)
        assert np.array_equal(a, b)

    def test_degenerate_hull_rejected(self):
        flat = Dataset(x=np.tile([[1.0, 2.0]], (10, 1)), y=None,
                       feature_names=["a", "b"])
        with pytest.raises(DegenerateHullError):
            gen_edge_testset(flat, 5, seed=0)

    def test_l_validation(self):
        train = gen_ring(50, (0.0, 4.0), seed=0)
        with pytest.raises(InvalidInputError):
            gen_edge_testset(train, 0, seed=0)
