"""End-to-end command-line behavior: files, determinism, exit codes."""
import csv
import sys
import warnings
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from hullexplain import cli
from hullexplain.cli import _drain_warnings, main
from hullexplain.datasets import EXPERIMENT_IDS, SyntheticSpec, generate
from hullexplain.errors import RankDeficiencyWarning
from hullexplain.report import read_report
from hullexplain.rng import Prng


def run(*args):
    return main(list(args))


def small_explain(out_dir, jobs="2", seed="5"):
    return run("explain", "--synthetic", "feat-ex3", "--blackbox", "knn",
               "--bb-k", "6", "--K", "8", "--n-lambda", "20",
               "--points", "10", "--seed", seed, "--jobs", jobs,
               "--out-dir", str(out_dir), "--no-timestamp")


def huge_target_csv(tmp_path):
    """60 rows whose 1e200-scale targets overflow when squared."""
    data = tmp_path / "huge.csv"
    x = Prng(70, 0).uniform(120, 0.0, 1.0).reshape(60, 2)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        for a, b in x:
            writer.writerow([repr(float(a)), repr(float(b)), repr(float(1e200 * (a + b)))])
    return data


@pytest.fixture
def predict_calls(monkeypatch):
    """The row count of every predict call on the black box the CLI builds."""
    calls = []
    build = cli._build_predictor

    def counted(args, ds):
        pred = build(args, ds)
        predict = pred.predict

        def counting_predict(X):
            calls.append(len(X))
            return predict(X)

        pred.predict = counting_predict
        return pred

    monkeypatch.setattr(cli, "_build_predictor", counted)
    return calls


class TestOneBlackBoxCallPerExplainer:
    def test_explain(self, tmp_path, predict_calls):
        # 10 rows of 20 simplex queries, then the 10 explained rows
        assert small_explain(tmp_path) == 0
        assert predict_calls == [10 * 20 + 10]

    def test_explain_makes_one_call_per_block(self, tmp_path, predict_calls, monkeypatch):
        monkeypatch.setattr(cli, "EXPLAIN_BLOCK", 3)
        assert small_explain(tmp_path) == 0
        assert predict_calls == [3 * 21, 3 * 21, 3 * 21, 21]

    def test_explain_global(self, tmp_path, predict_calls):
        assert run("explain", "--synthetic", "feat-ex3", "--blackbox", "knn", "--global",
                   "--n-lambda", "600", "--out-dir", str(tmp_path), "--no-timestamp") == 0
        assert predict_calls == [600]

    def test_compare(self, tmp_path, predict_calls):
        # the dual call carries the 25 explained rows; the baseline makes the other
        assert TestCompare().run_compare(tmp_path) == 0
        assert predict_calls == [25 * 30 + 25, 25 * 30]


class TestExplain:
    def test_outputs(self, tmp_path):
        assert small_explain(tmp_path) == 0
        rep = read_report(tmp_path / "report.txt")
        assert rep.command == "explain"
        assert rep.seed == 5
        assert len(rep.points) == 10
        assert rep.points[0].values["a"].shape == (2,)
        assert "mean-a" in rep.aggregates
        assert "median-mse" in rep.aggregates
        with open(tmp_path / "points.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "a_x1", "a_x2"]
        assert len(rows) == 11

    @pytest.mark.parametrize("eid", EXPERIMENT_IDS)
    def test_analytic_black_box_of_every_experiment(self, tmp_path, eid):
        assert run("explain", "--synthetic", eid, "--blackbox", "analytic", "--K", "6",
                   "--points", "3", "--out-dir", str(tmp_path), "--no-timestamp") == 0
        if eid in cli.LAMBDA_EXPERIMENTS:
            # the black box is the function that made the dataset's targets
            ds = generate(SyntheticSpec(eid))
            pred = cli._build_predictor(SimpleNamespace(blackbox="analytic", synthetic=eid), ds)
            assert pred.predict(ds.x).tobytes() == ds.y.tobytes()

    def test_rows_explained_in_blocks_match_one_block(self, tmp_path, monkeypatch):
        # 10 points in blocks of 3: each row keeps its stream, so the
        # outputs equal a single explain_many call over all rows
        a, b = tmp_path / "a", tmp_path / "b"
        assert small_explain(a) == 0
        monkeypatch.setattr(cli, "EXPLAIN_BLOCK", 3)
        assert small_explain(b) == 0
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()

    def test_points_csv_matches_report(self, tmp_path):
        small_explain(tmp_path)
        rep = read_report(tmp_path / "report.txt")
        with open(tmp_path / "points.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for point, row in zip(rep.points, rows):
            np.testing.assert_array_equal(point.values["a"],
                                          [float(v) for v in row[1:]])

    def test_seeded_byte_identity_across_jobs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert small_explain(a, jobs="1") == 0
        assert small_explain(b, jobs="4") == 0
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        small_explain(a, seed="5")
        small_explain(b, seed="6")
        assert (a / "report.txt").read_bytes() != (b / "report.txt").read_bytes()

    def test_huge_targets_fit_trees_without_overflow(self, tmp_path):
        # the tree fit no longer squares raw 1e200-scale targets, so it raises
        # no overflow or invalid-value warning of its own
        rc = run("explain", "--data", str(huge_target_csv(tmp_path)), "--blackbox", "trees",
                 "--bb-trees", "5", "--K", "6", "--points", "3",
                 "--out-dir", str(tmp_path / "out"), "--no-timestamp")
        assert rc == 0
        warned = read_report(tmp_path / "out" / "report.txt").warnings
        assert not [w for w in warned if "invalid value" in w or "in multiply" in w]

    def test_huge_targets_give_finite_spreads_and_residuals(self, tmp_path):
        # std-a and fit-residual-rms square 1e199-scale values; scaled by a
        # power of two first, they stay finite and nothing overflows
        data = str(huge_target_csv(tmp_path))
        rc = run("explain", "--data", data, "--blackbox", "trees", "--bb-trees", "5", "--K", "6",
                 "--points", "3", "--out-dir", str(tmp_path / "local"), "--no-timestamp")
        assert rc == 0
        rep = read_report(tmp_path / "local" / "report.txt")
        assert rep.warnings == []
        a = np.array([p.values["a"] for p in rep.points])
        want = 1e199 * (a / 1e199).std(axis=0, ddof=1)
        assert np.allclose(rep.aggregates["std-a"], want, rtol=1e-12, atol=0.0)
        rc = run("explain", "--data", data, "--blackbox", "trees", "--bb-trees", "5", "--K", "6",
                 "--global", "--n-lambda", "60", "--out-dir", str(tmp_path / "global"),
                 "--no-timestamp")
        assert rc == 0
        rep = read_report(tmp_path / "global" / "report.txt")
        assert rep.warnings == []
        assert 1e190 < rep.aggregates["fit-residual-rms"] < 1e210

    def test_points_clipped_to_dataset(self, tmp_path):
        rc = run("explain", "--synthetic", "feat-ex3", "--blackbox", "knn",
                 "--K", "8", "--n-lambda", "20", "--points", "100000",
                 "--seed", "0", "--out-dir", str(tmp_path), "--no-timestamp")
        assert rc == 0
        assert len(read_report(tmp_path / "report.txt").points) == 400

    def test_global_recovers_linear_truth(self, tmp_path):
        # a linear black box over the full dataset hull is recovered exactly
        rc = run("explain", "--synthetic", "feat-ex1", "--blackbox", "analytic",
                 "--global", "--n-lambda", "700", "--seed", "0",
                 "--out-dir", str(tmp_path), "--no-timestamp")
        assert rc == 0
        rep = read_report(tmp_path / "report.txt")
        truth = np.array([10.0, -20.0, -2.0, 3.0, 0.0, 0.0, 0.0])
        assert np.abs(rep.aggregates["a"] - truth).max() < 1e-6
        assert "importance-normalized" in rep.aggregates

    def test_warnings_reach_report(self, tmp_path):
        # a neighborhood of duplicated rows leaves the primal system underdetermined
        data = tmp_path / "dupes.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "y"])
            for _ in range(12):
                writer.writerow(["1.0", "2.0", "5.0"])
            for i in range(8):
                writer.writerow([repr(10.0 + i), repr(20.0 + i), repr(50.0 + i)])
        out = tmp_path / "out"
        rc = run("explain", "--data", str(data), "--blackbox", "knn",
                 "--bb-k", "3", "--K", "5", "--n-lambda", "12",
                 "--points", "1", "--seed", "1",
                 "--out-dir", str(out), "--no-timestamp")
        assert rc == 0
        rep = read_report(out / "report.txt")
        assert any("RankDeficiencyWarning" in w for w in rep.warnings)

    @pytest.mark.parametrize("jobs, points", [("1", "40"), ("4", "200")])
    def test_repeated_warning_written_once_with_count(self, tmp_path, jobs, points):
        # with 4 neighbours in 7-D every local recovery is underdetermined;
        # the count must not depend on --jobs
        rc = run("explain", "--synthetic", "feat-ex1", "--blackbox", "analytic",
                 "--K", "4", "--points", points, "--seed", "1", "--jobs", jobs,
                 "--out-dir", str(tmp_path), "--no-timestamp")
        assert rc == 0
        assert read_report(tmp_path / "report.txt").warnings == [
            "RankDeficiencyWarning: only 4 extreme points for 7 features; "
            f"primal coefficients are underdetermined ({points} times)"
        ]

    def test_warning_lines_sorted_and_single_ones_unchanged(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            warnings.warn("b twice", RankDeficiencyWarning)
            warnings.warn("c once", RankDeficiencyWarning)
            warnings.warn("a once", UserWarning)
            warnings.warn("b twice", RankDeficiencyWarning)
        rep = SimpleNamespace(warnings=[])
        _drain_warnings(rec, rep)
        assert rep.warnings == [
            "RankDeficiencyWarning: b twice (2 times)",
            "RankDeficiencyWarning: c once",
            "UserWarning: a once",
        ]

    def test_csv_dataset_round(self, tmp_path):
        assert run("gen-data", "--id", "feat-ex3", "--seed", "2",
                   "--out-dir", str(tmp_path)) == 0
        out = tmp_path / "out"
        rc = run("explain", "--data", str(tmp_path / "feat-ex3-seed2.csv"),
                 "--blackbox", "trees", "--bb-trees", "20", "--K", "8",
                 "--n-lambda", "20", "--points", "5", "--seed", "2",
                 "--out-dir", str(out), "--no-timestamp")
        assert rc == 0
        assert len(read_report(out / "report.txt").points) == 5


class TestCompare:
    def run_compare(self, out_dir, jobs="2"):
        return run("compare", "--synthetic", "feat-ex3", "--blackbox", "knn",
                   "--bb-k", "6", "--K", "10", "--n-lambda", "30",
                   "--points", "25", "--lime-cov", "0.05", "--lime-v", "0.01",
                   "--lime-n", "30", "--seed", "4", "--jobs", jobs,
                   "--out-dir", str(out_dir), "--no-timestamp")

    def test_outputs(self, tmp_path):
        assert self.run_compare(tmp_path) == 0
        rep = read_report(tmp_path / "report.txt")
        assert rep.command == "compare"
        assert len(rep.points) == 25
        for key in ("mean-mse-dual", "mean-mse-lime",
                    "median-mse-dual", "median-mse-lime"):
            assert key in rep.aggregates
        with open(tmp_path / "mse.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "mse_dual", "mse_lime"]
        assert len(rows) == 26
        svg = (tmp_path / "mse-scatter.svg").read_text()
        root = ET.fromstring(svg)
        circles = list(root.iter("{http://www.w3.org/2000/svg}circle"))
        assert len(circles) == 25

    def test_seeded_byte_identity_across_jobs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_compare(a, jobs="1") == 0
        assert self.run_compare(b, jobs="3") == 0
        for name in ("report.txt", "mse.csv", "mse-scatter.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_vector_lime_cov(self, tmp_path):
        rc = run("compare", "--synthetic", "feat-ex3", "--blackbox", "knn",
                 "--K", "8", "--n-lambda", "20", "--points", "5",
                 "--lime-cov", "0.05,0.1", "--seed", "0",
                 "--out-dir", str(tmp_path), "--no-timestamp")
        assert rc == 0


class TestExamples:
    def run_examples(self, out_dir):
        return run("examples", "--synthetic", "ex-based-3", "--seed", "3",
                   "--out-dir", str(out_dir), "--no-timestamp")

    def test_outputs(self, tmp_path):
        assert self.run_examples(tmp_path) == 0
        rep = read_report(tmp_path / "report.txt")
        assert rep.command == "examples"
        for method in ("ale", "lr", "nam"):
            assert rep.aggregates[f"{method}-normalized"].shape == (3,)
            total = rep.aggregates[f"{method}-normalized"].sum()
            assert abs(total - 1.0) < 1e-9
        assert rep.aggregates["nam-final-loss"] < rep.aggregates["nam-initial-loss"]
        with open(tmp_path / "importance-table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "lambda_1", "lambda_2", "lambda_3"]
        assert [r[0] for r in rows[1:]] == ["ale", "lr", "nam"]
        for k in (1, 2, 3):
            assert (tmp_path / f"shape-coord{k}.csv").exists()
            ET.parse(tmp_path / f"shape-coord{k}.svg")

    def test_shape_csv_grid(self, tmp_path):
        self.run_examples(tmp_path)
        with open(tmp_path / "shape-coord1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "effects", "linear", "net"]
        assert len(rows) == 102
        grid = [float(r[0]) for r in rows[1:]]
        assert grid[0] == 0.0 and grid[-1] == 1.0


class TestGenData:
    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--id", "feat-ex3", "--seed", "7",
                   "--out-dir", str(a)) == 0
        assert run("gen-data", "--id", "feat-ex3", "--seed", "7",
                   "--out-dir", str(b)) == 0
        fa, fb = a / "feat-ex3-seed7.csv", b / "feat-ex3-seed7.csv"
        assert fa.read_bytes() == fb.read_bytes()
        with open(fa, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "y"]
        assert len(rows) == 401

    def test_lambda_experiment_shape(self, tmp_path):
        assert run("gen-data", "--id", "ex-based-1", "--seed", "0",
                   "--out-dir", str(tmp_path)) == 0
        with open(tmp_path / "ex-based-1-seed0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2001
        assert rows[0][-1] == "z"
        lam = np.array([[float(v) for v in r[:-1]] for r in rows[1:]])
        assert lam.shape == (2000, 6)
        np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-9)


class TestExternalPredictor:
    @pytest.mark.parametrize("command", ["explain", "compare"])
    def test_child_is_told_to_quit(self, tmp_path, command):
        marker = tmp_path / "quit-seen"
        child = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    parts = line.split()\n"
            "    if parts[0] == 'QUIT':\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        break\n"
            "    for _ in range(int(parts[1])):\n"
            "        vals = [float(v) for v in sys.stdin.readline().split()]\n"
            "        print(repr(sum(v * v for v in vals)))\n"
            "    sys.stdout.flush()\n"
        )
        script = tmp_path / "child.py"
        script.write_text(child)
        rc = run(command, "--synthetic", "feat-ex3", "--blackbox", "external",
                 "--external-cmd", f"{sys.executable} {script}", "--K", "6",
                 "--points", "3", "--seed", "1", "--out-dir", str(tmp_path / "out"))
        assert rc == 0
        assert marker.exists()


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = run("explain", "--data", str(tmp_path / "absent.csv"),
                 "--blackbox", "knn", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_synthetic_and_data_conflict(self, tmp_path):
        rc = run("explain", "--synthetic", "feat-ex3", "--data", "x.csv",
                 "--out-dir", str(tmp_path))
        assert rc == 2

    def test_neither_source(self, tmp_path):
        assert run("explain", "--out-dir", str(tmp_path)) == 2

    def test_explain_needs_a_point(self, tmp_path, capsys):
        rc = run("explain", "--synthetic", "feat-ex3", "--blackbox", "analytic",
                 "--points", "0", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "--points" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_analytic_needs_synthetic(self, tmp_path):
        data = tmp_path / "d.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "y"])
            for i in range(20):
                writer.writerow([repr(0.1 * i), repr(0.2 * i), repr(0.3 * i)])
        rc = run("explain", "--data", str(data), "--blackbox", "analytic",
                 "--out-dir", str(tmp_path))
        assert rc == 2

    def test_external_needs_command(self, tmp_path):
        rc = run("explain", "--synthetic", "feat-ex3", "--blackbox", "external",
                 "--out-dir", str(tmp_path))
        assert rc == 2

    def test_bad_lime_cov(self, tmp_path):
        rc = run("compare", "--synthetic", "feat-ex3", "--blackbox", "knn",
                 "--points", "2", "--lime-cov", "fast",
                 "--out-dir", str(tmp_path))
        assert rc == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("explain", "--no-such-flag")
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("transmogrify")
        assert err.value.code == 2

    def test_compare_with_overflowing_errors_writes_nothing(self, tmp_path, capsys):
        # squared errors of a 1e200-scale target overflow to inf: the command
        # must fail before it writes any file, not halfway through its outputs
        out = tmp_path / "out"
        rc = run("compare", "--data", str(huge_target_csv(tmp_path)), "--blackbox", "trees",
                 "--bb-trees", "5", "--K", "6", "--points", "3", "--out-dir", str(out))
        assert rc == 2
        assert "compare point 0: squared error is not finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []
