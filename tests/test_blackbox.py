"""Black boxes: k-NN, bagged trees, analytic registry, external process."""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hullexplain import blackbox, geometry
from hullexplain.blackbox import (
    ANALYTIC_FUNCTIONS,
    Predictor,
    analytic,
    external_predictor,
    knn_fit,
    trees_fit,
)
from hullexplain.errors import ConfigError, InvalidInputError, PredictorIOError
from hullexplain.rng import Prng, derive_seed


class TestKnn:
    def test_k_one_returns_nearest_label(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = knn_fit(X, y, k=1)
        assert model.predict([[0.9]]).tolist() == [20.0]

    def test_unweighted_mean_of_neighbors(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([1.0, 3.0, 100.0])
        model = knn_fit(X, y, k=2)
        assert model.predict([[0.4]]).tolist() == [2.0]

    def test_distance_ties_prefer_lowest_index(self):
        # query equidistant from all four corners; k=2 must take indices 0 and 1
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([1.0, 3.0, 7.0, 9.0])
        model = knn_fit(X, y, k=2)
        assert model.predict([[0.0, 0.0]]).tolist() == [2.0]

    def test_batch_equals_single(self):
        prng = Prng(1, 0)
        X = prng.normal(60).reshape(20, 3)
        y = prng.normal(20)
        model = knn_fit(X, y, k=6)
        Q = prng.normal(15).reshape(5, 3)
        batch = model.predict(Q)
        singles = [model.predict_one(q) for q in Q]
        assert batch.tolist() == singles

    def test_batch_equals_single_on_a_lattice(self):
        # tenths-lattice features give many exact distance ties, which a
        # distance formula that rounds differently per batch would split
        X = np.floor(Prng(5, 0).unit(1800) * 4).reshape(600, 3) / 10
        y = Prng(6, 0).normal(600)
        model = knn_fit(X, y, k=10)
        Q = X[:200] + 0.05
        singles = np.array([model.predict_one(q) for q in Q])
        assert model.predict(Q).tobytes() == singles.tobytes()
        for q, got in zip(Q, singles):
            delta = X - q
            order = np.argsort(np.einsum("ij,ij->i", delta, delta), kind="stable")
            assert got == y[order[:10]].mean()

    def test_duplicate_rows_at_the_kth_place_take_the_lowest_indices(self):
        # five copies of one row, scattered through X, are the nearest rows of
        # every query, so k=2 must take the first two copies in every row
        prng = Prng(11, 0)
        X = 10 * prng.normal(603 * 4).reshape(603, 4)
        X[[3, 100, 257, 411, 601]] = 10 * prng.normal(4)
        model = knn_fit(X, np.arange(603.0), k=2)
        Q = X[3] + 0.001 * prng.normal(40 * 4).reshape(40, 4)
        assert model.predict(Q).tolist() == [(3 + 100) / 2] * 40

    def test_matches_brute_force_oracle(self):
        prng = Prng(2, 0)
        X = prng.uniform(40, -1, 1).reshape(20, 2)
        y = prng.normal(20)
        model = knn_fit(X, y, k=5)
        for q in prng.uniform(12, -1, 1).reshape(6, 2):
            d = np.linalg.norm(X - q, axis=1)
            want = y[np.argsort(d, kind="stable")[:5]].mean()
            assert abs(model.predict_one(q) - want) < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            knn_fit(np.eye(3), np.ones(2), k=1)
        with pytest.raises(InvalidInputError):
            knn_fit(np.eye(3), np.ones(3), k=4)
        with pytest.raises(InvalidInputError):
            knn_fit(np.eye(3), np.array([1.0, np.nan, 0.0]), k=1)


class TestBaggedTrees:
    def test_single_full_tree_interpolates_training_data(self):
        # grown to purity without bootstrap, the tree memorizes distinct rows
        prng = Prng(3, 0)
        X = prng.uniform(40, 0, 1).reshape(20, 2)
        y = prng.normal(20)
        model = trees_fit(X, y, n_trees=1, bootstrap=False)
        assert np.allclose(model.predict(X), y, atol=1e-12)

    def test_recovers_axis_aligned_step(self):
        X = np.linspace(0, 1, 50)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        model = trees_fit(X, y, n_trees=1, bootstrap=False)
        assert model.predict([[0.2], [0.8]]).tolist() == [0.0, 1.0]

    def test_seeded_ensemble_is_deterministic(self):
        prng = Prng(4, 0)
        X = prng.uniform(60, 0, 1).reshape(30, 2)
        y = prng.normal(30)
        a = trees_fit(X, y, n_trees=10, seed=5)
        b = trees_fit(X, y, n_trees=10, seed=5)
        Q = prng.uniform(10, 0, 1).reshape(5, 2)
        assert a.predict(Q).tolist() == b.predict(Q).tolist()
        c = trees_fit(X, y, n_trees=10, seed=6)
        assert a.predict(Q).tolist() != c.predict(Q).tolist()

    def test_ensemble_beats_constant_predictor(self):
        prng = Prng(5, 0)
        X = prng.uniform(400, -1, 1).reshape(200, 2)
        y = X[:, 0] ** 2 + X[:, 1]
        model = trees_fit(X, y, n_trees=30, seed=1)
        Q = prng.uniform(100, -0.9, 0.9).reshape(50, 2)
        truth = Q[:, 0] ** 2 + Q[:, 1]
        mse = np.mean((model.predict(Q) - truth) ** 2)
        assert mse < np.mean((truth - y.mean()) ** 2) * 0.2

    def test_batch_equals_single(self):
        prng = Prng(6, 0)
        X = prng.uniform(40, 0, 1).reshape(20, 2)
        y = prng.normal(20)
        model = trees_fit(X, y, n_trees=5, seed=2)
        Q = prng.uniform(8, 0, 1).reshape(4, 2)
        assert model.predict(Q).tolist() == [model.predict_one(q) for q in Q]

    def test_constant_target_gives_constant_tree(self):
        X = np.arange(10, dtype=float)[:, None]
        model = trees_fit(X, np.full(10, 3.25), n_trees=3, seed=0)
        assert model.predict([[100.0]]).tolist() == [3.25]


# ------------------------------------------------ reference forest (oracle)
# The node-by-node builder and the per-tree traversal the flat forest
# replaced, kept as the definition of the ensemble's predictions. The one
# addition, `reach`, records a training row of each node, so a query can
# be placed exactly on the node's threshold and still reach the node.

class _RefTree:
    def __init__(self):
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        self.reach = []

    def build(self, X, y, root_idx, min_split):
        stack = [(root_idx, -1, False)]
        while stack:
            idx, parent, is_left = stack.pop()
            node = len(self.feature)
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.value.append(float(y[idx].mean()))
            self.reach.append(int(idx[0]))
            if parent >= 0:
                if is_left:
                    self.left[parent] = node
                else:
                    self.right[parent] = node
            n = idx.size
            if n < min_split or np.all(y[idx] == y[idx][0]):
                continue
            best = None  # (sse, feature, threshold, order, pos)
            ysub = y[idx]
            for f in range(X.shape[1]):
                xv = X[idx, f]
                order = np.argsort(xv, kind="stable")
                xs = xv[order]
                ys = ysub[order]
                cut = np.nonzero(xs[1:] > xs[:-1])[0]
                if cut.size == 0:
                    continue
                csum = np.cumsum(ys)
                csq = np.cumsum(ys * ys)
                total, total_sq = csum[-1], csq[-1]
                nl = cut + 1.0
                nr = n - nl
                sl = csum[cut]
                sse = (csq[cut] - sl * sl / nl) + (total_sq - csq[cut] - (total - sl) ** 2 / nr)
                j = int(np.argmin(sse))
                if best is None or sse[j] < best[0] - 1e-12:
                    thr = 0.5 * (xs[cut[j]] + xs[cut[j] + 1])
                    best = (float(sse[j]), f, thr, order, int(cut[j]))
            if best is None:
                continue
            _, f, thr, order, pos = best
            self.feature[node] = f
            self.threshold[node] = thr
            stack.append((idx[order[pos + 1 :]], node, False))
            stack.append((idx[order[: pos + 1]], node, True))
        for name in ("feature", "left", "right"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        return self

    def predict(self, Q):
        node = np.zeros(Q.shape[0], dtype=np.int64)
        pending = self.feature[node] >= 0
        rows = np.arange(Q.shape[0])
        while pending.any():
            at = node[pending]
            f = self.feature[at]
            goes_left = Q[rows[pending], f] <= self.threshold[at]
            node[pending] = np.where(goes_left, self.left[at], self.right[at])
            pending = self.feature[node] >= 0
        return self.value[node]


def _reference_trees(X, y, n_trees, seed=0, bootstrap=True, min_samples_split=2):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        idx = Prng(derive_seed(seed, t), 0).below(n, n) if bootstrap else np.arange(n)
        trees.append(_RefTree().build(X, y, np.asarray(idx, dtype=np.int64), min_samples_split))
    return trees


def _reference_predict(trees, Q):
    acc = np.zeros(Q.shape[0])
    for tree in trees:
        acc += tree.predict(Q)
    return acc / len(trees)


def _golden_queries(X, trees, seed):
    """Training rows, jittered rows, rows exactly on split thresholds, far rows."""
    prng = Prng(seed, 1)
    n, m = X.shape
    jitter = X + 1e-3 * prng.normal(n * m).reshape(n, m)
    on_split = []
    for tree in trees:
        # a node's midpoint lies on its side of every ancestor's threshold
        for node in np.flatnonzero(tree.feature >= 0):
            row = X[tree.reach[node]].copy()
            row[tree.feature[node]] = tree.threshold[node]
            on_split.append(row)
    span = X.max(axis=0) - X.min(axis=0) + 1.0
    far = np.vstack([X.min(axis=0) - 1e3 * span, X.max(axis=0) + 1e3 * span,
                     np.where(np.arange(m) % 2 == 0, -1e6, 1e6)])
    return np.vstack([X, jitter, np.reshape(on_split, (-1, m)), far])


def _golden_datasets():
    p = Prng(11, 0)
    x4 = p.uniform(120, -1, 1).reshape(30, 4)
    y4 = np.sin(3 * x4[:, 0]) + x4[:, 1] * x4[:, 2] + 0.1 * p.normal(30)
    dup = np.repeat(p.uniform(20, 0, 1).reshape(10, 2), 3, axis=0)
    tied = np.column_stack([np.round(p.uniform(40, 0, 4)), np.round(p.uniform(40, 0, 2))])
    const_feature = np.column_stack([p.uniform(25, 0, 1), np.full(25, 0.5)])
    # leaves of 12 rows with no cut: their means are pairwise sums
    same_x = np.repeat(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), 12, axis=0)
    chain = np.linspace(0.0, 1.0, 60)[:, None]
    q = Prng(4, 0)
    mixed = np.column_stack([q.uniform(30, 0, 1), np.round(q.uniform(30, 0, 3))])
    return {
        "4d": (x4, y4),
        # cuts after the first and the fourth row tie exactly on SSE
        "tied-sse": (np.arange(5.0)[:, None], np.array([0.0, 1.0, 1.0, 1.0, 0.0])),
        # small targets next to 1e6 ones: prefix sums must restart per node
        "mixed-magnitude": (mixed, np.round(q.normal(30), 1) + np.where(mixed[:, 0] < 0.5, 1e6, 0.0)),
        "duplicate-rows": (dup, p.normal(30)),
        "tied-x": (tied, tied[:, 0] - 2 * tied[:, 1] + 0.25 * p.normal(40)),
        "constant-feature": (const_feature, p.normal(25)),
        "identical-x-different-y": (same_x, p.normal(36)),
        "deep-chain": (chain, 2.0 ** np.arange(60)),
    }


class TestFlatForestMatchesReference:
    """The level-wise forest predicts bit for bit what the node-by-node trees did."""

    @pytest.mark.parametrize("name", sorted(_golden_datasets()))
    @pytest.mark.parametrize("bootstrap,min_split", [(True, 2), (True, 5), (False, 2), (False, 5)])
    def test_bitwise_equal(self, name, bootstrap, min_split):
        X, y = _golden_datasets()[name]
        n_trees = 7 if bootstrap else 2
        ref = _reference_trees(X, y, n_trees, seed=3, bootstrap=bootstrap,
                               min_samples_split=min_split)
        Q = _golden_queries(X, ref, seed=len(name))
        model = trees_fit(X, y, n_trees=n_trees, seed=3, bootstrap=bootstrap,
                          min_samples_split=min_split)
        assert model.predict(Q).tobytes() == _reference_predict(ref, Q).tobytes()

    def test_bitwise_equal_on_ring_ensemble(self):
        prng = Prng(12, 0)
        X = prng.uniform(400, -1, 1).reshape(200, 2)
        y = X[:, 0] ** 2 + X[:, 1] ** 2
        ref = _reference_trees(X, y, 40, seed=9)
        Q = _golden_queries(X, ref[:3], seed=12)
        model = trees_fit(X, y, n_trees=40, seed=9)
        assert model.predict(Q).tobytes() == _reference_predict(ref, Q).tobytes()

    @pytest.mark.parametrize("group_rows", [1, 64, 10**6])
    def test_tree_groups_do_not_change_predictions(self, monkeypatch, group_rows):
        # trees grow in groups of about _GROUP_ROWS rows; from one tree per
        # group to all trees in one, the forest must predict the same. At
        # seed 1 the last two trees are shallower than the first four.
        X, y = _golden_datasets()["4d"]
        ref = _reference_trees(X, y, 6, seed=1)
        Q = _golden_queries(X, ref, seed=8)
        monkeypatch.setattr(blackbox, "_GROUP_ROWS", group_rows)
        model = trees_fit(X, y, n_trees=6, seed=1)
        assert model.predict(Q).tobytes() == _reference_predict(ref, Q).tobytes()

    def test_threshold_rows_go_left(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5.0, 6.0, 7.0, 8.0])
        model = trees_fit(X, y, n_trees=1, bootstrap=False)
        assert model.predict([[0.5], [1.5], [2.5]]).tolist() == [5.0, 6.0, 7.0]

    @pytest.mark.parametrize("name", ["tied-x", "duplicate-rows", "4d"])
    def test_batch_equals_single_rows_on_thresholds(self, name):
        X, y = _golden_datasets()[name]
        model = trees_fit(X, y, n_trees=9, seed=4)
        Q = _golden_queries(X, _reference_trees(X, y, 9, seed=4), seed=5)
        batch = model.predict(Q)
        singles = np.array([model.predict_one(q) for q in Q])
        assert batch.tobytes() == singles.tobytes()

    def test_large_batch_spans_chunks(self):
        prng = Prng(13, 0)
        X = prng.uniform(120, 0, 1).reshape(60, 2)
        y = prng.normal(60)
        model = trees_fit(X, y, n_trees=50, seed=1)
        Q = prng.uniform(6000, -0.1, 1.1).reshape(3000, 2)
        want = _reference_predict(_reference_trees(X, y, 50, seed=1), Q)
        assert model.predict(Q).tobytes() == want.tobytes()


class TestHugeTargets:
    def test_trees_grow_on_targets_scaled_by_a_power_of_two(self):
        # squaring 1e200-scale targets would overflow: the trees are the ones
        # grown on y * 2**-k, with the leaf values scaled back by 2**k
        prng = Prng(14, 0)
        X = prng.uniform(120, 0.0, 1.0).reshape(60, 2)
        y = 1e200 * (X[:, 0] + X[:, 1] ** 2 - 0.5)
        k = int(np.frexp(np.abs(y).max())[1]) - geometry._SQUARE_EXP
        assert k > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = trees_fit(X, y, n_trees=5, seed=2)
        small = trees_fit(X, np.ldexp(y, -k), n_trees=5, seed=2)
        for name in ("feature", "threshold", "left", "roots"):
            assert getattr(big, name).tobytes() == getattr(small, name).tobytes(), name
        assert big.depth == small.depth
        assert big.value.tobytes() == np.ldexp(small.value, k).tobytes()
        Q = _golden_queries(X, [], seed=14)
        assert big.predict(Q).tobytes() == np.ldexp(small.predict(Q), k).tobytes()


class TestAnalytic:
    def test_linear7(self):
        x = np.zeros((1, 7))
        x[0, :4] = [1.0, 1.0, 1.0, 1.0]
        assert analytic("linear7").predict(x).tolist() == [10 - 20 - 2 + 3]

    def test_quad2(self):
        assert analytic("quad2").predict([[2.0, 3.0]]).tolist() == [-4.0 + 6.0]

    def test_ring(self):
        assert analytic("ring").predict([[3.0, 4.0]]).tolist() == [25.0]

    def test_sign2(self):
        p = analytic("sign2")
        assert p.predict([[0.5, -2.0]]).tolist() == [0.7 - 1.0]
        assert p.predict([[0.0, 0.0]]).tolist() == [0.0]

    def test_lambda_sine6_at_vertex(self):
        lam = np.zeros((1, 6))
        lam[0, 3] = 1.0
        got = analytic("lambda-sine6").predict(lam)[0]
        assert abs(got - 0.0) < 1e-12  # (1 - 1) * sin(3.14) = 0

    def test_lambda_poly4(self):
        got = analytic("lambda-poly4").predict([[0.25, 0.25, 0.25, 0.25]])[0]
        assert abs(got - (0.0625 + 0.0625 - 0.0625 + 0.25)) < 1e-12

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            analytic("nope")

    def test_registry_dimensions(self):
        for name, (_, dim) in ANALYTIC_FUNCTIONS.items():
            p = analytic(name)
            assert p.input_dim == dim
            assert p.predict(np.zeros((2, dim))).shape == (2,)


class TestPredictorContract:
    def test_non_finite_output_rejected(self):
        class NanPredictor(Predictor):
            input_dim = 2

            def _predict_batch(self, X):
                out = X.sum(axis=1)
                out[-1] = np.nan
                return out

        with pytest.raises(PredictorIOError, match="non-finite"):
            NanPredictor().predict(np.ones((3, 2)))

    def test_base_predictor_is_a_context_manager(self):
        with analytic("ring") as p:
            assert p.predict_one([3.0, 4.0]) == 25.0


SQUARE_CHILD = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    parts = line.split()\n"
    "    if parts[0] == 'QUIT':\n"
    "        break\n"
    "    rows, cols = int(parts[1]), int(parts[2])\n"
    "    for _ in range(rows):\n"
    "        vals = [float(v) for v in sys.stdin.readline().split()]\n"
    "        print('%.15g' % sum(v * v for v in vals))\n"
    "    sys.stdout.flush()\n"
)


class TestExternal:
    def test_round_trip(self):
        with external_predictor(
            f'{sys.executable} -c "{SQUARE_CHILD}"', input_dim=3
        ) as p:
            got = p.predict([[1.0, 2.0, 2.0], [0.0, 0.0, 3.0]])
            assert np.allclose(got, [9.0, 9.0])

    def test_batch_equals_single(self):
        with external_predictor(
            f'{sys.executable} -c "{SQUARE_CHILD}"', input_dim=2
        ) as p:
            Q = np.array([[1.5, -2.0], [0.25, 8.0]])
            assert p.predict(Q).tolist() == [p.predict_one(q) for q in Q]

    def test_timeout(self):
        child = "import time,sys\nsys.stdin.readline()\ntime.sleep(60)\n"
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=1, timeout=0.3
        ) as p:
            with pytest.raises(PredictorIOError, match="timed out"):
                p.predict([[1.0]])

    def test_timeout_stops_the_child(self):
        # the stalled child still holds the first request; a second call
        # must fail instead of reading the first call's late reply
        child = "import time,sys\nsys.stdin.readline()\ntime.sleep(60)\n"
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=1, timeout=0.3
        ) as p:
            with pytest.raises(PredictorIOError, match="timed out"):
                p.predict([[1.0]])
            with pytest.raises(PredictorIOError, match="not running"):
                p.predict([[2.0]])

    def test_reply_before_the_whole_request_stops_the_child(self):
        # answers from the header alone, leaving the request rows unread
        child = (
            "import sys\n"
            "rows = int(sys.stdin.readline().split()[1])\n"
            "print('\\n'.join(['1.0'] * rows)); sys.stdout.flush()\n"
            "import time; time.sleep(60)\n"
        )
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=2
        ) as p:
            with pytest.raises(PredictorIOError, match="before it read the whole request"):
                p.predict(np.zeros((100000, 2)))
            with pytest.raises(PredictorIOError, match="not running"):
                p.predict([[0.0, 0.0]])

    def test_timeout_bounds_a_stall_not_the_batch(self):
        # each reply comes 0.2 s after the last, so the batch takes longer
        # than the timeout while nothing ever stalls for that long
        child = (
            "import sys, time\n"
            "rows = int(sys.stdin.readline().split()[1])\n"
            "for _ in range(rows):\n"
            "    sys.stdin.readline(); time.sleep(0.2); print(1.0); sys.stdout.flush()\n"
            "sys.stdin.read()\n"
        )
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=1, timeout=0.5
        ) as p:
            assert p.predict(np.zeros((4, 1))).tolist() == [1.0] * 4

    def test_malformed_reply(self):
        child = (
            "import sys\n"
            "sys.stdin.readline(); sys.stdin.readline()\n"
            "print('banana'); sys.stdout.flush()\n"
            "sys.stdin.read()\n"
        )
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=1
        ) as p:
            with pytest.raises(PredictorIOError, match="not a number"):
                p.predict([[1.0]])
            with pytest.raises(PredictorIOError, match="not running"):
                p.predict([[1.0]])

    def test_child_death(self):
        child = "import sys\nsys.stdin.readline()\nsys.exit(3)\n"
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=1
        ) as p:
            with pytest.raises(PredictorIOError, match="exited"):
                p.predict([[1.0]])

    def test_full_precision_sent(self):
        child = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.startswith('QUIT'): break\n"
            "    rows = int(line.split()[1])\n"
            "    for _ in range(rows):\n"
            "        print(sys.stdin.readline().split()[0])\n"
            "    sys.stdout.flush()\n"
        )
        with external_predictor(
            f'{sys.executable} -c "{child}"', input_dim=1
        ) as p:
            x = 0.1234567890123456789
            assert p.predict_one([x]) == x  # echo survives the round trip bit-exactly

    def test_large_batch_streams_through_a_row_by_row_child(self):
        # the child answers each row as it reads it, so its replies fill the
        # reply pipe long before the request is fully written; the request
        # must be written and the replies read as the pipes allow. Run in a
        # child of its own so a deadlock fails here instead of hanging
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from hullexplain.blackbox import external_predictor\n"
            f"child = {SQUARE_CHILD!r}\n"
            "X = np.arange(18000.0).reshape(6000, 3) / 6000\n"
            "with external_predictor(f'{sys.executable} -c \"{child}\"', input_dim=3) as p:\n"
            "    got = p.predict(X)\n"
            "assert np.allclose(got, (X * X).sum(axis=1))\n"
            "print(got.size)\n"
        )
        src = str(Path(blackbox.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "6000"
