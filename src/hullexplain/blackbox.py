"""Black-box regressors to be explained.

Everything here satisfies one contract: predict() maps an (n, m) array to
an (n,) array of floats, deterministically, and predicting a batch equals
predicting each row alone. The explainers only ever see this interface.
"""
from __future__ import annotations

import itertools
import os
import selectors
import shlex
import subprocess
import threading
import time

import numpy as np

from .errors import ConfigError, InvalidInputError, PredictorIOError
from .geometry import as_points, nearest, square_scale
from .rng import Prng, derive_seed


class Predictor:
    """Base class: subclasses implement _predict_batch on validated input.

    predict checks every reply for shape and finiteness. A predictor is a
    context manager; close() releases what it holds and is a no-op here.
    """

    input_dim: int

    def predict(self, X) -> np.ndarray:
        arr = as_points(X, "X", dim=self.input_dim)
        out = np.asarray(self._predict_batch(arr), dtype=np.float64)
        if out.shape != (arr.shape[0],):
            raise PredictorIOError(
                f"predictor returned shape {out.shape}, expected ({arr.shape[0]},)"
            )
        if not np.all(np.isfinite(out)):
            raise PredictorIOError("predictor returned non-finite values")
        return out

    def predict_one(self, x) -> float:
        return float(self.predict(np.asarray(x, dtype=np.float64)[None, :])[0])

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ----------------------------------------------------------------- k-NN

class KnnRegressor(Predictor):
    """Unweighted k-nearest-neighbor mean.

    Neighbors come from geometry.nearest, the search the dual explainer
    uses: squared distances from exact differences, ties to the lowest
    training index, so a batch predicts each row as it would alone.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, k: int):
        self._X = X
        self._y = y
        self.k = k
        self.input_dim = X.shape[1]

    def _predict_batch(self, Q: np.ndarray) -> np.ndarray:
        return self._y[nearest(self._X, Q, self.k)].mean(axis=1)


def knn_fit(X, y, k: int) -> KnnRegressor:
    Xa = as_points(X, "X")
    ya = np.asarray(y, dtype=np.float64)
    if ya.ndim != 1 or ya.shape[0] != Xa.shape[0]:
        raise InvalidInputError("y must be a vector matching the rows of X")
    if not np.all(np.isfinite(ya)):
        raise InvalidInputError("y contains non-finite values")
    if not 1 <= k <= Xa.shape[0]:
        raise InvalidInputError(f"k must be in [1, {Xa.shape[0]}]")
    return KnnRegressor(Xa.copy(), ya.copy(), int(k))


# ---------------------------------------------------------- bagged trees

# training rows per group of trees grown together: bounds the temporaries
# of one level while keeping the number of passes small
_GROUP_ROWS = 4096


class BaggedTrees(Predictor):
    """Bootstrap ensemble of variance-reduction regression trees, mean-aggregated.

    All trees live in one flat forest. Tree t starts at node roots[t]; node
    i sends a row with x[feature[i]] <= threshold[i] to left[i] and any
    other row to left[i] + 1. A leaf has threshold +inf and left[i] == i,
    so it keeps every row, and predicts value[i]. No root is more than
    `depth` splits above a leaf.
    """

    def __init__(self, feature, threshold, left, value, roots, depth: int, input_dim: int):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.value = value
        self.roots = roots
        self.depth = depth
        self.input_dim = input_dim

    @property
    def n_trees(self) -> int:
        return self.roots.size

    def _predict_batch(self, Q: np.ndarray) -> np.ndarray:
        t = self.n_trees
        out = np.empty(Q.shape[0])
        chunk = max(1, 2**14 // t)
        for lo in range(0, Q.shape[0], chunk):
            q = Q[lo : lo + chunk]
            c, m = q.shape
            # one entry per (tree, row) pair, all moving one level per pass
            node = np.repeat(self.roots, c)
            offset = np.tile(np.arange(0, c * m, m), t)
            flat = q.ravel()
            for _ in range(self.depth):
                x = flat[offset + self.feature[node]]
                node = self.left[node] + (x > self.threshold[node])
            # a running sum over trees adds each tree's predictions in turn,
            # starting from zero, as a loop over the trees would
            acc = np.zeros((t + 1, c))
            acc[1:] = self.value[node].reshape(t, c)
            out[lo : lo + c] = np.cumsum(acc, axis=0)[-1] / t
        return out


def _padded_layout(lens: np.ndarray):
    """Place segments of the given lengths as rows of zero-padded blocks.

    One block holds the segments of one power-of-two length class, so a
    block is never more than twice the rows it holds. Returns the slot of
    each segment's first entry in the flat padded buffer, the buffer size,
    and each block's (offset, segments, width).
    """
    first = np.empty(lens.size, dtype=np.int64)
    blocks = []
    cells = 0
    length_class = np.frexp(lens)[1]
    for e in np.flatnonzero(np.bincount(length_class)):
        sel = np.flatnonzero(length_class == e)
        width = int(lens[sel].max())
        first[sel] = cells + width * np.arange(sel.size)
        blocks.append((cells, sel.size, width))
        cells += sel.size * width
    return first, cells, blocks


def _segment_cumsums(v: np.ndarray, slot: np.ndarray, cells: int, blocks) -> np.ndarray:
    """np.cumsum along axis 0 of each segment of v on its own, bit for bit.

    `slot` puts every entry of v in a zero-padded block row of its segment
    (see _padded_layout); the padding follows each segment, so it never
    enters a running sum of the segment's own entries.
    """
    buf = np.zeros((cells,) + v.shape[1:])
    buf[slot] = v
    for offset, count, width in blocks:
        part = buf[offset : offset + count * width].reshape((count, width) + v.shape[1:])
        part[...] = np.cumsum(part, axis=1)
    return buf[slot]


def _segment_means(v: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """v[start:start+len].mean() of each segment, bit for bit.

    Segments of one length form one matrix, whose row sums are the
    pairwise sums np.mean takes of each segment alone.
    """
    out = np.empty(lens.size)
    starts = np.cumsum(lens) - lens
    for size in np.flatnonzero(np.bincount(lens)):
        sel = np.flatnonzero(lens == size)
        out[sel] = v[starts[sel, None] + np.arange(size)].sum(axis=1) / size
    return out


def _best_splits(X, ranks, y, rows, lens):
    """Best variance-reduction split of every segment of `rows`.

    Returns the feature (-1 where no feature has a cut), threshold and
    left size of each segment, and `rows` with each split segment reordered
    by its split feature. Per feature, a segment's rows are sorted stably,
    the first minimum of the SSE over its cuts wins, and a later feature
    replaces the best only if its SSE is lower by more than 1e-12.
    """
    k = lens.size
    starts = np.cumsum(lens) - lens
    seg = np.repeat(np.arange(k), lens)
    pos = np.arange(rows.size) - starts[seg]
    first_slot, cells, blocks = _padded_layout(lens)
    slot = first_slot[seg] + pos
    found = np.zeros(k, dtype=bool)
    best_sse = np.zeros(k)
    feature = np.full(k, -1)
    threshold = np.full(k, np.inf)
    n_left = np.zeros(k, dtype=np.int64)
    out = rows.copy()
    for f in range(X.shape[1]):
        r = ranks[f, rows]
        # equal values share a rank, so this is a stable sort by x within each segment
        order = np.argsort(seg * X.shape[0] + r, kind="stable")
        srows, sr = rows[order], r[order]
        cut = np.flatnonzero((sr[1:] > sr[:-1]) & (seg[1:] == seg[:-1]))
        if cut.size == 0:
            continue
        ys = y[srows]
        cs = _segment_cumsums(np.stack([ys, ys * ys], axis=1), slot, cells, blocks)
        cseg = seg[cut]
        last = starts[cseg] + lens[cseg] - 1
        total, total_sq = cs[last, 0], cs[last, 1]
        nl = pos[cut] + 1.0
        nr = lens[cseg] - nl
        sl = cs[cut, 0]
        csq = cs[cut, 1]
        # node SSE = left + right, each sum(y^2) - (sum y)^2 / count
        sse = (csq - sl * sl / nl) + (total_sq - csq - (total - sl) ** 2 / nr)
        # first minimum per segment, NaN counting as least as argmin does
        first = np.flatnonzero(np.r_[True, cseg[1:] != cseg[:-1]])
        low = np.repeat(np.minimum.reduceat(sse, first), np.diff(np.r_[first, cut.size]))
        hit = np.flatnonzero(np.where(np.isnan(low), np.isnan(sse), sse == low))
        j = hit[np.r_[True, cseg[hit[1:]] != cseg[hit[:-1]]]]
        s = cseg[j]
        better = ~found[s] | (sse[j] < best_sse[s] - 1e-12)
        s, j = s[better], j[better]
        found[s] = True
        best_sse[s] = sse[j]
        feature[s] = f
        threshold[s] = 0.5 * (X[srows[cut[j]], f] + X[srows[cut[j] + 1], f])
        n_left[s] = pos[cut[j]] + 1
        take = np.zeros(k, dtype=bool)
        take[s] = True
        take = np.repeat(take, lens)
        out[take] = srows[take]
    return feature, threshold, n_left, out


def _grow_trees(X, ranks, y, rows, n_trees: int, min_split: int, forest, base: int):
    """Grow a group of trees to purity together, one level per pass.

    `rows` holds the training rows of each tree in turn. The nodes are
    written into the (feature, threshold, left, value) arrays of `forest`
    in BaggedTrees' layout, numbered level by level from `base`, so the
    group's roots come first. Returns the next free node and the number of
    levels. Every open node is a segment of one row array, in the order its
    parent's split sorted it. A node is a leaf when it has fewer than
    `min_split` rows, a constant target or no cut; its value is the mean
    target of its rows in that order.
    """
    feature, threshold, left, value = forest
    lens = np.full(n_trees, rows.size // n_trees)
    leaf_ids, leaf_rows, leaf_lens = [], [], []
    levels = 0
    while lens.size:
        k = lens.size
        starts = np.cumsum(lens) - lens
        yr = y[rows]
        grow = (lens >= min_split) & (
            np.minimum.reduceat(yr, starts) < np.maximum.reduceat(yr, starts))
        f = np.full(k, -1)
        thr = np.full(k, np.inf)
        n_left = np.zeros(k, dtype=np.int64)
        grow_rows = np.repeat(grow, lens)
        if grow.any():
            f[grow], thr[grow], n_left[grow], rows[grow_rows] = _best_splits(
                X, ranks, y, rows[grow_rows], lens[grow])
        split = f >= 0
        leaf = ~split
        leaf_ids.append(base + np.flatnonzero(leaf))
        leaf_rows.append(rows[np.repeat(leaf, lens)])
        leaf_lens.append(lens[leaf])
        # a leaf points at itself; the children of the i-th split node are
        # nodes 2i and 2i+1 of the next level
        child = base + np.arange(k)
        child[split] = base + k + 2 * np.arange(np.count_nonzero(split))
        feature[base : base + k] = np.maximum(f, 0)
        threshold[base : base + k] = thr
        left[base : base + k] = child
        rows = rows[np.repeat(split, lens)]
        lens = np.stack([n_left[split], lens[split] - n_left[split]], axis=1).ravel()
        base += k
        levels += 1
    value[np.concatenate(leaf_ids)] = _segment_means(
        y[np.concatenate(leaf_rows)], np.concatenate(leaf_lens))
    return base, levels


def trees_fit(
    X,
    y,
    n_trees: int = 100,
    seed: int = 0,
    bootstrap: bool = True,
    min_samples_split: int = 2,
) -> BaggedTrees:
    """Fit a bagged ensemble; trees grow to purity by default.

    Tree t trains on n rows drawn with replacement by
    Prng(derive_seed(seed, t), 0). `bootstrap=False` trains every tree on
    the full sample (so a single tree becomes a deterministic function of
    the data, handy for tests). Trees grow in groups of about _GROUP_ROWS
    training rows, each group one level per pass over all its open nodes.
    Each node takes the split with the least summed squared error over all
    features and all cuts between distinct values, at the cut's midpoint.
    Targets of 2**480 or more in magnitude would overflow those sums, so
    the trees grow on y * 2**-k, with k from geometry.square_scale, and
    their leaf values are scaled back by 2**k.
    """
    Xa = as_points(X, "X")
    ya = np.asarray(y, dtype=np.float64)
    if ya.ndim != 1 or ya.shape[0] != Xa.shape[0]:
        raise InvalidInputError("y must be a vector matching the rows of X")
    if not np.all(np.isfinite(ya)):
        raise InvalidInputError("y contains non-finite values")
    if n_trees < 1:
        raise InvalidInputError("n_trees must be >= 1")
    n = Xa.shape[0]
    k = square_scale(ya)
    ys = np.ldexp(ya, -k)
    if bootstrap:
        draws = np.stack([Prng(derive_seed(seed, t), 0).below(n, n) for t in range(n_trees)])
    else:
        draws = np.tile(np.arange(n), (n_trees, 1))
    # copies of one row never split apart, so a tree has at most one leaf
    # per distinct row and at most 2 * distinct - 1 nodes
    size = sum(2 * np.count_nonzero(np.bincount(d)) - 1 for d in draws)
    forest = (np.zeros(size, dtype=np.int64), np.zeros(size),
              np.zeros(size, dtype=np.int64), np.zeros(size))
    ranks = np.stack([np.unique(Xa[:, f], return_inverse=True)[1].ravel()
                      for f in range(Xa.shape[1])])
    group = max(1, _GROUP_ROWS // n)
    roots = []
    base = depth = 0
    for t0 in range(0, n_trees, group):
        rows = draws[t0 : t0 + group]
        roots.append(base + np.arange(rows.shape[0]))
        base, levels = _grow_trees(Xa, ranks, ys, rows.flatten(), rows.shape[0],
                                   min_samples_split, forest, base)
        depth = max(depth, levels - 1)
    feature, threshold, left, value = (a[:base] for a in forest)
    return BaggedTrees(feature, threshold, left, np.ldexp(value, k), roots=np.concatenate(roots),
                       depth=depth, input_dim=Xa.shape[1])


# ------------------------------------------------------ analytic functions

def _linear7(X):
    return 10 * X[:, 0] - 20 * X[:, 1] - 2 * X[:, 2] + 3 * X[:, 3]


def _quad2(X):
    return -X[:, 0] ** 2 + 2 * X[:, 1]


def _ring(X):
    return X[:, 0] ** 2 + X[:, 1] ** 2


def _sign2(X):
    return 0.7 * np.sign(X[:, 0]) + np.sign(X[:, 1])


# Vertices of the triangle hosting the sign-function experiment.
TRIANGLE_VERTICES = np.array([[-1.0, -1.0], [0.0, 2.0], [1.0, 0.0]])


def _lambda_sign3(L):
    """The sign function at the point that weights L give the triangle."""
    return _sign2(L @ TRIANGLE_VERTICES)


def _lambda_sine6(L):
    return 15 * L[:, 0] + 22 * L[:, 1] + 40 * (1 - L[:, 3]) * np.sin(3.14 * L[:, 3])


def _lambda_poly4(L):
    return L[:, 0] ** 2 + L[:, 0] * L[:, 1] - L[:, 2] * L[:, 3] + L[:, 3]


ANALYTIC_FUNCTIONS = {
    "linear7": (_linear7, 7),
    "quad2": (_quad2, 2),
    "ring": (_ring, 2),
    "sign2": (_sign2, 2),
    "lambda-sign3": (_lambda_sign3, 3),
    "lambda-sine6": (_lambda_sine6, 6),
    "lambda-poly4": (_lambda_poly4, 4),
}


class AnalyticPredictor(Predictor):
    def __init__(self, fn_id: str):
        if fn_id not in ANALYTIC_FUNCTIONS:
            known = ", ".join(sorted(ANALYTIC_FUNCTIONS))
            raise ConfigError(f"unknown analytic function {fn_id!r}; known: {known}")
        self.fn_id = fn_id
        self._fn, self.input_dim = ANALYTIC_FUNCTIONS[fn_id]

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self._fn(X)


def analytic(fn_id: str) -> AnalyticPredictor:
    return AnalyticPredictor(fn_id)


# ------------------------------------------------------ external process

class ExternalPredictor(Predictor):
    """Adapter around a line-protocol child process.

    Request:  "PREDICT <rows> <cols>\\n" followed by <rows> lines of <cols>
    space-separated decimal floats. Response: <rows> lines, one float each.
    "QUIT\\n" asks the child to exit. The request is written and the reply
    read as the pipes allow, so a batch of any size streams through a child
    that answers row by row. A stall (no byte accepted or returned for
    `timeout` seconds), a dead child, or a malformed reply raises
    PredictorIOError and kills the child, so a later call fails rather
    than read stale replies. The package itself calls from one thread; a
    lock serializes calls so that a caller may share one predictor between
    its own threads.
    """

    def __init__(self, command: str, input_dim: int, timeout: float = 30.0):
        if input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        self.input_dim = int(input_dim)
        self.command = command
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=False,
                bufsize=0,
            )
        except OSError as e:
            raise PredictorIOError(f"could not start external predictor: {e}") from e
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)

    def _kill(self):
        """Stop a child whose pipes may hold part of a request or late replies."""
        self._proc.kill()
        self._proc.wait()

    def _exchange(self, request, rows: int) -> bytes:
        """Write the chunks of `request` and read until `rows` reply lines arrive."""
        pending = memoryview(next(request))
        reply = bytearray()
        lines = 0
        with selectors.DefaultSelector() as sel:
            sel.register(self._proc.stdin, selectors.EVENT_WRITE)
            sel.register(self._proc.stdout, selectors.EVENT_READ)
            deadline = time.monotonic() + self.timeout
            while lines < rows:
                moved = False
                for key, _ in sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    if key.fileobj is self._proc.stdin:
                        try:
                            sent = os.write(key.fd, pending[:65536])
                        except BlockingIOError:
                            continue
                        except OSError as e:
                            raise PredictorIOError(f"external predictor pipe closed: {e}") from e
                        pending = pending[sent:] or memoryview(next(request, b""))
                        if not pending:
                            sel.unregister(self._proc.stdin)
                    else:
                        chunk = os.read(key.fd, 65536)
                        if not chunk:
                            raise PredictorIOError(
                                f"external predictor exited after {lines}/{rows} reply lines"
                            )
                        reply += chunk
                        lines += chunk.count(b"\n")
                    moved = True
                if moved:
                    deadline = time.monotonic() + self.timeout
                elif time.monotonic() >= deadline:
                    raise PredictorIOError(
                        f"external predictor timed out: nothing moved for {self.timeout:g}s "
                        f"({lines}/{rows} lines received)"
                    )
        if pending:
            raise PredictorIOError("external predictor replied before it read the whole request")
        if lines != rows or not reply.endswith(b"\n"):
            raise PredictorIOError(f"external predictor sent more than {rows} reply lines")
        return bytes(reply)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        rows, cols = X.shape
        # encoded 1024 rows at a time, so a large batch never exists as text
        request = itertools.chain(
            [f"PREDICT {rows} {cols}\n".encode()],
            ("".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                     for row in X[lo : lo + 1024]).encode()
             for lo in range(0, rows, 1024)))
        with self._lock:
            if self._proc.poll() is not None:
                raise PredictorIOError(
                    f"external predictor is not running (exit code {self._proc.returncode})"
                )
            try:
                lines = self._exchange(request, rows).split(b"\n")
                out = np.empty(rows)
                for i, line in enumerate(lines[:rows]):
                    try:
                        out[i] = float(line.strip())
                    except ValueError:
                        raise PredictorIOError(
                            f"external predictor reply line {i + 1} is not a number: "
                            f"{line[:80]!r}"
                        ) from None
            except BaseException:
                # the pipes may hold part of this request or late replies,
                # which the next call would read as its own
                self._kill()
                raise
        return out

    def close(self):
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write(b"QUIT\n")
            except OSError:
                pass
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def external_predictor(command: str, input_dim: int, timeout: float = 30.0) -> ExternalPredictor:
    return ExternalPredictor(command, input_dim, timeout=timeout)
