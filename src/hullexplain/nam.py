"""Additive network over simplex coordinates, trained from scratch.

One independent 1 -> 64 -> 64 -> 1 rectified-linear subnetwork per
coordinate, summed at the output, so the model is a sum of univariate
shape functions by construction. Parameters live in one flat vector
(subnet views alias it), which keeps the optimizer and the serializer
trivial. Training is plain mini-batch adaptive-moment descent with an
analytic gradient; no autodiff framework involved. Each step runs one
forward pass, whose activations give both the batch loss and the gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, InvalidInputError, TrainingError
from .rng import Prng

HIDDEN = 64
# per-subnet parameter count: W1, b1, W2, b2, W3, b3
SUBNET_PARAMS = HIDDEN + HIDDEN + HIDDEN * HIDDEN + HIDDEN + HIDDEN + 1


@dataclass
class TrainConfig:
    lr: float = 5e-4
    alpha: float = 1e-4
    epochs: int = 300
    batch: int = 128
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def validate(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.alpha < 0:
            raise ConfigError("alpha must be nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("moment decays must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        return self


class _SubnetView:
    """Slices of the flat parameter vector for one subnetwork."""

    __slots__ = ("W1", "b1", "W2", "b2", "W3", "b3")

    def __init__(self, flat: np.ndarray, offset: int):
        H = HIDDEN
        o = offset
        self.W1 = flat[o:o + H]
        self.b1 = flat[o + H:o + 2 * H]
        self.W2 = flat[o + 2 * H:o + 2 * H + H * H].reshape(H, H)
        self.b2 = flat[o + 2 * H + H * H:o + 3 * H + H * H]
        self.W3 = flat[o + 3 * H + H * H:o + 4 * H + H * H]
        self.b3 = flat[o + 4 * H + H * H:o + 4 * H + H * H + 1]


class AdditiveNet:
    """d summed univariate subnetworks over a flat parameter vector."""

    def __init__(self, d: int, seed: int = 0):
        if d < 1:
            raise InvalidInputError("subnet count d must be >= 1")
        self.d = int(d)
        self.seed = int(seed)
        self.params = np.zeros(d * SUBNET_PARAMS)
        self.subnets = [_SubnetView(self.params, k * SUBNET_PARAMS)
                        for k in range(d)]
        self.weight_mask = np.zeros(self.params.size, dtype=bool)
        prng = Prng(seed, 0)
        for k, s in enumerate(self.subnets):
            # fan-in-scaled uniform weights, zero biases
            s.W1[:] = prng.uniform(HIDDEN, -1.0, 1.0)
            s.W2[:] = prng.uniform(HIDDEN * HIDDEN,
                                   -1.0 / math.sqrt(HIDDEN),
                                   1.0 / math.sqrt(HIDDEN)).reshape(HIDDEN, HIDDEN)
            s.W3[:] = prng.uniform(HIDDEN,
                                   -1.0 / math.sqrt(HIDDEN),
                                   1.0 / math.sqrt(HIDDEN))
            base = k * SUBNET_PARAMS
            self.weight_mask[base:base + HIDDEN] = True
            self.weight_mask[base + 2 * HIDDEN:base + 2 * HIDDEN + HIDDEN * HIDDEN] = True
            self.weight_mask[base + 3 * HIDDEN + HIDDEN * HIDDEN:
                             base + 4 * HIDDEN + HIDDEN * HIDDEN] = True

    def _check_input(self, lam) -> tuple[np.ndarray, bool]:
        arr = np.asarray(lam, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.d:
            raise InvalidInputError(
                f"input has shape {np.shape(lam)}, expected (n, {self.d})"
            )
        return arr, single

    def forward(self, lam):
        """Model output and the per-coordinate shape values.

        Returns (total, contributions); total = contributions.sum(axis=1)
        exactly, since the model is the sum of its subnets.
        """
        arr, single = self._check_input(lam)
        contrib = np.empty((arr.shape[0], self.d))
        for k, s in enumerate(self.subnets):
            a1 = np.maximum(np.outer(arr[:, k], s.W1) + s.b1, 0.0)
            a2 = np.maximum(a1 @ s.W2 + s.b2, 0.0)
            contrib[:, k] = a2 @ s.W3 + s.b3[0]
        total = contrib.sum(axis=1)
        if single:
            return float(total[0]), contrib[0]
        return total, contrib

    def contributions(self, lam) -> np.ndarray:
        return self.forward(lam)[1]

    def predict(self, lam) -> np.ndarray:
        return self.forward(lam)[0]


def _check_batch(lam, z):
    lam = np.atleast_2d(np.asarray(lam, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if lam.shape[0] == 0:
        raise InvalidInputError("batch must be nonempty")
    if z.shape != (lam.shape[0],):
        raise InvalidInputError(
            f"targets have shape {z.shape}, expected ({lam.shape[0]},)"
        )
    return lam, z


def loss(net: AdditiveNet, lam, z, alpha: float) -> float:
    """Sum of squared residuals plus alpha times the squared weight norm
    (biases excluded from the penalty)."""
    lam, z = _check_batch(lam, z)
    total, _ = net.forward(lam)
    residual = total - z
    penalty = alpha * float(net.params[net.weight_mask] @ net.params[net.weight_mask])
    return float(residual @ residual) + penalty


def gradient(net: AdditiveNet, lam, z, alpha: float) -> np.ndarray:
    """Analytic gradient of loss() with respect to the flat parameters."""
    return _loss_and_gradient(net, lam, z, alpha)[1]


def _loss_and_gradient(net: AdditiveNet, lam, z, alpha: float):
    """(loss(), gradient()) from one forward pass, bit for bit."""
    lam, z = _check_batch(lam, z)
    n = lam.shape[0]
    # forward pass keeping activations
    acts = []
    contrib = np.empty((n, net.d))
    total = np.zeros(n)
    for k, s in enumerate(net.subnets):
        z1 = np.outer(lam[:, k], s.W1) + s.b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ s.W2 + s.b2
        a2 = np.maximum(z2, 0.0)
        h = a2 @ s.W3 + s.b3[0]
        acts.append((z1, a1, z2, a2))
        contrib[:, k] = h
        total += h
    # The loss sums each row as forward() does; that pairwise sum and the
    # running total above round differently once d >= 8.
    residual = contrib.sum(axis=1) - z
    weights = net.params[net.weight_mask]
    value = float(residual @ residual) + alpha * float(weights @ weights)
    dh = 2.0 * (total - z)  # shared by every subnet: d(residual^2)/dh_k
    grad = np.zeros_like(net.params)
    gview = [_SubnetView(grad, k * SUBNET_PARAMS) for k in range(net.d)]
    for k, s in enumerate(net.subnets):
        z1, a1, z2, a2 = acts[k]
        g = gview[k]
        g.W3[:] = a2.T @ dh
        g.b3[0] = dh.sum()
        dz2 = np.outer(dh, s.W3)
        dz2[z2 <= 0.0] = 0.0
        g.W2[:] = a1.T @ dz2
        g.b2[:] = dz2.sum(axis=0)
        dz1 = dz2 @ s.W2.T
        dz1[z1 <= 0.0] = 0.0
        g.W1[:] = dz1.T @ lam[:, k]
        g.b1[:] = dz1.sum(axis=0)
    grad[net.weight_mask] += 2.0 * alpha * weights
    return value, grad


def train(net: AdditiveNet, lam, z, cfg: TrainConfig):
    """Mini-batch adaptive-moment descent on the penalized squared error.

    Shuffles each epoch from a counter stream of cfg.seed, so the whole
    trajectory is a pure function of (data, initial net, cfg). Returns the
    net and the per-step batch loss history.
    """
    cfg.validate()
    lam = np.asarray(lam, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if lam.ndim != 2 or lam.shape[1] != net.d:
        raise InvalidInputError(f"data has shape {lam.shape}, expected (n, {net.d})")
    n = lam.shape[0]
    if n == 0:
        raise InvalidInputError("train needs data")
    if z.shape != (n,):
        raise InvalidInputError(f"targets have shape {z.shape}, expected ({n},)")
    batch = min(cfg.batch, n)
    shuffler = Prng(cfg.seed, 1)
    m = np.zeros_like(net.params)
    v = np.zeros_like(net.params)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        perm = shuffler.shuffled(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            blam, bz = lam[idx], z[idx]
            step += 1
            batch_loss, g = _loss_and_gradient(net, blam, bz, cfg.alpha)
            if not math.isfinite(batch_loss):
                raise TrainingError(f"training diverged at step {step}")
            history.append(batch_loss)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**step)
            v_hat = v / (1.0 - cfg.beta2**step)
            net.params -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return net, history


@dataclass
class ShapeTable:
    """Mean-shifted shape function samples, one table per coordinate."""

    grid: np.ndarray
    values: np.ndarray  # (len(grid), d), column k is h_k on the grid

    def table(self, k: int):
        return list(zip(self.grid.tolist(), self.values[:, k].tolist()))


def extract_shapes(net: AdditiveNet, grid=None) -> ShapeTable:
    """Evaluate every shape function on a [0, 1] grid, shifted to zero mean.

    The shift emulates the zero-expectation convention for shape functions
    and changes no deviation-based importance (translation invariance)."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidInputError("grid must be a nonempty 1-d array")
    pts = np.repeat(grid[:, None], net.d, axis=1)
    contrib = net.contributions(pts)
    return ShapeTable(grid=grid.copy(), values=contrib - contrib.mean(axis=0))


FORMAT_HEADER = "additive-net v1"


def save_net(net: AdditiveNet, path) -> None:
    """Plain-text dump: versioned header, dimensions, one parameter per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_HEADER}\n")
        fh.write(f"d={net.d} hidden={HIDDEN} seed={net.seed}\n")
        for value in net.params:
            fh.write(repr(float(value)) + "\n")


def load_net(path) -> AdditiveNet:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not lines or lines[0] != FORMAT_HEADER:
        raise DataFormatError(f"{path}: not an additive-net file")
    try:
        fields = dict(item.split("=", 1) for item in lines[1].split())
        d = int(fields["d"])
        hidden = int(fields["hidden"])
        seed = int(fields.get("seed", "0"))
    except (IndexError, KeyError, ValueError):
        raise DataFormatError(f"{path}: malformed dimension header") from None
    if hidden != HIDDEN:
        raise DataFormatError(
            f"{path}: hidden width {hidden} unsupported (expected {HIDDEN})"
        )
    expected = d * SUBNET_PARAMS
    body = lines[2:]
    if len(body) != expected:
        raise DataFormatError(
            f"{path}: {len(body)} parameters, expected {expected} for d={d}"
        )
    net = AdditiveNet(d, seed)
    try:
        net.params[:] = [float(s) for s in body]
    except ValueError:
        raise DataFormatError(f"{path}: non-numeric parameter line") from None
    return net
