"""Dataset generation, CSV ingestion, and the hull-edge test set.

Every generator is a pure function of (sizes, seed): coordinates come from
one counter stream and noise from another, so the noise realization is part
of the dataset identity and black boxes always train against fixed targets.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .blackbox import ANALYTIC_FUNCTIONS
from .blackbox import TRIANGLE_VERTICES  # re-exported: the sign experiment's triangle
from .errors import DataFormatError, DegenerateHullError, InvalidInputError
from .geometry import as_points, find_extreme_points
from .rng import Prng
from .sampling import SimplexSampler

# Each experiment's analytic black box, a key of ANALYTIC_FUNCTIONS. The
# lambda experiments' functions take the simplex weights themselves.
EXPERIMENT_FUNCTIONS = {
    "feat-ex1": "linear7",
    "feat-ex2a": "quad2",
    "feat-ex2b": "quad2",
    "feat-ex3": "ring",
    "ex-based-1": "lambda-sine6",
    "ex-based-2": "lambda-poly4",
    "ex-based-3": "lambda-sign3",
}
EXPERIMENT_IDS = tuple(EXPERIMENT_FUNCTIONS)


@dataclass
class Dataset:
    """A feature matrix with optional targets and Z-score bookkeeping."""

    x: np.ndarray
    y: np.ndarray | None
    feature_names: list[str]
    target_name: str = "y"
    # per-feature (mean, std) if a Z-score transform was applied
    normalization: list[tuple[float, float]] | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


@dataclass
class SyntheticSpec:
    """Identity of a bundled experiment: id, sample count, seed.

    n = None selects the experiment's published size.
    """

    experiment_id: str
    n: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENT_IDS:
            known = ", ".join(EXPERIMENT_IDS)
            raise InvalidInputError(
                f"unknown experiment id {self.experiment_id!r}; known: {known}"
            )
        if self.n is not None and self.n < 1:
            raise InvalidInputError("n must be >= 1")


def _lambda_names(d):
    return [f"lambda{k + 1}" for k in range(d)]


def gen_ring(n: int, rho_sq_range=(0.0, 4.0), seed: int = 0) -> Dataset:
    """Annulus sample: squared radius uniform on the range, angle uniform.

    Targets are the squared norm plus N(0, 0.05) noise, so the noiseless
    target of each row equals its drawn squared radius exactly.
    """
    lo, hi = float(rho_sq_range[0]), float(rho_sq_range[1])
    if not 0.0 <= lo < hi:
        raise InvalidInputError("rho_sq_range must satisfy 0 <= lo < hi")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    coords = Prng(seed, 0)
    rho_sq = coords.uniform(n, lo, hi)
    phi = coords.uniform(n, 0.0, 2.0 * math.pi)
    rho = np.sqrt(rho_sq)
    x = np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])
    y = x[:, 0] ** 2 + x[:, 1] ** 2 + Prng(seed, 1).normal(n, 0.0, 0.05)
    return Dataset(x=x, y=y, feature_names=["x1", "x2"])


def gen_linear7(n: int = 1000, seed: int = 0) -> Dataset:
    """Seven unit-box features, linear target with N(0, 0.1) noise."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    x = Prng(seed, 0).unit(n * 7).reshape(n, 7)
    fn, _ = ANALYTIC_FUNCTIONS["linear7"]
    y = fn(x) + Prng(seed, 1).normal(n, 0.0, 0.1)
    return Dataset(x=x, y=y, feature_names=[f"x{j + 1}" for j in range(7)])


def gen_quad2(n: int = 400, box=(0.0, 1.0), seed: int = 0) -> Dataset:
    """Two features uniform on a box, target -x1^2 + 2 x2 + N(0, 0.05)."""
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise InvalidInputError("box must satisfy lo < hi")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    x = Prng(seed, 0).uniform(n * 2, lo, hi).reshape(n, 2)
    fn, _ = ANALYTIC_FUNCTIONS["quad2"]
    y = fn(x) + Prng(seed, 1).normal(n, 0.0, 0.05)
    return Dataset(x=x, y=y, feature_names=["x1", "x2"])


_LAMBDA_SIZES = {"ex-based-1": 2000, "ex-based-2": 1000, "ex-based-3": 1000}


def lambda_function(experiment_id: str):
    """The weight-space black box of a lambda experiment, as a callable.

    For the sign-function experiment it is the full composition: weights to
    a point of the triangle, then the sign function there."""
    if experiment_id not in _LAMBDA_SIZES:
        raise InvalidInputError(f"not a lambda experiment: {experiment_id!r}")
    return ANALYTIC_FUNCTIONS[EXPERIMENT_FUNCTIONS[experiment_id]][0]


def gen_lambda_experiment(experiment_id: str, n: int | None = None, seed: int = 0) -> Dataset:
    """Uniform simplex weights with noiseless targets from the experiment's
    analytic function; columns are the weights themselves."""
    fn = lambda_function(experiment_id)
    d = ANALYTIC_FUNCTIONS[EXPERIMENT_FUNCTIONS[experiment_id]][1]
    count = _LAMBDA_SIZES[experiment_id] if n is None else int(n)
    if count < 1:
        raise InvalidInputError("n must be >= 1")
    lam = SimplexSampler(d, seed).draw(count)
    return Dataset(x=lam, y=fn(lam), feature_names=_lambda_names(d), target_name="z")


def generate(spec: SyntheticSpec) -> Dataset:
    """Dispatch a SyntheticSpec to its generator with the published sizes."""
    eid, n, seed = spec.experiment_id, spec.n, spec.seed
    if eid == "feat-ex1":
        return gen_linear7(n or 1000, seed)
    if eid == "feat-ex2a":
        return gen_quad2(n or 400, (0.0, 1.0), seed)
    if eid == "feat-ex2b":
        return gen_quad2(n or 400, (15.0, 16.0), seed)
    if eid == "feat-ex3":
        return gen_ring(n or 400, (0.0, 4.0), seed)
    return gen_lambda_experiment(eid, n, seed)


def _parse_cell(text: str, row: int, col_name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(
            f"row {row}, column {col_name!r}: not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(f"row {row}, column {col_name!r}: non-finite value")
    return value


def load_csv(path, target_column=None, zscore: bool = False) -> Dataset:
    """Read a rectangular numeric CSV with a header row.

    target_column selects the y column by header name or integer position;
    None means every column is a feature. Z-scoring uses the population
    standard deviation and stores (mean, std) per feature for inversion.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if len(rows) < 2:
        raise DataFormatError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    width = len(header)

    target_idx = None
    if target_column is not None:
        if isinstance(target_column, int):
            if not -width <= target_column < width:
                raise DataFormatError(
                    f"target column index {target_column} out of range for {width} columns"
                )
            target_idx = target_column % width
        else:
            if target_column not in header:
                raise DataFormatError(
                    f"target column {target_column!r} not in header {header}"
                )
            target_idx = header.index(target_column)

    data = np.empty((len(rows) - 1, width))
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise DataFormatError(
                f"row {i} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            data[i - 1, j] = _parse_cell(cell.strip(), i, header[j])

    if target_idx is None:
        x, y = data, None
        feature_names, target_name = header, "y"
    else:
        keep = [j for j in range(width) if j != target_idx]
        x, y = data[:, keep], data[:, target_idx]
        feature_names = [header[j] for j in keep]
        target_name = header[target_idx]

    normalization = None
    if zscore:
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population std, matching the stored inverse
        flat = np.flatnonzero(std == 0.0)
        if flat.size:
            raise DataFormatError(
                f"column {feature_names[flat[0]]!r} is constant; cannot Z-score"
            )
        x = (x - mean) / std
        normalization = [(float(m), float(s)) for m, s in zip(mean, std)]

    return Dataset(x=x, y=y, feature_names=feature_names,
                   target_name=target_name, normalization=normalization)


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back out in the load_csv format (header + floats)."""
    header = list(dataset.feature_names)
    cols = [dataset.x[:, j] for j in range(dataset.m)]
    if dataset.y is not None:
        header.append(dataset.target_name)
        cols.append(dataset.y)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            writer.writerow([repr(float(c[i])) for c in cols])


def gen_edge_testset(train, l: int, seed: int = 0) -> np.ndarray:
    """Test points on random segments between extreme points of the train set.

    Each point interpolates two distinct, uniformly chosen extremes with a
    uniform coefficient, so every output lies in the training hull, biased
    toward its boundary."""
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    points = train.x if isinstance(train, Dataset) else as_points(train, "train")
    poly = find_extreme_points(points)
    d = poly.d
    if d < 2:
        raise DegenerateHullError(
            f"edge test set needs at least 2 extreme points, found {d}"
        )
    prng = Prng(seed, 0)
    j1 = prng.below(d, l)
    j2 = prng.below(d - 1, l)
    j2 = j2 + (j2 >= j1)  # uniform over indices distinct from j1
    lam = prng.unit(l)
    return (lam[:, None] * poly.extremes[j1]
            + (1.0 - lam)[:, None] * poly.extremes[j2])
