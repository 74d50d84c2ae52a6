"""Datasets, CSV ingestion, synthetic covariate-shift generators, augmentations.

The Gaussian generator draws source and target inputs from two different
Gaussians while labeling both through one shared logistic boundary, so the
conditional label distribution is identical across domains by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ContractError, CsvParseError

SOURCE = "source"
TARGET = "target"


class Dataset:
    """Read-only (n, d) features, optional labels in [0, class_count) and domain tags.

    is_source holds one bool per row, or one bool for every row.
    """

    def __init__(self, X, y=None, is_source=True, class_count=0, name=""):
        try:
            X = np.array(X, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("dataset features must be an (n, d) numeric matrix") from None
        if X.ndim != 2:
            raise ConfigError(f"dataset features must be an (n, d) matrix, got shape {X.shape}")
        n = X.shape[0]
        if n == 0:
            raise ConfigError("dataset needs at least one sample")
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise ConfigError(f"sample {int(np.argmin(finite))} features must be finite")
        if y is not None:
            y = np.array(y, dtype=int)
            if y.shape != (n,):
                raise ConfigError(f"expected {n} labels, got shape {y.shape}")
            bad = np.flatnonzero((y < 0) | (y >= class_count))
            if bad.size:
                i = int(bad[0])
                raise ConfigError(f"sample {i} label {y[i]} outside [0, {class_count})")
        tags = np.array(np.broadcast_to(np.asarray(is_source, dtype=bool), (n,)))
        for arr in (X, y, tags):
            if arr is not None:
                arr.flags.writeable = False
        self._X, self._y, self._is_source = X, y, tags
        self.class_count = int(class_count)
        self.dim = X.shape[1]
        self.name = name

    def __len__(self):
        return self._X.shape[0]

    @property
    def labeled(self):
        return self._y is not None

    @property
    def X(self):
        return self._X

    @property
    def y(self):
        if self._y is None:
            raise ContractError(f"dataset {self.name!r} is unlabeled")
        return self._y

    @property
    def is_source(self):
        return self._is_source


def _is_source(domain):
    if domain not in (SOURCE, TARGET):
        raise ConfigError(f"unknown domain tag {domain!r}")
    return domain == SOURCE


def dataset_from_arrays(X, y=None, domain=SOURCE, class_count=None, name=""):
    """Dataset with one domain tag for every row; class_count defaults to max(y) + 1."""
    if y is not None and class_count is None:
        y = np.asarray(y, dtype=int)
        class_count = int(y.max()) + 1 if y.size else 0
    return Dataset(X, y, _is_source(domain), class_count or 0, name)


def split_indices(n, frac, rng):
    """A permutation of range(n) drawn from rng, cut after round(frac * n)
    rows held to [1, n - 1]: (head, tail), neither of them empty."""
    if n < 2:
        raise ContractError(f"cannot split {n} rows into two non-empty parts")
    perm = rng.permutation(n)
    cut = max(1, min(n - 1, int(round(frac * n))))
    return perm[:cut], perm[cut:]


# ---------------------------------------------------------------------------
# Gaussian covariate-shift generator


@dataclass
class GaussianShiftSpec:
    source_mean: np.ndarray
    target_mean: np.ndarray
    source_cov: np.ndarray
    target_cov: np.ndarray
    boundary_weights: np.ndarray
    boundary_bias: float
    n_source: int
    n_target: int
    seed: int

    def __post_init__(self):
        self.source_mean = np.asarray(self.source_mean, dtype=float)
        self.target_mean = np.asarray(self.target_mean, dtype=float)
        self.source_cov = np.asarray(self.source_cov, dtype=float)
        self.target_cov = np.asarray(self.target_cov, dtype=float)
        self.boundary_weights = np.asarray(self.boundary_weights, dtype=float)
        if self.source_mean.ndim != 1 or not self.source_mean.size:
            shape = self.source_mean.shape
            raise ConfigError(f"source_mean must be a non-empty vector, got shape {shape}")
        d = self.source_mean.shape[0]
        for name, arr, shape in [
            ("target_mean", self.target_mean, (d,)),
            ("source_cov", self.source_cov, (d, d)),
            ("target_cov", self.target_cov, (d, d)),
            ("boundary_weights", self.boundary_weights, (d,)),
        ]:
            if arr.shape != shape:
                raise ConfigError(f"{name} must have shape {shape}, got {arr.shape}")
        for name, cov in [("source_cov", self.source_cov), ("target_cov", self.target_cov)]:
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ConfigError(f"{name} is not symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ConfigError(f"{name} is not positive definite") from None
        if self.n_source < 1 or self.n_target < 1:
            raise ConfigError("sample counts must be positive")

    @property
    def dim(self):
        return self.source_mean.shape[0]


def default_shift_spec(seed=0, n_source=500, n_target=500):
    """2-D benchmark: overlapping unit-covariance Gaussians shifted along the boundary."""
    return GaussianShiftSpec(
        source_mean=(-1.0, -1.0),
        target_mean=(1.5, 1.5),
        source_cov=np.eye(2),
        target_cov=np.eye(2),
        boundary_weights=(1.0, -1.0),
        boundary_bias=0.0,
        n_source=n_source,
        n_target=n_target,
        seed=seed,
    )


def generate_gaussian_shift(spec):
    """Draw labeled source/target datasets plus the closed-form density ratio.

    Labels in both domains come from the shared boundary
    P(y=1|x) = sigmoid(w.x + b); target labels are returned for evaluation
    only. Draw order: source features, source labels, target features,
    target labels, all from one generator seeded with spec.seed.

    The ratio function takes one point of shape (d,) and returns the float
    p_source(x) / p_target(x), computed from the Cholesky factors with numpy
    alone: importing scipy.stats for it would triple the package's import time.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    Ls = np.linalg.cholesky(spec.source_cov)
    Lt = np.linalg.cholesky(spec.target_cov)

    def draw(n, mean, L):
        X = mean + rng.standard_normal((n, d)) @ L.T
        p1 = expit(X @ spec.boundary_weights + spec.boundary_bias)
        y = (rng.random(n) < p1).astype(int)
        return X, y

    Xs, ys = draw(spec.n_source, spec.source_mean, Ls)
    Xt, yt = draw(spec.n_target, spec.target_mean, Lt)
    source = dataset_from_arrays(Xs, ys, SOURCE, class_count=2, name="source")
    target = dataset_from_arrays(Xt, yt, TARGET, class_count=2, name="target")

    # log N(x; mu, L L^T) = -0.5 |L^-1 (x - mu)|^2 - sum log diag L - (d/2) log 2 pi;
    # the 2 pi terms cancel in the ratio.
    log_det_gap = np.log(np.diag(Lt)).sum() - np.log(np.diag(Ls)).sum()

    def true_ratio(x):
        a = np.linalg.solve(Ls, x - spec.source_mean)
        b = np.linalg.solve(Lt, x - spec.target_mean)
        return float(np.exp(0.5 * (b @ b - a @ a) + log_det_gap))

    return source, target, true_ratio


# ---------------------------------------------------------------------------
# Parametric augmentations


@dataclass
class AugmentationSpec:
    weak_noise_std: float = 0.1
    strong_noise_std: float = 0.5
    strong_mask_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.weak_noise_std < 0 or self.strong_noise_std < 0:
            raise ConfigError("noise levels must be non-negative")
        if self.strong_noise_std < self.weak_noise_std:
            raise ConfigError("strong_noise_std must be >= weak_noise_std")
        if not 0.0 <= self.strong_mask_fraction <= 1.0:
            raise ConfigError("strong_mask_fraction must lie in [0, 1]")


def augment_batch(X, spec, strength, rng):
    """Perturb each row: weak adds noise, strong adds noise then masks coordinates.

    Deterministic given the generator state. One (n, d) normal draw comes
    first; then, for strong, one mask draw per row in row order. The mask
    size is round-half-up(strong_mask_fraction * d), applied after the noise.
    """
    if strength not in ("weak", "strong"):
        raise ContractError(f"unknown augmentation strength {strength!r}")
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    std = spec.weak_noise_std if strength == "weak" else spec.strong_noise_std
    out = X + std * rng.standard_normal((n, d))
    if strength == "strong":
        n_mask = int(spec.strong_mask_fraction * d + 0.5)
        if n_mask > 0:
            for i in range(n):
                out[i, rng.choice(d, size=n_mask, replace=False)] = 0.0
    return out


# ---------------------------------------------------------------------------
# CSV ingestion


# Data lines per block of the bulk parse in load_csv. One block's joined text
# and cell strings stay small; joining the whole file at once raised the peak
# memory of a 100,000-row load by a tenth.
_PARSE_BLOCK = 8192


def load_csv(path, has_label, domain=SOURCE):
    """Read one sample per line of comma-separated floats.

    The last column is the integer label when has_label is true. A single
    header line is allowed and detected by a non-numeric first cell. Parse
    errors, including non-finite cells, name the 1-based file line and
    column.

    Blank lines are skipped. The data lines are parsed in blocks of
    _PARSE_BLOCK lines, each joined and split once and converted by Python's
    float(), so the values equal a cell-by-cell parse bitwise. A file with a
    bad cell or a ragged line is parsed again cell by cell, which raises the
    error of the first bad line in file order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 0
    if lines:
        first = lines[0].split(",")
        try:
            float(first[0])
        except ValueError:
            start = 1
    stripped = [line.strip() for line in lines[start:]]
    linenos = [lineno for lineno, line in enumerate(stripped, start + 1) if line]
    rows = [line for line in stripped if line]
    if not rows:
        raise ConfigError(f"{path}: no data rows")

    try:
        M = _parse_blocks(rows)
    except ValueError:
        M = _parse_cells(path, rows, linenos)
    width = M.shape[1]
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise CsvParseError(path, linenos[i], j + 1, f"not a finite number: {float(M[i, j])!r}")
    if not has_label:
        return Dataset(M, None, _is_source(domain), 0, name=str(path))
    if width < 2:
        raise CsvParseError(path, linenos[0], width, "need at least one feature and a label")
    labels = M[:, -1]
    bad = np.flatnonzero((labels != np.floor(labels)) | (labels < 0))
    if bad.size:
        i = bad[0]
        raise CsvParseError(
            path, linenos[i], width, f"label must be a non-negative integer, got {float(labels[i])!r}"
        )
    y = labels.astype(int)
    return Dataset(M[:, :-1], y, _is_source(domain), int(y.max()) + 1, name=str(path))


def _parse_blocks(rows):
    """(n, width) array of non-blank data lines, one join, split and float map
    per block; ValueError on a bad cell or a line whose width differs."""
    commas = rows[0].count(",")
    M = np.empty((len(rows), commas + 1))
    for begin in range(0, len(rows), _PARSE_BLOCK):
        block = rows[begin:begin + _PARSE_BLOCK]
        if any(line.count(",") != commas for line in block):
            raise ValueError("ragged line")
        cells = ",".join(block).split(",")
        M[begin:begin + len(block)] = np.fromiter(map(float, cells), float, len(cells)).reshape(
            len(block), -1
        )
    return M


def _parse_cells(path, rows, linenos):
    """The cell-by-cell parse: raises CsvParseError at the first ragged line
    or bad cell in file order."""
    width = None
    values = []
    for line, lineno in zip(rows, linenos):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvParseError(path, lineno, len(cells), f"expected {width} columns, got {len(cells)}")
        for col, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvParseError(path, lineno, col + 1, f"not a number: {cell!r}") from None
    return np.array(values).reshape(len(rows), width)


def save_csv(path, dataset):
    """Write a dataset in the same one-sample-per-line format load_csv reads."""
    labels = dataset.y.tolist() if dataset.labeled else None
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(dataset.X.tolist()):
            cells = [repr(v) for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            fh.write(",".join(cells) + "\n")
