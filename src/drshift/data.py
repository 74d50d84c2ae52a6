"""Datasets, CSV ingestion, synthetic covariate-shift generators, augmentations.

The Gaussian generator draws source and target inputs from two different
Gaussians while labeling both through one shared logistic boundary, so the
conditional label distribution is identical across domains by construction.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ContractError, CsvParseError, _check_num, _finite_rows, _int_labels

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
            y = np.array(_int_labels(y, ConfigError))
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
        y = _int_labels(y, ConfigError)
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
        self.source_mean = _float_array(self.source_mean, "source_mean")
        if self.source_mean.ndim != 1 or not self.source_mean.size:
            shape = self.source_mean.shape
            raise ConfigError(f"source_mean: must be a non-empty vector, got shape {shape}")
        d = self.source_mean.shape[0]
        for name, shape in [("target_mean", (d,)), ("source_cov", (d, d)),
                            ("target_cov", (d, d)), ("boundary_weights", (d,))]:
            arr = _float_array(getattr(self, name), name)
            if arr.shape != shape:
                raise ConfigError(f"{name}: must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)
        for name, cov in [("source_cov", self.source_cov), ("target_cov", self.target_cov)]:
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ConfigError(f"{name}: not symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ConfigError(f"{name}: not positive definite") from None
        self.boundary_bias = _check_num(self.boundary_bias, "boundary_bias")
        self.n_source = _check_num(self.n_source, "n_source", ge=1, integer=True)
        self.n_target = _check_num(self.n_target, "n_target", ge=1, integer=True)
        self.seed = _check_num(self.seed, "seed", ge=0, integer=True)

    @property
    def dim(self):
        return self.source_mean.shape[0]


def _float_array(value, name):
    """value, a number or rectangular nested sequences of them, as a float
    array; ConfigError names name at the first entry _check_num rejects."""
    cells = np.array(value, dtype=object)  # ragged rows stay lists, which are not numbers
    return np.array([_check_num(v, name) for v in cells.flat], dtype=float).reshape(cells.shape)


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
    """Labeled (source, target) datasets drawn from one spec.seed generator: source
    features, source labels, target features, target labels, labeled by true_class_probs."""
    rng = np.random.default_rng(spec.seed)

    def draw(domain, n, mean, cov):
        X = mean + rng.standard_normal((n, spec.dim)) @ np.linalg.cholesky(cov).T
        y = (rng.random(n) < true_class_probs(spec, X)[:, 1]).astype(int)
        return dataset_from_arrays(X, y, domain, class_count=2, name=domain)
    return (draw(SOURCE, spec.n_source, spec.source_mean, spec.source_cov),
            draw(TARGET, spec.n_target, spec.target_mean, spec.target_cov))


def true_log_ratio(spec, X):
    """log p_source(x) - log p_target(x), shape (m,), of the rows of the (m, d) matrix X;
    domain.clamp_ratio takes the log (exp overflows at d = 32). numpy alone, as scipy.stats
    triples import time: log N(x; mu, LL^T) = -0.5 |L^-1 (x - mu)|^2 - sum log diag L + c."""
    X = _spec_inputs(spec, X)

    def log_p(mean, cov):
        L = np.linalg.cholesky(cov)
        Z = np.linalg.solve(L, (X - mean).T)
        return -0.5 * (Z * Z).sum(axis=0) - np.log(np.diag(L)).sum()
    return log_p(spec.source_mean, spec.source_cov) - log_p(spec.target_mean, spec.target_cov)


def true_class_probs(spec, X):
    """The (m, 2) Bayes posterior of the rows of the (m, d) matrix X; column 1 is sigmoid(w.x+b)."""
    p1 = expit(_spec_inputs(spec, X) @ spec.boundary_weights + spec.boundary_bias)
    return np.column_stack((1.0 - p1, p1))


def _spec_inputs(spec, X):
    """X as a finite float (m, spec.dim) matrix, or ContractError naming its
    shape or its first non-finite row."""
    X = np.asarray(X, dtype=float)
    if X.shape[1:] != (spec.dim,):
        raise ContractError(f"expected an (m, {spec.dim}) input matrix, got shape {X.shape}")
    return _finite_rows(X, "input row")


# ---------------------------------------------------------------------------
# Parametric augmentations


@dataclass
class AugmentationSpec:
    weak_noise_std: float = 0.1
    strong_noise_std: float = 0.5
    strong_mask_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        self.weak_noise_std = _check_num(self.weak_noise_std, "weak_noise_std", ge=0)
        self.strong_noise_std = _check_num(self.strong_noise_std, "strong_noise_std",
                                           ge=self.weak_noise_std)
        self.strong_mask_fraction = _check_num(self.strong_mask_fraction, "strong_mask_fraction",
                                               ge=0, le=1)
        self.seed = _check_num(self.seed, "seed", ge=0, integer=True)


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


# Characters of text _lines asks fh.readlines for at a time: a block of
# whole lines, so only one block is held as strings at once.
_READ_HINT = 1 << 16


def load_csv(path, has_label, domain=SOURCE):
    """Read one sample per line of comma-separated floats.

    The last column is the integer label when has_label is true. A single
    header line is allowed and detected by a non-numeric first cell on the
    first non-blank line; a UTF-8 byte-order mark is dropped before it.
    Parse errors, including non-finite cells and labels too large for
    int64, name the 1-based file line and column.

    Lines end where str.splitlines() ends them (_lines), and blank lines
    are skipped. np.loadtxt builds the array (_loadtxt); its C reader never
    accepts a cell that Python's float() rejects and returns the same bits
    for the cells it accepts. When it raises, _check_cells names the first
    ragged line or cell float() rejects; if there is none, every cell is
    one only float() takes, such as "1_0.5" or non-ASCII digits, and
    np.loadtxt parses the lines again through float(). A fault in the
    array names its row, whose file line _data_line finds.
    """
    try:
        M = _loadtxt(path)
    except ValueError:  # UnicodeDecodeError included
        _check_cells(path)
        M = _loadtxt(path, converters=float, encoding=None)
    if not len(M):
        raise ConfigError(f"{path}: no data rows")
    if fault := _first_fault(M, has_label):
        i, column, message = fault
        raise CsvParseError(path, _data_line(path, i), column, message)
    if not has_label:
        return Dataset(M, None, _is_source(domain), 0, name=str(path))
    y = M[:, -1].astype(int)
    return Dataset(M[:, :-1], y, _is_source(domain), int(y.max()) + 1, name=str(path))


def _loadtxt(path, **kwargs):
    """np.loadtxt of the lines of the file at path (_lines), with kwargs.
    comments=None keeps its default "#" from cutting a cell such as
    "1.0#c", which float() rejects."""
    with open(path, "r", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        # A file without data rows warns; load_csv names its fault.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(_lines(fh), delimiter=",", comments=None, ndmin=2, **kwargs)


def _lines(fh):
    r"""The lines of the text file fh, stripped, with the header (the first
    non-blank line whose first cell is not a number) made "": item k is file
    line k + 1. Lines end where str.splitlines() ends them, as at "\x0c" or
    "\u2028", which np.loadtxt's reader takes as whitespace inside a cell.
    Each block from fh.readlines() ends at a "\n", to which text mode turns
    "\r\n" and "\r", so splitting the blocks one by one splits the text."""
    header = True
    while block := fh.readlines(_READ_HINT):
        lines = [line.strip() for line in "".join(block).splitlines()]
        if header:
            first = next((i for i, line in enumerate(lines) if line), None)
            if first is not None:
                header = False
                try:
                    float(lines[first].split(",")[0])
                except ValueError:
                    lines[first] = ""
        yield from lines


def _first_fault(M, has_label):
    """(row index, 1-based column, message) of the first fault in file
    order of the parsed rows M, or None: a non-finite cell, then with
    has_label a single column, then a label that is not an integer in
    [0, 2**63)."""
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        return i, j + 1, f"not a finite number: {float(M[i, j])!r}"
    if not has_label:
        return None
    width = M.shape[1]
    if width < 2:
        return 0, width, "need at least one feature and a label"
    labels = M[:, -1]
    bad = np.flatnonzero((labels != np.floor(labels)) | (labels < 0) | (labels >= 2.0**63))
    if bad.size:
        i = bad[0]
        return i, width, f"label must be an integer in [0, 2**63), got {float(labels[i])!r}"
    return None


def _data_line(path, i):
    """The 1-based file line of data row i, the (i + 1)-th non-empty item of
    _lines, found without parsing a cell."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        rows = (lineno for lineno, line in enumerate(_lines(fh), 1) if line)
        return next(itertools.islice(rows, i, None))


def _check_cells(path):
    """Return only if every line of the file at path has the first data
    line's width and every cell is one float() takes; else raise the
    CsvParseError of the first line that does not, or ConfigError when the
    file is not UTF-8 text. No value is kept."""
    width = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(_lines(fh), 1):
                if not line:
                    continue
                cells = line.split(",")
                if width is None:
                    width = len(cells)
                elif len(cells) != width:
                    raise CsvParseError(path, lineno, len(cells), f"expected {width} columns, got {len(cells)}")
                for col, cell in enumerate(cells):
                    try:
                        float(cell)
                    except ValueError:
                        raise CsvParseError(path, lineno, col + 1, f"not a number: {cell!r}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


def save_csv(path, dataset):
    """Write a dataset in the same one-sample-per-line format load_csv reads."""
    labels = dataset.y.tolist() if dataset.labeled else None
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(dataset.X.tolist()):
            cells = [repr(v) for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            fh.write(",".join(cells) + "\n")
