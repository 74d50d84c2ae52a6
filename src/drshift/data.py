"""Datasets, CSV ingestion, synthetic covariate-shift generators, augmentations.

The Gaussian generator draws source and target inputs from two different
Gaussians while labeling both through one shared logistic boundary, so the
conditional label distribution is identical across domains by construction.
The discrete generator enumerates a small finite input space exactly and
serves as a brute-force oracle for expectation/gradient identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp
from scipy.stats import multivariate_normal

from .domain import domain_forward
from .errors import ConfigError, ContractError, CsvParseError
from .features import feature_forward

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

    def without_labels(self):
        return Dataset(self._X, None, self._is_source, self.class_count, self.name)


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

    mvn_s = multivariate_normal(mean=spec.source_mean, cov=spec.source_cov)
    mvn_t = multivariate_normal(mean=spec.target_mean, cov=spec.target_cov)

    def true_ratio(x):
        return float(np.exp(mvn_s.logpdf(x) - mvn_t.logpdf(x)))

    return source, target, true_ratio


# ---------------------------------------------------------------------------
# Exactly-enumerable discrete domain (oracle)

MAX_DISCRETE_POINTS = 64


@dataclass
class DiscreteDomainSpec:
    points: np.ndarray  # (K, d)
    p_source: np.ndarray
    p_target: np.ndarray
    cond_label: np.ndarray  # (K, C), row-stochastic P(y|x)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.p_source = np.asarray(self.p_source, dtype=float)
        self.p_target = np.asarray(self.p_target, dtype=float)
        self.cond_label = np.asarray(self.cond_label, dtype=float)
        K = self.points.shape[0]
        if K > MAX_DISCRETE_POINTS:
            raise ConfigError(f"discrete domain limited to {MAX_DISCRETE_POINTS} points")
        for name, p in [("p_source", self.p_source), ("p_target", self.p_target)]:
            if p.shape != (K,):
                raise ConfigError(f"{name} must have length {K}")
            if p.min() < 0.0:
                raise ConfigError(f"{name} has negative entries")
            if abs(p.sum() - 1.0) > 1e-9:
                raise ConfigError(f"{name} sums to {p.sum()!r}, not 1")
        if self.cond_label.shape[0] != K or self.cond_label.ndim != 2:
            raise ConfigError("cond_label must be (K, C)")
        if self.cond_label.min() < 0.0 or np.abs(self.cond_label.sum(axis=1) - 1.0).max() > 1e-9:
            raise ConfigError("cond_label rows must lie on the simplex")
        if np.any((self.p_source > 0) & (self.p_target == 0.0)):
            raise ConfigError("p_target must be positive wherever p_source is")

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def class_count(self):
        return self.cond_label.shape[1]


@dataclass
class OracleResult:
    dual_value: float
    grad_theta: np.ndarray  # (C, m)
    grad_ratio: np.ndarray  # (K, 2): d/dtau_s, d/dtau_t per point


def oracle_expectations(spec, model, domain=None):
    """Exact dual value and gradients by full enumeration over the domain.

    The dual is E_t[log Z_theta(x)] - sum_y theta_y . c_y with
    c_y = sum_x p_s(x) P(y|x) phi(x). Ratios come from the exact densities
    when domain is None, otherwise from the given domain classifier. All
    softmax/log-partition arithmetic here is written out independently of
    the predictor module so this can serve as a cross-check oracle.
    """
    theta = np.asarray(model.theta, dtype=float)
    fmap = model.feature_map
    if fmap.in_dim != spec.points.shape[1]:
        raise ConfigError("feature map dimension does not match the domain points")
    if theta.shape != (spec.class_count, fmap.out_dim):
        raise ConfigError("theta shape does not match (class_count, feature_dim)")

    K = spec.n_points
    Phi = np.stack([feature_forward(fmap, p) for p in spec.points])
    if domain is None:
        denom = spec.p_source + spec.p_target
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_s = np.where(denom > 0, spec.p_source / denom, 0.5)
        tau_t = 1.0 - tau_s
        ratios = np.where(spec.p_target > 0, spec.p_source / np.where(spec.p_target > 0, spec.p_target, 1.0), 0.0)
        clamped = np.zeros(K, dtype=bool)
    else:
        ests = [domain_forward(domain, p) for p in spec.points]
        tau_s = np.array([e.tau_s for e in ests])
        tau_t = np.array([e.tau_t for e in ests])
        ratios = np.array([e.ratio for e in ests])
        clamped = np.array([e.clamped for e in ests])

    Z = Phi @ theta.T  # (K, C) raw class scores
    L = ratios[:, None] * Z
    logZ = logsumexp(L, axis=1)
    F = np.exp(L - logZ[:, None])

    c_tilde = (spec.p_source[:, None] * spec.cond_label).T @ Phi  # (C, m)
    dual = float(spec.p_target @ logZ - np.sum(theta * c_tilde))
    grad_theta = ((spec.p_target * ratios)[:, None] * F).T @ Phi - c_tilde

    s = np.einsum("kc,kc->k", F, Z)
    safe_t = np.maximum(tau_t, 1e-12)
    g_s = spec.p_target * s / safe_t
    g_t = -spec.p_target * (tau_s / safe_t**2) * s
    grad_ratio = np.stack([np.where(clamped, 0.0, g_s), np.where(clamped, 0.0, g_t)], axis=1)
    return OracleResult(dual, grad_theta, grad_ratio)


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


def load_csv(path, has_label, domain=SOURCE):
    """Read one sample per line of comma-separated floats.

    The last column is the integer label when has_label is true. A single
    header line is allowed and detected by a non-numeric first cell. Parse
    errors, including non-finite cells, name the 1-based file line and
    column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    linenos = []
    start = 0
    if lines:
        first = lines[0].split(",")
        try:
            float(first[0])
        except ValueError:
            start = 1
    width = None
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvParseError(path, lineno + 1, len(cells), f"expected {width} columns, got {len(cells)}")
        values = []
        for col, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvParseError(path, lineno + 1, col + 1, f"not a number: {cell!r}") from None
        rows.append(values)
        linenos.append(lineno + 1)
    if not rows:
        raise ConfigError(f"{path}: no data rows")

    M = np.array(rows)
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


def save_csv(path, dataset):
    """Write a dataset in the same one-sample-per-line format load_csv reads."""
    labels = dataset.y.tolist() if dataset.labeled else None
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(dataset.X.tolist()):
            cells = [repr(v) for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            fh.write(",".join(cells) + "\n")
