"""Plug-in density-ratio estimation via Gaussian KDE, and the simulation
comparing held-out density-estimation quality against downstream robust
prediction quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data import generate_gaussian_shift, split_indices
from .domain import DEFAULT_RATIO_BOUNDS, clamp_ratio
from .errors import ConfigError, ContractError
from .features import bias_map
from .robust import RobustClassifier, _Momentum, _nll_at, grad_source, predict_proba

# Query rows x training points per block of the pairwise pass in
# kde_log_density. Its (rows, n, d) buffers then hold 8192 * d floats
# (128 KiB at d = 2), which keeps the peak memory of plugin-sim flat.
_BLOCK_PAIRS = 8192


@dataclass
class KdeModel:
    points: np.ndarray  # (n, d) training data
    bandwidth: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ConfigError(f"KDE points must be an (n, d) matrix, got shape {self.points.shape}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if not np.isfinite(self.points).all():
            raise ConfigError("KDE training points must be finite")

    @property
    def dim(self):
        return self.points.shape[1]


def fit_kde(points, bandwidth):
    return KdeModel(points, float(bandwidth))


def kde_log_density(model, x):
    """Log of the isotropic-Gaussian mixture density at x.

    A (d,) query returns a float and an (m, d) matrix returns an (m,) array;
    both go through the same blocked pairwise pass, so row i of the matrix
    result equals the single-query result for row i bitwise. The per-point
    exponents of each query are sorted before the log-sum-exp so the result
    is bitwise invariant to the order of the training points.
    """
    n, d = model.points.shape
    if n == 0:
        raise ContractError("KDE model has no points")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ContractError(f"query must have dim {d}, got shape {x.shape}")
    queries = np.atleast_2d(x)
    h2 = model.bandwidth**2
    lse = np.empty(queries.shape[0])
    # Differences, not the |x|^2 + |p|^2 - 2 x.p expansion: the expansion
    # cancels badly at small bandwidths and is not bitwise equal.
    step = max(1, _BLOCK_PAIRS // n)
    for start in range(0, queries.shape[0], step):
        q = queries[start:start + step]
        sq = ((model.points[None] - q[:, None]) ** 2).sum(axis=2)
        lse[start:start + step] = logsumexp(np.sort(-sq / (2.0 * h2), axis=1), axis=1)
    out = lse - np.log(n) - 0.5 * d * np.log(2.0 * np.pi * h2)
    return float(out[0]) if x.ndim == 1 else out


def plugin_ratio(kde_source, kde_target, x, bounds=DEFAULT_RATIO_BOUNDS):
    """Clamped exp(log p_s(x) - log p_t(x)): a float for a (d,) query, an
    (m,) array for an (m, d) matrix."""
    if kde_source.dim != kde_target.dim:
        raise ContractError("source and target KDE dims differ")
    log_r = kde_log_density(kde_source, x) - kde_log_density(kde_target, x)
    r, _ = clamp_ratio(log_r, bounds)
    return float(r) if np.ndim(r) == 0 else r


def _train_frozen_feature_model(Xs, ys, ratios, class_count):
    # 400 full-batch momentum steps (lr 0.5, momentum 0.9). This budget does
    # not converge: the grad_theta norm at steps 100-399 stays within 0.2-1.3,
    # and a 1.8e-15 relative change in the ratios turns max |theta| 0.14 into
    # 1.26 (seed 0, h = 0.05). So kde keeps scipy's logsumexp.
    fmap = bias_map(Xs.shape[1])
    clf = RobustClassifier(np.zeros((class_count, fmap.out_dim)), fmap, 0.0, DEFAULT_RATIO_BOUNDS)
    opt = _Momentum(clf, 0.5, 0.9)
    for _ in range(400):
        g = grad_source(clf, (Xs, ys), ratios)
        opt.step(clf, g.grad_theta, g.feature_grad)
    return clf


def run_plugin_simulation(spec, bandwidths):
    """Score plug-in ratios per bandwidth: held-out log-likelihoods of the two
    KDEs, and the target log loss of a frozen-feature robust classifier
    trained with those ratios.
    The KDEs fit 80 % of each domain (split at spec.seed + 1) and score the
    rest; ratios are clamped to the default bounds.

    Returns one row per bandwidth:
    {h, ll_source, ll_target, target_logloss}.
    """
    bandwidths = list(bandwidths)
    if not bandwidths:
        raise ContractError("need at least one bandwidth")
    source, target, _ = generate_gaussian_shift(spec)
    rng = np.random.default_rng(spec.seed + 1)
    tr_s, ho_s = split_indices(len(source), 0.8, rng)
    tr_t, ho_t = split_indices(len(target), 0.8, rng)
    Xs, ys, Xt, yt = source.X, source.y, target.X, target.y

    rows = []
    for h in bandwidths:
        kde_s = fit_kde(Xs[tr_s], h)
        kde_t = fit_kde(Xt[tr_t], h)
        ll_s = float(np.mean(kde_log_density(kde_s, Xs[ho_s])))
        ll_t = float(np.mean(kde_log_density(kde_t, Xt[ho_t])))

        ratios_src = plugin_ratio(kde_s, kde_t, Xs)
        clf = _train_frozen_feature_model(Xs, ys, ratios_src, source.class_count)
        ratios_tgt = plugin_ratio(kde_s, kde_t, Xt)
        probs, _ = predict_proba(clf, Xt, ratios_tgt)
        logloss = float(_nll_at(probs, yt).mean())
        rows.append(
            {"h": float(h), "ll_source": ll_s, "ll_target": ll_t, "target_logloss": logloss}
        )
    return rows
