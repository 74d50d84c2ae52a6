"""Plug-in density-ratio estimation via Gaussian KDE, and the simulation
comparing held-out density-estimation quality against downstream robust
prediction quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import _lse_parts
from .data import generate_gaussian_shift, split_indices
from .domain import clamp_ratio
from .errors import ConfigError, ContractError, _check_num, _finite_rows
from .features import identity_map
from .robust import DEFAULT_RATIO_BOUNDS, RobustClassifier, _nll_at, grad_source, predict_proba

# Query rows x training points per block of the pairwise pass in
# _log_densities. Each of its at most three live (rows, n) buffers then holds
# 32768 floats (256 KiB) at any d, which keeps the pass's peak memory flat in
# the number of query rows and in n. Each row's sum is its own, so the block
# size does not change the result's bits.
_BLOCK_PAIRS = 32768

# Stopping rule and backtracking budget of _train_frozen_feature_model.
_FIT_RTOL = 1e-9
_FIT_MAX_STEPS = 50
_FIT_HALVINGS = 40


@dataclass
class KdeModel:
    points: np.ndarray  # (n, d) training data
    bandwidth: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ConfigError(f"KDE points must be an (n, d) matrix, got shape {self.points.shape}")
        if self.points.shape[1] == 0:
            raise ConfigError(f"KDE points need at least one column, got shape {self.points.shape}")
        self.bandwidth = check_bandwidth(self.bandwidth)
        if not np.isfinite(self.points).all():
            raise ConfigError("KDE training points must be finite")

    @property
    def dim(self):
        return self.points.shape[1]


def check_bandwidth(h, name="bandwidth"):
    """h as a float, or ConfigError, naming name, unless h is a number > 0,
    h^2 is a normal float and the normalizer's 2 pi h^2 is finite. Below
    that range h^2 loses precision or is 0, so the exponents divide by 0;
    above it the log density is -inf or NaN."""
    h = _check_num(h, name, gt=0)
    h2 = h * h
    if not (h2 >= np.finfo(float).tiny and 2.0 * np.pi * h2 <= np.finfo(float).max):
        raise ConfigError(f"{name}: must be positive, with h^2 a normal float and 2 pi h^2 "
                          f"finite, got {h}")
    return h


def kde_log_density(model, X):
    """Log of the isotropic-Gaussian mixture density at each row of the
    (m, d) matrix X, an (m,) array."""
    return _log_densities(model.points, X, [model.bandwidth])[0]


def _log_densities(points, X, bandwidths):
    """Log densities at each row of the (m, d) matrix X of the isotropic-
    Gaussian mixtures on the (n, d) points, one per bandwidth: a (k, m)
    array for k bandwidths. The points and bandwidths are taken as checked
    by KdeModel.

    Squared distances are summed one input dimension at a time, in order,
    which for d < 8 is the order of ((p - x) ** 2).sum() over the length-d
    axis (numpy sums 8 or more elements pairwise, so at d >= 8 the two can
    differ in the last bit). Each block's distances are sorted once,
    descending, for every bandwidth: dividing by -2 h^2 < 0 keeps their
    order under IEEE rounding, so each bandwidth's exponents come out
    sorted ascending, bitwise as a sort of the divided distances would give
    them, and their row max is the last column. The sort makes the result
    bitwise invariant to the order of the training points. A row of X with
    a non-finite value is a ContractError; a finite row so far from every
    point that each exponent overflows to -inf has log density -inf.
    """
    n, d = points.shape
    if n == 0:
        raise ContractError("KDE model has no points")
    queries = np.asarray(X, dtype=float)
    if queries.shape[1:] != (d,):
        raise ContractError(f"queries must be an (m, {d}) matrix, got shape {queries.shape}")
    _finite_rows(queries, "query row")
    h2s = [float(h) ** 2 for h in bandwidths]
    out = np.empty((len(h2s), queries.shape[0]))
    # Differences, not the |x|^2 + |p|^2 - 2 x.p expansion: the expansion
    # cancels badly at small bandwidths and is not bitwise equal.
    step = max(1, _BLOCK_PAIRS // n)
    # Far from every point a squared distance, or its exponent at a small
    # bandwidth, overflows: the exponent is then -inf, which exp takes to 0.
    with np.errstate(over="ignore"):
        for start in range(0, queries.shape[0], step):
            q = queries[start:start + step]
            sq = (points[:, 0] - q[:, :1]) ** 2
            for j in range(1, d):
                sq += (points[:, j] - q[:, j:j + 1]) ** 2
            sq.sort(axis=1)
            for i, h2 in enumerate(h2s):
                e = sq[:, ::-1] / (-2.0 * h2)
                # A row whose greatest exponent is -inf has density 0; the
                # log-sum-exp's shift by that max would take -inf - -inf.
                zero = e[:, -1] == -np.inf
                e[zero] = 0.0
                lse = _lse_parts(e, e[:, -1:])[0]
                lse[zero] = -np.inf
                out[i, start:start + step] = lse
                del e
            # Freed here, not on rebinding: the pass then holds at most three
            # (rows, n) buffers at a time.
            del sq
    for i, h2 in enumerate(h2s):
        out[i] -= np.log(n)
        out[i] -= 0.5 * d * np.log(2.0 * np.pi * h2)
    return out


def plugin_ratio(kde_source, kde_target, X, bounds=DEFAULT_RATIO_BOUNDS):
    """Clamped exp(log p_s(x) - log p_t(x)) at each row x of the (m, d)
    matrix X, an (m,) array. A row where both densities are 0 has no ratio
    and is a ContractError."""
    if kde_source.dim != kde_target.dim:
        raise ContractError("source and target KDE dims differ")
    log_s, log_t = kde_log_density(kde_source, X), kde_log_density(kde_target, X)
    both = np.flatnonzero((log_s == -np.inf) & (log_t == -np.inf))
    if both.size:
        raise ContractError(f"query row {both[0]} has density 0 under both KDEs: no ratio")
    return clamp_ratio(log_s - log_t, bounds)[0]


def _train_frozen_feature_model(Phi, ys, ratios, class_count):
    """Robust classifier on the identity map, fit to the source feature rows
    Phi at fixed ratios. run_plugin_simulation passes the inputs with a
    constant 1 appended, so theta carries a bias.

    Minimizes the convex r = 0 objective
    J(theta) = mean_i (log Z_i / R_i - theta_{y_i} . phi_i), whose logits are
    R_i theta . phi_i, by Newton's method from theta = 0. The gradient is
    grad_source's; the Hessian is built from the probabilities it returns.
    Each step is halved, at most _FIT_HALVINGS - 1 times, until J falls by
    1e-4 of the predicted decrease less 1e-14 |J|: near the optimum J no
    longer resolves the gain of a step, and the allowance lets the
    quadratically convergent last steps through.
    The fit stops once the gradient norm is at most _FIT_RTOL (1e-9) times
    its norm at theta = 0, or after _FIT_MAX_STEPS (50) steps.
    """
    m = Phi.shape[1]
    clf = RobustClassifier(np.zeros((class_count, m)), identity_map(m), 0.0, DEFAULT_RATIO_BOUNDS)
    rows = np.arange(len(ys))

    def objective(theta):
        Z = Phi @ theta.T
        return float(np.mean(_lse_parts(ratios[:, None] * Z)[0] / ratios - Z[rows, ys]))

    g = grad_source(clf, (Phi, ys), ratios)
    tol = _FIT_RTOL * np.linalg.norm(g.grad_theta)
    J = objective(clf.theta)
    for _ in range(_FIT_MAX_STEPS):
        if np.linalg.norm(g.grad_theta) <= tol:
            break
        step = _newton_step(Phi, ratios / len(ys), g.probs, g.grad_theta)
        slope = float(np.sum(g.grad_theta * step))
        for t in 0.5 ** np.arange(_FIT_HALVINGS):
            J_new = objective(clf.theta + t * step)
            if J_new <= J + 1e-4 * t * slope + 1e-14 * abs(J):
                break
        clf.theta = clf.theta + t * step
        J = J_new
        g = grad_source(clf, (Phi, ys), ratios)
    return clf


def _newton_step(Phi, w, probs, grad_theta):
    """Minimum-norm solution of H step = -grad_theta for the (C m)^2 Hessian
    H = sum_i w_i (diag f_i - f_i f_i^T) kron phi_i phi_i^T.

    Adding one vector to every class row leaves J unchanged, so H is singular,
    and more so when the rows of Phi do not span the feature space. The step
    inverts H on its eigenvalues above C m eps times the largest.
    """
    C, m = grad_theta.shape
    S = -probs[:, :, None] * probs[:, None, :]
    S[:, np.arange(C), np.arange(C)] += probs
    H = np.einsum("n,ncd,na,nb->cadb", w, S, Phi, Phi).reshape(C * m, C * m)
    evals, V = np.linalg.eigh(H)
    keep = evals > evals[-1] * C * m * np.finfo(float).eps
    V = V[:, keep]
    return -(V @ ((V.T @ grad_theta.ravel()) / evals[keep])).reshape(C, m)


def run_plugin_simulation(spec, bandwidths):
    """Score plug-in ratios per bandwidth: held-out log-likelihoods of the two
    KDEs, and the target log loss of a frozen-feature robust classifier
    trained with those ratios on the inputs with a constant 1 appended.
    The KDEs fit 80 % of each domain (split at spec.seed + 1) and score the
    rest; ratios are clamped to the default bounds.

    Returns one row per bandwidth:
    {h, ll_source, ll_target, target_logloss}.
    """
    bandwidths = [check_bandwidth(h) for h in bandwidths]
    if not bandwidths:
        raise ContractError("need at least one bandwidth")
    source, target = generate_gaussian_shift(spec)
    rng = np.random.default_rng(spec.seed + 1)
    tr_s, ho_s = split_indices(len(source), 0.8, rng)
    tr_t, ho_t = split_indices(len(target), 0.8, rng)
    Xs, ys, Xt, yt = source.X, source.y, target.X, target.y
    Xs_b, Xt_b = (np.hstack([X, np.ones((len(X), 1))]) for X in (Xs, Xt))

    # One density pass per KDE over every row, for every bandwidth: the
    # held-out log-likelihoods and both domains' ratios are row subsets of
    # it. KdeModel checks each domain's points.
    P_s = KdeModel(Xs[tr_s], bandwidths[0]).points
    P_t = KdeModel(Xt[tr_t], bandwidths[0]).points
    X_all = np.vstack([Xs, Xt])
    log_s_all = _log_densities(P_s, X_all, bandwidths)
    log_t_all = _log_densities(P_t, X_all, bandwidths)
    n_s = len(Xs)
    rows = []
    for h, log_s, log_t in zip(bandwidths, log_s_all, log_t_all):
        ratios, _ = clamp_ratio(log_s - log_t, DEFAULT_RATIO_BOUNDS)
        clf = _train_frozen_feature_model(Xs_b, ys, ratios[:n_s], source.class_count)
        probs, _ = predict_proba(clf, Xt_b, ratios[n_s:])
        rows.append({
            "h": h,
            "ll_source": float(np.mean(log_s[ho_s])),
            "ll_target": float(np.mean(log_t[n_s + ho_t])),
            "target_logloss": float(_nll_at(probs, yt).mean()),
        })
    return rows
