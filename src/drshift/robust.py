"""Density-ratio-weighted robust classifier and its end-to-end training loop.

The predictor scales each class score theta_y . phi(x) by the source/target
density ratio R before the softmax, so inputs far from the source support
(R -> 0) fall back toward the uniform distribution. A class-regularization
strength r smooths the prediction further; in test mode it acts exactly
like temperature scaling with temperature 1 + r.

Training minimizes the maximum-entropy dual
E_t[log Z_theta(x)] - sum_y theta_y . c_y over theta and the feature
parameters. By a change of measure the gradient of the target expectation
becomes a source expectation, so no target labels ever enter the updates:
grad theta_y = E_s[(f_y(x) - 1{y=y_i}) phi(x)].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .calibration import _lse_parts
from .domain import (
    DEFAULT_RATIO_BOUNDS,
    DomainClassifier,
    _bce_from_logits,
    _bce_logit_upstream,
    _density_logit_upstream,
    clamp_ratio,
    domain_ratios,
)
from .errors import ConfigError, ContractError, DivergenceError, _one_per_row
from .features import (
    FeatureGradient,
    _blocked_head,
    _feature_map_doc,
    _forward_activations,
    feature_backward_batch,
    feature_forward_batch,
    feature_map_from_json,
    init_mlp,
)


@dataclass
class Prediction:
    probs: np.ndarray
    log_partition: float


@dataclass
class RobustClassifier:
    theta: np.ndarray  # (C, m) class weights
    feature_map: object
    r: float = 0.0
    ratio_bounds: tuple = DEFAULT_RATIO_BOUNDS

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 2:
            raise ConfigError("theta must be a (class_count, feature_dim) matrix")
        if not np.isfinite(self.theta).all():
            raise ConfigError("theta must be finite")
        if self.theta.shape[1] != self.feature_map.out_dim:
            raise ConfigError(
                f"theta has {self.theta.shape[1]} columns but the feature map outputs "
                f"{self.feature_map.out_dim}"
            )
        if not 0.0 <= self.r <= 1.0:
            raise ConfigError("r must lie in [0, 1]")

    @property
    def class_count(self):
        return self.theta.shape[0]

    def copy(self):
        return RobustClassifier(
            self.theta.copy(), self.feature_map.copy(), self.r, tuple(self.ratio_bounds)
        )


@dataclass
class TrainConfig:
    lr_domain: float = 0.1
    lr_model: float = 0.1
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 30
    domain_update_period: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.lr_domain <= 0 or self.lr_model <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or self.domain_update_period < 1:
            raise ConfigError("batch_size >= 1, epochs >= 0, domain_update_period >= 1 required")


@dataclass
class SourceGradient:
    grad_theta: np.ndarray  # (C, m)
    feature_grad: FeatureGradient
    probs: np.ndarray  # (n, C) train-mode predictions at the batch labels


def default_classifier(dim, class_count, seed=0, r=0.0, hidden=(16,), feature_dim=16,
                       ratio_bounds=DEFAULT_RATIO_BOUNDS):
    fmap = init_mlp(dim, hidden, feature_dim, seed)
    return RobustClassifier(np.zeros((class_count, feature_dim)), fmap, r, ratio_bounds)


def class_scores(clf, X):
    """Raw per-class scores theta . phi(x) for a batch, shape (n, C),
    computed in row blocks (features._blocked_head)."""
    return _blocked_head(clf.feature_map, X, lambda phi: phi @ clf.theta.T)


def _check_ratios(clf, ratios, n):
    """ratios as a 1-D float array, or ContractError unless it holds one ratio
    within clf.ratio_bounds for each of the n rows."""
    lo, hi = clf.ratio_bounds
    ratios = _one_per_row(np.atleast_1d(np.asarray(ratios, dtype=float)), n, "ratio")
    # Written so that a NaN ratio fails too: every comparison with NaN is false.
    if n and not (lo <= ratios.min() and ratios.max() <= hi):
        raise ContractError(f"ratio outside bounds [{lo}, {hi}]")
    return ratios


def _row_weights(weights, n):
    """Per-row weights as a float array, 1/n each when weights is None, or
    ContractError unless there is one weight for each of the n rows."""
    if weights is None:
        return np.full(n, 1.0 / n)
    return _one_per_row(np.asarray(weights, dtype=float), n, "weight")


def _require_finite(values, what, epoch=None):
    """values unchanged, or DivergenceError if training drove them non-finite.

    The trainers apply this to every ratio they read back from the domain
    net and to theta after each model step, so a diverged state surfaces as
    a divergence at that step rather than as the ContractError that
    _check_ratios raises on a NaN ratio.
    """
    if not np.isfinite(values).all():
        where = "" if epoch is None else f" at epoch {epoch}"
        raise DivergenceError(f"non-finite {what}{where}", state={"epoch": epoch})
    return values


def _softmax_lse(logits):
    """Row-wise softmax and log-sum-exp of an (n, C) array, from the one
    shifted exp of calibration's log-sum-exp."""
    lse, e, s = _lse_parts(logits)
    return e / s, lse


def predict(clf, x, ratio, train_label=None):
    """Robust prediction for one input at a given density ratio: row 0 of
    predict_proba on the one-row batch x.

    In train mode (train_label = y*) the class logits are
    (R z_y + r 1{y=y*}) / (r 1{y=y*} + 1) with z_y = theta_y . phi(x).
    In test mode the indicator is all-ones, which collapses to
    softmax(R z / (1 + r)); that form is used verbatim so the temperature
    identity holds exactly. With r = 0 the two modes coincide.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (clf.feature_map.in_dim,):
        raise ConfigError(f"expected input of dim {clf.feature_map.in_dim}, got shape {x.shape}")
    if train_label is not None and not 0 <= train_label < clf.class_count:
        raise ContractError(f"train label {train_label} outside [0, {clf.class_count})")
    labels = None if train_label is None else [train_label]
    probs, lse = predict_proba(clf, x[None, :], ratio, labels)
    return Prediction(probs[0], float(lse[0]))


def predict_proba(clf, X, ratios, labels=None):
    """Vectorized prediction; returns (probs (n, C), log-partition (n,))."""
    Z = class_scores(clf, X)
    return _predict_from_scores(clf, Z, _check_ratios(clf, ratios, Z.shape[0]), labels)


def _nll_at(probs, labels):
    """Per-row negative log-probability of the given labels, clipped at 1e-300."""
    return -np.log(np.maximum(probs[np.arange(probs.shape[0]), labels], 1e-300))


def _logits(clf, Z, ratios, labels=None):
    """Ratio-scaled logits of raw class scores Z (n, C): test mode
    R z / (1 + r) when labels is None, else train mode at the labels, where
    only the label entries differ from R z: they are (R z_y + r) / (r + 1)."""
    if labels is None:
        return ratios[:, None] * Z / (1.0 + clf.r)
    L = ratios[:, None] * Z
    n = Z.shape[0]
    at = (np.arange(n), _one_per_row(np.asarray(labels, dtype=int), n, "label"))
    L[at] = (L[at] + clf.r) / (clf.r + 1.0)
    return L


def _predict_from_scores(clf, Z, ratios, labels=None):
    """predict_proba from raw class scores Z (n, C) and checked ratios."""
    return _softmax_lse(_logits(clf, Z, ratios, labels))


def feature_constraint(fmap, X, y, class_count, weights=None):
    """Empirical feature-matching constraint from labeled source data: the
    (C, m) matrix c_y = sum_i w_i 1{y_i=y} phi(x_i), weights defaulting to 1/n."""
    return _constraint_from_features(feature_forward_batch(fmap, X), y, class_count, weights)


def _constraint_from_features(Phi, y, class_count, weights=None):
    n = Phi.shape[0]
    w = _row_weights(weights, n)
    c = np.zeros((class_count, Phi.shape[1]))
    y = _one_per_row(np.asarray(y, dtype=int), n, "label")
    for cls in range(class_count):
        mask = y == cls
        if mask.any():
            c[cls] = (w[mask][:, None] * Phi[mask]).sum(axis=0)
    return c


def dual_objective(clf, X, ratios, constraint):
    """Mean target log-partition minus the constraint term (the unregularized dual)."""
    if len(X) == 0:
        raise ContractError("dual_objective needs at least one target input")
    ratios = _check_ratios(clf, ratios, len(X))
    Z = class_scores(clf, X)
    _, logZ = _softmax_lse(ratios[:, None] * Z)
    return float(logZ.mean() - np.sum(clf.theta * constraint))


def grad_source(clf, batch, ratios, weights=None):
    """Source-measure gradient of the dual in theta and the feature parameters.

    batch is an (X, y) pair. Per sample, f is the train-mode prediction at
    label y_i, and grad theta_y = sum_i w_i (f_y(x_i) - 1{y_i=y}) phi(x_i);
    the per-sample feature upstream is u_i = sum_y (f_y(x_i) - 1{y_i=y})
    theta_y. Weights default to 1/n. For r = 0 these are exactly the
    change-of-measure gradients of dual_objective.
    """
    X, y = np.asarray(batch[0], dtype=float), np.asarray(batch[1], dtype=int)
    n = X.shape[0]
    if n == 0:
        raise ContractError("grad_source needs at least one source row")
    ratios = _check_ratios(clf, ratios, n)
    w = _row_weights(weights, n)

    acts = _forward_activations(clf.feature_map, X)
    probs, _ = _predict_from_scores(clf, acts[-1] @ clf.theta.T, ratios, y)
    diff = probs.copy()
    diff[np.arange(n), y] -= 1.0
    return SourceGradient(*_score_gradient(clf, acts, diff, w), probs)


def _score_gradient(clf, acts, G, w):
    """(grad theta, feature gradient) of sum_i w_i G_i . theta phi(x_i), for a
    per-row class-score upstream G (n, C) and the activations acts of a
    forward pass over the n rows; the feature upstreams are G theta."""
    grad_theta = (G * w[:, None]).T @ acts[-1]
    fgrad = feature_backward_batch(clf.feature_map, acts[0], G @ clf.theta, weights=w, acts=acts)
    return grad_theta, fgrad


def _ratios(dom, X, epoch=None):
    """Ratios the trainers read for the rows of X: ones when dom is None,
    else the domain net's clamped ratios, which must be finite."""
    if dom is None:
        return np.ones(X.shape[0])
    return _require_finite(domain_ratios(dom, X)[0], "density ratios", epoch)


def target_predictions(clf, dom, dataset):
    """Test-mode probabilities and per-sample ratios over a whole dataset;
    dom=None means unit ratios."""
    ratios = _ratios(dom, dataset.X)
    probs, _ = predict_proba(clf, dataset.X, ratios)
    return probs, ratios


# ---------------------------------------------------------------------------
# Optimizers


def _flat(theta, layers):
    """[theta, W_1, b_1, ..., W_L, b_L]: theta and a map's per-layer pairs."""
    return [theta, *(a for layer in layers for a in layer)]


class _Momentum:
    """Classic momentum SGD over theta plus the feature-map layers.

    Building it copies clf's theta and layer arrays into one flat parameter
    vector and puts views of that vector in their place, values unchanged,
    so clf must own its arrays. step flattens the gradients in the same
    order and updates the flat velocity and parameters in place,
    v <- mu v + g then p <- p - lr v: three array operations per step,
    whatever the number of layers.
    """

    def __init__(self, clf, lr, momentum):
        self.lr = lr
        self.mu = momentum
        arrays = _flat(clf.theta, clf.feature_map.layers)
        self.params = np.concatenate(arrays, axis=None)
        self.velocity = np.zeros_like(self.params)
        views, start = [], 0
        for a in arrays:
            views.append(self.params[start:start + a.size].reshape(a.shape))
            start += a.size
        clf.theta = views[0]
        clf.feature_map.layers = list(zip(views[1::2], views[2::2]))

    def step(self, grad_theta, fgrad):
        self.velocity *= self.mu
        self.velocity += np.concatenate(_flat(grad_theta, fgrad.layers), axis=None)
        self.params -= self.lr * self.velocity


def _sgd_step(fmap, fgrad, lr):
    """One in-place SGD step p <- p - lr g on fmap's parameter arrays."""
    for (W, b), (dW, db) in zip(fmap.layers, fgrad.layers):
        W -= lr * dW
        b -= lr * db


# ---------------------------------------------------------------------------
# Trainers


def _domain_gradient(clf, dom, Xb_s, is_source_s, Xb_t):
    """Domain-net gradient of one domain step: BCE plus the chained density term.

    It descends F_r = 1/2 mean_s BCE(a, t) + 1/2 mean_t BCE(a, 0)
    + (1 + r) mean_t log sum_y exp(R z_y / (1 + r)): a the domain logit, t
    the source tags, z_y the class scores and R = exp(a) clamped to the
    ratio bounds, constant (so zero density upstream) on clamped rows.
    Acceptance criterion 2 differences F_r at every recipe's r and bounds.

    One forward pass over X_dom = [Xb_s; Xb_t] gives the BCE logits and the
    target ratios, and one backward pass takes the combined logit upstream:
    the BCE term divided by 2 n_s on the source rows and by 2 n_t on the
    target rows, plus the density term divided by n_t on the target rows.
    Weighting the two halves equally keeps the prior n_s/n_t out of the
    learned ratio when their sizes differ. The result equals half the mean
    BCE gradient of each half plus density_chain_gradient over Xb_t.
    """
    n_s, n_t = Xb_s.shape[0], Xb_t.shape[0]
    X_dom = np.vstack([Xb_s, Xb_t])
    acts = _forward_activations(dom.net, X_dom)
    z = acts[-1][:, 0]
    ratio_t, clamped_t = clamp_ratio(z[n_s:], dom.ratio_bounds)
    ratio_t = _check_ratios(clf, _require_finite(ratio_t, "density ratios"), n_t)
    Z_t = class_scores(clf, Xb_t)
    probs_t, _ = _predict_from_scores(clf, Z_t, ratio_t)
    t_dom = np.concatenate([is_source_s, np.zeros(n_t)])
    dz = _bce_logit_upstream(z, t_dom)
    dz[:n_s] /= 2 * n_s
    dz[n_s:] /= 2 * n_t
    dz[n_s:] += _density_logit_upstream(Z_t, probs_t, ratio_t, clamped_t) / n_t
    w = np.ones(n_s + n_t)
    return feature_backward_batch(dom.net, X_dom, dz[:, None], weights=w, acts=acts)


def _train_loop(clf, dom, cfg, plan, model_gradient, epoch_record):
    """The update rule every trainer shares, run on copies of clf and dom;
    returns (clf, dom, history).

    Each epoch, plan(rng) yields the batches (Xs_rest, Xb_s, yb_s, tb_s,
    Xb_t), with rng seeded by cfg.seed: the source-side inputs Xs_rest of
    this batch and of the epoch's batches after it, in the order the plan
    serves them, the batch's own source-side inputs Xb_s (the first rows of
    Xs_rest), labels yb_s and domain tags tb_s, which the domain step reads,
    and the target-side inputs Xb_t. Every domain_update_period-th batch,
    unless dom is None, the domain net takes one SGD step on
    _domain_gradient. Every batch theta and the feature parameters take one
    momentum-SGD step on the (grad theta, feature gradient) pair of
    model_gradient(clf, dom, step, Xs_rest, Xb_s, yb_s, Xb_t, epoch), where
    step counts the batches before this one over all epochs, after which a
    non-finite theta raises DivergenceError. epoch_record(clf, dom, epoch)
    gives the epoch's history record.

    The optimizer steps update the parameter arrays of these copies in
    place (_Momentum makes the model copy's arrays views of its flat
    parameter vector); the caller's clf and dom are never written.
    """
    clf = clf.copy()
    dom = dom.copy() if dom is not None else None
    rng = np.random.default_rng(cfg.seed)
    opt = _Momentum(clf, cfg.lr_model, cfg.momentum)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        for Xs_rest, Xb_s, yb_s, tb_s, Xb_t in plan(rng):
            if dom is not None and step % cfg.domain_update_period == 0:
                g_dom = _domain_gradient(clf, dom, Xb_s, tb_s, Xb_t)
                _sgd_step(dom.net, g_dom, cfg.lr_domain)
            opt.step(*model_gradient(clf, dom, step, Xs_rest, Xb_s, yb_s, Xb_t, epoch))
            _require_finite(clf.theta, "theta", epoch)
            step += 1
        history.append(epoch_record(clf, dom, epoch))
    return clf, dom, history


def _batch_plan(source, target, batch_size):
    """plan for _train_loop: each epoch one permutation of the source and,
    unless target is None, one of the target, gathered once and cut into
    equal batches (views of the gathered rows). A batch's Xs_rest runs
    from its first source row to the last row of the epoch's last batch."""
    Xs, ys, ts = source.X, source.y, source.is_source
    Xt = None if target is None else target.X
    n_s = len(source)
    n_t = n_s if Xt is None else len(Xt)
    bs = min(batch_size, n_s, n_t)
    n_batches = max(1, min(n_s, n_t) // bs)
    end = n_batches * bs

    def plan(rng):
        perm_s = rng.permutation(n_s)
        Xs_p, ys_p, ts_p = Xs[perm_s], ys[perm_s], ts[perm_s]
        Xt_p = None if Xt is None else Xt[rng.permutation(n_t)]
        for b in range(n_batches):
            lo, hi = b * bs, (b + 1) * bs
            yield (Xs_p[lo:end], Xs_p[lo:hi], ys_p[lo:hi], ts_p[lo:hi],
                   None if Xt_p is None else Xt_p[lo:hi])

    return plan


def train_end_to_end(source, target, clf, dom, cfg):
    """Alternating updates of the domain classifier and the robust model.

    Each batch draws equal sample counts from source and target. Every
    domain_update_period-th batch the domain net takes one SGD step on the
    cross-entropy gradient plus the density gradients chained from the
    robust objective over the batch's target samples; every batch theta and
    the feature parameters take one momentum-SGD step on grad_source with
    ratios read from the (just updated) domain classifier. With dom=None
    the ratio path is muted: all ratios are 1 and there is no domain step.

    Returns copies of the models; the inputs are not mutated. History holds
    one record per epoch with the dual objective, domain BCE, and source
    accuracy, all evaluated on the full datasets. A non-finite theta, dual
    or density ratio raises DivergenceError.
    """
    Xs, ys, Xt = source.X, source.y, target.X
    n_s = Xs.shape[0]

    def record(clf, dom, epoch):
        if dom is None:
            ratios_s, ratios_t, bce = np.ones(n_s), np.ones(Xt.shape[0]), float("nan")
        else:
            ratios, _, z = domain_ratios(dom, np.vstack([Xs, Xt]))
            ratios = _require_finite(ratios, "density ratios")
            ratios_s, ratios_t = ratios[:n_s], ratios[n_s:]
            bce = _bce_from_logits(z, np.concatenate([source.is_source, np.zeros(Xt.shape[0])]))
        Phi_s = feature_forward_batch(clf.feature_map, Xs)
        constraint = _constraint_from_features(Phi_s, ys, clf.class_count)
        dual = dual_objective(clf, Xt, ratios_t, constraint)
        probs_s, _ = _predict_from_scores(clf, Phi_s @ clf.theta.T,
                                          _check_ratios(clf, ratios_s, n_s))
        acc = float((probs_s.argmax(axis=1) == ys).mean())
        if not np.isfinite(dual):
            raise DivergenceError(f"non-finite training state at epoch {epoch}",
                                  state={"epoch": epoch, "dual": dual, "bce": bce})
        return {"epoch": epoch, "dual": dual, "bce": bce, "source_accuracy": acc}

    return _train_pass(source, target, clf, dom, cfg, record)


def _train_pass(source, target, clf, dom, cfg, record=None):
    """The training of train_end_to_end with record as the epoch_record of
    _train_loop; returns (clf, dom, history).

    The model gradient is grad_source at the domain net's ratios (ones when
    dom is None). One domain-net pass reads the ratios of the source rows
    of the batches from a domain step, or from the start of an epoch, up
    to the next domain step or the end of the epoch: at most
    domain_update_period batches. Each batch takes its slice of that read,
    so each epoch reads every source row it trains on once, as a read per
    batch would. A row's ratio depends on that row alone, so the values
    are those of a read per batch. The bits are too only if the domain
    net's matmuls give a row the same result whatever the number of rows
    in the pass; the golden tests of tests/test_core.py check that on the
    numpy and BLAS they run with.

    The default record keeps no history (None per epoch) and evaluates only
    the check a diverged model trips: the dual objective over the target,
    at the domain net's target ratios and the constraint of this pass's
    source, raising DivergenceError when it is not finite. Callers that
    discard the history train with it.
    """
    if not source.labeled:
        raise ContractError("source dataset must be labeled")
    if record is None:
        def record(clf, dom, epoch):
            constraint = feature_constraint(clf.feature_map, source.X, source.y, clf.class_count)
            dual = dual_objective(clf, target.X, _ratios(dom, target.X, epoch), constraint)
            if not np.isfinite(dual):
                raise DivergenceError(f"non-finite training state at epoch {epoch}",
                                      state={"epoch": epoch, "dual": dual})

    ratios, used, ratios_epoch = None, 0, None

    def model_gradient(clf, dom, step, Xs_rest, Xb_s, yb_s, Xb_t, epoch):
        nonlocal ratios, used, ratios_epoch
        n, k = len(Xb_s), step % cfg.domain_update_period
        if k == 0 or epoch != ratios_epoch:
            ratios = _ratios(dom, Xs_rest[:(cfg.domain_update_period - k) * n], epoch)
            used, ratios_epoch = 0, epoch
        g = grad_source(clf, (Xb_s, yb_s), ratios[used:used + n])
        used += n
        return g.grad_theta, g.feature_grad

    plan = _batch_plan(source, target, cfg.batch_size)
    return _train_loop(clf, dom, cfg, plan, model_gradient, record)


def train_erm(source, cfg, clf=None):
    """Plain softmax cross-entropy SGD on source data (the unit-ratio baseline)."""
    if clf is None:
        clf = default_classifier(source.dim, source.class_count, seed=cfg.seed)

    def record(clf, dom, epoch):
        y = source.y
        probs, _ = predict_proba(clf, source.X, np.ones(len(y)))
        ce = float(_nll_at(probs, y).mean())
        acc = float((probs.argmax(axis=1) == y).mean())
        if not np.isfinite(ce):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", state={"epoch": epoch})
        return {"epoch": epoch, "ce_loss": ce, "accuracy": acc}

    clf, _, history = _train_pass(source, None, replace(clf, r=0.0), None, cfg, record)
    return clf, history


# ---------------------------------------------------------------------------
# Checkpoints


def checkpoint_to_json(clf, dom=None, config=None):
    """Bundle theta, feature map, domain net, r, and bounds into JSON text."""
    doc = {
        "theta": [[float(v) for v in row] for row in clf.theta],
        "feature_map": _feature_map_doc(clf.feature_map),
        "r": float(clf.r),
        "ratio_bounds": [float(clf.ratio_bounds[0]), float(clf.ratio_bounds[1])],
        "domain": None,
        "config": config,
    }
    if dom is not None:
        doc["domain"] = {
            "net": _feature_map_doc(dom.net),
            "ratio_bounds": [float(dom.ratio_bounds[0]), float(dom.ratio_bounds[1])],
        }
    return json.dumps(doc)


def checkpoint_from_json(text):
    doc = json.loads(text) if isinstance(text, str) else text
    clf = RobustClassifier(
        np.array(doc["theta"], dtype=float),
        feature_map_from_json(doc["feature_map"]),
        doc["r"],
        tuple(doc["ratio_bounds"]),
    )
    dom = None
    if doc.get("domain") is not None:
        dom = DomainClassifier(
            feature_map_from_json(doc["domain"]["net"]),
            tuple(doc["domain"]["ratio_bounds"]),
        )
    return clf, dom, doc.get("config")
