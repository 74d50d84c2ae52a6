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

from .calibration import _exp_parts, _lse_parts
from .domain import (
    DomainClassifier,
    _bce_from_logits,
    _bce_logit_upstream,
    _density_logit_upstream,
    clamp_ratio,
    domain_ratios,
)
from .errors import (ConfigError, ContractError, DivergenceError, _check_num, _class_labels,
                     _finite_rows, _one_per_row)
from .features import (
    _blocked_head,
    _feature_map_doc,
    _forward_activations,
    _input_rows,
    feature_backward_batch,
    feature_forward_batch,
    feature_map_from_json,
    init_mlp,
)

DEFAULT_RATIO_BOUNDS = (1e-3, 1e3)


def _check_ratio_bounds(bounds):
    """bounds as a (min, max) tuple of floats, or ConfigError unless it is a
    pair of finite numbers with 0 < min < max."""
    if not isinstance(bounds, (tuple, list, np.ndarray)) or len(bounds) != 2:
        raise ConfigError(f"ratio_bounds: expected [min, max], got {bounds!r}")
    lo, hi = (_check_num(b, "ratio_bounds") for b in bounds)
    if not 0 < lo < hi:
        raise ConfigError(f"ratio_bounds: must satisfy 0 < min < max, got [{lo}, {hi}]")
    return lo, hi


@dataclass(eq=False)
class RobustClassifier:
    """Class weights theta over a feature map, with the class-regularization
    strength r and the bounds its ratios lie in, which clamp the domain net's.

    == is identity. Two classifiers have equal parameters when
    np.array_equal(a.theta, b.theta) and their feature maps' params are
    array-equal.
    """

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
        self.r = _check_num(self.r, "r", ge=0, le=1)
        self.ratio_bounds = _check_ratio_bounds(self.ratio_bounds)

    @property
    def class_count(self):
        return self.theta.shape[0]

    def copy(self):
        return RobustClassifier(
            self.theta.copy(), self.feature_map.copy(), self.r, self.ratio_bounds
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
        self.lr_domain = _check_num(self.lr_domain, "lr_domain", gt=0)
        self.lr_model = _check_num(self.lr_model, "lr_model", gt=0)
        self.momentum = _check_num(self.momentum, "momentum", ge=0, lt=1)
        self.batch_size = _check_num(self.batch_size, "batch_size", ge=1, integer=True)
        self.epochs = _check_num(self.epochs, "epochs", ge=0, integer=True)
        self.domain_update_period = _check_num(self.domain_update_period, "domain_update_period",
                                               ge=1, integer=True)
        self.seed = _check_num(self.seed, "seed", ge=0, integer=True)


@dataclass
class SourceGradient:
    grad_theta: np.ndarray  # (C, m)
    feature_grad: np.ndarray  # laid out like the feature map's params
    probs: np.ndarray  # (n, C) train-mode predictions at the batch labels


def default_classifier(dim, class_count, seed=0, r=0.0, hidden=(16,), feature_dim=16,
                       ratio_bounds=DEFAULT_RATIO_BOUNDS):
    feature_dim = _check_num(feature_dim, "feature_dim", ge=1, integer=True)
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
    ratios = _one_per_row(np.asarray(ratios, dtype=float), n, "ratio")
    # Written so that a NaN ratio fails too: every comparison with NaN is false.
    if n and not (lo <= np.minimum.reduce(ratios) and np.maximum.reduce(ratios) <= hi):
        raise ContractError(f"ratio outside bounds [{lo}, {hi}]")
    return ratios


def _row_weights(weights, n):
    """Per-row weights as a float array, 1/n each when weights is None, or
    ContractError unless there is one finite weight for each of the n rows."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = _one_per_row(np.asarray(weights, dtype=float), n, "weight")
    _finite_rows(w[:, None], "weight")
    return w


def _require_finite(values, what, epoch=None):
    """values unchanged, or DivergenceError if training drove them non-finite.

    The trainers apply this to every ratio they read back from the domain
    net and to theta after each model step, so a diverged state surfaces as
    a divergence at that step rather than as the ContractError that
    _check_ratios raises on a NaN ratio.
    """
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        where = "" if epoch is None else f" at epoch {epoch}"
        raise DivergenceError(f"non-finite {what}{where}", state={"epoch": epoch})
    return values


def _softmax_lse(logits):
    """Row-wise softmax and log-sum-exp of an (n, C) array, from the one
    shifted exp of calibration's log-sum-exp, divided in place."""
    lse, e, s = _lse_parts(logits)
    e /= s
    return e, lse


def _softmax(logits):
    """The probabilities of _softmax_lse, bitwise, for callers that would
    discard its log-sum-exp."""
    _, e, s = _exp_parts(logits)
    e /= s
    return e


def predict_proba(clf, X, ratios, labels=None):
    """Robust predictions for the rows of X at their density ratios, in test
    mode or, given one label in [0, C) per row, in train mode (see _logits);
    returns (probs (n, C), log-partition (n,))."""
    Z = class_scores(clf, X)
    return _predict_from_scores(clf, Z, _check_ratios(clf, ratios, Z.shape[0]), labels)


def _nll_at(probs, labels):
    """Per-row negative log-probability of the given labels (_nll)."""
    return _nll(probs[np.arange(probs.shape[0]), labels])


def _nll(f):
    """Negative log of each probability in f, clipped at 1e-300."""
    return -np.log(np.maximum(f, 1e-300))


def _logits(clf, Z, ratios, labels=None):
    """Ratio-scaled logits of raw class scores Z (n, C): test mode
    R z / (1 + r), verbatim so the temperature identity is exact, when labels
    is None, else train mode (_train_logits) at the labels, which are checked
    here as _class_labels checks them. At r = 0 the two modes coincide."""
    if labels is None:
        L = ratios[:, None] * Z
        L /= 1.0 + clf.r
        return L
    n, C = Z.shape
    return _train_logits(clf, Z, ratios, _label_entries(_class_labels(labels, n, C), C))


def _train_logits(clf, Z, ratios, at):
    """Train-mode logits of raw class scores Z (n, C) at the flat label
    entries at (_label_entries of checked labels): only those entries differ
    from R z; they are (R z_y + r) / (r + 1)."""
    L = ratios[:, None] * Z
    L.put(at, (L.take(at) + clf.r) / (clf.r + 1.0))
    return L


def _label_entries(y, C):
    """Flat indices of the entries (i, y_i) of an (n, C) array, for take and
    put, which cost less than the (rows, labels) index pair."""
    return np.arange(0, y.shape[0] * C, C) + y


def _predict_from_scores(clf, Z, ratios, labels=None):
    """predict_proba from raw class scores Z (n, C) and checked ratios."""
    return _softmax_lse(_logits(clf, Z, ratios, labels))


def feature_constraint(fmap, X, y, class_count, weights=None):
    """Empirical feature-matching constraint from labeled source data: the
    (C, m) matrix c_y = sum_i w_i 1{y_i=y} phi(x_i), weights defaulting to 1/n."""
    Phi = feature_forward_batch(fmap, X)
    w = _row_weights(weights, Phi.shape[0])
    return _constraint_from_features(Phi, w, _class_rows(y, Phi.shape[0], class_count))


def _class_rows(y, n, class_count):
    """Per class in [0, class_count), the ascending indices of its rows among
    the n labels y, which are checked as _class_labels checks them."""
    y = _class_labels(y, n, class_count)
    return [np.flatnonzero(y == cls) for cls in range(class_count)]


def _constraint_from_features(Phi, w, class_rows):
    """feature_constraint from the features Phi (n, m), the per-row weights w
    and each class's rows (_class_rows). Each class's row sums its weighted
    features in row order, as the masked sum over the class's rows does,
    and a class with no rows gets zeros."""
    c = np.empty((len(class_rows), Phi.shape[1]))
    for cls, rows in enumerate(class_rows):
        wPhi = Phi.take(rows, axis=0)
        wPhi *= w.take(rows)[:, None]
        np.add.reduce(wPhi, axis=0, out=c[cls])
    return c


def dual_objective(clf, X, ratios, constraint):
    """Mean target log-partition minus the constraint term (the unregularized dual)."""
    if len(X) == 0:
        raise ContractError("dual_objective needs at least one target input")
    ratios = _check_ratios(clf, ratios, len(X))
    Z = class_scores(clf, X)
    logZ = _lse_parts(ratios[:, None] * Z)[0]
    return float(logZ.mean() - np.sum(clf.theta * constraint))


def grad_source(clf, batch, ratios, weights=None, acts=None):
    """Source-measure gradient of the dual in theta and the feature parameters.

    batch is an (X, y) pair. Per sample, f is the train-mode prediction at
    label y_i, and grad theta_y = sum_i w_i (f_y(x_i) - 1{y_i=y}) phi(x_i);
    the per-sample feature upstream is u_i = sum_y (f_y(x_i) - 1{y_i=y})
    theta_y. Weights default to 1/n. For r = 0 these are exactly the
    change-of-measure gradients of dual_objective. acts, when given, holds
    the activations of a forward pass over X at the current parameters (from
    _forward_activations); otherwise the forward pass is run here.

    X must be an (n, d) matrix of the feature map's inputs (ConfigError
    otherwise) and acts must hold n rows. The labels are checked once, by
    _class_labels, and their flat entries (_label_entries) serve both the
    train-mode logits and the label terms of the gradient.
    """
    X = _input_rows(clf.feature_map, batch[0])
    n, C = X.shape[0], clf.class_count
    if n == 0:
        raise ContractError("grad_source needs at least one source row")
    at = _label_entries(_class_labels(batch[1], n, C), C)
    ratios = _check_ratios(clf, ratios, n)
    w = _row_weights(weights, n)

    if acts is None:
        acts = _forward_activations(clf.feature_map, X)
    elif acts[-1].shape[0] != n:
        raise ContractError(f"expected one activation row per row: {acts[-1].shape[0]} "
                            f"activation rows for {n} rows")
    probs = _softmax(_train_logits(clf, acts[-1] @ clf.theta.T, ratios, at))
    diff = probs.copy()
    diff.put(at, diff.take(at) - 1.0)
    return SourceGradient(*_score_gradient(clf, acts, diff, w), probs)


def _score_gradient(clf, acts, G, w):
    """(grad theta, feature gradient) of sum_i w_i G_i . theta phi(x_i), for a
    per-row class-score upstream G (n, C) and the activations acts of a
    forward pass over the n rows; the feature upstreams are G theta."""
    grad_theta = (G * w[:, None]).T @ acts[-1]
    fgrad = feature_backward_batch(clf.feature_map, acts[0], G @ clf.theta, weights=w, acts=acts)
    return grad_theta, fgrad


def _ratios(clf, dom, X, epoch=None):
    """Ratios the trainers read for the rows of X: ones when dom is None,
    else the domain net's, clamped to clf.ratio_bounds and checked finite."""
    if dom is None:
        return np.ones(X.shape[0])
    return _require_finite(domain_ratios(dom, X, clf.ratio_bounds)[0], "density ratios", epoch)


def target_predictions(clf, dom, dataset):
    """Test-mode probabilities and per-sample ratios over a whole dataset;
    dom=None means unit ratios."""
    ratios = _ratios(clf, dom, dataset.X)
    probs, _ = predict_proba(clf, dataset.X, ratios)
    return probs, ratios


# ---------------------------------------------------------------------------
# Optimizers


class _Momentum:
    """Classic momentum SGD over clf's theta and its feature map's params.

    step updates each of the two arrays in place with its own velocity,
    v <- mu v + g then p <- p - lr v, so the arrays clf holds are the ones
    that move. lr v goes into a scratch array of each parameter's shape.
    """

    def __init__(self, clf, lr, momentum):
        self.lr = lr
        self.mu = momentum
        self.params = (clf.theta, clf.feature_map.params)
        self.velocity = tuple(np.zeros_like(p) for p in self.params)
        self.scratch = tuple(np.empty_like(p) for p in self.params)

    def step(self, grad_theta, grad_features):
        for p, v, t, g in zip(self.params, self.velocity, self.scratch,
                              (grad_theta, grad_features)):
            v *= self.mu
            v += g
            np.multiply(self.lr, v, out=t)
            p -= t


# ---------------------------------------------------------------------------
# Trainers


def _domain_gradient(clf, dom, Xb_s, is_source_s, Xb_t):
    """Domain-net gradient of one domain step: BCE plus the chained density term.

    It descends F_r = 1/2 mean_s BCE(a, t) + 1/2 mean_t BCE(a, 0)
    + (1 + r) mean_t log sum_y exp(R z_y / (1 + r)): a the domain logit, t
    the source tags, z_y the class scores and R = exp(a) clamped to
    clf.ratio_bounds, constant (so zero density upstream) on clamped rows.
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
    ratio_t, clamped_t = clamp_ratio(z[n_s:], clf.ratio_bounds)
    _require_finite(ratio_t, "density ratios")
    Z_t = class_scores(clf, Xb_t)
    probs_t = _softmax(_logits(clf, Z_t, ratio_t))
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

    Each epoch, plan(rng), with rng seeded by cfg.seed, returns the epoch's
    B steps stacked on a leading step axis as (X, y, tags, Xt): X (B, n, d)
    holds each step's rows, whose ratios the step trains on; y (B, n_y) its
    labels; tags (B, k) the source tags of the domain step's source rows
    X[b, :k]; and Xt (B, m, d) the domain step's target rows, or None when
    there is no target. Every domain_update_period-th step, unless dom is
    None, the domain net takes one SGD step on _domain_gradient.

    The loop owns the ratio read (ones when dom is None). After each domain
    step, and at the start of each epoch, one domain-net pass reads the
    ratios of the rows X[b:b + period - k] of the steps up to the next
    domain step or the end of the epoch, checks them once against
    clf.ratio_bounds and stacks them per step, so an epoch reads each row it
    trains on once. A row's ratio depends on that row alone, so the values
    are those of a read per step. The bits are too only if the domain net's
    matmuls give a row the same result whatever the number of rows in the
    pass; the golden tests of tests/test_core.py check that on the numpy and
    BLAS they run with.

    Every step theta and the feature parameters then take one momentum-SGD
    step on the grad_theta and feature_grad of
    model_gradient(clf, (X[b], y[b]), ratios), ratios being the step's row
    of that read, as grad_source takes them; a non-finite theta after it
    raises DivergenceError. epoch_record(clf, dom, epoch) gives the epoch's
    history record.

    The optimizer steps update theta and the flat params of these copies
    in place; the caller's clf and dom are never written.
    """
    clf = clf.copy()
    dom = dom.copy() if dom is not None else None
    rng = np.random.default_rng(cfg.seed)
    opt = _Momentum(clf, cfg.lr_model, cfg.momentum)
    period = cfg.domain_update_period
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        X, y, tags, Xt = plan(rng)
        for b in range(len(X)):
            k = step % period
            if k == 0 and dom is not None:
                g_dom = _domain_gradient(clf, dom, X[b, :tags.shape[1]], tags[b], Xt[b])
                g_dom *= cfg.lr_domain
                dom.net.params -= g_dom
            if k == 0 or b == 0:
                first, rows = b, X[b:b + period - k]
                read = _ratios(clf, dom, rows.reshape(-1, rows.shape[2]), epoch)
                ratios = _check_ratios(clf, read, len(read)).reshape(len(rows), -1)
            g = model_gradient(clf, (X[b], y[b]), ratios[b - first])
            opt.step(g.grad_theta, g.feature_grad)
            _require_finite(clf.theta, "theta", epoch)
            step += 1
        history.append(epoch_record(clf, dom, epoch))
    return clf, dom, history


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
    w_s, rows_s = _source_rows(source, clf.class_count)
    X_st = np.vstack([Xs, Xt])
    t_st = np.concatenate([source.is_source, np.zeros(Xt.shape[0])])

    def record(clf, dom, epoch):
        if dom is None:
            ratios_s, ratios_t, bce = np.ones(n_s), np.ones(Xt.shape[0]), float("nan")
        else:
            ratios, _, z = domain_ratios(dom, X_st, clf.ratio_bounds)
            ratios = _require_finite(ratios, "density ratios")
            ratios_s, ratios_t = ratios[:n_s], ratios[n_s:]
            bce = _bce_from_logits(z, t_st)
        Phi_s = feature_forward_batch(clf.feature_map, Xs)
        constraint = _constraint_from_features(Phi_s, w_s, rows_s)
        dual = dual_objective(clf, Xt, ratios_t, constraint)
        probs_s = _softmax(_logits(clf, Phi_s @ clf.theta.T, ratios_s))
        acc = float((probs_s.argmax(axis=1) == ys).mean())
        if not np.isfinite(dual):
            raise DivergenceError(f"non-finite training state at epoch {epoch}",
                                  state={"epoch": epoch, "dual": dual, "bce": bce})
        return {"epoch": epoch, "dual": dual, "bce": bce, "source_accuracy": acc}

    return _train_pass(source, target, clf, dom, cfg, record)


def _source_rows(source, class_count):
    """(1/n weights, per-class rows) of a labeled source, as
    _constraint_from_features takes them; ContractError unless it is labeled."""
    if not source.labeled:
        raise ContractError("source dataset must be labeled")
    n = len(source)
    return _row_weights(None, n), _class_rows(source.y, n, class_count)


def _train_pass(source, target, clf, dom, cfg, record=None):
    """The training of train_end_to_end with record as the epoch_record of
    _train_loop; returns (clf, dom, history).

    Each epoch the plan draws one permutation of the source, then one of
    the target unless target is None, and stacks the first B * bs rows of
    each as B batches of bs. The model gradient is grad_source itself, at
    the ratios of the loop's read (ones when dom is None): each batch's
    source rows, read in one domain-net pass per domain period.

    The default record keeps no history (None per epoch) and evaluates only
    the check a diverged model trips: the dual objective over the target,
    at the domain net's target ratios and the constraint of this pass's
    source, raising DivergenceError when it is not finite. The source's
    checked labels, 1/n weights and per-class rows are the same every
    epoch, so it takes them once per pass. Callers that discard the history
    train with it.
    """
    if not source.labeled:
        raise ContractError("source dataset must be labeled")
    if record is None:
        w_s, rows_s = _source_rows(source, clf.class_count)

        def record(clf, dom, epoch):
            Phi_s = feature_forward_batch(clf.feature_map, source.X)
            constraint = _constraint_from_features(Phi_s, w_s, rows_s)
            dual = dual_objective(clf, target.X, _ratios(clf, dom, target.X, epoch), constraint)
            if not np.isfinite(dual):
                raise DivergenceError(f"non-finite training state at epoch {epoch}",
                                      state={"epoch": epoch, "dual": dual})

    Xs, ys, ts = source.X, source.y, source.is_source
    n_s = len(source)
    n_t = n_s if target is None else len(target)
    bs = min(cfg.batch_size, n_s, n_t)
    B = min(n_s, n_t) // bs

    def plan(rng):
        rows = rng.permutation(n_s)[:B * bs]
        Xt = None if target is None else target.X[rng.permutation(n_t)[:B * bs]].reshape(B, bs, -1)
        return Xs[rows].reshape(B, bs, -1), ys[rows].reshape(B, bs), ts[rows].reshape(B, bs), Xt

    return _train_loop(clf, dom, cfg, plan, grad_source, record)


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
    """Bundle theta, feature map, domain net, r, and bounds (once per model) into JSON text."""
    bounds = [float(b) for b in clf.ratio_bounds]
    doc = {
        "theta": clf.theta.tolist(),
        "feature_map": _feature_map_doc(clf.feature_map),
        "r": float(clf.r),
        "ratio_bounds": bounds,
        "domain": None,
        "config": config,
    }
    if dom is not None:
        doc["domain"] = {"net": _feature_map_doc(dom.net), "ratio_bounds": bounds}
    return json.dumps(doc)


def checkpoint_from_json(text):
    """(clf, dom, config) of a checkpoint; ConfigError if its two ratio_bounds differ."""
    doc = json.loads(text) if isinstance(text, str) else text
    clf = RobustClassifier(
        np.array(doc["theta"], dtype=float),
        feature_map_from_json(doc["feature_map"]),
        doc["r"],
        doc["ratio_bounds"],
    )
    dom = None
    if doc.get("domain") is not None:
        bounds = _check_ratio_bounds(doc["domain"]["ratio_bounds"])
        if bounds != clf.ratio_bounds:
            raise ConfigError(f"domain.ratio_bounds: {list(bounds)} differ from the "
                              f"classifier's ratio_bounds {list(clf.ratio_bounds)}")
        dom = DomainClassifier(feature_map_from_json(doc["domain"]["net"]))
    return clf, dom, doc.get("config")
