"""Consistency-based semi-supervised training: test-mode predictions on
weakly augmented targets supervise strongly augmented ones through a
confidence threshold, on top of the robust supervised loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentationSpec, augment_batch
from .domain import default_domain_classifier, domain_ratios
from .errors import ConfigError, ContractError, DivergenceError
from .features import _forward_activations, feature_backward_batch
from .robust import (
    TrainConfig,
    _domain_gradient,
    _Momentum,
    _require_finite,
    _sgd_step,
    _softmax_lse,
    default_classifier,
    grad_source,
    predict_proba,
    target_predictions,
)


@dataclass
class SslConfig:
    threshold: float = 0.95
    unlabeled_batch: int = 16
    loss_weight: float = 1.0
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    base: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        if self.unlabeled_batch < 1:
            raise ConfigError("unlabeled_batch must be >= 1")
        if self.loss_weight < 0:
            raise ConfigError("loss_weight must be >= 0")


def consistency_loss(pred_weak, pred_strong, threshold):
    """Thresholded cross-entropy between weak pseudo-labels and strong predictions.

    (1/M) sum_m 1[max(weak_m) > threshold] * (-log strong_m[argmax weak_m]).
    """
    W = np.asarray([getattr(p, "probs", p) for p in pred_weak], dtype=float)
    S = np.asarray([getattr(p, "probs", p) for p in pred_strong], dtype=float)
    if W.shape != S.shape:
        raise ContractError("weak and strong prediction lists must have equal shape")
    if W.shape[0] < 1:
        raise ContractError("need at least one prediction pair")
    conf = W.max(axis=1)
    pseudo = W.argmax(axis=1)
    mask = conf > threshold
    picked = S[np.arange(S.shape[0]), pseudo]
    terms = np.where(mask, -np.log(np.maximum(picked, 1e-300)), 0.0)
    return float(terms.mean())


def _unsup_gradient(clf, X_strong, ratios_strong, pseudo, mask):
    """Loss value and exact gradient of the thresholded strong-branch loss.

    Only the pseudo-labels and mask cross over from the weak branch, so no
    gradient can flow through the weak predictions. The strong branch uses
    the train-mode form at the pseudo-label, whose logit derivative in the
    raw class scores is (f_y - 1{y=c}) * R / (r 1{y=c} + 1).
    """
    n = X_strong.shape[0]
    acts = _forward_activations(clf.feature_map, X_strong)
    Phi = acts[-1]
    Zs = Phi @ clf.theta.T
    onehot = np.zeros_like(Zs)
    onehot[np.arange(n), np.asarray(pseudo, dtype=int)] = 1.0
    denom = clf.r * onehot + 1.0
    logits = (ratios_strong[:, None] * Zs + clf.r * onehot) / denom
    probs, _ = _softmax_lse(logits)

    picked = probs[np.arange(n), np.asarray(pseudo, dtype=int)]
    terms = np.where(mask, -np.log(np.maximum(picked, 1e-300)), 0.0)
    loss = float(terms.mean())

    w = mask.astype(float) / n
    G = (probs - onehot) * (ratios_strong[:, None] / denom)
    grad_theta = (G * w[:, None]).T @ Phi
    upstream = G @ clf.theta
    fgrad = feature_backward_batch(clf.feature_map, X_strong, upstream, weights=w, acts=acts)
    return loss, grad_theta, fgrad


def run_drssl(labeled, unlabeled, cfg, r=0.5, clf=None, dom=None, unit_ratio=False):
    """Consistency training driven by robust test-mode confidences.

    Per batch: one momentum-SGD step on the supervised source gradient plus
    loss_weight times the gradient of the thresholded consistency loss
    (weak-branch predictions are detached pseudo-targets); the domain
    classifier takes its usual periodic step on cross-entropy plus density
    gradients (the domain step shared with train_end_to_end). With
    unit_ratio=True all ratios are 1 and the domain classifier stays
    untouched, which is the plain softmax-confidence baseline.

    History records per epoch: sup_loss, unsup_loss (already weighted by
    loss_weight), mask_rate, and target_acc when the unlabeled set carries
    evaluation labels. A non-finite theta, loss or density ratio raises
    DivergenceError.
    """
    counts = np.bincount(labeled.y, minlength=labeled.class_count)
    if (counts == 0).any():
        raise ContractError("every class needs at least one labeled sample")
    if clf is None:
        clf = default_classifier(labeled.dim, labeled.class_count, seed=cfg.base.seed, r=r)
    if dom is None:
        dom = default_domain_classifier(labeled.dim, seed=cfg.base.seed + 1)
    clf = clf.copy()
    dom = dom.copy()

    rng = np.random.default_rng(cfg.base.seed)
    rng_aug = np.random.default_rng(cfg.augmentation.seed)
    Xl, yl, Xu = labeled.X, labeled.y, unlabeled.X
    n_l, n_u = len(labeled), len(unlabeled)
    M = min(cfg.unlabeled_batch, n_u)
    bs_l = min(cfg.base.batch_size, n_l)
    n_batches = max(1, n_u // M)
    opt = _Momentum(clf, cfg.base.lr_model, cfg.base.momentum)
    history = []
    step = 0

    for epoch in range(cfg.base.epochs):
        perm_u = rng.permutation(n_u)
        perm_l = rng.permutation(n_l)
        li = 0
        sup_sum = unsup_sum = 0.0
        masked = 0
        for b in range(n_batches):
            sl_u = perm_u[b * M : (b + 1) * M]
            if li + bs_l > n_l:
                perm_l = rng.permutation(n_l)
                li = 0
            sl_l = perm_l[li : li + bs_l]
            li += bs_l
            Xb_l, yb_l, Xb_u = Xl[sl_l], yl[sl_l], Xu[sl_u]

            if not unit_ratio and step % cfg.base.domain_update_period == 0:
                g_dom = _domain_gradient(clf, dom, Xb_l, np.ones(len(sl_l)), Xb_u)
                _sgd_step(dom.net, g_dom, cfg.base.lr_domain)

            Xw = augment_batch(Xb_u, cfg.augmentation, "weak", rng_aug)
            Xst = augment_batch(Xb_u, cfg.augmentation, "strong", rng_aug)
            X_all = np.vstack([Xb_l, Xw, Xst])
            if unit_ratio:
                ratios = np.ones(X_all.shape[0])
            else:
                ratios = _require_finite(domain_ratios(dom, X_all)[1], "density ratios", epoch)
            ratios_l, ratios_w, ratios_st = np.split(ratios, [len(sl_l), len(sl_l) + len(sl_u)])

            g_sup = grad_source(clf, (Xb_l, yb_l), ratios_l)
            sup_sum += float(
                -np.log(np.maximum(g_sup.probs[np.arange(len(yb_l)), yb_l], 1e-300)).mean()
            )

            Pw, _ = predict_proba(clf, Xw, ratios_w)
            conf = Pw.max(axis=1)
            pseudo = Pw.argmax(axis=1)
            mask = conf > cfg.threshold
            masked += int(mask.sum())
            loss_u, g_theta_u, g_feat_u = _unsup_gradient(clf, Xst, ratios_st, pseudo, mask)
            unsup_sum += cfg.loss_weight * loss_u

            grad_theta = g_sup.grad_theta + cfg.loss_weight * g_theta_u
            fgrad = g_sup.feature_grad + g_feat_u.scaled(cfg.loss_weight)
            opt.step(clf, grad_theta, fgrad)
            _require_finite(clf.theta, "theta", epoch)
            step += 1

        record = {
            "epoch": epoch,
            "sup_loss": sup_sum / n_batches,
            "unsup_loss": unsup_sum / n_batches,
            "mask_rate": masked / (n_batches * M),
        }
        if not (np.isfinite(record["sup_loss"]) and np.isfinite(record["unsup_loss"])
                and np.isfinite(clf.theta).all()):
            raise DivergenceError(f"non-finite training state at epoch {epoch}", state=record)
        if unlabeled.labeled:
            probs_eval, _ = target_predictions(clf, dom, unlabeled, unit_ratio=unit_ratio)
            record["target_acc"] = float((probs_eval.argmax(axis=1) == unlabeled.y).mean())
        history.append(record)
    return clf, dom, history
