"""Consistency-based semi-supervised training: test-mode predictions on
weakly augmented targets supervise strongly augmented ones through a
confidence threshold, on top of the robust supervised loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentationSpec, augment_batch
from .errors import ConfigError, ContractError, DivergenceError
from .features import _forward_activations
from .robust import (
    TrainConfig,
    _check_ratios,
    _nll_at,
    _predict_from_scores,
    _ratios,
    _score_gradient,
    _train_loop,
    grad_source,
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
    W = np.asarray(pred_weak, dtype=float)
    S = np.asarray(pred_strong, dtype=float)
    if W.shape != S.shape:
        raise ContractError("weak and strong prediction lists must have equal shape")
    if W.shape[0] < 1:
        raise ContractError("need at least one prediction pair")
    mask = W.max(axis=1) > threshold
    return float(np.where(mask, _nll_at(S, W.argmax(axis=1)), 0.0).mean())


def _unsup_gradient(clf, acts, ratios, pseudo, mask, loss_weight):
    """loss_weight times the thresholded strong-branch loss, and its exact
    gradient in theta and the feature parameters.

    acts holds the activations of a forward pass over the M strong rows.
    Only the pseudo-labels and mask cross over from the weak branch, so no
    gradient can flow through the weak predictions. The strong branch uses
    the train-mode form at the pseudo-label, whose logit derivative in the
    raw class scores is (f_y - 1{y=c}) * R / (r 1{y=c} + 1); the row
    weights mask * loss_weight / M carry the threshold, the weight and the mean.
    """
    n = acts[0].shape[0]
    probs, _ = _predict_from_scores(clf, acts[-1] @ clf.theta.T, ratios, pseudo)
    loss = loss_weight * float(np.where(mask, _nll_at(probs, pseudo), 0.0).mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), pseudo] = 1.0
    G = (probs - onehot) * (ratios[:, None] / (clf.r * onehot + 1.0))
    grad_theta, _, fgrad = _score_gradient(clf, acts, G, mask * loss_weight / n)
    return loss, grad_theta, fgrad


def run_drssl(labeled, unlabeled, cfg, clf, dom=None):
    """Consistency training driven by robust test-mode confidences, starting
    from the initial models clf and dom.

    Runs the update rule of robust._train_loop. Per batch: one momentum-SGD
    step on the supervised source gradient plus loss_weight times the
    gradient of the thresholded consistency loss (weak-branch predictions
    are detached pseudo-targets); the domain classifier takes its periodic
    step on cross-entropy plus density gradients. With dom=None all ratios
    are 1 and there is no domain step, which is the plain
    softmax-confidence baseline.

    History records per epoch: sup_loss, unsup_loss (already weighted by
    loss_weight), mask_rate, and target_acc when the unlabeled set carries
    evaluation labels. A non-finite theta, loss or density ratio raises
    DivergenceError.
    """
    counts = np.bincount(labeled.y, minlength=labeled.class_count)
    if (counts == 0).any():
        raise ContractError("every class needs at least one labeled sample")

    rng_aug = np.random.default_rng(cfg.augmentation.seed)
    Xl, yl, Xu = labeled.X, labeled.y, unlabeled.X
    n_l, n_u = len(labeled), len(unlabeled)
    M = min(cfg.unlabeled_batch, n_u)
    bs_l = min(cfg.base.batch_size, n_l)
    n_batches = max(1, n_u // M)
    sums = [0.0, 0.0, 0]  # this epoch's sup_loss, unsup_loss and masked count

    def plan(rng):
        perm_u = rng.permutation(n_u)
        perm_l = rng.permutation(n_l)
        li = 0
        for b in range(n_batches):
            if li + bs_l > n_l:
                perm_l = rng.permutation(n_l)
                li = 0
            rows = perm_l[li : li + bs_l]
            li += bs_l
            yield rows, Xl[rows], yl[rows], Xu[perm_u[b * M : (b + 1) * M]]

    def model_gradient(clf, dom, Xb_l, yb_l, Xb_u, epoch):
        Xw = augment_batch(Xb_u, cfg.augmentation, "weak", rng_aug)
        Xst = augment_batch(Xb_u, cfg.augmentation, "strong", rng_aug)
        X_all = np.vstack([Xb_l, Xw, Xst])
        ratios = _ratios(dom, X_all, epoch)
        ratios_l, ratios_w, ratios_st = ratios[:bs_l], ratios[bs_l : bs_l + M], ratios[bs_l + M :]

        g_sup = grad_source(clf, (Xb_l, yb_l), ratios_l)
        sums[0] += float(_nll_at(g_sup.probs, yb_l).mean())

        # One forward pass over the weak and strong rows serves both branches.
        acts = _forward_activations(clf.feature_map, X_all[bs_l:])
        Zw = acts[-1][:M] @ clf.theta.T
        Pw, _ = _predict_from_scores(clf, Zw, _check_ratios(clf, ratios_w))
        mask = Pw.max(axis=1) > cfg.threshold
        sums[2] += int(mask.sum())
        loss_u, g_theta_u, g_feat_u = _unsup_gradient(
            clf, [a[M:] for a in acts], ratios_st, Pw.argmax(axis=1), mask, cfg.loss_weight
        )
        sums[1] += loss_u
        return g_sup.grad_theta + g_theta_u, g_sup.feature_grad + g_feat_u

    def record(clf, dom, epoch):
        sup_sum, unsup_sum, masked = sums
        sums[:] = [0.0, 0.0, 0]
        rec = {
            "epoch": epoch,
            "sup_loss": sup_sum / n_batches,
            "unsup_loss": unsup_sum / n_batches,
            "mask_rate": masked / (n_batches * M),
        }
        if not (np.isfinite(rec["sup_loss"]) and np.isfinite(rec["unsup_loss"])):
            raise DivergenceError(f"non-finite training state at epoch {epoch}", state=rec)
        if unlabeled.labeled:
            probs_eval, _ = target_predictions(clf, dom, unlabeled)
            rec["target_acc"] = float((probs_eval.argmax(axis=1) == unlabeled.y).mean())
        return rec

    return _train_loop(clf, dom, cfg.base, np.ones(n_l), plan, model_gradient, record)
