"""Consistency-based semi-supervised training: test-mode predictions on
weakly augmented targets supervise strongly augmented ones through a
confidence threshold, on top of the robust supervised loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AugmentationSpec, augment_batch
from .errors import ContractError, DivergenceError, _check_num
from .features import _forward_activations
from .robust import (
    TrainConfig,
    _nll_at,
    _predict_from_scores,
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
        self.threshold = _check_num(self.threshold, "threshold", gt=0, lt=1)
        self.unlabeled_batch = _check_num(self.unlabeled_batch, "unlabeled_batch", ge=1, integer=True)
        self.loss_weight = _check_num(self.loss_weight, "loss_weight", ge=0)


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

    at = (np.arange(n), pseudo)
    G = probs * ratios[:, None]
    G[at] = (probs[at] - 1.0) * (ratios / (clf.r + 1.0))
    grad_theta, fgrad = _score_gradient(clf, acts, G, mask * loss_weight / n)
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

    The plan draws each epoch's batches up front, in the order of a
    step-by-step draw: the labeled permutations (redrawn when one runs out)
    from the loop's rng, then each batch's weak and strong augmentations
    from the augmentation seed's generator. It returns them stacked per
    step, the step's rows [labeled; weak; strong] (bs_l + 2M of them) in X
    and the unaugmented target rows of its domain step in Xt; the loop reads
    the ratios of X once per domain period. At seed 5 of the drssl recipe
    of drshift.cli a traced run makes 321 domain_ratios calls: one per
    domain step, one per mid-period epoch start, and the target predictions
    of the 40 epoch records and the CLI's final evaluation.

    Each step runs one classifier forward pass over its rows. A step with
    no weak prediction above the threshold takes the supervised gradient
    alone, since the strong-branch loss and gradient are then exactly zero.
    At the drssl recipe that is the median share 0.77 of steps over seeds
    0-19 (range 0.15-1.00).

    History records per epoch: sup_loss, unsup_loss (already weighted by
    loss_weight), mask_rate, and target_acc when the unlabeled set carries
    evaluation labels. A non-finite theta, loss or density ratio raises
    DivergenceError.
    """
    counts = np.bincount(labeled.y, minlength=labeled.class_count)
    if (counts == 0).any():
        raise ContractError("every class needs at least one labeled sample")

    aug = cfg.augmentation
    rng_aug = np.random.default_rng(aug.seed)
    Xl, yl, Xu = labeled.X, labeled.y, unlabeled.X
    n_l, n_u, d = len(labeled), len(unlabeled), labeled.dim
    M = min(cfg.unlabeled_batch, n_u)
    bs_l = min(cfg.base.batch_size, n_l)
    n_batches = n_u // M
    tags = np.ones((n_batches, bs_l))  # the domain step counts every labeled row as source
    sums = [0.0, 0.0, 0]  # this epoch's sup_loss, unsup_loss and masked count

    def plan(rng):
        perm_u = rng.permutation(n_u)
        perm_l = rng.permutation(n_l)
        Xt = Xu[perm_u[: n_batches * M]].reshape(n_batches, M, d)
        X = np.empty((n_batches, bs_l + 2 * M, d))  # labeled, weak, strong
        y = np.empty((n_batches, bs_l), dtype=yl.dtype)
        li = 0
        for b in range(n_batches):
            if li + bs_l > n_l:
                perm_l, li = rng.permutation(n_l), 0
            rows = perm_l[li : li + bs_l]
            li += bs_l
            X[b, :bs_l], y[b] = Xl[rows], yl[rows]
            X[b, bs_l : bs_l + M] = augment_batch(Xt[b], aug, "weak", rng_aug)
            X[b, bs_l + M :] = augment_batch(Xt[b], aug, "strong", rng_aug)
        return X, y, tags, Xt

    # The loop has read and checked the ratios of all the step's rows.
    def model_gradient(clf, batch, ratios):
        Xb, yb_l = batch
        acts = _forward_activations(clf.feature_map, Xb)
        g = grad_source(clf, (Xb[:bs_l], yb_l), ratios[:bs_l], acts=[a[:bs_l] for a in acts])
        sums[0] += float(_nll_at(g.probs, yb_l).mean())

        Zw = acts[-1][bs_l:bs_l + M] @ clf.theta.T
        Pw, _ = _predict_from_scores(clf, Zw, ratios[bs_l:bs_l + M])
        mask = Pw.max(axis=1) > cfg.threshold
        if not mask.any():
            # The strong-branch loss and gradient are exactly zero.
            return g
        sums[2] += int(mask.sum())
        loss_u, g_theta_u, g_feat_u = _unsup_gradient(
            clf, [a[bs_l + M:] for a in acts], ratios[bs_l + M:], Pw.argmax(axis=1), mask,
            cfg.loss_weight,
        )
        sums[1] += loss_u
        g.grad_theta += g_theta_u
        g.feature_grad += g_feat_u
        return g

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

    return _train_loop(clf, dom, cfg.base, plan, model_gradient, record)
