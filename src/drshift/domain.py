"""Binary domain classifier and differentiable density-ratio estimation.

A single-logit network separates source from target inputs; its sigmoid
output tau_s is the posterior probability of "source" (tau_t = 1 - tau_s).
The domain step weights the source and target halves of its batch equally,
whatever their sizes, so the prior ratio cancels and tau_s/tau_t = exp(z)
estimates the source/target density ratio directly. Besides the usual
cross-entropy gradient, the ratio receives the gradient of the robust
classification objective, taken in the logit z, where dR/dz = R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ContractError, _one_per_row
from .features import _blocked_head, _forward_activations, feature_backward_batch, init_mlp


@dataclass(eq=False)
class DomainClassifier:
    """A single-logit network whose exp(logit), clamped to the robust
    classifier's bounds, is the density ratio.

    == is identity. Two domain classifiers have equal parameters when
    np.array_equal(a.net.params, b.net.params).
    """

    net: object  # FeatureMap with scalar output

    def __post_init__(self):
        if self.net.out_dim != 1:
            raise ConfigError("domain classifier network must output a single logit")

    def copy(self):
        return DomainClassifier(self.net.copy())


def default_domain_classifier(dim, seed=0, hidden=(16,)):
    return DomainClassifier(init_mlp(dim, hidden, 1, seed))


def domain_logits(clf, X):
    return _blocked_head(clf.net, X, lambda phi: phi[:, 0])


def clamp_ratio(log_r, bounds):
    """(ratio, clamped mask) of log-ratios: exp(log_r), with log_r held to
    +-700, clipped to bounds. For the domain logit exp(z) equals tau_s/tau_t
    and avoids its 0/0 at saturated logits."""
    lo, hi = bounds
    # np.minimum(np.maximum(.)) is np.clip, NaN included, at less call overhead.
    raw = np.exp(np.minimum(np.maximum(log_r, -700.0), 700.0))
    return np.minimum(np.maximum(raw, lo), hi), (raw < lo) | (raw > hi)


def domain_ratios(dom, X, bounds):
    """Vectorized ratios for a batch, clamped to bounds: (ratio, clamped
    mask, logits). The posterior tau_s is expit of the logits."""
    z = domain_logits(dom, X)
    return (*clamp_ratio(z, bounds), z)


def _bce_from_logits(z, is_source):
    t = _one_per_row(np.asarray(is_source, dtype=float), z.shape[0], "domain tag")
    # stable log(1 + exp(-|z|)) form
    return float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))


def bce_loss(clf, X, is_source):
    """Mean binary cross-entropy with the source domain as the positive class."""
    return _bce_from_logits(domain_logits(clf, np.asarray(X, dtype=float)), is_source)


def _bce_logit_upstream(z, is_source):
    """Per-sample derivative of the BCE in the domain logit: sigmoid(z) - 1{source}."""
    return expit(z) - _one_per_row(np.asarray(is_source, dtype=float), z.shape[0], "domain tag")


def bce_gradient_arrays(clf, X, is_source):
    """Mean BCE parameter gradient over a batch with per-row domain tags.

    The per-sample logit gradient is sigmoid(z) - 1{source}.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ContractError("bce_gradient_arrays requires a non-empty batch")
    acts = _forward_activations(clf.net, X)
    dz = _bce_logit_upstream(acts[-1][:, 0], is_source)
    return feature_backward_batch(clf.net, X, dz[:, None], acts=acts)


def density_chain_gradient(dom, X, theta, Phi, probs, ratio, clamped):
    """Mean parameter gradient of the target objective term through the ratio.

    Chains the per-sample logit upstreams s R into the domain net, zeroing
    clamped samples. X holds the raw target inputs; Phi and probs come from
    the robust classifier evaluated on the same batch at the clamped ratios.
    """
    dz = _density_logit_upstream(Phi @ np.asarray(theta).T, probs, ratio, clamped)
    return feature_backward_batch(dom.net, X, dz[:, None])


def _density_logit_upstream(Z, probs, ratio, clamped):
    """Per-sample logit upstream of the target objective term through the ratio.

    Z holds the raw class scores z_y and probs the test-mode predictions f.
    The upstream is s R with s = sum_y f_y z_y, and zero on clamped samples:
    at r = 0 the logit derivative of log Z, at r > 0 (1 + r) times that of
    the test-mode log Z, whose logits are R z / (1 + r).
    """
    s = np.einsum("nc,nc->n", probs, Z)
    return np.where(clamped, 0.0, s * ratio)
