"""Binary domain classifier and differentiable density-ratio estimation.

A single-logit network separates source from target inputs; its sigmoid
output tau_s is the posterior probability of "source" (tau_t = 1 - tau_s).
The domain step weights the source and target halves of its batch equally,
whatever their sizes, so the prior ratio cancels and tau_s/tau_t estimates
the source/target density ratio directly. Besides the usual cross-entropy
gradient, the estimated ratio receives a gradient from the robust
classification objective through the two density outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ContractError
from .features import _forward_activations, feature_backward_batch, feature_forward_batch, init_mlp

DEFAULT_RATIO_BOUNDS = (1e-3, 1e3)


@dataclass
class DomainClassifier:
    net: object  # FeatureMap with scalar output
    ratio_bounds: tuple = DEFAULT_RATIO_BOUNDS

    def __post_init__(self):
        if self.net.out_dim != 1:
            raise ConfigError("domain classifier network must output a single logit")
        lo, hi = self.ratio_bounds
        if not (0.0 < lo < hi):
            raise ConfigError("ratio bounds must satisfy 0 < min < max")

    def copy(self):
        return DomainClassifier(self.net.copy(), tuple(self.ratio_bounds))


def default_domain_classifier(dim, seed=0, hidden=(16,), ratio_bounds=DEFAULT_RATIO_BOUNDS):
    return DomainClassifier(init_mlp(dim, hidden, 1, "tanh", seed), ratio_bounds)


def domain_logits(clf, X):
    return feature_forward_batch(clf.net, X)[:, 0]


def _ratios_from_logits(clf, z):
    """(tau_s, clamped ratio, clamped mask) from domain logits z.

    tau_s/tau_t == exp(z) identically; evaluating exp(z) avoids 0/0 at
    saturated logits. tau_t is the complement 1 - tau_s.
    """
    lo, hi = clf.ratio_bounds
    raw = np.exp(np.clip(z, -700.0, 700.0))
    clamped = (raw < lo) | (raw > hi)
    return expit(z), np.clip(raw, lo, hi), clamped


def domain_ratios(clf, X):
    """Vectorized ratios for a batch: (tau_s, ratio, clamped mask, logits)."""
    z = domain_logits(clf, X)
    return (*_ratios_from_logits(clf, z), z)


def _bce_from_logits(z, is_source):
    t = np.asarray(is_source, dtype=float)
    # stable log(1 + exp(-|z|)) form
    return float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))


def bce_loss(clf, X, is_source):
    """Mean binary cross-entropy with the source domain as the positive class."""
    return _bce_from_logits(domain_logits(clf, np.asarray(X, dtype=float)), is_source)


def _bce_logit_upstream(z, is_source):
    """Per-sample derivative of the BCE in the domain logit: sigmoid(z) - 1{source}."""
    return expit(z) - np.asarray(is_source, dtype=float)


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


def drl_density_gradient(theta, phi_x, f_x, est):
    """Gradient of the robust objective's target term in the two densities.

    With s(x) = sum_y f_y(x) * (theta_y . phi(x)) and R = tau_s/tau_t inside
    log Z, the chain rule gives d/dtau_s = s/tau_t and
    d/dtau_t = -(tau_s/tau_t^2) * s. No gradient flows through an active
    ratio clamp.
    """
    if est.tau_t < 1e-8:
        raise ContractError("tau_t below 1e-8; density gradient is not reliable")
    if est.clamped:
        return 0.0, 0.0
    s = float(np.dot(f_x, np.asarray(theta) @ np.asarray(phi_x)))
    g_s = s / est.tau_t
    g_t = -(est.tau_s / est.tau_t**2) * s
    return g_s, g_t


def density_chain_gradient(dom, X, theta, Phi, probs, tau_s, clamped):
    """Mean parameter gradient of the target objective term through the ratio.

    Chains the per-sample density gradients into the domain net via
    dz = (dL/dtau_s - dL/dtau_t) * sigmoid'(z), zeroing clamped samples.
    X holds the raw target inputs; Phi and probs come from the robust
    classifier evaluated on the same batch.
    """
    dz = _density_logit_upstream(Phi @ np.asarray(theta).T, probs, tau_s, clamped)
    return feature_backward_batch(dom.net, X, dz[:, None])


def _density_logit_upstream(Z, probs, tau_s, clamped):
    """Per-sample logit upstream of the target objective term through the ratio.

    Z holds the raw class scores theta . phi(x), probs the test-mode
    predictions; clamped samples and tau_t < 1e-8 get zero.
    """
    s = np.einsum("nc,nc->n", probs, Z)
    tau_t = 1.0 - tau_s
    safe_t = np.maximum(tau_t, 1e-8)
    g_s = s / safe_t
    g_t = -(tau_s / safe_t**2) * s
    sig_prime = tau_s * (1.0 - tau_s)
    return np.where(clamped | (tau_t < 1e-8), 0.0, (g_s - g_t) * sig_prime)
