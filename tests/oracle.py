"""Reference forms the tests compare the package against.

The exactly enumerable discrete domain is a brute-force oracle for the
expectation and gradient identities of the robust dual, which acceptance
criterion 3 and the dual and gradient tests compare against.
drl_density_gradient is the single-sample tau-space form of the density
gradient, which acceptance criterion 2 and tests/test_domain.py check
against finite differences of the log-partition; the trainers take that
gradient in the domain logit instead. domain_step_objective is the
objective that domain step (robust._domain_gradient) descends, written out
with scipy so criterion 2 can difference it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from drshift.domain import domain_ratios
from drshift.errors import ConfigError, ContractError
from drshift.features import feature_forward_batch

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
    Phi = np.stack([feature_forward_batch(fmap, p[None, :])[0] for p in spec.points])
    if domain is None:
        denom = spec.p_source + spec.p_target
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_s = np.where(denom > 0, spec.p_source / denom, 0.5)
        tau_t = 1.0 - tau_s
        ratios = np.where(spec.p_target > 0, spec.p_source / np.where(spec.p_target > 0, spec.p_target, 1.0), 0.0)
        clamped = np.zeros(K, dtype=bool)
    else:
        ratios, clamped, z = domain_ratios(domain, spec.points)
        tau_s = expit(z)
        tau_t = 1.0 - tau_s

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


def domain_step_objective(clf, dom, X_s, t_s, X_t):
    """F_r = 1/2 mean_s BCE(a, t) + 1/2 mean_t BCE(a, 0)
    + (1 + r) mean_t log sum_y exp(R z_y / (1 + r)), the domain step's
    objective in the domain net's parameters.

    a is the domain logit, t the source rows' domain tags, R = exp(a)
    clipped to dom.ratio_bounds and z_y = theta_y . phi(x) the class scores
    of the target rows.
    """
    a_s = feature_forward_batch(dom.net, X_s)[:, 0]
    a_t = feature_forward_batch(dom.net, X_t)[:, 0]
    bce_s = np.mean(np.logaddexp(0.0, a_s) - np.asarray(t_s, dtype=float) * a_s)
    bce_t = np.mean(np.logaddexp(0.0, a_t))
    R = np.clip(np.exp(a_t), *dom.ratio_bounds)
    Z = feature_forward_batch(clf.feature_map, X_t) @ np.asarray(clf.theta).T
    log_z = logsumexp(R[:, None] * Z / (1.0 + clf.r), axis=1)
    return float(0.5 * bce_s + 0.5 * bce_t + (1.0 + clf.r) * log_z.mean())
