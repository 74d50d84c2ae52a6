"""Shared finite-difference oracles and random instance builders."""

import numpy as np

from drshift import (
    DiscreteDomainSpec,
    RobustClassifier,
    default_classifier,
    default_domain_classifier,
    init_mlp,
)


def default_models(dataset, seed):
    """An r = 0.5 classifier initialised at seed and a domain net at seed + 1."""
    clf = default_classifier(dataset.dim, dataset.class_count, seed=seed, r=0.5)
    return clf, default_domain_classifier(dataset.dim, seed=seed + 1)


def fd_matrix(fun, M, eps=1e-5):
    """Central-difference gradient of scalar fun() w.r.t. matrix M (in place)."""
    G = np.zeros_like(M)
    for idx in np.ndindex(*M.shape):
        M[idx] += eps
        fp = fun()
        M[idx] -= 2 * eps
        fm = fun()
        M[idx] += eps
        G[idx] = (fp - fm) / (2 * eps)
    return G


def fd_layers(fun, fmap, eps=1e-5):
    """Central-difference gradients w.r.t. every layer parameter of a feature map."""
    grads = []
    for W, b in fmap.layers:
        grads.append((fd_matrix(fun, W, eps), fd_matrix(fun, b, eps)))
    return grads


def flat(grad_layers):
    """Flatten a list of (dW, db) pairs into one vector."""
    parts = []
    for dW, db in grad_layers:
        parts.append(np.asarray(dW).ravel())
        parts.append(np.asarray(db).ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def rel_err(approx, exact):
    a = np.asarray(approx).ravel()
    b = np.asarray(exact).ravel()
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def random_discrete_instance(rng, n_points=5, class_count=3, dim=2, feature_dim=4,
                             hidden=(4,), uniform_target=False, theta_scale=0.3):
    """Small discrete-domain spec plus a random unregularized classifier."""
    points = rng.normal(size=(n_points, dim))
    p_s = rng.random(n_points) + 0.05
    p_s /= p_s.sum()
    if uniform_target:
        p_t = np.full(n_points, 1.0 / n_points)
    else:
        p_t = rng.random(n_points) + 0.1
        p_t /= p_t.sum()
    cond = rng.random((n_points, class_count)) + 0.1
    cond /= cond.sum(axis=1, keepdims=True)
    spec = DiscreteDomainSpec(points, p_s, p_t, cond)
    fmap = init_mlp(dim, hidden, feature_dim, "tanh", seed=int(rng.integers(1 << 30)))
    theta = theta_scale * rng.normal(size=(class_count, feature_dim))
    clf = RobustClassifier(theta, fmap, 0.0, (1e-8, 1e8))
    return spec, clf


def enumerate_source(spec):
    """Weighted (x, y) enumeration of a discrete source plus exact ratios.

    Returns (X, y, weights, ratios) where each domain point expands into one
    row per class weighted by p_s(x) * P(y|x).
    """
    K, C = spec.n_points, spec.class_count
    X = np.repeat(spec.points, C, axis=0)
    y = np.tile(np.arange(C), K)
    w = (spec.p_source[:, None] * spec.cond_label).ravel()
    ratios = np.repeat(spec.p_source / spec.p_target, C)
    return X, y, w, ratios
