"""The fused domain step and the local softmax against their references."""

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

import drshift.domain
import drshift.features
import drshift.robust
from drshift import default_classifier, default_domain_classifier
from drshift.domain import bce_gradient_arrays, density_chain_gradient, domain_ratios
from drshift.features import feature_forward_batch
from drshift.robust import _domain_gradient, _softmax_lse, predict_proba

from helpers import flat


def models(seed, ratio_bounds):
    rng = np.random.default_rng(seed)
    clf = default_classifier(2, 3, seed=seed, r=0.5)
    clf.theta = rng.normal(size=clf.theta.shape)
    dom = default_domain_classifier(2, seed=seed + 1, ratio_bounds=ratio_bounds)
    return rng, clf, dom


def reference_gradient(clf, dom, Xb_s, t_s, Xb_t):
    """The domain step as two public gradients, each with its own forward passes."""
    X_dom = np.vstack([Xb_s, Xb_t])
    g_bce = bce_gradient_arrays(dom, X_dom, np.concatenate([t_s, np.zeros(len(Xb_t))]))
    tau_s, ratio, clamped, _ = domain_ratios(dom, Xb_t)
    probs, _ = predict_proba(clf, Xb_t, ratio)
    Phi = feature_forward_batch(clf.feature_map, Xb_t)
    g_den = density_chain_gradient(dom, Xb_t, clf.theta, Phi, probs, tau_s, clamped)
    return g_bce + g_den


@pytest.mark.parametrize("n_s,n_t", [(16, 48), (48, 16), (64, 64)])
def test_fused_domain_gradient_matches_public_gradients(n_s, n_t):
    rng, clf, dom = models(3, (1e-3, 1e3))
    Xb_s = rng.normal(-1.0, 1.0, size=(n_s, 2))
    Xb_t = rng.normal(1.5, 1.0, size=(n_t, 2))
    t_s = (rng.uniform(size=n_s) < 0.8).astype(float)  # pseudo-labelled target rows
    fused = _domain_gradient(clf, dom, Xb_s, t_s, Xb_t)
    ref = reference_gradient(clf, dom, Xb_s, t_s, Xb_t)
    np.testing.assert_allclose(flat(fused.layers), flat(ref.layers), rtol=1e-12, atol=0)


def test_fused_domain_gradient_with_clamped_samples():
    rng, clf, dom = models(5, (0.9, 1.11))
    Xb_s = rng.normal(-1.0, 2.0, size=(16, 2))
    Xb_t = rng.normal(1.5, 2.0, size=(48, 2))
    clamped = domain_ratios(dom, Xb_t)[2]
    assert clamped.any() and not clamped.all()
    fused = _domain_gradient(clf, dom, Xb_s, np.ones(16), Xb_t)
    ref = reference_gradient(clf, dom, Xb_s, np.ones(16), Xb_t)
    np.testing.assert_allclose(flat(fused.layers), flat(ref.layers), rtol=1e-12, atol=0)


def test_domain_step_runs_the_domain_net_forward_once(monkeypatch):
    rng, clf, dom = models(7, (1e-3, 1e3))
    calls = []
    original = drshift.features._forward_activations

    def counting(fmap, X):
        calls.append(fmap)
        return original(fmap, X)

    # Every forward pass, public or cached, goes through _forward_activations.
    for module in (drshift.features, drshift.domain, drshift.robust):
        monkeypatch.setattr(module, "_forward_activations", counting)
    _domain_gradient(clf, dom, rng.normal(size=(16, 2)), np.ones(16), rng.normal(size=(48, 2)))
    assert sum(fmap is dom.net for fmap in calls) == 1
    assert sum(fmap is clf.feature_map for fmap in calls) == 1


def softmax_cases():
    rng = np.random.default_rng(11)
    return [
        rng.normal(scale=5.0, size=(64, 4)),
        np.array([[700.0, 699.0, -700.0], [-700.0, -699.5, -700.0], [700.0, -700.0, 0.0]]),
        np.array([[3.0, 3.0, 3.0], [-700.0, -700.0, -700.0], [700.0, 700.0, 700.0]]),
    ]


@pytest.mark.parametrize("logits", softmax_cases())
def test_local_softmax_matches_scipy(logits):
    probs, lse = _softmax_lse(logits)
    np.testing.assert_allclose(probs, softmax(logits, axis=1), rtol=1e-14, atol=0)
    np.testing.assert_allclose(lse, logsumexp(logits, axis=1), rtol=1e-14, atol=0)
