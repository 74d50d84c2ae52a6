"""The fused domain step and the local softmax against their references."""

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

import drshift.domain
import drshift.features
import drshift.robust
from drshift import default_classifier, default_domain_classifier
from drshift.domain import bce_gradient_arrays, density_chain_gradient, domain_ratios
from drshift.features import FeatureGradient, feature_forward_batch
from drshift.robust import _domain_gradient, _sgd_step, _softmax_lse, predict_proba

from helpers import flat


def models(seed, ratio_bounds):
    rng = np.random.default_rng(seed)
    clf = default_classifier(2, 3, seed=seed, r=0.5)
    clf.theta = rng.normal(size=clf.theta.shape)
    dom = default_domain_classifier(2, seed=seed + 1, ratio_bounds=ratio_bounds)
    return rng, clf, dom


def reference_gradient(clf, dom, Xb_s, t_s, Xb_t):
    """The domain step from public gradients, each with its own forward passes:
    half the mean BCE gradient of each half plus the density term."""
    g_bce_s = bce_gradient_arrays(dom, Xb_s, t_s)
    g_bce_t = bce_gradient_arrays(dom, Xb_t, np.zeros(len(Xb_t)))
    g_bce = FeatureGradient([(0.5 * (a0 + b0), 0.5 * (a1 + b1))
                             for (a0, a1), (b0, b1) in zip(g_bce_s.layers, g_bce_t.layers)])
    _, ratio, clamped, _ = domain_ratios(dom, Xb_t)
    probs, _ = predict_proba(clf, Xb_t, ratio)
    Phi = feature_forward_batch(clf.feature_map, Xb_t)
    g_den = density_chain_gradient(dom, Xb_t, clf.theta, Phi, probs, ratio, clamped)
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


@pytest.mark.parametrize("n_s,n_t", [(4, 16), (16, 4)])
def test_unequal_halves_leave_the_ratio_unbiased(n_s, n_t):
    # Both halves come from one Gaussian, so the true ratio is 1. With
    # theta = 0 the density term vanishes and the step is the BCE alone;
    # weighting the halves by 1/n_s and 1/n_t alone would learn n_s/n_t.
    rng, clf, dom = models(13, (1e-3, 1e3))
    clf.theta[:] = 0.0
    for _ in range(1000):
        g = _domain_gradient(clf, dom, rng.normal(size=(n_s, 2)), np.ones(n_s),
                             rng.normal(size=(n_t, 2)))
        _sgd_step(dom.net, g, 0.1)
    ratios = domain_ratios(dom, rng.normal(size=(1000, 2)))[1]
    assert 0.9 <= np.median(ratios) <= 1.1


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
