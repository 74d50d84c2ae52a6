import numpy as np
import pytest
from scipy.special import expit, logsumexp, softmax

from drshift import (
    ContractError,
    bce_loss,
    default_classifier,
    default_domain_classifier,
)
from drshift.domain import (
    DomainClassifier,
    _density_logit_upstream,
    bce_gradient_arrays,
    clamp_ratio,
    domain_ratios,
)
from drshift.features import FeatureMap
from drshift.robust import _domain_gradient, class_scores

from helpers import fd_layers, flat, rel_err
from oracle import drl_density_gradient


def zero_logit_classifier(dim=2, bounds=(1e-3, 1e3)):
    layers = [(np.zeros((1, dim)), np.zeros(1))]
    return DomainClassifier(FeatureMap(dim, 1, layers), bounds)


def linear_logit_classifier(w, b=0.0, bounds=(1e-3, 1e3)):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    layers = [(w, np.array([float(b)]))]
    return DomainClassifier(FeatureMap(w.shape[1], 1, layers), bounds)


class TestForward:
    def test_zero_params_give_half_half(self):
        ratio, _, z = domain_ratios(zero_logit_classifier(), np.array([[3.0, -1.0]]))
        tau_s = expit(z)
        assert tau_s[0] == 0.5 and 1.0 - tau_s[0] == 0.5 and ratio[0] == 1.0

    def test_log3_logit(self):
        clf = linear_logit_classifier([0.0], b=np.log(3.0))
        ratio, clamped, z = domain_ratios(clf, np.array([[0.0]]))
        tau_s = expit(z)
        assert tau_s[0] == pytest.approx(0.75, abs=1e-12)
        assert 1.0 - tau_s[0] == pytest.approx(0.25, abs=1e-12)
        assert ratio[0] == pytest.approx(3.0, rel=1e-12)
        assert not clamped[0]

    def test_huge_logit_clamps(self):
        clf = linear_logit_classifier([0.0], b=50.0, bounds=(1e-3, 10.0))
        ratio, clamped, _ = domain_ratios(clf, np.array([[0.0]]))
        assert ratio[0] == 10.0 and clamped[0]

    def test_taus_sum_to_one_exactly(self):
        rng = np.random.default_rng(0)
        clf = default_domain_classifier(3, seed=1)
        tau_s = expit(domain_ratios(clf, rng.normal(size=(20, 3)))[2])
        assert np.all(tau_s + (1.0 - tau_s) == 1.0)


@pytest.mark.parametrize("bounds", [(1e-3, 1e3), (np.exp(-2.0), np.exp(3.0))])
def test_clamp_ratio_matches_the_clip_reference(bounds):
    lo, hi = bounds
    log_r = np.array([np.nan, np.inf, -np.inf, 700.0, -700.0, 700.5, -700.5, 701.0, -701.0,
                      -2.0, 3.0, np.log(lo), np.log(hi), 0.0, -0.0, 5.0, -5.0])
    raw = np.exp(np.clip(log_r, -700.0, 700.0))
    ratio, clamped = clamp_ratio(log_r, bounds)
    assert ratio.tobytes() == np.clip(raw, lo, hi).tobytes()
    np.testing.assert_array_equal(clamped, (raw < lo) | (raw > hi))


class TestBce:
    def test_per_sample_logit_gradient_signs(self):
        # with a single-layer net the bias gradient equals the mean logit
        # gradient sigmoid(z) - 1{source}
        clf = zero_logit_classifier(1)
        g_src = bce_gradient_arrays(clf, np.zeros((1, 1)), [1.0])
        g_tgt = bce_gradient_arrays(clf, np.zeros((1, 1)), [0.0])
        assert g_src.layers[0][1][0] == pytest.approx(-0.5, abs=1e-12)
        assert g_tgt.layers[0][1][0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        clf = default_domain_classifier(3, seed=2, hidden=(4,))
        X = rng.normal(size=(8, 3))
        t = rng.integers(0, 2, size=8).astype(float)
        g = bce_gradient_arrays(clf, X, t)
        fd = fd_layers(lambda: bce_loss(clf, X, t), clf.net, eps=1e-5)
        assert rel_err(flat(fd), flat(g.layers)) <= 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            bce_gradient_arrays(zero_logit_classifier(), np.zeros((0, 2)), np.zeros(0))

    def test_separating_classifier_gradient_vanishes(self):
        X = np.array([[1.0], [-1.0]])
        t = np.array([1.0, 0.0])
        norms = []
        for scale in [1.0, 2.0, 4.0, 8.0, 16.0]:
            clf = linear_logit_classifier([scale])
            g = bce_gradient_arrays(clf, X, t)
            norms.append(np.linalg.norm(flat(g.layers)))
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestDensityGradient:
    def test_zero_theta_gives_zero(self):
        est = type("E", (), {"tau_s": 0.5, "tau_t": 0.5, "ratio": 1.0, "clamped": False})
        g_s, g_t = drl_density_gradient(np.zeros((2, 3)), np.ones(3), np.array([0.5, 0.5]), est)
        assert g_s == 0.0 and g_t == 0.0

    def test_half_half_unit_s_value(self):
        # s(x) = 1 at tau_s = tau_t = 0.5 must give (2, -2)
        theta = np.array([[1.0], [0.0]])
        phi = np.array([2.0])  # scores (2, 0)
        probs = np.array([0.5, 0.5])  # s = 0.5*2 + 0.5*0 = 1
        est = type("E", (), {"tau_s": 0.5, "tau_t": 0.5, "ratio": 1.0, "clamped": False})
        g_s, g_t = drl_density_gradient(theta, phi, probs, est)
        assert g_s == pytest.approx(2.0, abs=1e-12)
        assert g_t == pytest.approx(-2.0, abs=1e-12)

    def test_matches_finite_differences_of_log_partition(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = rng.normal(size=(2, 3))
            phi = rng.normal(size=3)
            tau_s = float(rng.uniform(0.2, 0.8))
            tau_t = 1.0 - tau_s
            z = theta @ phi

            def logZ(ts, tt):
                return float(logsumexp((ts / tt) * z))

            probs = softmax((tau_s / tau_t) * z)
            est = type("E", (), {"tau_s": tau_s, "tau_t": tau_t, "ratio": tau_s / tau_t, "clamped": False})
            g_s, g_t = drl_density_gradient(theta, phi, probs, est)
            eps = 1e-5
            fd_s = (logZ(tau_s + eps, tau_t) - logZ(tau_s - eps, tau_t)) / (2 * eps)
            fd_t = (logZ(tau_s, tau_t + eps) - logZ(tau_s, tau_t - eps)) / (2 * eps)
            assert rel_err(fd_s, g_s) <= 1e-4
            assert rel_err(fd_t, g_t) <= 1e-4

    def test_chain_identity(self):
        # dL/dR * (dR/dtau_s, dR/dtau_t) reproduces the returned pair
        rng = np.random.default_rng(13)
        theta = rng.normal(size=(3, 2))
        phi = rng.normal(size=2)
        tau_s, tau_t = 0.3, 0.7
        R = tau_s / tau_t
        z = theta @ phi
        probs = softmax(R * z)
        est = type("E", (), {"tau_s": tau_s, "tau_t": tau_t, "ratio": R, "clamped": False})
        g_s, g_t = drl_density_gradient(theta, phi, probs, est)
        s = float(probs @ z)  # dL/dR at this point
        assert g_s == pytest.approx(s / tau_t, abs=1e-10)
        assert g_t == pytest.approx(s * (-tau_s / tau_t**2), abs=1e-10)

    def test_clamped_ratio_blocks_gradient(self):
        est = type("E", (), {"tau_s": 0.99, "tau_t": 0.01, "ratio": 10.0, "clamped": True})
        g_s, g_t = drl_density_gradient(np.ones((2, 2)), np.ones(2), np.array([0.5, 0.5]), est)
        assert g_s == 0.0 and g_t == 0.0

    def test_tiny_tau_t_guard(self):
        est = type("E", (), {"tau_s": 1.0, "tau_t": 1e-9, "ratio": 1e3, "clamped": False})
        with pytest.raises(ContractError):
            drl_density_gradient(np.ones((2, 2)), np.ones(2), np.array([0.5, 0.5]), est)


class TestDensityLogitUpstream:
    """The domain step's density term s R, taken in the domain logit z = log R."""

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_matches_finite_differences_in_the_logit(self, r):
        # Rows are independent, so one central difference of the per-row
        # log Z over the whole batch gives every row's derivative at once;
        # n times d(mean log Z)/dz_i is the i-th entry. At r = 0 the logits
        # are R z, the dual's; at r > 0 the upstream is 1 + r times the
        # derivative of the test-mode log Z, whose logits are R z / (1 + r).
        rng = np.random.default_rng(21)
        Z = rng.normal(scale=2.0, size=(32, 3))
        z = rng.normal(scale=0.7, size=32)

        def log_z(z):
            return logsumexp(np.exp(z)[:, None] * Z / (1.0 + r), axis=1)

        probs = softmax(np.exp(z)[:, None] * Z / (1.0 + r), axis=1)
        upstream = _density_logit_upstream(Z, probs, np.exp(z), np.zeros(32, dtype=bool))
        eps = 1e-6
        fd = (log_z(z + eps) - log_z(z - eps)) / (2 * eps)
        np.testing.assert_allclose(upstream, (1.0 + r) * fd, rtol=1e-6, atol=1e-8)

    def test_clamped_rows_get_zero(self):
        rng = np.random.default_rng(22)
        Z = rng.normal(size=(4, 2))
        probs = softmax(Z, axis=1)
        clamped = np.array([True, False, True, False])
        upstream = _density_logit_upstream(Z, probs, np.full(4, 2.0), clamped)
        assert np.all(upstream[clamped] == 0.0) and np.all(upstream[~clamped] != 0.0)

    def test_large_unclamped_ratio_keeps_its_gradient(self):
        # At z = 20 the ratio e^20 ~ 4.9e8 lies inside bounds (1e-12, 1e12),
        # while tau_t = 1 - sigmoid(20) ~ 2e-9: a form divided by tau_t and
        # guarded below 1e-8 would drop the density term of every row here.
        bounds = (1e-12, 1e12)
        dom = linear_logit_classifier([0.0, 0.0], b=20.0, bounds=bounds)
        clf = default_classifier(2, 2, seed=3, r=0.5, ratio_bounds=bounds)
        rng = np.random.default_rng(23)
        clf.theta = rng.normal(size=clf.theta.shape)
        Xb_s, Xb_t = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        t_s = np.array([1.0, 1.0, 0.0, 1.0])
        g = _domain_gradient(clf, dom, Xb_s, t_s, Xb_t)

        # The single layer's bias gradient is the sum of the logit upstreams.
        tau_s = 1.0 / (1.0 + np.exp(-20.0))
        bce = (tau_s - t_s).sum() / (2 * 4) + tau_s / 2
        R = np.exp(20.0)
        Z = class_scores(clf, Xb_t)
        s = (softmax(R * Z / 1.5, axis=1) * Z).sum(axis=1)
        density = (s * R).mean()
        assert abs(density) > 1e7
        assert g.layers[0][1][0] == pytest.approx(bce + density, rel=1e-12)
