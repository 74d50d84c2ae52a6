import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drshift import (
    AugmentationSpec,
    ContractError,
    SslConfig,
    TrainConfig,
    consistency_loss,
    default_classifier,
    default_shift_spec,
    dataset_from_arrays,
    generate_gaussian_shift,
)
from drshift.semisup import _unsup_gradient, run_drssl

from helpers import default_models, flat


class TestConsistencyLoss:
    def test_all_masked_gives_zero(self):
        weak = [[0.6, 0.4], [0.5, 0.5]]
        strong = [[0.9, 0.1], [0.2, 0.8]]
        assert consistency_loss(weak, strong, 0.95) == 0.0

    def test_single_unmasked_term(self):
        val = consistency_loss([[0.99, 0.01]], [[0.5, 0.5]], 0.95)
        assert val == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_two_terms_average(self):
        weak = [[0.99, 0.01], [0.6, 0.4]]
        strong = [[0.5, 0.5], [0.1, 0.9]]
        assert consistency_loss(weak, strong, 0.95) == pytest.approx(-np.log(0.5) / 2, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            consistency_loss([[0.9, 0.1]], [[0.5, 0.5], [0.5, 0.5]], 0.9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.95))
    def test_non_negative(self, seed, threshold):
        rng = np.random.default_rng(seed)
        n, C = int(rng.integers(1, 20)), int(rng.integers(2, 5))
        weak = rng.dirichlet(np.ones(C), size=n)
        strong = rng.dirichlet(np.ones(C), size=n)
        assert consistency_loss(weak, strong, threshold) >= 0.0

    def test_mask_rate_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        weak = rng.dirichlet(np.ones(3) * 0.5, size=50)
        rates = [(weak.max(axis=1) > t).mean() for t in [0.3, 0.5, 0.7, 0.9]]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_zero_iff_confident_strong_or_masked(self):
        # unmasked term with strong prob 1 on the pseudo-label
        weak = [[0.99, 0.01]]
        strong = [[1.0, 0.0]]
        assert consistency_loss(weak, strong, 0.9) == 0.0


class TestUnsupGradient:
    def test_no_gradient_path_through_weak_branch(self):
        # identical pseudo-labels and mask => identical gradients regardless
        # of what the weak predictions were
        rng = np.random.default_rng(1)
        clf = default_classifier(2, 2, seed=3, r=0.5)
        X_strong = rng.normal(size=(6, 2))
        ratios = np.ones(6)
        pseudo = rng.integers(0, 2, size=6)
        mask = rng.random(6) > 0.4
        loss1, g1, f1 = _unsup_gradient(clf, X_strong, ratios, pseudo, mask)
        loss2, g2, f2 = _unsup_gradient(clf, X_strong, ratios, pseudo, mask)
        assert loss1 == loss2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(flat(f1.layers), flat(f2.layers))

    def test_fully_masked_batch_contributes_nothing(self):
        rng = np.random.default_rng(2)
        clf = default_classifier(2, 2, seed=4, r=0.0)
        X = rng.normal(size=(4, 2))
        loss, g, f = _unsup_gradient(clf, X, np.ones(4), np.zeros(4, int), np.zeros(4, bool))
        assert loss == 0.0
        assert np.abs(g).max() == 0.0
        assert np.abs(flat(f.layers)).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        clf = default_classifier(3, 2, seed=5, r=0.5, hidden=(4,), feature_dim=4)
        X = rng.normal(size=(5, 3))
        ratios = rng.uniform(0.5, 2.0, size=5)
        pseudo = rng.integers(0, 2, size=5)
        mask = np.array([True, True, False, True, False])

        def loss():
            return _unsup_gradient(clf, X, ratios, pseudo, mask)[0]

        from helpers import fd_layers, fd_matrix, rel_err

        _, g_theta, g_feat = _unsup_gradient(clf, X, ratios, pseudo, mask)
        fd_theta = fd_matrix(loss, clf.theta, eps=1e-5)
        assert rel_err(fd_theta, g_theta) <= 1e-4
        fd_feat = fd_layers(loss, clf.feature_map, eps=1e-5)
        assert rel_err(flat(fd_feat), flat(g_feat.layers)) <= 1e-4


def small_setup(seed=0, n_labeled=12, n_target=48):
    source, target, _ = generate_gaussian_shift(
        default_shift_spec(seed=seed, n_source=200, n_target=n_target)
    )
    rng = np.random.default_rng(seed + 1)
    idxs = []
    for c in range(2):
        pool = np.flatnonzero(source.y == c)
        idxs.extend(rng.choice(pool, size=n_labeled // 2, replace=False).tolist())
    labeled = dataset_from_arrays(source.X[sorted(idxs)], source.y[sorted(idxs)], "source", 2)
    return labeled, target


class TestRunDrssl:
    def test_zero_weight_disables_unsupervised_branch(self):
        labeled, target = small_setup()
        cfg = SslConfig(
            loss_weight=0.0,
            augmentation=AugmentationSpec(seed=1),
            base=TrainConfig(epochs=3, seed=0),
        )
        _, _, hist = run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
        assert all(h["unsup_loss"] == 0.0 for h in hist)
        assert all(np.isfinite(h["sup_loss"]) for h in hist)

    def test_high_threshold_masks_everything_early(self):
        labeled, target = small_setup(seed=2)
        cfg = SslConfig(
            threshold=0.999,
            augmentation=AugmentationSpec(seed=2),
            base=TrainConfig(epochs=1, seed=2),
        )
        _, _, hist = run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
        assert hist[0]["mask_rate"] < 0.05

    def test_history_fields_and_determinism(self):
        labeled, target = small_setup(seed=3)
        cfg = SslConfig(
            augmentation=AugmentationSpec(seed=3),
            base=TrainConfig(epochs=2, seed=3),
        )
        _, _, h1 = run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
        _, _, h2 = run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
        assert h1 == h2
        for rec in h1:
            assert {"epoch", "sup_loss", "unsup_loss", "mask_rate", "target_acc"} <= set(rec)

    def test_missing_class_rejected(self):
        labeled, target = small_setup(seed=4)
        one_class = dataset_from_arrays(labeled.X[labeled.y == 0], labeled.y[labeled.y == 0],
                                        "source", 2)
        cfg = SslConfig(augmentation=AugmentationSpec(seed=1), base=TrainConfig(epochs=1, seed=0))
        with pytest.raises(ContractError):
            run_drssl(one_class, target, cfg, *default_models(one_class, cfg.base.seed))
