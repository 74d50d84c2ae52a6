import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drshift.features
import drshift.robust
import drshift.semisup
from drshift import (
    AugmentationSpec,
    ConfigError,
    ContractError,
    SslConfig,
    TrainConfig,
    default_classifier,
    default_shift_spec,
    dataset_from_arrays,
    generate_gaussian_shift,
)
from drshift.benchmarks import class_balanced_subset
from drshift.features import _forward_activations
from drshift.robust import _nll_at, _predict_from_scores, _score_gradient, class_scores
from drshift.semisup import _unsup_gradient, run_drssl

from helpers import default_models, flat
from oracle import consistency_loss


def strong_branch(clf, X_strong, ratios, pseudo, mask, loss_weight=1.0):
    """The strong-branch loss and gradient over a fresh forward pass of X_strong."""
    acts = _forward_activations(clf.feature_map, X_strong)
    return _unsup_gradient(clf, acts, ratios, pseudo, mask, loss_weight)


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
    def test_loss_is_the_oracle_consistency_loss(self):
        # The strong predictions _unsup_gradient scores are the train-mode
        # predictions at the weak branch's pseudo-labels.
        rng = np.random.default_rng(8)
        clf = default_classifier(2, 3, seed=9, r=0.5)
        clf.theta = rng.normal(size=clf.theta.shape)
        X_strong = rng.normal(size=(40, 2))
        ratios = rng.uniform(0.5, 2.0, size=40)
        weak = rng.dirichlet(np.ones(3) * 0.3, size=40)
        pseudo, mask = weak.argmax(axis=1), weak.max(axis=1) > 0.7
        assert mask.any() and not mask.all()
        strong, _ = _predict_from_scores(clf, class_scores(clf, X_strong), ratios, pseudo)
        loss, _, _ = strong_branch(clf, X_strong, ratios, pseudo, mask, loss_weight=1.0)
        assert loss == consistency_loss(weak, strong, 0.7)

    def test_no_gradient_path_through_weak_branch(self):
        # identical pseudo-labels and mask => identical gradients regardless
        # of what the weak predictions were
        rng = np.random.default_rng(1)
        clf = default_classifier(2, 2, seed=3, r=0.5)
        X_strong = rng.normal(size=(6, 2))
        ratios = np.ones(6)
        pseudo = rng.integers(0, 2, size=6)
        mask = rng.random(6) > 0.4
        loss1, g1, f1 = strong_branch(clf, X_strong, ratios, pseudo, mask)
        loss2, g2, f2 = strong_branch(clf, X_strong, ratios, pseudo, mask)
        assert loss1 == loss2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(f1, f2)

    def test_fully_masked_batch_contributes_nothing(self):
        rng = np.random.default_rng(2)
        clf = default_classifier(2, 2, seed=4, r=0.0)
        X = rng.normal(size=(4, 2))
        loss, g, f = strong_branch(clf, X, np.ones(4), np.zeros(4, int), np.zeros(4, bool))
        assert loss == 0.0
        assert np.abs(g).max() == 0.0
        assert np.abs(f).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        clf = default_classifier(3, 2, seed=5, r=0.5, hidden=(4,), feature_dim=4)
        X = rng.normal(size=(5, 3))
        ratios = rng.uniform(0.5, 2.0, size=5)
        pseudo = rng.integers(0, 2, size=5)
        mask = np.array([True, True, False, True, False])

        def loss():
            return strong_branch(clf, X, ratios, pseudo, mask)[0]

        from helpers import fd_layers, fd_matrix, rel_err

        _, g_theta, g_feat = strong_branch(clf, X, ratios, pseudo, mask)
        fd_theta = fd_matrix(loss, clf.theta, eps=1e-5)
        assert rel_err(fd_theta, g_theta) <= 1e-4
        fd_feat = fd_layers(loss, clf.feature_map, eps=1e-5)
        assert rel_err(flat(fd_feat), g_feat) <= 1e-4

    def test_loss_weight_scales_the_gradient(self):
        rng = np.random.default_rng(4)
        clf = default_classifier(3, 2, seed=6, r=0.5, hidden=(4,), feature_dim=4)
        clf.theta = rng.normal(size=clf.theta.shape)
        X = rng.normal(size=(8, 3))
        ratios = rng.uniform(0.5, 2.0, size=8)
        pseudo = rng.integers(0, 2, size=8)
        mask = np.arange(8) % 3 != 0
        loss1, g1, f1 = strong_branch(clf, X, ratios, pseudo, mask, 1.0)
        loss_half, g_half, f_half = strong_branch(clf, X, ratios, pseudo, mask, 0.5)
        assert loss_half == pytest.approx(0.5 * loss1, rel=1e-12)
        np.testing.assert_allclose(g_half, 0.5 * g1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(f_half, 0.5 * f1, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, "uniform"])
    def test_gradient_is_bitwise_the_one_hot_form(self, r):
        # The class-score upstream (f_y - 1{y=c}) R / (r 1{y=c} + 1), built
        # from a one-hot matrix, against the rewrite of the label entries.
        rng = np.random.default_rng(6)
        for _ in range(50):
            n, C = int(rng.integers(1, 12)), int(rng.integers(2, 5))
            r_case = rng.uniform() if r == "uniform" else r
            clf = default_classifier(3, C, seed=int(rng.integers(1000)), r=r_case,
                                     hidden=(4,), feature_dim=4)
            clf.theta = rng.normal(size=clf.theta.shape)
            acts = _forward_activations(clf.feature_map, rng.normal(size=(n, 3)))
            ratios = np.exp(rng.normal(size=n))
            pseudo = rng.integers(0, C, size=n)
            mask = rng.random(n) > 0.3
            probs, _ = _predict_from_scores(clf, acts[-1] @ clf.theta.T, ratios, pseudo)
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), pseudo] = 1.0
            G = (probs - onehot) * (ratios[:, None] / (clf.r * onehot + 1.0))
            g_ref, f_ref = _score_gradient(clf, acts, G, mask * 0.7 / n)
            _, g, f = _unsup_gradient(clf, acts, ratios, pseudo, mask, 0.7)
            np.testing.assert_array_equal(g, g_ref)
            np.testing.assert_array_equal(f, f_ref)


def small_setup(seed=0, n_labeled=12, n_target=48):
    source, target = generate_gaussian_shift(
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


def test_drssl_step_runs_the_classifier_forward_once(monkeypatch):
    # One batch, no domain net and an unlabeled target: the step's only
    # forward pass is the one over its 12 labeled, 16 weak and 16 strong rows.
    labeled, target = small_setup(seed=5, n_target=16)
    unlabeled = dataset_from_arrays(target.X, None, "target", 2)
    cfg = SslConfig(augmentation=AugmentationSpec(seed=5), base=TrainConfig(epochs=1, seed=5))
    calls = []
    original = drshift.features._forward_activations

    def counting(fmap, X):
        calls.append(X.shape[0])
        return original(fmap, X)

    for module in (drshift.features, drshift.robust, drshift.semisup):
        monkeypatch.setattr(module, "_forward_activations", counting)
    clf, _ = default_models(labeled, cfg.base.seed)
    _, _, hist = run_drssl(labeled, unlabeled, cfg, clf, None)
    assert len(hist) == 1
    assert calls == [44]


def test_strong_branch_runs_only_on_steps_with_a_confident_weak_row(monkeypatch):
    labeled, target = small_setup(seed=6)
    cfg = SslConfig(threshold=0.6, augmentation=AugmentationSpec(seed=6),
                    base=TrainConfig(epochs=4, seed=6))
    masked_steps, calls = [], []
    original_unsup = drshift.semisup._unsup_gradient
    original_weak = drshift.semisup._weak_mask

    def recording_weak(clf, Z, ratios, threshold):
        # The weak branch's test-mode predictions and their confidence mask.
        probs, mask = original_weak(clf, Z, ratios, threshold)
        assert threshold == cfg.threshold
        np.testing.assert_array_equal(mask, probs.max(axis=1) > cfg.threshold)
        masked_steps.append(bool(mask.any()))
        return probs, mask

    def counting_unsup(*args):
        calls.append(1)
        return original_unsup(*args)

    monkeypatch.setattr(drshift.semisup, "_weak_mask", recording_weak)
    monkeypatch.setattr(drshift.semisup, "_unsup_gradient", counting_unsup)
    run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
    assert len(masked_steps) == 4 * 3
    assert 0 < sum(masked_steps) < len(masked_steps)
    assert len(calls) == sum(masked_steps)


def test_sup_loss_is_bitwise_the_running_sum_of_step_means(monkeypatch):
    # The epoch record sums the per-step mean losses once per epoch; the
    # reference adds each step's _nll_at(...).mean() as the step ends.
    labeled, target = small_setup(seed=8, n_target=160)  # 10 steps an epoch
    cfg = SslConfig(threshold=0.6, augmentation=AugmentationSpec(seed=8),
                    base=TrainConfig(epochs=3, seed=8))
    step_losses = []
    original = drshift.semisup.grad_source

    def recording(clf, batch, ratios, weights=None, acts=None):
        g = original(clf, batch, ratios, weights, acts)
        step_losses.append(float(_nll_at(g.probs, batch[1]).mean()))
        return g

    monkeypatch.setattr(drshift.semisup, "grad_source", recording)
    _, _, hist = run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
    n_batches = 10
    assert len(hist) == 3 and len(step_losses) == 3 * n_batches
    for epoch, rec in enumerate(hist):
        total = 0.0
        for loss in step_losses[epoch * n_batches:(epoch + 1) * n_batches]:
            total += loss
        assert rec["sup_loss"] == total / n_batches


def test_run_no_weak_row_can_pass_trains_the_zero_weight_model():
    # The steps whose strong branch is skipped take exactly the supervised
    # gradient, as every step of a run with loss_weight = 0 does.
    labeled, target = small_setup(seed=7)
    base = TrainConfig(epochs=3, seed=7)
    aug = AugmentationSpec(seed=7)
    unreachable = SslConfig(threshold=1.0 - 1e-12, augmentation=aug, base=base)
    weightless = SslConfig(loss_weight=0.0, augmentation=aug, base=base)
    clf_a, dom_a, hist = run_drssl(labeled, target, unreachable,
                                   *default_models(labeled, base.seed))
    clf_b, dom_b, _ = run_drssl(labeled, target, weightless, *default_models(labeled, base.seed))
    assert all(h["mask_rate"] == 0.0 and h["unsup_loss"] == 0.0 for h in hist)
    assert clf_a.theta.tobytes() == clf_b.theta.tobytes()
    assert clf_a.feature_map.params.tobytes() == clf_b.feature_map.params.tobytes()
    assert dom_a.net.params.tobytes() == dom_b.net.params.tobytes()


def test_out_of_bounds_strong_ratio_rejected(monkeypatch):
    # The training loop checks every row of its ratio read, the strong rows
    # among them, so a step that skips the strong branch still checks them.
    labeled, target = small_setup(seed=8, n_target=16)
    cfg = SslConfig(augmentation=AugmentationSpec(seed=8), base=TrainConfig(epochs=1, seed=8))
    clf, dom = default_models(labeled, cfg.base.seed)
    original = drshift.robust._ratios

    def bad_last_row(clf, dom, X, epoch=None):
        ratios = original(clf, dom, X, epoch)
        ratios[-1] = 10 * clf.ratio_bounds[1]  # the last strong row
        return ratios

    steps = []
    original_grad = drshift.semisup.grad_source

    def recording_grad(*args, **kwargs):
        steps.append(1)
        return original_grad(*args, **kwargs)

    monkeypatch.setattr(drshift.robust, "_ratios", bad_last_row)
    monkeypatch.setattr(drshift.semisup, "grad_source", recording_grad)
    with pytest.raises(ContractError, match="ratio outside bounds"):
        run_drssl(labeled, target, cfg, clf, dom)
    # The read's check fails the run before its first step; the epoch
    # record's target predictions, which raise the same error, come after.
    assert steps == []


def test_drssl_reads_the_ratios_once_per_domain_period(monkeypatch):
    # 3 batches per epoch against a domain period of 2: a read after each
    # domain step, one at each epoch start that falls mid-period, and the
    # record's target read per epoch. The steps' reads cover each of their
    # 12 labeled, 16 weak and 16 strong rows once.
    labeled, target = small_setup(seed=9)
    epochs, period = 3, 2
    cfg = SslConfig(augmentation=AugmentationSpec(seed=9),
                    base=TrainConfig(epochs=epochs, domain_update_period=period, seed=9))
    rows = []
    original = drshift.robust.domain_ratios

    def counting(dom, X, bounds):
        rows.append(X.shape[0])
        return original(dom, X, bounds)

    monkeypatch.setattr(drshift.robust, "domain_ratios", counting)
    run_drssl(labeled, target, cfg, *default_models(labeled, cfg.base.seed))
    n_batches, width = 3, 12 + 2 * 16
    steps = epochs * n_batches
    domain_steps = -(-steps // period)
    mid_period_starts = sum((e * n_batches) % period != 0 for e in range(epochs))
    assert len(rows) == domain_steps + mid_period_starts + epochs == 9
    assert sum(rows) == steps * width + epochs * len(target)


@pytest.mark.parametrize("count", [0, 1, 3, 2.5, 42])
def test_labeled_count_that_no_balanced_subset_has_is_config_error(count):
    # Two classes of 20 rows each: the count must be a positive even
    # integer of at most 40.
    source = dataset_from_arrays(np.zeros((40, 2)), np.arange(40) % 2)
    with pytest.raises(ConfigError, match="^labeled_count: "):
        class_balanced_subset(source, count, seed=0)
    subset = class_balanced_subset(source, 40, seed=0)
    assert np.array_equal(subset.y, source.y)
