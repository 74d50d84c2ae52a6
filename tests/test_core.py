import json
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import softmax

import drshift.robust
from drshift import (
    AugmentationSpec,
    ConfigError,
    ContractError,
    RobustClassifier,
    TrainConfig,
    bce_loss,
    checkpoint_from_json,
    checkpoint_to_json,
    dataset_from_arrays,
    default_classifier,
    default_domain_classifier,
    default_shift_spec,
    dual_objective,
    feature_constraint,
    generate_gaussian_shift,
    grad_source,
    identity_map,
    train_end_to_end,
    train_erm,
)
from drshift.data import GaussianShiftSpec
from drshift.domain import bce_gradient_arrays, domain_ratios
from drshift.robust import (
    _logits,
    _Momentum,
    _softmax_lse,
    class_scores,
    predict_proba,
    target_predictions,
)
from drshift.selftrain import SelfTrainSchedule, run_drst
from drshift.semisup import SslConfig, run_drssl

from helpers import enumerate_source, fd_layers, fd_matrix, flat, random_discrete_instance, rel_err
from oracle import oracle_expectations


def layer_arrays(fmap):
    return [a for layer in fmap.layers for a in layer]


def entropy(p):
    return float(-(p * np.log(p)).sum())


def kl_to_uniform(p):
    return float(np.log(len(p)) - entropy(p))


class TestPredict:
    """A single input is a one-row batch of predict_proba."""

    def test_zero_scores_give_uniform(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2))
        probs, _ = predict_proba(clf, np.zeros((1, 2)), [1.0])
        np.testing.assert_allclose(probs[0], [0.5, 0.5], atol=1e-15)

    def test_half_ratio_example(self):
        # scores (2, 0), R = 0.5 -> softmax(1, 0)
        clf = RobustClassifier(np.array([[1.0, 0.0], [0.0, 0.0]]), identity_map(2))
        probs, _ = predict_proba(clf, np.array([[2.0, 9.0]]), [0.5])
        np.testing.assert_allclose(probs[0], softmax([1.0, 0.0]), atol=1e-12)
        assert probs[0, 0] == pytest.approx(0.7310585786, abs=1e-9)

    def test_test_mode_equals_temperature_two(self):
        clf = RobustClassifier(np.array([[1.0, 0.0], [0.0, 0.0]]), identity_map(2), r=1.0)
        probs, _ = predict_proba(clf, np.array([[2.0, 0.0]]), [1.0])
        np.testing.assert_allclose(probs[0], softmax([1.0, 0.0]), atol=1e-15)

    def test_reduction_r0_unit_ratio_is_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            C, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            clf = RobustClassifier(rng.normal(size=(C, m)), identity_map(m))
            x = rng.normal(size=m)
            probs, _ = predict_proba(clf, x[None], [1.0])
            np.testing.assert_allclose(probs[0], softmax(clf.theta @ x), atol=1e-12)

    def test_temperature_identity_exact(self):
        rng = np.random.default_rng(1)
        for r in [0.0, 0.3, 1.0]:
            clf = RobustClassifier(rng.normal(size=(3, 4)), identity_map(4), r=r)
            x = rng.normal(size=4)
            for R in [0.01, 0.5, 2.0]:
                probs, _ = predict_proba(clf, x[None], [R])
                expected = softmax(R * (clf.theta @ x) / (1.0 + r))
                assert np.array_equal(probs[0], expected)

    def test_train_and_test_modes_coincide_at_r0(self):
        rng = np.random.default_rng(2)
        clf = RobustClassifier(rng.normal(size=(3, 2)), identity_map(2), r=0.0)
        X = rng.normal(size=(1, 2))
        p_test, _ = predict_proba(clf, X, [0.7])
        for y in range(3):
            p_train, _ = predict_proba(clf, X, [0.7], [y])
            np.testing.assert_array_equal(p_train, p_test)

    def test_entropy_strictly_decreasing_in_ratio(self):
        rng = np.random.default_rng(3)
        clf = RobustClassifier(rng.normal(size=(3, 3)), identity_map(3), ratio_bounds=(1e-3, 1e3))
        X = rng.normal(size=(1, 3))
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0]
        ents = [entropy(predict_proba(clf, X, [R])[0][0]) for R in grid]
        assert all(a > b for a, b in zip(ents, ents[1:]))

    def test_kl_to_uniform_vanishes_monotonically(self):
        rng = np.random.default_rng(4)
        clf = RobustClassifier(rng.normal(size=(4, 3)), identity_map(3), ratio_bounds=(1e-4, 1e3))
        X = rng.normal(size=(1, 3))
        grid = [1.0, 0.5, 0.1, 0.01, 0.001]
        kls = [kl_to_uniform(predict_proba(clf, X, [R])[0][0]) for R in grid]
        assert all(a > b for a, b in zip(kls, kls[1:]))
        assert kls[-1] < 1e-4

    def test_argmax_invariant_in_ratio(self):
        rng = np.random.default_rng(5)
        clf = RobustClassifier(rng.normal(size=(4, 3)), identity_map(3))
        X = rng.normal(size=(1, 3))
        picks = {int(np.argmax(predict_proba(clf, X, [R])[0])) for R in [0.01, 0.1, 1.0, 10.0, 100.0]}
        assert len(picks) == 1

    def test_ratio_outside_bounds_rejected(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2), ratio_bounds=(0.5, 2.0))
        with pytest.raises(ContractError):
            predict_proba(clf, np.zeros((1, 2)), [4.0])

    def test_input_of_the_wrong_dim_rejected(self):
        clf = RobustClassifier(np.zeros((2, 3)), identity_map(3))
        for X in (np.zeros((1, 2)), np.zeros(3)):
            with pytest.raises(ConfigError):
                predict_proba(clf, X, [1.0])
            with pytest.raises(ConfigError):
                grad_source(clf, (X, np.zeros(len(X), int)), np.ones(len(X)))

    def test_train_label_outside_the_classes_rejected(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2))
        for label in (-1, 2):
            labels = [0, label, 1]
            with pytest.raises(ContractError, match=f"label {label} outside"):
                predict_proba(clf, np.zeros((3, 2)), np.ones(3), labels)
            with pytest.raises(ContractError, match=f"label {label} outside"):
                grad_source(clf, (np.zeros((3, 2)), labels), np.ones(3))

    def test_probs_on_simplex(self):
        rng = np.random.default_rng(6)
        clf = RobustClassifier(rng.normal(size=(5, 4)) * 3, identity_map(4))
        for _ in range(20):
            X, R = rng.normal(size=(1, 4)), float(rng.uniform(0.1, 10))
            probs, _ = predict_proba(clf, X, [R], [2])
            assert probs[0].sum() == pytest.approx(1.0, abs=1e-10)
            assert (probs[0] > 0).all()


class TestDualObjective:
    def test_zero_theta_gives_log_class_count(self):
        rng = np.random.default_rng(7)
        spec, clf = random_discrete_instance(rng, class_count=4)
        clf.theta[:] = 0.0
        cons = feature_constraint(clf.feature_map, spec.points, np.zeros(len(spec.points), int), 4)
        cons[:] = 0.0
        val = dual_objective(clf, spec.points, np.ones(spec.n_points), cons)
        assert val == pytest.approx(np.log(4), abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        spec, clf = random_discrete_instance(rng, uniform_target=True)
        X, y, w, ratios = enumerate_source(spec)
        cons = feature_constraint(clf.feature_map, X, y, spec.class_count, weights=w)
        val = dual_objective(clf, spec.points, spec.p_source / spec.p_target, cons)
        res = oracle_expectations(spec, clf)
        assert val == pytest.approx(res.dual_value, abs=1e-10)

    def test_hand_computed_single_point(self):
        theta = np.array([[0.8, -0.1], [0.2, 0.4]])
        clf = RobustClassifier(theta, identity_map(2), 0.0, (1e-8, 1e8))
        x = np.array([1.0, 2.0])
        R = 1.7
        c_tilde = np.array([[0.3, 0.1], [0.0, 0.2]])
        z1, z2 = theta[0] @ x, theta[1] @ x
        expected = np.log(np.exp(R * z1) + np.exp(R * z2)) - (
            theta[0] @ c_tilde[0] + theta[1] @ c_tilde[1]
        )
        assert dual_objective(clf, x[None, :], [R], c_tilde) == pytest.approx(expected, abs=1e-12)

    def test_empty_target_rejected(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2))
        cons = feature_constraint(clf.feature_map, np.zeros((1, 2)), [0], 2)
        with pytest.raises(ContractError):
            dual_objective(clf, np.zeros((0, 2)), np.ones(0), cons)


class TestGradSource:
    def test_perfect_fit_gives_zero_gradient(self):
        # saturated softmax puts probability exactly 1 on the label
        # (exp(-800) underflows to zero)
        clf = RobustClassifier(800.0 * np.eye(2), identity_map(2), 0.0, (1e-8, 1e8))
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        g = grad_source(clf, (X, y), np.ones(2))
        assert np.abs(g.grad_theta).max() == 0.0
        np.testing.assert_array_equal(g.probs, np.eye(2))

    def test_change_of_measure_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            spec, clf = random_discrete_instance(rng)
            X, y, w, ratios = enumerate_source(spec)
            g = grad_source(clf, (X, y), ratios, weights=w)
            res = oracle_expectations(spec, clf)
            assert np.abs(g.grad_theta - res.grad_theta).max() <= 1e-10

    def test_theta_gradient_matches_dual_finite_differences(self):
        rng = np.random.default_rng(10)
        spec, clf = random_discrete_instance(rng, uniform_target=True)
        X, y, w, ratios = enumerate_source(spec)
        g = grad_source(clf, (X, y), ratios, weights=w)
        target_ratios = spec.p_source / spec.p_target

        def dual():
            cons = feature_constraint(clf.feature_map, X, y, spec.class_count, weights=w)
            return dual_objective(clf, spec.points, target_ratios, cons)

        fd = fd_matrix(dual, clf.theta, eps=1e-5)
        assert rel_err(fd, g.grad_theta) <= 1e-4

    def test_feature_gradient_matches_dual_finite_differences(self):
        rng = np.random.default_rng(11)
        spec, clf = random_discrete_instance(rng, uniform_target=True)
        X, y, w, ratios = enumerate_source(spec)
        g = grad_source(clf, (X, y), ratios, weights=w)
        target_ratios = spec.p_source / spec.p_target

        def dual():
            cons = feature_constraint(clf.feature_map, X, y, spec.class_count, weights=w)
            return dual_objective(clf, spec.points, target_ratios, cons)

        fd = fd_layers(dual, clf.feature_map, eps=1e-5)
        assert rel_err(flat(fd), g.feature_grad) <= 1e-4

    def test_label_that_is_not_an_integer_is_rejected(self):
        clf = RobustClassifier(np.eye(2), identity_map(2), 0.0, (1e-8, 1e8))
        X = np.eye(2)
        with pytest.raises(ContractError, match="label 1.5 is not an integer"):
            grad_source(clf, (X, [0.0, 1.5]), np.ones(2))
        whole = grad_source(clf, (X, [0.0, 1.0]), np.ones(2))
        np.testing.assert_array_equal(whole.grad_theta, grad_source(clf, (X, [0, 1]), np.ones(2)).grad_theta)


class TestNanRatio:
    """Every batch path rejects a NaN ratio instead of returning NaN results."""

    ratios = np.array([1.0, np.nan, 1.0])

    def setup_method(self):
        self.clf = RobustClassifier(np.eye(2), identity_map(2))
        self.X = np.arange(6.0).reshape(3, 2)

    def test_predict_proba(self):
        with pytest.raises(ContractError):
            predict_proba(self.clf, self.X, self.ratios)

    def test_grad_source(self):
        with pytest.raises(ContractError):
            grad_source(self.clf, (self.X, np.array([0, 1, 0])), self.ratios)

    def test_dual_objective(self):
        cons = feature_constraint(self.clf.feature_map, self.X, [0, 1, 0], 2)
        with pytest.raises(ContractError):
            dual_objective(self.clf, self.X, self.ratios, cons)


class TestRatioCount:
    """Every batch path takes exactly one ratio per row."""

    def setup_method(self):
        self.clf = RobustClassifier(np.eye(2), identity_map(2))
        self.X = np.arange(6.0).reshape(3, 2)
        self.y = np.array([0, 1, 0])

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_a_ratio_count_other_than_the_row_count_is_rejected(self, count):
        ratios = np.ones(count)
        cons = feature_constraint(self.clf.feature_map, self.X, self.y, 2)
        calls = (
            lambda: predict_proba(self.clf, self.X, ratios),
            lambda: grad_source(self.clf, (self.X, self.y), ratios),
            lambda: dual_objective(self.clf, self.X, ratios, cons),
        )
        for call in calls:
            with pytest.raises(ContractError, match=f"{count} ratios for 3 rows"):
                call()

    # A scalar is not one ratio per row, not even for a one-row batch.
    def test_a_scalar_ratio_is_rejected_by_predict_proba(self):
        with pytest.raises(ContractError, match=r"shape \(\) for 1 rows"):
            predict_proba(self.clf, self.X[:1], 1.0)

    def test_a_scalar_ratio_is_rejected_by_grad_source(self):
        with pytest.raises(ContractError, match=r"shape \(\) for 1 rows"):
            grad_source(self.clf, (self.X[:1], self.y[:1]), 1.0)

    def test_a_scalar_ratio_is_rejected_by_dual_objective(self):
        cons = feature_constraint(self.clf.feature_map, self.X[:1], self.y[:1], 2)
        with pytest.raises(ContractError, match=r"shape \(\) for 1 rows"):
            dual_objective(self.clf, self.X[:1], 1.0, cons)


class TestRowCount:
    """Labels, weights and domain tags, too, take exactly one value per row."""

    def setup_method(self):
        self.clf = RobustClassifier(np.eye(2), identity_map(2))
        self.dom = default_domain_classifier(2, seed=0)
        self.X = np.arange(6.0).reshape(3, 2)
        self.y = np.array([0, 1, 0])
        self.ratios = np.ones(3)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_a_count_other_than_the_row_count_is_rejected(self, count):
        values, labels = np.ones(count), np.zeros(count, dtype=int)
        fmap = self.clf.feature_map
        calls = (
            ("labels", lambda: grad_source(self.clf, (self.X, labels), self.ratios)),
            ("weights", lambda: grad_source(self.clf, (self.X, self.y), self.ratios, values)),
            ("labels", lambda: feature_constraint(fmap, self.X, labels, 2)),
            ("weights", lambda: feature_constraint(fmap, self.X, self.y, 2, weights=values)),
            ("labels", lambda: predict_proba(self.clf, self.X, self.ratios, labels)),
            ("domain tags", lambda: bce_loss(self.dom, self.X, values)),
            ("domain tags", lambda: bce_gradient_arrays(self.dom, self.X, values)),
        )
        for what, call in calls:
            with pytest.raises(ContractError, match=f"{count} {what} for 3 rows"):
                call()

    @pytest.mark.parametrize("label", [-1, 5])
    def test_a_constraint_label_outside_the_classes_is_rejected(self, label):
        with pytest.raises(ContractError, match=f"label {label} outside"):
            feature_constraint(self.clf.feature_map, self.X, [0, label, 1], 2)


class TestZeroRows:
    def setup_method(self):
        self.clf = default_classifier(2, 3, seed=1)

    def test_predict_proba_returns_empty_arrays(self):
        probs, log_z = predict_proba(self.clf, np.zeros((0, 2)), np.zeros(0))
        assert probs.shape == (0, 3) and log_z.shape == (0,)
        probs, _ = predict_proba(self.clf, np.zeros((0, 2)), np.zeros(0), labels=[])
        assert probs.shape == (0, 3)

    def test_grad_source_rejects_an_empty_batch(self):
        with pytest.raises(ContractError, match="at least one"):
            grad_source(self.clf, (np.zeros((0, 2)), np.zeros(0, dtype=int)), np.zeros(0))


def no_shift_spec(seed, n=400):
    return GaussianShiftSpec(
        source_mean=[0.0, 0.0], target_mean=[0.0, 0.0],
        source_cov=np.eye(2), target_cov=np.eye(2),
        boundary_weights=[1.0, -1.0], boundary_bias=0.0,
        n_source=n, n_target=n, seed=seed,
    )


class TestTrainEndToEnd:
    def test_zero_epochs_is_noop(self):
        source, target = generate_gaussian_shift(default_shift_spec(seed=0, n_source=30, n_target=30))
        clf = default_classifier(2, 2, seed=1)
        dom = default_domain_classifier(2, seed=2)
        cfg = TrainConfig(epochs=0, seed=0)
        out_clf, out_dom, history = train_end_to_end(source, target, clf, dom, cfg)
        assert history == []
        np.testing.assert_array_equal(out_clf.theta, clf.theta)
        for (W0, b0), (W1, b1) in zip(dom.net.layers, out_dom.net.layers):
            np.testing.assert_array_equal(W0, W1)

    def test_inputs_not_mutated(self):
        # The optimizers step parameter arrays in place, so every trainer must
        # step copies that share no array with the caller's models.
        source, target = generate_gaussian_shift(default_shift_spec(seed=0, n_source=64, n_target=64))
        clf = default_classifier(2, 2, seed=1, r=0.5)
        dom = default_domain_classifier(2, seed=2)
        cfg = TrainConfig(epochs=2, seed=0)
        trainers = {
            "train_end_to_end": lambda: train_end_to_end(source, target, clf, dom, cfg),
            "train_erm": lambda: train_erm(source, cfg, clf),
            "run_drst": lambda: run_drst(source, target, SelfTrainSchedule(rounds=2), cfg, clf, dom),
            "run_drssl": lambda: run_drssl(source, target, SslConfig(base=cfg), clf, dom),
        }
        inputs = [clf.theta, *layer_arrays(clf.feature_map), *layer_arrays(dom.net)]
        before = [a.copy() for a in inputs]
        for name, train in trainers.items():
            out = train()
            out_clf, out_dom = out[0], (out[1] if len(out) == 3 else None)
            outputs = [out_clf.theta, *layer_arrays(out_clf.feature_map)]
            outputs += [] if out_dom is None else layer_arrays(out_dom.net)
            for a, b in zip(inputs, before):
                np.testing.assert_array_equal(a, b, err_msg=name)
                assert not any(np.shares_memory(a, o) for o in outputs), name

    def test_deterministic_histories(self):
        source, target = generate_gaussian_shift(default_shift_spec(seed=3, n_source=100, n_target=100))
        clf = default_classifier(2, 2, seed=1)
        dom = default_domain_classifier(2, seed=2)
        cfg = TrainConfig(epochs=4, seed=9)
        _, _, h1 = train_end_to_end(source, target, clf, dom, cfg)
        _, _, h2 = train_end_to_end(source, target, clf, dom, cfg)
        assert h1 == h2

    def test_out_of_bounds_source_ratio_from_the_period_read_rejected(self, monkeypatch):
        # The training loop checks its ratio read before any step slices it,
        # so one bad source row fails the run even though grad_source, which
        # checks its own slice, is never reached with it.
        source, target, clf, dom, cfg = tiny_training_problem()
        original = drshift.robust._ratios
        reads = []

        def bad_last_row(clf, dom, X, epoch=None):
            ratios = original(clf, dom, X, epoch)
            ratios[-1] = 0.5 * clf.ratio_bounds[0]
            reads.append(len(ratios))
            return ratios

        checked = []
        original_grad = drshift.robust.grad_source

        def recording_grad(clf, batch, ratios, *args, **kwargs):
            checked.append(len(ratios))
            return original_grad(clf, batch, ratios, *args, **kwargs)

        monkeypatch.setattr(drshift.robust, "_ratios", bad_last_row)
        monkeypatch.setattr(drshift.robust, "grad_source", recording_grad)
        with pytest.raises(ContractError, match="ratio outside bounds"):
            train_end_to_end(source, target, clf, dom, cfg)
        # The first read covers a domain period of two 4-row batches.
        assert reads == [8] and checked == []

    def test_each_epoch_reads_each_trained_source_row_once(self, monkeypatch):
        # 14 source rows in batches of 4 make 3 batches an epoch and leave 2
        # rows out; a domain period of 2 starts the second epoch mid-period.
        source, target, clf, dom, cfg = tiny_training_problem()
        reads, batches = [], []
        original = drshift.robust._ratios
        original_grad = drshift.robust.grad_source

        def recording(clf, dom, X, epoch=None):
            reads.append((epoch, X.copy()))
            return original(clf, dom, X, epoch)

        def recording_grad(clf, batch, ratios, *args, **kwargs):
            batches.append(batch[0].copy())
            return original_grad(clf, batch, ratios, *args, **kwargs)

        monkeypatch.setattr(drshift.robust, "_ratios", recording)
        monkeypatch.setattr(drshift.robust, "grad_source", recording_grad)
        train_end_to_end(source, target, clf, dom, cfg)
        assert [len(X) for _, X in reads] == [8, 4, 4, 8]
        rng = np.random.default_rng(cfg.seed)
        for epoch in range(cfg.epochs):
            perm_s = rng.permutation(len(source))
            rng.permutation(len(target))
            read = np.vstack([X for e, X in reads if e == epoch])
            trained = np.vstack(batches[3 * epoch:3 * (epoch + 1)])
            assert read.tobytes() == trained.tobytes()
            assert read.tobytes() == source.X[perm_s[:12]].tobytes()

    def test_without_domain_net_ratios_are_one(self):
        spec = default_shift_spec(seed=3, n_source=64, n_target=64)
        source, target = generate_gaussian_shift(spec)
        clf0 = default_classifier(2, 2, seed=1, r=0.5)
        cfg = TrainConfig(epochs=2, seed=0)
        clf, dom, history = train_end_to_end(source, target, clf0, None, cfg)
        assert dom is None
        assert len(history) == 2 and all(np.isnan(h["bce"]) for h in history)
        assert not np.array_equal(clf.theta, clf0.theta)
        _, ratios = target_predictions(clf, None, target)
        np.testing.assert_array_equal(ratios, np.ones(len(target)))

    def test_the_classifier_bounds_clamp_the_domain_net(self):
        # The domain net holds no bounds of its own: a narrow classifier
        # clamps every ratio it reads, in training and in prediction.
        source, target = generate_gaussian_shift(default_shift_spec(seed=3, n_source=64,
                                                                    n_target=64))
        clf0 = default_classifier(2, 2, seed=100, r=1.0, ratio_bounds=(0.9, 1.11))
        dom0 = default_domain_classifier(2, seed=101)
        clf, dom, _ = train_end_to_end(source, target, clf0, dom0, TrainConfig(epochs=2, seed=0))
        _, ratios = target_predictions(clf, dom, target)
        assert ratios.min() >= 0.9 and ratios.max() <= 1.11

    def test_no_shift_ratios_near_one_and_erm_parity(self):
        source, target = generate_gaussian_shift(no_shift_spec(seed=4))
        heldout, _ = generate_gaussian_shift(no_shift_spec(seed=5))
        cfg = TrainConfig(lr_domain=0.002, lr_model=0.05, batch_size=64, epochs=60, seed=4)
        clf0 = default_classifier(2, 2, seed=100, r=0.0)
        dom0 = default_domain_classifier(2, seed=101)
        clf, dom, _ = train_end_to_end(source, target, clf0, dom0, cfg)
        ratios, _, _ = domain_ratios(dom, target.X, clf.ratio_bounds)
        assert np.abs(ratios - 1.0).mean() < 0.2

        erm, _ = train_erm(source, cfg)
        probs_drl, _ = target_predictions(clf, dom, heldout)
        probs_erm, _ = target_predictions(erm, None, heldout)
        acc_drl = (probs_drl.argmax(1) == heldout.y).mean()
        acc_erm = (probs_erm.argmax(1) == heldout.y).mean()
        assert abs(acc_drl - acc_erm) <= 0.02

    def test_dual_objective_trend_over_seeds(self):
        gaps = []
        for seed in range(5):
            source, target = generate_gaussian_shift(default_shift_spec(seed=seed))
            cfg = TrainConfig(lr_domain=0.002, lr_model=0.05, batch_size=64, epochs=30, seed=seed)
            clf0 = default_classifier(2, 2, seed=seed + 100, r=0.0)
            dom0 = default_domain_classifier(2, seed=seed + 101)
            _, _, hist = train_end_to_end(source, target, clf0, dom0, cfg)
            duals = [h["dual"] for h in hist]
            gaps.append(np.mean(duals[-5:]) - np.mean(duals[:5]))
        assert np.mean(gaps) <= 0.0


class TestStepReferences:
    """The in-place and one-hot-free forms against the formulas they replaced."""

    def test_momentum_step_matches_the_out_of_place_formula(self):
        rng = np.random.default_rng(5)
        clf = default_classifier(2, 3, seed=4, hidden=(5, 4), feature_dim=3)
        clf.theta = rng.normal(size=clf.theta.shape)
        theta, layers = clf.theta.copy(), [(W.copy(), b.copy()) for W, b in clf.feature_map.layers]
        v_theta, v_layers = np.zeros_like(theta), [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
        lr, mu = 0.05, 0.9
        opt = _Momentum(clf, lr, mu)
        params = [clf.theta, *layer_arrays(clf.feature_map)]
        for _ in range(4):
            g_theta = rng.normal(size=theta.shape)
            g_layers = [(rng.normal(size=W.shape), rng.normal(size=b.shape)) for W, b in layers]
            opt.step(g_theta, flat(g_layers))
            v_theta = mu * v_theta + g_theta
            theta = theta - lr * v_theta
            v_layers = [(mu * vW + dW, mu * vb + db)
                        for (vW, vb), (dW, db) in zip(v_layers, g_layers)]
            layers = [(W - lr * vW, b - lr * vb) for (W, b), (vW, vb) in zip(layers, v_layers)]
            got = [clf.theta, *layer_arrays(clf.feature_map)]
            assert all(a is b for a, b in zip(got, params))
            for a, b in zip(got, [theta, *(a for layer in layers for a in layer)]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_train_mode_logits_match_the_one_hot_formula(self, r):
        rng = np.random.default_rng(6)
        C = 4
        clf = RobustClassifier(np.zeros((C, 2)), identity_map(2), r=r)
        Z = rng.normal(scale=3.0, size=(3 * C, C))
        Z[0] = [0.0, -0.0, 0.0, -0.0]
        ratios = rng.uniform(0.01, 100.0, size=3 * C)
        labels = np.tile(np.arange(C), 3)
        onehot = np.zeros_like(Z)
        onehot[np.arange(3 * C), labels] = 1.0
        expected = (ratios[:, None] * Z + r * onehot) / (r * onehot + 1.0)
        got = _logits(clf, Z, ratios, labels)
        # Off the labels the one-hot form adds 0.0, which turns -0.0 into 0.0;
        # that sign is the only difference, and the softmax does not see it.
        np.testing.assert_array_equal(got, expected)
        assert np.abs(got).tobytes() == np.abs(expected).tobytes()
        for a, b in zip(_softmax_lse(got), _softmax_lse(expected)):
            assert a.tobytes() == b.tobytes()


class TestTrainErm:
    def test_linearly_separable_reaches_high_accuracy(self):
        rng = np.random.default_rng(12)
        n = 100
        X = np.vstack([rng.normal(size=(n, 2)) + [3, 0], rng.normal(size=(n, 2)) + [-3, 0]])
        y = np.array([0] * n + [1] * n)
        source = dataset_from_arrays(X, y)
        cfg = TrainConfig(lr_model=0.1, batch_size=16, epochs=50, seed=0)
        clf, history = train_erm(source, cfg)
        assert history[-1]["accuracy"] >= 0.98

    def test_zero_epochs_returns_initialized_model(self):
        source = dataset_from_arrays(np.zeros((3, 2)), [0, 1, 0])
        clf0 = default_classifier(2, 2, seed=3)
        clf, history = train_erm(source, TrainConfig(epochs=0, seed=0), clf=clf0)
        assert history == []
        np.testing.assert_array_equal(clf.theta, clf0.theta)

    def test_single_class_converges_to_that_class(self):
        rng = np.random.default_rng(13)
        source = dataset_from_arrays(rng.normal(size=(40, 2)), np.zeros(40, int), class_count=2)
        cfg = TrainConfig(lr_model=0.1, batch_size=8, epochs=50, seed=1)
        clf, _ = train_erm(source, cfg)
        probs, _ = predict_proba(clf, source.X, np.ones(len(source)))
        assert probs[:, 0].min() >= 0.9

    def test_tiny_run_matches_golden_values(self):
        # Captured by repr before train_erm ran through _train_pass: its batch
        # plan, shuffle stream and record must not move a bit.
        rng = np.random.default_rng(7)
        source = dataset_from_arrays(rng.normal(size=(12, 2)), rng.integers(0, 2, size=12), class_count=2)
        clf0 = default_classifier(2, 2, seed=3, hidden=(), feature_dim=2)
        clf, history = train_erm(source, TrainConfig(lr_model=0.1, batch_size=5, epochs=2, seed=4), clf0)
        assert repr(clf.theta.tolist()) == (
            "[[-0.009197345836614643, 0.013041784083091486], "
            "[0.009197345836614652, -0.013041784083091491]]"
        )
        assert repr(history) == (
            "[{'epoch': 0, 'ce_loss': 0.6941512900199034, 'accuracy': 0.4166666666666667}, "
            "{'epoch': 1, 'ce_loss': 0.6908957759796982, 'accuracy': 0.5833333333333334}]"
        )


def tiny_training_problem():
    """A 3-class source and a labeled target of a dozen rows each, r = 0.5
    models with one hidden layer, and batches of 4 with a domain step every
    other batch."""
    rng = np.random.default_rng(11)
    source = dataset_from_arrays(rng.normal(size=(14, 2)), rng.integers(0, 3, size=14), class_count=3)
    Xt, yt = rng.normal(loc=0.5, size=(12, 2)), rng.integers(0, 3, size=12)
    target = dataset_from_arrays(Xt, yt, domain="target", class_count=3)
    clf = default_classifier(2, 3, seed=3, r=0.5, hidden=(3,), feature_dim=2)
    dom = default_domain_classifier(2, seed=4, hidden=(3,))
    cfg = TrainConfig(lr_domain=0.05, lr_model=0.1, batch_size=4, epochs=2,
                      domain_update_period=2, seed=5)
    return source, target, clf, dom, cfg


def model_reprs(clf, dom):
    """repr of theta and of the classifier's and domain net's layers."""
    def layers(fmap):
        return repr([[W.tolist(), b.tolist()] for W, b in fmap.layers])
    return repr(clf.theta.tolist()), layers(clf.feature_map), layers(dom.net)


class TestTrainerGoldenValues:
    """Tiny runs of the three trainers, captured by repr before the momentum
    step moved to one flat parameter vector and the ratios to one read per
    domain period: neither may move a bit. Three batches per epoch against a
    domain period of 2 make the second epoch start mid-period."""

    def test_train_end_to_end(self):
        source, target, clf0, dom0, cfg = tiny_training_problem()
        clf, dom, history = train_end_to_end(source, target, clf0, dom0, cfg)
        theta, layers, dom_layers = model_reprs(clf, dom)
        assert theta == (
            "[[0.03477777280865453, 0.004676519764615188], [0.012522939245709913,"
            " -0.011353149196291894], [-0.04730071205436443, 0.006676629431676707]]"
        )
        assert layers == (
            "[[[[-0.5851846049056267, -0.37259765922773797], [0.42609382635102594,"
            " 0.11622897348384727], [-0.5738614768977598, -0.09465804059469528]],"
            " [0.0009746032660292864, 0.0002971709824056353, -6.693390559603076e-05]],"
            " [[[-0.024600210505871026, -0.39249465392754035, 0.2703544679327037],"
            " [-0.4444793342544677, -0.12705412751835027, 0.02113358746669819]],"
            " [-9.601251601884216e-05, -0.0018220539232147767]]]"
        )
        assert dom_layers == (
            "[[[[0.6252273950118856, 0.006357949832886626], [0.6793729755735257,"
            " -0.5801411664683079], [0.14577835944084777, -0.19259902502817144]],"
            " [-0.0016172423816405985, 0.0029773135507471958, -0.0010127193861666677]],"
            " [[[0.34230020659640253, -0.3626947893723839, 0.4346613976089036]],"
            " [-0.0020939366207609125]]]"
        )
        assert repr(history) == (
            "[{'epoch': 0, 'dual': 1.0984020199376963, 'bce': 0.717574990589575,"
            " 'source_accuracy': 0.42857142857142855}, {'epoch': 1,"
            " 'dual': 1.0972925262694504, 'bce': 0.7154712500513921,"
            " 'source_accuracy': 0.5714285714285714}]"
        )

    def test_run_drst_one_round(self):
        source, target, clf0, dom0, cfg = tiny_training_problem()
        schedule = SelfTrainSchedule(p0=0.3, dp=0.1, pmax=0.5, rounds=1)
        clf, dom, history = run_drst(source, target, schedule, cfg, clf0, dom0)
        theta, layers, dom_layers = model_reprs(clf, dom)
        assert theta == (
            "[[0.0894767270133682, 0.002878977806756399], [0.04851358158971289,"
            " -0.028796612069319813], [-0.1379903086030811, 0.025917634262563424]]"
        )
        assert layers == (
            "[[[[-0.585474960458625, -0.3727915675029758], [0.4360763336949117,"
            " 0.10747372088093611], [-0.579789516728972, -0.08861934291520354]],"
            " [-0.0018554865493105811, 0.010030856329299051, -0.006762107196649481]],"
            " [[[-0.016178207444295024, -0.40364385906308975, 0.28549736976222834],"
            " [-0.4453661552664049, -0.12624202683237246, 0.02002779568038428]],"
            " [-0.03278221096020908, 0.007874464121385915]]]"
        )
        assert dom_layers == (
            "[[[[0.6239896510042772, -0.0034118025936983746], [0.6840829734196311,"
            " -0.569765165563584], [0.14140821738929502, -0.2085372521571543]],"
            " [-0.00613658352521908, 0.007588302228434825, -0.009091351010220993]],"
            " [[[0.33772015016409973, -0.35054307723761596, 0.4407501308578104]],"
            " [-0.021973854207068735]]]"
        )
        assert repr(history) == (
            "[{'round': 0, 'portion': 0.3, 'n_pseudo': 5, 'accuracy': 0.25,"
            " 'brier': 0.6711654713232083, 'ece': 0.09226973225869006}]"
        )

    def test_run_drssl(self):
        source, target, clf0, dom0, cfg = tiny_training_problem()
        scfg = SslConfig(threshold=0.3345, unlabeled_batch=3, base=cfg)
        clf, dom, history = run_drssl(source, target, scfg, clf0, dom0)
        theta, layers, dom_layers = model_reprs(clf, dom)
        assert theta == (
            "[[-0.03141042658516435, 0.07658926576661933], [0.0696986137631325,"
            " -0.06313459815067307], [-0.0023341568543810004, -0.04350519363793351]]"
        )
        assert layers == (
            "[[[[-0.5872289272493083, -0.37813395480409556], [0.42653471296822504,"
            " 0.1168046256232347], [-0.5746308916889705, -0.09616089466387938]],"
            " [-0.005233279063318419, 0.0027601911502729915, -0.002691992904051906]],"
            " [[[-0.021145658349576085, -0.3939381280062376, 0.2721050039642291],"
            " [-0.45290200458759033, -0.12306052051143167, 0.016710430460347647]],"
            " [-0.01245977630854094, 0.015411795324580958]]]"
        )
        assert dom_layers == (
            "[[[[0.6240320308676464, -0.00454976818037668], [0.6808075920541895,"
            " -0.5760970218237774], [0.1413799873702576, -0.20470444454840808]],"
            " [-0.00019828240722752938, -5.589649816910205e-07, -0.0006774340413772475]],"
            " [[[0.3374784258204413, -0.35490147701254166, 0.43905859022132476]],"
            " [-0.002482674088456786]]]"
        )
        assert repr(history) == (
            "[{'epoch': 0, 'sup_loss': 0.8898385601119001,"
            " 'unsup_loss': 0.14768173892394568, 'mask_rate': 0.16666666666666666,"
            " 'target_acc': 0.4166666666666667}, {'epoch': 1,"
            " 'sup_loss': 0.8886185921136829, 'unsup_loss': 0.7355701600915764,"
            " 'mask_rate': 0.8333333333333334, 'target_acc': 0.4166666666666667}]"
        )

    def test_run_drssl_with_epochs_starting_mid_period(self):
        # Captured before DRSSL drew each epoch's batches up front and read
        # their ratios once per domain period. Four batches per epoch against
        # a domain period of 3 start epochs 1 and 2 mid-period, the 14
        # labeled rows run out and are redrawn at each epoch's fourth batch,
        # and the strong augmentation masks one of the two coordinates of
        # every row, so both generators' streams are pinned.
        source, target, clf0, dom0, cfg = tiny_training_problem()
        cfg = replace(cfg, domain_update_period=3, epochs=3)
        scfg = SslConfig(threshold=0.3345, unlabeled_batch=3, base=cfg,
                         augmentation=AugmentationSpec(strong_mask_fraction=0.25, seed=9))
        clf, dom, history = run_drssl(source, target, scfg, clf0, dom0)
        theta, layers, dom_layers = model_reprs(clf, dom)
        assert theta == (
            "[[-0.08722151048235754, 0.18020540182400188], [0.16451820448642132,"
            " -0.1444487876362762], [0.0029571444409791023, -0.10449300363015206]]"
        )
        assert layers == (
            "[[[[-0.588458122959536, -0.40175075090557305], [0.4301961833402393,"
            " 0.1172987917688311], [-0.5773852380687078, -0.10159394634853156]],"
            " [-0.019583026304675, 0.012214676120984742, -0.01139792617826898]],"
            " [[[-0.006741333141943446, -0.4014135169583686, 0.2807385451533686],"
            " [-0.4814512206622635, -0.11142387315101206, 0.005683071765769716]],"
            " [-0.05389908016177755, 0.062306154705492375]]]"
        )
        assert dom_layers == (
            "[[[[0.6270729164461015, 0.0004562386438477673], [0.6775129491985723,"
            " -0.5799891519499686], [0.14890271041217895, -0.19737471361757783]],"
            " [0.00210955808990709, -0.001308149142091422, -8.173356280107783e-05]],"
            " [[[0.34629264289020156, -0.3538856061441937, 0.43825550920104517]],"
            " [-0.0005112026173023207]]]"
        )
        assert repr(history) == (
            "[{'epoch': 0, 'sup_loss': 0.8898328573941948,"
            " 'unsup_loss': 0.1476596604225256, 'mask_rate': 0.16666666666666666,"
            " 'target_acc': 0.4166666666666667}, {'epoch': 1,"
            " 'sup_loss': 0.888852865524993, 'unsup_loss': 0.6629878754486163,"
            " 'mask_rate': 0.75, 'target_acc': 0.4166666666666667}, {'epoch': 2,"
            " 'sup_loss': 0.8900197059906443, 'unsup_loss': 0.7936235391897543,"
            " 'mask_rate': 0.9166666666666666, 'target_acc': 0.4166666666666667}]"
        )


@pytest.mark.parametrize("build, field", [
    (TrainConfig, "lr_domain"),
    (TrainConfig, "lr_model"),
    (TrainConfig, "batch_size"),
    (TrainConfig, "epochs"),
    (TrainConfig, "domain_update_period"),
    (TrainConfig, "seed"),
    (SslConfig, "unlabeled_batch"),
    (SslConfig, "loss_weight"),
    (AugmentationSpec, "weak_noise_std"),
    (AugmentationSpec, "strong_noise_std"),
    (AugmentationSpec, "seed"),
    (SelfTrainSchedule, "dp"),
    (SelfTrainSchedule, "rounds"),
    (lambda **kw: replace(default_shift_spec(), **kw), "n_source"),
    (lambda **kw: replace(default_shift_spec(), **kw), "n_target"),
    (lambda **kw: replace(default_shift_spec(), **kw), "seed"),
])
def test_config_range_checks_reject_nan(build, field):
    with pytest.raises(ConfigError):
        build(**{field: float("nan")})


@pytest.mark.parametrize("field, build", [
    ("batch_size", lambda v: TrainConfig(batch_size=v)),
    ("epochs", lambda v: TrainConfig(epochs=v)),
    ("domain_update_period", lambda v: TrainConfig(domain_update_period=v)),
    ("seed", lambda v: TrainConfig(seed=v)),
    ("seed", lambda v: AugmentationSpec(seed=v)),
    ("seed", lambda v: replace(default_shift_spec(), seed=v)),
    ("unlabeled_batch", lambda v: SslConfig(unlabeled_batch=v)),
    ("rounds", lambda v: SelfTrainSchedule(rounds=v)),
    ("n_source", lambda v: replace(default_shift_spec(), n_source=v)),
    ("n_target", lambda v: replace(default_shift_spec(), n_target=v)),
    ("feature_dim", lambda v: default_classifier(2, 2, feature_dim=v)),
    ("hidden[0]", lambda v: default_classifier(2, 2, hidden=(v,))),
    ("hidden[1]", lambda v: default_domain_classifier(2, hidden=(16, v))),
])
def test_integer_config_fields_reject_fractions(field, build):
    with pytest.raises(ConfigError, match=re.escape(f"{field}: expected an integer, got 2.5")):
        build(2.5)


@pytest.mark.parametrize("build", [
    lambda v: TrainConfig(seed=v),
    lambda v: AugmentationSpec(seed=v),
    lambda v: replace(default_shift_spec(), seed=v),
])
def test_seeds_reject_negative_values(build):
    with pytest.raises(ConfigError, match=re.escape("seed: must be >= 0, got -1")):
        build(-1)


def test_config_fields_store_numpy_scalars_as_python_numbers():
    cfg = TrainConfig(lr_model=np.float64(0.1), batch_size=np.int64(16), epochs=np.int64(3),
                      seed=np.int64(3))
    ssl = SslConfig(threshold=np.float64(0.9), unlabeled_batch=np.int64(16))
    aug = AugmentationSpec(seed=np.int64(3))
    schedule = SelfTrainSchedule(p0=np.float64(0.1), rounds=np.int64(2))
    spec = replace(default_shift_spec(), boundary_bias=np.float64(0.1), n_source=np.int64(16),
                   seed=np.int64(3))
    clf = default_classifier(2, 2, r=np.float64(0.1), hidden=(np.int64(16),),
                             feature_dim=np.int64(16), ratio_bounds=np.array([0.1, 10.0]))
    for value, kind in [(cfg.lr_model, float), (cfg.batch_size, int), (cfg.epochs, int),
                        (cfg.seed, int), (ssl.threshold, float), (ssl.unlabeled_batch, int),
                        (aug.seed, int), (schedule.p0, float), (schedule.rounds, int),
                        (spec.boundary_bias, float), (spec.n_source, int), (spec.seed, int),
                        (clf.r, float), (clf.ratio_bounds[0], float)]:
        assert type(value) is kind
    assert (cfg.lr_model, cfg.batch_size, spec.n_source, clf.ratio_bounds) == (0.1, 16, 16, (0.1, 10.0))
    # The seed reaches numpy as the same int, so the draws do not change.
    drawn = generate_gaussian_shift(spec)
    for a, b in zip(drawn, generate_gaussian_shift(replace(spec, seed=3))):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
    assert clf.theta.shape == (2, 16) and clf.feature_map.layers[0][0].shape == (16, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: RobustClassifier(np.zeros((2, 2)), identity_map(2), ratio_bounds=(5, 1)),
     "ratio_bounds: must satisfy 0 < min < max, got [5.0, 1.0]"),
    (lambda: default_classifier(2, 2, ratio_bounds=(0, 1)),
     "ratio_bounds: must satisfy 0 < min < max, got [0.0, 1.0]"),
    (lambda: default_classifier(2, 2, ratio_bounds=(1,)), "ratio_bounds: expected [min, max]"),
    (lambda: default_classifier(2, 2, feature_dim=0), "feature_dim: must be >= 1, got 0"),
    (lambda: default_classifier(2, 2, hidden=(0,)), "hidden[0]: must be >= 1, got 0"),
    (lambda: default_classifier(2, 2, hidden=16), "hidden: expected a list of widths, got 16"),
    (lambda: default_classifier(2, 2, r=True), "r: expected a number, got True"),
])
def test_classifier_parameters_are_checked_at_construction(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


def test_checkpoint_roundtrip():
    clf = default_classifier(2, 3, seed=5, r=0.4, ratio_bounds=(0.1, 10.0))
    dom = default_domain_classifier(2, seed=6)
    clf.theta += 0.5
    text = checkpoint_to_json(clf, dom, config={"seed": 1})
    clf2, dom2, cfg = checkpoint_from_json(text)
    assert cfg == {"seed": 1}
    assert clf2.r == clf.r and tuple(clf2.ratio_bounds) == (0.1, 10.0)
    X = np.random.default_rng(0).normal(size=(4, 2))
    np.testing.assert_array_equal(class_scores(clf, X), class_scores(clf2, X))
    np.testing.assert_array_equal(domain_ratios(dom, X, clf.ratio_bounds)[0],
                                  domain_ratios(dom2, X, clf2.ratio_bounds)[0])


# A model.json text in the format the CLI writes, whose feature maps carry
# "kind": "mlp" and "activation": "tanh", with the class scores it gave at
# two inputs when it was written.
SAVED_CHECKPOINT = (
    '{"theta": [[0.5, -1.0], [0.25, 2.0]], "feature_map": {"kind": "mlp", "in_dim": 2, '
    '"out_dim": 2, "activation": "tanh", "layers": [{"rows": 2, "cols": 2, "weight": '
    '[0.016718301980387817, 0.6370518687008531, -0.5032343017319885, 0.6344861328926812], '
    '"bias": [0.0, 0.0]}, {"rows": 2, "cols": 2, "weight": [-0.266110512578824, '
    '-0.10843277573828902, 0.46344145260571024, -0.12841181282192204], "bias": [0.0, 0.0]}]}, '
    '"r": 0.5, "ratio_bounds": [0.01, 100.0], "domain": {"net": {"kind": "mlp", "in_dim": 2, '
    '"out_dim": 1, "activation": "tanh", "layers": [{"rows": 2, "cols": 2, "weight": '
    '[-0.33713135284979334, -0.2849765579220418, 0.4443823039951611, -0.5771180092207928], '
    '"bias": [0.0, 0.0]}, {"rows": 1, "cols": 2, "weight": [0.14156352142130801, '
    '0.32323339684037933], "bias": [0.0]}]}, "ratio_bounds": [0.01, 100.0]}, '
    '"config": {"seed": 3}}'
)
SAVED_SCORES = [[0.27970000964580394, -0.2779088138486298],
                [-0.16473334630061442, 0.3596648077621035]]


def test_checkpoint_whose_domain_bounds_differ_is_config_error():
    doc = json.loads(SAVED_CHECKPOINT)
    doc["domain"]["ratio_bounds"] = [0.001, 1000.0]
    with pytest.raises(ConfigError, match=re.escape("domain.ratio_bounds: [0.001, 1000.0]")):
        checkpoint_from_json(json.dumps(doc))


def test_saved_checkpoint_loads_scores_and_rewrites_unchanged():
    clf, dom, cfg = checkpoint_from_json(SAVED_CHECKPOINT)
    assert checkpoint_to_json(clf, dom, cfg) == SAVED_CHECKPOINT
    X = np.array([[0.5, -1.0], [2.0, 0.25]])
    np.testing.assert_allclose(class_scores(clf, X), SAVED_SCORES, rtol=1e-15, atol=0)
