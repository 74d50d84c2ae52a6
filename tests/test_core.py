import numpy as np
import pytest
from scipy.special import softmax

from drshift import (
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
    predict,
    train_end_to_end,
    train_erm,
)
from drshift.data import GaussianShiftSpec
from drshift.domain import bce_gradient_arrays, domain_ratios
from drshift.features import FeatureGradient
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
    def test_zero_scores_give_uniform(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2))
        p = predict(clf, np.zeros(2), 1.0)
        np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-15)

    def test_half_ratio_example(self):
        # scores (2, 0), R = 0.5 -> softmax(1, 0)
        clf = RobustClassifier(np.array([[1.0, 0.0], [0.0, 0.0]]), identity_map(2))
        p = predict(clf, np.array([2.0, 9.0]), 0.5)
        np.testing.assert_allclose(p.probs, softmax([1.0, 0.0]), atol=1e-12)
        assert p.probs[0] == pytest.approx(0.7310585786, abs=1e-9)

    def test_test_mode_equals_temperature_two(self):
        clf = RobustClassifier(np.array([[1.0, 0.0], [0.0, 0.0]]), identity_map(2), r=1.0)
        p = predict(clf, np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(p.probs, softmax([1.0, 0.0]), atol=1e-15)

    def test_reduction_r0_unit_ratio_is_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            C, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            clf = RobustClassifier(rng.normal(size=(C, m)), identity_map(m))
            x = rng.normal(size=m)
            p = predict(clf, x, 1.0)
            np.testing.assert_allclose(p.probs, softmax(clf.theta @ x), atol=1e-12)

    def test_temperature_identity_exact(self):
        rng = np.random.default_rng(1)
        for r in [0.0, 0.3, 1.0]:
            clf = RobustClassifier(rng.normal(size=(3, 4)), identity_map(4), r=r)
            x = rng.normal(size=4)
            for R in [0.01, 0.5, 2.0]:
                p = predict(clf, x, R)
                expected = softmax(R * (clf.theta @ x) / (1.0 + r))
                assert np.array_equal(p.probs, expected)

    def test_train_and_test_modes_coincide_at_r0(self):
        rng = np.random.default_rng(2)
        clf = RobustClassifier(rng.normal(size=(3, 2)), identity_map(2), r=0.0)
        x = rng.normal(size=2)
        p_test = predict(clf, x, 0.7)
        for y in range(3):
            p_train = predict(clf, x, 0.7, train_label=y)
            np.testing.assert_array_equal(p_train.probs, p_test.probs)

    def test_entropy_strictly_decreasing_in_ratio(self):
        rng = np.random.default_rng(3)
        clf = RobustClassifier(rng.normal(size=(3, 3)), identity_map(3), ratio_bounds=(1e-3, 1e3))
        x = rng.normal(size=3)
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0]
        ents = [entropy(predict(clf, x, R).probs) for R in grid]
        assert all(a > b for a, b in zip(ents, ents[1:]))

    def test_kl_to_uniform_vanishes_monotonically(self):
        rng = np.random.default_rng(4)
        clf = RobustClassifier(rng.normal(size=(4, 3)), identity_map(3), ratio_bounds=(1e-4, 1e3))
        x = rng.normal(size=3)
        grid = [1.0, 0.5, 0.1, 0.01, 0.001]
        kls = [kl_to_uniform(predict(clf, x, R).probs) for R in grid]
        assert all(a > b for a, b in zip(kls, kls[1:]))
        assert kls[-1] < 1e-4

    def test_argmax_invariant_in_ratio(self):
        rng = np.random.default_rng(5)
        clf = RobustClassifier(rng.normal(size=(4, 3)), identity_map(3))
        x = rng.normal(size=3)
        picks = {int(np.argmax(predict(clf, x, R).probs)) for R in [0.01, 0.1, 1.0, 10.0, 100.0]}
        assert len(picks) == 1

    def test_ratio_outside_bounds_rejected(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2), ratio_bounds=(0.5, 2.0))
        with pytest.raises(ContractError):
            predict(clf, np.zeros(2), 4.0)

    @pytest.mark.parametrize("train_label", [None, 2])
    def test_predict_is_row_zero_of_predict_proba(self, train_label):
        rng = np.random.default_rng(7)
        clf = default_classifier(3, 4, seed=7, r=0.5)
        clf.theta = rng.normal(size=clf.theta.shape)
        labels = None if train_label is None else [train_label]
        for _ in range(20):
            x, R = rng.normal(size=3), float(rng.uniform(0.1, 10.0))
            p = predict(clf, x, R, train_label=train_label)
            probs, log_z = predict_proba(clf, x[None, :], np.array([R]), labels)
            assert np.array_equal(p.probs, probs[0]) and p.log_partition == log_z[0]

    def test_input_of_the_wrong_dim_rejected(self):
        clf = RobustClassifier(np.zeros((2, 3)), identity_map(3))
        for x in (np.zeros(2), np.zeros((1, 3))):
            with pytest.raises(ConfigError):
                predict(clf, x, 1.0)

    def test_train_label_outside_the_classes_rejected(self):
        clf = RobustClassifier(np.zeros((2, 2)), identity_map(2))
        for label in (-1, 2):
            with pytest.raises(ContractError):
                predict(clf, np.zeros(2), 1.0, train_label=label)

    def test_probs_on_simplex(self):
        rng = np.random.default_rng(6)
        clf = RobustClassifier(rng.normal(size=(5, 4)) * 3, identity_map(4))
        for _ in range(20):
            p = predict(clf, rng.normal(size=4), float(rng.uniform(0.1, 10)), train_label=2)
            assert p.probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert (p.probs > 0).all()


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
        assert rel_err(flat(fd), flat(g.feature_grad.layers)) <= 1e-4


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
        source, target, _ = generate_gaussian_shift(default_shift_spec(seed=0, n_source=30, n_target=30))
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
        source, target, _ = generate_gaussian_shift(default_shift_spec(seed=0, n_source=64, n_target=64))
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
        source, target, _ = generate_gaussian_shift(default_shift_spec(seed=3, n_source=100, n_target=100))
        clf = default_classifier(2, 2, seed=1)
        dom = default_domain_classifier(2, seed=2)
        cfg = TrainConfig(epochs=4, seed=9)
        _, _, h1 = train_end_to_end(source, target, clf, dom, cfg)
        _, _, h2 = train_end_to_end(source, target, clf, dom, cfg)
        assert h1 == h2

    def test_without_domain_net_ratios_are_one(self):
        spec = default_shift_spec(seed=3, n_source=64, n_target=64)
        source, target, _ = generate_gaussian_shift(spec)
        clf0 = default_classifier(2, 2, seed=1, r=0.5)
        cfg = TrainConfig(epochs=2, seed=0)
        clf, dom, history = train_end_to_end(source, target, clf0, None, cfg)
        assert dom is None
        assert len(history) == 2 and all(np.isnan(h["bce"]) for h in history)
        assert not np.array_equal(clf.theta, clf0.theta)
        _, ratios = target_predictions(clf, None, target)
        np.testing.assert_array_equal(ratios, np.ones(len(target)))

    def test_no_shift_ratios_near_one_and_erm_parity(self):
        source, target, _ = generate_gaussian_shift(no_shift_spec(seed=4))
        heldout, _, _ = generate_gaussian_shift(no_shift_spec(seed=5))
        cfg = TrainConfig(lr_domain=0.002, lr_model=0.05, batch_size=64, epochs=60, seed=4)
        clf0 = default_classifier(2, 2, seed=100, r=0.0)
        dom0 = default_domain_classifier(2, seed=101)
        clf, dom, _ = train_end_to_end(source, target, clf0, dom0, cfg)
        ratios, _, _ = domain_ratios(dom, target.X)
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
            source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
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
        # The optimizer puts views of its flat parameter vector in place of
        # clf's arrays, so the arrays it steps are the ones it leaves behind;
        # their values must not move.
        params = [clf.theta, *layer_arrays(clf.feature_map)]
        for a, b in zip(params, [theta, *(a for layer in layers for a in layer)]):
            assert a.tobytes() == b.tobytes()
        for _ in range(4):
            g_theta = rng.normal(size=theta.shape)
            fgrad = FeatureGradient([(rng.normal(size=W.shape), rng.normal(size=b.shape))
                                     for W, b in layers])
            opt.step(g_theta, fgrad)
            v_theta = mu * v_theta + g_theta
            theta = theta - lr * v_theta
            v_layers = [(mu * vW + dW, mu * vb + db)
                        for (vW, vb), (dW, db) in zip(v_layers, fgrad.layers)]
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
    step moved to one flat parameter vector and the source ratios to one
    read per domain period: neither may move a bit. Three batches per epoch
    against a domain period of 2 make the second epoch start mid-period."""

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


def test_checkpoint_roundtrip():
    clf = default_classifier(2, 3, seed=5, r=0.4, ratio_bounds=(0.1, 10.0))
    dom = default_domain_classifier(2, seed=6, ratio_bounds=(0.1, 10.0))
    clf.theta += 0.5
    text = checkpoint_to_json(clf, dom, config={"seed": 1})
    clf2, dom2, cfg = checkpoint_from_json(text)
    assert cfg == {"seed": 1}
    assert clf2.r == clf.r and tuple(clf2.ratio_bounds) == (0.1, 10.0)
    X = np.random.default_rng(0).normal(size=(4, 2))
    np.testing.assert_array_equal(class_scores(clf, X), class_scores(clf2, X))
    np.testing.assert_array_equal(domain_ratios(dom, X)[0], domain_ratios(dom2, X)[0])


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


def test_saved_checkpoint_loads_scores_and_rewrites_unchanged():
    clf, dom, cfg = checkpoint_from_json(SAVED_CHECKPOINT)
    assert checkpoint_to_json(clf, dom, cfg) == SAVED_CHECKPOINT
    X = np.array([[0.5, -1.0], [2.0, 0.25]])
    np.testing.assert_allclose(class_scores(clf, X), SAVED_SCORES, rtol=1e-15, atol=0)
