import numpy as np
import pytest
from scipy.special import softmax

from drshift import (
    ConfigError,
    ContractError,
    RobustClassifier,
    TrainConfig,
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
from drshift.domain import domain_ratios
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
        assert np.abs(g.upstream).max() == 0.0

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
        params = [clf.theta, *layer_arrays(clf.feature_map)]
        theta, layers = clf.theta.copy(), [(W.copy(), b.copy()) for W, b in clf.feature_map.layers]
        v_theta, v_layers = np.zeros_like(theta), [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
        lr, mu = 0.05, 0.9
        opt = _Momentum(clf, lr, mu)
        for _ in range(4):
            g_theta = rng.normal(size=theta.shape)
            fgrad = FeatureGradient([(rng.normal(size=W.shape), rng.normal(size=b.shape))
                                     for W, b in layers])
            opt.step(clf, g_theta, fgrad)
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
