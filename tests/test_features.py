import json
import tracemalloc

import numpy as np
import pytest

from drshift import (
    ConfigError,
    RobustClassifier,
    default_classifier,
    default_domain_classifier,
    feature_map_from_json,
    feature_map_to_json,
    identity_map,
    init_mlp,
)
from drshift import features
from drshift.data import TARGET, dataset_from_arrays
from drshift.domain import clamp_ratio, domain_ratios
from drshift.features import (
    _BLOCK_ROWS,
    FeatureMap,
    _blocked_head,
    _forward_activations,
    feature_backward_batch,
    feature_forward_batch,
)
from drshift.robust import _logits, _softmax_lse, class_scores, predict_proba, target_predictions

from helpers import fd_layers, flat, rel_err


def forward_one(fmap, x):
    """The feature vector of one (d,) input: row 0 of a one-row batch."""
    return feature_forward_batch(fmap, x[None, :])[0]


def test_identity_forward():
    # identity_map is the map with no layers; its forward pass hands back
    # the input rows themselves.
    fmap = identity_map(2)
    assert (fmap.in_dim, fmap.out_dim, fmap.n_layers, fmap.params.size) == (2, 2, 0, 0)
    X = np.array([[0.3, -2.0], [1.5, 0.0]])
    assert feature_forward_batch(fmap, X) is X


def test_zero_mlp_forward():
    layers = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((3, 4)), np.zeros(3))]
    fmap = FeatureMap(2, 3, layers)
    np.testing.assert_array_equal(forward_one(fmap, np.array([1.0, -1.0])), np.zeros(3))


def test_dimension_mismatch_raises():
    fmap = identity_map(3)
    with pytest.raises(ConfigError):
        forward_one(fmap, np.array([1.0, 2.0]))


def test_parameter_free_maps_have_empty_gradient():
    fmap = identity_map(2)
    g = feature_backward_batch(fmap, np.array([[1.0, 2.0]]), np.ones((1, fmap.out_dim)))
    assert g.shape == (0,) and (g + g).shape == (0,)


def test_single_linear_layer_gradient_is_outer_product():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(3, 2))
    fmap = FeatureMap(2, 3, [(W, np.zeros(3))])
    x = rng.normal(size=2)
    u = rng.normal(size=3)
    g = feature_backward_batch(fmap, x[None], u[None])
    (dW, db), = fmap.split(g)
    np.testing.assert_allclose(dW, np.outer(u, x), atol=1e-12)
    np.testing.assert_allclose(db, u, atol=1e-12)


def test_two_layer_tanh_matches_finite_differences():
    rng = np.random.default_rng(11)
    fmap = init_mlp(4, [5], 3, seed=7)
    x = rng.normal(size=4)
    u = rng.normal(size=3)
    g = feature_backward_batch(fmap, x[None], u[None])
    fd = fd_layers(lambda: float(u @ forward_one(fmap, x)), fmap, eps=1e-5)
    assert rel_err(flat(fd), g) <= 1e-4


@pytest.mark.parametrize("trial", range(20))
def test_random_instances_match_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    d = int(rng.integers(2, 7))
    m = int(rng.integers(2, 9))
    widths = [int(rng.integers(2, 7)), int(rng.integers(2, 7))]
    fmap = init_mlp(d, widths, m, seed=200 + trial)
    x = rng.normal(size=d)
    u = rng.normal(size=m)
    g = feature_backward_batch(fmap, x[None], u[None])
    fd = fd_layers(lambda: float(u @ forward_one(fmap, x)), fmap, eps=1e-5)
    assert rel_err(flat(fd), g) <= 1e-4


def test_forward_is_pure_and_bitwise_repeatable():
    fmap = init_mlp(3, [4], 4, seed=1)
    x = np.array([0.5, -1.5, 2.0])
    a = forward_one(fmap, x)
    b = forward_one(fmap, x)
    assert np.array_equal(a, b)


def test_backward_linear_in_upstream():
    rng = np.random.default_rng(21)
    fmap = init_mlp(3, [4], 4, seed=5)
    x = rng.normal(size=3)
    u1, u2 = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.7, -1.3
    g1 = feature_backward_batch(fmap, x[None], u1[None])
    g2 = feature_backward_batch(fmap, x[None], u2[None])
    g = feature_backward_batch(fmap, x[None], (a * u1 + b * u2)[None])
    np.testing.assert_allclose(
        g, a * g1 + b * g2, atol=1e-12
    )


def reference_backward(fmap, X, U, w):
    """Backward pass that recomputes the forward pass and differentiates tanh
    at its pre-activation."""
    acts, pres = [X], []
    for i, (W, b) in enumerate(fmap.layers):
        Z = acts[-1] @ W.T + b
        pres.append(Z)
        last = i == fmap.n_layers - 1
        acts.append(Z if last else np.tanh(Z))
    delta = U * w[:, None]
    grads = [None] * fmap.n_layers
    for i in range(fmap.n_layers - 1, -1, -1):
        W, _ = fmap.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W) * (1.0 - np.tanh(pres[i - 1]) ** 2)
    return grads


def test_backward_from_cached_activations_is_bitwise_equal_to_recomputing():
    rng = np.random.default_rng(17)
    fmap = init_mlp(2, [16, 8], 4, seed=3)
    X = rng.normal(size=(64, 2))
    U = rng.normal(size=(64, 4))
    w = rng.uniform(size=64)
    acts = _forward_activations(fmap, X)
    np.testing.assert_array_equal(acts[-1], feature_forward_batch(fmap, X))
    g = feature_backward_batch(fmap, X, U, weights=w, acts=acts)
    np.testing.assert_array_equal(g, flat(reference_backward(fmap, X, U, w)))


def test_construction_copies_and_leaves_the_layers_argument_untouched():
    W, b = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0.5, -0.5, 0.0]
    layers = [(W, b)]
    fmap = FeatureMap(2, 3, layers)
    assert type(layers[0][0]) is list and type(layers[0][1]) is list and layers == [(W, b)]
    Wa, ba = np.array(W), np.array(b)
    from_tuple = FeatureMap(2, 3, ((Wa, ba),))
    Wa[0, 0], ba[0] = 9.0, 9.0
    np.testing.assert_array_equal(from_tuple.params, fmap.params)
    np.testing.assert_array_equal(fmap.params, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, -0.5, 0.0])


def layer_arrays(fmap):
    return [a for layer in fmap.layers for a in layer]


def assert_layers_view_params(fmap):
    """layers are views of params, laid out [W_1, b_1, ..., W_L, b_L] row-major."""
    for W, b in fmap.layers:
        assert np.shares_memory(W, fmap.params) and np.shares_memory(b, fmap.params)
    np.testing.assert_array_equal(fmap.params, flat(fmap.layers))


def test_layers_are_views_of_one_parameter_vector():
    fmap = init_mlp(3, [5, 4], 2, seed=8)
    assert fmap.params.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2,)
    for built in (fmap, fmap.copy(), feature_map_from_json(feature_map_to_json(fmap))):
        assert_layers_view_params(built)
        np.testing.assert_array_equal(built.params, fmap.params)
    assert identity_map(4).params.size == 0 and identity_map(4).layers == []


def test_copy_shares_no_memory_with_the_original():
    fmap = init_mlp(2, [3], 2, seed=1)
    twin = fmap.copy()
    arrays = [fmap.params, *layer_arrays(fmap)]
    for a in [twin.params, *layer_arrays(twin)]:
        assert not any(np.shares_memory(a, b) for b in arrays)


def test_model_equality_is_identity_and_never_raises():
    # Equal parameters are np.array_equal of the params; == never compares
    # arrays, so it answers rather than raising on their truth value.
    for model in (init_mlp(2, [2], 1), default_classifier(2, 2), default_domain_classifier(2)):
        twin = model.copy()
        assert model == model
        assert model != twin


def test_in_place_step_on_params_is_bitwise_the_per_layer_step():
    rng = np.random.default_rng(12)
    fmap = init_mlp(2, [16, 8], 4, seed=6)
    X = rng.normal(size=(64, 2))
    g = feature_backward_batch(fmap, X, rng.normal(size=(64, 4)))
    for (dW, db), (W, b) in zip(fmap.split(g), fmap.layers):
        assert np.shares_memory(dW, g) and dW.shape == W.shape and db.shape == b.shape
    stepped = FeatureMap(2, 4, [(W - 0.1 * dW, b - 0.1 * db)
                                for (W, b), (dW, db) in zip(fmap.layers, fmap.split(g))])
    fmap.params -= 0.1 * g
    np.testing.assert_array_equal(fmap.params, stepped.params)
    np.testing.assert_array_equal(feature_forward_batch(fmap, X), feature_forward_batch(stepped, X))


def test_json_roundtrip():
    fmap = init_mlp(3, [4], 2, seed=9)
    doc = feature_map_to_json(fmap)
    back = feature_map_from_json(doc)
    assert feature_map_to_json(back) == doc
    X = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(
        feature_forward_batch(fmap, X), feature_forward_batch(back, X)
    )


def test_bad_layer_shapes_rejected():
    with pytest.raises(ConfigError):
        FeatureMap(2, 3, [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((3, 5)), np.zeros(3))])
    with pytest.raises(ConfigError):
        FeatureMap(2, 3)


def test_json_text_keeps_the_checkpoint_format():
    # The text this map serialized to when maps still had a kind and an
    # activation: the two fields stay, fixed at "mlp" and "tanh".
    expected = (
        '{"kind": "mlp", "in_dim": 2, "out_dim": 1, "activation": "tanh", "layers": ['
        '{"rows": 2, "cols": 2, "weight": [0.19369307573550387, -0.32557075163361393, '
        '-0.6491614679377623, -0.6837331748681422], "bias": [0.0, 0.0]}, '
        '{"rows": 1, "cols": 2, "weight": [0.4430310209648889, 0.5837245353312901], '
        '"bias": [0.0]}]}'
    )
    assert feature_map_to_json(init_mlp(2, [2], 1, seed=0)) == expected


@pytest.mark.parametrize("kind, activation", [("identity", "tanh"), ("bias", "tanh"),
                                              ("mlp", "relu")])
def test_json_of_another_kind_or_activation_rejected(kind, activation):
    doc = json.loads(feature_map_to_json(init_mlp(2, [2], 1, seed=0)))
    doc.update(kind=kind, activation=activation)
    with pytest.raises(ConfigError, match=f"{kind}.*{activation}"):
        feature_map_from_json(doc)


# ---------------------------------------------------------------------------
# Inference in row blocks (_blocked_head)

BLOCK_SIZES = (0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3)


def scoring_models(seed=0):
    rng = np.random.default_rng(seed)
    clf = default_classifier(2, 3, seed=seed, r=0.25)
    clf.theta = rng.normal(size=clf.theta.shape)
    return clf, default_domain_classifier(2, seed=seed + 1)


def scoring_inputs(n, seed=0):
    return np.random.default_rng(seed).normal(scale=3.0, size=(n, 2))


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_scores_and_ratios_are_bitwise_the_unblocked_pass(n):
    clf, dom = scoring_models()
    X = scoring_inputs(n)
    Z = _forward_activations(clf.feature_map, X)[-1] @ clf.theta.T
    z = _forward_activations(dom.net, X)[-1][:, 0]
    ratio, clamped = clamp_ratio(z, clf.ratio_bounds)
    assert Z.shape == (n, 3) and z.shape == (n,)

    np.testing.assert_array_equal(class_scores(clf, X), Z)
    for got, want in zip(domain_ratios(dom, X, clf.ratio_bounds), (ratio, clamped, z)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(predict_proba(clf, X, ratio), _softmax_lse(_logits(clf, Z, ratio))):
        np.testing.assert_array_equal(got, want)
    if n:  # a dataset has at least one row
        probs, ratios = target_predictions(clf, dom, dataset_from_arrays(X, domain=TARGET))
        np.testing.assert_array_equal(ratios, ratio)
        np.testing.assert_array_equal(probs, _softmax_lse(_logits(clf, Z, ratio))[0])


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_pass_cuts_rows_at_multiples_of_the_block_size(n, monkeypatch):
    fmap = init_mlp(2, [16], 16, seed=4)
    rows = []

    def counted(fmap, X):
        rows.append(len(X))
        return feature_forward_batch(fmap, X)

    monkeypatch.setattr(features, "feature_forward_batch", counted)
    out = _blocked_head(fmap, scoring_inputs(n), lambda phi: phi[:, :2])
    assert out.shape == (n, 2) and sum(rows) == n
    # Blocks of _BLOCK_ROWS rows; a lone last row joins the block before it.
    assert len(rows) == max(1, -(-(n - 1) // _BLOCK_ROWS))
    assert all(r == _BLOCK_ROWS for r in rows[:-1]) and rows[-1] <= _BLOCK_ROWS + 1


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_identity_map_returns_its_input_rows(n):
    X = scoring_inputs(n)
    np.testing.assert_array_equal(_blocked_head(identity_map(2), X, lambda phi: phi), X)
    theta = np.array([[1.0, -2.0], [0.5, 3.0]])
    clf = RobustClassifier(theta, identity_map(2))
    np.testing.assert_array_equal(class_scores(clf, X), X @ theta.T)


def test_class_scores_on_a_large_batch_hold_one_block_of_activations():
    # A single pass over 100,000 rows at the default 2-16-16 map allocates
    # three (n, 16) float arrays at once, about 49 MB; blocked, the output
    # (n, 3) is the only array that grows with n.
    clf, _ = scoring_models()
    X = scoring_inputs(100_000)
    tracemalloc.start()
    try:
        Z = class_scores(clf, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Z.shape == (100_000, 3)
    assert peak < 8e6, f"class_scores peaked at {peak / 1e6:.1f} MB of traced allocations"
