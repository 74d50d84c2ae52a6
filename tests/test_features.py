import numpy as np
import pytest

from drshift import (
    ConfigError,
    bias_map,
    feature_map_from_json,
    feature_map_to_json,
    identity_map,
    init_mlp,
)
from drshift.features import (
    FeatureMap,
    _forward_activations,
    feature_backward_batch,
    feature_forward_batch,
)

from helpers import fd_layers, flat, rel_err


def forward_one(fmap, x):
    """The feature vector of one (d,) input: row 0 of a one-row batch."""
    return feature_forward_batch(fmap, x[None, :])[0]


def test_identity_forward():
    fmap = identity_map(2)
    x = np.array([0.3, -2.0])
    np.testing.assert_array_equal(forward_one(fmap, x), x)


def test_bias_forward():
    fmap = bias_map(2)
    np.testing.assert_array_equal(
        forward_one(fmap, np.array([0.3, -2.0])), np.array([0.3, -2.0, 1.0])
    )


def test_zero_mlp_forward():
    layers = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((3, 4)), np.zeros(3))]
    fmap = FeatureMap("mlp", 2, 3, layers, "tanh")
    np.testing.assert_array_equal(forward_one(fmap, np.array([1.0, -1.0])), np.zeros(3))


def test_dimension_mismatch_raises():
    fmap = identity_map(3)
    with pytest.raises(ConfigError):
        forward_one(fmap, np.array([1.0, 2.0]))


def test_parameter_free_maps_have_empty_gradient():
    for fmap in (identity_map(2), bias_map(2)):
        g = feature_backward_batch(fmap, np.array([[1.0, 2.0]]), np.ones((1, fmap.out_dim)))
        assert g.layers == []


def test_single_linear_layer_gradient_is_outer_product():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(3, 2))
    fmap = FeatureMap("mlp", 2, 3, [(W, np.zeros(3))], "tanh")
    x = rng.normal(size=2)
    u = rng.normal(size=3)
    g = feature_backward_batch(fmap, x[None], u[None])
    np.testing.assert_allclose(g.layers[0][0], np.outer(u, x), atol=1e-12)
    np.testing.assert_allclose(g.layers[0][1], u, atol=1e-12)


def test_two_layer_tanh_matches_finite_differences():
    rng = np.random.default_rng(11)
    fmap = init_mlp(4, [5], 3, "tanh", seed=7)
    x = rng.normal(size=4)
    u = rng.normal(size=3)
    g = feature_backward_batch(fmap, x[None], u[None])
    fd = fd_layers(lambda: float(u @ forward_one(fmap, x)), fmap, eps=1e-5)
    assert rel_err(flat(fd), flat(g.layers)) <= 1e-4


@pytest.mark.parametrize("trial", range(20))
def test_random_instances_match_finite_differences(trial):
    # tanh only: central differences straddle relu kinks
    rng = np.random.default_rng(100 + trial)
    d = int(rng.integers(2, 7))
    m = int(rng.integers(2, 9))
    widths = [int(rng.integers(2, 7)), int(rng.integers(2, 7))]
    fmap = init_mlp(d, widths, m, "tanh", seed=200 + trial)
    x = rng.normal(size=d)
    u = rng.normal(size=m)
    g = feature_backward_batch(fmap, x[None], u[None])
    fd = fd_layers(lambda: float(u @ forward_one(fmap, x)), fmap, eps=1e-5)
    assert rel_err(flat(fd), flat(g.layers)) <= 1e-4


def test_relu_gradient_blocks_inactive_units():
    # one hidden relu unit active (pre-act 2), one inactive (pre-act -2):
    # d(u . phi)/dW1 keeps only the active row.
    W1 = np.array([[1.0], [-1.0]])
    b1 = np.zeros(2)
    W2 = np.array([[1.0, 1.0]])
    fmap = FeatureMap("mlp", 1, 1, [(W1, b1), (W2, np.zeros(1))], "relu")
    g = feature_backward_batch(fmap, np.array([[2.0]]), np.array([[1.0]]))
    np.testing.assert_allclose(g.layers[0][0], np.array([[2.0], [0.0]]), atol=1e-12)
    np.testing.assert_allclose(g.layers[1][0], np.array([[2.0, 0.0]]), atol=1e-12)


def test_forward_is_pure_and_bitwise_repeatable():
    fmap = init_mlp(3, [4], 4, "tanh", seed=1)
    x = np.array([0.5, -1.5, 2.0])
    a = forward_one(fmap, x)
    b = forward_one(fmap, x)
    assert np.array_equal(a, b)


def test_backward_linear_in_upstream():
    rng = np.random.default_rng(21)
    fmap = init_mlp(3, [4], 4, "tanh", seed=5)
    x = rng.normal(size=3)
    u1, u2 = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.7, -1.3
    g1 = feature_backward_batch(fmap, x[None], u1[None])
    g2 = feature_backward_batch(fmap, x[None], u2[None])
    g = feature_backward_batch(fmap, x[None], (a * u1 + b * u2)[None])
    np.testing.assert_allclose(
        flat(g.layers), a * flat(g1.layers) + b * flat(g2.layers), atol=1e-12
    )


def reference_backward(fmap, X, U, w):
    """Backward pass that recomputes the forward pass and differentiates the
    activation at its pre-activation."""
    acts, pres = [X], []
    for i, (W, b) in enumerate(fmap.layers):
        Z = acts[-1] @ W.T + b
        pres.append(Z)
        last = i == fmap.n_layers - 1
        acts.append(Z if last else (np.tanh(Z) if fmap.activation == "tanh" else np.maximum(Z, 0.0)))
    delta = U * w[:, None]
    grads = [None] * fmap.n_layers
    for i in range(fmap.n_layers - 1, -1, -1):
        W, _ = fmap.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            Z = pres[i - 1]
            d = 1.0 - np.tanh(Z) ** 2 if fmap.activation == "tanh" else (Z > 0.0).astype(float)
            delta = (delta @ W) * d
    return grads


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_backward_from_cached_activations_is_bitwise_equal_to_recomputing(activation):
    rng = np.random.default_rng(17)
    fmap = init_mlp(2, [16, 8], 4, activation, seed=3)
    X = rng.normal(size=(64, 2))
    U = rng.normal(size=(64, 4))
    w = rng.uniform(size=64)
    acts = _forward_activations(fmap, X)
    np.testing.assert_array_equal(acts[-1], feature_forward_batch(fmap, X))
    g = feature_backward_batch(fmap, X, U, weights=w, acts=acts)
    np.testing.assert_array_equal(flat(g.layers), flat(reference_backward(fmap, X, U, w)))


def test_json_roundtrip():
    fmap = init_mlp(3, [4], 2, "relu", seed=9)
    doc = feature_map_to_json(fmap)
    back = feature_map_from_json(doc)
    assert back.kind == "mlp" and back.activation == "relu"
    X = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(
        feature_forward_batch(fmap, X), feature_forward_batch(back, X)
    )


def test_bad_layer_shapes_rejected():
    with pytest.raises(ConfigError):
        FeatureMap("mlp", 2, 3, [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((3, 5)), np.zeros(3))])
    with pytest.raises(ConfigError):
        FeatureMap("identity", 2, 3)
