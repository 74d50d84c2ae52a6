"""Feature maps: forward evaluation and manual parameter gradients.

Three kinds are supported. "identity" and "bias" (input with a constant 1
appended) have no parameters. "mlp" is a stack of affine layers with tanh or
relu on the hidden layers and a linear output layer, so the class scores
built on top of it can span all reals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

KINDS = ("identity", "bias", "mlp")
ACTIVATIONS = ("tanh", "relu")


@dataclass
class FeatureMap:
    kind: str
    in_dim: int
    out_dim: int
    layers: list = field(default_factory=list)  # [(W, b)], W is (fan_out, fan_in)
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown feature map kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.kind == "identity":
            if self.out_dim != self.in_dim or self.layers:
                raise ConfigError("identity map must have out_dim == in_dim and no layers")
        elif self.kind == "bias":
            if self.out_dim != self.in_dim + 1 or self.layers:
                raise ConfigError("bias map must have out_dim == in_dim + 1 and no layers")
        else:
            if not self.layers:
                raise ConfigError("mlp map needs at least one layer")
            fan_in = self.in_dim
            for i, (W, b) in enumerate(self.layers):
                W = np.asarray(W, dtype=float)
                b = np.asarray(b, dtype=float)
                if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                    raise ConfigError(f"layer {i}: weight/bias shapes do not agree")
                if W.shape[1] != fan_in:
                    raise ConfigError(f"layer {i}: expected fan-in {fan_in}, got {W.shape[1]}")
                if not (np.isfinite(W).all() and np.isfinite(b).all()):
                    raise ConfigError(f"layer {i}: non-finite parameters")
                self.layers[i] = (W, b)
                fan_in = W.shape[0]
            if fan_in != self.out_dim:
                raise ConfigError(f"final layer width {fan_in} != out_dim {self.out_dim}")

    @property
    def n_layers(self):
        return len(self.layers)

    def copy(self):
        layers = [(W.copy(), b.copy()) for W, b in self.layers]
        return FeatureMap(self.kind, self.in_dim, self.out_dim, layers, self.activation)


@dataclass
class FeatureGradient:
    """Per-layer (dW, db) pairs; empty for parameter-free maps."""

    layers: list = field(default_factory=list)

    def __add__(self, other):
        if not self.layers:
            return FeatureGradient([(dW.copy(), db.copy()) for dW, db in other.layers])
        if not other.layers:
            return FeatureGradient([(dW.copy(), db.copy()) for dW, db in self.layers])
        return FeatureGradient(
            [(a0 + b0, a1 + b1) for (a0, a1), (b0, b1) in zip(self.layers, other.layers)]
        )


def init_mlp(in_dim, hidden, out_dim, activation="tanh", seed=0):
    """Build an MLP map with U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    widths = [in_dim] + list(hidden) + [out_dim]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((W, np.zeros(fan_out)))
    return FeatureMap("mlp", in_dim, out_dim, layers, activation)


def identity_map(dim):
    return FeatureMap("identity", dim, dim)


def bias_map(dim):
    return FeatureMap("bias", dim, dim + 1)


def _act(z, activation):
    return np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)


def _act_deriv(a, activation):
    """Activation derivative written in terms of the activation's output a."""
    if activation == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(float)


def feature_forward(fmap, x):
    """Evaluate the feature vector of a single input."""
    x = np.asarray(x, dtype=float)
    if x.shape != (fmap.in_dim,):
        raise ConfigError(f"expected input of dim {fmap.in_dim}, got shape {x.shape}")
    return feature_forward_batch(fmap, x[None, :])[0]


def feature_forward_batch(fmap, X):
    """Vectorized forward pass; X is (n, in_dim), result is (n, out_dim)."""
    return _forward_activations(fmap, X)[-1]


def _forward_activations(fmap, X):
    """Forward pass keeping every layer's input: [X, a_1, ..., a_L, phi].

    Passing the list to feature_backward_batch as acts saves it a second
    forward pass.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fmap.in_dim:
        raise ConfigError(f"expected (n, {fmap.in_dim}) inputs, got shape {X.shape}")
    if fmap.kind == "identity":
        return [X, X.copy()]
    if fmap.kind == "bias":
        return [X, np.hstack([X, np.ones((X.shape[0], 1))])]
    acts = [X]
    last = fmap.n_layers - 1
    for i, (W, b) in enumerate(fmap.layers):
        Z = acts[-1] @ W.T + b
        acts.append(Z if i == last else _act(Z, fmap.activation))
    return acts


def feature_backward_batch(fmap, X, U, weights=None, acts=None):
    """Weighted sum over samples of the per-sample parameter gradients.

    With weights w_i this returns sum_i w_i * d(u_i . phi(x_i))/dparams;
    the default is w_i = 1/n, i.e. the batch mean. acts, when given, holds the
    activations of a forward pass over X at the current parameters (from
    _forward_activations); otherwise the forward pass is run here.
    Parameter-free maps return an empty gradient.
    """
    U = np.asarray(U, dtype=float)
    if fmap.kind in ("identity", "bias"):
        return FeatureGradient([])
    if acts is None:
        acts = _forward_activations(fmap, X)
    n = U.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)

    # The map is linear in upstream, so the weights fold into the first delta.
    delta = U * w[:, None]
    grads = [None] * fmap.n_layers
    for i in range(fmap.n_layers - 1, -1, -1):
        W, _ = fmap.layers[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W) * _act_deriv(acts[i], fmap.activation)
    return FeatureGradient(grads)


def feature_map_to_json(fmap):
    """Serialize to JSON text: kind, layer shapes, row-major parameter arrays."""
    doc = {
        "kind": fmap.kind,
        "in_dim": fmap.in_dim,
        "out_dim": fmap.out_dim,
        "activation": fmap.activation,
        "layers": [
            {
                "rows": int(W.shape[0]),
                "cols": int(W.shape[1]),
                "weight": [float(v) for v in W.ravel(order="C")],
                "bias": [float(v) for v in b],
            }
            for W, b in fmap.layers
        ],
    }
    return json.dumps(doc)


def feature_map_from_json(text):
    doc = json.loads(text) if isinstance(text, str) else text
    layers = []
    for layer in doc["layers"]:
        W = np.array(layer["weight"], dtype=float).reshape(layer["rows"], layer["cols"])
        layers.append((W, np.array(layer["bias"], dtype=float)))
    return FeatureMap(doc["kind"], doc["in_dim"], doc["out_dim"], layers, doc["activation"])
