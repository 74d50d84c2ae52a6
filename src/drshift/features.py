"""Feature maps: forward evaluation and manual parameter gradients.

A feature map is a stack of affine layers with tanh on the hidden layers and
a linear output layer, so the class scores built on top of it can span all
reals. A map with no layers is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, _check_num, _one_per_row


@dataclass(eq=False)
class FeatureMap:
    """A tanh MLP whose parameters live in one float vector.

    params holds [W_1, b_1, ..., W_L, b_L], each W (fan_out, fan_in) in
    row-major order, and layers holds (W, b) views of it, so an in-place
    step on params moves the layers. Construction copies the given arrays
    into a new params and leaves its layers argument as it was.

    == is identity. Two maps of the same shape have equal parameters when
    np.array_equal(a.params, b.params).
    """

    in_dim: int
    out_dim: int
    layers: list = field(default_factory=list)  # [(W, b)], W is (fan_out, fan_in)

    def __post_init__(self):
        # arrays in params order, and each layer's (W start, b start, b end,
        # W shape) in params, so split and feature_backward_batch slice
        # without recomputing sizes.
        arrays, self._spans, fan_in, end = [], [], self.in_dim, 0
        for i, (W, b) in enumerate(self.layers):
            W = np.asarray(W, dtype=float)
            b = np.asarray(b, dtype=float)
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ConfigError(f"layer {i}: weight/bias shapes do not agree")
            if W.shape[1] != fan_in:
                raise ConfigError(f"layer {i}: expected fan-in {fan_in}, got {W.shape[1]}")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ConfigError(f"layer {i}: non-finite parameters")
            arrays += [W, b]
            self._spans.append((end, end + W.size, end + W.size + b.size, W.shape))
            end += W.size + b.size
            fan_in = W.shape[0]
        if fan_in != self.out_dim:
            raise ConfigError(f"final layer width {fan_in} != out_dim {self.out_dim}")
        self.params = np.concatenate(arrays, axis=None) if arrays else np.zeros(0)
        self.layers = self.split(self.params)

    @property
    def n_layers(self):
        return len(self.layers)

    def split(self, vec):
        """[(W, b)] views of a vector laid out like params, such as a gradient."""
        return [(vec[lo:mid].reshape(shape), vec[mid:hi]) for lo, mid, hi, shape in self._spans]

    def copy(self):
        return FeatureMap(self.in_dim, self.out_dim, self.layers)


def init_mlp(in_dim, hidden, out_dim, seed=0):
    """Build a map with U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases;
    hidden lists the widths of the hidden layers."""
    if not isinstance(hidden, (tuple, list, np.ndarray)):
        raise ConfigError(f"hidden: expected a list of widths, got {hidden!r}")
    hidden = [_check_num(w, f"hidden[{i}]", ge=1, integer=True) for i, w in enumerate(hidden)]
    rng = np.random.default_rng(seed)
    widths = [in_dim] + hidden + [out_dim]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append((W, np.zeros(fan_out)))
    return FeatureMap(in_dim, out_dim, layers)


def identity_map(dim):
    return FeatureMap(dim, dim)


def feature_forward_batch(fmap, X):
    """Vectorized forward pass; X is (n, in_dim), result is (n, out_dim).

    A map with no layers returns its (float) input rows themselves.
    """
    return _forward_activations(fmap, X)[-1]


_BLOCK_ROWS = 4096


def _blocked_head(fmap, X, head):
    """head(feature_forward_batch(fmap, X)) computed _BLOCK_ROWS rows at a time.

    head maps a block's features to one output row per input row, such as
    class scores or a logit column. Each block's result goes into one
    preallocated output, so a pass over n rows holds one block's activations
    rather than n rows of them. At or below one block this is a single
    direct call.

    The result is bitwise the single call's only if a matmul gives a row the
    same bits wherever the call cuts the rows. OpenBLAS does not always: a
    one-row product runs another kernel, and a one-column product (the
    domain net's logit) handles its last few rows apart. So every block
    starts at a multiple of _BLOCK_ROWS, which keeps each row's offset from
    the start of its call the same modulo any power of two up to the block
    size, and a lone last row joins the block before it. The bitwise tests
    of tests/test_features.py check this on the numpy they run with.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] <= _BLOCK_ROWS:
        return head(feature_forward_batch(fmap, X))  # which rejects a non-matrix X
    n = X.shape[0]
    edges = [*range(0, n - 1, _BLOCK_ROWS), n]
    out = None
    for lo, hi in zip(edges, edges[1:]):
        block = head(feature_forward_batch(fmap, X[lo:hi]))
        if out is None:
            out = np.empty((n,) + block.shape[1:], dtype=block.dtype)
        out[lo:hi] = block
    return out


def _input_rows(fmap, X):
    """X as a float array, or ConfigError naming its shape unless it is an
    (n, in_dim) matrix of fmap's inputs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fmap.in_dim:
        raise ConfigError(f"expected (n, {fmap.in_dim}) inputs, got shape {X.shape}")
    return X


def _forward_activations(fmap, X):
    """Forward pass keeping every layer's input: [X, a_1, ..., a_L, phi].

    Passing the list to feature_backward_batch as acts saves it a second
    forward pass. Each layer adds its bias and applies tanh in place on its
    own new product, so X, the caller's array, is never written.
    """
    X = _input_rows(fmap, X)
    acts = [X]
    last = fmap.n_layers - 1
    for i, (W, b) in enumerate(fmap.layers):
        Z = acts[-1] @ W.T
        Z += b
        if i != last:
            np.tanh(Z, out=Z)
        acts.append(Z)
    return acts if fmap.layers else [X, X]


def feature_backward_batch(fmap, X, U, weights=None, acts=None):
    """Weighted sum over samples of the per-sample parameter gradients, as
    one vector laid out like fmap.params.

    With weights w_i this returns sum_i w_i * d(u_i . phi(x_i))/dparams;
    the default is w_i = 1/n, i.e. the batch mean. acts, when given, holds the
    activations of a forward pass over X at the current parameters (from
    _forward_activations); otherwise the forward pass is run here.
    U must hold one upstream of out_dim values, and weights one weight, per
    row of X; other counts are a ContractError. A map with no layers returns
    an empty gradient.
    """
    if acts is None:
        acts = _forward_activations(fmap, X)
    n = acts[0].shape[0]
    U = _one_per_row(np.asarray(U, dtype=float), n, "upstream", fmap.out_dim)
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = _one_per_row(np.asarray(weights, dtype=float), n, "weight")
    if not fmap.layers:
        return np.zeros(0)

    # The map is linear in upstream, so the weights fold into the first delta.
    delta = U * w[:, None]
    grad = np.empty_like(fmap.params)
    for i in range(fmap.n_layers - 1, -1, -1):
        lo, mid, hi, shape = fmap._spans[i]
        np.matmul(delta.T, acts[i], out=grad[lo:mid].reshape(shape))
        np.add.reduce(delta, axis=0, out=grad[mid:hi])
        if i > 0:
            # tanh' written in terms of the activation a = tanh(z): 1 - a^2.
            t = acts[i] * acts[i]
            np.subtract(1.0, t, out=t)
            delta = delta @ fmap.layers[i][0]
            delta *= t
    return grad


def feature_map_to_json(fmap):
    """Serialize to JSON text: layer shapes and row-major parameter arrays."""
    return json.dumps(_feature_map_doc(fmap))


def _feature_map_doc(fmap):
    """The JSON object of feature_map_to_json, as a dict."""
    return {
        # Every map is a tanh MLP, but the checkpoint format names the kind
        # and activation, so saved checkpoints load as they are.
        "kind": "mlp",
        "in_dim": fmap.in_dim,
        "out_dim": fmap.out_dim,
        "activation": "tanh",
        "layers": [
            {
                "rows": int(W.shape[0]),
                "cols": int(W.shape[1]),
                "weight": W.ravel(order="C").tolist(),
                "bias": b.tolist(),
            }
            for W, b in fmap.layers
        ],
    }


def feature_map_from_json(text):
    doc = json.loads(text) if isinstance(text, str) else text
    if (doc["kind"], doc["activation"]) != ("mlp", "tanh"):
        raise ConfigError(f"unsupported feature map kind {doc['kind']!r} with activation "
                          f"{doc['activation']!r}")
    layers = []
    for layer in doc["layers"]:
        W = np.array(layer["weight"], dtype=float).reshape(layer["rows"], layer["cols"])
        layers.append((W, np.array(layer["bias"], dtype=float)))
    return FeatureMap(doc["in_dim"], doc["out_dim"], layers)
