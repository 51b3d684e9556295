"""Fully connected lifting backend with SELU hidden activations.

The final layer is purely affine so the network can place observables
anywhere in output space. Backward pass is exact reverse-mode, batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import FlatParams, number_array, widths

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


def selu(x, out=None):
    """lambda * (max(0, x) + alpha * expm1(min(0, x))), branch-free; out may be x.

    The scalar leads max and min, which return their second operand on ties,
    so -0 keeps its sign. out= arrays keep 0-d inputs working in place."""
    x = np.asarray(x, dtype=float)
    t = np.minimum(0.0, x, out=np.empty_like(x))
    np.expm1(t, out=t)
    t *= SELU_ALPHA
    y = np.maximum(0.0, x, out=np.empty_like(x) if out is None else out)
    y += t
    y *= SELU_LAMBDA
    return y


def selu_deriv(x):
    """lambda * (pos + alpha * exp(min(0, x)) * (1 - pos)) with pos = [x > 0]."""
    x = np.asarray(x, dtype=float)
    pos = (x > 0).astype(float)
    t = np.minimum(0.0, x, out=np.empty_like(x))
    np.exp(t, out=t)
    t *= SELU_ALPHA
    t *= 1.0 - pos
    t += pos
    t *= SELU_LAMBDA
    return t


@dataclass
class MlpNetwork(FlatParams):
    kind = "mlp"
    shape: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def param_arrays(self) -> list[np.ndarray]:
        return [arr for wb in zip(self.weights, self.biases) for arr in wb]

    # Called by name at call time, like KanNetwork's methods. An MLP keeps
    # no input cache, so cache is always None here.
    def forward(self, x, tape=None, cache=None) -> np.ndarray:
        return mlp_forward(self, x, tape=tape)

    def backward(self, upstream, tape):
        return mlp_backward(self, upstream, tape)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "shape": list(self.shape),
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_dict(cls, doc: dict) -> "MlpNetwork":
        net = cls(widths(doc["shape"]), [number_array("weights", w) for w in doc["weights"]],
                  [number_array("biases", b) for b in doc["biases"]])
        got = [w.shape for w in net.weights] + [b.shape for b in net.biases]
        want = ([(o, i) for i, o in zip(net.shape, net.shape[1:])]
                + [(o,) for o in net.shape[1:]])
        if got != want:
            raise ValueError(f"weight and bias shapes {got} do not fit shape {net.shape}")
        return net


def mlp_init(shape, seed: int) -> MlpNetwork:
    """LeCun-normal weights (variance 1/fan_in), zero biases."""
    shape = widths(shape)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(shape[:-1], shape[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return MlpNetwork(shape=shape, weights=weights, biases=biases)


def mlp_forward(net: MlpNetwork, x, tape=None) -> np.ndarray:
    """Evaluate the network; accepts one state (1-D) or a batch (2-D).

    A tape list, when given, receives (input, pre-activation) per layer
    for mlp_backward.
    """
    a, squeeze = net.batch(x)
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T
        z += b
        if tape is not None:
            tape.append((a, z))
        # Without a tape nothing else holds z, so the activation overwrites it.
        a = z if li == last else selu(z, out=None if tape is not None else z)
    return a[0] if squeeze else a


def mlp_backward(net: MlpNetwork, upstream, tape):
    """Exact gradient of sum(upstream * output) w.r.t. the parameters, flat
    in get_params order, from the tape of mlp_forward(net, x, tape=...) on a
    batch x."""
    u = net.upstream(upstream, tape)
    last = len(net.weights) - 1
    parts = [None] * len(net.weights)
    for li in range(last, -1, -1):
        a, z = tape[li]
        if li == last:
            dz = u
        else:
            dz = selu_deriv(z)
            dz *= u
        # A hidden dz is C-contiguous, so sum(axis=0) adds its rows in turn
        # from 0.0, as einsum does, only faster; one column it adds pairwise.
        hidden = li < last and dz.shape[1] > 1
        parts[li] = [(dz.T @ a).ravel(), np.einsum("ij->j", dz) if hidden else dz.sum(axis=0)]
        if li > 0:
            u = dz @ net.weights[li]
    return np.concatenate([seg for layer_parts in parts for seg in layer_parts])
