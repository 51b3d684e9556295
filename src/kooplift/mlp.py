"""Fully connected lifting backend with SELU hidden activations.

The final layer is purely affine so the network can place observables
anywhere in output space. Backward pass is exact reverse-mode, batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
class MlpNetwork:
    kind = "mlp"
    shape: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts += [w.ravel(), b.ravel()]
        return np.concatenate(parts)

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = flat[pos : pos + w.size].reshape(w.shape)
            pos += w.size
            b[...] = flat[pos : pos + b.size]
            pos += b.size

    # Called by name at call time, like KanNetwork's methods.
    def forward(self, x, tape=None) -> np.ndarray:
        return mlp_forward(self, x, tape=tape)

    def backward(self, upstream, tape):
        return mlp_backward(self, upstream, tape)

    def to_dict(self) -> dict:
        return {"kind": "mlp", "shape": list(self.shape),
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_dict(cls, doc: dict) -> "MlpNetwork":
        if doc.get("kind") != "mlp":
            raise ValueError(f"not an mlp document: kind={doc.get('kind')!r}")
        net = cls([int(s) for s in doc["shape"]],
                  [np.asarray(w, dtype=float) for w in doc["weights"]],
                  [np.asarray(b, dtype=float) for b in doc["biases"]])
        got = [w.shape for w in net.weights] + [b.shape for b in net.biases]
        want = ([(o, i) for i, o in zip(net.shape, net.shape[1:])]
                + [(o,) for o in net.shape[1:]])
        if len(net.shape) < 2 or got != want:
            raise ValueError(f"weight and bias shapes {got} do not fit shape {net.shape}")
        return net


def mlp_init(shape, seed: int) -> MlpNetwork:
    """LeCun-normal weights (variance 1/fan_in), zero biases."""
    shape = [int(s) for s in shape]
    if len(shape) < 2 or any(s < 1 for s in shape):
        raise ValueError("shape must list >= 2 positive layer widths")
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
    a = np.asarray(x, dtype=float)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[None, :]
    if a.shape[1] != net.shape[0]:
        raise ValueError(f"input width {a.shape[1]} != network input {net.shape[0]}")
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
    u = np.asarray(upstream, dtype=float)
    out_shape = (tape[0][0].shape[0], net.shape[-1])
    if u.shape != out_shape:
        raise ValueError(f"upstream shape {u.shape} != output shape {out_shape}")
    last = len(net.weights) - 1
    parts = [None] * len(net.weights)
    for li in range(last, -1, -1):
        a, z = tape[li]
        if li == last:
            dz = u
        else:
            dz = selu_deriv(z)
            dz *= u
        parts[li] = [(dz.T @ a).ravel(), dz.sum(axis=0)]
        if li > 0:
            u = dz @ net.weights[li]
    return np.concatenate([seg for layer_parts in parts for seg in layer_parts])
