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


# The backward pass calls the forward through this name, so a wrapper
# installed on mlp_forward (benchmarks/tracing.py) sees outside calls only.
_forward = mlp_forward


def mlp_backward(net: MlpNetwork, x, upstream_grad, tape=None):
    """Exact gradients of sum(upstream * output) w.r.t. parameters and input.

    Returns (grads, input_grad) with grads flat in get_params order. A tape
    filled by mlp_forward(net, x, tape=...) replaces the forward pass.
    """
    if tape is None:
        tape = []
        _forward(net, x, tape)
    u = np.asarray(upstream_grad, dtype=float)
    squeeze = np.ndim(x) == 1
    if squeeze:
        u = u[None, :]
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
        u = dz @ net.weights[li]
    flat = np.concatenate([seg for layer_parts in parts for seg in layer_parts])
    return flat, (u[0] if squeeze else u)


def mlp_to_dict(net: MlpNetwork) -> dict:
    return {
        "kind": "mlp",
        "shape": list(net.shape),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_dict(doc: dict) -> MlpNetwork:
    if doc.get("kind") != "mlp":
        raise ValueError(f"not an mlp document: kind={doc.get('kind')!r}")
    return MlpNetwork(
        shape=[int(s) for s in doc["shape"]],
        weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
    )
