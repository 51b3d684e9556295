"""Kolmogorov-Arnold network lifting backend.

Every edge of the network carries its own 1-D activation: a residual
silu term plus a B-spline curve on a fixed uniform grid,

    edge(x) = w_b * silu(x) + w_s * sum_i c_i B_i(x).

Nodes just sum their incoming edges. Forward and backward passes are exact
and vectorized over sample batches; gradients come from the B-spline
degree-reduction derivative formula, not finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SplineGrid:
    """Uniform B-spline grid on [lo, hi] with G intervals and degree k.

    The knot vector is extended k intervals beyond each end (G + 2k + 1
    knots total), giving G + k basis functions. Outside the extended range
    every basis function is zero.
    """

    lo: float = -3.0
    hi: float = 3.0
    intervals: int = 5
    order: int = 3

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("hi must exceed lo")
        if self.intervals < 1:
            raise ValueError("intervals must be >= 1")
        if self.order < 1:
            raise ValueError("order must be >= 1")

    @property
    def n_basis(self) -> int:
        return self.intervals + self.order

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.intervals

    def knots(self) -> np.ndarray:
        g, k = self.intervals, self.order
        return self.lo + self.step * np.arange(-k, g + k + 1)


def silu(x):
    """x * sigmoid(x), evaluated through tanh for overflow safety."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 + np.tanh(0.5 * x))


def silu_deriv(x):
    x = np.asarray(x, dtype=float)
    s = 0.5 * (1.0 + np.tanh(0.5 * x))
    return s * (1.0 + x * (1.0 - s))


def _basis_tables(x: np.ndarray, grid: SplineGrid, deriv: bool = True):
    """Degree-k basis values and first derivatives at each point of x.

    Returns (basis, deriv), both of shape (len(x), G + k); deriv is None
    when not asked for. Uses the Cox-de Boor recurrence column-wise over
    the whole batch; uniform knots keep every denominator positive so no
    zero-guard is needed.
    """
    t = grid.knots()
    k = grid.order
    n_span = t.size - 1
    x = np.asarray(x, dtype=float).ravel()
    # Degree 0: half-open indicator of each knot span.
    b = (x[:, None] >= t[None, :-1]) & (x[:, None] < t[None, 1:])
    b = b.astype(float)
    prev = None
    for d in range(1, k + 1):
        prev = b
        n_fun = n_span - d
        left = (x[:, None] - t[None, :n_fun]) / (t[d : d + n_fun] - t[:n_fun])
        right = (t[d + 1 : d + 1 + n_fun] - x[:, None]) / (
            t[d + 1 : d + 1 + n_fun] - t[1 : 1 + n_fun]
        )
        b = left * b[:, :n_fun] + right * b[:, 1 : 1 + n_fun]
    if not deriv:
        return b, None
    n_fun = n_span - k
    h = grid.step
    return b, (prev[:, :n_fun] - prev[:, 1 : 1 + n_fun]) / h


def bspline_basis(x: float, grid: SplineGrid) -> np.ndarray:
    """All G+k degree-k B-spline basis values at a scalar x."""
    return _basis_tables(np.array([x]), grid, deriv=False)[0][0]


@dataclass
class KanEdge:
    """One edge's activation parameters."""

    spline_coeffs: np.ndarray
    base_weight: float
    spline_weight: float


def edge_eval(x: float, edge: KanEdge, grid: SplineGrid) -> float:
    """w_b * silu(x) + w_s * sum_i c_i B_i(x) for a single edge."""
    coeffs = np.asarray(edge.spline_coeffs, dtype=float)
    if coeffs.shape != (grid.n_basis,):
        raise ValueError("coefficient count must equal grid.n_basis")
    basis = bspline_basis(x, grid)
    return float(edge.base_weight * silu(x) + edge.spline_weight * (coeffs @ basis))


@dataclass
class KanLayer:
    """Dense stack of edges mapping n_in inputs to n_out summation nodes.

    coeffs has shape (n_out, n_in, n_basis); w_base and w_spline have shape
    (n_out, n_in).
    """

    coeffs: np.ndarray
    w_base: np.ndarray
    w_spline: np.ndarray

    @property
    def n_out(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_in(self) -> int:
        return self.coeffs.shape[1]

    def edge(self, out_index: int, in_index: int) -> KanEdge:
        return KanEdge(
            spline_coeffs=self.coeffs[out_index, in_index],
            base_weight=float(self.w_base[out_index, in_index]),
            spline_weight=float(self.w_spline[out_index, in_index]),
        )


@dataclass
class KanNetwork:
    shape: list[int]
    grid: SplineGrid
    layers: list[KanLayer] = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return sum(
            layer.coeffs.size + layer.w_base.size + layer.w_spline.size
            for layer in self.layers
        )

    def get_params(self) -> np.ndarray:
        parts = []
        for layer in self.layers:
            parts += [layer.coeffs.ravel(), layer.w_base.ravel(), layer.w_spline.ravel()]
        return np.concatenate(parts)

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for layer in self.layers:
            for arr in (layer.coeffs, layer.w_base, layer.w_spline):
                arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
                pos += arr.size


def kan_init(shape, grid: SplineGrid, seed: int) -> KanNetwork:
    """Fresh network: spline coefficients ~ N(0, 0.1^2), unit edge weights."""
    shape = [int(s) for s in shape]
    if len(shape) < 2 or any(s < 1 for s in shape):
        raise ValueError("shape must list >= 2 positive layer widths")
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(shape[:-1], shape[1:]):
        layers.append(
            KanLayer(
                coeffs=rng.normal(0.0, 0.1, size=(n_out, n_in, grid.n_basis)),
                w_base=np.ones((n_out, n_in)),
                w_spline=np.ones((n_out, n_in)),
            )
        )
    return KanNetwork(shape=shape, grid=grid, layers=layers)


def first_layer_basis(net: KanNetwork, x) -> np.ndarray:
    """Basis table of the first layer for a batch x, for kan_forward(basis=)."""
    a = np.asarray(x, dtype=float)
    basis, _ = _basis_tables(a.ravel(), net.grid, deriv=False)
    return basis.reshape(-1, a.shape[-1], net.grid.n_basis)


def kan_forward(net: KanNetwork, x, tape=None, basis=None) -> np.ndarray:
    """Evaluate the network; accepts one state (1-D) or a batch (2-D).

    A tape list, when given, receives (input, basis, deriv, silu(input))
    per layer for kan_backward. basis, when given, is
    first_layer_basis(net, x); the tape then holds no first-layer deriv.
    """
    a = np.asarray(x, dtype=float)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[None, :]
    if a.shape[1] != net.shape[0]:
        raise ValueError(f"input width {a.shape[1]} != network input {net.shape[0]}")
    for li, layer in enumerate(net.layers):
        m, n_in = a.shape
        if li == 0 and basis is not None:
            b, db = basis, None
        else:
            b, db = _basis_tables(a.ravel(), net.grid, deriv=tape is not None)
            b = b.reshape(m, n_in, net.grid.n_basis)
            if db is not None:
                db = db.reshape(m, n_in, net.grid.n_basis)
        silu_a = silu(a)
        eff = layer.w_spline[:, :, None] * layer.coeffs
        out = silu_a @ layer.w_base.T + np.einsum("mig,jig->mj", b, eff)
        if tape is not None:
            tape.append((a, b, db, silu_a))
        a = out
    return a[0] if squeeze else a


# The backward pass calls the forward through this name, so a wrapper
# installed on kan_forward (benchmarks/tracing.py) sees outside calls only.
_forward = kan_forward


def kan_backward(net: KanNetwork, x, upstream_grad, tape=None):
    """Exact gradients of sum(upstream * output) w.r.t. parameters and input.

    Returns (grads, input_grad) with grads a flat vector in get_params
    order. input_grad matches the shape of x. A tape filled by
    kan_forward(net, x, tape=...) replaces the forward pass; if that call
    was given a first-layer basis, input_grad is None.
    """
    if tape is None:
        tape = []
        _forward(net, x, tape=tape)
    u = np.asarray(upstream_grad, dtype=float)
    squeeze = np.ndim(x) == 1
    if squeeze:
        u = u[None, :]
    out_shape = (tape[0][0].shape[0], net.shape[-1])
    if u.shape != out_shape:
        raise ValueError(f"upstream shape {u.shape} != output shape {out_shape}")
    parts = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        a, basis, dbasis, silu_a = tape[li]
        t = np.einsum("mj,mig->jig", u, basis)
        d_coeffs = layer.w_spline[:, :, None] * t
        d_w_spline = np.einsum("jig,jig->ji", t, layer.coeffs)
        d_w_base = u.T @ silu_a
        parts[li] = [d_coeffs.ravel(), d_w_base.ravel(), d_w_spline.ravel()]
        if dbasis is None:
            u = None
        else:
            eff = layer.w_spline[:, :, None] * layer.coeffs
            spline_part = np.einsum("mj,jig->mig", u, eff)
            u = (u @ layer.w_base) * silu_deriv(a) + np.sum(spline_part * dbasis, axis=2)
    flat = np.concatenate([seg for layer_parts in parts for seg in layer_parts])
    if u is None:
        return flat, None
    return flat, (u[0] if squeeze else u)


def kan_to_dict(net: KanNetwork) -> dict:
    return {
        "kind": "kan",
        "shape": list(net.shape),
        "grid": {
            "lo": net.grid.lo,
            "hi": net.grid.hi,
            "intervals": net.grid.intervals,
            "order": net.grid.order,
        },
        "layers": [
            {
                "coeffs": layer.coeffs.tolist(),
                "w_base": layer.w_base.tolist(),
                "w_spline": layer.w_spline.tolist(),
            }
            for layer in net.layers
        ],
    }


def kan_from_dict(doc: dict) -> KanNetwork:
    if doc.get("kind") != "kan":
        raise ValueError(f"not a kan document: kind={doc.get('kind')!r}")
    grid = SplineGrid(**doc["grid"])
    layers = [
        KanLayer(
            coeffs=np.asarray(entry["coeffs"], dtype=float),
            w_base=np.asarray(entry["w_base"], dtype=float),
            w_spline=np.asarray(entry["w_spline"], dtype=float),
        )
        for entry in doc["layers"]
    ]
    return KanNetwork(shape=[int(s) for s in doc["shape"]], grid=grid, layers=layers)
