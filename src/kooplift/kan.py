"""Kolmogorov-Arnold network lifting backend.

Every edge of the network carries its own 1-D activation: a residual
silu term plus a B-spline curve on a fixed uniform grid,

    edge(x) = w_b * silu(x) + w_s * sum_i c_i B_i(x).

Nodes just sum their incoming edges. Forward and backward passes are exact
and vectorized over sample batches; gradients come from the B-spline
degree-reduction derivative formula, not finite differences.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .numerics import FlatParams, checked, is_number, number_array, shown, widths


@dataclass(frozen=True)
class SplineGrid:
    """Uniform B-spline grid on [lo, hi] with G intervals and degree k.

    The knot vector is extended k intervals beyond each end (G + 2k + 1
    knots total), giving G + k basis functions. Outside the extended range
    every basis function is zero. The knots must be finite and strictly
    increasing, so every Cox-de Boor denominator is positive.
    """

    lo: float = -3.0
    hi: float = 3.0
    intervals: int = 5
    order: int = 3

    def __post_init__(self):
        """Raises ValueError('<field> must be ..., got <value>')."""
        # An integer past the float range would overflow step's float division.
        for name in ("intervals", "order"):
            checked(name, checked(name, getattr(self, name), "positive integer"), "finite number")
        lo, hi = checked("lo", self.lo, "finite number"), self.hi
        # The step can overflow (for integers, hi - lo past the float range
        # raises), or fall below the spacing of floats at the knots. Each knot
        # lo + step * j is rounded twice, by at most 1.5 ulps of the larger end
        # knot in all, so a step above 4 of those ulps keeps every neighbouring
        # pair strictly increasing without building the knot vector.
        spread = is_number(hi, "finite number") and lo < hi and hi - lo
        ends = [math.nan]
        if is_number(spread, "finite number"):
            ends = [lo + self.step * j for j in (-self.order, self.intervals + self.order)]
        if not (all(map(math.isfinite, ends)) and self.step > 4 * max(map(math.ulp, ends))):
            raise ValueError(f"hi must be a number above lo = {lo!r} that keeps the knots "
                             f"finite and strictly increasing, got {shown(hi)}")

    @property
    def n_basis(self) -> int:
        return self.intervals + self.order

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.intervals

    def knots(self) -> np.ndarray:
        g, k = self.intervals, self.order
        return self.lo + self.step * np.arange(-k, g + k + 1)

    def __getstate__(self):
        return _picklable(self, "span_terms")

    # The two tables below are built on first use and kept in the instance
    # dict, which the fields-only __eq__ and __hash__ never read.
    @functools.cached_property
    def recurrence(self):
        """Knots, and per degree d the Cox-de Boor denominators t[i+d] - t[i]
        and, negated, t[i+d+1] - t[i+1], as columns. Callers never write."""
        t = self.knots()[:, None]
        return t, [(t[d:-1] - t[: -d - 1], t[1:-d] - t[d + 1 :])
                   for d in range(1, self.order + 1)]

    @functools.cached_property
    def span_terms(self):
        """Knots as floats; per knot span, a straight-line function of x that
        runs the span's triangle of the recurrence and returns the point's row
        of G + k basis values; and the largest knot magnitude and smallest
        denominator magnitude, which bound every quotient (x - t_j) / den.

        Each triangle term is (x - t_j) / den_left * lower + (x - t_j+d+1) /
        -den_right * lower', with the knots and denominators as literals. A
        lower-degree value off the triangle is the literal 0.0 and the span's
        degree-0 value the literal 1.0, so the structural zeros at the edges
        keep every sign of zero; bases off the span are +0.0, as in the
        blocked kernel."""
        t, dens = self.recurrence
        knots = t.ravel().tolist()
        spans = []
        for s in range(len(knots) - 1):
            name, lines = {s: "1.0"}, []
            for d, (den_l, neg_den_r) in enumerate(dens, start=1):
                prev, name = name, {}
                for j in range(max(s - d, 0), min(s, len(den_l) - 1) + 1):
                    name[j] = f"v{len(lines)}"
                    lines.append(f"    {name[j]} = (x - {knots[j]!r}) / {den_l[j, 0].item()!r} * "
                                 f"{prev.get(j, '0.0')} + (x - {knots[j + d + 1]!r}) / "
                                 f"{neg_den_r[j, 0].item()!r} * {prev.get(j + 1, '0.0')}")
            row = ", ".join(name.get(i, "0.0") for i in range(self.n_basis))
            scope = {}
            exec("def span(x):\n" + "\n".join(lines) + f"\n    return [{row}]\n", scope)
            spans.append(scope["span"])
        dens = np.abs(np.concatenate([d for pair in dens for d in pair]))
        return knots, spans, (np.abs(t).max().item(), dens.min().item())


def _picklable(obj, *names: str) -> dict:
    """obj's instance dict without the caches names, which a copy rebuilds on
    first use: pickle cannot look an exec-built function up by name."""
    return {k: v for k, v in vars(obj).items() if k not in names}


def silu(x):
    """x * sigmoid(x), evaluated through tanh for overflow safety."""
    half = 0.5 * np.asarray(x, dtype=float)
    return half * (1.0 + np.tanh(half))


def silu_deriv(x):
    x = np.asarray(x, dtype=float)
    s = 0.5 * (1.0 + np.tanh(0.5 * x))
    return s * (1.0 + x * (1.0 - s))


_BLOCK = 4096  # points per _basis_tables block: its tables (~0.5 MB) fit in L2
_SPAN_POINTS = 8  # values-only calls of up to this many points take the span-local path


def _basis_rows(xs: list, grid: SplineGrid) -> list | None:
    """The rows of G + k basis values of the points xs, end to end, in Python
    floats, or None. Point by point: one in [t_0, t_last) gets its span's
    triangle of k + 1 bases, keeping the structural zeros at the edges so
    every sign of zero matches the blocked kernel; one outside gets the
    all-+0.0 row that the blocked kernel computes there. NaN, +-inf, and a
    point far enough out for some (x - t_j) / den to overflow (a NaN row in
    the blocked kernel) give None."""
    knots, spans, (reach, den) = grid.span_terms
    rows = []
    for x in xs:
        if knots[0] <= x < knots[-1]:
            rows += spans[bisect.bisect_right(knots, x) - 1](x)
        # |x - t_j| <= |x| + reach and every |den| >= den: a finite bound
        # means no quotient overflows; NaN and inf fail it too.
        elif (abs(x) + reach) / den < np.inf:
            rows += [0.0] * grid.n_basis
        else:
            return None
    return rows


def _basis_tables(x: np.ndarray, grid: SplineGrid, deriv: bool = True):
    """Degree-k basis values and first derivatives at each point of x.

    Returns (basis, deriv), both C-contiguous of shape (len(x), G + k);
    deriv is None when not asked for. Runs the Cox-de Boor recurrence
    knot-major over blocks of _BLOCK points, so every operand is a
    contiguous row slice; the grid's finite, strictly increasing knots keep
    every denominator positive, so no zero-guard is needed. Every term is a
    quotient of diff = x - t; the right term (t - x) / den is taken as
    diff / -den, which is the same float because negation is exact.
    """
    x = np.asarray(x, dtype=float).ravel()
    t, dens = grid.recurrence
    basis = np.empty((x.size, grid.n_basis))
    dbasis = np.empty_like(basis) if deriv else None
    # A quotient that overflows, for a point far out or a grid too fine for
    # its points, leaves a non-finite row for the caller's checks to refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, x.size, _BLOCK):
            rows = slice(start, start + _BLOCK)
            diff = x[rows] - t
            # Degree 0: x lies in [t_i, t_i+1) when x >= t_i but not x >= t_i+1.
            b = (diff >= 0.0).astype(float)
            b = b[:-1] - b[1:]
            for d, (den_left, neg_den_right) in enumerate(dens, start=1):
                prev = b
                b = diff[: -d - 1] / den_left * prev[:-1]
                b += diff[d + 1 :] / neg_den_right * prev[1:]
            basis[rows] = b.T
            if deriv:
                dbasis[rows] = ((prev[:-1] - prev[1:]) / grid.step).T
    return basis, dbasis


def layer_basis(a: np.ndarray, grid: SplineGrid, deriv: bool = False):
    """(basis, deriv or None, silu(a)) for a layer input a of shape (m, n_in),
    the tables of shape (m, n_in, G + k). Values-only calls of at most
    _SPAN_POINTS points take their rows from _basis_rows; the rest, and the
    points it refuses, take the blocked kernel."""
    shape = a.shape + (grid.n_basis,)
    rows = _basis_rows(a.ravel().tolist(), grid) if not deriv and a.size <= _SPAN_POINTS else None
    if rows is not None:
        return np.array(rows).reshape(shape), None, silu(a)
    basis, dbasis = _basis_tables(a, grid, deriv)
    return basis.reshape(shape), dbasis.reshape(shape) if deriv else None, silu(a)


@dataclass
class KanLayer:
    """Dense stack of edges mapping n_in inputs to n_out summation nodes.

    coeffs has shape (n_out, n_in, n_basis); w_base and w_spline have shape
    (n_out, n_in).
    """

    coeffs: np.ndarray
    w_base: np.ndarray
    w_spline: np.ndarray


@dataclass
class KanNetwork(FlatParams):
    """Layers of edges on one spline grid. Parameters change only through
    set_params (or before the first forward), because forward reuses per-layer
    products of them that set_params drops."""

    kind = "kan"
    caches = ("layer_weights", "row_program")  # products of the parameters
    shape: list[int]
    grid: SplineGrid
    layers: list[KanLayer] = field(default_factory=list)

    def param_arrays(self) -> list[np.ndarray]:
        return [arr for la in self.layers for arr in (la.coeffs, la.w_base, la.w_spline)]

    def __getstate__(self):
        # layer_weights goes too: its w_base.T views would unpickle as copies.
        return _picklable(self, *self.caches)

    def set_params(self, flat: np.ndarray) -> None:
        super().set_params(flat)
        for name in self.caches:
            vars(self).pop(name, None)

    @functools.cached_property
    def layer_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, w_spline[:, :, None] * coeffs and w_base.T."""
        return [(la.w_spline[:, :, None] * la.coeffs, la.w_base.T) for la in self.layers]

    @functools.cached_property
    def row_program(self):
        """_row_program(self), built on the first one-row call: the one-row
        forward pass in Python floats, returning None when a point has no
        safe basis row."""
        return _row_program(self)

    # The methods call the module functions by name at call time, so a
    # wrapper installed on them (benchmarks/tracing.py) sees every call.
    def forward(self, x, tape=None, cache=None) -> np.ndarray:
        return kan_forward(self, x, tape=tape, cache=cache)

    def input_cache(self, x):
        """The first layer's layer_basis(x, grid) triple, which stays fixed
        while the parameters change."""
        return layer_basis(x, self.grid)

    def backward(self, upstream, tape):
        return kan_backward(self, upstream, tape)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shape": list(self.shape),
            "grid": asdict(self.grid),
            "layers": [{"coeffs": layer.coeffs.tolist(), "w_base": layer.w_base.tolist(),
                        "w_spline": layer.w_spline.tolist()} for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "KanNetwork":
        shape, grid = widths(doc["shape"]), SplineGrid(**doc["grid"])
        layers = [KanLayer(*(number_array(key, entry[key])
                             for key in ("coeffs", "w_base", "w_spline")))
                  for entry in doc["layers"]]
        got = [(la.coeffs.shape, la.w_base.shape, la.w_spline.shape) for la in layers]
        want = [((o, i, grid.n_basis), (o, i), (o, i)) for i, o in zip(shape, shape[1:])]
        if got != want:
            raise ValueError(f"layer shapes (coeffs, w_base, w_spline) {got} do not fit "
                             f"shape {shape} with {grid.n_basis} bases per edge")
        return cls(shape, grid, layers)


def kan_init(shape, grid: SplineGrid, seed: int) -> KanNetwork:
    """Fresh network: spline coefficients ~ N(0, 0.1^2), unit edge weights."""
    shape = widths(shape)
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


def _row_program(net: KanNetwork):
    """net's one-row forward pass as one straight-line function of the input
    list, built with exec as SplineGrid.span_terms builds its spans. Per
    layer it takes each input's silu term and its basis row as _basis_rows
    does (its span's function, the all-+0.0 row, or return None where that
    refuses), then forms each output as one left-to-right sum from 0.0: the
    base terms, then the spline terms in input and basis order, at most 32
    terms a statement. Weights are repr literals; a non-finite one is a scope
    name bound to that float."""
    knots, spans, (reach, den) = net.grid.span_terms
    scope = {"bisect": bisect.bisect_right, "knots": knots, "spans": spans,
             "tanh": math.tanh, "inf": math.inf, "zero": [0.0] * net.grid.n_basis}

    def literal(w: float) -> str:
        if math.isfinite(w):
            return repr(w)
        name = f"w{len(scope)}"
        scope[name] = w
        return name

    names = [f"a0_{i}" for i in range(net.shape[0])]
    lines = [f"    {', '.join(names)}, = xs"]
    for li, (eff, base_t) in enumerate(net.layer_weights, start=1):
        rows = [[f"b{name}_{g}" for g in range(net.grid.n_basis)] for name in names]
        for x, row in zip(names, rows):
            lines += [f"    if {knots[0]!r} <= {x} < {knots[-1]!r}:",
                      f"        {', '.join(row)}, = spans[bisect(knots, {x}) - 1]({x})",
                      f"    elif (abs({x}) + {reach!r}) / {den!r} < inf:",
                      f"        {', '.join(row)}, = zero", "    else:", "        return None"]
        lines += [f"    s{x} = 0.5 * {x} * (1.0 + tanh(0.5 * {x}))" for x in names]
        terms = [f"s{x}" for x in names] + [b for row in rows for b in row]
        names = [f"a{li}_{j}" for j in range(len(eff))]
        for out, weights in zip(names, np.hstack([base_t.T, eff.reshape(len(eff), -1)]).tolist()):
            products = [f"{literal(w)} * {t}" for w, t in zip(weights, terms)]
            lines += [f"    {out} = {out if c else '0.0'} + {' + '.join(products[c:c + 32])}"
                      for c in range(0, len(products), 32)]
    exec("def row(xs):\n" + "\n".join(lines) + f"\n    return [{', '.join(names)}]\n", scope)
    return scope["row"]


def kan_forward(net: KanNetwork, x, tape=None, cache=None) -> np.ndarray:
    """Evaluate the network; accepts one state (1-D, or a list of floats of
    the input width, which skips batch's numpy checks) or a batch (2-D).

    An untaped call on one row runs on Python floats (net.row_program), so it
    may differ from the same row of a batch in the last bits; a point with no
    safe basis row sends it to the numpy loop, which runs every other call. A
    tape list, when given, receives (input, basis, deriv, silu(input)) per
    layer for kan_backward; the first layer's deriv is None. cache, when
    given, is net.input_cache(x), layer_basis(x, net.grid): the first layer's
    tables and silu, which stay fixed while the parameters change. The float
    engine does not read it.
    """
    listed = type(x) is list and len(x) == net.shape[0] and type(x[0]) is float
    a, squeeze = ([x], True) if listed else net.batch(x)
    if tape is None and len(a) == 1:
        out = net.row_program(x if listed else a[0].tolist())
        if out is not None:
            return np.array(out) if squeeze else np.array([out])
    a = np.asarray(a, dtype=float)
    for li, (eff, base_t) in enumerate(net.layer_weights):
        if li == 0 and cache is not None:
            b, db, silu_a = cache
        else:
            b, db, silu_a = layer_basis(a, net.grid, deriv=tape is not None and li > 0)
        out = silu_a @ base_t + np.einsum("mig,jig->mj", b, eff)
        if tape is not None:
            tape.append((a, b, db, silu_a))
        a = out
    return a[0] if squeeze else a


def kan_backward(net: KanNetwork, upstream, tape):
    """Exact gradient of sum(upstream * output) w.r.t. the parameters, flat
    in get_params order, from the tape of kan_forward(net, x, tape=...) on a
    batch x."""
    u = net.upstream(upstream, tape)
    parts = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        a, basis, dbasis, silu_a = tape[li]
        t = np.einsum("mj,mig->jig", u, basis)
        d_coeffs = layer.w_spline[:, :, None] * t
        d_w_spline = np.einsum("jig,jig->ji", t, layer.coeffs)
        d_w_base = u.T @ silu_a
        parts[li] = [d_coeffs.ravel(), d_w_base.ravel(), d_w_spline.ravel()]
        if li > 0:
            spline_part = np.einsum("mj,jig->mig", u, net.layer_weights[li][0])
            u = (u @ layer.w_base) * silu_deriv(a) + np.sum(spline_part * dbasis, axis=2)
    return np.concatenate([seg for layer_parts in parts for seg in layer_parts])
