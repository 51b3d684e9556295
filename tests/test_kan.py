"""Tests for the KAN backend: basis functions, forward pass, exact gradients."""

import json
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from kooplift import kan
from kooplift.dynamics import Trajectory, generate_pendulum_dataset
from kooplift.kan import (
    _BLOCK,
    _SPAN_POINTS,
    KanNetwork,
    SplineGrid,
    _basis_rows,
    _basis_tables,
    kan_backward,
    kan_forward,
    kan_init,
    layer_basis,
    silu,
    silu_deriv,
)
from kooplift.koopman import TrainConfig, train


def bspline_basis(x: float, grid: SplineGrid) -> np.ndarray:
    """All G+k degree-k B-spline basis values at a scalar x."""
    return _basis_tables(np.array([x]), grid, deriv=False)[0][0]


def recurrence_basis_tables(x, grid: SplineGrid):
    """The column-wise Cox-de Boor recurrence as first written, used as an
    oracle: explicit interval tests for degree 0, (x - t) and (t - x)
    numerators, denominators recomputed on every call."""
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
    n_fun = n_span - k
    h = grid.step
    return b, (prev[:, :n_fun] - prev[:, 1 : 1 + n_fun]) / h


@dataclass
class KanEdge:
    """One edge's activation parameters."""

    spline_coeffs: np.ndarray
    base_weight: float
    spline_weight: float


def edge_eval(x: float, edge: KanEdge, grid: SplineGrid) -> float:
    """w_b * silu(x) + w_s * sum_i c_i B_i(x) for a single edge, used as an oracle."""
    coeffs = np.asarray(edge.spline_coeffs, dtype=float)
    if coeffs.shape != (grid.n_basis,):
        raise ValueError("coefficient count must equal grid.n_basis")
    basis = bspline_basis(x, grid)
    return float(edge.base_weight * silu(x) + edge.spline_weight * (coeffs @ basis))


def layer_edge(layer, out_index: int, in_index: int) -> KanEdge:
    """The edge from input in_index to node out_index of a KanLayer."""
    return KanEdge(
        spline_coeffs=layer.coeffs[out_index, in_index],
        base_weight=float(layer.w_base[out_index, in_index]),
        spline_weight=float(layer.w_spline[out_index, in_index]),
    )


def naive_bspline(x, knots, i, degree):
    """Textbook recursive Cox-de Boor, scalar, used only as an oracle."""
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + degree] != knots[i]:
        left = (x - knots[i]) / (knots[i + degree] - knots[i]) * naive_bspline(
            x, knots, i, degree - 1
        )
    right = 0.0
    if knots[i + degree + 1] != knots[i + 1]:
        right = (knots[i + degree + 1] - x) / (
            knots[i + degree + 1] - knots[i + 1]
        ) * naive_bspline(x, knots, i + 1, degree - 1)
    return left + right


GRID = SplineGrid(lo=-3.0, hi=3.0, intervals=5, order=3)


def test_grid_structure():
    assert GRID.n_basis == 8
    knots = GRID.knots()
    assert knots.size == 5 + 2 * 3 + 1
    assert np.allclose(np.diff(knots), GRID.step)
    assert knots[3] == -3.0 and knots[-4] == 3.0


def test_grid_check_never_accepts_knots_that_fail_property():
    # SplineGrid checks only its two end knots and a 4-ulp spacing margin;
    # the reference builds the whole knot vector. Spacings of 0-64 ulps of
    # lo, at magnitudes up to 1e17, reach the band where rounding decides.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-1e17, 1e17), st.integers(1, 10**4), st.integers(1, 5),
           st.one_of(st.floats(0.0, 64.0), st.floats(64.0, 1e6)))
    @example(1e16, 5, 3, 0.4)  # 0.8 apart at ulp 2: refused
    @example(2.0**53 - 8.0, 4, 2, 3.0)  # the upper end knots cross a binade
    def check(lo, intervals, order, ulps):
        hi = lo + ulps * math.ulp(lo) * intervals
        try:
            SplineGrid(lo=lo, hi=hi, intervals=intervals, order=order)
        except ValueError:
            return
        t = lo + (hi - lo) / intervals * np.arange(-order, intervals + order + 1)
        assert np.isfinite(t).all() and (np.diff(t) > 0).all()

    check()


def test_grid_tables_leave_equality_and_hash_alone():
    built, fresh = SplineGrid(lo=-2.0, hi=2.0), SplineGrid(lo=-2.0, hi=2.0)
    assert built.span_terms is built.span_terms  # built once, then kept
    assert built == fresh and hash(built) == hash(fresh)
    assert "span_terms" in vars(built) and "span_terms" not in vars(fresh)
    assert built != SplineGrid(lo=-2.0, hi=2.5)


def test_degree_one_indicator_at_midpoint():
    grid = SplineGrid(lo=0.0, hi=4.0, intervals=4, order=1)
    vals = bspline_basis(0.5, grid)
    # Degree-1 hats: the midpoint of the first interval splits evenly.
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(vals) <= 2


def test_partition_of_unity():
    xs = np.linspace(-2.999, 2.999, 1000)
    sums = np.array([bspline_basis(x, GRID).sum() for x in xs])
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_local_support():
    for x in np.linspace(-2.9, 2.9, 37):
        assert np.count_nonzero(bspline_basis(x, GRID)) <= GRID.order + 1


def test_outside_extended_knots_is_zero():
    far = GRID.hi + GRID.order * GRID.step + 1.0
    assert np.all(bspline_basis(far, GRID) == 0.0)
    assert np.all(bspline_basis(-far, GRID) == 0.0)


def test_matches_naive_cox_de_boor():
    knots = GRID.knots()
    xs = list(np.linspace(-3.5, 3.5, 61)) + [0.0]  # includes the grid midpoint
    for x in xs:
        ours = bspline_basis(x, GRID)
        ref = [naive_bspline(x, knots, i, 3) for i in range(GRID.n_basis)]
        assert np.allclose(ours, ref, atol=1e-12)


def _assert_same_bits(ours, ref):
    assert ours.shape == ref.shape
    assert np.array_equal(ours, ref)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


@pytest.mark.parametrize("grid", [
    GRID,
    SplineGrid(lo=-6.5, hi=6.5, intervals=10, order=3),
    SplineGrid(lo=-2.0, hi=2.0, intervals=4, order=2),
    SplineGrid(lo=0.0, hi=4.0, intervals=4, order=1),
    SplineGrid(lo=-1e4, hi=3e4, intervals=7, order=3),
], ids=["preset", "pendulum-fixture", "order-2", "order-1", "wide"])
def test_basis_tables_bit_identical_to_recurrence(grid):
    rng = np.random.default_rng(17)
    knots = grid.knots()
    pad = 2.0 * grid.step
    x = np.concatenate([
        rng.uniform(knots[0] - pad, knots[-1] + pad, size=20_000),
        knots,
        np.nextafter(knots, np.inf),
        np.nextafter(knots, -np.inf),
        [0.0, -0.0],
    ])
    basis, deriv = _basis_tables(x, grid)
    ref_basis, ref_deriv = recurrence_basis_tables(x, grid)
    _assert_same_bits(basis, ref_basis)
    _assert_same_bits(deriv, ref_deriv)
    values_only, none = _basis_tables(x, grid, deriv=False)
    _assert_same_bits(values_only, ref_basis)
    assert none is None


def test_basis_tables_bit_identical_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.01, 20.0), st.integers(1, 12),
           st.integers(1, 4), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    def check(lo, width, intervals, order, xs):
        grid = SplineGrid(lo=lo, hi=lo + width, intervals=intervals, order=order)
        x = np.concatenate([xs, grid.knots()])
        basis, deriv = _basis_tables(x, grid)
        ref_basis, ref_deriv = recurrence_basis_tables(x, grid)
        _assert_same_bits(basis, ref_basis)
        _assert_same_bits(deriv, ref_deriv)

    check()


def _assert_same_bits_or_nan(ours, ref):
    assert ours.shape == ref.shape and ours.flags.c_contiguous
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


# Two-body positions (about 7,000 km) and overflow-scale values lie far
# outside the extended support; NaN and +-inf propagate into the tables.
FAR_AND_NONFINITE = [7000.0, -7000.0, 1e300, -1e300, np.nan, np.inf, -np.inf,
                     0.0, -0.0]


@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("grid", [GRID, SplineGrid(lo=-6.5, hi=6.5, intervals=10, order=3)],
                         ids=["preset", "pendulum-fixture"])
def test_blocked_basis_tables_bit_identical_to_recurrence(grid, size):
    rng = np.random.default_rng(size)
    knots = grid.knots()
    x = rng.uniform(knots[0] - 2.0 * grid.step, knots[-1] + 2.0 * grid.step, size=size)
    x[::97] = np.resize(FAR_AND_NONFINITE, x[::97].size)
    with np.errstate(invalid="ignore"):
        basis, deriv = _basis_tables(x, grid)
        values_only, _ = _basis_tables(x, grid, deriv=False)
        ref_basis, ref_deriv = recurrence_basis_tables(x, grid)
    assert basis.shape == (size, grid.n_basis)
    _assert_same_bits_or_nan(basis, ref_basis)
    _assert_same_bits_or_nan(deriv, ref_deriv)
    _assert_same_bits_or_nan(values_only, ref_basis)


def test_first_layer_basis_and_tape_span_blocks():
    net = kan_init([4, 2, 1], GRID, seed=12)
    x = np.random.default_rng(4).uniform(-12.0, 12.0, size=(_BLOCK // 2 + 3, 4))
    assert x.size > 2 * _BLOCK
    ref_basis, ref_deriv = recurrence_basis_tables(x, GRID)
    shape = x.shape + (GRID.n_basis,)
    basis, none, silu_x = layer_basis(x, GRID)
    assert none is None
    _assert_same_bits(basis, ref_basis.reshape(shape))
    _assert_same_bits(silu_x, silu(x))
    tape = []
    kan_forward(net, x, tape=tape)
    _assert_same_bits(tape[0][1], ref_basis.reshape(shape))
    assert tape[0][2] is None  # no layer-0 input gradient, so no deriv table
    basis, deriv = _basis_tables(x, GRID)
    _assert_same_bits(basis, ref_basis)
    _assert_same_bits(deriv, ref_deriv)


SPAN_GRIDS = pytest.mark.parametrize("grid", [
    GRID,
    SplineGrid(lo=-6.5, hi=6.5, intervals=10, order=3),
    SplineGrid(lo=0.0, hi=4.0, intervals=4, order=1),
    SplineGrid(lo=-2.0, hi=2.0, intervals=4, order=2),
    SplineGrid(lo=-3.0, hi=3.0, intervals=6, order=5),
    SplineGrid(lo=-1.0, hi=1.0, intervals=1, order=3),
], ids=["preset", "pendulum-fixture", "order-1", "order-2", "order-5", "one-interval"])


def _span_table(xs: list, grid: SplineGrid):
    """_basis_rows' rows of the points xs as a (len(xs), G + k) table, or None."""
    rows = _basis_rows(xs, grid)
    return None if rows is None else np.array(rows).reshape(len(xs), grid.n_basis)


def _assert_values_only_match(x, grid):
    """layer_basis' values-only table of the points x (span-local for up to
    _SPAN_POINTS points) equals the blocked kernel's and the oracle
    recurrence's, bit for bit."""
    with np.errstate(invalid="ignore", over="ignore"):
        values, none, _ = layer_basis(x.reshape(1, -1), grid)
        assert none is None
        values = values[0]
        _assert_same_bits_or_nan(values, _basis_tables(x, grid)[0])
        _assert_same_bits_or_nan(values, recurrence_basis_tables(x, grid)[0])


@pytest.mark.parametrize("size", range(1, _SPAN_POINTS + 1))
@SPAN_GRIDS
def test_span_basis_bit_identical_to_blocked_kernel(grid, size):
    knots = grid.knots()
    width = knots[-1] - knots[0]
    rng = np.random.default_rng(size)
    x = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                        [0.0, -0.0, 7000.0, -7000.0, 1e300, -1e300],
                        rng.uniform(knots[0], knots[-1], size=300),
                        rng.uniform(knots[0] - 2.0 * width, knots[-1] + 2.0 * width, size=100)])
    rng.shuffle(x)
    for points in x[: x.size - x.size % size].reshape(-1, size):
        # Finite points, inside the support or not, and no quotient overflows
        # on these grids, so the span-local path takes them all.
        assert _basis_rows(points.tolist(), grid) is not None
        _assert_values_only_match(points, grid)


@SPAN_GRIDS
def test_span_basis_falls_back_outside_support(grid, monkeypatch):
    knots = grid.knots()
    mid = float(0.5 * (knots[0] + knots[1]))
    # A finite point outside [t_0, t_last) gets the blocked kernel's +0.0 row.
    for points in ([1e300], [-1e300], [knots[-1]], [knots[0] - grid.step],
                   [np.nextafter(knots[0], -np.inf)], [knots[-1], mid], [mid, mid, 1e300]):
        points = [float(p) for p in points]
        table = _span_table(points, grid)
        outside = [not knots[0] <= p < knots[-1] for p in points]
        assert table is not None
        assert table[outside].tobytes() == bytes(8 * grid.n_basis * sum(outside))
        _assert_values_only_match(np.array(points), grid)
    # NaN and +-inf propagate into NaN rows, which only the blocked kernel writes.
    for points in ([np.nan], [np.inf], [-np.inf], [mid, np.nan], [mid, -np.inf, mid]):
        assert _basis_rows(points, grid) is None
        _assert_values_only_match(np.array(points), grid)
    assert _basis_tables(np.empty(0), grid, deriv=False)[0].shape == (0, grid.n_basis)

    # layer_basis takes the span-local rows only for values-only calls of at
    # most _SPAN_POINTS points; their None falls back to the blocked kernel.
    calls = []
    monkeypatch.setattr(kan, "_basis_rows", lambda xs, grid: calls.append(len(xs)))
    for size in (1, _SPAN_POINTS, _SPAN_POINTS + 1):
        x = np.full((1, size), mid)
        values, none, _ = layer_basis(x, grid)
        assert none is None
        _assert_same_bits(values[0], _basis_tables(x, grid, deriv=False)[0])
        _assert_same_bits(layer_basis(x, grid, deriv=True)[1][0], _basis_tables(x, grid)[1])
    assert calls == [1, _SPAN_POINTS]


def test_span_basis_overflow_falls_back():
    # Step 0.01: (x - t_j) / den overflows for |x| near the largest double, so
    # the blocked kernel writes NaN rows there; the span-local path refuses.
    grid = SplineGrid(lo=-0.025, hi=0.025, intervals=5, order=3)
    huge = float(np.finfo(float).max)
    for points in ([huge], [-huge], [0.0, 1.7e308], [-1.7e308, 5.0, 0.01]):
        with np.errstate(invalid="ignore", over="ignore"):
            blocked = _basis_tables(np.array(points), grid)[0]
        assert np.isnan(blocked).any()
        assert _basis_rows(points, grid) is None
        _assert_values_only_match(np.array(points), grid)
    assert _basis_rows([1e300, -1e300, 0.01], grid) is not None


def test_span_basis_bit_identical_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    near = st.tuples(st.just("near"), st.floats(-0.1, 1.1), st.booleans())
    far = st.tuples(st.just("far"), st.floats(allow_nan=True, allow_infinity=True),
                    st.booleans())

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(1e-3, 20.0), st.integers(1, 12),
           st.integers(1, 5), st.lists(st.one_of(near, far), min_size=1,
                                       max_size=_SPAN_POINTS))
    def check(lo, width, intervals, order, draws):
        grid = SplineGrid(lo=lo, hi=lo + width, intervals=intervals, order=order)
        knots = grid.knots()
        x = np.array([knots[0] + f * (knots[-1] - knots[0]) if kind == "near" else f
                      for kind, f, _ in draws])
        near_knot = np.array([kind == "near" and snap for kind, _, snap in draws])
        x[near_knot] = knots[np.abs(knots[:, None] - x[near_knot]).argmin(axis=0)]
        _assert_values_only_match(x, grid)
        with np.errstate(invalid="ignore", over="ignore"):
            blocked = _basis_tables(x, grid)[0]
        table = _span_table(x.tolist(), grid)
        if np.isnan(blocked).any():
            assert table is None
        elif np.abs(x).max() < 0.25 * float(np.finfo(float).max) * grid.step:
            _assert_same_bits(table, blocked)

    check()


def test_basis_values_within_unit_interval():
    for x in np.linspace(-4, 4, 101):
        vals = bspline_basis(x, GRID)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_silu_values():
    assert silu(0.0) == 0.0
    assert silu(1.0) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-12)
    assert silu_deriv(0.0) == pytest.approx(0.5, abs=1e-15)


def test_edge_eval_zero_edge():
    edge = KanEdge(np.zeros(GRID.n_basis), base_weight=0.0, spline_weight=1.0)
    for x in (-2.0, 0.0, 1.7):
        assert edge_eval(x, edge, GRID) == 0.0


def test_edge_eval_pure_silu():
    edge = KanEdge(np.zeros(GRID.n_basis), base_weight=1.0, spline_weight=0.0)
    assert edge_eval(0.0, edge, GRID) == 0.0


def test_edge_eval_unit_coeffs_partition():
    edge = KanEdge(np.ones(GRID.n_basis), base_weight=0.0, spline_weight=1.0)
    for x in (-2.5, -0.3, 0.0, 1.1, 2.9):
        assert edge_eval(x, edge, GRID) == pytest.approx(1.0, abs=1e-12)


def test_spline_reproduces_identity():
    # Cubic splines on a uniform grid contain linear functions exactly.
    xs = np.linspace(GRID.lo, GRID.hi, 50)
    design = np.array([bspline_basis(x, GRID) for x in xs])
    coeffs, *_ = np.linalg.lstsq(design, xs, rcond=None)
    edge = KanEdge(coeffs, base_weight=0.0, spline_weight=1.0)
    for x in np.linspace(-2.8, 2.8, 23):
        assert edge_eval(x, edge, GRID) == pytest.approx(x, abs=1e-8)


def test_forward_zero_network():
    net = kan_init([2, 3, 1], GRID, seed=0)
    for layer in net.layers:
        layer.coeffs[...] = 0.0
        layer.w_base[...] = 0.0
    assert np.all(kan_forward(net, [0.7, -1.2]) == 0.0)


def test_structure_counts():
    net = kan_init([2, 1, 1], GRID, seed=1)
    assert sum(l.w_base.size for l in net.layers) == 3
    assert net.n_params == 3 * (GRID.n_basis + 2)


def test_forward_batch_matches_loop():
    net = kan_init([2, 4, 3], GRID, seed=5)
    xs = np.random.default_rng(2).uniform(-2, 2, size=(9, 2))
    batch = kan_forward(net, xs)
    singles = np.array([kan_forward(net, row) for row in xs])
    assert np.allclose(batch, singles, atol=1e-14)


def test_forward_continuous_at_knots():
    net = kan_init([1, 2, 1], GRID, seed=3)
    eps = 1e-9
    for knot in GRID.knots()[2:-2]:
        lo = kan_forward(net, np.array([knot - eps]))
        hi = kan_forward(net, np.array([knot + eps]))
        assert np.max(np.abs(hi - lo)) < 1e-6


def test_edge_view_matches_forward():
    net = kan_init([2, 2], GRID, seed=8)
    x = np.array([0.4, -1.1])
    via_edges = np.array(
        [
            sum(edge_eval(x[i], layer_edge(net.layers[0], j, i), GRID) for i in range(2))
            for j in range(2)
        ]
    )
    assert np.allclose(kan_forward(net, x), via_edges, atol=1e-12)


def _param_grads(net, x, upstream):
    """kan_backward's parameter gradient at x, one state or a batch, from a
    taped forward pass."""
    tape = []
    kan_forward(net, np.atleast_2d(x), tape=tape)
    return kan_backward(net, np.atleast_2d(upstream), tape)


def test_backward_zero_upstream():
    net = kan_init([2, 3, 2], GRID, seed=11)
    grads = _param_grads(net, [0.5, 0.5], np.zeros(2))
    assert np.all(grads == 0.0)


def test_backward_silu_path_at_origin():
    # Spline parts and the first layer's base weight zeroed out, so the
    # second layer sees input 0: d(out)/d(w_b of layer 0) at x is
    # w_b(layer 1) * silu'(0) * silu(x) = 0.5 * silu(x).
    net = kan_init([1, 1, 1], GRID, seed=0)
    for layer in net.layers:
        layer.coeffs[...] = 0.0
        layer.w_spline[...] = 0.0
        layer.w_base[...] = 1.0
    net.layers[0].w_base[...] = 0.0
    grads = _param_grads(net, np.array([1.0]), np.array([1.0]))
    w_base_0 = grads[GRID.n_basis]  # after layer 0's coeffs
    assert w_base_0 == pytest.approx(0.5 * silu(1.0), abs=1e-12)


def _fd_check(net, x, upstream, h=1e-5, tol=1e-5):
    grads = _param_grads(net, x, upstream)
    params = net.get_params()

    def objective(p):
        net.set_params(p)
        return float(np.sum(upstream * kan_forward(net, x)))

    fd = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        hi = objective(bumped)
        bumped[i] -= 2 * h
        lo = objective(bumped)
        fd[i] = (hi - lo) / (2 * h)
    net.set_params(params)
    assert np.max(np.abs(fd - grads) / (1.0 + np.abs(fd))) <= tol


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial, shape in enumerate(([2, 1, 1], [1, 3, 2], [3, 2])):
        net = kan_init(shape, GRID, seed=trial)
        x = rng.uniform(-2.5, 2.5, size=shape[0])
        upstream = rng.standard_normal(shape[-1])
        _fd_check(net, x, upstream)


def test_backward_batch_accumulates():
    net = kan_init([2, 2], GRID, seed=4)
    xs = np.array([[0.1, -0.4], [1.2, 0.3]])
    us = np.array([[1.0, 0.0], [0.0, 2.0]])
    grads_batch = _param_grads(net, xs, us)
    g0 = _param_grads(net, xs[0], us[0])
    g1 = _param_grads(net, xs[1], us[1])
    assert np.allclose(grads_batch, g0 + g1, atol=1e-12)


@pytest.mark.parametrize("batch", [None, 6])
@pytest.mark.parametrize("shape", [[2, 1], [2, 3, 2], [4, 1, 1, 1, 1]])
def test_taped_forward_and_backward_equal_untaped(shape, batch, monkeypatch):
    net = kan_init(shape, GRID, seed=len(shape))
    rng = np.random.default_rng(5)
    lead = () if batch is None else (batch,)
    x = rng.uniform(-3.5, 3.5, size=lead + (shape[0],))
    upstream = rng.standard_normal(lead + (shape[-1],))
    tape = []
    out = kan_forward(net, x, tape=tape)
    # A taped call always runs the numpy loop; an untaped one row runs on
    # Python floats unless that engine refuses it.
    with monkeypatch.context() as patch:
        patch.setattr(kan.KanNetwork, "row_program", property(lambda net: lambda xs: None))
        assert out.tobytes() == kan_forward(net, x).tobytes()
    grads = kan_backward(net, np.atleast_2d(upstream), tape)
    # A tape built on a given first-layer basis gives the same gradient.
    tape_b = []
    out_b = kan_forward(net, x, tape=tape_b, cache=layer_basis(np.atleast_2d(x), GRID))
    assert out_b.tobytes() == out.tobytes()
    assert kan_backward(net, np.atleast_2d(upstream), tape_b).tobytes() == grads.tobytes()


ONE_ROW_SHAPES = pytest.mark.parametrize("shape", [[2, 1], [2, 3, 2], [4, 1, 1, 1, 1]])


@ONE_ROW_SHAPES
def test_one_row_forward_within_a_sequential_sum_of_the_batch_row(shape):
    # A one-row call sums each output's terms in order on Python floats; a
    # batch sums the same terms of that row with BLAS and einsum. Each sum lies
    # within gamma_m * sum|terms| of the exact one, gamma_m = m u / (1 - m u)
    # for m products (Higham, Accuracy and Stability, 3.1). The basis values
    # are the same bits; silu's math.tanh and np.tanh agree to a few ulp, so
    # the silu values of x to 8 u |x|, times |w_base|. Layer by layer, each
    # a one-layer network fed the float engine's own input, so no earlier
    # rounding is compared.
    net = kan_init(shape, GRID, seed=len(shape))
    knots = GRID.knots()
    rng = np.random.default_rng(len(shape))
    points = np.concatenate([knots, [0.0, -0.0, 7.0, -7.0, 1e3, -1e3],
                             rng.uniform(knots[0], knots[-1], size=40)])
    u = np.finfo(float).eps / 2
    for _ in range(30):
        x = rng.choice(points, size=shape[0])
        out = kan_forward(net, x)
        assert out.tobytes() == np.array(net.row_program(x.tolist())).tobytes()
        assert kan_forward(net, x[None, :]).tobytes() == out.tobytes()
        b = x.tolist()
        for layer in net.layers:
            a = np.array([b])
            one = KanNetwork([a.shape[1], len(layer.coeffs)], GRID, [layer])
            b = one.row_program(b)
            batch = np.concatenate([a, rng.uniform(-4.0, 4.0, size=(2, a.shape[1]))])
            want = kan_forward(one, batch)[0]
            basis, _, silu_a = layer_basis(a, GRID)
            terms = np.concatenate([layer.w_base * silu_a, (
                layer.w_spline[:, :, None] * layer.coeffs * basis).reshape(len(b), -1)], axis=1)
            m = terms.shape[1]
            bound = (2 * m * u / (1 - m * u) * np.abs(terms).sum(axis=1)
                     + 8 * u * np.abs(layer.w_base) @ np.abs(a[0]))
            assert np.all(np.abs(np.array(b) - want) <= bound)
        assert np.array(b).tobytes() == out.tobytes()


@ONE_ROW_SHAPES
def test_one_row_forward_without_a_safe_basis_row_runs_the_numpy_loop(shape, monkeypatch):
    # NaN, +-inf, or a point past the overflow bound, at the input or at a
    # hidden layer, sends the whole call to the numpy loop: its non-finite rows.
    tiny = SplineGrid(lo=-0.025, hi=0.025, intervals=5, order=3)
    huge = float(np.finfo(float).max)
    cases = [(grid, bad) for grid in (GRID, tiny) for bad in (np.nan, np.inf, -np.inf)]
    cases = [(grid, [0.5] + [bad] * (shape[0] - 1))
             for grid, bad in cases + [(tiny, huge), (tiny, -huge)]]
    if len(shape) > 2:
        cases.append((GRID, [huge] * shape[0]))  # finite input, inf after layer 0
    for grid, x in cases:
        net = kan_init(shape, grid, seed=1)
        x = np.array(x)
        assert net.row_program(x.tolist()) is None
        with np.errstate(invalid="ignore", over="ignore"):
            got = [kan_forward(net, x), kan_forward(net, x[None, :])[0]]
            with monkeypatch.context() as patch:
                patch.setattr(kan.KanNetwork, "row_program", property(lambda net: lambda xs: None))
                want = kan_forward(net, x)
        assert not np.isfinite(want).all()
        assert got[0].tobytes() == got[1].tobytes() == want.tobytes()


def loop_float_forward(net, xs):
    """The one-row forward pass as a loop on Python floats, used as an oracle
    for the straight-line program: per layer, _basis_rows (None when it
    refuses) and the silu terms, then each output's sum from 0.0 of the base
    terms and then the spline terms in input and basis order."""
    for eff, base_t in net.layer_weights:
        basis = _basis_rows(xs, net.grid)
        if basis is None:
            return None
        terms = [0.5 * x * (1.0 + math.tanh(0.5 * x)) for x in xs] + basis
        xs = []
        for weights in np.hstack([base_t.T, eff.reshape(len(eff), -1)]).tolist():
            total = 0.0
            for w, t in zip(weights, terms):
                total += w * t
            xs.append(total)
    return xs


def test_row_program_bit_identical_to_the_float_loop_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    tiny = SplineGrid(lo=-0.025, hi=0.025, intervals=5, order=3)
    huge = float(np.finfo(float).max)
    grids = st.sampled_from([GRID, tiny]) | st.builds(
        SplineGrid, lo=st.floats(-8.0, 0.0), hi=st.floats(0.5, 8.0),
        intervals=st.integers(1, 12), order=st.integers(1, 5))
    weights = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=2, max_size=4), grids,
           st.sampled_from([None, math.nan, math.inf, -math.inf]), st.data())
    def check(shape, grid, bad_weight, data):
        net = kan_init(shape, grid, seed=0)
        # One weight for all, -0.0 say, makes every product the same signed zero.
        params = data.draw(st.lists(weights, min_size=net.n_params, max_size=net.n_params)
                           | weights.map(lambda w: [w] * net.n_params))
        if bad_weight is not None:
            params[data.draw(st.integers(0, net.n_params - 1))] = bad_weight
        net.set_params(np.array(params))
        knots = grid.knots().tolist()
        points = st.sampled_from(knots + [0.0, -0.0, huge, -huge, math.nan, math.inf,
                                          -math.inf]) | st.floats(knots[0] - 1, knots[-1] + 1)
        xs = data.draw(st.lists(points, min_size=shape[0], max_size=shape[0]))
        with np.errstate(invalid="ignore"):  # w_spline * coeffs of inf and 0.0
            want, got = loop_float_forward(net, xs), net.row_program(xs)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array(got).tobytes() == np.array(want).tobytes()

    check()


def test_row_program_sums_start_at_plus_zero():
    # With every weight -0.0 each product is -0.0, so only a sum that starts
    # at +0.0, as the loop's does, gives +0.0.
    net = kan_init([2, 1], GRID, seed=0)
    net.set_params(np.full(net.n_params, -0.0))
    assert np.array(net.row_program([0.5, 1.0])).tobytes() == bytes(8)


def test_list_forward_refuses_a_width_that_is_not_the_networks():
    net = kan_init([2, 1], GRID, seed=0)
    for xs in ([0.5], [0.5, 1.0, 2.0]):
        with pytest.raises(ValueError, match=f"^input width {len(xs)} != network input 2$"):
            kan_forward(net, xs)


def test_list_forward_equals_the_1d_forward():
    # A list state skips batch's numpy checks, for the same bits, also where
    # the float engine refuses it; a taped list runs the numpy loop.
    net = kan_init([2, 3, 1], GRID, seed=3)
    for xs in ([0.4, -1.3], [0.0, -0.0], [math.nan, 0.5], [1e300, -1e300]):
        with np.errstate(invalid="ignore", over="ignore"):
            want, got = kan_forward(net, np.array(xs)), kan_forward(net, xs)
            taped = [kan_forward(net, x, tape=[]) for x in (xs, np.array(xs))]
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
        assert taped[0].tobytes() == taped[1].tobytes()
    # Only a flat list of floats is one state: two rows as lists are a batch.
    rows = [[0.4, -1.3], [0.1, 2.0]]
    assert kan_forward(net, rows).tobytes() == kan_forward(net, np.array(rows)).tobytes()


@pytest.mark.parametrize("case", ["adam-batch-1", "lbfgs-one-column"])
def test_row_program_is_rebuilt_by_set_params_and_never_built_in_training(case, monkeypatch):
    net = kan_init([2, 3, 1], GRID, seed=2)
    x = [0.4, -1.3]
    before, program = net.row_program(x), net.row_program
    assert net.row_program is program  # built once, then kept
    net.set_params(-0.5 * net.get_params())
    assert "row_program" not in vars(net)
    assert net.row_program(x) == loop_float_forward(net, x) != before
    assert net.row_program is not program

    def refuse(net):
        raise AssertionError("training built the one-row program")

    monkeypatch.setattr(kan, "_row_program", refuse)
    if case == "adam-batch-1":
        trajs = generate_pendulum_dataset(2, seed=5)
        cfg = TrainConfig(alpha=3, epochs=1, optimizer="adam", learning_rate=1e-3,
                          batch_size=1)
    else:
        trajs = [Trajectory(dt=0.01, states=np.array([[0.3, -0.2], [0.29, -0.25]]),
                            controls=np.array([[0.1]]))]
        cfg = TrainConfig(alpha=1, epochs=2, lbfgs_max_iter=3)
    net = kan_init([2, 3, 2], SplineGrid(-6.5, 6.5, 10, 3), seed=0)
    _, history = train(net, trajs, cfg)
    assert len(history) == cfg.epochs + 1 and "row_program" not in vars(net)


def test_init_deterministic():
    a = kan_init([2, 2, 1], GRID, seed=99)
    b = kan_init([2, 2, 1], GRID, seed=99)
    assert np.array_equal(a.get_params(), b.get_params())
    c = kan_init([2, 2, 1], GRID, seed=100)
    assert not np.array_equal(a.get_params(), c.get_params())


def test_init_rejects_bad_shape():
    with pytest.raises(ValueError):
        kan_init([2], GRID, seed=0)
    with pytest.raises(ValueError):
        kan_init([2, 0, 1], GRID, seed=0)


def test_json_roundtrip_exact():
    net = kan_init([2, 3, 2], GRID, seed=21)
    doc = json.loads(json.dumps(net.to_dict()))
    back = KanNetwork.from_dict(doc)
    assert back.shape == net.shape
    assert back.grid == net.grid
    assert np.array_equal(back.get_params(), net.get_params())
    x = np.array([0.3, -0.9])
    assert np.array_equal(kan_forward(back, x), kan_forward(net, x))


@pytest.mark.parametrize("shape", [[2, 1], [2, 3, 2]])
def test_forward_after_set_params_equals_a_fresh_network(shape):
    # The forward pass reuses per-layer products of the parameters; set_params
    # must drop them, so a network that ran before equals one loaded with v.
    net = kan_init(shape, GRID, seed=5)
    one, batch = np.array([0.4, -1.3]), np.random.default_rng(5).uniform(-4, 4, (7, 2))
    for scale in (1.0, 0.5, -2.0):
        kan_forward(net, one)
        kan_forward(net, batch)
        v = net.get_params() * scale + 0.01
        net.set_params(v)
        fresh = KanNetwork.from_dict(json.loads(json.dumps(net.to_dict())))
        assert fresh.get_params().tobytes() == v.tobytes()
        assert not {"layer_weights", "row_program"} & vars(net).keys()
        for x in (one, batch):
            assert kan_forward(net, x).tobytes() == kan_forward(fresh, x).tobytes()


@pytest.mark.parametrize("shape", [[2, 1], [2, 3, 2]])
def test_network_pickles_after_one_row_calls(shape):
    # A one-row call builds the grid's span functions and the network's row
    # program with exec; pickling drops them and the copy rebuilds them.
    net = kan_init(shape, GRID, seed=6)
    one, batch = np.array([0.4, -1.3]), np.random.default_rng(6).uniform(-4, 4, (7, 2))
    want = [kan_forward(net, one).tobytes(), kan_forward(net, batch).tobytes()]
    assert {"layer_weights", "row_program"} <= vars(net).keys()
    assert "span_terms" in vars(net.grid)
    back = pickle.loads(pickle.dumps(net))
    assert back.grid == net.grid and back.get_params().tobytes() == net.get_params().tobytes()
    assert [kan_forward(back, one).tobytes(), kan_forward(back, batch).tobytes()] == want
    # The original keeps its caches and still pickles.
    assert "row_program" in vars(net) and pickle.loads(pickle.dumps(net.grid)) == net.grid
