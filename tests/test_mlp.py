"""Tests for the MLP backend."""

import json

import numpy as np
import pytest

from kooplift.mlp import (
    SELU_ALPHA,
    SELU_LAMBDA,
    MlpNetwork,
    mlp_backward,
    mlp_forward,
    mlp_init,
    selu,
    selu_deriv,
)


def test_selu_reference_values():
    assert selu(0.0) == 0.0
    assert selu(1.0) == pytest.approx(1.0507009873554805, rel=1e-12)
    # Negative branch: lambda * alpha * (e^x - 1).
    assert selu(-1.0) == pytest.approx(
        1.0507009873554805 * 1.6732632423543772 * (np.exp(-1.0) - 1.0), rel=1e-12
    )
    assert selu_deriv(2.0) == pytest.approx(1.0507009873554805, rel=1e-12)
    assert selu_deriv(-1.0) == pytest.approx(
        1.0507009873554805 * 1.6732632423543772 * np.exp(-1.0), rel=1e-12
    )


# The select forms the branch-free activations replaced; they are the oracle.
def where_selu(x):
    x = np.asarray(x, dtype=float)
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))


def where_selu_deriv(x):
    x = np.asarray(x, dtype=float)
    return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
           800.0, -800.0]


def _assert_same_bits(ours, ref):
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.shape == ref.shape
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


def _check_activations(x):
    with np.errstate(over="ignore"):
        _assert_same_bits(selu(x), where_selu(x))
        _assert_same_bits(selu_deriv(x), where_selu_deriv(x))
        inplace = np.array(x, dtype=float)
        _assert_same_bits(selu(inplace, out=inplace), where_selu(x))


def test_activations_bit_identical_on_special_values_at_every_offset():
    # SIMD loops handle the head, body and tail of an array in different
    # code, so every special value is tried at every lane offset.
    rng = np.random.default_rng(0)
    for length in range(1, 41):
        base = rng.standard_normal(length)
        for offset in range(min(length, 16)):
            for value in SPECIAL:
                x = base.copy()
                x[offset] = value
                _check_activations(x)
    _check_activations(np.array(SPECIAL * 3))


def test_activations_bit_identical_on_random_and_0d_inputs():
    rng = np.random.default_rng(1)
    for scale in (1.0, 30.0):
        _check_activations(scale * rng.standard_normal((4096, 6)))
    for value in SPECIAL + [1.0, -1.0, 0.3, -2.5]:
        _check_activations(value)
        _check_activations(np.asarray(value))
        assert np.ndim(selu(value)) == 0 and np.ndim(selu_deriv(value)) == 0


def test_activations_bit_identical_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 70),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
    def check(x):
        _check_activations(x)

    check()


def _where_forward(net, x):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if li == len(net.weights) - 1 else where_selu(z)
    return a


def test_untaped_forward_in_place_equals_taped_and_oracle():
    net = mlp_init([2, 6, 6, 6, 2], seed=4)
    rng = np.random.default_rng(2)
    x = 3.0 * rng.standard_normal((257, 2))
    x[:4] = [[0.0, -0.0], [-0.0, 0.0], [1e-310, -1e-310], [-5e-324, 5e-324]]
    kept = x.copy()
    untaped = mlp_forward(net, x)
    _assert_same_bits(x, kept)  # the input is never overwritten
    tape = []
    _assert_same_bits(untaped, mlp_forward(net, x, tape=tape))
    _assert_same_bits(untaped, _where_forward(net, x))
    # The tape keeps the pre-activations the backward pass needs.
    for (a, z), w, b in zip(tape, net.weights, net.biases):
        _assert_same_bits(z, a @ w.T + b)


def test_zero_network_outputs_zero():
    net = mlp_init([2, 4, 3], seed=0)
    for w, b in zip(net.weights, net.biases):
        w[...] = 0.0
        b[...] = 0.0
    assert np.all(mlp_forward(net, [1.0, -2.0]) == 0.0)


def test_single_affine_layer():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])
    net = MlpNetwork(shape=[2, 2], weights=[w], biases=[b])
    x = np.array([1.0, 1.0])
    assert np.allclose(mlp_forward(net, x), w @ x + b, atol=1e-15)


def test_final_layer_scale_covariance():
    net = mlp_init([2, 5, 3], seed=3)
    x = np.array([0.3, -0.7])
    before = mlp_forward(net, x)
    net.weights[-1] *= 2.0
    net.biases[-1] *= 2.0
    assert np.allclose(mlp_forward(net, x), 2.0 * before, atol=1e-12)


def test_pendulum_table_parameter_count():
    # 8 hidden layers of 6 neurons, 2 states in, 2 learned observables out.
    net = mlp_init([2] + [6] * 8 + [2], seed=0)
    assert net.n_params == 326


def test_twobody_table_parameter_count():
    # 3 hidden layers of 25 neurons, 4 states in, 6 learned observables out.
    net = mlp_init([4, 25, 25, 25, 6], seed=0)
    assert net.n_params == 1581


def test_init_deterministic_lecun():
    a = mlp_init([3, 50, 2], seed=7)
    b = mlp_init([3, 50, 2], seed=7)
    assert np.array_equal(a.get_params(), b.get_params())
    assert np.all(a.biases[0] == 0.0)
    # 50x3 sample is enough to pin the scale loosely.
    assert a.weights[0].std() == pytest.approx(1.0 / np.sqrt(3.0), rel=0.35)


def test_forward_batch_matches_loop():
    net = mlp_init([3, 6, 4], seed=11)
    xs = np.random.default_rng(1).standard_normal((7, 3))
    batch = mlp_forward(net, xs)
    singles = np.array([mlp_forward(net, row) for row in xs])
    assert np.allclose(batch, singles, atol=1e-14)


def _param_grads(net, x, upstream):
    """mlp_backward's parameter gradient at x, one state or a batch, from a
    taped forward pass."""
    tape = []
    mlp_forward(net, np.atleast_2d(x), tape=tape)
    return mlp_backward(net, np.atleast_2d(upstream), tape)


def test_backward_zero_upstream():
    net = mlp_init([2, 4, 2], seed=5)
    grads = _param_grads(net, [0.1, 0.2], np.zeros(2))
    assert np.all(grads == 0.0)


def test_backward_negative_branch_path():
    # One layer + identity readout; input < 0 exercises the exponential branch.
    net = mlp_init([1, 1, 1], seed=0)
    net.weights[0][...] = 1.0
    net.biases[0][...] = 0.0
    net.weights[1][...] = 1.0
    net.biases[1][...] = 0.0
    x = np.array([-1.0])
    grads = _param_grads(net, x, np.array([1.0]))
    d_bias_0 = grads[1]  # parameters run w0, b0, w1, b1
    assert d_bias_0 == pytest.approx(
        1.0507009873554805 * 1.6732632423543772 * np.exp(-1.0), rel=1e-12
    )


def _fd_check(net, x, upstream, h=1e-5, tol=1e-5):
    grads = _param_grads(net, x, upstream)
    params = net.get_params()

    def objective(p):
        net.set_params(p)
        return float(np.sum(upstream * mlp_forward(net, x)))

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
    rng = np.random.default_rng(13)
    for trial, shape in enumerate(([2, 3, 2], [1, 4, 4, 1], [3, 2])):
        net = mlp_init(shape, seed=trial + 50)
        x = rng.standard_normal(shape[0])
        upstream = rng.standard_normal(shape[-1])
        _fd_check(net, x, upstream)


def test_backward_batch_accumulates():
    net = mlp_init([2, 3, 2], seed=9)
    xs = np.array([[0.5, -0.2], [-1.1, 0.8]])
    us = np.array([[1.0, 0.0], [0.0, 1.0]])
    grads_batch = _param_grads(net, xs, us)
    g0 = _param_grads(net, xs[0], us[0])
    g1 = _param_grads(net, xs[1], us[1])
    assert np.allclose(grads_batch, g0 + g1, atol=1e-12)


@pytest.mark.parametrize("batch", [None, 6])
@pytest.mark.parametrize("shape", [[2, 2], [2, 5, 3], [4, 6, 6, 6, 2]])
def test_taped_forward_and_backward_equal_untaped(shape, batch):
    net = mlp_init(shape, seed=len(shape))
    rng = np.random.default_rng(5)
    lead = () if batch is None else (batch,)
    x = rng.standard_normal(lead + (shape[0],))
    upstream = rng.standard_normal(lead + (shape[-1],))
    tape = []
    out = mlp_forward(net, x, tape=tape)
    assert np.array_equal(out, mlp_forward(net, x))
    # The tape of the batch holds what the backward pass needs.
    grads = mlp_backward(net, np.atleast_2d(upstream), tape)
    assert np.array_equal(grads, _param_grads(net, x, upstream))


def test_json_roundtrip_exact():
    net = mlp_init([2, 5, 3], seed=31)
    doc = json.loads(json.dumps(net.to_dict()))
    back = MlpNetwork.from_dict(doc)
    assert back.shape == net.shape
    assert np.array_equal(back.get_params(), net.get_params())
    x = np.array([0.2, -0.4])
    assert np.array_equal(mlp_forward(back, x), mlp_forward(net, x))


def test_set_params_rejects_wrong_size():
    net = mlp_init([2, 3], seed=0)
    with pytest.raises(ValueError):
        net.set_params(np.zeros(net.n_params + 1))
