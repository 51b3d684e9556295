"""The flat parameter layout and the input and upstream checks both lifting
backends share."""

import re

import numpy as np
import pytest

from kooplift.kan import SplineGrid, kan_init
from kooplift.mlp import mlp_init


def _kan_arrays(net):
    """Per layer: coeffs, w_base, w_spline."""
    return [arr for la in net.layers for arr in (la.coeffs, la.w_base, la.w_spline)]


def _mlp_arrays(net):
    """Per layer: weight, then bias."""
    return [arr for w, b in zip(net.weights, net.biases) for arr in (w, b)]


@pytest.mark.parametrize("net, arrays_of", [
    (kan_init([3, 4, 2, 1], SplineGrid(intervals=5), seed=0), _kan_arrays),
    (mlp_init([2, 5, 5, 3], seed=0), _mlp_arrays),
], ids=["kan", "mlp"])
def test_flat_layout_and_in_place_writes(net, arrays_of):
    arrays = arrays_of(net)
    rng = np.random.default_rng(1)
    for arr in arrays:
        arr[...] = rng.normal(size=arr.shape)
    want = np.concatenate([arr.ravel() for arr in arrays])
    assert net.n_params == want.size
    assert net.get_params().tobytes() == want.tobytes()

    v = rng.normal(size=want.size)
    net.set_params(v)
    assert net.get_params().tobytes() == v.tobytes()
    after = arrays_of(net)
    assert len(after) == len(arrays) and all(a is b for a, b in zip(after, arrays))

    n = want.size
    for bad in (np.zeros(n + 1), np.zeros(n - 1)):
        with pytest.raises(ValueError,
                           match=re.escape(f"expected {n} parameters, got ({bad.size},)")):
            net.set_params(bad)
    assert net.get_params().tobytes() == v.tobytes()


@pytest.mark.parametrize("net", [
    kan_init([3, 2, 1], SplineGrid(), seed=0), mlp_init([3, 2, 1], seed=0),
], ids=["kan", "mlp"])
def test_shared_input_and_upstream_checks(net):
    for x in (np.zeros(2), np.zeros((4, 2))):
        with pytest.raises(ValueError, match=re.escape("input width 2 != network input 3")):
            net.forward(x)
    tape = []
    net.forward(np.zeros((4, 3)), tape=tape)
    for bad in (np.zeros((4, 2)), np.zeros((3, 1)), np.zeros(4)):
        with pytest.raises(ValueError, match=re.escape(
                f"upstream shape {bad.shape} != output shape (4, 1)")):
            net.backward(bad, tape)
