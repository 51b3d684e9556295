"""Tests for the linear-algebra kernels."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kooplift
from kooplift.kan import SplineGrid
from kooplift.koopman import TrainConfig
from kooplift.numerics import (
    DivergedError,
    _as_matrix,
    checked,
    is_number,
    pinv,
    shown,
    solve_dare,
)


def lstsq(a, b) -> np.ndarray:
    """Minimum-norm X minimizing ||a X - b||_F, computed via pinv."""
    amat = _as_matrix(a, "a")
    bmat = _as_matrix(b, "b")
    if amat.shape[0] != bmat.shape[0]:
        raise ValueError(
            f"row mismatch: a has {amat.shape[0]} rows, b has {bmat.shape[0]}"
        )
    return pinv(amat) @ bmat


KINDS = ("finite number", "positive finite number", "non-negative finite number",
         "positive integer", "non-negative integer")


# Each value and the kinds it is, in KINDS order: F finite, P positive finite,
# N non-negative finite, I positive integer, Z non-negative integer.
@pytest.mark.parametrize("value, kinds", [
    (True, ""), (False, ""), (float("nan"), ""), (float("inf"), ""), (float("-inf"), ""),
    (10**400, "IZ"), (-10**400, ""), (-0.0, "FN"), (0, "FNZ"), (0.0, "FN"), (-1, "F"),
    (2.5, "FPN"), (sys.float_info.max, "FPN"), (np.int64(3), "FPNIZ"), (np.int64(0), "FNZ"),
    (np.float64(2.5), "FPN"), (np.float64("nan"), ""), (np.bool_(True), ""), ("1", ""),
    (None, ""), ([1], ""),
], ids=repr)
def test_is_number_kinds(value, kinds):
    want = [kind for kind, letter in zip(KINDS, "FPNIZ") if letter in kinds]
    assert [kind for kind in KINDS if is_number(value, kind)] == want


def test_checked_returns_the_value_or_names_it():
    assert checked("lo", -0.0, "finite number") == 0.0
    with pytest.raises(ValueError) as exc:
        checked("epochs", True, "non-negative integer")
    assert str(exc.value) == "epochs must be a non-negative integer, got True"
    with pytest.raises(KeyError):
        is_number(1, "number")


@pytest.mark.parametrize("make, field", [
    (lambda: TrainConfig(gamma=10**400), "gamma"),
    (lambda: SplineGrid(lo=-10**400), "lo"),
    (lambda: SplineGrid(hi=10**400), "hi"),
    # Both ends fit a float, but hi - lo, an exact integer, does not.
    (lambda: SplineGrid(lo=-int(1.7e308), hi=int(1.7e308), intervals=1), "hi"),
    # Positive integers, but step's float division would overflow on them.
    (lambda: SplineGrid(intervals=10**400), "intervals"),
    (lambda: SplineGrid(order=10**400), "order"),
], ids=["gamma", "lo", "hi", "hi-spread", "intervals", "order"])
def test_library_checks_refuse_integers_past_the_float_range(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        make()


@pytest.mark.parametrize("make, line", [
    (lambda: TrainConfig(gamma=10**5000),
     "gamma must be a non-negative finite number, got <integer of 16610 bits>"),
    (lambda: TrainConfig(alpha=-10**5000),
     "alpha must be a positive integer, got -<integer of 16610 bits>"),
    (lambda: TrainConfig(batch_size=-10**5000),
     "batch_size must be a positive integer or null, got -<integer of 16610 bits>"),
    (lambda: TrainConfig(optimizer=10**5000),
     "optimizer must be a known optimizer, 'lbfgs' or 'adam', got <integer of 16610 bits>"),
    (lambda: SplineGrid(lo=10**5000), "lo must be a finite number, got <integer of 16610 bits>"),
    (lambda: SplineGrid(hi=10**5000),
     "hi must be a number above lo = -3.0 that keeps the knots finite and strictly "
     "increasing, got <integer of 16610 bits>"),
    (lambda: SplineGrid(intervals=-10**5000),
     "intervals must be a positive integer, got -<integer of 16610 bits>"),
], ids=["gamma", "alpha", "batch_size", "optimizer", "lo", "hi", "intervals"])
def test_integer_too_long_to_print_is_named_by_its_bit_length(make, line):
    # repr of an integer past Python's digit limit raises its own ValueError,
    # which would not name the field.
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == line


def test_shown_is_repr_for_every_printable_value():
    for value in (-10**400, 1.5, float("nan"), "a", None, [1, 2], np.int64(3)):
        assert shown(value) == repr(value)


def test_pinv_identity():
    eye = np.eye(3)
    assert np.allclose(pinv(eye), eye, atol=1e-12)


def test_pinv_singular_diagonal():
    m = np.diag([2.0, 0.0])
    expected = np.diag([0.5, 0.0])
    assert np.allclose(pinv(m), expected, atol=1e-12)


def test_pinv_reconstructs_tall_matrix():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3))
    assert np.max(np.abs(m @ pinv(m) @ m - m)) <= 1e-10


def test_pinv_moore_penrose_identities():
    # 20 random matrices, a mix of shapes, every third one rank-deficient.
    rng = np.random.default_rng(42)
    for trial in range(20):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        m = rng.standard_normal((rows, cols))
        if trial % 3 == 0 and min(rows, cols) >= 2:
            m[:, -1] = m[:, 0]  # force a repeated column
        mp = pinv(m)
        assert np.max(np.abs(m @ mp @ m - m)) <= 1e-10
        assert np.max(np.abs(mp @ m @ mp - mp)) <= 1e-10
        assert np.max(np.abs((m @ mp) - (m @ mp).T)) <= 1e-10
        assert np.max(np.abs((mp @ m) - (mp @ m).T)) <= 1e-10


def test_pinv_zero_matrix():
    z = np.zeros((3, 2))
    assert pinv(z).shape == (2, 3)
    assert np.all(pinv(z) == 0.0)


def test_pinv_rejects_bad_input():
    with pytest.raises(ValueError):
        pinv(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_lstsq_identity_system():
    b = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(lstsq(np.eye(3), b), b, atol=1e-12)


def test_lstsq_overdetermined_mean():
    # Column of ones: least squares reduces to the sample mean.
    a = np.ones((4, 1))
    b = np.array([[1.0], [2.0], [3.0], [6.0]])
    x = lstsq(a, b)
    assert np.allclose(x, [[3.0]], atol=1e-12)


def test_lstsq_recovers_exact_solution():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 3))
    x_true = rng.standard_normal((3, 2))
    x = lstsq(a, a @ x_true)
    assert np.max(np.abs(x - x_true)) <= 1e-10


def test_lstsq_residual_is_minimal():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 3))
    b = rng.standard_normal((8, 2))
    x = lstsq(a, b)
    base = np.linalg.norm(a @ x - b)
    for _ in range(25):
        cand = x + 0.1 * rng.standard_normal(x.shape)
        assert np.linalg.norm(a @ cand - b) >= base - 1e-12


def test_lstsq_row_mismatch():
    with pytest.raises(ValueError):
        lstsq(np.eye(3), np.ones((4, 1)))


def test_dare_scalar_static_system():
    # a = 0: the recursion collapses immediately to P = q.
    p = solve_dare(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]))
    assert abs(p[0, 0] - 1.0) <= 1e-9


def test_dare_scalar_golden_ratio():
    # a = b = q = r = 1 gives p^2 = p + 1, so p is the golden ratio.
    p = solve_dare(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]))
    assert abs(p[0, 0] - (1.0 + np.sqrt(5.0)) / 2.0) <= 1e-9


def test_dare_random_system_satisfies_equation():
    rng = np.random.default_rng(5)
    n, m = 4, 2
    a = 0.9 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal((n, m))
    q = np.eye(n)
    r = 0.1 * np.eye(m)
    p = solve_dare(a, b, q, r)
    residual = (
        a.T @ p @ a
        - a.T @ p @ b @ np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        + q
        - p
    )
    assert np.max(np.abs(residual)) <= 1e-9
    assert np.max(np.abs(p - p.T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(p)) >= -1e-10


def test_dare_no_input_reduces_to_lyapunov():
    # p = 0 inputs: iteration becomes P <- A'PA + Q.
    a = np.array([[0.5, 0.1], [0.0, 0.4]])
    b = np.zeros((2, 0))
    q = np.eye(2)
    p = solve_dare(a, b, q, np.zeros((0, 0)))
    assert np.max(np.abs(a.T @ p @ a + q - p)) <= 1e-9


def test_dare_rejects_indefinite_r():
    with pytest.raises(ValueError):
        solve_dare(np.eye(2), np.ones((2, 1)), np.eye(2), np.array([[-1.0]]))


def test_dare_unstabilizable_raises():
    # Unreachable unstable mode: no bounded solution exists.
    a = np.array([[2.0]])
    b = np.array([[0.0]])
    with pytest.raises(DivergedError, match="^DARE doubling iteration diverged$"):
        solve_dare(a, b, np.array([[1.0]]), np.array([[1.0]]))


# Independent oracles: scipy's Schur-based DARE and Lyapunov solvers.

PRESET_DIR = Path(kooplift.__file__).parent / "presets"
FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / "pendulum_kan_model.json"


def _rel_err(p, ref):
    return np.max(np.abs(p - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("seed", range(8))
def test_dare_matches_scipy_on_random_systems(seed):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.5, 1.5) / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n, m))  # full rank, so (a, b) is controllable
    c = rng.standard_normal((n, n))
    q = c.T @ c
    d = rng.standard_normal((m, m))
    r = d.T @ d + 0.1 * np.eye(m)
    p = solve_dare(a, b, q, r)
    assert _rel_err(p, linalg.solve_discrete_are(a, b, q, r)) <= 1e-9


def test_dare_matches_scipy_on_pendulum_fixture():
    linalg = pytest.importorskip("scipy.linalg")
    from kooplift.control import default_weights
    from kooplift.koopman import load_model

    model, _, _ = load_model(FIXTURE)
    with open(PRESET_DIR / "pendulum_kan.json") as fh:
        section = json.load(fh)["control"]
    q, r = default_weights(model.n, model.n_total, model.B.shape[1],
                           q_state=section["q_state"], r=section["r"])
    p = solve_dare(model.K, model.B, q, r)
    assert _rel_err(p, linalg.solve_discrete_are(model.K, model.B, q, r)) <= 1e-9


def test_dare_no_input_matches_scipy_lyapunov():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    p = solve_dare(a, np.zeros((5, 0)), np.eye(5), np.zeros((0, 0)))
    assert _rel_err(p, linalg.solve_discrete_lyapunov(a.T, np.eye(5))) <= 1e-9
