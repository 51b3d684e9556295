"""Tests for the LQR gain computation and closed-loop simulation."""

import numpy as np
import pytest

from kooplift.control import (
    LqrGain,
    closed_loop_sim,
    default_weights,
    dlqr,
    settling_time,
    spectral_radius,
)
from kooplift.dynamics import Trajectory, pendulum_deriv
from kooplift.kan import SplineGrid, kan_init
from kooplift.koopman import KoopmanModel, build_snapshots, fit_edmdc, lift
from kooplift.mlp import mlp_init
from kooplift.numerics import DivergedError


def test_dlqr_scalar_golden_ratio():
    gain = dlqr(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                np.array([[1.0]]))
    p = (1.0 + np.sqrt(5.0)) / 2.0
    assert gain.F[0, 0] == pytest.approx(p / (1.0 + p), abs=1e-8)


def test_dlqr_zero_cost_zero_gain():
    k = np.array([[0.5, 0.1], [0.0, 0.3]])
    b = np.array([[1.0], [1.0]])
    gain = dlqr(k, b, np.zeros((2, 2)), np.array([[1.0]]))
    assert np.max(np.abs(gain.F)) <= 1e-12


def test_dlqr_stabilizes_random_systems():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = 3
        a = rng.standard_normal((n, n))
        a *= 1.1 / spectral_radius(a)  # mildly unstable open loop
        b = rng.standard_normal((n, 2))
        gain = dlqr(a, b, np.eye(n), 0.1 * np.eye(2))
        assert spectral_radius(a - b @ gain.F) < 1.0


def test_dlqr_unstabilizable_raises():
    with pytest.raises(DivergedError, match=r"^Riccati iteration did not converge; the fitted "
                                             r"\(K, B\) pair is likely not stabilizable$") as err:
        dlqr(np.array([[2.0]]), np.array([[0.0]]), np.array([[1.0]]),
             np.array([[1.0]]))
    assert str(err.value.__cause__) == "DARE doubling iteration diverged"


def test_dlqr_undetectable_unstable_mode_raises():
    # The 1.2 mode is reachable but Q does not see it, so the Riccati
    # solution leaves it alone and K - BF keeps spectral radius 1.2.
    k = np.diag([1.2, 0.5])
    b = np.array([[1.0], [1.0]])
    with pytest.raises(DivergedError, match="spectral radius 1.2 >= 1"):
        dlqr(k, b, np.diag([0.0, 1.0]), np.array([[1.0]]))


def test_control_law_linear_in_lifted_state():
    f = np.array([[0.3, -0.2, 1.0]])
    z = np.array([1.0, 2.0, -1.0])
    assert np.allclose(-f @ (2 * z), 2 * (-f @ z), atol=1e-15)


def _linear_plant_model(dt=0.02, n_steps=400, seed=0):
    """Damped oscillator plant plus an exactly linear lifting, so the
    EDMDc fit reproduces the discretized dynamics to machine precision."""
    a_c = np.array([[0.0, 1.0], [-1.0, -0.5]])
    b_c = np.array([0.0, 1.0])

    def plant(x, u):
        u_arr = np.asarray(u, dtype=float).ravel()
        return a_c @ x + b_c * (u_arr[0] if u_arr.size else 0.0)

    from kooplift.dynamics import simulate

    rng = np.random.default_rng(seed)
    controls = rng.uniform(-1, 1, size=(n_steps, 1))
    traj = simulate(plant, rng.standard_normal(2), controls, dt)
    net = mlp_init([2, 2], seed=seed)  # zero bias: observables are linear
    snaps = build_snapshots([traj], alpha=1)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols(net, snaps.X)
    phi_xn = _lift_cols(net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(network=net, K=k, B=b, n=2, n_total=4)
    return model, plant, dt


def test_closed_loop_stays_at_equilibrium():
    model, plant, dt = _linear_plant_model()
    q, r = default_weights(2, 4, 1)
    gain = dlqr(model.K, model.B, q, r)
    traj = closed_loop_sim(model, gain, plant, [0.0, 0.0], duration=1.0, dt=dt)
    # Linear observables vanish at the origin, so the law is exactly quiet.
    assert np.max(np.abs(traj.controls)) <= 1e-10
    assert np.max(np.abs(traj.states)) <= 1e-10


def test_closed_loop_regulates_and_r_tempering():
    model, plant, dt = _linear_plant_model()
    q, r = default_weights(2, 4, 1)
    gain = dlqr(model.K, model.B, q, r)
    traj = closed_loop_sim(model, gain, plant, [1.0, 0.0], duration=8.0, dt=dt)
    assert np.max(np.abs(traj.states[-1])) < 0.05
    assert spectral_radius(model.K - model.B @ gain.F) < 1.0

    gain2 = dlqr(model.K, model.B, q, 2.0 * r)
    traj2 = closed_loop_sim(model, gain2, plant, [1.0, 0.0], duration=8.0, dt=dt)
    assert np.max(np.abs(traj2.controls)) < np.max(np.abs(traj.controls))


def test_closed_loop_saturation_bounds_input():
    model, plant, dt = _linear_plant_model()
    q, r = default_weights(2, 4, 1, q_state=100.0, r=0.001)
    gain = dlqr(model.K, model.B, q, r)
    traj = closed_loop_sim(model, gain, plant, [1.5, 0.0], duration=2.0, dt=dt,
                           u_limit=0.5)
    assert np.max(np.abs(traj.controls)) <= 0.5 + 1e-12


def test_closed_loop_instability_error():
    model, _, dt = _linear_plant_model()

    def runaway(x, u):
        return 5.0 * x

    gain = LqrGain(F=np.zeros((1, 4)))
    with pytest.raises(DivergedError,
                       match=r"^closed-loop state exceeded \|x\| = 1000000\.0 at step \d+$"):
        closed_loop_sim(model, gain, runaway, [1.0, 1.0], duration=5.0, dt=0.01)


def test_closed_loop_saturates_at_u_limit():
    model, plant, dt = _linear_plant_model()
    gain = LqrGain(F=np.full((1, 4), 10.0))
    traj = closed_loop_sim(model, gain, plant, [1.0, 1.0], duration=1.0, dt=dt,
                           u_limit=0.3)
    # every applied |u| is at most 0.3, and the bound is reached
    assert np.max(np.abs(traj.controls)) == 0.3


def test_closed_loop_float_plant_steps_equal_array_steps():
    # pendulum_deriv has a float form; the wrapper has none, so its RK4 steps
    # run on arrays. Both loops must agree bit for bit.
    model = KoopmanModel(network=kan_init([2, 1], SplineGrid(), seed=0), K=np.eye(3),
                         B=np.ones((3, 1)), n=2, n_total=3)
    gain = LqrGain(F=np.array([[2.0, 0.8, 0.3]]))
    for x0 in ([1.0, 0.0], [-2.5, 3.0], [0.0, -0.0]):
        fast = closed_loop_sim(model, gain, pendulum_deriv, x0, duration=3.0, dt=0.01,
                               u_limit=1.5)
        slow = closed_loop_sim(model, gain, lambda x, u: pendulum_deriv(x, u), x0,
                               duration=3.0, dt=0.01, u_limit=1.5)
        assert fast.states.tobytes() == slow.states.tobytes()
        assert fast.controls.tobytes() == slow.controls.tobytes()


def test_closed_loop_needs_one_step():
    model, plant, dt = _linear_plant_model()
    gain = LqrGain(F=np.zeros((1, 4)))
    with pytest.raises(ValueError, match="no step"):
        closed_loop_sim(model, gain, plant, [1.0, 0.0], duration=0.004, dt=0.01)
    assert closed_loop_sim(model, gain, plant, [1.0, 0.0], duration=0.006,
                           dt=0.01).states.shape == (2, 2)


def test_settling_time():
    states = np.array([[1.0], [0.2], [0.04], [0.01], [0.02]])
    traj = Trajectory(dt=0.5, states=states, controls=np.zeros((4, 0)))
    assert settling_time(traj, component=0, threshold=0.05) == pytest.approx(1.0)
    never = Trajectory(dt=0.5, states=np.ones((5, 1)), controls=np.zeros((4, 0)))
    assert settling_time(never) is None


@pytest.mark.parametrize("values, expected", [
    ([0.01, 0.02, 0.0, 0.04], 0.0),
    ([1.0, 0.5, 0.2, 0.01], 1.5),
    ([1.0, 0.5, 0.2, 0.1], None),
    ([0.01, 0.2, 0.01, 0.3], None),
    ([0.01, 0.2, 0.01, 0.01], 1.0),
    ([-1.0, 0.04, -0.04, 0.0], 0.5),
], ids=["inside-from-start", "enters-at-last-sample", "never-inside",
        "leaves-after-entering", "re-enters", "negative-values"])
def test_settling_time_edges(values, expected):
    traj = Trajectory(dt=0.5, states=np.array(values)[:, None],
                      controls=np.zeros((len(values) - 1, 0)))
    settle = settling_time(traj, component=0, threshold=0.05)
    assert settle == expected
    assert settle is None or type(settle) is float
