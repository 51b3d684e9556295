"""Tests for the LQR gain computation and closed-loop simulation."""

import re

import numpy as np
import pytest

from kooplift import mlp
from kooplift.control import (
    STATE_BOUND,
    LqrGain,
    closed_loop_sim,
    default_weights,
    dlqr,
    settling_time,
    spectral_radius,
)
from kooplift.dynamics import Trajectory, pendulum_deriv, rk4_step
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
    model = KoopmanModel(network=net, K=k, B=b)
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
                         B=np.ones((3, 1)))
    gain = LqrGain(F=np.array([[2.0, 0.8, 0.3]]))
    for x0 in ([1.0, 0.0], [-2.5, 3.0], [0.0, -0.0]):
        fast = closed_loop_sim(model, gain, pendulum_deriv, x0, duration=3.0, dt=0.01,
                               u_limit=1.5)
        slow = closed_loop_sim(model, gain, lambda x, u: pendulum_deriv(x, u), x0,
                               duration=3.0, dt=0.01, u_limit=1.5)
        assert fast.states.tobytes() == slow.states.tobytes()
        assert fast.controls.tobytes() == slow.controls.tobytes()


def per_step_closed_loop(model, gain, plant, x0, duration, dt, u_limit):
    """closed_loop_sim's loop with lift and rk4_step on arrays at every step,
    used as an oracle: the states and controls it returns, or the
    DivergedError it raises."""
    x = np.asarray(x0, dtype=float)
    states, controls = [x], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(round(duration / dt)):
            u = -gain.F @ lift(model, x)
            u = np.minimum(np.maximum(u, -u_limit), u_limit)
            x = rk4_step(plant, x, u, dt)
            if max(map(abs, x.tolist())) > STATE_BOUND:
                raise DivergedError(f"closed-loop state exceeded |x| = {STATE_BOUND} at step {k}")
            states.append(x)
            controls.append(u)
    return np.array(states), np.array(controls)


def _runaway(x, u):
    return 5.0 * np.asarray(x) + np.asarray(u)[0]


_runaway.floats = lambda x, u: [5.0 * a + u[0] for a in x]


@pytest.mark.parametrize("plant", ["float", "wrapper"])
@pytest.mark.parametrize("kind", ["kan", "mlp"])
def test_closed_loop_bit_identical_to_per_step_loop(kind, plant):
    net = kan_init([2, 3, 1], SplineGrid(), seed=0) if kind == "kan" else mlp_init([2, 3, 1], 0)
    model = KoopmanModel(network=net, K=np.eye(3), B=np.ones((3, 1)))
    gain = LqrGain(F=np.array([[2.0, 0.8, 0.3]]))
    deriv = pendulum_deriv if plant == "float" else (lambda x, u: pendulum_deriv(x, u))
    for x0 in ([1.0, 0.0], [-2.5, 3.0], [0.0, -0.0]):
        got = closed_loop_sim(model, gain, deriv, x0, duration=2.0, dt=0.01, u_limit=1.5)
        states, controls = per_step_closed_loop(model, gain, deriv, x0, 2.0, 0.01, 1.5)
        assert got.states.tobytes() == states.tobytes()
        assert got.controls.tobytes() == controls.tobytes()
    # Past STATE_BOUND both stop with the same message, at the same step.
    runaway = _runaway if plant == "float" else (lambda x, u: _runaway(x, u))
    with pytest.raises(DivergedError, match="exceeded") as want:
        per_step_closed_loop(model, gain, runaway, [1.0, -0.5], 10.0, 0.01, 1.5)
    with pytest.raises(DivergedError) as got:
        closed_loop_sim(model, gain, runaway, [1.0, -0.5], duration=10.0, dt=0.01, u_limit=1.5)
    assert str(got.value) == str(want.value)


def test_mlp_list_lift_runs_mlp_forward(monkeypatch):
    # The closed loop lifts its list state; an MLP's lift of it is its 1-D
    # forward, through mlp_forward, which benchmarks/tracing.py wraps.
    net, calls, real = mlp_init([2, 3, 1], 0), [], mlp.mlp_forward
    model = KoopmanModel(network=net, K=np.eye(3), B=np.ones((3, 1)))
    want = lift(model, np.array([0.4, -1.3]))
    monkeypatch.setattr(mlp, "mlp_forward", lambda net, x, **kw: calls.append(x) or real(net, x))
    assert lift(model, [0.4, -1.3]).tobytes() == want.tobytes()
    assert [np.asarray(x).tolist() for x in calls] == [[0.4, -1.3]]


@pytest.mark.parametrize("duration, dt", [
    (np.inf, 0.01), (np.nan, 0.01), (1.0, np.nan), (1.0, np.inf), (-1.0, 0.01), (1.0, 0.0),
    (1e300, 1e-300),
], ids=["inf-duration", "nan-duration", "nan-dt", "inf-dt", "negative", "zero-dt",
        "inf-ratio"])
def test_closed_loop_refuses_a_bad_duration_or_dt(duration, dt):
    model, plant, _ = _linear_plant_model()
    with pytest.raises(ValueError, match=r"^duration and dt must be positive and finite, "
                                         r"with a finite duration / dt, got duration "):
        closed_loop_sim(model, LqrGain(F=np.zeros((1, 4))), plant, [1.0, 0.0], duration, dt)


@pytest.mark.parametrize("x0, shape", [([[1.0, 0.0]], (1, 2)), ([1.0, 0.0, 0.0], (3,))],
                         ids=["row", "three-wide"])
def test_closed_loop_refuses_an_x0_that_is_not_one_state(x0, shape):
    model, plant, dt = _linear_plant_model()
    with pytest.raises(ValueError, match=rf"^x0 must be one state of 2 components, "
                                         rf"got shape {re.escape(str(shape))}$"):
        closed_loop_sim(model, LqrGain(F=np.zeros((1, 4))), plant, x0, 1.0, dt)


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
