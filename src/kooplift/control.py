"""LQR regulation on the learned lifted linear system.

The gain is computed for the discrete operator pair (K, B) directly; the
control law u = -F * lift(x) reads the true plant state, lifts it, and the
saturated input drives the true nonlinear dynamics one RK4 step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, rk4_step
from .koopman import KoopmanModel, lift
from .numerics import DivergedError, solve_dare


STATE_BOUND = 1e6  # closed_loop_sim stops once a plant state passes this magnitude


@dataclass
class LqrGain:
    F: np.ndarray


def default_weights(n: int, n_total: int, p: int, q_state: float = 1.0,
                    r: float = 0.1):
    """Q penalizing only the physical-state block; R = r * I."""
    q = np.zeros((n_total, n_total))
    q[:n, :n] = q_state * np.eye(n)
    return q, r * np.eye(p)


def dlqr(k: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> LqrGain:
    """Infinite-horizon discrete LQR gain for z+ = K z + B u.

    F = (R + B'PB)^-1 B'PK with P the Riccati solution, and the law is
    u = -F z. Raises DivergedError when the Riccati solve fails (the pair is
    likely not stabilizable) or when rho(K - BF) >= 1.
    """
    k = np.asarray(k, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    try:
        p_sol = solve_dare(k, b, q, r)
    except DivergedError as exc:
        raise DivergedError(
            "Riccati iteration did not converge; the fitted (K, B) pair "
            "is likely not stabilizable"
        ) from exc
    f = np.linalg.solve(r + b.T @ p_sol @ b, b.T @ p_sol @ k)
    rho = spectral_radius(k - b @ f)
    if not rho < 1.0:
        raise DivergedError(
            f"LQR gain leaves closed-loop spectral radius {rho:.4g} >= 1; "
            "Q does not weigh an unstable mode")
    return LqrGain(F=f)


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def closed_loop_sim(
    model: KoopmanModel,
    gain: LqrGain,
    plant,
    x0,
    duration: float,
    dt: float,
    u_limit: float = 5.0,
) -> Trajectory:
    """Run the regulator against the true plant for a fixed duration.

    Per step: lift the measured plant state, evaluate the linear law
    u = -F * lift(x), saturate it to [-u_limit, u_limit], and integrate the
    plant one RK4 step under that input. The returned Trajectory carries the
    applied control history.

    plant is a callable (state, u) -> state derivative; with a float form
    (see dynamics.rk4_step) each step runs on Python floats. Raises ValueError
    when duration / dt rounds to no step, and DivergedError once a state
    component's magnitude passes STATE_BOUND or an RK4 step turns non-finite.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    n_steps = round(duration / dt)
    if n_steps < 1:
        raise ValueError(f"duration {duration} is under half of dt {dt}: no step to take")
    x = np.asarray(x0, dtype=float)
    states = np.empty((n_steps + 1, x.size))
    controls = np.empty((n_steps, gain.F.shape[0]))
    states[0] = x
    neg_f = -gain.F
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            u = neg_f @ lift(model, x)
            u = np.minimum(np.maximum(u, -u_limit), u_limit)  # np.clip's values, less overhead
            x = rk4_step(plant, x, u, dt)
            if max(map(abs, x.tolist())) > STATE_BOUND:
                raise DivergedError(f"closed-loop state exceeded |x| = {STATE_BOUND} at step {k}")
            states[k + 1] = x
            controls[k] = u
    return Trajectory(dt=dt, states=states, controls=controls)


def settling_time(traj: Trajectory, component: int = 0, threshold: float = 0.05):
    """First time after which |state[component]| stays below threshold.

    Returns None if the trajectory never settles.
    """
    outside = np.flatnonzero(~(np.abs(traj.states[:, component]) < threshold))
    k = int(outside[-1]) + 1 if outside.size else 0
    return None if k == len(traj.states) else k * traj.dt
