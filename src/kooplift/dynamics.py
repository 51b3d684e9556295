"""Ground-truth nonlinear systems, RK4 integration, dataset generation and I/O.

Two reference systems: a torque-actuated pendulum and the planar two-body
problem. The fields, RK4 and :func:`simulate` are batch-first: one state (n,)
or a stack (..., n). Datasets are lists of :class:`Trajectory` produced from
documented uniform ranges with per-trajectory RNG streams, so generation is
bit-reproducible from (seed, trajectory index) and safe to parallelize.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import DivergedError, is_number

PENDULUM_DT = 0.01
PENDULUM_DURATION = 2.0
PENDULUM_STEPS = round(PENDULUM_DURATION / PENDULUM_DT)  # per trajectory
PENDULUM_ANGLE_RANGE = (-2.0, 2.0)
PENDULUM_RATE_RANGE = (-2.0, 2.0)
PENDULUM_CONTROL_RANGE = (-0.1, 0.1)
PENDULUM_G = 9.81  # m/s^2, over a 1 m arm with unit control gain

EARTH_MU = 398600.4418  # km^3/s^2
TWOBODY_RADIUS_RANGE = (6578.0, 11378.0)  # km, periapsis sampling range

PENDULUM_STATE_NAMES = ("theta", "theta_dot")
PENDULUM_CONTROL_NAMES = ("u",)
TWOBODY_STATE_NAMES = ("x", "y", "vx", "vy")
TWOBODY_CONTROL_NAMES = ()


class SingularityError(ValueError):
    """State hit a point where the vector field is undefined."""


@dataclass
class Trajectory:
    """A sampled state history with the controls that produced it.

    states has shape (M, n); controls has shape (M-1, p), where p may be 0
    for autonomous systems. A batch of b is time-major, (M, b, n) and
    (M-1, b, p), with dt a float or one step per trajectory (b,).
    """

    dt: float | np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.controls = np.asarray(self.controls, dtype=float)
        if np.min(self.dt) <= 0:
            raise ValueError("dt must be positive")
        if (self.states.shape[0], self.states.ndim) != (self.controls.shape[0] + 1,
                                                        self.controls.ndim):
            raise ValueError(
                f"states {self.states.shape} must be controls {self.controls.shape} "
                "plus one step, with as many axes"
            )
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states contain non-finite entries")
        if not np.all(np.isfinite(self.controls)):
            raise ValueError("controls contain non-finite entries")

    @property
    def n_states(self) -> int:
        return self.states.shape[-1]

    @property
    def n_controls(self) -> int:
        return self.controls.shape[-1]

    @property
    def times(self) -> np.ndarray:
        return np.multiply.outer(np.arange(self.states.shape[0]), self.dt)

    def unstack(self) -> list["Trajectory"]:
        """The b trajectories of a batch, each with contiguous arrays."""
        return [Trajectory(dt=float(dt), states=self.states[:, i].copy(),
                           controls=self.controls[:, i].copy())
                for i, dt in enumerate(np.broadcast_to(self.dt, self.states.shape[1]))]


def pendulum_deriv(state, u) -> np.ndarray:
    """Pendulum vector field: theta'' = -g sin(theta) + u, with g = PENDULUM_G.

    Takes one state (2,) with u of shape (1,), or a stack (..., 2) with u of
    shape (..., 1).
    """
    theta, theta_dot = np.asarray(state, dtype=float).T
    return np.array([theta_dot, -PENDULUM_G * np.sin(theta)
                     + np.asarray(u, dtype=float).T[0]]).T


def _pendulum_floats(x: list, u: list) -> tuple:
    """pendulum_deriv for one state and input as Python floats."""
    return x[1], -PENDULUM_G * math.sin(x[0]) + u[0]


# A field's float form, (state list, input list) -> derivative floats, lets
# rk4_step integrate one state without an array per stage.
pendulum_deriv.floats = _pendulum_floats


# math.hypot and np.float_power(r, 3) round like Python floats; np.hypot
# (1 % of inputs) and the array r**3 (5 %) would change datasets in the last bit.
_HYPOT = np.frompyfunc(math.hypot, 2, 1)


def twobody_deriv(state, u=None) -> np.ndarray:
    """Planar two-body vector field with attractive inverse-square gravity
    (mu = EARTH_MU); one state (4,) or a stack (..., 4). u is ignored: the
    system has no control input."""
    x, y, vx, vy = np.asarray(state, dtype=float).T
    r = np.asarray(_HYPOT(x, y), dtype=float)  # one state gives a Python float
    if (r == 0.0).any():
        raise SingularityError("two-body state at the origin")
    a = -EARTH_MU / np.float_power(r, 3)
    return np.array([vx, vy, a * x, a * y]).T


def rk4_step(deriv, state, u, dt) -> np.ndarray:
    """One classical Runge-Kutta 4 step with the control held over the step;
    dt is a float (checked without np.min, for speed) or, for a stack of
    states (b, n), a column (b, 1). One state with a float dt runs on Python
    floats when deriv has a float form (deriv.floats): see rk4_row."""
    x = np.asarray(state, dtype=float)
    if x.ndim == 1 and isinstance(dt, float) and getattr(deriv, "floats", None):
        return np.array(rk4_row(deriv, x.tolist(), u, dt))
    if (dt if isinstance(dt, float) else np.min(dt)) <= 0:
        raise ValueError("dt must be positive")
    k1 = deriv(x, u)
    k2 = deriv(x + 0.5 * dt * k1, u)
    k3 = deriv(x + 0.5 * dt * k2, u)
    k4 = deriv(x + dt * k3, u)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise DivergedError("non-finite state after RK4 step")
    return out


def rk4_row(deriv, xs: list, u, dt) -> list:
    """rk4_step for the one state xs, a list of floats, as a list: with a
    float form of deriv and a float dt, its stages on Python floats in the
    same order; else rk4_step's array stages."""
    floats = getattr(deriv, "floats", None)
    if not floats or not isinstance(dt, float):
        return rk4_step(deriv, xs, u, dt).tolist()
    if dt <= 0:
        raise ValueError("dt must be positive")
    u, half = np.asarray(u, dtype=float).ravel().tolist(), 0.5 * dt
    k1 = floats(xs, u)
    k2 = floats([a + half * k for a, k in zip(xs, k1)], u)
    k3 = floats([a + half * k for a, k in zip(xs, k2)], u)
    k4 = floats([a + dt * k for a, k in zip(xs, k3)], u)
    sixth = dt / 6.0
    out = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(xs, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise DivergedError("non-finite state after RK4 step")
    return out


def simulate(deriv, x0, controls, dt) -> Trajectory:
    """Integrate len(controls) RK4 steps from x0, returning the full history.

    x0 is one state (n,) or a stack (b, n); controls are time-major, (M, p)
    or (M, b, p); dt is a float or, for a stack, one step per row (b,).
    """
    x = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")
    controls = np.asarray(controls, dtype=float)
    step = np.asarray(dt, dtype=float)[:, None] if np.ndim(dt) else dt
    states = np.empty((controls.shape[0] + 1,) + x.shape)
    states[0] = x
    for k in range(controls.shape[0]):
        x = rk4_step(deriv, x, controls[k], step)
        states[k + 1] = x
    return Trajectory(dt=dt, states=states, controls=controls)


def pendulum_initial_states(n_ic: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The initial states (n_ic, 2), time-major controls (200, n_ic, 1) and
    steps (n_ic,) of random pendulum trajectories: 2 s at dt=0.01 under random
    torques.

    Per trajectory i, the stream default_rng((seed, i)) draws, in order:
    theta_0 ~ U[-2, 2], theta_dot_0 ~ U[-2, 2], then the full control
    sequence ~ U[-0.1, 0.1].
    """
    if n_ic < 1:
        raise ValueError("n_ic must be >= 1")
    x0 = np.empty((n_ic, 2))
    controls = np.empty((PENDULUM_STEPS, n_ic, 1))
    for i in range(n_ic):
        rng = np.random.default_rng((seed, i))
        x0[i] = rng.uniform(*PENDULUM_ANGLE_RANGE), rng.uniform(*PENDULUM_RATE_RANGE)
        controls[:, i] = rng.uniform(*PENDULUM_CONTROL_RANGE, size=(PENDULUM_STEPS, 1))
    return x0, controls, np.full(n_ic, PENDULUM_DT)


def generate_pendulum_dataset(n_ic: int, seed: int) -> list[Trajectory]:
    """The trajectories of pendulum_initial_states, integrated in one batch."""
    return simulate(pendulum_deriv, *pendulum_initial_states(n_ic, seed)).unstack()


def twobody_initial_states(
    n_ic: int,
    seed: int,
    points_per_orbit: int = 800,
    radius_range: tuple[float, float] = TWOBODY_RADIUS_RANGE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The initial states (n_ic, 4), zero-width controls (points_per_orbit - 1,
    n_ic, 0) and steps (n_ic,) of random circular orbits sampled for exactly
    one period each.

    Per trajectory i, the stream default_rng((seed, i)) draws the periapsis
    radius r ~ U[radius_range] km (default [6578, 11378]); the initial state
    is [r, 0, 0, sqrt(mu/r)] and the step is orbit_step(r, points_per_orbit),
    so every trajectory holds points_per_orbit samples over one period.
    """
    if n_ic < 1:
        raise ValueError("n_ic must be >= 1")
    if points_per_orbit < 2:
        raise ValueError("points_per_orbit must be >= 2")
    if not radius_range[1] >= radius_range[0] > 0:
        raise ValueError("radius_range must be positive and ordered")
    x0, r = np.zeros((n_ic, 4)), np.empty(n_ic)  # a size too large fails before any draw
    for i in range(n_ic):
        r[i] = np.random.default_rng((seed, i)).uniform(*radius_range)
    x0[:, 0], x0[:, 3] = r, np.sqrt(EARTH_MU / r)
    return x0, np.zeros((points_per_orbit - 1, n_ic, 0)), orbit_step(r, points_per_orbit)


def orbit_step(r, points_per_orbit: int):
    """The step T / points_per_orbit of circular orbits of radius r km, T the
    period 2 pi sqrt(r^3 / mu); inf where r^3 overflows."""
    with np.errstate(over="ignore"):
        return 2.0 * math.pi * np.sqrt(np.float_power(r, 3) / EARTH_MU) / points_per_orbit


def generate_twobody_dataset(n_ic: int, seed: int, points_per_orbit: int = 800,
                             radius_range=TWOBODY_RADIUS_RANGE) -> list[Trajectory]:
    """The orbits of twobody_initial_states, integrated in one batch; no control input."""
    draw = twobody_initial_states(n_ic, seed, points_per_orbit, radius_range)
    return simulate(twobody_deriv, *draw).unstack()


def _int_or_inf(text: str):
    """A JSON integer literal as an int, or as +-inf when it lies past the
    float range, where float() would overflow."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


def read_json(path) -> dict:
    """The JSON object in the file at path. An integer literal past the float
    range reads as +-inf, so every finiteness check refuses it as it refuses
    1e400. Text that is not JSON (nested too deeply for the parser included),
    or a root that is not an object, raises one ValueError naming path."""
    try:
        doc = json.loads(Path(path).read_text(), parse_int=_int_or_inf)
    # JSONDecodeError, text that is not UTF-8, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if type(doc) is not dict:
        raise ValueError(f"{path}: not a JSON object (its root is a {type(doc).__name__})")
    return doc


def write_json(path, doc: dict) -> None:
    """Write doc to path indented by 2 with a final newline, making any
    missing parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, table, blank_tail: int = 0) -> None:
    """Write header and table the way csv.writer does, "%.17g" per cell, with
    the last blank_tail cells of the final row left empty, making any missing
    parent directories."""
    m, width = table.shape
    text = ((",".join(["%.17g"] * width) + "\r\n") * m) % tuple(table.ravel().tolist())
    if blank_tail:
        text = text[:-2].rsplit(",", blank_tail)[0] + "," * blank_tail + "\r\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + text)


def save_dataset(
    trajectories: list[Trajectory],
    out_dir,
    state_names,
    control_names,
    manifest_extra: dict | None = None,
    file_names: list[str] | None = None,
) -> Path:
    """Write one CSV per trajectory plus a JSON manifest; returns the manifest path.

    CSV header is t, then state columns, then control columns; the final row
    has empty control cells (one fewer control than states). Floats go out at
    full precision ("%.17g") so a load reproduces the arrays bit for bit.
    Files are named traj_0000.csv, traj_0001.csv, ... unless file_names is given.
    """
    out_dir = Path(out_dir)
    state_names = list(state_names)
    control_names = list(control_names)
    header = ["t", *state_names, *control_names]
    files = []
    for i, traj in enumerate(trajectories):
        if traj.n_states != len(state_names):
            raise ValueError("state_names does not match trajectory width")
        if traj.n_controls != len(control_names):
            raise ValueError("control_names does not match trajectory width")
        name = file_names[i] if file_names else f"traj_{i:04d}.csv"
        padded = np.vstack([traj.controls, np.zeros((1, traj.n_controls))])
        write_csv(out_dir / name, header,
                  np.column_stack([traj.times, traj.states, padded]),
                  blank_tail=traj.n_controls)
        files.append({"name": name, "dt": traj.dt, "n_samples": traj.states.shape[0]})
    manifest = {
        "n_trajectories": len(trajectories),
        "state_names": state_names,
        "control_names": control_names,
        "files": files,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def load_dataset(in_dir) -> list[Trajectory]:
    """Read back a dataset written by :func:`save_dataset`.

    The manifest must be a JSON object whose state_names, control_names and
    files are lists, with at least one file entry, each holding a string name,
    a positive finite dt and a positive integer n_samples. Every CSV is checked
    against it: n_samples rows after the header, 1 + n_state + n_ctrl cells
    per row, finite numbers in every cell but the last row's control cells,
    which are empty. A mismatch raises a ValueError naming the file.
    """
    in_dir = Path(in_dir)
    manifest_path = in_dir / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest.json under {in_dir}")
    manifest = read_json(manifest_path)
    if not (manifest.get("files") and all(
            type(manifest.get(k)) is list for k in ("state_names", "control_names", "files"))):
        raise ValueError(f"{manifest_path}: must be an object whose state_names, control_names "
                         "and files are lists, with at least one file")
    n_state = len(manifest["state_names"])
    n_ctrl = len(manifest["control_names"])
    width = 1 + n_state + n_ctrl
    out = []
    for entry in manifest["files"]:
        if not (type(entry) is dict and type(entry.get("name")) is str
                and is_number(entry.get("n_samples"), "positive integer")
                and is_number(entry.get("dt"), "positive finite number")):
            raise ValueError(f"{manifest_path}: a file entry needs a string name, a positive "
                             f"finite dt and a positive integer n_samples, got {entry!r}")
        path = in_dir / entry["name"]
        try:
            body = path.read_text().splitlines()[1:]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if len(body) != entry["n_samples"]:
            raise ValueError(f"{path}: {len(body)} rows, the manifest says "
                             f"{entry['n_samples']}")
        fields = [line.count(",") + 1 for line in body]
        short = next((k for k, count in enumerate(fields) if count != width), None)
        if short is not None:
            raise ValueError(f"{path}: row {short + 1} has {fields[short]} "
                             f"fields, expected {width}")
        if any(body[-1].split(",")[1 + n_state :]):
            raise ValueError(f"{path}: the last row must leave the control cells empty")
        # Fill the last row's empty control cells so one parse reads a full table.
        body[-1] = body[-1][: len(body[-1]) - n_ctrl] + ",0" * n_ctrl
        try:
            table = np.array(",".join(body).split(","), dtype=float).reshape(-1, width)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            raise ValueError(f"{path}: row {finite.argmin() + 1} holds a non-finite number")
        # Copies, not views: strided views raised the 500-IC training peak by 6 MB.
        states, controls = table[:, 1 : 1 + n_state].copy(), table[:-1, 1 + n_state :].copy()
        out.append(Trajectory(dt=float(entry["dt"]), states=states, controls=controls))
    return out
