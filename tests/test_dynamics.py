"""Tests for the reference systems, integrator, and dataset round trips."""

import csv
import json
import math
import re
import tempfile

import numpy as np
import pytest

from kooplift.dynamics import (
    EARTH_MU,
    PENDULUM_ANGLE_RANGE,
    PENDULUM_CONTROL_NAMES,
    PENDULUM_CONTROL_RANGE,
    PENDULUM_DT,
    PENDULUM_G,
    PENDULUM_RATE_RANGE,
    PENDULUM_STATE_NAMES,
    TWOBODY_RADIUS_RANGE,
    TWOBODY_STATE_NAMES,
    SingularityError,
    Trajectory,
    generate_pendulum_dataset,
    generate_twobody_dataset,
    load_dataset,
    pendulum_deriv,
    pendulum_initial_states,
    read_json,
    rk4_step,
    save_dataset,
    simulate,
    twobody_deriv,
    twobody_initial_states,
    write_json,
)
from kooplift.numerics import DivergedError


def test_pendulum_equilibrium():
    assert np.allclose(pendulum_deriv([0.0, 0.0], [0.0]), [0.0, 0.0])


def test_pendulum_quarter_turn():
    d = pendulum_deriv([math.pi / 2, 0.0], [0.0])
    assert np.allclose(d, [0.0, -9.81], atol=1e-12)


def test_pendulum_with_torque():
    d = pendulum_deriv([0.3, 0.1], [0.05])
    assert np.allclose(d, [0.1, -9.81 * math.sin(0.3) + 0.05], atol=1e-12)


def test_twobody_circular_periapsis():
    r = 7000.0
    v = math.sqrt(EARTH_MU / r)
    d = twobody_deriv([r, 0.0, 0.0, v])
    assert np.allclose(d, [0.0, v, -EARTH_MU / r**2, 0.0], rtol=1e-12)


def test_twobody_quarter_orbit_symmetry():
    r = 7000.0
    v = math.sqrt(EARTH_MU / r)
    d = twobody_deriv([0.0, r, -v, 0.0])
    assert np.allclose(d, [-v, 0.0, 0.0, -EARTH_MU / r**2], rtol=1e-12)


def test_twobody_componentwise():
    x, y, vx, vy = 7000.0, 1000.0, 1.0, 7.0
    r3 = math.hypot(x, y) ** 3
    d = twobody_deriv([x, y, vx, vy])
    assert np.allclose(d, [vx, vy, -EARTH_MU * x / r3, -EARTH_MU * y / r3], rtol=1e-12)


def test_twobody_origin_is_singular():
    with pytest.raises(SingularityError):
        twobody_deriv([0.0, 0.0, 1.0, 1.0])


def test_rk4_constant_field():
    deriv = lambda x, u: np.zeros_like(x)
    x = rk4_step(deriv, [1.0, 2.0], 0.0, 0.1)
    assert np.allclose(x, [1.0, 2.0])


def test_rk4_matches_exponential():
    deriv = lambda x, u: x
    x = rk4_step(deriv, [1.0], 0.0, 0.1)
    # RK4 reproduces exp(0.1) through the dt^4 Taylor term.
    assert abs(x[0] - math.exp(0.1)) < 1e-7
    assert abs(x[0] - 1.1051708333333332) < 1e-15


def test_rk4_requires_positive_dt():
    with pytest.raises(ValueError):
        rk4_step(lambda x, u: x, [1.0], 0.0, 0.0)


def _integrate(x0, t_end, dt):
    n = round(t_end / dt)
    return simulate(pendulum_deriv, x0, np.zeros((n, 1)), dt).states[-1]


def test_rk4_one_step_order():
    x0 = [0.3, 0.0]
    ref = _integrate(x0, 0.1, 1e-4)
    err_coarse = np.linalg.norm(_integrate(x0, 0.1, 0.1) - ref)
    err_fine = np.linalg.norm(_integrate(x0, 0.1, 0.05) - ref)
    assert 13.0 < err_coarse / err_fine < 19.0


def test_rk4_global_order_on_pendulum():
    x0 = [1.5, 0.0]
    ref = _integrate(x0, 2.0, 1e-4)
    err_coarse = np.linalg.norm(_integrate(x0, 2.0, 0.01) - ref)
    err_fine = np.linalg.norm(_integrate(x0, 2.0, 0.005) - ref)
    assert 14.0 <= err_coarse / err_fine <= 18.0


def test_simulate_equilibrium_constant():
    traj = simulate(pendulum_deriv, [0.0, 0.0], np.zeros((50, 1)), 0.01)
    assert np.max(np.abs(traj.states)) == 0.0


def test_simulate_pendulum_length():
    traj = simulate(pendulum_deriv, [0.1, 0.0], np.zeros((200, 1)), 0.01)
    assert traj.states.shape == (201, 2)
    assert traj.controls.shape == (200, 1)
    assert traj.times[-1] == pytest.approx(2.0)


def test_circular_orbit_closes():
    r = 7000.0
    period = 2.0 * math.pi * math.sqrt(r**3 / EARTH_MU)
    dt = period / 800
    traj = simulate(twobody_deriv, [r, 0.0, 0.0, math.sqrt(EARTH_MU / r)], np.zeros((800, 0)), dt)
    radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(radii - r)) / r < 1e-3


def test_twobody_energy_conserved():
    traj = generate_twobody_dataset(1, seed=9, points_per_orbit=800)[0]
    r = np.hypot(traj.states[:, 0], traj.states[:, 1])
    v2 = traj.states[:, 2] ** 2 + traj.states[:, 3] ** 2
    energy = 0.5 * v2 - EARTH_MU / r
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) <= 1e-6


def test_pendulum_dataset_shapes_and_ranges():
    trajs = generate_pendulum_dataset(6, seed=1)
    assert len(trajs) == 6
    for traj in trajs:
        assert traj.states.shape == (201, 2)
        assert traj.controls.shape == (200, 1)
        assert traj.dt == 0.01
        assert -2.0 <= traj.states[0, 0] <= 2.0
        assert -2.0 <= traj.states[0, 1] <= 2.0
        assert np.all(np.abs(traj.controls) <= 0.1)


def test_pendulum_dataset_deterministic():
    a = generate_pendulum_dataset(4, seed=123)
    b = generate_pendulum_dataset(4, seed=123)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.controls, tb.controls)
    c = generate_pendulum_dataset(4, seed=124)
    assert not np.array_equal(a[0].states, c[0].states)


def test_pendulum_dataset_prefix_stable():
    # Per-trajectory streams: growing the dataset never changes earlier members.
    small = generate_pendulum_dataset(2, seed=7)
    big = generate_pendulum_dataset(5, seed=7)
    for ts, tb in zip(small, big):
        assert np.array_equal(ts.states, tb.states)


def test_pendulum_initial_states_are_the_generators_draws():
    x0, controls, dt = pendulum_initial_states(4, seed=7)
    assert x0.shape == (4, 2) and controls.shape == (200, 4, 1)
    assert dt.tobytes() == np.full(4, PENDULUM_DT).tobytes()
    for i, traj in enumerate(generate_pendulum_dataset(4, seed=7)):
        rng = np.random.default_rng((7, i))
        theta, theta_dot = rng.uniform(*PENDULUM_ANGLE_RANGE), rng.uniform(*PENDULUM_RATE_RANGE)
        drawn = rng.uniform(*PENDULUM_CONTROL_RANGE, size=(200, 1))
        assert x0[i].tolist() == [theta, theta_dot] == traj.states[0].tolist()
        assert controls[:, i].tobytes() == drawn.tobytes() == traj.controls.tobytes()


@pytest.mark.parametrize("system", ["pendulum", "twobody"])
def test_generators_integrate_their_initial_states(system):
    # Both draws return (x0, controls, dt) with one step per IC; the two-body
    # controls are zero-width. simulate on a draw is the generated dataset.
    if system == "pendulum":
        draw, deriv = pendulum_initial_states(3, seed=5), pendulum_deriv
        trajs = generate_pendulum_dataset(3, seed=5)
    else:
        draw, deriv = twobody_initial_states(3, seed=5, points_per_orbit=40), twobody_deriv
        trajs = generate_twobody_dataset(3, seed=5, points_per_orbit=40)
        assert draw[1].shape == (39, 3, 0)
    assert draw[2].shape == (3,)
    for got, want in zip(simulate(deriv, *draw).unstack(), trajs, strict=True):
        assert type(got.dt) is type(want.dt) is float and got.dt == want.dt
        assert got.states.tobytes() == want.states.tobytes()
        assert got.controls.tobytes() == want.controls.tobytes()


def test_twobody_dataset_geometry():
    trajs = generate_twobody_dataset(3, seed=2, points_per_orbit=800)
    for traj in trajs:
        assert traj.states.shape == (800, 4)
        assert traj.controls.shape == (799, 0)
        r = traj.states[0, 0]
        assert 6578.0 <= r <= 11378.0
        assert traj.states[0, 1] == 0.0
        assert traj.states[0, 2] == 0.0
        assert traj.states[0, 3] == pytest.approx(math.sqrt(EARTH_MU / r), rel=1e-12)


def test_twobody_initial_speed_low_orbit():
    assert math.sqrt(EARTH_MU / 6578.0) == pytest.approx(7.7843, abs=1e-4)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, states=np.zeros((3, 2)), controls=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(dt=0.0, states=np.zeros((2, 2)), controls=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, states=np.full((2, 2), np.nan), controls=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="as many axes"):  # controls without their input axis
        Trajectory(dt=0.1, states=np.zeros((3, 2)), controls=np.zeros(2))


def test_dataset_roundtrip_bit_exact(tmp_path):
    trajs = generate_pendulum_dataset(3, seed=42)
    save_dataset(
        trajs,
        tmp_path,
        PENDULUM_STATE_NAMES,
        PENDULUM_CONTROL_NAMES,
        manifest_extra={"system": "pendulum", "seed": 42},
    )
    loaded = load_dataset(tmp_path)
    assert len(loaded) == 3
    for orig, back in zip(trajs, loaded):
        assert back.dt == orig.dt
        assert np.array_equal(back.states, orig.states)
        assert np.array_equal(back.controls, orig.controls)


def test_dataset_roundtrip_empty_controls(tmp_path):
    trajs = generate_twobody_dataset(2, seed=5, points_per_orbit=100)
    save_dataset(trajs, tmp_path, ("x", "y", "vx", "vy"), ())
    loaded = load_dataset(tmp_path)
    for orig, back in zip(trajs, loaded):
        assert np.array_equal(back.states, orig.states)
        assert back.controls.shape == (99, 0)


def test_read_json_reads_an_integer_past_the_float_range_as_inf(tmp_path):
    # Past the largest float means where float(int) overflows, at 2**1024 - 2**970.
    edge = 2**1024 - 2**970
    path = tmp_path / "doc.json"
    path.write_text(f'{{"in": {edge - 1}, "past": {edge}, "digits": -1{"0" * 5000}, '
                    f'"n": 12, "x": 1.5}}')
    doc = read_json(path)
    assert doc == {"in": edge - 1, "past": math.inf, "digits": -math.inf, "n": 12, "x": 1.5}
    assert type(doc["in"]) is int and type(doc["n"]) is int
    for text, detail in (("{bad", "not valid JSON"), ("[1]", "not a JSON object"),
                         ("\udcff", "not valid JSON")):
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {detail} (")):
            read_json(path)


def test_write_json_makes_its_directories(tmp_path):
    path = tmp_path / "a" / "b" / "doc.json"
    write_json(path, {"k": [1, 2.5]})
    assert path.read_text() == '{\n  "k": [\n    1,\n    2.5\n  ]\n}\n'
    assert read_json(path) == {"k": [1, 2.5]}


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nowhere")


# Scalar oracles: the per-IC integrator and the csv.writer dataset writer
# that the batch-first code replaced. The batch must reproduce them bit for
# bit (arrays) and byte for byte (files).

def _oracle_pendulum(state, u):
    # g = 9.81 over a 1 m arm, unit control gain.
    theta, theta_dot = float(state[0]), float(state[1])
    return np.array([theta_dot, -(9.81 / 1.0) * math.sin(theta) + 1.0 * float(u[0])])


def _oracle_twobody(state, u):
    x, y, vx, vy = (float(v) for v in state)
    r = math.hypot(x, y)
    a = -EARTH_MU / r**3
    return np.array([vx, vy, a * x, a * y])


def _oracle_simulate(field, x0, controls, dt):
    """One IC, one scalar RK4 step at a time."""
    x = np.asarray(x0, dtype=float)
    states = [x]
    for u in controls:
        k1 = field(x, u)
        k2 = field(x + 0.5 * dt * k1, u)
        k3 = field(x + 0.5 * dt * k2, u)
        k4 = field(x + dt * k3, u)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def _oracle_save(trajs, out_dir, state_names, control_names):
    for i, traj in enumerate(trajs):
        with open(out_dir / f"traj_{i:04d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *state_names, *control_names])
            m = traj.states.shape[0]
            for k in range(m):
                row = [f"{k * traj.dt:.17g}"] + [f"{v:.17g}" for v in traj.states[k]]
                if k < m - 1:
                    row += [f"{v:.17g}" for v in traj.controls[k]]
                else:
                    row += [""] * traj.n_controls
                writer.writerow(row)


def test_batched_pendulum_dataset_equals_scalar_oracle():
    n_steps = 200
    trajs = generate_pendulum_dataset(7, seed=31)
    for i, traj in enumerate(trajs):
        rng = np.random.default_rng((31, i))
        x0 = [rng.uniform(*PENDULUM_ANGLE_RANGE), rng.uniform(*PENDULUM_RATE_RANGE)]
        controls = rng.uniform(*PENDULUM_CONTROL_RANGE, size=(n_steps, 1))
        assert np.array_equal(traj.controls, controls)
        assert np.array_equal(traj.states,
                              _oracle_simulate(_oracle_pendulum, x0, controls, PENDULUM_DT))
        assert traj.dt == PENDULUM_DT


def test_batched_twobody_dataset_with_per_ic_dt_equals_scalar_oracle():
    trajs = generate_twobody_dataset(4, seed=17, points_per_orbit=300)
    for i, traj in enumerate(trajs):
        r = np.random.default_rng((17, i)).uniform(*TWOBODY_RADIUS_RANGE)
        dt = 2.0 * math.pi * math.sqrt(r**3 / EARTH_MU) / 300
        x0 = [r, 0.0, 0.0, math.sqrt(EARTH_MU / r)]
        assert traj.dt == dt
        assert np.array_equal(traj.states,
                              _oracle_simulate(_oracle_twobody, x0, np.zeros((299, 0)), dt))
    assert len({traj.dt for traj in trajs}) == 4


def test_fields_on_a_stack_equal_rows():
    rng = np.random.default_rng(4)
    states = rng.uniform(-3.0, 3.0, size=(9, 2))
    torques = rng.uniform(-0.1, 0.1, size=(9, 1))
    stacked = pendulum_deriv(states, torques)
    assert stacked.shape == (9, 2)
    for row, x, u in zip(stacked, states, torques):
        assert np.array_equal(row, pendulum_deriv(x, u))
        assert np.array_equal(row, _oracle_pendulum(x, u))
    orbits = rng.uniform(-9000.0, 9000.0, size=(3, 5, 4))
    stacked = twobody_deriv(orbits)
    assert stacked.shape == (3, 5, 4)
    for row, x in zip(stacked.reshape(-1, 4), orbits.reshape(-1, 4)):
        assert np.array_equal(row, _oracle_twobody(x, None))


def test_twobody_stack_with_a_state_at_the_origin_is_singular():
    with pytest.raises(SingularityError):
        twobody_deriv([[7000.0, 0.0, 0.0, 7.5], [0.0, 0.0, 1.0, 1.0]])


def test_rk4_step_with_a_dt_column_equals_per_row_steps():
    states = np.array([[7000.0, 0.0, 0.0, 7.5], [0.0, 9000.0, -6.6, 0.0]])
    dts = np.array([[5.0], [7.5]])
    batch = rk4_step(twobody_deriv, states, None, dts)
    for row, x, dt in zip(batch, states, dts[:, 0]):
        assert np.array_equal(row, rk4_step(twobody_deriv, x, None, float(dt)))
    with pytest.raises(ValueError):
        rk4_step(twobody_deriv, states, None, np.array([[5.0], [0.0]]))


def _one_state_pendulum(state, u):
    """pendulum_deriv's one-state field returning an array, with no float form,
    so rk4_step runs its array stages on it."""
    theta, theta_dot = float(state[0]), float(state[1])
    return np.array([theta_dot, -PENDULUM_G * math.sin(theta)
                     + np.asarray(u, dtype=float).ravel()[0]])


def test_float_rk4_step_bit_identical_to_array_step():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-5.0, 5.0),
           st.floats(1e-4, 0.1))
    def check(theta, theta_dot, u, dt):
        x = np.array([theta, theta_dot])
        want = rk4_step(_one_state_pendulum, x, np.array([u]), dt)
        for control in (np.array([u]), u, [u]):
            got = rk4_step(pendulum_deriv, x, control, dt)
            assert type(got) is np.ndarray and got.tobytes() == want.tobytes()

    check()
    with pytest.raises(DivergedError, match="^non-finite state after RK4 step$"):
        rk4_step(pendulum_deriv, [0.0, 1e308], 1e308, 0.1)


def test_simulate_stack_is_time_major_and_unstacks():
    x0 = np.array([[0.1, 0.0], [1.0, -0.5], [-1.5, 2.0]])
    controls = np.zeros((20, 3, 1))
    batch = simulate(pendulum_deriv, x0, controls, 0.01)
    assert batch.states.shape == (21, 3, 2)
    assert batch.controls.shape == (20, 3, 1)
    assert batch.n_states == 2 and batch.n_controls == 1
    assert batch.times.shape == (21,)
    for i, traj in enumerate(batch.unstack()):
        one = simulate(pendulum_deriv, x0[i], controls[:, i], 0.01)
        assert np.array_equal(traj.states, one.states)
        assert np.array_equal(traj.controls, one.controls)
        assert traj.states.flags.c_contiguous
    per_ic = simulate(twobody_deriv, [[7000.0, 0, 0, 7.5], [8000.0, 0, 0, 7.0]],
                      np.zeros((5, 2, 0)), [3.0, 4.0])
    assert per_ic.times.shape == (6, 2)
    assert [traj.dt for traj in per_ic.unstack()] == [3.0, 4.0]


@pytest.mark.parametrize("system", ["pendulum", "twobody"])
def test_save_dataset_is_byte_identical_to_csv_writer(tmp_path, system):
    if system == "pendulum":
        trajs = generate_pendulum_dataset(3, seed=42)
        names = (PENDULUM_STATE_NAMES, PENDULUM_CONTROL_NAMES)
    else:
        trajs = generate_twobody_dataset(2, seed=5, points_per_orbit=60)
        names = (TWOBODY_STATE_NAMES, ())
    save_dataset(trajs, tmp_path / "batch", *names)
    (tmp_path / "oracle").mkdir()
    _oracle_save(trajs, tmp_path / "oracle", *names)
    for i in range(len(trajs)):
        name = f"traj_{i:04d}.csv"
        assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()


@pytest.mark.parametrize("cut, what", [
    (lambda text: text[:3000], "rows, the manifest says 201"),
    (lambda text: text.replace("\r\n", "\r\n0.5,", 1), "row 1 has 5 fields"),
    (lambda text: text[:-2] + "0.0\r\n", "control cells empty"),
    (lambda text: text.replace(",", ",x", 5), "could not convert"),
    (lambda text: text.replace("\r\n", "\r\nx", 1), "could not convert"),
    (lambda text: re.sub(r"\r\n0\.01,[^,]*", "\r\n0.01,nan", text, count=1),
     "row 2 holds a non-finite number"),
    (lambda text: text.replace("\r\n0.01,", "\r\ninf,", 1), "row 2 holds a non-finite number"),
], ids=["truncated", "extra-field", "last-control", "not-a-number", "time-not-a-number",
        "state-nan", "time-inf"])
def test_load_dataset_checks_files_against_the_manifest(tmp_path, cut, what):
    save_dataset(generate_pendulum_dataset(2, seed=3), tmp_path,
                 PENDULUM_STATE_NAMES, PENDULUM_CONTROL_NAMES)
    path = tmp_path / "traj_0001.csv"
    path.write_bytes(cut(path.read_bytes().decode()).encode())
    with pytest.raises(ValueError, match="traj_0001.csv") as err:
        load_dataset(tmp_path)
    assert what in str(err.value)


@pytest.mark.parametrize("n_samples", [0, -1])
def test_load_dataset_rejects_a_non_positive_n_samples(tmp_path, n_samples):
    # A header-only CSV fails on its manifest entry, not on an empty body.
    save_dataset(generate_pendulum_dataset(1, seed=3), tmp_path,
                 PENDULUM_STATE_NAMES, PENDULUM_CONTROL_NAMES)
    path = tmp_path / "traj_0000.csv"
    path.write_bytes(path.read_bytes().split(b"\r\n")[0] + b"\r\n")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["files"][0]["n_samples"] = n_samples
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json: .*a positive integer n_samples"):
        load_dataset(tmp_path)


def test_dataset_roundtrip_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2),
           st.floats(1e-6, 1e3), st.data())
    def check(m, n, p, dt, data):
        states = data.draw(arrays(float, (m, n), elements=finite))
        controls = data.draw(arrays(float, (m - 1, p), elements=finite))
        traj = Trajectory(dt=dt, states=states, controls=controls)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset([traj], tmp, [f"s{j}" for j in range(n)],
                         [f"u{j}" for j in range(p)])
            (back,) = load_dataset(tmp)
        assert back.dt == dt
        assert np.array_equal(back.states, states)
        assert back.controls.shape == (m - 1, p)
        assert np.array_equal(back.controls, controls)

    check()
