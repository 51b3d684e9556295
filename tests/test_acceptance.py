"""Acceptance gate: one pass/fail line per criterion.

Each criterion prints a [criterion N] PASS/FAIL line straight to the real
stdout so the lines survive pytest capture, then asserts. Criteria 2 and 5
share one trained pendulum model via a module fixture; criterion 3 trains
its own orbit model; criterion 7 runs the scaled-down MLP smoke training.
Tolerances are fixed here and nowhere loosened at runtime.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kooplift
from kooplift.control import closed_loop_sim, default_weights, dlqr, spectral_radius
from kooplift.dynamics import (
    EARTH_MU,
    generate_pendulum_dataset,
    generate_twobody_dataset,
    pendulum_deriv,
    rk4_step,
    simulate,
    twobody_deriv,
)
from kooplift.kan import SplineGrid, _basis_tables, kan_backward, kan_forward, kan_init
from kooplift.koopman import (
    KoopmanModel,
    TrainConfig,
    build_snapshots,
    fit_edmdc,
    lift,
    loss,
    rollout,
    train,
)
from kooplift.mlp import mlp_backward, mlp_forward, mlp_init
from kooplift.numerics import pinv

PRESET_DIR = Path(kooplift.__file__).parent / "presets"


def bspline_basis(x, grid):
    """All G+k degree-k B-spline basis values at a scalar x."""
    return _basis_tables(np.array([x]), grid, deriv=False)[0][0]


def _report(capsys, number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert ok, line


def _load_preset(name):
    with open(PRESET_DIR / name) as fh:
        return json.load(fh)


def _max_abs_err(model, trajs, component_slice):
    worst = 0.0
    for truth in trajs:
        pred = rollout(model, truth.states[0], truth.controls, truth.dt,
                       correct=True)
        err = np.abs(pred.states[:, component_slice] - truth.states[:, component_slice])
        worst = max(worst, float(err.max()))
    return worst


@pytest.fixture(scope="module")
def pendulum_kan_run():
    doc = _load_preset("pendulum_kan.json")
    trajs = generate_pendulum_dataset(doc["dataset"]["n_ic"], doc["dataset"]["seed"])
    shape = [2] + [doc["network"]["neurons"]] * doc["network"]["hidden_layers"] \
        + [doc["network"]["n_observables"]]
    cfg = TrainConfig(**doc["train"])
    started = time.perf_counter()
    model, history = train(kan_init(shape, SplineGrid(**doc["network"]["grid"]), cfg.seed),
                           trajs, cfg)
    wall = time.perf_counter() - started
    return doc, model, history, wall


def test_criterion_1_exact_linear_recovery(capsys):
    rng = np.random.default_rng(42)
    a = np.array([[0.9, 0.2], [-0.1, 0.8]])
    b = np.array([[0.0], [1.0]])
    controls = rng.uniform(-1.0, 1.0, size=(500, 1))
    states = np.empty((501, 2))
    states[0] = rng.uniform(-1.0, 1.0, size=2)
    for k in range(500):
        states[k + 1] = a @ states[k] + b @ controls[k]

    started = time.perf_counter()
    k_hat, b_hat = fit_edmdc(states[:-1].T, states[1:].T, controls.T)
    wall = time.perf_counter() - started

    k_err = float(np.max(np.abs(k_hat - a)))
    b_err = float(np.max(np.abs(b_hat - b)))
    ok = k_err <= 1e-8 and b_err <= 1e-8 and wall < 1.0
    _report(capsys, 1, "exact linear recovery",
            ok, f"|K-A|max={k_err:.2e}, |B-B|max={b_err:.2e}, {wall:.3f}s")


def test_criterion_2_pendulum_accuracy(capsys, pendulum_kan_run):
    doc, model, _, wall = pendulum_kan_run
    eval_trajs = generate_pendulum_dataset(doc["evaluation"]["n_ic"], doc["evaluation"]["seed"])
    err = _max_abs_err(model, eval_trajs, 0)
    ok = (err <= 0.2 and wall <= 300.0
          and doc["dataset"]["n_ic"] == 15
          and model.n_total == 3
          and len(eval_trajs) >= 5)
    _report(capsys, 2, "pendulum held-out accuracy",
            ok, f"max abs angle err {err:.4f} rad on {len(eval_trajs)} ICs, "
                f"train {wall:.1f}s")


def test_criterion_3_twobody_accuracy(capsys):
    doc = _load_preset("twobody_kan.json")
    trajs = generate_twobody_dataset(
        doc["dataset"]["n_ic"], doc["dataset"]["seed"],
        doc["dataset"]["points_per_orbit"],
    )
    shape = [4] + [doc["network"]["neurons"]] * doc["network"]["hidden_layers"] \
        + [doc["network"]["n_observables"]]
    cfg = TrainConfig(**doc["train"])
    started = time.perf_counter()
    model, _ = train(kan_init(shape, SplineGrid(**doc["network"]["grid"]), cfg.seed),
                     trajs, cfg)
    wall = time.perf_counter() - started

    eval_trajs = generate_twobody_dataset(
        doc["evaluation"]["n_ic"], doc["evaluation"]["seed"],
        doc["dataset"]["points_per_orbit"],
    )
    err = _max_abs_err(model, eval_trajs, slice(0, 2))
    ok = (err <= 3.0 and wall <= 600.0 and model.n_total == 5
          and len(eval_trajs) >= 3)
    _report(capsys, 3, "two-body held-out accuracy",
            ok, f"max abs position err {err:.3e} km on {len(eval_trajs)} radii, "
                f"train {wall:.1f}s")


def test_criterion_4_parameter_efficiency(capsys):
    counts = {}
    for name in ("pendulum_kan", "pendulum_mlp", "twobody_kan", "twobody_mlp"):
        doc = _load_preset(f"{name}.json")
        n_in = 2 if name.startswith("pendulum") else 4
        shape = [n_in] + [doc["network"]["neurons"]] * doc["network"]["hidden_layers"] \
            + [doc["network"]["n_observables"]]
        if doc["backend"] == "kan":
            counts[name] = kan_init(shape, SplineGrid(**doc["network"]["grid"]),
                                    0).n_params
        else:
            counts[name] = mlp_init(shape, 0).n_params
    ok = (counts["pendulum_kan"] < counts["pendulum_mlp"]
          and counts["twobody_kan"] < counts["twobody_mlp"])
    _report(capsys, 4, "KAN parameter efficiency",
            ok, f"pendulum {counts['pendulum_kan']} < {counts['pendulum_mlp']}, "
                f"two-body {counts['twobody_kan']} < {counts['twobody_mlp']}")


def test_criterion_5_lqr_regulation(capsys, pendulum_kan_run):
    doc, model, _, _ = pendulum_kan_run
    ctl = doc["control"]
    q, r = default_weights(model.n, model.n_total, model.B.shape[1],
                           q_state=ctl["q_state"], r=ctl["r"])
    gain = dlqr(model.K, model.B, q, r)
    rho = spectral_radius(model.K - model.B @ gain.F)

    traj = closed_loop_sim(
        model, gain, pendulum_deriv,
        np.array([1.0, 0.0]), duration=ctl["duration"], dt=ctl["dt"],
        u_limit=ctl["u_limit"],
    )
    theta = traj.states[:, 0]
    below = np.abs(theta) < 0.05
    reached = bool(below.any()) and bool(below[-1])
    first = float(np.argmax(below) * ctl["dt"]) if below.any() else float("inf")
    ok = reached and first <= 10.0 and rho < 1.0
    _report(capsys, 5, "LQR pendulum regulation",
            ok, f"|theta|<0.05 rad at t={first:.2f}s, final "
                f"{abs(theta[-1]):.2e} rad, closed-loop spectral radius {rho:.4f}")


def test_criterion_6_property_suite(capsys):
    rng = np.random.default_rng(1234)
    failures = []

    # B-spline partition of unity at 1000 interior points.
    grid = SplineGrid()
    xs = rng.uniform(grid.lo, grid.hi, size=1000)
    pou = max(abs(float(np.sum(bspline_basis(x, grid))) - 1.0) for x in xs)
    if pou > 1e-12:
        failures.append(f"partition of unity {pou:.2e}")

    # Gradients vs central finite differences on 10 small networks.
    h = 1e-5
    worst_fd = 0.0
    for trial in range(10):
        if trial % 2 == 0:
            shape = [2, 2, 1] if trial < 5 else [1, 3, 2]
            net = kan_init(shape, SplineGrid(intervals=4), seed=trial)
            fwd, bwd = kan_forward, kan_backward
        else:
            shape = [2, 4, 2] if trial < 5 else [3, 2]
            net = mlp_init(shape, seed=trial)
            fwd, bwd = mlp_forward, mlp_backward
        x = rng.normal(0.0, 1.0, size=(4, shape[0]))
        upstream = rng.normal(0.0, 1.0, size=(4, shape[-1]))
        tape = []
        fwd(net, x, tape=tape)
        grads = bwd(net, upstream, tape)
        params = net.get_params()
        for idx in rng.choice(params.size, size=min(25, params.size), replace=False):
            bumped = params.copy()
            bumped[idx] += h
            net.set_params(bumped)
            up = float(np.sum(upstream * fwd(net, x)))
            bumped[idx] -= 2 * h
            net.set_params(bumped)
            down = float(np.sum(upstream * fwd(net, x)))
            net.set_params(params)
            fd = (up - down) / (2 * h)
            rel = abs(grads[idx] - fd) / max(1.0, abs(fd))
            worst_fd = max(worst_fd, rel)
    if worst_fd > 1e-5:
        failures.append(f"finite-difference gradient {worst_fd:.2e}")

    # Moore-Penrose identities on 20 matrices including rank-deficient ones.
    worst_mp = 0.0
    for trial in range(20):
        rows, cols = rng.integers(2, 7, size=2)
        m = rng.normal(size=(rows, cols))
        if trial % 3 == 0 and min(rows, cols) > 1:
            m[:, -1] = m[:, 0]
        p = pinv(m)
        worst_mp = max(
            worst_mp,
            float(np.max(np.abs(m @ p @ m - m))),
            float(np.max(np.abs(p @ m @ p - p))),
            float(np.max(np.abs((m @ p).T - m @ p))),
            float(np.max(np.abs((p @ m).T - p @ m))),
        )
    if worst_mp > 1e-10:
        failures.append(f"Moore-Penrose identities {worst_mp:.2e}")

    # The state rows of the lifted vector recover the state bit-exactly.
    net = kan_init([2, 2], SplineGrid(), seed=9)
    model = KoopmanModel(net, np.eye(4), np.zeros((4, 0)), 2, 4)
    states = rng.uniform(-2.0, 2.0, size=(1000, 2))
    exact = all(
        np.array_equal(lift(model, x)[:model.n], x) for x in states
    )
    if not exact:
        failures.append("lift(x)[:n] != x bit-exact")

    # alpha=1 with no input: the two losses coincide.
    trajs = generate_twobody_dataset(2, 17, points_per_orbit=40)
    snaps = build_snapshots(trajs, alpha=1)
    net = kan_init([4, 1], SplineGrid(), seed=3)
    phi = np.concatenate([snaps.X, kan_forward(net, snaps.X.T).T], 0)
    phin = np.concatenate([snaps.X_next, kan_forward(net, snaps.X_next.T).T], 0)
    k, b = fit_edmdc(phi, phin, snaps.U)
    m2 = KoopmanModel(net, k, b, 4, 5)
    r, p, _ = loss(m2, snaps, TrainConfig())
    if abs(r - p) > 1e-14 * max(1.0, abs(r)):
        failures.append(f"alpha=1 pred != recon ({abs(r - p):.2e})")

    # RK4 order: halving dt shrinks one-step-sequence error ~16x.
    x0 = np.array([0.9, -0.3])
    errs = []
    for dt in (0.02, 0.01):
        n = round(1.0 / dt)
        states = np.empty((n + 1, 2))
        states[0] = x0
        for k_ in range(n):
            states[k_ + 1] = rk4_step(pendulum_deriv, states[k_], 0.0, dt)
        fine = simulate(pendulum_deriv, x0, np.zeros((round(1.0 / 1e-5), 1)), 1e-5)
        errs.append(float(np.max(np.abs(states[-1] - fine.states[-1]))))
    ratio = errs[0] / errs[1]
    if not 14.0 <= ratio <= 18.0:
        failures.append(f"RK4 convergence ratio {ratio:.2f}")

    # Two-body specific energy drift over one orbit.
    tb = generate_twobody_dataset(1, 5, points_per_orbit=400)[0]
    mu = EARTH_MU
    rr = np.linalg.norm(tb.states[:, :2], axis=1)
    vv = np.linalg.norm(tb.states[:, 2:], axis=1)
    energy = 0.5 * vv**2 - mu / rr
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    if drift > 1e-6:
        failures.append(f"two-body energy drift {drift:.2e}")

    # Fixed-seed bit reproducibility of data and of training history.
    d1 = generate_pendulum_dataset(3, 77)
    d2 = generate_pendulum_dataset(3, 77)
    same_data = all(
        np.array_equal(a.states, b.states) and np.array_equal(a.controls, b.controls)
        for a, b in zip(d1, d2)
    )
    cfg = TrainConfig(alpha=5, epochs=2, optimizer="lbfgs", learning_rate=1.0,
                      lbfgs_max_iter=5, seed=11)
    _, h1 = train(kan_init([2, 1], SplineGrid(), cfg.seed), d1, cfg)
    _, h2 = train(kan_init([2, 1], SplineGrid(), cfg.seed), d2, cfg)
    same_hist = len(h1) == len(h2) and all(
        a.recon == b.recon and a.pred == b.pred and a.total == b.total
        for a, b in zip(h1, h2)
    )
    if not (same_data and same_hist):
        failures.append("fixed-seed reproducibility broken")

    _report(capsys, 6, "property suite", not failures,
            "; ".join(failures) if failures else
            f"8 properties hold (PoU {pou:.1e}, FD {worst_fd:.1e}, "
            f"MP {worst_mp:.1e}, RK4 ratio {ratio:.2f}, drift {drift:.1e})")


@pytest.mark.slow
def test_criterion_7_scaled_mlp_smoke(capsys):
    trajs = generate_pendulum_dataset(500, 101)
    cfg = TrainConfig(alpha=25, gamma=0.0, beta=1.0, epochs=100,
                      optimizer="adam", learning_rate=1e-3, batch_size=4096,
                      seed=0)
    started = time.perf_counter()
    model, _ = train(mlp_init([2, 6, 6, 6, 6, 6, 6, 6, 6, 2], cfg.seed), trajs, cfg)
    wall = time.perf_counter() - started
    eval_trajs = generate_pendulum_dataset(5, 900)
    err = _max_abs_err(model, eval_trajs, 0)
    ok = err <= 0.5 and model.n_params == 326
    _report(capsys, 7, "scaled MLP smoke run",
            ok, f"500 ICs, {model.n_params} params, max abs angle err "
                f"{err:.4f} rad, train {wall:.1f}s")
