"""Tests for lifting, operator fitting, losses, training, and rollout."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kooplift import kan, koopman, mlp
from kooplift.dynamics import (
    Trajectory,
    generate_pendulum_dataset,
    generate_twobody_dataset,
)
from kooplift.kan import SplineGrid, kan_init
from kooplift.koopman import (
    KoopmanModel,
    LossRecord,
    TrainConfig,
    _TrainPlan,
    _forcing_terms,
    _lift_cols,
    _powers,
    build_snapshots,
    fit_edmdc,
    lift,
    load_model,
    loss,
    rollout,
    save_history,
    save_model,
    train,
)
from kooplift.mlp import SELU_ALPHA, SELU_LAMBDA, MlpNetwork, mlp_init
from kooplift.numerics import DivergedError, pinv
from kooplift.optim import Lbfgs


def load_history(path) -> list[LossRecord]:
    """Read a loss_history.csv written by save_history."""
    out = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            epoch, recon, pred, total = line.strip().split(",")
            out.append(LossRecord(int(epoch), float(recon), float(pred), float(total)))
    return out


GRID = SplineGrid()


def linear_lifting_model(a, n_obs=2, seed=0):
    """A model whose observables are exactly linear (MLP, single affine
    layer, zero bias), fitted on data from x+ = a x. The lifted dynamics is
    then exactly linear, so every fit/loss/rollout identity is testable
    against closed forms."""
    n = a.shape[0]
    net = mlp_init([n, n_obs], seed=seed)
    rng = np.random.default_rng(seed + 1)
    trajs = []
    for _ in range(4):
        x = rng.standard_normal(n)
        states = [x]
        for _ in range(30):
            x = a @ x
            states.append(x)
        trajs.append(Trajectory(dt=0.1, states=np.array(states),
                                controls=np.zeros((30, 0))))
    return net, trajs


def rotation(theta, scale=1.0):
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def fitted_model(net, trajs, alpha=1):
    snaps = build_snapshots(trajs, alpha)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols(net, snaps.X)
    phi_xn = _lift_cols(net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(network=net, K=k, B=b)
    return model, snaps


def test_lift_extraction_identity():
    net = kan_init([2, 1, 1], GRID, seed=0)
    model = KoopmanModel(network=net, K=np.eye(3), B=np.zeros((3, 0)))
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        z = lift(model, x)
        assert z.shape == (3,)
        assert np.array_equal(z[:model.n], x)


def test_lifted_sizes():
    kan_model = KoopmanModel(network=kan_init([2, 1, 1], GRID, 0),
                             K=np.eye(3), B=np.zeros((3, 1)))
    assert lift(kan_model, np.zeros(2)).size == 3
    mlp_model = KoopmanModel(network=mlp_init([4, 25, 25, 25, 6], 0),
                             K=np.eye(10), B=np.zeros((10, 0)))
    assert lift(mlp_model, np.zeros(4)).size == 10


@pytest.mark.parametrize("kind", ["kan", "mlp"])
def test_lift_of_a_list_equals_the_array_lift(kind):
    # A flat list of floats takes the per-call fast path; a nested list, a
    # list of ints and an empty list keep the array path's lift or error.
    net = kan_init([2, 3, 1], GRID, 1) if kind == "kan" else mlp_init([2, 3, 1], 1)
    model = KoopmanModel(network=net, K=np.eye(3), B=np.zeros((3, 0)))
    for x in ([0.4, -1.3], [1e300, -0.0], [[0.4, -1.3], [0.1, 2.0]], [1, 2], [0.5, 2]):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = lift(model, x), lift(model, np.array(x, dtype=float))
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="^input width 0 != network input 2$"):
        lift(model, [])


def test_build_snapshots_counts():
    traj = Trajectory(dt=0.1, states=np.arange(10.0).reshape(5, 2),
                      controls=np.zeros((4, 1)))
    snaps = build_snapshots([traj], alpha=1)
    assert snaps.X.shape == (2, 4)
    assert snaps.X_next.shape == (2, 4)
    assert snaps.X_alpha.shape == (2, 4)
    assert snaps.U.shape == (1, 4)
    assert np.array_equal(snaps.states, traj.states.T)
    assert np.array_equal(snaps.states[:, snaps.x_cols], snaps.X)
    assert np.array_equal(snaps.states[:, snaps.x_cols + 1], snaps.X_next)


def test_build_snapshots_no_boundary_mixing():
    t0 = Trajectory(dt=0.1, states=np.full((4, 1), 1.0), controls=np.zeros((3, 1)))
    t1 = Trajectory(dt=0.1, states=np.full((4, 1), 2.0), controls=np.zeros((3, 1)))
    snaps = build_snapshots([t0, t1], alpha=2)
    # One-step pairs stay inside their own constant block.
    assert np.all(snaps.X[:, :3] == 1.0) and np.all(snaps.X_next[:, :3] == 1.0)
    assert np.all(snaps.X[:, 3:] == 2.0) and np.all(snaps.X_next[:, 3:] == 2.0)
    # Each multi-step pair indexes a column of the same block.
    assert snaps.n_pred_pairs == 4
    for j, col in enumerate(snaps.pred_cols):
        assert snaps.X[0, col] == snaps.X_alpha[0, j]
    # X and X_next are columns of the side-by-side state matrix.
    assert snaps.states.shape == (1, 8)
    assert list(snaps.x_cols) == [0, 1, 2, 4, 5, 6]
    assert np.array_equal(snaps.states[:, snaps.x_cols + 1], snaps.X_next)


@pytest.mark.parametrize("p", [1, 0])
def test_snapshot_layout_matches_per_trajectory_blocks(p):
    # Unequal lengths and distinct values in every cell, so a wrong shift,
    # boundary or column order shows. The oracle is the per-trajectory
    # construction: every block's states[:-1], states[1:] and states[alpha:].
    rng = np.random.default_rng(3)
    trajs = [Trajectory(dt=0.1, states=rng.normal(size=(m, 2)),
                        controls=rng.normal(size=(m - 1, p))) for m in (5, 9, 4)]
    alpha = 3
    snaps = build_snapshots(trajs, alpha)
    oracle = {name: np.hstack([cut(t).T for t in trajs]) for name, cut in (
        ("X", lambda t: t.states[:-1]), ("X_next", lambda t: t.states[1:]),
        ("X_alpha", lambda t: t.states[alpha:]), ("U", lambda t: t.controls))}
    for name, want in oracle.items():
        got = getattr(snaps, name)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
    assert (snaps.n_pairs, snaps.n_pred_pairs) == (15, 9)
    # X and X_next are the column-major copies fit_edmdc is fed in training.
    strides = snaps.states[:, snaps.x_cols].strides
    assert snaps.X.strides == strides and snaps.X_next.strides == strides
    # gather returns the same columns, row-major, for any subset.
    cols = np.array([14, 0, 5, 4])
    for ahead, want in ((0, snaps.X[:, cols]), (1, snaps.X_next[:, cols])):
        got = snaps.gather(cols, ahead)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    got = snaps.gather(snaps.pred_cols, alpha)
    assert got.flags.c_contiguous and got.tobytes() == oracle["X_alpha"].tobytes()


def test_build_snapshots_alpha_too_large():
    traj = Trajectory(dt=0.1, states=np.zeros((3, 1)), controls=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        build_snapshots([traj], alpha=3)


def test_fit_edmdc_recovers_linear_system():
    rng = np.random.default_rng(0)
    a_true = rotation(0.3, scale=0.95)
    b_true = np.array([[0.1], [0.4]])
    x = rng.standard_normal(2)
    xs, us = [x], []
    for _ in range(60):
        u = rng.uniform(-1, 1)
        x = a_true @ x + b_true[:, 0] * u
        xs.append(x)
        us.append([u])
    traj = Trajectory(dt=0.1, states=np.array(xs), controls=np.array(us))
    snaps = build_snapshots([traj], alpha=1)
    k, b = fit_edmdc(snaps.X, snaps.X_next, snaps.U)
    assert np.max(np.abs(k - a_true)) <= 1e-8
    assert np.max(np.abs(b - b_true)) <= 1e-8


def test_fit_edmdc_no_input_reduces_to_plain_fit():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 40))
    a_true = rng.standard_normal((3, 3)) * 0.4
    k, b = fit_edmdc(x, a_true @ x, np.zeros((0, 40)))
    assert b.shape == (3, 0)
    assert np.max(np.abs(k - a_true)) <= 1e-10


def test_fit_edmdc_no_input_bit_identical_to_one_matrix_fit():
    # Zero control rows stack to a row-major copy of the column-major lift
    # that SnapshotSet.pairs makes; the SVD sees the same matrix either way.
    rng = np.random.default_rng(6)
    trajs = [Trajectory(dt=0.1, states=rng.standard_normal((m, 4)), controls=np.zeros((m - 1, 0)))
             for m in (30, 41)]
    snaps = build_snapshots(trajs, alpha=2)
    phi_x, phi_xn = snaps.pairs(rng.standard_normal((7, snaps.states.shape[1])))
    assert phi_x.flags.f_contiguous and not phi_x.flags.c_contiguous
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    assert snaps.U.shape == (0, snaps.n_pairs) and b.shape == (7, 0)
    assert k.tobytes() == (phi_xn @ pinv(phi_x)).tobytes()


def test_fit_edmdc_fixed_point_preserved():
    z_star = np.array([[1.0], [2.0], [-0.5]])
    data = np.repeat(z_star, 7, axis=1)
    k, _ = fit_edmdc(data, data, np.zeros((0, 7)))
    assert np.max(np.abs(k @ z_star - z_star)) <= 1e-12


def test_fit_edmdc_rejects_empty():
    with pytest.raises(ValueError):
        fit_edmdc(np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((0, 0)))


def test_fit_edmdc_residual_is_minimal():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((3, 25))
    phi_n = rng.standard_normal((3, 25))
    u = rng.standard_normal((1, 25))
    k, b = fit_edmdc(phi, phi_n, u)
    kb = np.hstack([k, b])
    stacked = np.vstack([phi, u])
    base = np.linalg.norm(phi_n - kb @ stacked)
    for _ in range(30):
        delta = 0.01 * rng.standard_normal(kb.shape)
        assert np.linalg.norm(phi_n - (kb + delta) @ stacked) >= base - 1e-12


def test_losses_vanish_on_exact_linear_system():
    net, trajs = linear_lifting_model(rotation(0.25, 0.97))
    model, snaps = fitted_model(net, trajs, alpha=5)
    recon, pred, _ = loss(model, snaps, TrainConfig(alpha=5))
    assert recon <= 1e-16
    assert pred <= 1e-16


def test_recon_loss_single_pair_definition():
    # Identity network contribution zeroed; K=0 so prediction is 0 and the
    # error is exactly -x_next.
    net = mlp_init([2, 2], seed=0)
    net.weights[0][...] = 0.0
    traj = Trajectory(dt=0.1, states=np.array([[0.0, 0.0], [3.0, 4.0]]),
                      controls=np.zeros((1, 0)))
    snaps = build_snapshots([traj], alpha=1)
    model = KoopmanModel(network=net, K=np.zeros((4, 4)),
                         B=np.zeros((4, 0)))
    assert loss(model, snaps, TrainConfig())[0] == pytest.approx(25.0, abs=1e-12)


def test_pred_equals_recon_at_alpha_one_zero_input():
    # Under zero input and alpha=1 the two losses are the same number.
    trajs = generate_pendulum_dataset(2, seed=3)
    zeroed = [Trajectory(dt=t.dt, states=t.states, controls=np.zeros_like(t.controls))
              for t in trajs]
    net = kan_init([2, 2, 2], GRID, seed=1)
    snaps = build_snapshots(zeroed, alpha=1)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols(net, snaps.X)
    phi_xn = _lift_cols(net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(network=net, K=k, B=b)
    r, p, _ = loss(model, snaps, TrainConfig())
    assert abs(r - p) <= 1e-14 * max(1.0, abs(r))


def test_pred_loss_matches_stepwise_oracle():
    rng = np.random.default_rng(8)
    net = kan_init([2, 1], GRID, seed=5)
    trajs = generate_pendulum_dataset(2, seed=11)
    snaps = build_snapshots(trajs, alpha=7)
    k = np.eye(3) + 0.01 * rng.standard_normal((3, 3))
    b = 0.1 * rng.standard_normal((3, 1))
    model = KoopmanModel(network=net, K=k, B=b)

    from kooplift.koopman import _lift_cols

    phi = _lift_cols(net, snaps.X)
    total = 0.0
    for j, col in enumerate(snaps.pred_cols):
        z = phi[:, col].copy()
        for i in range(7):
            z = k @ z + b @ snaps.U[:, col + i]
        err = z[:model.n] - snaps.X_alpha[:, j]
        total += float(err @ err)
    oracle = total / snaps.n_pred_pairs
    assert loss(model, snaps, TrainConfig(alpha=7))[1] == pytest.approx(oracle, rel=1e-10)


def test_total_loss_weightings():
    net, trajs = linear_lifting_model(rotation(0.2, 0.9))
    model, snaps = fitted_model(net, trajs, alpha=3)
    # Perturb K so the losses are nonzero and the weighting is visible.
    model.K = model.K + 0.05
    r, p, _ = loss(model, snaps, TrainConfig(alpha=3))
    assert loss(model, snaps, TrainConfig(alpha=3, gamma=0.0, beta=1.0))[2] == \
        pytest.approx(r, rel=1e-12)
    assert loss(model, snaps, TrainConfig(alpha=3, gamma=1.0, beta=1.0))[2] == \
        pytest.approx(r + p, rel=1e-12)
    cfg = TrainConfig(alpha=3, gamma=0.7, beta=0.2, lambda_l2=0.01)
    params = net.get_params()
    assert loss(model, snaps, cfg)[2] == pytest.approx(
        0.7 * p + 0.2 * r + 0.01 * float(params @ params), rel=1e-12
    )


def _fd_param_grad(model, snaps, cfg, cols=None, pcols=None, h=1e-6):
    net = model.network
    params = net.get_params()
    fd = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        net.set_params(bumped)
        hi = loss(model, snaps, cfg, cols, pcols)[2]
        bumped[i] -= 2 * h
        net.set_params(bumped)
        lo = loss(model, snaps, cfg, cols, pcols)[2]
        fd[i] = (hi - lo) / (2 * h)
    net.set_params(params)
    return fd


@pytest.mark.parametrize("batch", ["full", "sampled"])
def test_training_gradient_matches_fd(batch):
    rng = np.random.default_rng(17)
    trajs = generate_pendulum_dataset(1, seed=2)
    # Shorten so the FD loop stays fast.
    short = [Trajectory(dt=0.01, states=t.states[:40], controls=t.controls[:39])
             for t in trajs]
    net = kan_init([2, 1, 1], GRID, seed=6)
    snaps = build_snapshots(short, alpha=4)
    k = np.eye(3) + 0.02 * rng.standard_normal((3, 3))
    b = 0.05 * rng.standard_normal((3, 1))
    model = KoopmanModel(network=net, K=k, B=b)
    cfg = TrainConfig(alpha=4, gamma=0.8, beta=1.0, lambda_l2=0.01)
    cols = pcols = None
    if batch == "sampled":
        cols = rng.choice(snaps.n_pairs, size=10, replace=False)
        pcols = rng.choice(snaps.n_pred_pairs, size=7, replace=False)
    grads = loss(model, snaps, cfg, cols, pcols, grad=True)[3]
    fd = _fd_param_grad(model, snaps, cfg, cols, pcols)
    assert np.max(np.abs(fd - grads) / (1.0 + np.abs(fd))) <= 1e-5


def _plan_case(case):
    """A model, its snapshots and a plan built for its (K, B)."""
    rng = np.random.default_rng(23)
    if case == "kan_deep_no_input":
        trajs = [Trajectory(dt=0.1, states=rng.uniform(-3.5, 3.5, size=(12, 4)),
                            controls=np.zeros((11, 0))) for _ in range(2)]
        net = kan_init([4, 1, 1, 1, 1], GRID, seed=4)
        n, p = 4, 0
    else:
        trajs = generate_pendulum_dataset(2, seed=5)
        net = kan_init([2, 1], GRID, seed=3) if case == "kan_control" else mlp_init([2, 5, 3], 6)
        n, p = 2, 1
    snaps = build_snapshots(trajs, alpha=3)
    n_total = n + net.shape[-1]
    model = KoopmanModel(network=net,
                         K=np.eye(n_total) + 0.05 * rng.standard_normal((n_total, n_total)),
                         B=0.1 * rng.standard_normal((n_total, p)))
    return model, snaps, _TrainPlan(net.input_cache(snaps.X.T), model, snaps)


@pytest.mark.parametrize("case", ["kan_control", "kan_deep_no_input", "mlp"])
def test_planned_loss_and_grad_equal_untaped(case):
    model, snaps, plan = _plan_case(case)
    cfg = TrainConfig(alpha=3, gamma=0.8, beta=1.5, lambda_l2=0.01)
    plain = loss(model, snaps, cfg, grad=True)
    planned = loss(model, snaps, cfg, plan=plan, grad=True)
    for a, b in zip(plain, planned):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["kan_control", "kan_deep_no_input", "mlp"])
def test_loss_on_every_column_equals_full_batch(case):
    model, snaps, _ = _plan_case(case)
    cfg = TrainConfig(alpha=3, gamma=0.8, beta=1.5, lambda_l1=0.01)
    full = loss(model, snaps, cfg, grad=True)
    every = loss(model, snaps, cfg, np.arange(snaps.n_pairs),
                 np.arange(snaps.n_pred_pairs), grad=True)
    assert every[:3] == full[:3]
    assert np.max(np.abs(every[3] - full[3])) <= 1e-12


def test_loss_decreases_under_gradient_steps():
    trajs = generate_pendulum_dataset(1, seed=4)
    net = kan_init([2, 1, 1], GRID, seed=7)
    snaps = build_snapshots(trajs, alpha=1)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols(net, snaps.X)
    phi_xn = _lift_cols(net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(network=net, K=k, B=b)
    cfg = TrainConfig(alpha=1, gamma=0.0, beta=1.0)
    first = None
    prev = None
    for _ in range(15):
        _, _, total, grads = loss(model, snaps, cfg, grad=True)
        if first is None:
            first = total
        prev = total
        net.set_params(net.get_params() - 1e-3 * grads)
    final = loss(model, snaps, cfg)[2]
    assert final < first


def test_train_history_shape_and_determinism():
    trajs = generate_pendulum_dataset(3, seed=21)
    cfg = TrainConfig(alpha=5, gamma=1.0, beta=1.0, epochs=2, optimizer="lbfgs",
                      learning_rate=1.0, seed=9, lbfgs_max_iter=5)
    model_a, hist_a = train(kan_init([2, 1, 1], GRID, cfg.seed), trajs, cfg)
    model_b, hist_b = train(kan_init([2, 1, 1], GRID, cfg.seed), trajs, cfg)
    assert len(hist_a) == 3
    assert [r.epoch for r in hist_a] == [0, 1, 2]
    for ra, rb in zip(hist_a, hist_b):
        assert ra.recon == rb.recon
        assert ra.pred == rb.pred
        assert ra.total == rb.total
    assert np.array_equal(model_a.K, model_b.K)
    assert np.array_equal(model_a.network.get_params(), model_b.network.get_params())


def test_train_returns_best_epoch_model():
    trajs = generate_pendulum_dataset(2, seed=33)
    cfg = TrainConfig(alpha=3, gamma=1.0, beta=1.0, epochs=3, optimizer="lbfgs",
                      seed=1, lbfgs_max_iter=4)
    model, hist = train(kan_init([2, 1, 1], GRID, cfg.seed), trajs, cfg)
    snaps = build_snapshots(trajs, cfg.alpha)
    returned_total = loss(model, snaps, cfg)[2]
    best_recorded = min(r.total for r in hist)
    assert returned_total == pytest.approx(best_recorded, rel=1e-12)


def test_train_loss_history_non_increasing_on_easy_problem():
    # Data that is exactly linear in the lifted coordinates: every refit and
    # line-searched step can only help.
    net, trajs = linear_lifting_model(rotation(0.15, 0.9), n_obs=1, seed=2)
    cfg = TrainConfig(alpha=2, gamma=1.0, beta=1.0, epochs=3, optimizer="lbfgs",
                      seed=0, lbfgs_max_iter=5)
    _, hist = train(net, trajs, cfg)
    totals = [r.total for r in hist]
    for earlier, later in zip(totals, totals[1:]):
        assert later <= earlier + 1e-9


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_train_adam_path_runs_and_descends(gamma):
    trajs = generate_pendulum_dataset(3, seed=5)
    cfg = TrainConfig(alpha=1, gamma=gamma, beta=1.0, epochs=8, optimizer="adam",
                      learning_rate=3e-3, batch_size=128, weight_decay=1e-5, seed=12)
    model, hist = train(mlp_init([2, 4, 4, 2], cfg.seed), trajs, cfg)
    assert len(hist) == 9
    assert hist[-1].total < hist[0].total
    # Same seed reruns bit-identically (minibatch draws included).
    _, hist2 = train(mlp_init([2, 4, 4, 2], cfg.seed), trajs, cfg)
    assert [r.total for r in hist2] == [r.total for r in hist]


def test_train_diverged_error_names_epoch():
    trajs = generate_pendulum_dataset(1, seed=0)
    net = kan_init([2, 1], GRID, seed=0)
    params = net.get_params()
    params[0] = np.nan
    net.set_params(params)
    cfg = TrainConfig(alpha=1, epochs=1, optimizer="lbfgs")
    with pytest.raises(DivergedError,
                       match=r"^training diverged at epoch 0: non-finite lifted data$"):
        train(net, trajs, cfg)


def test_train_diverged_error_names_non_finite_loss():
    # States near 1e200 lift to finite values, but their squared errors overflow.
    trajs = [replace(traj, states=1e200 * traj.states)
             for traj in generate_pendulum_dataset(1, seed=0)]
    with pytest.raises(DivergedError,
                       match=r"^training diverged at epoch 0: recon=inf pred=inf$"):
        train(kan_init([2, 1], GRID, seed=0), trajs, TrainConfig(alpha=1))


def test_lbfgs_overflowing_step_stops_without_warning():
    # An initial step of 1e300 overflows inside the line search, which fails
    # and returns its start point; numpy warns of nothing on the way.
    trajs = generate_pendulum_dataset(2, seed=5)
    cfg = TrainConfig(alpha=1, epochs=1, learning_rate=1e300, lbfgs_max_iter=3)
    _, hist = train(kan_init([2, 1], GRID, seed=0), trajs, cfg)
    assert hist[0].stop_reason == "line_search_failed"


def _train_every_epoch(network, trajs, cfg):
    """train's L-BFGS loop written out with no early stop: every epoch lifts,
    refits, logs the loss and runs a fresh Lbfgs. Returns the history, the
    best epoch's (K, B, parameters) and each phase's LbfgsResult."""
    snaps = build_snapshots(trajs, cfg.alpha)
    n = snaps.X.shape[0]
    history, results, best = [], [], None
    for epoch in range(cfg.epochs + 1):
        phi_s = _lift_cols(network, snaps.states)
        phi_x, phi_xn = snaps.pairs(phi_s)
        k_op, b_op = fit_edmdc(phi_x, phi_xn, snaps.U)
        model = KoopmanModel(network=network, K=k_op, B=b_op)
        recon, pred, total = loss(model, snaps, cfg, phi_x=phi_x)
        history.append(LossRecord(epoch, recon, pred, total))
        if best is None or total < best[0]:
            best = (total, k_op, b_op, network.get_params())
        if epoch == cfg.epochs:
            break

        def closure(theta):
            network.set_params(theta)
            return loss(model, snaps, cfg, grad=True)[2:]

        result = Lbfgs(lr=cfg.learning_rate, history=cfg.lbfgs_history).minimize(
            closure, network.get_params(), max_iter=cfg.lbfgs_max_iter)
        network.set_params(result.x)
        results.append(result)
    return history, best[1:], results


def _history_bits(history):
    return [(r.epoch, np.array([r.recon, r.pred, r.total]).tobytes()) for r in history]


def _log_phases(monkeypatch, name):
    """Wrap koopman.<name>, an optimizer phase; the returned list gains, per
    call, whether the phase left the parameter bytes unchanged."""
    unchanged, phase = [], getattr(koopman, name)

    def logged(model, *args):
        start = model.network.get_params().tobytes()
        out = phase(model, *args)
        unchanged.append(model.network.get_params().tobytes() == start)
        return out

    monkeypatch.setattr(koopman, name, logged)
    return unchanged


@pytest.mark.parametrize("case", ["twobody_fixed_point", "pendulum_moving"])
def test_lbfgs_fixed_point_stop_matches_every_epoch_loop(monkeypatch, case):
    if case == "twobody_fixed_point":
        # Exact circular orbits put the preset-shaped KAN's loss at the rounding
        # floor: every phase stops at iteration 0 with the parameters unchanged.
        trajs = generate_twobody_dataset(2, seed=202)
        grid = SplineGrid(lo=-3.0, hi=3.0, intervals=5, order=3)
        cfg = TrainConfig(alpha=15, epochs=4, learning_rate=1e-4, seed=0)
        make = lambda: kan_init([4, 1, 1, 1, 1], grid, cfg.seed)
    else:
        trajs = generate_pendulum_dataset(2, seed=33)
        cfg = TrainConfig(alpha=3, epochs=3, lbfgs_max_iter=4, seed=1)
        make = lambda: kan_init([2, 1, 1], GRID, cfg.seed)
    want, (k_want, b_want, params_want), results = _train_every_epoch(make(), trajs, cfg)
    fixed = case == "twobody_fixed_point"
    assert len(results) == cfg.epochs
    for result in results:
        assert ((result.n_iter, result.stop_reason) == (0, "grad_tol")) == fixed
    unchanged = _log_phases(monkeypatch, "_lbfgs_phase")
    model, hist = train(make(), trajs, cfg)
    # The fixed point ends training after its first phase; moving phases all run.
    assert unchanged == ([True] if fixed else [False] * cfg.epochs)
    assert _history_bits(hist) == _history_bits(want)
    # Each row records the phase that followed it; rows past the stop ran none.
    ran = [(r.n_evals, r.stop_reason) for r in results[: len(unchanged)]]
    assert [(r.evals, r.stop_reason) for r in hist] == ran + [(0, "")] * (len(hist) - len(ran))
    assert model.K.tobytes() == k_want.tobytes() and model.B.tobytes() == b_want.tobytes()
    assert model.network.get_params().tobytes() == params_want.tobytes()


def test_adam_phases_never_stop_early(monkeypatch):
    # beta = gamma = 0 zeroes every gradient, so each Adam phase leaves the
    # parameters unchanged; the phases still all run, as each draws from rng.
    trajs = generate_pendulum_dataset(2, seed=5)
    cfg = TrainConfig(alpha=1, gamma=0.0, beta=0.0, epochs=3, optimizer="adam",
                      learning_rate=1e-3, batch_size=64, seed=2)
    unchanged = _log_phases(monkeypatch, "_adam_phase")
    _, hist = train(mlp_init([2, 4, 2], cfg.seed), trajs, cfg)
    assert unchanged == [True] * cfg.epochs
    assert [r.epoch for r in hist] == [0, 1, 2, 3]
    steps = -(-build_snapshots(trajs, cfg.alpha).n_pairs // 64)
    assert [(r.evals, r.stop_reason) for r in hist] == [(steps, "")] * cfg.epochs + [(0, "")]


def test_rollout_zero_controls():
    net = kan_init([2, 1], GRID, seed=0)
    model = KoopmanModel(network=net, K=np.eye(3), B=np.zeros((3, 1)))
    traj = rollout(model, [0.5, -0.5], np.zeros((0, 1)), dt=0.1)
    assert traj.states.shape == (1, 2)
    assert np.array_equal(traj.states[0], [0.5, -0.5])


def test_rollout_exact_linear_correction_invariant():
    net, trajs = linear_lifting_model(rotation(0.3, 0.96))
    model, _ = fitted_model(net, trajs, alpha=1)
    x0 = np.array([0.7, -0.4])
    controls = np.zeros((100, 0))
    corrected = rollout(model, x0, controls, dt=0.1, correct=True)
    uncorrected = rollout(model, x0, controls, dt=0.1, correct=False)
    assert np.max(np.abs(corrected.states - uncorrected.states)) <= 1e-10


def test_rollout_exact_linear_recovery_error():
    net, trajs = linear_lifting_model(rotation(0.12, 0.99))
    model, _ = fitted_model(net, trajs, alpha=1)
    a = rotation(0.12, 0.99)
    x = np.array([1.0, 0.5])
    truth = [x]
    for _ in range(100):
        x = a @ x
        truth.append(x)
    pred = rollout(model, [1.0, 0.5], np.zeros((100, 0)), dt=0.1)
    assert np.max(np.abs(pred.states - np.array(truth))) <= 1e-6


def test_rollout_divergence_error_carries_step():
    net = kan_init([1, 1], GRID, seed=0)
    model = KoopmanModel(network=net, K=np.array([[1e200, 0], [0, 1e200]]),
                         B=np.zeros((2, 1)))
    with pytest.raises(DivergedError, match=r"^rollout produced non-finite state at step \d$"):
        rollout(model, [1.0], np.zeros((10, 1)), dt=0.1, correct=False)


def fitted_on(kind, shape, trajs):
    """An untrained network with (K, B) fitted by least squares on trajs."""
    net = kan_init(shape, GRID, seed=0) if kind == "kan" else mlp_init(shape, seed=0)
    snaps = build_snapshots(trajs, 1)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols(net, snaps.X)
    k, b = fit_edmdc(phi_x, _lift_cols(net, snaps.X_next), snaps.U)
    return KoopmanModel(network=net, K=k, B=b)


@pytest.mark.parametrize("correct", [True, False], ids=["corrected", "lifted"])
@pytest.mark.parametrize("kind, shape", [("kan", [2, 2]), ("mlp", [2, 5, 2])])
def test_batched_rollout_equals_per_ic_rollouts(kind, shape, correct):
    model = fitted_on(kind, shape, generate_pendulum_dataset(4, seed=3))
    truths = generate_pendulum_dataset(6, seed=77)
    x0 = np.stack([t.states[0] for t in truths])
    controls = np.stack([t.controls for t in truths], axis=1)
    batch = rollout(model, x0, controls, 0.01, correct=correct)
    assert batch.states.shape == (201, 6, 2)
    for i, truth in enumerate(truths):
        one = rollout(model, truth.states[0], truth.controls, truth.dt, correct=correct)
        scale = np.max(np.abs(one.states))
        assert np.max(np.abs(batch.states[:, i] - one.states)) <= 1e-12 * scale
    single = rollout(model, x0[:1], controls[:, :1], 0.01, correct=correct)
    one = rollout(model, x0[0], controls[:, 0], 0.01, correct=correct)
    assert np.array_equal(single.states[:, 0], one.states)


def test_batched_rollout_keeps_per_ic_dt():
    truths = generate_twobody_dataset(3, seed=12, points_per_orbit=40)
    scaled = [Trajectory(dt=t.dt, states=t.states / 1e4, controls=t.controls)
              for t in truths]
    model = fitted_on("kan", [4, 1], scaled)
    dts = np.array([t.dt for t in scaled])
    batch = rollout(model, np.stack([t.states[0] for t in scaled]),
                    np.zeros((39, 3, 0)), dts)
    assert batch.controls.shape == (39, 3, 0)
    for truth, pred in zip(scaled, batch.unstack()):
        one = rollout(model, truth.states[0], truth.controls, truth.dt)
        assert pred.dt == truth.dt
        assert np.max(np.abs(pred.states - one.states)) <= 1e-12 * np.max(np.abs(one.states))


def per_step_rollout(model, x0, controls, correct):
    """rollout's stepping loop with a control product and a finiteness check
    at every step, used as an oracle: the states it returns, or the
    DivergedError it raises."""
    x0 = np.asarray(x0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    states = np.empty((controls.shape[0] + 1,) + x0.shape)
    states[0] = x0
    k_t, b_t = model.K.T, model.B.T
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0
        for k in range(controls.shape[0]):
            if correct or not k:
                z = lift(model, x)
            z = koopman._row_products(z, k_t)
            if model.B.shape[1] > 0:
                z = z + koopman._row_products(controls[k], b_t)
            x = z[..., : model.n]
            if not np.isfinite(x if correct else z).all():
                raise DivergedError(f"rollout produced non-finite state at step {k}")
            states[k + 1] = x
    return states


def synthetic_model(kind, p, scale=0.45, seed=0):
    """An untrained [2, 2] network with random (K, B) and p inputs."""
    net = kan_init([2, 2], GRID, seed=seed) if kind == "kan" else mlp_init([2, 2], seed=seed)
    rng = np.random.default_rng(seed + 1)
    return KoopmanModel(network=net, K=scale * rng.standard_normal((4, 4)),
                        B=rng.standard_normal((4, p)))


ROLLOUT_STARTS = {"one": (2,), "row": (1, 2), "batch": (3, 2)}
LATE_DIVERGENCE = r"^rollout produced non-finite state at step [1-9]\d*$"  # after step 0


@pytest.mark.parametrize("correct", [True, False], ids=["corrected", "lifted"])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("start", sorted(ROLLOUT_STARTS))
@pytest.mark.parametrize("kind", ["kan", "mlp"])
def test_rollout_bit_identical_to_per_step_loop(kind, start, p, correct):
    model = synthetic_model(kind, p)
    rng = np.random.default_rng(p)
    x0 = rng.uniform(-2.0, 2.0, size=ROLLOUT_STARTS[start])
    controls = rng.uniform(-1.0, 1.0, size=(40,) + x0.shape[:-1] + (p,))
    got = rollout(model, x0, controls, 0.01, correct=correct)
    assert got.states.tobytes() == per_step_rollout(model, x0, controls, correct).tobytes()
    assert got.states.shape == (41,) + x0.shape


@pytest.mark.parametrize("correct", [True, False], ids=["corrected", "lifted"])
@pytest.mark.parametrize("start", sorted(ROLLOUT_STARTS))
@pytest.mark.parametrize("kind", ["kan", "mlp"])
def test_rollout_diverges_at_the_per_step_loops_step(kind, start, correct):
    # K's growth of about 1e60 a step overflows within a few steps. The MLP's
    # observables are linear, so the batch's rows, started at different
    # sizes, diverge at different steps; the first one counts.
    model = synthetic_model(kind, 1, scale=1e60)
    x0 = np.resize([1e-290, 0.0, 1e-150, 2e-150, 1.0, -0.5], ROLLOUT_STARTS[start])
    controls = np.zeros((30,) + x0.shape[:-1] + (1,))
    with pytest.raises(DivergedError, match=LATE_DIVERGENCE) as want:
        per_step_rollout(model, x0, controls, correct)
    with pytest.raises(DivergedError) as got:
        rollout(model, x0, controls, 0.01, correct=correct)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("start", ["one", "row"])
def test_one_row_kan_rollout_diverges_where_the_numpy_loop_does(start, monkeypatch):
    # A one-row KAN lift runs on Python floats until an input has no safe basis
    # row, and then runs the numpy loop, so the divergence step is the same.
    model = synthetic_model("kan", 1, scale=1e60)
    x0 = np.resize([1e-150, 2e-150], ROLLOUT_STARTS[start])
    controls = np.zeros((30,) + x0.shape[:-1] + (1,))
    steps = []
    for numpy_only in (False, True):
        if numpy_only:
            monkeypatch.setattr(kan.KanNetwork, "row_program",
                                property(lambda net: lambda xs: None))
        with pytest.raises(DivergedError, match=LATE_DIVERGENCE) as got:
            rollout(model, x0, controls, 0.01)
        steps.append(str(got.value))
    assert steps[0] == steps[1]


@pytest.mark.parametrize("case", ["adam-batch-1", "lbfgs-one-column"])
def test_training_never_runs_the_float_engine(case, monkeypatch):
    # Training lifts through taped calls and whole-state batches, so no loss
    # history holds the float engine's rounding, even one column at a time.
    def refuse(net, xs):
        raise AssertionError("training reached the float engine")

    monkeypatch.setattr(kan.KanNetwork, "row_program",
                        property(lambda net: lambda xs: refuse(net, xs)))
    if case == "adam-batch-1":
        trajs = generate_pendulum_dataset(2, seed=5)
        cfg = TrainConfig(alpha=3, gamma=1.0, beta=1.0, epochs=1, optimizer="adam",
                          learning_rate=1e-3, batch_size=1, seed=0)
    else:
        trajs = [Trajectory(dt=0.01, states=np.array([[0.3, -0.2], [0.29, -0.25]]),
                            controls=np.array([[0.1]]))]
        cfg = TrainConfig(alpha=1, epochs=2, optimizer="lbfgs", lbfgs_max_iter=3, seed=0)
    _, history = train(kan_init([2, 3, 2], SplineGrid(-6.5, 6.5, 10, 3), seed=0), trajs, cfg)
    assert len(history) == cfg.epochs + 1
    assert np.isfinite([row.total for row in history]).all()


@pytest.mark.parametrize("kind", ["kan", "mlp"])
def test_train_refuses_a_network_narrower_than_the_data(kind, monkeypatch):
    # The network's forward checks the width on the first lift, before any loss.
    def refuse(*args, **kwargs):
        raise AssertionError("train reached the loss")

    monkeypatch.setattr(koopman, "loss", refuse)
    trajs = generate_twobody_dataset(1, seed=0, points_per_orbit=20)
    if kind == "kan":
        net, cfg = kan_init([2, 1], GRID, seed=0), TrainConfig(alpha=2, epochs=1)
    else:
        net, cfg = mlp_init([2, 3, 1], seed=0), TrainConfig(alpha=2, epochs=1,
                                                             optimizer="adam", seed=0)
    with pytest.raises(ValueError, match=r"^input width 4 != network input 2$"):
        train(net, trajs, cfg)


def test_model_roundtrip(tmp_path):
    trajs = generate_pendulum_dataset(2, seed=8)
    cfg = TrainConfig(alpha=2, epochs=1, optimizer="lbfgs", seed=3, lbfgs_max_iter=3)
    model, _ = train(kan_init([2, 1, 1], GRID, cfg.seed), trajs, cfg)
    path = tmp_path / "model.json"
    save_model(model, path, cfg=cfg, metadata={"note": "roundtrip"})
    back, cfg2, meta = load_model(path)
    assert meta["note"] == "roundtrip"
    assert cfg2.alpha == 2 and back.network.shape == [2, 1, 1]
    assert np.array_equal(back.K, model.K)
    assert np.array_equal(back.B, model.B)
    assert np.array_equal(back.network.get_params(), model.network.get_params())
    x0 = [0.4, -0.2]
    u = np.zeros((20, 1))
    a = rollout(model, x0, u, dt=0.01)
    b = rollout(back, x0, u, dt=0.01)
    assert np.array_equal(a.states, b.states)


def test_input_free_model_keeps_n_total_empty_b_rows(tmp_path):
    # A p = 0 B is saved as n_total empty rows and read back as n_total x 0.
    model = KoopmanModel(network=kan_init([4, 1], GRID, seed=0), K=np.eye(5),
                         B=np.zeros((5, 0)))
    path = tmp_path / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text())["B"] == [[]] * 5
    assert load_model(path)[0].B.shape == (5, 0)


def test_row_products_equal_each_rows_own_product_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308,
                              -1e308]) | st.floats(-1e3, 1e3)
    dims = st.integers(1, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=0, max_size=2), dims, dims, st.data())
    def check(lead, n, k, data):
        a = data.draw(arrays(float, tuple(lead) + (n,), elements=values))
        m = data.draw(arrays(float, (n, k), elements=values))
        with np.errstate(over="ignore", invalid="ignore"):
            got = koopman._row_products(a, m)
            assert got.shape == a.shape[:-1] + (k,)
            for idx in np.ndindex(a.shape[:-1]):
                assert got[idx].tobytes() == (a[idx] @ m).tobytes()

    check()


FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / \
    "pendulum_kan_model.json"


def test_save_load_model_round_trip_property(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    finite = st.floats(allow_nan=False, allow_infinity=False)
    grids = st.builds(SplineGrid, lo=st.floats(-10.0, 0.0), hi=st.floats(0.5, 10.0),
                      intervals=st.integers(1, 8), order=st.integers(1, 4))
    configs = st.builds(
        TrainConfig, alpha=st.integers(1, 30), gamma=st.floats(0.0, 1e3),
        epochs=st.integers(0, 50), optimizer=st.sampled_from(["lbfgs", "adam"]),
        learning_rate=st.floats(1e-6, 10.0), batch_size=st.none() | st.integers(1, 4096),
        seed=st.integers(0, 2**32))
    path = tmp_path / "model.json"

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["kan", "mlp"]), st.lists(st.integers(1, 4), min_size=2,
                                                      max_size=4),
           grids, st.integers(0, 2), configs, st.data())
    def check(kind, shape, grid, p, cfg, data):
        net = kan_init(shape, grid, 0) if kind == "kan" else mlp_init(shape, 0)
        net.set_params(data.draw(arrays(float, net.n_params, elements=finite)))
        n, n_total = shape[0], shape[0] + shape[-1]
        model = KoopmanModel(network=net, K=data.draw(arrays(float, (n_total, n_total),
                                                             elements=finite)),
                             B=data.draw(arrays(float, (n_total, p), elements=finite)))
        save_model(model, path, cfg=cfg, metadata={"p": p})
        back, cfg2, meta = load_model(path)
        assert (back.network.kind, back.n, back.n_total, meta) == (kind, n, n_total, {"p": p})
        assert back.network.shape == shape
        if kind == "kan":
            assert back.network.grid == grid
        assert np.array_equal(back.network.get_params(), net.get_params())
        assert back.K.shape == model.K.shape and np.array_equal(back.K, model.K)
        assert back.B.shape == (n_total, p) and np.array_equal(back.B, model.B)
        assert cfg2 == cfg

    check()


def test_model_file_with_shape_and_grid_in_config_loads(tmp_path):
    # Model files written while TrainConfig held the network shape and grid,
    # or the corrected_pred_loss switch, still carry them in their config.
    doc = json.loads(FIXTURE.read_text())
    assert {"shape", "grid", "corrected_pred_loss"} <= doc["config"].keys()
    rest = {k: v for k, v in doc["config"].items()
            if k not in ("shape", "grid", "corrected_pred_loss")}
    old, path = tmp_path / "old.json", tmp_path / "model.json"
    for corrected in (False, True):
        doc["config"]["corrected_pred_loss"] = corrected
        old.write_text(json.dumps(doc))
        model, cfg, _ = load_model(old)
        assert cfg.to_dict() == rest
        assert model.network.shape == doc["config"]["shape"]
        save_model(model, path, cfg=cfg)
        assert json.loads(path.read_text())["config"] == rest


def test_network_calls_route_through_module_functions(monkeypatch):
    # benchmarks/tracing.py times the backends by wrapping these module
    # functions, so the network methods must look them up at call time.
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((kan, "kan_forward"), (kan, "kan_backward"),
                         (mlp, "mlp_forward"), (mlp, "mlp_backward")):
        count(module, name)
    trajs = generate_pendulum_dataset(2, seed=4)
    cfg = TrainConfig(alpha=2, epochs=1, lbfgs_max_iter=2)
    for kind, net in (("kan", kan_init([2, 1], GRID, 0)), ("mlp", mlp_init([2, 3, 1], 0))):
        forward, backward = f"{kind}_forward", f"{kind}_backward"
        calls.update(kan_forward=0, kan_backward=0, mlp_forward=0, mlp_backward=0)
        model = fitted_on(kind, net.shape, trajs)
        lift(model, np.zeros(2))
        assert calls == {**dict.fromkeys(calls, 0), forward: 3}  # two in fitted_on
        loss(model, build_snapshots(trajs, cfg.alpha), cfg, grad=True)
        assert (calls[forward], calls[backward]) == (4, 1)
        train(net, trajs, cfg)
        assert calls[forward] > 4 and calls[backward] > 1
        assert sum(calls.values()) == calls[forward] + calls[backward]


def test_model_file_with_p_key_loads_and_saves_without_it(tmp_path):
    # Model files written before the P key was dropped still carry it.
    doc = json.loads(FIXTURE.read_text())
    assert doc["P"] == np.eye(doc["n"], doc["n_total"]).tolist()
    model, cfg, _ = load_model(FIXTURE)
    assert (model.network.kind, model.n, model.n_total) == ("kan", 2, 3)
    assert np.array_equal(model.K, np.asarray(doc["K"]))
    path = tmp_path / "model.json"
    save_model(model, path, cfg=cfg)
    assert "P" not in json.loads(path.read_text())
    x = np.array([0.3, -0.4])
    assert np.array_equal(lift(load_model(path)[0], x), lift(model, x))


def test_legacy_fixture_loads_bit_for_bit(tmp_path):
    # The benchmark fixture predates the current format: it carries the
    # top-level kind, n, n_total and P keys and the old config keys. They are
    # ignored, whatever they say; the arrays are the file's numbers.
    with open(FIXTURE) as fh:
        doc = json.load(fh)
    assert {"kind", "n", "n_total", "P"} <= doc.keys()
    assert {"shape", "grid", "corrected_pred_loss"} <= doc["config"].keys()
    want = [np.asarray(layer[key], float) for layer in doc["network"]["layers"]
            for key in ("coeffs", "w_base", "w_spline")]
    want += [np.asarray(doc[key], float) for key in ("K", "B")]
    doc.update(kind="mlp", n=1, n_total="abc", P=None)
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(doc))
    for path in (FIXTURE, stale):
        model, _, _ = load_model(path)
        assert (model.n, model.n_total) == (2, 3)
        got = model.network.param_arrays() + [model.K, model.B]
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]


def test_history_roundtrip(tmp_path):
    hist = [LossRecord(0, 0.123456789012345678, 1.0 / 3.0, 0.5),
            LossRecord(1, 1e-17, 2.0, 3.0)]
    path = tmp_path / "hist.csv"
    save_history(hist, path)
    back = load_history(path)
    assert back == hist


# The full-row loss: every row of K @ phi, B @ u and each K^j (B U) forcing
# term is formed and summed, and the state rows are sliced off at the end. The
# loss kernel must reproduce it bit for bit.
def _full_row_forcing(model, snaps, powers, cols):
    if model.B.shape[1]:
        for i in range(snaps.alpha):
            yield powers[snaps.alpha - 1 - i] @ (model.B @ snaps.U[:, cols + i])


def _full_row_loss(model, snaps, cfg, cols=None, pcols=None, plan=None, grad=False,
                   phi_x=None):
    del plan  # the oracle always rebuilds powers and forcing terms
    net, n = model.network, model.n
    x, x_next, u = snaps.X, snaps.X_next, snaps.U
    if cols is not None:
        x, x_next, u = x[:, cols], x_next[:, cols], u[:, cols]
    tape = [] if grad else None  # phi_x comes only without grad
    if phi_x is None:
        phi_x = _lift_cols(net, x, tape)
    err = (model.K @ phi_x + model.B @ u)[:n] - x_next
    recon = float(np.sum(err * err)) / err.shape[1]
    if grad:
        d_phi = (2.0 * cfg.beta / err.shape[1]) * (model.K[:n].T @ err)
    pred, pred_grads = 0.0, None
    if cfg.gamma or not grad:
        src, x_alpha = snaps.pred_cols, snaps.X_alpha
        if pcols is not None:
            src, x_alpha = src[pcols], x_alpha[:, pcols]
        shared = cols is None and pcols is None
        powers = _powers(model.K, snaps.alpha)
        if shared:
            phi_p = phi_x[:, src]
        else:
            x_p = snaps.X[:, src]
            tape_p = [] if grad else None
            phi_p = _lift_cols(net, x_p, tape_p)
        z = powers[snaps.alpha] @ phi_p
        for term in _full_row_forcing(model, snaps, powers, src):
            z += term
        err_p = z[:n] - x_alpha
        pred = float(np.sum(err_p * err_p)) / err_p.shape[1]
        if grad:
            d_pred = (2.0 * cfg.gamma / err_p.shape[1]) * (powers[snaps.alpha][:n].T @ err_p)
            if shared:
                d_phi[:, src] += d_pred
            else:
                pred_grads = net.backward(d_pred[n:, :].T, tape_p)
    params = net.get_params()
    penalty = 0.0
    if cfg.lambda_l1:
        penalty += cfg.lambda_l1 * float(np.sum(np.abs(params)))
    if cfg.lambda_l2:
        penalty += cfg.lambda_l2 * float(params @ params)
    total = cfg.gamma * pred + cfg.beta * recon + penalty
    if not grad:
        return recon, pred, total
    grads = net.backward(d_phi[n:, :].T, tape)
    if pred_grads is not None:
        grads += pred_grads
    if cfg.lambda_l1:
        grads += cfg.lambda_l1 * np.sign(params)
    if cfg.lambda_l2:
        grads += 2.0 * cfg.lambda_l2 * params
    return recon, pred, total, grads


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _random_system(n, p, n_traj=3, steps=14, seed=0):
    """Trajectories of random states and controls: the loss does not care
    whether they obey any dynamics."""
    rng = np.random.default_rng(seed)
    return [Trajectory(dt=0.1, states=rng.uniform(-2.0, 2.0, size=(steps + 1, n)),
                       controls=rng.uniform(-1.0, 1.0, size=(steps, p)))
            for _ in range(n_traj)]


def _oracle_case(case):
    """(model, snaps, plan or None, cols, pcols) for one loss-oracle case."""
    rng = np.random.default_rng(41)
    plan = cols = pcols = None
    if case == "kan_plan":
        trajs, net = generate_pendulum_dataset(2, seed=5), kan_init([2, 2, 2], GRID, seed=2)
    elif case == "no_input":
        trajs, net = _random_system(4, 0, seed=1), mlp_init([4, 6, 6], seed=3)
    elif case == "two_controls":
        trajs, net = _random_system(2, 2, seed=2), mlp_init([2, 5, 3], seed=4)
    elif case == "one_state":
        trajs, net = _random_system(1, 1, seed=3), mlp_init([1, 5, 3], seed=5)
    elif case == "width_one":  # a one-column minibatch at 10 lifted coordinates
        trajs, net = _random_system(2, 1, seed=4), mlp_init([2, 6, 8], seed=7)
    else:  # Adam minibatches of 40 columns
        trajs, net = generate_pendulum_dataset(3, seed=6), mlp_init([2, 6, 6, 2], seed=6)
    snaps = build_snapshots(trajs, alpha=4)
    n = snaps.X.shape[0]
    n_total = n + net.shape[-1]
    p = snaps.U.shape[0]
    model = KoopmanModel(network=net,
                         K=np.eye(n_total) + 0.1 * rng.standard_normal((n_total, n_total)),
                         B=0.3 * rng.standard_normal((n_total, p)))
    if case == "kan_plan":
        plan = _TrainPlan(net.input_cache(snaps.X.T), model, snaps)
    if case in ("adam_minibatch", "width_one"):
        size = 1 if case == "width_one" else 40
        cols = rng.choice(snaps.n_pairs, size=size, replace=False)
        pcols = rng.choice(snaps.n_pred_pairs, size=size, replace=False)
    return model, snaps, plan, cols, pcols


@pytest.mark.parametrize("case", ["adam_minibatch", "width_one", "kan_plan", "no_input",
                                  "two_controls", "one_state"])
def test_state_row_loss_bit_identical_to_full_rows(case):
    model, snaps, plan, cols, pcols = _oracle_case(case)
    cfg = TrainConfig(alpha=4, gamma=0.7, beta=1.3, lambda_l2=0.01)
    want = _full_row_loss(model, snaps, cfg, cols, pcols, grad=True)
    _assert_same_bits(loss(model, snaps, cfg, cols, pcols, plan=plan, grad=True), want)
    want = _full_row_loss(model, snaps, cfg, cols, pcols)
    _assert_same_bits(loss(model, snaps, cfg, cols, pcols, plan=plan), want)
    if cols is None:
        # The logged loss of an epoch: the lift of every X column is given.
        phi_x = _lift_cols(model.network, snaps.X)
        want = _full_row_loss(model, snaps, cfg, phi_x=phi_x)
        _assert_same_bits(loss(model, snaps, cfg, plan=plan, phi_x=phi_x), want)


# The loss as it stood before its index-free gathers: fancy-index column
# gathers, the prediction gradient scatter-added into every row of
# d loss / d phi, and each lift stacked under its states with the first KAN
# layer computed from the data. loss must reproduce it bit for bit.
def _fancy_index_loss(model, snaps, cfg, cols=None, pcols=None, plan=None, grad=False):
    net, n = model.network, model.n
    x, x_next, u = snaps.X, snaps.X_next, snaps.U
    if cols is not None:
        x, x_next, u = x[:, cols], x_next[:, cols], u[:, cols]
    tape = [] if grad else None
    phi_x = np.vstack([x, net.forward(x.T, tape=tape).T])
    err = (model.K @ phi_x)[:n] + (model.B @ u)[:n] - x_next
    recon = float(np.sum(err * err)) / err.shape[1]
    if grad:
        d_phi = (2.0 * cfg.beta / err.shape[1]) * (model.K[:n].T @ err)
    pred, pred_grads = 0.0, None
    if cfg.gamma or not grad:
        src, x_alpha = snaps.pred_cols, snaps.X_alpha
        if pcols is not None:
            src, x_alpha = src[pcols], x_alpha[:, pcols]
        shared = cols is None and pcols is None
        if plan is None or pcols is not None:
            powers = _powers(model.K, snaps.alpha)
            forcing = _forcing_terms(model, snaps, powers, src)
        else:
            powers, forcing = plan.powers, plan.forcing
        if shared:
            phi_p = phi_x[:, src]
        else:
            x_p = snaps.X[:, src]
            tape_p = [] if grad else None
            phi_p = np.vstack([x_p, net.forward(x_p.T, tape=tape_p).T])
        x_hat = (powers[snaps.alpha] @ phi_p)[:n]
        for term in forcing:
            x_hat += term
        err_p = x_hat - x_alpha
        pred = float(np.sum(err_p * err_p)) / err_p.shape[1]
        if grad:
            d_pred = (2.0 * cfg.gamma / err_p.shape[1]) * (powers[snaps.alpha][:n].T @ err_p)
            if shared:
                d_phi[:, src] += d_pred
            else:
                pred_grads = net.backward(d_pred[n:, :].T, tape_p)
    params = net.get_params()
    penalty = 0.0
    if cfg.lambda_l1:
        penalty += cfg.lambda_l1 * float(np.sum(np.abs(params)))
    if cfg.lambda_l2:
        penalty += cfg.lambda_l2 * float(params @ params)
    total = cfg.gamma * pred + cfg.beta * recon + penalty
    if not grad:
        return recon, pred, total
    grads = net.backward(d_phi[n:, :].T, tape)
    if pred_grads is not None:
        grads += pred_grads
    if cfg.lambda_l1:
        grads += cfg.lambda_l1 * np.sign(params)
    if cfg.lambda_l2:
        grads += 2.0 * cfg.lambda_l2 * params
    return recon, pred, total, grads


def _gather_case(case):
    """(model, snaps, plan or None, cols, pcols, cfg) for one gather-oracle case."""
    if case in ("kan_control", "kan_deep_no_input"):
        model, snaps, plan = _plan_case(case)
        return model, snaps, plan, None, None, TrainConfig(alpha=3, gamma=0.8, beta=1.5,
                                                           lambda_l1=0.01, lambda_l2=0.02)
    rng = np.random.default_rng(17)
    if case == "unequal_lengths":
        trajs = [Trajectory(dt=0.1, states=rng.uniform(-3.5, 3.5, size=(m, 2)),
                            controls=rng.uniform(-1.0, 1.0, size=(m - 1, 1)))
                 for m in (40, 57, 33)]
        net, alpha = kan_init([2, 3, 2], GRID, seed=8), 5
    else:
        trajs, net, alpha = generate_pendulum_dataset(3, seed=6), mlp_init([2, 6, 6, 2], 6), 4
    snaps = build_snapshots(trajs, alpha)
    n, n_total = 2, 2 + net.shape[-1]
    model = KoopmanModel(network=net,
                         K=np.eye(n_total) + 0.1 * rng.standard_normal((n_total, n_total)),
                         B=0.3 * rng.standard_normal((n_total, 1)))
    gamma = 0.0 if case == "mlp_minibatch_gamma0" else 0.7
    cfg = TrainConfig(alpha=alpha, gamma=gamma, beta=1.3, lambda_l2=0.01)
    if case == "unequal_lengths":
        plan = _TrainPlan(net.input_cache(snaps.X.T), model, snaps)
        return model, snaps, plan, None, None, cfg
    cols = rng.choice(snaps.n_pairs, size=40, replace=False)
    pcols = rng.choice(snaps.n_pred_pairs, size=40, replace=False) if gamma else None
    return model, snaps, None, cols, pcols, cfg


@pytest.mark.parametrize("case", ["kan_control", "kan_deep_no_input", "mlp_minibatch",
                                  "mlp_minibatch_gamma0", "unequal_lengths"])
def test_loss_bit_identical_to_fancy_index_loss(case):
    model, snaps, plan, cols, pcols, cfg = _gather_case(case)
    for grad in (True, False):
        want = _fancy_index_loss(model, snaps, cfg, cols, pcols, plan=plan, grad=grad)
        got = loss(model, snaps, cfg, cols, pcols, plan=plan, grad=grad)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    if plan is not None:
        # A second evaluation reuses the plan's lift buffer.
        model.network.set_params(model.network.get_params() * 0.9)
        want = _fancy_index_loss(model, snaps, cfg, plan=plan, grad=True)
        got = loss(model, snaps, cfg, plan=plan, grad=True)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


def test_prediction_gather_add_keeps_signed_zeros(monkeypatch):
    # beta = 0 leaves d loss / d phi all +-0.0 before the prediction term is
    # added; columns without a prediction pair must keep each zero's sign.
    model, snaps, plan, _, _, cfg = _gather_case("unequal_lengths")
    cfg = replace(cfg, beta=0.0, lambda_l1=0.0, lambda_l2=0.0)
    upstreams, backward = [], kan.kan_backward

    def recorded(net, upstream, tape):
        upstreams.append(np.array(upstream))
        return backward(net, upstream, tape)

    monkeypatch.setattr(kan, "kan_backward", recorded)
    loss(model, snaps, cfg, plan=plan, grad=True)
    _fancy_index_loss(model, snaps, cfg, plan=plan, grad=True)
    got, want = upstreams
    no_pair = snaps.pair_index == snaps.n_pred_pairs
    assert no_pair.sum() == snaps.n_pairs - snaps.n_pred_pairs
    assert np.all(want[no_pair] == 0.0)
    assert np.signbit(want[no_pair]).any() and not np.signbit(want[no_pair]).all()
    assert got.tobytes() == want.tobytes()


def _where_selu(x, out=None):
    del out  # the caller uses the returned array
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))


def _where_selu_deriv(x):
    return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))


def test_adam_train_history_bit_identical_to_full_rows(monkeypatch):
    trajs = generate_pendulum_dataset(3, seed=8)
    cfg = TrainConfig(alpha=3, gamma=0.5, beta=1.0, epochs=2, optimizer="adam",
                      learning_rate=3e-3, batch_size=64, weight_decay=1e-5, seed=4)
    model, hist = train(mlp_init([2, 6, 6, 2], cfg.seed), trajs, cfg)
    monkeypatch.setattr(koopman, "loss", _full_row_loss)
    monkeypatch.setattr(mlp, "selu", _where_selu)
    monkeypatch.setattr(mlp, "selu_deriv", _where_selu_deriv)
    model_ref, hist_ref = train(mlp_init([2, 6, 6, 2], cfg.seed), trajs, cfg)
    assert hist == hist_ref
    assert np.array_equal(model.network.get_params(), model_ref.network.get_params())
    assert np.array_equal(model.K, model_ref.K) and np.array_equal(model.B, model_ref.B)


def _gathered_full_batch_loss(model, snaps, cfg, phi_x=None):
    """The full-batch loss without grad as loss computed it with gathered
    prediction columns: the lifts of the pairs' starts and, per forcing term,
    their controls, each multiplied out over all n_total rows."""
    n, alpha, src = model.n, snaps.alpha, snaps.pred_cols
    if phi_x is None:
        phi_x = _lift_cols(model.network, snaps.X)
    err = (model.K @ phi_x)[:n] + (model.B @ snaps.U)[:n] - snaps.X_next
    recon = float(np.sum(err * err)) / err.shape[1]
    powers = _powers(model.K, alpha)
    x_hat = (powers[alpha] @ np.take(phi_x, src, axis=1))[:n]
    if model.B.shape[1]:
        for i in range(alpha):
            x_hat += (powers[alpha - 1 - i] @ (model.B @ snaps.U[:, src + i]))[:n]
    err_p = x_hat - snaps.X_alpha
    pred = float(np.sum(err_p * err_p)) / err_p.shape[1]
    params = model.network.get_params()
    return recon, pred, cfg.gamma * pred + cfg.beta * recon + cfg.lambda_l2 * float(params @ params)


@pytest.mark.parametrize("pairs", ["unequal", "one_pair", "two_pairs"])
@pytest.mark.parametrize("kind", ["kan", "mlp"])
def test_full_batch_loss_bit_identical_to_gathered_prediction(kind, pairs):
    rng = np.random.default_rng(43)
    for p in (0, 1, 2):
        for n in (1, 2, 4):
            for alpha in (1, 3, 25):
                extra = {"unequal": (9, 23, 2), "one_pair": (1,), "two_pairs": (2,)}[pairs]
                trajs = [Trajectory(dt=0.1, states=rng.uniform(-2.0, 2.0, size=(alpha + m, n)),
                                    controls=rng.uniform(-1.0, 1.0, size=(alpha + m - 1, p)))
                         for m in extra]
                snaps = build_snapshots(trajs, alpha)
                net = (kan_init([n, 3], GRID, seed=n) if kind == "kan"
                       else mlp_init([n, 5, 3], seed=n))
                n_total = n + 3
                model = KoopmanModel(
                    network=net, K=np.eye(n_total) + 0.1 * rng.standard_normal((n_total,) * 2),
                    B=0.3 * rng.standard_normal((n_total, p)))
                cfg = TrainConfig(alpha=alpha, gamma=0.7, beta=1.3, lambda_l2=0.01)
                # Column-major, as train passes the lift of every X column.
                phi_x = snaps.pairs(_lift_cols(net, snaps.states))[0]
                for given in (None, phi_x):
                    got = loss(model, snaps, cfg, phi_x=given)
                    want = _gathered_full_batch_loss(model, snaps, cfg, phi_x=given)
                    assert np.array(got).tobytes() == np.array(want).tobytes(), (p, n, alpha)


def test_fit_edmdc_names_a_malformed_argument():
    x = np.zeros((3, 5))
    with pytest.raises(ValueError, match=r"^u must be a p x 5 matrix, got shape \(5,\)$"):
        fit_edmdc(x, x, np.zeros(5))
    with pytest.raises(ValueError, match=r"^lifted_xnext must have lifted_x's shape \(3, 5\), "
                                         r"got \(4, 5\)$"):
        fit_edmdc(x, np.zeros((4, 5)), np.zeros((1, 5)))
    with pytest.raises(ValueError, match=r"^lifted_x must be a non-empty matrix"):
        fit_edmdc(np.zeros(5), np.zeros(5), np.zeros((1, 5)))


@pytest.mark.parametrize("p, controls", [(1, (10, 2)), (1, (10, 3, 2)), (0, (10, 1)), (2, (10,))])
def test_rollout_names_controls_of_the_wrong_width(p, controls):
    model = KoopmanModel(network=kan_init([2, 1], GRID, seed=0), K=np.eye(3), B=np.ones((3, p)))
    x0 = np.zeros((3, 2)) if len(controls) == 3 else np.zeros(2)
    want = rf"^controls must have shape \(steps, {p}\) or \(steps, b, {p}\), got \({controls[0]},"
    with pytest.raises(ValueError, match=want):
        rollout(model, x0, np.zeros(controls), dt=0.1)
