"""Tests for lifting, operator fitting, losses, training, and rollout."""

import numpy as np
import pytest

from kooplift.dynamics import Trajectory, generate_pendulum_dataset
from kooplift.kan import SplineGrid, first_layer_basis, kan_init
from kooplift.koopman import (
    KoopmanModel,
    RolloutDivergedError,
    TrainConfig,
    TrainingDivergedError,
    _TrainPlan,
    _full_loss_and_grad,
    build_snapshots,
    fit_edmdc,
    lift,
    load_history,
    load_model,
    loss_components,
    pred_loss,
    recon_loss,
    rollout,
    save_history,
    save_model,
    total_loss,
    train,
)
from kooplift.mlp import MlpNetwork, mlp_init

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

    phi_x = _lift_cols("mlp", net, snaps.X)
    phi_xn = _lift_cols("mlp", net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(kind="mlp", network=net, K=k, B=b,
                         n=snaps.X.shape[0], n_total=phi_x.shape[0])
    return model, snaps


def test_lift_extraction_identity():
    net = kan_init([2, 1, 1], GRID, seed=0)
    model = KoopmanModel(kind="kan", network=net, K=np.eye(3), B=np.zeros((3, 0)),
                         n=2, n_total=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        z = lift(model, x)
        assert z.shape == (3,)
        assert np.array_equal(model.P @ z, x)


def test_lifted_sizes():
    kan_model = KoopmanModel(kind="kan", network=kan_init([2, 1, 1], GRID, 0),
                             K=np.eye(3), B=np.zeros((3, 1)), n=2, n_total=3)
    assert lift(kan_model, np.zeros(2)).size == 3
    mlp_model = KoopmanModel(kind="mlp", network=mlp_init([4, 25, 25, 25, 6], 0),
                             K=np.eye(10), B=np.zeros((10, 0)), n=4, n_total=10)
    assert lift(mlp_model, np.zeros(4)).size == 10


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
    assert np.array_equal(snaps.states[:, snaps.xn_cols], snaps.X_next)


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
    assert np.array_equal(snaps.states[:, snaps.xn_cols], snaps.X_next)


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
    k, b = fit_edmdc(x, a_true @ x, None)
    assert b.shape == (3, 0)
    assert np.max(np.abs(k - a_true)) <= 1e-10


def test_fit_edmdc_fixed_point_preserved():
    z_star = np.array([[1.0], [2.0], [-0.5]])
    data = np.repeat(z_star, 7, axis=1)
    k, _ = fit_edmdc(data, data, None)
    assert np.max(np.abs(k @ z_star - z_star)) <= 1e-12


def test_fit_edmdc_rejects_empty():
    with pytest.raises(ValueError):
        fit_edmdc(np.zeros((3, 0)), np.zeros((3, 0)), None)


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
    assert recon_loss(model, snaps) <= 1e-16
    assert pred_loss(model, snaps) <= 1e-16
    assert pred_loss(model, snaps, corrected=True) <= 1e-16


def test_recon_loss_single_pair_definition():
    # Identity network contribution zeroed; K=0 so prediction is 0 and the
    # error is exactly -x_next.
    net = mlp_init([2, 2], seed=0)
    net.weights[0][...] = 0.0
    traj = Trajectory(dt=0.1, states=np.array([[0.0, 0.0], [3.0, 4.0]]),
                      controls=np.zeros((1, 0)))
    snaps = build_snapshots([traj], alpha=1)
    model = KoopmanModel(kind="mlp", network=net, K=np.zeros((4, 4)),
                         B=np.zeros((4, 0)), n=2, n_total=4)
    assert recon_loss(model, snaps) == pytest.approx(25.0, abs=1e-12)


def test_pred_equals_recon_at_alpha_one_zero_input():
    # Under zero input and alpha=1 the two losses are the same number.
    trajs = generate_pendulum_dataset(2, seed=3)
    zeroed = [Trajectory(dt=t.dt, states=t.states, controls=np.zeros_like(t.controls))
              for t in trajs]
    net = kan_init([2, 2, 2], GRID, seed=1)
    snaps = build_snapshots(zeroed, alpha=1)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols("kan", net, snaps.X)
    phi_xn = _lift_cols("kan", net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(kind="kan", network=net, K=k, B=b, n=2, n_total=4)
    r = recon_loss(model, snaps)
    p = pred_loss(model, snaps)
    assert abs(r - p) <= 1e-14 * max(1.0, abs(r))


def test_pred_loss_matches_stepwise_oracle():
    rng = np.random.default_rng(8)
    net = kan_init([2, 1], GRID, seed=5)
    trajs = generate_pendulum_dataset(2, seed=11)
    snaps = build_snapshots(trajs, alpha=7)
    k = np.eye(3) + 0.01 * rng.standard_normal((3, 3))
    b = 0.1 * rng.standard_normal((3, 1))
    model = KoopmanModel(kind="kan", network=net, K=k, B=b, n=2, n_total=3)

    from kooplift.koopman import _lift_cols

    phi = _lift_cols("kan", net, snaps.X)
    total = 0.0
    for j, col in enumerate(snaps.pred_cols):
        z = phi[:, col].copy()
        for i in range(7):
            z = k @ z + b @ snaps.U[:, col + i]
        err = (model.P @ z) - snaps.X_alpha[:, j]
        total += float(err @ err)
    oracle = total / snaps.n_pred_pairs
    assert pred_loss(model, snaps) == pytest.approx(oracle, rel=1e-10)


def test_total_loss_weightings():
    net, trajs = linear_lifting_model(rotation(0.2, 0.9))
    model, snaps = fitted_model(net, trajs, alpha=3)
    # Perturb K so the losses are nonzero and the weighting is visible.
    model.K = model.K + 0.05
    r = recon_loss(model, snaps)
    p = pred_loss(model, snaps)
    assert total_loss(model, snaps, TrainConfig(alpha=3, gamma=0.0, beta=1.0)) == \
        pytest.approx(r, rel=1e-12)
    assert total_loss(model, snaps, TrainConfig(alpha=3, gamma=1.0, beta=1.0)) == \
        pytest.approx(r + p, rel=1e-12)
    cfg = TrainConfig(alpha=3, gamma=0.7, beta=0.2, lambda_l2=0.01)
    params = net.get_params()
    assert total_loss(model, snaps, cfg) == pytest.approx(
        0.7 * p + 0.2 * r + 0.01 * float(params @ params), rel=1e-12
    )


def _fd_param_grad(model, snaps, cfg, h=1e-6):
    net = model.network
    params = net.get_params()
    fd = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        net.set_params(bumped)
        hi = total_loss(model, snaps, cfg)
        bumped[i] -= 2 * h
        net.set_params(bumped)
        lo = total_loss(model, snaps, cfg)
        fd[i] = (hi - lo) / (2 * h)
    net.set_params(params)
    return fd


@pytest.mark.parametrize("corrected", [False, True])
def test_training_gradient_matches_fd(corrected):
    rng = np.random.default_rng(17)
    trajs = generate_pendulum_dataset(1, seed=2)
    # Shorten so the FD loop stays fast.
    short = [Trajectory(dt=0.01, states=t.states[:40], controls=t.controls[:39])
             for t in trajs]
    net = kan_init([2, 1, 1], GRID, seed=6)
    snaps = build_snapshots(short, alpha=4)
    k = np.eye(3) + 0.02 * rng.standard_normal((3, 3))
    b = 0.05 * rng.standard_normal((3, 1))
    model = KoopmanModel(kind="kan", network=net, K=k, B=b, n=2, n_total=3)
    cfg = TrainConfig(alpha=4, gamma=0.8, beta=1.0, lambda_l2=0.01,
                      corrected_pred_loss=corrected)
    _, _, _, grads = _full_loss_and_grad(model, snaps, cfg)
    fd = _fd_param_grad(model, snaps, cfg)
    assert np.max(np.abs(fd - grads) / (1.0 + np.abs(fd))) <= 1e-5


def _plan_case(case):
    """A model, its snapshots and a plan refit to its (K, B)."""
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
    model = KoopmanModel(kind="mlp" if case == "mlp" else "kan", network=net,
                         K=np.eye(n_total) + 0.05 * rng.standard_normal((n_total, n_total)),
                         B=0.1 * rng.standard_normal((n_total, p)), n=n, n_total=n_total)
    basis = first_layer_basis(net, snaps.X.T) if model.kind == "kan" else None
    plan = _TrainPlan(basis=basis)
    plan.refit(model, snaps)
    return model, snaps, plan


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("case", ["kan_control", "kan_deep_no_input", "mlp"])
def test_planned_loss_and_grad_equal_untaped(case, corrected):
    model, snaps, plan = _plan_case(case)
    cfg = TrainConfig(alpha=3, gamma=0.8, beta=1.5, lambda_l2=0.01,
                      corrected_pred_loss=corrected)
    plain = _full_loss_and_grad(model, snaps, cfg)
    planned = _full_loss_and_grad(model, snaps, cfg, plan)
    for a, b in zip(plain, planned):
        assert np.array_equal(a, b)


def test_loss_decreases_under_gradient_steps():
    trajs = generate_pendulum_dataset(1, seed=4)
    net = kan_init([2, 1, 1], GRID, seed=7)
    snaps = build_snapshots(trajs, alpha=1)
    from kooplift.koopman import _lift_cols

    phi_x = _lift_cols("kan", net, snaps.X)
    phi_xn = _lift_cols("kan", net, snaps.X_next)
    k, b = fit_edmdc(phi_x, phi_xn, snaps.U)
    model = KoopmanModel(kind="kan", network=net, K=k, B=b, n=2, n_total=3)
    cfg = TrainConfig(alpha=1, gamma=0.0, beta=1.0)
    first = None
    prev = None
    for _ in range(15):
        _, _, total, grads = _full_loss_and_grad(model, snaps, cfg)
        if first is None:
            first = total
        prev = total
        net.set_params(net.get_params() - 1e-3 * grads)
    _, _, final, _ = _full_loss_and_grad(model, snaps, cfg)
    assert final < first


def test_train_history_shape_and_determinism():
    trajs = generate_pendulum_dataset(3, seed=21)
    cfg = TrainConfig(alpha=5, gamma=1.0, beta=1.0, epochs=2, optimizer="lbfgs",
                      learning_rate=1.0, seed=9, shape=[2, 1, 1], grid=GRID,
                      lbfgs_max_iter=5)
    model_a, hist_a = train("kan", trajs, cfg)
    model_b, hist_b = train("kan", trajs, cfg)
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
                      seed=1, shape=[2, 1, 1], grid=GRID, lbfgs_max_iter=4)
    model, hist = train("kan", trajs, cfg)
    snaps = build_snapshots(trajs, cfg.alpha)
    returned_total = total_loss(model, snaps, cfg)
    best_recorded = min(r.total for r in hist)
    assert returned_total == pytest.approx(best_recorded, rel=1e-12)


def test_train_loss_history_non_increasing_on_easy_problem():
    # Data that is exactly linear in the lifted coordinates: every refit and
    # line-searched step can only help.
    net, trajs = linear_lifting_model(rotation(0.15, 0.9), n_obs=1, seed=2)
    cfg = TrainConfig(alpha=2, gamma=1.0, beta=1.0, epochs=3, optimizer="lbfgs",
                      seed=0, lbfgs_max_iter=5)
    _, hist = train("mlp", trajs, cfg, network=net)
    totals = [r.total for r in hist]
    for earlier, later in zip(totals, totals[1:]):
        assert later <= earlier + 1e-9


def test_train_adam_path_runs_and_descends():
    trajs = generate_pendulum_dataset(3, seed=5)
    cfg = TrainConfig(alpha=1, gamma=0.0, beta=1.0, epochs=8, optimizer="adam",
                      learning_rate=3e-3, batch_size=128, weight_decay=1e-5,
                      seed=12, shape=[2, 4, 4, 2])
    model, hist = train("mlp", trajs, cfg)
    assert len(hist) == 9
    assert hist[-1].total < hist[0].total
    # Same seed reruns bit-identically (minibatch draws included).
    _, hist2 = train("mlp", trajs, cfg)
    assert [r.total for r in hist2] == [r.total for r in hist]


def test_train_diverged_error_names_epoch():
    trajs = generate_pendulum_dataset(1, seed=0)
    net = kan_init([2, 1], GRID, seed=0)
    params = net.get_params()
    params[0] = np.nan
    net.set_params(params)
    cfg = TrainConfig(alpha=1, epochs=1, optimizer="lbfgs")
    with pytest.raises(TrainingDivergedError) as err:
        train("kan", trajs, cfg, network=net)
    assert err.value.epoch == 0


def test_rollout_zero_controls():
    net = kan_init([2, 1], GRID, seed=0)
    model = KoopmanModel(kind="kan", network=net, K=np.eye(3), B=np.zeros((3, 1)),
                         n=2, n_total=3)
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
    model = KoopmanModel(kind="kan", network=net, K=np.array([[1e200, 0], [0, 1e200]]),
                         B=np.zeros((2, 1)), n=1, n_total=2)
    with pytest.raises(RolloutDivergedError) as err:
        rollout(model, [1.0], np.zeros((10, 1)), dt=0.1, correct=False)
    assert 0 <= err.value.step < 10


def test_model_roundtrip(tmp_path):
    trajs = generate_pendulum_dataset(2, seed=8)
    cfg = TrainConfig(alpha=2, epochs=1, optimizer="lbfgs", seed=3,
                      shape=[2, 1, 1], grid=GRID, lbfgs_max_iter=3)
    model, _ = train("kan", trajs, cfg)
    path = tmp_path / "model.json"
    save_model(model, path, cfg=cfg, metadata={"note": "roundtrip"})
    back, cfg2, meta = load_model(path)
    assert meta["note"] == "roundtrip"
    assert cfg2.alpha == 2 and cfg2.shape == [2, 1, 1]
    assert np.array_equal(back.K, model.K)
    assert np.array_equal(back.B, model.B)
    assert np.array_equal(back.network.get_params(), model.network.get_params())
    x0 = [0.4, -0.2]
    u = np.zeros((20, 1))
    a = rollout(model, x0, u, dt=0.01)
    b = rollout(back, x0, u, dt=0.01)
    assert np.array_equal(a.states, b.states)


def test_history_roundtrip(tmp_path):
    from kooplift.koopman import LossRecord

    hist = [LossRecord(0, 0.123456789012345678, 1.0 / 3.0, 0.5),
            LossRecord(1, 1e-17, 2.0, 3.0)]
    path = tmp_path / "hist.csv"
    save_history(hist, path)
    back = load_history(path)
    assert back == hist
