"""Lifted linear modeling of controlled dynamics.

The pipeline: lift states with a learned network (KAN or MLP) concatenated
below the raw state, fit a linear operator pair (K, B) to the lifted
one-step data by least squares, train the network against reconstruction
and multi-step prediction losses in a block-coordinate loop (the operator
refit is detached from the gradient), and predict by linear rollout with
optional per-step correction through re-lifting.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import Trajectory
from .kan import (
    KanNetwork,
    SplineGrid,
    first_layer_basis,
    kan_backward,
    kan_forward,
    kan_from_dict,
    kan_init,
    kan_to_dict,
)
from .mlp import (
    MlpNetwork,
    mlp_backward,
    mlp_forward,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
)
from .numerics import pinv
from .optim import AdamW, Lbfgs


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, detail: str = ""):
        self.epoch = epoch
        msg = f"training diverged at epoch {epoch}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class RolloutDivergedError(RuntimeError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"rollout produced non-finite state at step {step}")


_FORWARD = {"kan": kan_forward, "mlp": mlp_forward}
_BACKWARD = {"kan": kan_backward, "mlp": mlp_backward}
_TO_DICT = {"kan": kan_to_dict, "mlp": mlp_to_dict}
_FROM_DICT = {"kan": kan_from_dict, "mlp": mlp_from_dict}


@dataclass
class SnapshotSet:
    """Stacked column data from one or more trajectories.

    X and X_next are n x N_d (states and their one-step successors), U is
    p x N_d, X_alpha is n x N_a holding states alpha steps ahead, and
    pred_cols maps each X_alpha column to the X column it continues, so
    multi-step pairs never straddle trajectory boundaries. states holds
    every trajectory's states side by side; X and X_next are its columns
    x_cols and xn_cols, so one lift of states covers both.
    """

    X: np.ndarray
    X_next: np.ndarray
    X_alpha: np.ndarray
    U: np.ndarray
    alpha: int
    pred_cols: np.ndarray
    states: np.ndarray
    x_cols: np.ndarray
    xn_cols: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.X.shape[1]

    @property
    def n_pred_pairs(self) -> int:
        return self.X_alpha.shape[1]


@dataclass
class KoopmanModel:
    """Learned lifting plus the linear operators fitted on top of it."""

    kind: str
    network: KanNetwork | MlpNetwork
    K: np.ndarray
    B: np.ndarray
    n: int
    n_total: int

    def __post_init__(self):
        if self.kind not in _FORWARD:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        self.P = projection(self.n, self.n_total)

    @property
    def n_params(self) -> int:
        return self.network.n_params


def projection(n: int, n_total: int) -> np.ndarray:
    """The exact state-extraction matrix [I_n, 0]."""
    p = np.zeros((n, n_total))
    p[:, :n] = np.eye(n)
    return p


@dataclass
class TrainConfig:
    alpha: int = 1
    gamma: float = 1.0
    beta: float = 1.0
    epochs: int = 1
    optimizer: str = "lbfgs"
    learning_rate: float = 1.0
    batch_size: int | None = None
    weight_decay: float = 0.0
    lambda_l1: float = 0.0
    lambda_l2: float = 0.0
    corrected_pred_loss: bool = False
    lbfgs_max_iter: int = 20
    lbfgs_history: int = 10
    seed: int = 0
    shape: list[int] | None = None
    grid: SplineGrid | None = None

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.gamma < 0 or self.beta < 0:
            raise ValueError("gamma and beta must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.optimizer not in ("lbfgs", "adam"):
            raise ValueError("optimizer must be 'lbfgs' or 'adam'")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        doc = dict(doc)
        if doc.get("grid") is not None and not isinstance(doc["grid"], SplineGrid):
            doc["grid"] = SplineGrid(**doc["grid"])
        return cls(**doc)


@dataclass
class LossRecord:
    epoch: int
    recon: float
    pred: float
    total: float


def lift(model: KoopmanModel, x) -> np.ndarray:
    """[x; network(x)] for one state (1-D) or a row batch (2-D)."""
    x = np.asarray(x, dtype=float)
    obs = _FORWARD[model.kind](model.network, x)
    return np.concatenate([x, obs], axis=x.ndim - 1)


def _lift_cols(kind: str, network, cols: np.ndarray, tape=None, basis=None) -> np.ndarray:
    """Lift an n x m column matrix to n_total x m.

    tape (a list to fill for the backward pass) and basis (the first KAN
    layer's basis table for cols.T) pass through to the network's forward.
    """
    extra = {} if basis is None else {"basis": basis}
    obs = _FORWARD[kind](network, cols.T, tape=tape, **extra)
    return np.vstack([cols, obs.T])


def build_snapshots(trajs: list[Trajectory], alpha: int) -> SnapshotSet:
    """Concatenate per-trajectory snapshot blocks; no cross-boundary pairs."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not trajs:
        raise ValueError("need at least one trajectory")
    sts, xas, us, cols, x_cols = [], [], [], [], []
    offset = 0
    for ti, traj in enumerate(trajs):
        m = traj.states.shape[0]
        if m < alpha + 1:
            raise ValueError(
                f"trajectory {ti} has {m} states; need at least alpha+1 = {alpha + 1}"
            )
        sts.append(traj.states.T)
        xas.append(traj.states[alpha:].T)
        us.append(traj.controls.T)
        cols.append(offset + np.arange(m - alpha))
        # Trajectory ti starts at column offset + ti of states.
        x_cols.append(offset + ti + np.arange(m - 1))
        offset += m - 1
    states = np.hstack(sts)
    x_cols = np.concatenate(x_cols)
    return SnapshotSet(
        X=states[:, x_cols],
        X_next=states[:, x_cols + 1],
        X_alpha=np.hstack(xas),
        U=np.hstack(us),
        alpha=alpha,
        pred_cols=np.concatenate(cols),
        states=states,
        x_cols=x_cols,
        xn_cols=x_cols + 1,
    )


def fit_edmdc(lifted_x: np.ndarray, lifted_xnext: np.ndarray, u: np.ndarray | None = None):
    """Least-squares operator fit: [K B] = lifted_xnext @ pinv([lifted_x; u]).

    With no control rows (u None or zero-row) this is a plain one-matrix
    fit and B comes back with zero columns.
    """
    lifted_x = np.asarray(lifted_x, dtype=float)
    lifted_xnext = np.asarray(lifted_xnext, dtype=float)
    if lifted_x.size == 0 or lifted_x.shape[1] == 0:
        raise ValueError("empty snapshot matrix")
    n_total = lifted_x.shape[0]
    if u is None:
        u = np.zeros((0, lifted_x.shape[1]))
    u = np.asarray(u, dtype=float)
    if u.shape[1] != lifted_x.shape[1] or lifted_xnext.shape[1] != lifted_x.shape[1]:
        raise ValueError("column counts must match")
    stacked = np.vstack([lifted_x, u]) if u.shape[0] else lifted_x
    kb = lifted_xnext @ pinv(stacked)
    return kb[:, :n_total], kb[:, n_total:]


def _powers(k: np.ndarray, alpha: int) -> list[np.ndarray]:
    out = [np.eye(k.shape[0]), k]
    for _ in range(alpha - 1):
        out.append(k @ out[-1])
    return out[: alpha + 1]


def _forcing_terms(model: KoopmanModel, snaps: SnapshotSet, powers, cols):
    """K^(alpha-1-i) B U[:, cols+i] for i < alpha, in summation order.

    These are the control-forcing terms of the alpha-step linear
    prediction from the X columns cols.
    """
    if model.B.shape[1]:
        for i in range(snaps.alpha):
            yield powers[snaps.alpha - 1 - i] @ (model.B @ snaps.U[:, cols + i])


@dataclass
class _TrainPlan:
    """Loss inputs that stay fixed while the network parameters change.

    basis is the first KAN layer's basis table for the snapshot states X
    (None for an MLP). refit() stores, for one frozen (K, B), the powers of
    K up to alpha and the forcing terms of the linear prediction loss.
    """

    basis: np.ndarray | None
    powers: list | None = None
    forcing: list | None = None

    def refit(self, model: KoopmanModel, snaps: SnapshotSet) -> None:
        self.powers = _powers(model.K, snaps.alpha)
        self.forcing = list(_forcing_terms(model, snaps, self.powers, snaps.pred_cols))


def _recon_terms(model: KoopmanModel, snaps: SnapshotSet, phi_x: np.ndarray):
    pred = (model.K @ phi_x + model.B @ snaps.U)[: model.n]
    err = pred - snaps.X_next
    return err, float(np.sum(err * err)) / snaps.n_pairs


def _pred_terms_linear(model: KoopmanModel, snaps: SnapshotSet, phi_x: np.ndarray,
                       plan: _TrainPlan | None = None):
    """Pure lifted-space alpha-step propagation; no per-step correction.

    A plan refit to model's (K, B) supplies the powers and forcing terms.
    """
    if plan is None:
        powers = _powers(model.K, snaps.alpha)
        forcing = _forcing_terms(model, snaps, powers, snaps.pred_cols)
    else:
        powers, forcing = plan.powers, plan.forcing
    z = powers[snaps.alpha] @ phi_x[:, snaps.pred_cols]
    for term in forcing:
        z += term
    err = z[: model.n] - snaps.X_alpha
    return err, float(np.sum(err * err)) / snaps.n_pred_pairs, powers


def _pred_corrected_terms(model: KoopmanModel, snaps: SnapshotSet):
    """Alpha-step propagation re-lifting the extracted state every step.

    Also returns the per-step input states so the gradient pass can replay
    the chain.
    """
    x = snaps.X[:, snaps.pred_cols]
    inter = []
    for i in range(snaps.alpha):
        inter.append(x)
        z = model.K @ _lift_cols(model.kind, model.network, x)
        if model.B.shape[1]:
            z += model.B @ snaps.U[:, snaps.pred_cols + i]
        x = z[: model.n]
    err = x - snaps.X_alpha
    return err, float(np.sum(err * err)) / snaps.n_pred_pairs, inter


def recon_loss(model: KoopmanModel, snaps: SnapshotSet) -> float:
    """Mean squared one-step state reconstruction error."""
    phi_x = _lift_cols(model.kind, model.network, snaps.X)
    return _recon_terms(model, snaps, phi_x)[1]


def pred_loss(model: KoopmanModel, snaps: SnapshotSet, corrected: bool = False) -> float:
    """Mean squared alpha-step state prediction error."""
    if corrected:
        return _pred_corrected_terms(model, snaps)[1]
    phi_x = _lift_cols(model.kind, model.network, snaps.X)
    return _pred_terms_linear(model, snaps, phi_x)[1]


def _penalty(params: np.ndarray, cfg: TrainConfig) -> float:
    out = 0.0
    if cfg.lambda_l1:
        out += cfg.lambda_l1 * float(np.sum(np.abs(params)))
    if cfg.lambda_l2:
        out += cfg.lambda_l2 * float(params @ params)
    return out


def loss_components(model: KoopmanModel, snaps: SnapshotSet, cfg: TrainConfig):
    """(recon, pred, total) with total = gamma*pred + beta*recon + penalties."""
    phi_x = _lift_cols(model.kind, model.network, snaps.X)
    _, recon = _recon_terms(model, snaps, phi_x)
    if cfg.corrected_pred_loss:
        _, pred, _ = _pred_corrected_terms(model, snaps)
    else:
        _, pred, _ = _pred_terms_linear(model, snaps, phi_x)
    total = cfg.gamma * pred + cfg.beta * recon + _penalty(
        model.network.get_params(), cfg
    )
    return recon, pred, total


def total_loss(model: KoopmanModel, snaps: SnapshotSet, cfg: TrainConfig) -> float:
    return loss_components(model, snaps, cfg)[2]


def _corrected_pred_grad(model, snaps, err_p, inter, cfg):
    """Backprop through the re-lift chain of the corrected prediction loss.

    Parameters enter through every per-step lift, so each step contributes
    its own network gradient; the chain starts from raw data states, which
    carry no parameter dependence.
    """
    kind, net = model.kind, model.network
    n = model.n
    dx = (2.0 * cfg.gamma / snaps.n_pred_pairs) * err_p
    grads = np.zeros(net.n_params)
    for i in range(snaps.alpha - 1, -1, -1):
        # x_{i+1} = P (K lift(x_i) + B u_i), so dz_i = (P K)^T dx_{i+1}.
        dz = model.K[:n].T @ dx
        g_i, dx_in = _BACKWARD[kind](net, inter[i].T, dz[n:, :].T)
        grads += g_i
        dx = dz[:n, :] + dx_in.T
    return grads


def _full_loss_and_grad(model: KoopmanModel, snaps: SnapshotSet, cfg: TrainConfig,
                        plan: _TrainPlan | None = None):
    """Total loss and its exact gradient w.r.t. network parameters.

    K and B are constants here: the operator refit happens once per epoch
    outside this function and its sensitivity is deliberately not
    propagated. With a plan refit to model's (K, B), the lift reuses the
    plan's first-layer basis and the backward pass reuses its tape.
    """
    kind, net = model.kind, model.network
    n = model.n
    if plan is None:
        tape, basis = None, None
    else:
        tape, basis = [], plan.basis
    phi_x = _lift_cols(kind, net, snaps.X, tape, basis)
    err_r, recon = _recon_terms(model, snaps, phi_x)
    d_phi = (2.0 * cfg.beta / snaps.n_pairs) * (model.K[:n].T @ err_r)

    extra_grads = None
    if cfg.corrected_pred_loss:
        err_p, pred, inter = _pred_corrected_terms(model, snaps)
        if cfg.gamma:
            extra_grads = _corrected_pred_grad(model, snaps, err_p, inter, cfg)
    else:
        err_p, pred, powers = _pred_terms_linear(model, snaps, phi_x, plan)
        if cfg.gamma:
            d_pred = (2.0 * cfg.gamma / snaps.n_pred_pairs) * (
                powers[snaps.alpha][:n].T @ err_p
            )
            d_phi[:, snaps.pred_cols] += d_pred

    grads, _ = _BACKWARD[kind](net, snaps.X.T, d_phi[n:, :].T, tape=tape)
    if extra_grads is not None:
        grads = grads + extra_grads
    params = net.get_params()
    if cfg.lambda_l1:
        grads += cfg.lambda_l1 * np.sign(params)
    if cfg.lambda_l2:
        grads += 2.0 * cfg.lambda_l2 * params
    total = cfg.gamma * pred + cfg.beta * recon + _penalty(params, cfg)
    return recon, pred, total, grads


def train(backend: str, trajs: list[Trajectory], cfg: TrainConfig, network=None):
    """Block-coordinate training loop.

    Per epoch: lift every snapshot column, refit (K, B) by least squares,
    record the loss, then run one optimizer phase on the network parameters
    with (K, B) frozen - a full LBFGS inner solve for 'lbfgs', one pass of
    minibatch steps for 'adam'. The loss history has epochs+1 rows (the
    last row evaluates the final refit with no further step). Returns the
    best-total-loss model and the history.
    """
    if backend not in _FORWARD:
        raise ValueError(f"unknown backend kind {backend!r}")
    snaps = build_snapshots(trajs, cfg.alpha)
    n = snaps.X.shape[0]
    if network is None:
        if cfg.shape is None:
            raise ValueError("cfg.shape is required when no network is given")
        if cfg.shape[0] != n:
            raise ValueError(f"cfg.shape[0]={cfg.shape[0]} but state dim is {n}")
        if backend == "kan":
            network = kan_init(cfg.shape, cfg.grid or SplineGrid(), cfg.seed)
        else:
            network = mlp_init(cfg.shape, cfg.seed)
    if network.shape[0] != n:
        raise ValueError("network input width does not match the data")
    n_total = n + network.shape[-1]
    rng = np.random.default_rng(cfg.seed)
    adam = (
        AdamW(network.n_params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        if cfg.optimizer == "adam"
        else None
    )

    best_total = np.inf
    best_params = network.get_params()
    best_kb = None
    history: list[LossRecord] = []
    # Only the L-BFGS closure sees every column on each evaluation; Adam
    # samples its own columns each step.
    plan = None
    if cfg.optimizer == "lbfgs":
        basis = first_layer_basis(network, snaps.X.T) if backend == "kan" else None
        plan = _TrainPlan(basis=basis)

    for epoch in range(cfg.epochs + 1):
        phi_s = _lift_cols(backend, network, snaps.states)
        if not np.all(np.isfinite(phi_s)):
            raise TrainingDivergedError(epoch, "non-finite lifted data")
        phi_x = phi_s[:, snaps.x_cols]
        k_op, b_op = fit_edmdc(phi_x, phi_s[:, snaps.xn_cols], snaps.U)
        model = KoopmanModel(kind=backend, network=network, K=k_op, B=b_op,
                             n=n, n_total=n_total)
        if plan is not None:
            plan.refit(model, snaps)
        _, recon = _recon_terms(model, snaps, phi_x)
        if cfg.corrected_pred_loss:
            _, pred, _ = _pred_corrected_terms(model, snaps)
        else:
            _, pred, _ = _pred_terms_linear(model, snaps, phi_x, plan)
        total = cfg.gamma * pred + cfg.beta * recon + _penalty(
            network.get_params(), cfg
        )
        if not np.isfinite(total):
            raise TrainingDivergedError(epoch, f"recon={recon!r} pred={pred!r}")
        history.append(LossRecord(epoch=epoch, recon=recon, pred=pred, total=total))
        if total < best_total:
            best_total = total
            best_params = network.get_params()
            best_kb = (k_op, b_op)
        if epoch == cfg.epochs:
            break
        if plan is not None:
            _lbfgs_phase(model, snaps, cfg, plan)
        else:
            _adam_phase(model, snaps, cfg, rng, adam)
        if not np.all(np.isfinite(network.get_params())):
            raise TrainingDivergedError(epoch, "non-finite network parameters")

    network.set_params(best_params)
    model = KoopmanModel(kind=backend, network=network, K=best_kb[0], B=best_kb[1],
                         n=n, n_total=n_total)
    return model, history


def _lbfgs_phase(model: KoopmanModel, snaps: SnapshotSet, cfg: TrainConfig,
                 plan: _TrainPlan):
    net = model.network

    def closure(theta):
        net.set_params(theta)
        _, _, total, grads = _full_loss_and_grad(model, snaps, cfg, plan)
        return total, grads

    result = Lbfgs(lr=cfg.learning_rate, history=cfg.lbfgs_history).minimize(
        closure, net.get_params(), max_iter=cfg.lbfgs_max_iter
    )
    net.set_params(result.x)


def _adam_phase(model, snaps: SnapshotSet, cfg: TrainConfig, rng, opt: AdamW):
    """One epoch of minibatch steps: ceil(N_d / batch) draws without replacement.

    The prediction term samples its own column subset of the same size so
    both loss terms see comparable batch noise.
    """
    net = model.network
    kind = model.kind
    n = model.n
    n_d = snaps.n_pairs
    batch = min(cfg.batch_size or n_d, n_d)
    powers = _powers(model.K, snaps.alpha)
    pk_t = model.K[:n].T
    pka_t = powers[snaps.alpha][:n].T
    for _ in range(-(-n_d // batch)):
        cols = rng.choice(n_d, size=batch, replace=False)
        x = snaps.X[:, cols]
        tape = []
        phi = _lift_cols(kind, net, x, tape)
        err = (model.K @ phi + model.B @ snaps.U[:, cols])[:n] - snaps.X_next[:, cols]
        d_phi = (2.0 * cfg.beta / batch) * (pk_t @ err)
        grads, _ = _BACKWARD[kind](net, x.T, d_phi[n:, :].T, tape=tape)
        if cfg.gamma:
            n_a = snaps.n_pred_pairs
            pcols = rng.choice(n_a, size=min(batch, n_a), replace=False)
            src = snaps.pred_cols[pcols]
            x_p = snaps.X[:, src]
            tape_p = []
            phi_p = _lift_cols(kind, net, x_p, tape_p)
            z = powers[snaps.alpha] @ phi_p
            for term in _forcing_terms(model, snaps, powers, src):
                z += term
            err_p = z[:n] - snaps.X_alpha[:, pcols]
            d_phi_p = (2.0 * cfg.gamma / pcols.size) * (pka_t @ err_p)
            g_p, _ = _BACKWARD[kind](net, x_p.T, d_phi_p[n:, :].T, tape=tape_p)
            grads += g_p
        params = net.get_params()
        if cfg.lambda_l1:
            grads += cfg.lambda_l1 * np.sign(params)
        if cfg.lambda_l2:
            grads += 2.0 * cfg.lambda_l2 * params
        net.set_params(opt.step(params, grads))


def rollout(model: KoopmanModel, x0, controls, dt: float, correct: bool = True) -> Trajectory:
    """Predict forward from x0 under the given control sequence.

    correct=True re-lifts the extracted state every step; correct=False
    stays in lifted space throughout and only extracts for output.
    """
    x0 = np.asarray(x0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    n_steps = controls.shape[0]
    states = np.empty((n_steps + 1, model.n))
    states[0] = x0
    has_input = model.B.shape[1] > 0
    with np.errstate(over="ignore", invalid="ignore"):
        if correct:
            x = x0
            for k in range(n_steps):
                z = model.K @ lift(model, x)
                if has_input:
                    z = z + model.B @ controls[k]
                x = z[: model.n]
                if not np.all(np.isfinite(x)):
                    raise RolloutDivergedError(k)
                states[k + 1] = x
        else:
            z = lift(model, x0)
            for k in range(n_steps):
                z = model.K @ z
                if has_input:
                    z = z + model.B @ controls[k]
                if not np.all(np.isfinite(z)):
                    raise RolloutDivergedError(k)
                states[k + 1] = z[: model.n]
    return Trajectory(dt=dt, states=states, controls=controls)


def save_model(model: KoopmanModel, path, cfg: TrainConfig | None = None,
               metadata: dict | None = None) -> None:
    doc = {
        "kind": model.kind,
        "network": _TO_DICT[model.kind](model.network),
        "K": model.K.tolist(),
        "B": model.B.tolist(),
        "P": model.P.tolist(),
        "n": model.n,
        "n_total": model.n_total,
        "config": cfg.to_dict() if cfg is not None else None,
        "metadata": metadata or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path):
    """Returns (model, config-or-None, metadata dict)."""
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc["kind"]
    if kind not in _FROM_DICT:
        raise ValueError(f"unknown backend kind {kind!r}")
    network = _FROM_DICT[kind](doc["network"])
    b = np.asarray(doc["B"], dtype=float)
    if b.size == 0:
        b = b.reshape(int(doc["n_total"]), 0)
    model = KoopmanModel(
        kind=kind,
        network=network,
        K=np.asarray(doc["K"], dtype=float),
        B=b,
        n=int(doc["n"]),
        n_total=int(doc["n_total"]),
    )
    cfg = TrainConfig.from_dict(doc["config"]) if doc.get("config") else None
    return model, cfg, doc.get("metadata", {})


def save_history(history: list[LossRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,recon,pred,total\n")
        for row in history:
            fh.write(f"{row.epoch},{row.recon:.17g},{row.pred:.17g},{row.total:.17g}\n")


def load_history(path) -> list[LossRecord]:
    out = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            epoch, recon, pred, total = line.strip().split(",")
            out.append(LossRecord(int(epoch), float(recon), float(pred), float(total)))
    return out
