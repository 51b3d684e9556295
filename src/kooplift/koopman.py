"""Lifted linear modeling of controlled dynamics.

The pipeline: lift states with a learned network (KAN or MLP) concatenated
below the raw state, fit a linear operator pair (K, B) to the lifted
one-step data by least squares, train the network against reconstruction
and multi-step prediction losses in a block-coordinate loop (the operator
refit is detached from the gradient), and predict by linear rollout with
optional per-step correction through re-lifting.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dynamics import Trajectory, read_json, write_csv, write_json
from .kan import KanNetwork
from .mlp import MlpNetwork
from .numerics import DivergedError, checked, is_number, number_array, pinv, shown
from .optim import AdamW, Lbfgs


@dataclass
class SnapshotSet:
    """Stacked column data from one or more trajectories.

    states (n x N_s) holds every trajectory's states side by side, one
    column per time step. The N_d snapshots are its columns x_cols, each
    with a successor in the next column, and U (p x N_d) holds their
    controls. pred_cols maps each of the N_a alpha-step pairs to the
    snapshot it starts from, so no pair straddles a trajectory boundary.
    X, X_next (n x N_d) and X_alpha (n x N_a, the states alpha steps ahead)
    are derived from these here, and nowhere else.
    """

    states: np.ndarray
    U: np.ndarray
    x_cols: np.ndarray
    pred_cols: np.ndarray
    alpha: int

    def __post_init__(self):
        self.X, self.X_next = self.pairs(self.states)
        self.X_alpha = self.states[:, self.x_cols[self.pred_cols] + self.alpha]

    def pairs(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The snapshot and successor columns of a, which is column-aligned
        with states (states itself, or its lift). Fancy indexing on purpose:
        fit_edmdc's product rounds by operand layout, and these are
        column-major copies where np.take makes row-major ones (which also
        raised the scaled MLP run's peak RSS)."""
        return a[:, self.x_cols], a[:, self.x_cols + 1]

    def gather(self, cols, ahead: int = 0) -> np.ndarray:
        """The states ahead steps after snapshots cols, as a row-major n x
        len(cols) copy. Gathered as rows of the row-major states.T: on a
        column-major X, np.take(X, cols, axis=1) first copies all of X."""
        return np.ascontiguousarray(np.take(self.states.T, self.x_cols[cols] + ahead, axis=0).T)

    @property
    def n_pairs(self) -> int:
        return len(self.x_cols)

    @property
    def n_pred_pairs(self) -> int:
        return len(self.pred_cols)

    @functools.cached_property
    def pair_index(self) -> np.ndarray:
        """Per X column, its prediction pair (its index in pred_cols), or
        n_pred_pairs, one past the last pair, for a column without one."""
        index = np.full(self.n_pairs, self.n_pred_pairs)
        index[self.pred_cols] = np.arange(self.n_pred_pairs)
        return index


@dataclass
class KoopmanModel:
    """Learned lifting plus the linear operators fitted on top of it: z = [x;
    network(x)] advances as z+ = K z + B u. They fix the state count n and the
    lifted size n_total."""

    network: KanNetwork | MlpNetwork
    K: np.ndarray
    B: np.ndarray

    @property
    def n(self) -> int:
        return self.network.shape[0]

    @property
    def n_total(self) -> int:
        return self.K.shape[0]


@dataclass
class TrainConfig:
    """Training settings; each field is checked here, for library callers,
    run configs and model files alike."""

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
    lbfgs_max_iter: int = 20
    lbfgs_history: int = 10
    seed: int = 0

    def __post_init__(self):
        """Raises ValueError('<field> must be a ..., got <value>')."""
        for kind, names in (("non-negative integer", ("seed", "epochs")),
                            ("positive integer", ("alpha", "lbfgs_max_iter", "lbfgs_history")),
                            ("positive finite number", ("learning_rate",)),
                            ("non-negative finite number", ("gamma", "beta", "weight_decay",
                                                            "lambda_l1", "lambda_l2"))):
            for name in names:
                checked(name, getattr(self, name), kind)
        batch = self.batch_size
        if batch is not None and not is_number(batch, "positive integer"):
            raise ValueError(f"batch_size must be a positive integer or null, got {shown(batch)}")
        if self.optimizer not in ("lbfgs", "adam"):
            raise ValueError("optimizer must be a known optimizer, 'lbfgs' or 'adam', "
                             f"got {shown(self.optimizer)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Skips shape, grid and corrected_pred_loss, which older model.json
        files still hold."""
        return cls(**{k: v for k, v in doc.items()
                      if k not in ("shape", "grid", "corrected_pred_loss")})


@dataclass
class LossRecord:
    """The losses after one epoch's refit, and what the optimizer phase that
    followed did: its loss evaluations (L-BFGS closure calls or Adam steps)
    and L-BFGS stop reason. The last epoch runs no phase."""

    epoch: int
    recon: float
    pred: float
    total: float
    evals: int = 0
    stop_reason: str = ""


def lift(model: KoopmanModel, x) -> np.ndarray:
    """[x; network(x)] for one state (1-D, or a list of floats, taken without
    numpy's per-call overhead where the network allows) or a row batch (2-D)."""
    if type(x) is list and x and type(x[0]) is float:
        return np.array(x + model.network.forward(x).tolist())
    x = np.asarray(x, dtype=float)
    obs = model.network.forward(x)
    return np.concatenate([x, obs], axis=x.ndim - 1)


def _lift_cols(network, cols: np.ndarray, tape=None, plan=None) -> np.ndarray:
    """Lift an n x m column matrix to n_total x m.

    tape (a list to fill for the backward pass) passes through to the
    network's forward. A plan, built for cols = X, supplies the network's
    input_cache of X, and the lift is written into its buffer.
    """
    if plan is None:
        return np.vstack([cols, network.forward(cols.T, tape=tape).T])
    plan.lifted[cols.shape[0]:] = network.forward(cols.T, tape=tape, cache=plan.cache).T
    return plan.lifted


def build_snapshots(trajs: list[Trajectory], alpha: int) -> SnapshotSet:
    """Concatenate per-trajectory snapshot blocks; no cross-boundary pairs."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not trajs:
        raise ValueError("need at least one trajectory")
    sts, us, cols, x_cols = [], [], [], []
    offset = 0
    for ti, traj in enumerate(trajs):
        m = traj.states.shape[0]
        if m < alpha + 1:
            raise ValueError(
                f"trajectory {ti} has {m} states; need at least alpha+1 = {alpha + 1}"
            )
        sts.append(traj.states.T)
        us.append(traj.controls.T)
        cols.append(offset + np.arange(m - alpha))
        # Trajectory ti starts at column offset + ti of states.
        x_cols.append(offset + ti + np.arange(m - 1))
        offset += m - 1
    return SnapshotSet(states=np.hstack(sts), U=np.hstack(us), x_cols=np.concatenate(x_cols),
                       pred_cols=np.concatenate(cols), alpha=alpha)


def fit_edmdc(lifted_x: np.ndarray, lifted_xnext: np.ndarray, u: np.ndarray):
    """Least-squares operator fit: [K B] = lifted_xnext @ pinv([lifted_x; u]).

    With no control rows (u zero-row) this is a plain one-matrix fit and B
    comes back with zero columns. Raises ValueError naming the argument
    whose shape does not fit.
    """
    lifted_x, lifted_xnext, u = (np.asarray(a, dtype=float) for a in (lifted_x, lifted_xnext, u))
    if lifted_x.ndim != 2 or lifted_x.size == 0:
        raise ValueError(f"lifted_x must be a non-empty matrix, got shape {lifted_x.shape}")
    n_total, m = lifted_x.shape
    if lifted_xnext.shape != lifted_x.shape:
        raise ValueError(f"lifted_xnext must have lifted_x's shape {lifted_x.shape}, "
                         f"got {lifted_xnext.shape}")
    if u.ndim != 2 or u.shape[1] != m:
        raise ValueError(f"u must be a p x {m} matrix, got shape {u.shape}")
    kb = lifted_xnext @ pinv(np.vstack([lifted_x, u]))
    return kb[:, :n_total], kb[:, n_total:]


def _powers(k: np.ndarray, alpha: int) -> list[np.ndarray]:
    out = [np.eye(k.shape[0]), k]
    for _ in range(alpha - 1):
        out.append(k @ out[-1])
    return out[: alpha + 1]


def _forcing_terms(model: KoopmanModel, snaps: SnapshotSet, powers, cols):
    """State rows of K^(alpha-1-i) B U[:, cols+i] for i < alpha, in summation order.

    These are the control-forcing terms of the alpha-step linear
    prediction from the X columns cols.
    """
    if model.B.shape[1]:
        for i in range(snaps.alpha):
            yield (powers[snaps.alpha - 1 - i] @ (model.B @ snaps.U[:, cols + i]))[:model.n]


class _TrainPlan:
    """Loss inputs that stay fixed while the network parameters change, for
    one frozen (K, B) and the full batch.

    cache is the network's input_cache(X.T) of the snapshot states X, for
    its forward's cache=; powers holds the powers of K up to alpha, forcing
    the forcing terms of the linear prediction loss, and lifted the
    n_total x N_d lift buffer whose state rows hold X.
    """

    def __init__(self, cache, model: KoopmanModel, snaps: SnapshotSet):
        self.cache = cache
        self.powers = _powers(model.K, snaps.alpha)
        self.forcing = list(_forcing_terms(model, snaps, self.powers, snaps.pred_cols))
        self.lifted = np.vstack([snaps.X, np.empty((model.n_total - model.n, snaps.n_pairs))])


def loss(model: KoopmanModel, snaps: SnapshotSet, cfg: TrainConfig, cols=None, pcols=None,
         plan: _TrainPlan | None = None, grad: bool = False, phi_x=None):
    """(recon, pred, total) with total = gamma*pred + beta*recon + penalties.

    recon and pred are the mean squared one-step and alpha-step state
    errors, pred advancing the lifted state linearly. grad appends the
    exact gradient w.r.t. the network parameters with (K, B) frozen, and
    skips pred (reading 0) when gamma is 0. cols and pcols are the X
    columns and prediction pairs to average over, None meaning all. Only
    the full-batch prediction shares the recon lift of X.
    phi_x, the lift of all X columns, replaces that lift in calls without
    grad; a plan built for model's (K, B) serves the full batch.
    """
    net, n = model.network, model.n
    x, x_next, u = snaps.X, snaps.X_next, snaps.U
    if cols is not None:
        x, x_next, u = snaps.gather(cols), snaps.gather(cols, 1), np.take(u, cols, axis=1)
    tape = [] if grad else None
    if phi_x is None:
        phi_x = _lift_cols(net, x, tape, plan)
    err = (model.K @ phi_x)[:n] + (model.B @ u)[:n] - x_next
    recon = float(np.sum(err * err)) / err.shape[1]
    if grad:
        # Only the network rows n: of d loss / d phi feed the backward pass.
        d_obs = (2.0 * cfg.beta / err.shape[1]) * (model.K[:n].T @ err)[n:]
    pred, pred_grads = 0.0, None
    if cfg.gamma or not grad:
        src, x_alpha = snaps.pred_cols, snaps.X_alpha
        if pcols is not None:
            src = src[pcols]
            x_alpha = snaps.gather(src, snaps.alpha)
        shared, a = cols is None and pcols is None, snaps.alpha
        powers = _powers(model.K, a) if plan is None else plan.powers
        if shared and plan is None and snaps.n_pred_pairs > 1:
            # Every X column's prediction, gathered once: a pair's column k
            # gets its own products and sums in the same order, as columns
            # k + i never leave its trajectory. Each product keeps two rows
            # and two columns, since a one-row or one-column product takes
            # numpy's matrix-vector kernel, which rounds differently.
            r = max(n, 2)
            z = (powers[a][:r] @ phi_x)[:n]
            if model.B.shape[1]:
                w = model.B @ u
                for i in range(a):
                    z[:, :z.shape[1] - i] += (powers[a - 1 - i][:r] @ w[:, i:])[:n]
            x_hat = np.take(z, src, axis=1)
        else:
            if shared:
                phi_p = np.take(phi_x, src, axis=1)
            else:
                tape_p = [] if grad else None
                phi_p = _lift_cols(net, snaps.gather(src), tape_p)
            x_hat = (powers[a] @ phi_p)[:n]
            forcing = _forcing_terms(model, snaps, powers, src) if plan is None else plan.forcing
            for term in forcing:
                x_hat += term
        err_p = x_hat - x_alpha
        pred = float(np.sum(err_p * err_p)) / err_p.shape[1]
        if grad:
            d_pred = (2.0 * cfg.gamma / err_p.shape[1]) * (powers[a][:n].T @ err_p)[n:]
            if shared:
                # Gather-add of each X column's pair; a column without one adds
                # the -0.0 pad, and x + -0.0 == x bit for bit for every float.
                pad = np.concatenate([d_pred, np.full((len(d_pred), 1), -0.0)], axis=1)
                d_obs += np.take(pad, snaps.pair_index, axis=1)
            else:
                pred_grads = net.backward(d_pred.T, tape_p)
    params = net.get_params()
    penalty = 0.0
    if cfg.lambda_l1:
        penalty += cfg.lambda_l1 * float(np.sum(np.abs(params)))
    if cfg.lambda_l2:
        penalty += cfg.lambda_l2 * float(params @ params)
    total = cfg.gamma * pred + cfg.beta * recon + penalty
    if not grad:
        return recon, pred, total
    grads = net.backward(d_obs.T, tape)
    if pred_grads is not None:
        grads += pred_grads
    if cfg.lambda_l1:
        grads += cfg.lambda_l1 * np.sign(params)
    if cfg.lambda_l2:
        grads += 2.0 * cfg.lambda_l2 * params
    return recon, pred, total, grads


def train(network, trajs: list[Trajectory], cfg: TrainConfig):
    """Block-coordinate training loop for a built network, trained in place.

    Per epoch: lift every snapshot column, refit (K, B) by least squares,
    record the loss, then run one optimizer phase on the network parameters
    with (K, B) frozen - a full LBFGS inner solve for 'lbfgs', one pass of
    minibatch steps for 'adam'. The loss history has epochs+1 rows (the
    last row evaluates the final refit with no further step). An L-BFGS
    phase that leaves the parameter bits unchanged ends the loop, and its
    row is copied to the remaining epochs. Returns the best-total-loss
    model and the history. A network whose input width is not the data's
    raises the ValueError of its forward's width check at the first lift.
    """
    snaps = build_snapshots(trajs, cfg.alpha)
    # Each phase is phase(model, snaps, cfg, *state) -> (evals, stop_reason),
    # with state kept across epochs.
    if cfg.optimizer == "adam":
        phase, state = _adam_phase, (np.random.default_rng(cfg.seed), AdamW(
            network.n_params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay))
    else:
        phase, state = _lbfgs_phase, (network.input_cache(snaps.X.T),)
    best = (np.inf, network.get_params(), None)  # total, parameters, model
    history: list[LossRecord] = []
    # Overflow shows up as the non-finite values checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs + 1):
            phi_s = _lift_cols(network, snaps.states)
            if not np.all(np.isfinite(phi_s)):
                raise DivergedError(f"training diverged at epoch {epoch}: "
                                    "non-finite lifted data")
            phi_x, phi_xn = snaps.pairs(phi_s)
            model = KoopmanModel(network, *fit_edmdc(phi_x, phi_xn, snaps.U))
            del phi_xn  # held through the optimizer phase, it raises peak RSS
            recon, pred, total = loss(model, snaps, cfg, phi_x=phi_x)
            if not np.isfinite(total):
                raise DivergedError(f"training diverged at epoch {epoch}: "
                                    f"recon={recon!r} pred={pred!r}")
            history.append(LossRecord(epoch=epoch, recon=recon, pred=pred, total=total))
            if total < best[0]:
                best = (total, network.get_params(), model)
            if epoch == cfg.epochs:
                break
            start = network.get_params().tobytes()
            history[-1].evals, history[-1].stop_reason = phase(model, snaps, cfg, *state)
            params = network.get_params()
            if not np.all(np.isfinite(params)):
                raise DivergedError(f"training diverged at epoch {epoch}: "
                                    "non-finite network parameters")
            if phase is _lbfgs_phase and params.tobytes() == start:
                # Same parameter bits give the same lift, refit, loss and L-BFGS
                # run, so every later epoch repeats this one. An Adam phase also
                # depends on its rng and moments.
                history += [replace(history[-1], epoch=e, evals=0, stop_reason="")
                            for e in range(epoch + 1, cfg.epochs + 1)]
                break
    network.set_params(best[1])
    return best[2], history


def _lbfgs_phase(model: KoopmanModel, snaps: SnapshotSet, cfg: TrainConfig, cache):
    """A full L-BFGS solve on every column, from the network's input_cache of
    X. Returns the closure evaluations and the stop reason."""
    net = model.network
    plan = _TrainPlan(cache, model, snaps)

    def closure(theta):
        net.set_params(theta)
        return loss(model, snaps, cfg, plan=plan, grad=True)[2:]

    result = Lbfgs(lr=cfg.learning_rate, history=cfg.lbfgs_history).minimize(
        closure, net.get_params(), max_iter=cfg.lbfgs_max_iter
    )
    net.set_params(result.x)
    return result.n_evals, result.stop_reason


def _adam_phase(model, snaps: SnapshotSet, cfg: TrainConfig, rng, opt: AdamW):
    """One epoch of minibatch steps: ceil(N_d / batch) draws without replacement.

    The prediction term samples its own column subset of the same size so
    both loss terms see comparable batch noise. Returns the step count and
    no stop reason.
    """
    net = model.network
    n_d, n_a = snaps.n_pairs, snaps.n_pred_pairs
    batch = min(cfg.batch_size or n_d, n_d)
    steps = -(-n_d // batch)
    for _ in range(steps):
        cols = rng.choice(n_d, size=batch, replace=False)
        pcols = rng.choice(n_a, size=min(batch, n_a), replace=False) if cfg.gamma else None
        grads = loss(model, snaps, cfg, cols, pcols, grad=True)[3]
        net.set_params(opt.step(net.get_params(), grads))
    return steps, ""


def _row_products(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m one row at a time, for the bits the acceptance lines were taken
    with: a matrix product of the whole batch rounds differently, and with a
    plain z @ K.T the twobody_kan position error reads 6.04e-07 km instead of
    6.038e-07. (A batch row need not equal its one-state rollout: one-row KAN
    calls run on Python floats.) One row (1-D a) takes the plain product:
    the same bits, and cheaper for the one-state rollout's every step."""
    return a @ m if a.ndim == 1 else (a[..., None, :] @ m)[..., 0, :]


def rollout(model: KoopmanModel, x0, controls, dt, correct: bool = True) -> Trajectory:
    """Predict forward from x0 under the given control sequence.

    x0 is one state (n,) or a batch (b, n); controls and dt are laid out as
    for dynamics.simulate. correct=True re-lifts the extracted state every
    step; correct=False stays in lifted space and only extracts for output.
    Raises ValueError naming controls when their last axis is not B's
    column count.
    """
    x0 = np.asarray(x0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    p = model.B.shape[1]
    if controls.shape[-1:] != (p,):
        raise ValueError(f"controls must have shape (steps, {p}) or (steps, b, {p}), "
                         f"got {controls.shape}")
    n_steps, n = controls.shape[0], model.n
    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x0
    k_t = model.K.T
    # Every step's forcing in one call; each row rounds like its own product.
    forcing = _row_products(controls, model.B.T) if p else None
    # One corrected state steps as a list of floats, which lift lifts without
    # numpy's per-call overhead; its products stay on arrays.
    listed = correct and x0.ndim == 1
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0.tolist() if listed else x0
        for k in range(n_steps):
            if correct or not k:
                z = lift(model, x)
            z = _row_products(z, k_t)
            if forcing is not None:
                z = z + forcing[k]
            # Lifted mode never stores z's network rows, so it checks them here.
            if not correct and not np.isfinite(z).all():
                raise DivergedError(f"rollout produced non-finite state at step {k}")
            x = states[k + 1] = z[..., :n]
            if listed:
                x = x.tolist()
    bad = np.flatnonzero(~np.isfinite(states[1:].reshape(n_steps, x0.size)).all(axis=1))
    if bad.size:
        raise DivergedError(f"rollout produced non-finite state at step {bad[0]}")
    return Trajectory(dt=dt, states=states, controls=controls)


def save_model(model: KoopmanModel, path, cfg: TrainConfig | None = None,
               metadata: dict | None = None) -> None:
    write_json(path, {
        "network": model.network.to_dict(),
        "K": model.K.tolist(),
        "B": model.B.tolist(),
        "config": cfg.to_dict() if cfg is not None else None,
        "metadata": metadata or {},
    })


# Every backend by its kind, the one place besides the CLI's constructor that
# names them; the rest of the pipeline reaches a network only through the
# protocol of numerics.FlatParams.
NETWORKS = {cls.kind: cls for cls in (KanNetwork, MlpNetwork)}


def load_model(path):
    """Returns (model, config-or-None, metadata dict).

    Raises ValueError naming path when the file is not a JSON object, a key is
    missing, the network is not an object whose kind is in NETWORKS, the
    network or config section does not parse, K or B is not a matrix of
    numbers, K is not n_total x n_total or B lacks n_total rows for the
    network's n_total, or K, B or a network parameter is not finite. The
    kind, n, n_total and P keys of older files are ignored.
    """
    doc = read_json(path)
    missing = [key for key in ("network", "K", "B") if key not in doc]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    kind = doc["network"].get("kind") if type(doc["network"]) is dict else None
    if type(kind) is not str or kind not in NETWORKS:
        raise ValueError(f"{path}: network must be an object with a kind in "
                         f"{list(NETWORKS)}, got kind {shown(kind)}")
    network = _parsed(path, "network", NETWORKS[kind].from_dict, doc["network"])
    n_total = network.shape[0] + network.shape[-1]
    try:
        k, b = (number_array(key, doc[key]) for key in ("K", "B"))
    except ValueError:
        raise ValueError(f"{path}: K and B must be matrices of numbers") from None
    if k.shape != (n_total, n_total) or b.ndim != 2 or b.shape[0] != n_total:
        raise ValueError(f"{path}: K {k.shape} and B {b.shape} do not fit n_total={n_total}")
    if not all(np.isfinite(arr).all() for arr in (k, b, *network.param_arrays())):
        raise ValueError(f"{path}: K, B and the network parameters must be finite")
    model = KoopmanModel(network=network, K=k, B=b)
    config = doc.get("config")
    cfg = _parsed(path, "config", TrainConfig.from_dict, config) if config else None
    return model, cfg, doc.get("metadata", {})


def _parsed(path, section: str, parse, doc):
    """parse(doc), with a parsing error raised as one ValueError naming path."""
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: bad {section} section: {detail}") from None


def save_history(history: list[LossRecord], path) -> None:
    write_csv(path, ["epoch", "recon", "pred", "total"],
              np.array([[r.epoch, r.recon, r.pred, r.total] for r in history]).reshape(-1, 4))
