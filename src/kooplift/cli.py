"""Command-line driver.

Grammar:

    kooplift <generate|train|evaluate|control|compare> --config <path>
             [--out <dir>] [--seed <N>]

One JSON config describes a run (system, backend, dataset, network,
training, evaluation, control). --out overrides the output directory, the
KOOPLIFT_OUT environment variable sits between the flag and the config
value, and --seed overrides the seed of whichever command is running.
Exit codes: 0 success, 1 runtime or data error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dynamics
from .control import (
    InstabilityError,
    UncontrollableModelError,
    closed_loop_sim,
    default_weights,
    dlqr,
    settling_time,
    spectral_radius,
)
from .dynamics import (
    PENDULUM_CONTROL_NAMES,
    PENDULUM_DT,
    PENDULUM_STATE_NAMES,
    TWOBODY_CONTROL_NAMES,
    TWOBODY_STATE_NAMES,
    generate_pendulum_dataset,
    generate_twobody_dataset,
    load_dataset,
    read_json,
    save_dataset,
    write_csv,
    write_json,
)
from .kan import SplineGrid, kan_init
from .koopman import (
    RolloutDivergedError,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    rollout,
    save_history,
    save_model,
    train,
)
from .mlp import mlp_init

OUT_ENV_VAR = "KOOPLIFT_OUT"
_NUMPY_TOO_BIG = ("Maximum allowed dimension exceeded", "array is too big")

# n_ic: the default number of initial conditions of a dataset and of an
# evaluation section. draw: an evaluation set's (x0, controls, dt), integrated
# under deriv. headline: the metrics key, state count and unit of the headline
# error, the largest absolute error over the system's first states.
_SYSTEMS = {
    "pendulum": {
        "state_names": PENDULUM_STATE_NAMES,
        "control_names": PENDULUM_CONTROL_NAMES,
        "n_ic": {"dataset": 15, "evaluation": 5},
        "draw": dynamics.pendulum_initial_states,
        "deriv": dynamics.pendulum_deriv,
        "headline": ("max_abs_angle_error", 1, "rad"),
    },
    "twobody": {
        "state_names": TWOBODY_STATE_NAMES,
        "control_names": TWOBODY_CONTROL_NAMES,
        "n_ic": {"dataset": 30, "evaluation": 3},
        "draw": dynamics.twobody_initial_states,
        "deriv": dynamics.twobody_deriv,
        "headline": ("max_abs_position_error", 2, "km"),
    },
}


class ConfigError(Exception):
    """The config document is structurally or semantically invalid."""


# Each control setting's value when the control section leaves it out.
_CONTROL_DEFAULTS = {"x0": [1.0, 0.0], "duration": 10.0, "dt": PENDULUM_DT, "q_state": 1.0,
                     "r": 0.1, "u_limit": 5.0}

# The keys each config section may hold; the train section holds TrainConfig's.
_SECTION_KEYS = {
    "dataset": {"n_ic", "seed", "points_per_orbit", "path"},
    "network": {"n_observables", "hidden_layers", "neurons", "grid"},
    "network.grid": {"lo", "hi", "intervals", "order"},
    "train": set(TrainConfig.__dataclass_fields__),
    "evaluation": {"n_ic", "seed", "radius_range", "extrapolation"},
    "evaluation.extrapolation": {"n_ic", "radius_range"},
    "control": set(_CONTROL_DEFAULTS),
    "compare": {"model_a", "model_b"},
}


@dataclass
class RunConfig:
    system: str
    backend: str
    out_dir: str | None = None
    dataset: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    evaluation: dict = field(default_factory=dict)
    control: dict = field(default_factory=dict)
    model_path: str | None = None
    compare: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError("config file not found")
        try:
            doc = read_json(path)
        except ValueError as exc:  # main's line names the file
            raise ConfigError(str(exc).removeprefix(f"{path}: ")) from None
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check every section, and set train_config, the train section's TrainConfig."""
        if self.system not in tuple(_SYSTEMS):  # a list or an object is unhashable
            raise ConfigError(
                f"system must be one of {sorted(_SYSTEMS)}, got {self.system!r}"
            )
        if self.backend not in ("kan", "mlp"):
            raise ConfigError(f"backend must be 'kan' or 'mlp', got {self.backend!r}")
        for section, known in _SECTION_KEYS.items():
            doc = self._section(section)
            if not isinstance(doc, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            unknown = sorted(set(doc) - known)
            if unknown:
                raise ConfigError(f"unknown key(s) in section {section!r}: "
                                  f"{', '.join(unknown)}")
        for key, low in (("dataset.n_ic", 1), ("evaluation.n_ic", 1),
                         ("evaluation.extrapolation.n_ic", 1),
                         ("network.n_observables", 1), ("network.hidden_layers", 0),
                         ("network.neurons", 1), ("dataset.seed", 0),
                         ("dataset.points_per_orbit", 1), ("evaluation.seed", 0)):
            section, name = key.rsplit(".", 1)
            value = self._section(section).get(name, low)
            if type(value) is not int or value < low:  # bool is not an int here
                kind = "positive" if low else "non-negative"
                raise ConfigError(f"{key} must be a {kind} integer, got {value!r}")
        for key in ("out_dir", "model_path", "dataset.path", "compare.model_a", "compare.model_b"):
            section, _, name = key.rpartition(".")
            value = self._section(section).get(name) if section else getattr(self, name)
            if value is not None and type(value) is not str:
                raise ConfigError(f"{key} must be a path string, got {value!r}")
        for section in ("evaluation", "evaluation.extrapolation"):
            pair, n = self._section(section).get("radius_range"), self.points_per_orbit
            # The orbit step grows with the radius, so the ends decide.
            if pair is not None and not (
                    type(pair) is list and len(pair) == 2
                    and all(type(v) in (int, float) for v in pair) and 0 < pair[0] <= pair[1]
                    and 0 < dynamics.orbit_step(pair[0], n)
                    and dynamics.orbit_step(pair[1], n) < float("inf")):
                raise ConfigError(f"{section}.radius_range must be a list [lo, hi] of numbers "
                                  f"with 0 < lo <= hi and a positive finite orbit step at "
                                  f"each end, got {pair!r}")
        stray = [f"{section}.{name}" for section, name in (
            ("evaluation", "radius_range"), ("evaluation", "extrapolation"),
            ("dataset", "points_per_orbit")) if name in self._section(section)]
        if self.system == "pendulum" and stray:
            raise ConfigError(f"{stray[0]} must be a two-body key, not a pendulum one")
        control = self.control_settings
        for name in ("dt", "duration", "u_limit", "q_state", "r"):
            value = control[name]
            if type(value) not in (int, float) or not 0.0 < value <= sys.float_info.max:
                raise ConfigError(f"control.{name} must be a positive finite number, "
                                  f"got {value!r}")
        duration, dt, x0 = control["duration"], control["dt"], control["x0"]
        if not 0.5 < duration / dt < float("inf"):  # closed_loop_sim's step count rounds to >= 1
            raise ConfigError(f"control.duration must be a time of at least half of "
                              f"control.dt = {dt!r} and a finite number of its steps, "
                              f"got {duration!r}")
        if "x0" in self.control and (type(x0) is not list or len(x0) != self.n_states or not all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in x0)):
            raise ConfigError(f"control.x0 must be a list of {self.n_states} finite numbers, "
                              f"got {x0!r}")
        self.spline_grid()
        try:
            self.train_config = TrainConfig(**self.train)
        except ValueError as exc:
            raise ConfigError(f"train.{exc}") from None
        alpha = self.train_config.alpha
        if self.system == "twobody" and alpha >= self.points_per_orbit:
            raise ConfigError(f"train.alpha must be a positive integer below "
                              f"dataset.points_per_orbit = {self.points_per_orbit}, got {alpha}")
        if self.system == "pendulum" and alpha > dynamics.PENDULUM_STEPS:
            raise ConfigError(f"train.alpha must be in [1, {dynamics.PENDULUM_STEPS}]")

    def _section(self, name: str):
        """The section at a dotted name; an absent or empty subsection reads as {}."""
        top, _, sub = name.partition(".")
        doc = getattr(self, top)
        return (doc.get(sub) or {}) if sub else doc

    @property
    def n_states(self) -> int:
        return len(_SYSTEMS[self.system]["state_names"])

    def network_shape(self) -> list[int]:
        net = self.network
        hidden = [net.get("neurons", 1)] * net.get("hidden_layers", 1)
        return [self.n_states] + hidden + [net.get("n_observables", 1)]

    def spline_grid(self) -> SplineGrid:
        try:
            return SplineGrid(**self._section("network.grid"))
        except ValueError as exc:
            raise ConfigError(f"network.grid.{exc}") from None

    @property
    def points_per_orbit(self) -> int:
        return self.dataset.get("points_per_orbit", 800)

    @property
    def control_settings(self) -> dict:
        """The control section over _CONTROL_DEFAULTS."""
        return {**_CONTROL_DEFAULTS, **self.control}


def _dataset_dir(cfg: RunConfig, out_dir: Path) -> Path:
    if cfg.dataset.get("path"):
        return Path(cfg.dataset["path"])
    return out_dir / "dataset"


def _from_section(cfg: RunConfig, make, seed: int, doc: dict, role: str):
    """make(n_ic, seed, ...), for make a generate_<system>_dataset or a
    <system>_initial_states, with the arguments they share read from a dataset
    or evaluation section doc; role, "dataset" or "evaluation", picks the
    default n_ic."""
    n_ic = doc.get("n_ic", _SYSTEMS[cfg.system]["n_ic"][role])
    if cfg.system == "twobody":
        lo, hi = doc.get("radius_range") or dynamics.TWOBODY_RADIUS_RANGE
        return make(n_ic, seed, cfg.points_per_orbit, (float(lo), float(hi)))
    return make(n_ic, seed)


def _evaluation_sets(cfg: RunConfig, seed: int) -> dict[str, list]:
    """The trajectories of each evaluation set by name: "eval", the held-out ICs
    from seed, and when configured "eval_extrapolation", the band from seed + 1,
    integrated in one batch."""
    docs = {"eval": cfg.evaluation}
    if cfg.evaluation.get("extrapolation"):
        docs["eval_extrapolation"] = cfg.evaluation["extrapolation"]
    system = _SYSTEMS[cfg.system]
    draws = [_from_section(cfg, system["draw"], seed + i, doc, "evaluation")
             for i, doc in enumerate(docs.values())]
    x0, controls, dt = zip(*draws)
    # dynamics.simulate is looked up at call time, so a wrapper installed on it
    # (benchmarks/tracing.py) sees this call too.
    trajs = iter(dynamics.simulate(system["deriv"], np.concatenate(x0), np.concatenate(
        controls, axis=1), np.concatenate(dt)).unstack())
    return {name: [next(trajs) for _ in x] for x, name in zip(x0, docs)}


def cmd_generate(cfg: RunConfig, out_dir: Path, seed_override: int | None) -> int:
    seed = seed_override if seed_override is not None else cfg.dataset.get("seed", 0)
    # Looked up at call time, so a wrapper installed on these names
    # (benchmarks/tracing.py) sees the call.
    generate = {"pendulum": generate_pendulum_dataset, "twobody": generate_twobody_dataset}
    trajs = _from_section(cfg, generate[cfg.system], seed, cfg.dataset, "dataset")
    names = _SYSTEMS[cfg.system]
    dataset_dir = _dataset_dir(cfg, out_dir)
    manifest = save_dataset(
        trajs,
        dataset_dir,
        names["state_names"],
        names["control_names"],
        manifest_extra={
            "system": cfg.system,
            "seed": seed,
            "n_ic": len(trajs),
            **({"points_per_orbit": cfg.points_per_orbit} if cfg.system == "twobody" else {}),
        },
    )
    print(f"wrote {len(trajs)} trajectories under {dataset_dir} ({manifest.name})")
    return 0


def cmd_train(cfg: RunConfig, out_dir: Path, seed_override: int | None) -> int:
    dataset_dir = _dataset_dir(cfg, out_dir)
    trajs = load_dataset(dataset_dir)
    _check_fit(cfg, dataset_dir / "manifest.json", trajs[0].n_states, trajs[0].n_controls)
    tc = cfg.train_config
    if seed_override is not None:
        tc = replace(tc, seed=seed_override)
    short = next((i for i, t in enumerate(trajs) if len(t.states) <= tc.alpha), None)
    if short is not None:
        name = read_json(dataset_dir / "manifest.json")["files"][short]["name"]
        raise ValueError(f"{dataset_dir / name}: {len(trajs[short].states)} states, but "
                         f"train.alpha = {tc.alpha} needs at least {tc.alpha + 1}")
    shape = cfg.network_shape()
    network = (kan_init(shape, cfg.spline_grid(), tc.seed) if cfg.backend == "kan"
               else mlp_init(shape, tc.seed))
    started = time.perf_counter()
    model, history = train(network, trajs, tc)
    wall = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    save_model(
        model,
        model_path,
        cfg=tc,
        metadata={"system": cfg.system, "backend": cfg.backend,
                  "dataset": str(dataset_dir)},
    )
    save_history(history, out_dir / "loss_history.csv")
    last, best = history[-1], min(history, key=lambda r: r.total)
    summary = {
        "system": cfg.system,
        "backend": cfg.backend,
        "n_params": model.n_params,
        "n_total": model.n_total,
        "K_shape": list(model.K.shape),
        "epochs": tc.epochs,
        "wall_time_s": wall,  # hardware dependent; not covered by determinism
        "final_recon": last.recon,
        "final_pred": last.pred,
        "final_total": last.total,
        "best_total": best.total,
        "best_epoch": best.epoch,  # the saved model's: the first epoch at best_total
        "closure_evals": sum(row.evals for row in history),  # loss evaluations or Adam steps
        "stop_reasons": [row.stop_reason for row in history if row.stop_reason],  # per L-BFGS phase
        "model_file": model_path.name,
        "history_file": "loss_history.csv",
    }
    write_json(out_dir / "summary.json", summary)
    print(
        f"trained {cfg.backend} on {cfg.system}: {model.n_params} parameters, "
        f"lifted size {model.n_total}, best total loss {summary['best_total']:.6g}, "
        f"{wall:.2f}s"
    )
    return 0


def _evaluate(cfg: RunConfig, models: list, seed_override: int | None) -> list[tuple]:
    """Corrected rollouts of each (path, model) in models, every IC of every
    evaluation set in one batch, against the truth integrated once; per model,
    its metrics.json document and each set's per-IC table by set name, for
    _write_evaluation. Writes nothing."""
    seed = seed_override if seed_override is not None else cfg.evaluation.get("seed", 900)
    sets = _evaluation_sets(cfg, seed)
    names = _SYSTEMS[cfg.system]["state_names"]
    key, n_head, _ = _SYSTEMS[cfg.system]["headline"]
    trajs = [traj for set_trajs in sets.values() for traj in set_trajs]
    truth = np.stack([t.states for t in trajs], axis=1)
    controls, dt = np.stack([t.controls for t in trajs], axis=1), np.array([t.dt for t in trajs])
    evaluated = []
    for path, model in models:
        with _blaming(path):
            pred = rollout(model, truth[0], controls, dt, correct=True)
        err = np.abs(pred.states - truth)
        table = np.concatenate([pred.times[..., None], truth, pred.states, err], axis=2)
        docs, tables, stop = [], {}, 0
        for name, set_trajs in sets.items():
            rows = slice(stop, stop + len(set_trajs))
            stop = rows.stop
            ic_max = err[:, rows].max(axis=0)
            worst = ic_max.max(axis=0)
            docs.append({
                "n_ic": len(set_trajs),
                "max_abs_error": {s: float(e) for s, e in zip(names, worst)},
                "per_ic": [{
                    "initial_state": [float(v) for v in x0],
                    "max_abs_error": {s: float(e) for s, e in zip(names, row)},
                } for x0, row in zip(truth[0, rows], ic_max)],
                key: float(worst[:n_head].max()),
            })
            tables[name] = table[:, rows]
        metrics, *band = docs
        metrics["seed"] = seed
        if band:
            radius_range = cfg.evaluation["extrapolation"].get("radius_range")
            metrics["extrapolation"] = {**band[0], "radius_range": radius_range}
        evaluated.append((metrics, tables))
    return evaluated


def _write_evaluation(cfg: RunConfig, root: Path, metrics: dict, tables: dict) -> None:
    """Write one model's _evaluate result under root: each set's per-IC CSVs
    in root/<set name>, and its metrics document as root/eval/metrics.json."""
    names = _SYSTEMS[cfg.system]["state_names"]
    header = ["t"] + [f"{kind}_{s}" for kind in ("true", "pred", "abs_err") for s in names]
    for name, table in tables.items():
        (root / name).mkdir(parents=True, exist_ok=True)
        for i in range(table.shape[1]):
            write_csv(root / name / f"eval_{i:03d}.csv", header, table[:, i])
    write_json(root / "eval" / "metrics.json", metrics)


def _check_fit(cfg: RunConfig, path: Path, n: int, p: int) -> None:
    """Raise a ValueError naming path unless its n states and p inputs are the system's."""
    names = _SYSTEMS[cfg.system]
    want = len(names["state_names"]), len(names["control_names"])
    if (n, p) != want:
        raise ValueError(f"{path}: {n} states and {p} inputs do not fit the {cfg.system} "
                         f"system's {want[0]} and {want[1]}")


def _load_model_file(cfg: RunConfig, out_dir: Path, path: str | None = None):
    """The path and the model stored there, checked against the system; path
    defaults to the config's model_path, else out_dir's model.json. A missing
    file raises FileNotFoundError."""
    path = Path(path or cfg.model_path or out_dir / "model.json")
    if not path.is_file():
        raise FileNotFoundError(f"model file not found: {path}")
    model = load_model(path)[0]
    _check_fit(cfg, path, model.n, model.B.shape[1])
    return path, model


@contextlib.contextmanager
def _blaming(path: Path):
    """Raise a loaded model's divergence or missing stabilizing gain as one
    ValueError naming its file."""
    try:
        yield
    except (RolloutDivergedError, UncontrollableModelError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_evaluate(cfg: RunConfig, out_dir: Path, seed_override: int | None) -> int:
    model_path, model = _load_model_file(cfg, out_dir)
    [(metrics, tables)] = _evaluate(cfg, [(model_path, model)], seed_override)
    _write_evaluation(cfg, out_dir, metrics, tables)
    key, _, unit = _SYSTEMS[cfg.system]["headline"]
    print(f"evaluated {model_path.name} on {metrics['n_ic']} held-out ICs: "
          f"{key.replace('_', ' ')} {metrics[key]:.4g} {unit}")
    return 0


def cmd_control(cfg: RunConfig, out_dir: Path, seed_override: int | None) -> int:
    del seed_override  # the control loop is deterministic
    if cfg.system != "pendulum":
        raise ConfigError("closed-loop control is implemented for the pendulum")
    model_path, model = _load_model_file(cfg, out_dir)
    settings = cfg.control_settings
    q, r = default_weights(
        model.n, model.n_total, model.B.shape[1],
        q_state=float(settings["q_state"]),
        r=float(settings["r"]),
    )
    with _blaming(model_path):
        gain = dlqr(model.K, model.B, q, r)
    x0 = [float(v) for v in settings["x0"]]
    traj = closed_loop_sim(
        model,
        gain,
        _SYSTEMS[cfg.system]["deriv"],
        np.asarray(x0),
        duration=float(settings["duration"]),
        dt=float(settings["dt"]),
        u_limit=float(settings["u_limit"]),
    )
    dest = out_dir / "control"
    names = _SYSTEMS[cfg.system]
    save_dataset([traj], dest, names["state_names"], names["control_names"],
                 manifest_extra={"system": cfg.system, "kind": "closed_loop"},
                 file_names=["closed_loop.csv"])
    settle = settling_time(traj, component=0, threshold=0.05)
    metrics = {
        "settling_time_s": settle,
        "settling_threshold_rad": 0.05,
        "peak_abs_control": float(np.max(np.abs(traj.controls))) if traj.controls.size else 0.0,
        "final_state": [float(v) for v in traj.states[-1]],
        "closed_loop_spectral_radius": spectral_radius(model.K - model.B @ gain.F),
    }
    write_json(dest / "control_metrics.json", metrics)
    settle_text = "never" if settle is None else f"{settle:.2f}s"
    print(
        f"closed loop from {x0}: "
        f"settled {settle_text}, peak |u| {metrics['peak_abs_control']:.3g}"
    )
    return 0


def cmd_compare(cfg: RunConfig, out_dir: Path, seed_override: int | None) -> int:
    section = cfg.compare
    if not section.get("model_a") or not section.get("model_b"):
        raise ConfigError("compare requires compare.model_a and compare.model_b")
    # Both models and their summaries are loaded and checked, and both models
    # rolled out, before anything is written, so a bad model_b leaves no
    # compare/ file behind.
    models, rows = [], []
    for label in ("model_a", "model_b"):
        path, model = _load_model_file(cfg, out_dir, section[label])
        summary_path = path.parent / "summary.json"
        wall = read_json(summary_path).get("wall_time_s") if summary_path.is_file() else None
        models.append((path, model))
        rows.append({"label": label, "path": str(path), "kind": model.kind,
                     "n_params": model.n_params, "lifted_size": model.n_total,
                     "train_wall_time_s": wall})
    evaluated = _evaluate(cfg, models, seed_override)
    for row, (metrics, tables) in zip(rows, evaluated):
        _write_evaluation(cfg, out_dir / "compare" / row["label"], metrics, tables)
        row["metrics"] = metrics
    key = _SYSTEMS[cfg.system]["headline"][0]
    error_a, error_b = (metrics[key] for metrics, _ in evaluated)
    write_json(out_dir / "compare" / "compare.json", {
        "system": cfg.system, "models": rows,
        "a_over_b_error_ratio": error_a / error_b if error_b > 0 else None})
    print(f"compared {rows[0]['kind']} vs {rows[1]['kind']}: "
          f"errors {error_a:.4g} / {error_b:.4g}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "control": cmd_control,
    "compare": cmd_compare,
}


def _resolve_out(flag: str | None, cfg: RunConfig) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    return Path("runs") / f"{cfg.system}_{cfg.backend}"


def _seed(text: str) -> int:
    """--seed's type: a non-negative integer, else an argparse usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kooplift",
        description="Learn lifted linear models of nonlinear dynamics and "
                    "use them for prediction and LQR control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "write a trajectory dataset"),
        ("train", "fit a lifted linear model on a dataset"),
        ("evaluate", "roll out a trained model on held-out initial conditions"),
        ("control", "run the LQR closed loop against the true plant"),
        ("compare", "evaluate two trained models side by side"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config and env)")
        p.add_argument("--seed", type=_seed, help="override the command's seed")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        out_dir = _resolve_out(args.out, cfg)
        return _COMMANDS[args.command](cfg, out_dir, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc} (in {args.config})", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError, TrainingDivergedError, InstabilityError,
            dynamics.BlowupError) as exc:
        # A size in the config too large to allocate: a MemoryError, or numpy's
        # ValueError for an array past the largest it can address.
        too_big = isinstance(exc, MemoryError) or str(exc).startswith(_NUMPY_TOO_BIG)
        print(f"error: {exc}" + f" (in {args.config})" * too_big, file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
