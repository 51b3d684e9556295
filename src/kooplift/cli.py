"""Command-line driver.

Grammar:

    kooplift <generate|train|evaluate|control|compare> --config <path>
             [--out <dir>] [--seed <N>]

One JSON config describes a run (system, backend, dataset, network,
training, evaluation, control). --out overrides the output directory, the
KOOPLIFT_OUT environment variable sits between the flag and the config
value, and --seed N is the running command's section seed set to N (control
has none). Each command loads, computes in memory, then writes.
Exit codes: 0 success, 1 runtime or data error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dynamics
from .control import (
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
    NETWORKS,
    TrainConfig,
    load_model,
    rollout,
    save_history,
    save_model,
    train,
)
from .mlp import mlp_init
from .numerics import DivergedError, is_number

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


_REQUIRED = "required"  # the default of a key that every config must set
_PATH = "path string"  # the kind of a key that holds a path string or null

# Every config key by section ("" the top level, "a.b" subsection b of a):
# key -> (default, kind). The default is None where the key has none (paths,
# the extrapolation band) or where the system decides it (n_ic, from
# _SYSTEMS). kind is a numerics.is_number kind, _PATH, or None for a key
# checked elsewhere; the train and network.grid keys are TrainConfig's and
# SplineGrid's fields, which those classes check. validate checks a key's
# kind only where a config sets it, so every default here must be of its kind.
_SECTIONS = {
    "": {"system": (_REQUIRED, None), "backend": (_REQUIRED, None), "out_dir": (None, _PATH),
         "model_path": (None, _PATH), "dataset": ({}, None), "network": ({}, None),
         "train": ({}, None), "evaluation": ({}, None), "control": ({}, None),
         "compare": ({}, None)},
    "dataset": {"n_ic": (None, "positive integer"), "seed": (0, "non-negative integer"),
                "points_per_orbit": (800, "positive integer"), "path": (None, _PATH)},
    "network": {"n_observables": (1, "positive integer"), "neurons": (1, "positive integer"),
                "hidden_layers": (1, "non-negative integer"), "grid": (None, None)},
    "network.grid": {f.name: (f.default, None) for f in fields(SplineGrid)},
    "train": {f.name: (f.default, None) for f in fields(TrainConfig)},
    "evaluation": {"n_ic": (None, "positive integer"), "seed": (900, "non-negative integer"),
                   "radius_range": (list(dynamics.TWOBODY_RADIUS_RANGE), None),
                   "extrapolation": (None, None)},
    "evaluation.extrapolation": {"n_ic": (None, "positive integer"),
                                 "radius_range": (list(dynamics.TWOBODY_RADIUS_RANGE), None)},
    "control": {"x0": ([1.0, 0.0], None), "duration": (10.0, "positive finite number"),
                "dt": (PENDULUM_DT, "positive finite number"),
                "q_state": (1.0, "positive finite number"),
                "r": (0.1, "positive finite number"),
                "u_limit": (5.0, "positive finite number")},
    "compare": {"model_a": (None, _PATH), "model_b": (None, _PATH)},
}


class RunConfig:
    """A run config document; setting() reads a key, or its _SECTIONS default."""

    def __init__(self, doc: dict):
        self.doc, self.system, self.backend = doc, doc["system"], doc["backend"]

    @classmethod
    def load(cls, path, seed: tuple = (None, None)) -> "RunConfig":
        """The checked config at path. seed, a (section, value) pair, first
        sets that section's seed key unless either is None, so validate checks
        it as it checks the file's own."""
        path = Path(path)
        if not path.is_file():
            raise ConfigError("config file not found")
        try:
            doc = read_json(path)
        except ValueError as exc:  # main's line names the file
            raise ConfigError(str(exc).removeprefix(f"{path}: ")) from None
        missing = sorted(key for key, (default, _) in _SECTIONS[""].items()
                         if default is _REQUIRED and key not in doc)
        if missing:
            raise ConfigError(f"missing key(s) {', '.join(missing)}")
        if None not in seed and isinstance(doc.get(seed[0], {}), dict):  # else validate refuses it
            doc[seed[0]] = {**doc.get(seed[0], {}), "seed": seed[1]}
        cfg = cls(doc)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check every section, and set train_config, the train section's TrainConfig."""
        for key, known in (("system", _SYSTEMS), ("backend", NETWORKS)):
            value = self.doc[key]
            if value not in tuple(known):  # a list or an object is unhashable
                raise ConfigError(f"{key} must be one of {sorted(known)}, got {value!r}")
        for section, keys in _SECTIONS.items():
            doc = self.section(section)
            if not isinstance(doc, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            unknown = sorted(set(doc) - set(keys))
            if unknown:
                where = f"in section {section!r}" if section else "at the top level"
                raise ConfigError(f"unknown key(s) {where}: {', '.join(unknown)}")
            for name, (_, kind) in keys.items():
                value = doc.get(name)
                if name in doc and kind and not ((value is None or type(value) is str)
                                                 if kind == _PATH else is_number(value, kind)):
                    key = f"{section}.{name}" if section else name
                    raise ConfigError(f"{key} must be a {kind}, got {value!r}")
        points = self.setting("dataset.points_per_orbit")
        for section in ("evaluation", "evaluation.extrapolation"):
            pair = self.setting(f"{section}.radius_range")
            # The orbit step grows with the radius, so the ends decide.
            if not (type(pair) is list and len(pair) == 2
                    and all(is_number(v, "positive finite number") for v in pair)
                    and pair[0] <= pair[1] and 0 < dynamics.orbit_step(pair[0], points)
                    and dynamics.orbit_step(pair[1], points) < float("inf")):
                raise ConfigError(f"{section}.radius_range must be a list [lo, hi] of numbers "
                                  f"with 0 < lo <= hi and a positive finite orbit step at "
                                  f"each end, got {pair!r}")
        stray = [f"{section}.{name}" for section, name in (
            ("evaluation", "radius_range"), ("evaluation", "extrapolation"),
            ("dataset", "points_per_orbit")) if name in self.section(section)]
        if self.system == "pendulum" and stray:
            raise ConfigError(f"{stray[0]} must be a two-body key, not a pendulum one")
        duration, dt, x0 = (self.setting(f"control.{name}") for name in ("duration", "dt", "x0"))
        if not 0.5 < duration / dt < float("inf"):  # closed_loop_sim's step count rounds to >= 1
            raise ConfigError(f"control.duration must be a time of at least half of "
                              f"control.dt = {dt!r} and a finite number of its steps, "
                              f"got {duration!r}")
        # The default x0 is the pendulum's, so only a configured one is checked.
        if "x0" in self.section("control") and (
                type(x0) is not list or len(x0) != self.n_states
                or not all(is_number(v, "finite number") for v in x0)):
            raise ConfigError(f"control.x0 must be a list of {self.n_states} finite numbers, "
                              f"got {x0!r}")
        self.spline_grid()
        try:
            self.train_config = TrainConfig(**self.section("train"))
        except ValueError as exc:
            raise ConfigError(f"train.{exc}") from None
        alpha = self.train_config.alpha
        if self.system == "twobody" and alpha >= points:
            raise ConfigError(f"train.alpha must be a positive integer below "
                              f"dataset.points_per_orbit = {points}, got {alpha}")
        if self.system == "pendulum" and alpha > dynamics.PENDULUM_STEPS:
            raise ConfigError(f"train.alpha must be in [1, {dynamics.PENDULUM_STEPS}]")

    def setting(self, key: str):
        """The value at a dotted key such as "control.dt", or its _SECTIONS default."""
        section, _, name = key.rpartition(".")
        return self.section(section).get(name, _SECTIONS[section][name][0])

    def section(self, name: str):
        """The section at a dotted name, "" the top level. An absent section
        reads as {}, and so does an absent or null subsection."""
        top, _, sub = name.partition(".")
        doc = self.doc.get(top, {}) if top else self.doc
        if not sub:
            return doc
        return {} if doc.get(sub) is None else doc[sub]

    @property
    def n_states(self) -> int:
        return len(_SYSTEMS[self.system]["state_names"])

    def network_shape(self) -> list[int]:
        hidden = [self.setting("network.neurons")] * self.setting("network.hidden_layers")
        return [self.n_states] + hidden + [self.setting("network.n_observables")]

    def spline_grid(self) -> SplineGrid:
        try:
            return SplineGrid(**self.section("network.grid"))
        except ValueError as exc:
            raise ConfigError(f"network.grid.{exc}") from None


def _dataset_dir(cfg: RunConfig, out_dir: Path) -> Path:
    return Path(cfg.setting("dataset.path") or out_dir / "dataset")


def _from_section(cfg: RunConfig, make, seed: int, section: str):
    """make(n_ic, seed, ...), for make a generate_<system>_dataset or a
    <system>_initial_states, with the arguments they share read from the
    dataset section or an evaluation section, by dotted name."""
    # n_ic is checked positive, so None alone picks the system's default.
    n_ic = cfg.setting(f"{section}.n_ic") or _SYSTEMS[cfg.system]["n_ic"][section.split(".")[0]]
    if cfg.system != "twobody":
        return make(n_ic, seed)
    # The dataset draws from make's own radius range.
    extra = [] if section == "dataset" else [cfg.setting(f"{section}.radius_range")]
    return make(n_ic, seed, cfg.setting("dataset.points_per_orbit"), *extra)


def _evaluation_sets(cfg: RunConfig) -> tuple[dynamics.Trajectory, dict]:
    """Every evaluation set integrated in one batch, and each set's slice of
    its rows by name: "eval", the held-out ICs from evaluation.seed, and when
    configured "eval_extrapolation", the band from that seed + 1."""
    sections = {"eval": "evaluation"}
    if cfg.setting("evaluation.extrapolation"):  # {} sets no band
        sections["eval_extrapolation"] = "evaluation.extrapolation"
    system, seed = _SYSTEMS[cfg.system], cfg.setting("evaluation.seed")
    draws = [_from_section(cfg, system["draw"], seed + i, section)
             for i, section in enumerate(sections.values())]
    x0, controls, dt = zip(*draws)
    bounds = np.cumsum([0] + [len(x) for x in x0]).tolist()  # ints, for metrics.json's n_ic
    # dynamics.simulate is looked up at call time, so a wrapper installed on it
    # (benchmarks/tracing.py) sees this call too.
    truth = dynamics.simulate(system["deriv"], np.concatenate(x0),
                              np.concatenate(controls, axis=1), np.concatenate(dt))
    return truth, {name: slice(a, b) for name, a, b in zip(sections, bounds, bounds[1:])}


def cmd_generate(cfg: RunConfig, out_dir: Path) -> int:
    # Looked up at call time, so a wrapper installed on these names
    # (benchmarks/tracing.py) sees the call.
    generate = {"pendulum": generate_pendulum_dataset, "twobody": generate_twobody_dataset}
    trajs = _from_section(cfg, generate[cfg.system], cfg.setting("dataset.seed"), "dataset")
    names = _SYSTEMS[cfg.system]
    dataset_dir = _dataset_dir(cfg, out_dir)
    manifest = save_dataset(
        trajs,
        dataset_dir,
        names["state_names"],
        names["control_names"],
        manifest_extra={
            "system": cfg.system,
            "seed": cfg.setting("dataset.seed"),
            **({"points_per_orbit": cfg.setting("dataset.points_per_orbit")}
               if cfg.system == "twobody" else {}),
        },
    )
    print(f"wrote {len(trajs)} trajectories under {dataset_dir} ({manifest.name})")
    return 0


def _train(cfg: RunConfig, trajs: list) -> tuple:
    """The model trained on trajs from the network the config describes, its
    loss history, and its summary.json document. Writes nothing."""
    tc = cfg.train_config
    shape = cfg.network_shape()
    network = (kan_init(shape, cfg.spline_grid(), tc.seed) if cfg.backend == "kan"
               else mlp_init(shape, tc.seed))
    started = time.perf_counter()
    model, history = train(network, trajs, tc)
    wall = time.perf_counter() - started
    last, best = history[-1], min(history, key=lambda r: r.total)
    summary = {
        "system": cfg.system,
        "backend": cfg.backend,
        "n_params": model.network.n_params,
        "n_total": model.n_total,
        "epochs": tc.epochs,
        "wall_time_s": wall,  # hardware dependent; not covered by determinism
        "final_recon": last.recon,
        "final_pred": last.pred,
        "final_total": last.total,
        "best_total": best.total,
        "best_epoch": best.epoch,  # the saved model's: the first epoch at best_total
        "closure_evals": sum(row.evals for row in history),  # loss evaluations or Adam steps
        "stop_reasons": [row.stop_reason for row in history if row.stop_reason],  # per L-BFGS phase
        "model_file": "model.json",
        "history_file": "loss_history.csv",
    }
    return model, history, summary


def cmd_train(cfg: RunConfig, out_dir: Path) -> int:
    dataset_dir = _dataset_dir(cfg, out_dir)
    trajs = load_dataset(dataset_dir)
    _check_fit(cfg, dataset_dir / "manifest.json", trajs[0].n_states, trajs[0].n_controls)
    alpha = cfg.train_config.alpha
    short = next((i for i, t in enumerate(trajs) if len(t.states) <= alpha), None)
    if short is not None:
        name = read_json(dataset_dir / "manifest.json")["files"][short]["name"]
        raise ValueError(f"{dataset_dir / name}: {len(trajs[short].states)} states, but "
                         f"train.alpha = {alpha} needs at least {alpha + 1}")
    model, history, summary = _train(cfg, trajs)
    save_model(
        model,
        out_dir / summary["model_file"],
        cfg=cfg.train_config,
        metadata={"system": cfg.system, "dataset": str(dataset_dir)},
    )
    save_history(history, out_dir / summary["history_file"])
    write_json(out_dir / "summary.json", summary)
    print(
        f"trained {cfg.backend} on {cfg.system}: {model.network.n_params} parameters, "
        f"lifted size {model.n_total}, best total loss {summary['best_total']:.6g}, "
        f"{summary['wall_time_s']:.2f}s"
    )
    return 0


def _evaluate(cfg: RunConfig, truth, sets: dict, path: Path, model) -> tuple[dict, dict]:
    """The corrected rollout of the model loaded from path, every IC of the
    _evaluation_sets truth in one batch; its metrics.json document and each
    set's per-IC table by set name, for _write_evaluation. Writes nothing."""
    names = _SYSTEMS[cfg.system]["state_names"]
    key, n_head, _ = _SYSTEMS[cfg.system]["headline"]
    with _blaming(path):
        pred = rollout(model, truth.states[0], truth.controls, truth.dt, correct=True)
    err = np.abs(pred.states - truth.states)
    table = np.concatenate([pred.times[..., None], truth.states, pred.states, err], axis=2)
    docs, tables = [], {}
    for name, rows in sets.items():
        ic_max = err[:, rows].max(axis=0)
        worst = ic_max.max(axis=0)
        docs.append({
            "n_ic": rows.stop - rows.start,
            "max_abs_error": {s: float(e) for s, e in zip(names, worst)},
            "per_ic": [{
                "initial_state": [float(v) for v in x0],
                "max_abs_error": {s: float(e) for s, e in zip(names, row)},
            } for x0, row in zip(truth.states[0, rows], ic_max)],
            key: float(worst[:n_head].max()),
        })
        tables[name] = table[:, rows]
    metrics, *band = docs
    metrics["seed"] = cfg.setting("evaluation.seed")
    if band:
        radius_range = cfg.setting("evaluation.extrapolation.radius_range")
        metrics["extrapolation"] = {**band[0], "radius_range": radius_range}
    return metrics, tables


def _write_evaluation(cfg: RunConfig, root: Path, metrics: dict, tables: dict) -> None:
    """Write one model's _evaluate result under root: each set's per-IC CSVs
    in root/<set name>, and its metrics document as root/eval/metrics.json."""
    names = _SYSTEMS[cfg.system]["state_names"]
    header = ["t"] + [f"{kind}_{s}" for kind in ("true", "pred", "abs_err") for s in names]
    for name, table in tables.items():
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
    path = Path(path or cfg.setting("model_path") or out_dir / "model.json")
    if not path.is_file():
        raise FileNotFoundError(f"model file not found: {path}")
    model = load_model(path)[0]
    _check_fit(cfg, path, model.n, model.B.shape[1])
    return path, model


@contextlib.contextmanager
def _blaming(path: Path):
    """Raise a loaded model's DivergedError (a rollout or closed loop that
    blows up, or no stabilizing gain) as one ValueError naming its file."""
    try:
        yield
    except DivergedError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> int:
    model_path, model = _load_model_file(cfg, out_dir)
    metrics, tables = _evaluate(cfg, *_evaluation_sets(cfg), model_path, model)
    _write_evaluation(cfg, out_dir, metrics, tables)
    key, _, unit = _SYSTEMS[cfg.system]["headline"]
    print(f"evaluated {model_path.name} on {metrics['n_ic']} held-out ICs: "
          f"{key.replace('_', ' ')} {metrics[key]:.4g} {unit}")
    return 0


def cmd_control(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.system != "pendulum":
        raise ConfigError("closed-loop control is implemented for the pendulum")
    model_path, model = _load_model_file(cfg, out_dir)
    control = {name: cfg.setting(f"control.{name}") for name in _SECTIONS["control"]}
    q, r = default_weights(
        model.n, model.n_total, model.B.shape[1],
        q_state=float(control["q_state"]),
        r=float(control["r"]),
    )
    x0 = [float(v) for v in control["x0"]]
    with _blaming(model_path):
        gain = dlqr(model.K, model.B, q, r)
        traj = closed_loop_sim(
            model,
            gain,
            _SYSTEMS[cfg.system]["deriv"],
            np.asarray(x0),
            duration=float(control["duration"]),
            dt=float(control["dt"]),
            u_limit=float(control["u_limit"]),
        )
    dest = out_dir / "control"
    names = _SYSTEMS[cfg.system]
    save_dataset([traj], dest, names["state_names"], names["control_names"],
                 manifest_extra={"system": cfg.system, "kind": "closed_loop"},
                 file_names=["closed_loop.csv"])
    threshold = 0.05  # rad, on the pendulum angle
    settle = settling_time(traj, component=0, threshold=threshold)
    metrics = {
        "settling_time_s": settle,
        "settling_threshold_rad": threshold,
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


def cmd_compare(cfg: RunConfig, out_dir: Path) -> int:
    section = cfg.section("compare")
    if not section.get("model_a") or not section.get("model_b"):
        raise ConfigError("compare requires compare.model_a and compare.model_b")
    # Both models and their summaries are loaded and checked, the truth
    # integrated once and both models rolled out before anything is written,
    # so a bad model_b leaves no compare/ file behind.
    models, rows = [], []
    for label in ("model_a", "model_b"):
        path, model = _load_model_file(cfg, out_dir, section[label])
        summary_path = path.parent / "summary.json"
        wall = read_json(summary_path).get("wall_time_s") if summary_path.is_file() else None
        models.append((path, model))
        rows.append({"label": label, "path": str(path), "kind": model.network.kind,
                     "n_params": model.network.n_params, "lifted_size": model.n_total,
                     "train_wall_time_s": wall})
    truth, sets = _evaluation_sets(cfg)
    evaluated = [_evaluate(cfg, truth, sets, path, model) for path, model in models]
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


# name -> (function, the section whose seed --seed sets, help line)
_COMMANDS = {
    "generate": (cmd_generate, "dataset", "write a trajectory dataset"),
    "train": (cmd_train, "train", "fit a lifted linear model on a dataset"),
    "evaluate": (cmd_evaluate, "evaluation",
                 "roll out a trained model on held-out initial conditions"),
    "control": (cmd_control, None, "run the LQR closed loop against the true plant"),
    "compare": (cmd_compare, "evaluation", "evaluate two trained models side by side"),
}


def _resolve_out(flag: str | None, cfg: RunConfig) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    if cfg.setting("out_dir"):
        return Path(cfg.setting("out_dir"))
    return Path("runs") / f"{cfg.system}_{cfg.backend}"


def _seed(text: str):
    """--seed's type: a non-negative integer, else an argparse usage error.
    Read as a config file's integer is, so one past the float range is inf,
    which validate refuses."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return dynamics._int_or_inf(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kooplift",
        description="Learn lifted linear models of nonlinear dynamics and "
                    "use them for prediction and LQR control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config and env)")
        p.add_argument("--seed", type=_seed, help="override the command's seed")
    args = parser.parse_args(argv)
    command, section, _ = _COMMANDS[args.command]
    try:
        cfg = RunConfig.load(args.config, (section, args.seed))
        return command(cfg, _resolve_out(args.out, cfg))
    except ConfigError as exc:
        print(f"config error: {exc} (in {args.config})", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError, DivergedError) as exc:
        # A size in the config too large to allocate: a MemoryError, or numpy's
        # ValueError for an array past the largest it can address.
        too_big = isinstance(exc, MemoryError) or str(exc).startswith(_NUMPY_TOO_BIG)
        print(f"error: {exc}" + f" (in {args.config})" * too_big, file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
