"""One pass of one kooplift benchmark workload, in a fresh interpreter.

run.py starts this file once per pass, so every pass pays interpreter start,
imports and input generation the way each `kooplift` command does:

    python3 benchmarks/worker.py --workload pendulum_kan --seed 900 \
        --run-dir DIR --t0 T [--spans FILE] [--setup-only]

T is time.monotonic() in the parent just before the spawn; CLOCK_MONOTONIC
is system-wide on Linux, so set-up time includes interpreter start. With
--spans the pass runs traced and writes its spans to FILE. The last line of
standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRESETS = ROOT / "src" / "kooplift" / "presets"
FIXTURE = HERE / "fixtures" / "pendulum_kan_model.json"
FINGERPRINTS = HERE / "fingerprints.json"
RUN_ROOT = ROOT / ".bench_runs"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# Acceptance criterion 7's model (500 ICs, [2, 6x8, 2], Adam), trained for
# 20 of its 100 epochs so that one pass stays under 20 s.
MLP_SCALED = {
    "system": "pendulum",
    "backend": "mlp",
    "dataset": {"n_ic": 500, "seed": 101},
    "network": {"n_observables": 2, "hidden_layers": 8, "neurons": 6},
    "train": {"alpha": 25, "gamma": 0.0, "beta": 1.0, "epochs": 20,
              "optimizer": "adam", "learning_rate": 1e-3, "batch_size": 4096,
              "seed": 0},
    "evaluation": {"n_ic": 5, "seed": 900},
}

_PIPELINE_LAYERS = {
    "cli.main", "koopman.train", "koopman.build_snapshots", "koopman.fit_edmdc",
    "numerics.pinv", "dynamics.simulate", "dynamics.save_dataset",
    "dynamics.load_dataset", "koopman.rollout", "koopman.lift",
    "koopman.load_model",
}
_KAN_FIT_LAYERS = {"kan.forward", "kan.backward", "optim.lbfgs", "optim.closure"}
_CONTROL_LAYERS = {"control.dlqr", "numerics.solve_dare", "control.closed_loop_sim"}

# commands: the CLI pipeline, in order (None for the library workload).
# layers: the traced spans the workload must enter (the coverage check).
# angle_limit / position_limit_km: the acceptance criteria's accuracy limits.
WORKLOADS = {
    "pendulum_kan": {
        "config": "pendulum_kan.json",
        "commands": ("generate", "train", "evaluate", "control"),
        "layers": _PIPELINE_LAYERS | _KAN_FIT_LAYERS | _CONTROL_LAYERS
        | {"dynamics.generate_pendulum_dataset"},
        "angle_limit": 0.2,
    },
    "twobody_kan": {
        "config": "twobody_kan.json",
        "commands": ("generate", "train", "evaluate"),
        "layers": _PIPELINE_LAYERS | _KAN_FIT_LAYERS
        | {"dynamics.generate_twobody_dataset"},
        "position_limit_km": 3.0,
    },
    "pendulum_mlp_scaled": {
        "config": MLP_SCALED,
        "commands": ("generate", "train", "evaluate"),
        "layers": _PIPELINE_LAYERS
        | {"mlp.forward", "mlp.backward", "optim.adamw_step",
           "dynamics.generate_pendulum_dataset"},
        "angle_limit": 0.5,
    },
    "pendulum_kan_infer": {
        "config": "pendulum_kan.json",
        "commands": None,
        "layers": _CONTROL_LAYERS
        | {"kan.forward", "koopman.lift", "koopman.rollout", "koopman.load_model",
           "dynamics.simulate", "dynamics.generate_pendulum_dataset"},
        "angle_limit": 0.2,
    },
}

INFER_ROLLOUTS = 200
INFER_CONTROL_OPS = 20
INFER_X0_BOX = 2.0  # control initial states ~ U[-2, 2]^2, the training IC box

UNITS = {
    "setup_s": "s", "wall_s": "s", "generate_s": "s", "train_s": "s",
    "evaluate_s": "s", "control_s": "s", "rollout_p50_ms": "ms",
    "rollout_p95_ms": "ms", "control_p50_ms": "ms", "peak_rss_mb": "MB",
    "angle_err_rad": "rad", "angle_err_max_rad": "rad", "pos_err_km": "km",
    "settle_s": "s",
}


def pin_blas() -> dict:
    """Pin BLAS to one thread; this only works before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def load_config(workload: str) -> dict:
    config = WORKLOADS[workload]["config"]
    if isinstance(config, dict):
        return json.loads(json.dumps(config))
    return json.loads((PRESETS / config).read_text())


def default_seed(workload: str) -> int:
    """The preset's own held-out evaluation seed."""
    return int(load_config(workload)["evaluation"]["seed"])


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def model_digest(model) -> str:
    """Digest of the network weights, K and B as loaded by the library."""
    return _digest(model.network.get_params().tobytes(), model.K.tobytes(),
                   model.B.tobytes())


def history_digest(path: Path) -> str:
    """Digest of the epoch, recon, pred and total columns of loss_history.csv."""
    with open(path, newline="") as fh:
        rows = [[row[k] for k in ("epoch", "recon", "pred", "total")]
                for row in csv.DictReader(fh)]
    return _digest(json.dumps(rows).encode())


def environment(blas_threads: dict) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    provenance = json.loads(FIXTURE.read_text())["metadata"]["provenance"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "fixture": provenance,
    }


class Ops:
    """Counts attempted and failed operations and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def pipeline_setup(workload: str, seed: int, run_dir: Path):
    from kooplift import cli

    config = run_dir / "config.json"
    config.write_text(json.dumps(load_config(workload)))
    return cli, config


def pipeline_body(workload: str, seed: int, run_dir: Path, state, ops: Ops):
    """generate -> train -> evaluate [-> control] through kooplift.cli.main."""
    cli, config = state
    spec = WORKLOADS[workload]
    metrics, codes = {}, {}
    started = time.monotonic()
    for command in spec["commands"]:
        argv = [command, "--config", str(config), "--out", str(run_dir)]
        if command == "evaluate":
            argv += ["--seed", str(seed)]
        t = time.monotonic()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[command] = cli.main(argv)
        except Exception:
            traceback.print_exc()
            codes[command] = None
        metrics[f"{command}_s"] = time.monotonic() - t
    metrics["wall_s"] = time.monotonic() - started

    checks = {command: code == 0 for command, code in codes.items()}
    evaluation = _read_json(run_dir / "eval" / "metrics.json") or {}
    if "angle_limit" in spec:
        err = evaluation.get("max_abs_angle_error")
        checks["evaluate"] &= err is not None and err <= spec["angle_limit"]
        metrics["angle_err_rad"] = err
    else:
        errs = [evaluation.get("max_abs_position_error"),
                (evaluation.get("extrapolation") or {}).get("max_abs_position_error")]
        checks["evaluate"] &= all(e is not None and e <= spec["position_limit_km"]
                                  for e in errs)
        metrics["pos_err_km"] = errs[0]
    if "control" in codes:
        loop = _read_json(run_dir / "control" / "control_metrics.json") or {}
        settle = loop.get("settling_time_s")
        checks["control"] &= (settle is not None
                              and loop.get("closed_loop_spectral_radius", 1.0) < 1.0)
        metrics["settle_s"] = settle
    for command, ok in checks.items():
        ops.record(ok, f"{command}: exit code {codes[command]} or a failed check")

    from kooplift import koopman

    try:
        model, _, _ = koopman.load_model(run_dir / "model.json")
        fingerprint = {"loss_history": history_digest(run_dir / "loss_history.csv"),
                       "model": model_digest(model)}
    except (OSError, ValueError, KeyError):
        fingerprint = {}
    return metrics, fingerprint


def infer_setup(workload: str, seed: int, run_dir: Path):
    import numpy as np
    from kooplift import control, dynamics, koopman

    model, _, _ = koopman.load_model(FIXTURE)
    truths = dynamics.generate_pendulum_dataset(INFER_ROLLOUTS, seed)
    x0s = np.random.default_rng(seed).uniform(
        -INFER_X0_BOX, INFER_X0_BOX, size=(INFER_CONTROL_OPS, 2))
    section = load_config(workload)["control"]
    q, r = control.default_weights(model.n, model.n_total, model.B.shape[1],
                                   q_state=section["q_state"], r=section["r"])
    return model, truths, x0s, q, r, section


def infer_body(workload: str, seed: int, run_dir: Path, state, ops: Ops):
    """200 corrected rollouts, then 20 control ops (dlqr + 1000-step closed loop)."""
    import numpy as np
    from kooplift import control, dynamics, koopman

    model, truths, x0s, q, r, section = state
    rollout_ms, errors, control_ms, settles, gains = [], [], [], [], []
    started = time.monotonic()
    for truth in truths:
        t = time.monotonic()
        try:
            pred = koopman.rollout(model, truth.states[0], truth.controls, truth.dt,
                                   correct=True)
        except Exception:
            traceback.print_exc()
            pred = None
        rollout_ms.append(1e3 * (time.monotonic() - t))
        ok = pred is not None and pred.states.shape == truth.states.shape
        if ok:
            errors.append(float(np.max(np.abs(pred.states[:, 0] - truth.states[:, 0]))))
        ops.record(ok, "rollout raised or returned the wrong shape")
    for x0 in x0s:
        t = time.monotonic()
        try:
            gain = control.dlqr(model.K, model.B, q, r)
            loop = control.closed_loop_sim(
                model, gain, dynamics.pendulum_deriv, x0,
                duration=section["duration"], dt=section["dt"],
                u_limit=section["u_limit"])
        except Exception:
            traceback.print_exc()
            loop = None
        control_ms.append(1e3 * (time.monotonic() - t))
        ok = loop is not None
        if ok:
            settle = control.settling_time(loop, component=0, threshold=0.05)
            rho = control.spectral_radius(model.K - model.B @ gain.F)
            ok = settle is not None and rho < 1.0
            settles.append(settle)
            gains.append(gain.F)
        ops.record(ok, f"control op from {x0.tolist()} raised or did not settle")
    wall = time.monotonic() - started

    # The acceptance check takes the maximum over 5 held-out ICs, which is
    # about the 87th percentile of the per-IC error. Over 200 ICs the 95th
    # percentile is the matching statistic, and it is no looser.
    all_settled = len(settles) == len(x0s) and None not in settles
    limit = WORKLOADS[workload]["angle_limit"]
    p95_err = float(np.percentile(errors, 95)) if errors else None
    if p95_err is None or p95_err > limit:
        ops.problems.append(f"95th percentile angle error {p95_err} > {limit} rad")
    metrics = {
        "wall_s": wall,
        "rollout_p50_ms": float(np.percentile(rollout_ms, 50)),
        "rollout_p95_ms": float(np.percentile(rollout_ms, 95)),
        "control_p50_ms": float(np.percentile(control_ms, 50)),
        "angle_err_rad": p95_err,
        "angle_err_max_rad": max(errors, default=None),
        "settle_s": max(settles) if all_settled else None,
    }
    fingerprint = {"model": model_digest(model)}
    if gains:
        fingerprint["lqr_gain"] = _digest(gains[0].tobytes())
    return metrics, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one kooplift benchmark pass")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float,
                        help="time.monotonic() in the parent at spawn")
    parser.add_argument("--spans", type=Path, help="trace the pass; write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    blas_threads = pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.install()
    if WORKLOADS[args.workload]["commands"] is None:
        setup, body = infer_setup, infer_body
    else:
        setup, body = pipeline_setup, pipeline_body
    state = setup(args.workload, args.seed, args.run_dir)
    record = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        ops = Ops()
        metrics, fingerprint = body(args.workload, args.seed, args.run_dir, state, ops)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update(metrics=metrics, fingerprint=fingerprint,
                      attempted=ops.attempted, failed=ops.failed,
                      problems=ops.problems, env=environment(blas_threads))
        if tracer is not None:
            record.update(tracer.report(WORKLOADS[args.workload]["layers"]))
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
