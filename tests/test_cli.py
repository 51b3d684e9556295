"""End-to-end checks of the command-line driver.

Everything runs in-process through cli.main with tiny configs so the whole
file stays fast. Full-size preset configs are only parsed, never trained.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import kooplift
from kooplift import dynamics
from kooplift.cli import _SECTIONS, RunConfig, _evaluate, _evaluation_sets, _train, main
from kooplift.dynamics import (
    TWOBODY_CONTROL_NAMES,
    TWOBODY_STATE_NAMES,
    generate_pendulum_dataset,
    generate_twobody_dataset,
    save_dataset,
    write_csv,
)
from kooplift.kan import SplineGrid, kan_init
from kooplift.koopman import KoopmanModel, load_model, rollout, save_model
from kooplift.mlp import mlp_init
from kooplift.numerics import is_number
from test_koopman import load_history

PRESET_DIR = Path(kooplift.__file__).parent / "presets"
FIXTURE = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures" / \
    "pendulum_kan_model.json"


def write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def pendulum_cfg(tmp_path):
    doc = {
        "system": "pendulum",
        "backend": "kan",
        "dataset": {"n_ic": 4, "seed": 7},
        "network": {"n_observables": 1, "hidden_layers": 1, "neurons": 1},
        "train": {
            "alpha": 5,
            "epochs": 2,
            "optimizer": "lbfgs",
            "learning_rate": 1.0,
            "lbfgs_max_iter": 5,
            "seed": 3,
        },
        "evaluation": {"n_ic": 2, "seed": 90},
        "control": {"x0": [0.4, 0.0], "duration": 4.0, "dt": 0.01},
    }
    return write_config(tmp_path / "cfg.json", doc)


@pytest.fixture
def twobody_cfg(tmp_path):
    doc = {
        "system": "twobody",
        "backend": "kan",
        "dataset": {"n_ic": 2, "seed": 11, "points_per_orbit": 50},
        "network": {"n_observables": 1, "hidden_layers": 1, "neurons": 1},
        "train": {
            "alpha": 3,
            "epochs": 1,
            "optimizer": "lbfgs",
            "learning_rate": 1e-4,
            "lbfgs_max_iter": 3,
            "seed": 5,
        },
        "evaluation": {
            "n_ic": 2,
            "seed": 91,
            "extrapolation": {"n_ic": 1, "radius_range": [11378, 12378]},
        },
    }
    return write_config(tmp_path / "cfg2.json", doc)


def read_bytes_sorted(dirpath):
    return {p.name: p.read_bytes() for p in sorted(Path(dirpath).iterdir())}


def test_generate_writes_dataset(pendulum_cfg, tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "--config", pendulum_cfg, "--out", str(out)]) == 0
    dataset = out / "dataset"
    csvs = sorted(dataset.glob("traj_*.csv"))
    assert len(csvs) == 4
    for p in csvs:
        lines = p.read_text().strip().split("\n")
        # header + 201 samples of a 2 s trajectory at dt 0.01
        assert len(lines) == 202
        assert lines[0] == "t,theta,theta_dot,u"
    with open(dataset / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["n_trajectories"] == 4
    assert manifest["system"] == "pendulum"
    assert manifest["seed"] == 7
    assert "n_ic" not in manifest  # n_trajectories and the files list say it


def test_generate_is_byte_reproducible(pendulum_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", pendulum_cfg, "--out", str(a)]) == 0
    assert main(["generate", "--config", pendulum_cfg, "--out", str(b)]) == 0
    assert read_bytes_sorted(a / "dataset") == read_bytes_sorted(b / "dataset")


def test_seed_flag_overrides_dataset_seed(pendulum_cfg, tmp_path):
    base, same, other = tmp_path / "p", tmp_path / "q", tmp_path / "r"
    main(["generate", "--config", pendulum_cfg, "--out", str(base)])
    main(["generate", "--config", pendulum_cfg, "--out", str(same), "--seed", "7"])
    main(["generate", "--config", pendulum_cfg, "--out", str(other), "--seed", "8"])
    base_files = read_bytes_sorted(base / "dataset")
    assert read_bytes_sorted(same / "dataset") == base_files
    assert read_bytes_sorted(other / "dataset") != base_files


def test_seed_flag_writes_what_the_config_seed_writes(pendulum_cfg, tmp_path, monkeypatch,
                                                     capsys):
    # --seed N is the command's section seed set to N: run "flag" passes N to
    # each command, run "config" holds the same N in its config file; both
    # write the same bytes and print the same lines, the training wall time
    # (in summary.json, compare.json and train's line) aside.
    seeds = {"generate": 12, "train": 13, "evaluate": 14, "compare": 14}
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["compare"] = {"model_a": "run/model.json", "model_b": "run/model.json"}
    runs = {}
    for run in ("flag", "config"):
        if run == "config":
            for section, command in (("dataset", "generate"), ("train", "train"),
                                     ("evaluation", "evaluate")):
                doc[section]["seed"] = seeds[command]
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        cfg = write_config("cfg.json", doc)
        for command, seed in seeds.items():
            flag = ["--seed", str(seed)] if run == "flag" else []
            assert main([command, "--config", cfg, "--out", "run"] + flag) == 0
        files = {str(p): re.sub(rb'wall_time_s": [^,\n]+', b"wall", p.read_bytes())
                 for p in sorted(Path("run").rglob("*")) if p.is_file()}
        runs[run] = files, re.sub(r", [0-9.]+s\n", "s\n", capsys.readouterr().out)
    assert runs["flag"] == runs["config"]
    files = runs["flag"][0]
    # dataset, model, history, summary, eval, compare
    assert len(files) == 4 + 1 + 1 + 1 + 1 + 3 + 2 * 3 + 1
    assert files["run/summary.json"].count(b"wall") == 1
    assert json.loads(files["run/dataset/manifest.json"])["seed"] == 12
    assert json.loads(files["run/model.json"])["config"]["seed"] == 13
    assert json.loads(files["run/eval/metrics.json"])["seed"] == 14


def test_control_ignores_the_seed_flag(pendulum_cfg, tmp_path):
    out = tmp_path / "run"
    for command in ("generate", "train", "control"):
        assert main([command, "--config", pendulum_cfg, "--out", str(out)]) == 0
    before = read_bytes_sorted(out / "control")
    assert main(["control", "--config", pendulum_cfg, "--out", str(out), "--seed", "12"]) == 0
    assert read_bytes_sorted(out / "control") == before


@pytest.mark.parametrize("command, key", [("generate", "dataset.seed"), ("train", "train.seed"),
                                          ("evaluate", "evaluation.seed"),
                                          ("compare", "evaluation.seed")])
def test_seed_flag_past_the_float_range_exits_2(pendulum_cfg, tmp_path, capsys, command, key):
    # The flag's integer is read as a config file's is, so one past the float
    # range is inf, refused as the same seed in the file is: no file written.
    out = tmp_path / "run"
    for step in ("generate", "train"):
        assert main([step, "--config", pendulum_cfg, "--out", str(out)]) == 0
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["compare"] = {"model_a": str(out / "model.json"), "model_b": str(out / "model.json")}
    cfg = write_config(tmp_path / "cmp.json", doc)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out), "--seed", "1" + "0" * 320]) == 2
    assert capsys.readouterr().err == (f"config error: {key} must be a non-negative integer, "
                                       f"got inf (in {cfg})\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_out_flag_beats_env_beats_config(pendulum_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("KOOPLIFT_OUT", str(env_dir))
    assert main(["generate", "--config", pendulum_cfg]) == 0
    assert (env_dir / "dataset" / "manifest.json").is_file()

    flag_dir = tmp_path / "from_flag"
    assert main(["generate", "--config", pendulum_cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "dataset" / "manifest.json").is_file()


def test_train_writes_model_history_summary(pendulum_cfg, tmp_path):
    out = tmp_path / "run"
    main(["generate", "--config", pendulum_cfg, "--out", str(out)])
    assert main(["train", "--config", pendulum_cfg, "--out", str(out)]) == 0

    model, cfg, meta = load_model(out / "model.json")
    assert model.network.kind == "kan"
    assert model.n == 2 and model.n_total == 3
    assert model.network.n_params == 30
    assert cfg.epochs == 2
    assert meta["system"] == "pendulum"

    history = load_history(out / "loss_history.csv")
    assert len(history) == 3  # epochs 0..2
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["n_params"] == 30
    totals = [r.total for r in history]
    assert summary["best_total"] == min(totals)
    assert summary["best_epoch"] == totals.index(min(totals))
    assert summary["wall_time_s"] > 0
    # Two L-BFGS phases of 5 iterations: at least one closure call per
    # iteration plus each phase's first.
    assert summary["stop_reasons"] == ["max_iter", "max_iter"]
    assert summary["closure_evals"] >= 12


def test_trained_model_file_stores_each_fact_once(pendulum_cfg, tmp_path):
    # The network and (K, B) fix the kind, n and n_total, so the file holds
    # none of them besides, and neither does summary.json hold K's shape;
    # loading and saving the model again gives the same bytes.
    out = tmp_path / "run"
    for command in ("generate", "train"):
        assert main([command, "--config", pendulum_cfg, "--out", str(out)]) == 0
    path = out / "model.json"
    doc = json.loads(path.read_text())
    assert list(doc) == ["network", "K", "B", "config", "metadata"]
    assert doc["network"]["kind"] == "kan"
    assert list(doc["metadata"]) == ["system", "dataset"]
    assert "K_shape" not in json.loads((out / "summary.json").read_text())
    model, cfg, meta = load_model(path)
    save_model(model, tmp_path / "again.json", cfg=cfg, metadata=meta)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_train_model_file_is_deterministic(pendulum_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    docs = []
    for out in (a, b):
        main(["generate", "--config", pendulum_cfg, "--out", str(out)])
        main(["train", "--config", pendulum_cfg, "--out", str(out)])
        with open(out / "model.json") as fh:
            doc = json.load(fh)
        del doc["metadata"]["dataset"]  # records the out dir, nothing else varies
        docs.append(doc)
    assert docs[0] == docs[1]
    assert (a / "loss_history.csv").read_bytes() == (b / "loss_history.csv").read_bytes()


def test_evaluate_writes_metrics(pendulum_cfg, tmp_path):
    out = tmp_path / "run"
    main(["generate", "--config", pendulum_cfg, "--out", str(out)])
    main(["train", "--config", pendulum_cfg, "--out", str(out)])
    assert main(["evaluate", "--config", pendulum_cfg, "--out", str(out)]) == 0

    with open(out / "eval" / "metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["n_ic"] == 2
    assert metrics["seed"] == 90
    assert metrics["max_abs_angle_error"] >= 0.0
    assert len(metrics["per_ic"]) == 2
    csvs = sorted((out / "eval").glob("eval_*.csv"))
    assert len(csvs) == 2
    header = csvs[0].read_text().split("\n", 1)[0]
    assert header == ("t,true_theta,true_theta_dot,pred_theta,pred_theta_dot,"
                      "abs_err_theta,abs_err_theta_dot")


def test_control_writes_closed_loop(pendulum_cfg, tmp_path):
    out = tmp_path / "run"
    main(["generate", "--config", pendulum_cfg, "--out", str(out)])
    main(["train", "--config", pendulum_cfg, "--out", str(out)])
    assert main(["control", "--config", pendulum_cfg, "--out", str(out)]) == 0

    closed = out / "control" / "closed_loop.csv"
    assert closed.is_file()
    assert not (out / "control" / "traj_0000.csv").exists()
    with open(out / "control" / "manifest.json") as fh:
        assert [f["name"] for f in json.load(fh)["files"]] == ["closed_loop.csv"]
    lines = closed.read_text().strip().split("\n")
    assert len(lines) == 402  # header + 4 s at dt 0.01
    with open(out / "control" / "control_metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["closed_loop_spectral_radius"] > 0.0
    assert metrics["peak_abs_control"] <= 5.0 + 1e-12


def test_control_unstabilizable_model_exits_1(pendulum_cfg, tmp_path, capsys):
    # Q weighs only the physical block; the lifted coordinate's 1.2 mode is
    # unseen by the cost, so the LQR gain cannot stabilize the model.
    out = tmp_path / "run"
    out.mkdir()
    model = KoopmanModel(network=kan_init([2, 1], SplineGrid(), seed=0),
                         K=np.diag([0.5, 0.5, 1.2]), B=np.ones((3, 1)))
    save_model(model, out / "model.json")
    assert main(["control", "--config", pendulum_cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "spectral radius 1.2 >= 1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "control").exists()


@pytest.mark.parametrize("case, line", [
    ("state-bound", "closed-loop state exceeded |x| = 1000000.0 at step 0"),
    ("non-finite", "non-finite state after RK4 step"),
    ("fine-grid", "non-finite state after RK4 step"),
    ("flipped-B", "closed-loop state exceeded |x| = 1000000.0 at step 423"),
], ids=["state-bound", "non-finite", "fine-grid", "flipped-B"])
def test_control_from_an_overflowing_state_prints_one_line(pendulum_cfg, tmp_path, case, line):
    # A closed loop that blows up names the model file, like a rollout that
    # does. A separate interpreter, so that numpy's overflow warnings would
    # reach stderr.
    doc = json.loads(Path(pendulum_cfg).read_text())
    out = tmp_path / "run"
    out.mkdir()
    path = out / "model.json"
    if case in ("state-bound", "non-finite"):
        # From x0 = 1e308 the lift overflows. With the lifted coordinate coupled
        # into the state, the gain weighs it and the input saturates; without,
        # its gain is 0 and 0 * inf makes the input NaN.
        doc["control"]["x0"] = [1e308, 0.0]
        coupling = 0.1 if case == "state-bound" else 0.0
        net = kan_init([2, 1], SplineGrid(), seed=0)
        net.layers[0].w_base[...] = 2.0
        k = np.array([[0.5, 0.0, coupling], [0.0, 0.5, coupling], [0.0, 0.0, 0.5]])
        save_model(KoopmanModel(network=net, K=k, B=np.ones((3, 1))), path)
    else:
        model = json.loads(FIXTURE.read_text())
        if case == "fine-grid":
            # A valid grid far too fine for the state: the first lift is non-finite.
            model["network"]["grid"].update(lo=0, hi=1e-320)
        else:
            # An input that pushes the wrong way, with room to grow: the
            # default closed loop runs away.
            model["B"] = [[-10 * v for v in row] for row in model["B"]]
            doc["control"] = {"u_limit": 1e9}
        write_config(path, model)
    cfg = write_config(tmp_path / "probe.json", doc)
    src = str(Path(kooplift.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "kooplift", "control", "--config", cfg,
                           "--out", str(out)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {path}: {line}\n")
    assert not (out / "control").exists()


@pytest.mark.parametrize("points, alpha", [(10, 15), (10, 10)])
def test_twobody_alpha_not_below_points_per_orbit_exits_2(twobody_cfg, tmp_path, capsys,
                                                           points, alpha):
    doc = json.loads(Path(twobody_cfg).read_text())
    doc["dataset"]["points_per_orbit"], doc["train"]["alpha"] = points, alpha
    cfg = write_config(tmp_path / "short.json", doc)
    for command in ("generate", "train"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: train.alpha must be a positive integer below "
                       f"dataset.points_per_orbit = {points}, got {alpha} (in {cfg})\n")
    assert not (tmp_path / "run").exists()


def test_train_names_first_csv_shorter_than_alpha(twobody_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--config", twobody_cfg, "--out", str(out)]) == 0
    manifest_path = out / "dataset" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    short = out / "dataset" / manifest["files"][1]["name"]
    short.write_text("".join(short.read_text().splitlines(keepends=True)[:7]))
    manifest["files"][1]["n_samples"] = 6
    manifest_path.write_text(json.dumps(manifest))
    doc = json.loads(Path(twobody_cfg).read_text())
    doc["train"]["alpha"] = 6
    cfg = write_config(tmp_path / "alpha6.json", doc)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {short}: 6 states, but train.alpha = 6 needs at least 7\n")


def test_twobody_pipeline_with_extrapolation(twobody_cfg, tmp_path):
    out = tmp_path / "orbit"
    assert main(["generate", "--config", twobody_cfg, "--out", str(out)]) == 0
    csvs = sorted((out / "dataset").glob("traj_*.csv"))
    assert len(csvs) == 2
    # header + points_per_orbit samples, no control column
    lines = csvs[0].read_text().strip().split("\n")
    assert len(lines) == 51
    assert lines[0] == "t,x,y,vx,vy"

    assert main(["train", "--config", twobody_cfg, "--out", str(out)]) == 0
    model, _, _ = load_model(out / "model.json")
    assert model.n == 4 and model.n_total == 5
    assert model.B.shape == (5, 0)

    assert main(["evaluate", "--config", twobody_cfg, "--out", str(out)]) == 0
    with open(out / "eval" / "metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["max_abs_position_error"] >= 0.0
    assert metrics["extrapolation"]["n_ic"] == 1
    assert metrics["extrapolation"]["radius_range"] == [11378, 12378]
    assert (out / "eval_extrapolation" / "eval_000.csv").is_file()


def test_band_without_radius_range_reports_the_range_it_draws_from(twobody_cfg, tmp_path):
    # A band that leaves radius_range out draws from the training range, and
    # metrics.json names that range rather than null.
    doc = json.loads(Path(twobody_cfg).read_text())
    doc["evaluation"]["extrapolation"] = {"n_ic": 1}
    cfg = write_config(tmp_path / "band.json", doc)
    save_model(KoopmanModel(network=kan_init([4, 1], SplineGrid(), seed=0), K=np.eye(5),
                            B=np.zeros((5, 0))), tmp_path / "model.json")
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 0
    band = json.loads((tmp_path / "eval" / "metrics.json").read_text())["extrapolation"]
    assert band["radius_range"] == [6578.0, 11378.0]
    x0 = band["per_ic"][0]["initial_state"]
    assert 6578.0 <= np.hypot(x0[0], x0[1]) <= 11378.0


def _evaluate_set_alone(model, trajs, dest):
    """One evaluation set generated, rolled out and written on its own, the
    way evaluate handled each set before it batched them: per-IC CSVs and
    the set's metrics dict."""
    names = TWOBODY_STATE_NAMES
    dest.mkdir(parents=True)
    truth = np.stack([t.states for t in trajs], axis=1)
    pred = rollout(model, truth[0], np.stack([t.controls for t in trajs], axis=1),
                   np.array([t.dt for t in trajs]), correct=True)
    err = np.abs(pred.states - truth)
    header = ["t"] + [f"{kind}_{s}" for kind in ("true", "pred", "abs_err") for s in names]
    table = np.concatenate([pred.times[..., None], truth, pred.states, err], axis=2)
    for i in range(len(trajs)):
        write_csv(dest / f"eval_{i:03d}.csv", header, table[:, i])
    ic_max = err.max(axis=0)
    worst = ic_max.max(axis=0)
    return {
        "n_ic": len(trajs),
        "max_abs_error": dict(zip(names, worst.tolist())),
        "per_ic": [{"initial_state": x0.tolist(), "max_abs_error": dict(zip(names, row.tolist()))}
                   for x0, row in zip(truth[0], ic_max)],
        "max_abs_position_error": float(max(worst[0], worst[1])),
    }


@pytest.mark.parametrize("seed", [91, 901, 15001, None])
def test_twobody_evaluate_matches_sets_evaluated_alone(twobody_cfg, tmp_path, seed):
    # The held-out set (3 ICs) and the extrapolation band (2 ICs) share one
    # integration and one rollout; each set's files must be those of the set
    # generated, rolled out and written on its own. seed None drops the
    # evaluation section: the 3 default ICs at seed 900 and no band.
    doc = json.loads(Path(twobody_cfg).read_text())
    del doc["evaluation"]
    if seed is not None:
        doc["evaluation"] = {"n_ic": 3, "seed": seed,
                             "extrapolation": {"n_ic": 2, "radius_range": [11378, 12378]}}
    cfg = write_config(tmp_path / "eval.json", doc)
    out = tmp_path / "run"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0

    model = load_model(out / "model.json")[0]
    ref = tmp_path / "ref"
    n_csv = {"eval": 3}
    metrics = _evaluate_set_alone(model, generate_twobody_dataset(3, seed or 900, 50), ref / "eval")
    metrics["seed"] = seed or 900
    if seed is not None:
        band = generate_twobody_dataset(2, seed + 1, 50, (11378.0, 12378.0))
        metrics["extrapolation"] = _evaluate_set_alone(model, band, ref / "eval_extrapolation")
        metrics["extrapolation"]["radius_range"] = [11378, 12378]
        n_csv["eval_extrapolation"] = 2
    with open(ref / "eval" / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")
    assert sorted(p.name for p in out.glob("eval*")) == sorted(n_csv)
    for name, n in n_csv.items():
        files = read_bytes_sorted(out / name)
        assert len([f for f in files if f.endswith(".csv")]) == n
        assert files == read_bytes_sorted(ref / name)


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.float64(a.dt).tobytes() == np.float64(b.dt).tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.controls.tobytes() == b.controls.tobytes()


def test_evaluate_and_compare_integrate_the_truth_once(twobody_cfg, tmp_path, monkeypatch):
    # Every evaluation set of a command, the two-body band included, is
    # integrated in one dynamics.simulate call, shared by compare's models.
    out = tmp_path / "run"
    for command in ("generate", "train"):
        assert main([command, "--config", twobody_cfg, "--out", str(out)]) == 0
    other = tmp_path / "other.json"
    save_model(KoopmanModel(network=kan_init([4, 1], SplineGrid(), seed=0), K=np.eye(5),
                            B=np.zeros((5, 0))), other)
    doc = json.loads(Path(twobody_cfg).read_text())
    doc["compare"] = {"model_a": str(out / "model.json"), "model_b": str(other)}
    cfg = write_config(tmp_path / "cmp.json", doc)
    calls = []
    simulate = dynamics.simulate

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "simulate", counted)
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [3, 3]  # 2 held-out ICs and 1 band IC, once per command
    report = json.loads((out / "compare" / "compare.json").read_text())
    assert [row["metrics"]["extrapolation"]["n_ic"] for row in report["models"]] == [1, 1]


def test_run_path_runs_without_the_cli(pendulum_cfg, tmp_path):
    # The steps train and evaluate call compute in memory: one RunConfig, its
    # train seed changed in the doc, gives per seed the loss history and the
    # metrics.json document that the commands write for that seed.
    cfg = RunConfig.load(pendulum_cfg)
    trajs = generate_pendulum_dataset(4, 7)  # the config's dataset section
    truth, sets = _evaluation_sets(cfg)
    for seed in (3, 4):
        cfg.doc["train"]["seed"] = seed
        cfg.validate()
        model, history, summary = _train(cfg, trajs)
        metrics, tables = _evaluate(cfg, truth, sets, "model.json", model)
        assert summary["best_total"] == min(row.total for row in history)
        assert list(tables) == ["eval"] and tables["eval"].shape == (201, 2, 7)

        out = tmp_path / f"seed{seed}"
        for command in ("generate", "train", "evaluate"):
            argv = [command, "--config", pendulum_cfg, "--out", str(out)]
            assert main(argv + ["--seed", str(seed)] * (command == "train")) == 0
        # save_history writes "%.17g", which reads back to the same float.
        assert ([astuple(row)[:4] for row in load_history(out / "loss_history.csv")]
                == [astuple(row)[:4] for row in history])
        assert (out / "eval" / "metrics.json").read_text() == json.dumps(metrics, indent=2) + "\n"


def test_pendulum_preset_evaluation_set_is_the_generated_dataset():
    cfg = RunConfig.load(PRESET_DIR / "pendulum_kan.json")
    truth, sets = _evaluation_sets(cfg)
    assert sets == {"eval": slice(0, 5)}
    assert_same_trajectories(truth.unstack(), generate_pendulum_dataset(5, 900))


def test_twobody_preset_evaluation_sets_are_the_generated_datasets():
    cfg = RunConfig.load(PRESET_DIR / "twobody_kan.json")
    truth, sets = _evaluation_sets(cfg)
    assert sets == {"eval": slice(0, 3), "eval_extrapolation": slice(3, 6)}
    # Python ints, which metrics.json's n_ic can hold
    assert all(type(b) is int for rows in sets.values() for b in (rows.start, rows.stop))
    trajs = truth.unstack()
    assert_same_trajectories(trajs[sets["eval"]], generate_twobody_dataset(3, 901))
    assert_same_trajectories(trajs[sets["eval_extrapolation"]],
                             generate_twobody_dataset(3, 902, 800, (11378.0, 12500.0)))


def test_twobody_compare_with_a_band_writes_evaluate_trees(twobody_cfg, tmp_path):
    # compare runs evaluate's protocol on each model: with both models the one
    # evaluate saw, each compare/<label>/ tree is evaluate's, byte for byte.
    out = tmp_path / "run"
    for command in ("generate", "train", "evaluate"):
        assert main([command, "--config", twobody_cfg, "--out", str(out)]) == 0
    doc = json.loads(Path(twobody_cfg).read_text())
    doc["compare"] = {"model_a": str(out / "model.json"), "model_b": str(out / "model.json")}
    cfg = write_config(tmp_path / "cmp.json", doc)
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "compare").iterdir()) == [
        "compare.json", "model_a", "model_b"]
    for label in ("model_a", "model_b"):
        tree = out / "compare" / label
        assert sorted(p.name for p in tree.iterdir()) == ["eval", "eval_extrapolation"]
        for name in ("eval", "eval_extrapolation"):
            assert read_bytes_sorted(tree / name) == read_bytes_sorted(out / name)
    report = json.loads((out / "compare" / "compare.json").read_text())
    assert sorted(report) == ["a_over_b_error_ratio", "models", "system"]
    metrics = json.loads((out / "eval" / "metrics.json").read_text())
    assert metrics["max_abs_position_error"] > 0
    assert metrics["extrapolation"]["max_abs_position_error"] > 0
    assert [row["metrics"] for row in report["models"]] == [metrics, metrics]
    assert [row["label"] for row in report["models"]] == ["model_a", "model_b"]
    assert report["a_over_b_error_ratio"] == 1


def test_compare_same_model_gives_unit_ratio(pendulum_cfg, tmp_path):
    out = tmp_path / "run"
    main(["generate", "--config", pendulum_cfg, "--out", str(out)])
    main(["train", "--config", pendulum_cfg, "--out", str(out)])

    with open(pendulum_cfg) as fh:
        doc = json.load(fh)
    doc["compare"] = {
        "model_a": str(out / "model.json"),
        "model_b": str(out / "model.json"),
    }
    cmp_cfg = write_config(Path(pendulum_cfg).parent / "cmp.json", doc)
    assert main(["compare", "--config", cmp_cfg, "--out", str(out)]) == 0

    with open(out / "compare" / "compare.json") as fh:
        report = json.load(fh)
    assert len(report["models"]) == 2
    assert report["models"][0]["n_params"] == report["models"][1]["n_params"]
    if report["a_over_b_error_ratio"] is not None:
        assert report["a_over_b_error_ratio"] == pytest.approx(1.0)
    assert [row["label"] for row in report["models"]] == ["model_a", "model_b"]


def test_missing_config_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", "--config", str(bad)]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"system": "pendulum", "backend": "kan", "bogus": 1},
    )
    assert main(["generate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown key(s) at the top level: bogus (in {cfg})\n")


@pytest.mark.parametrize("command, section, key", [
    ("generate", "dataset", "nic"),
    ("train", "train", "shape"),
    ("train", "train", "grid"),
    ("train", "train", "corrected_pred_loss"),
    ("train", "network", "neuron"),
    ("evaluate", "evaluation", "nic"),
    ("evaluate", "evaluation.extrapolation", "seed"),
    ("control", "control", "x_0"),
    ("compare", "compare", "model_c"),
])
def test_unknown_section_key_exits_2(pendulum_cfg, tmp_path, capsys, command, section, key):
    doc = json.loads(Path(pendulum_cfg).read_text())
    if section == "evaluation.extrapolation":
        doc["evaluation"]["extrapolation"] = {"n_ic": 1, key: 3}
    else:
        doc.setdefault(section, {})[key] = [2, 9]
    cfg = write_config(tmp_path / "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: unknown key(s) in section {section!r}: {key} "
                   f"(in {cfg})\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, missing", [
    ({"backend": "kan"}, "system"),
    ({"system": "pendulum"}, "backend"),
    ({}, "backend, system"),
], ids=["system", "backend", "both"])
def test_config_without_system_or_backend_exits_2(tmp_path, capsys, doc, missing):
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"config error: missing key(s) {missing} (in {cfg})\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section", ["network.grid", "evaluation.extrapolation"])
@pytest.mark.parametrize("value", [1, 0, False, "", []], ids=repr)
def test_subsection_that_is_not_an_object_exits_2(twobody_cfg, tmp_path, capsys, section,
                                                  value):
    top, sub = section.split(".")
    doc = json.loads(Path(twobody_cfg).read_text())
    doc[top][sub] = value
    cfg = write_config(tmp_path / "bad.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (f"config error: config section {section!r} must be "
                                       f"an object (in {cfg})\n")
    assert not (tmp_path / "run").exists()


def test_every_numeric_config_default_is_of_its_kind():
    # validate checks only the keys a config sets, so the table's defaults
    # must hold to their own kinds.
    numeric = [(f"{section}.{name}", default, kind) for section, keys in _SECTIONS.items()
               for name, (default, kind) in keys.items()
               if kind not in (None, "path string") and default is not None]
    assert len(numeric) == 11
    assert [key for key, default, kind in numeric if not is_number(default, kind)] == []


def test_bad_system_exits_2(tmp_path, capsys):
    for system in ("lorenz", [], {}):
        cfg = write_config(tmp_path / "cfg.json", {"system": system, "backend": "kan"})
        assert main(["generate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (f"config error: system must be one of "
                                           f"['pendulum', 'twobody'], got {system!r} (in {cfg})\n")


def test_bad_backend_exits_2(tmp_path, capsys):
    for backend in ("poly", [], {}):
        cfg = write_config(tmp_path / "cfg.json", {"system": "pendulum", "backend": backend})
        assert main(["generate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (f"config error: backend must be one of "
                                           f"['kan', 'mlp'], got {backend!r} (in {cfg})\n")


def test_evaluate_without_model_exits_1(pendulum_cfg, tmp_path):
    out = tmp_path / "empty"
    assert main(["evaluate", "--config", pendulum_cfg, "--out", str(out)]) == 1


def test_train_without_dataset_exits_1(pendulum_cfg, tmp_path):
    out = tmp_path / "empty"
    assert main(["train", "--config", pendulum_cfg, "--out", str(out)]) == 1


def _evaluate_broken_model(cfg, tmp_path, capsys, edit, network=None):
    """Run evaluate on a saved model document changed by edit; return (path, stderr).

    The model lifts by one coordinate, through network or a [2, 1] KAN."""
    out = tmp_path / "run"
    out.mkdir()
    path = out / "model.json"
    model = KoopmanModel(network=network or kan_init([2, 1], SplineGrid(), seed=0),
                         K=np.eye(3), B=np.zeros((3, 1)))
    save_model(model, path)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    write_config(path, doc)
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 1
    return str(path), capsys.readouterr().err


def test_model_missing_key_exits_1(pendulum_cfg, tmp_path, capsys):
    path, err = _evaluate_broken_model(pendulum_cfg, tmp_path, capsys,
                                       lambda doc: doc.pop("K"))
    assert path in err and "missing key(s) K" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


NON_FINITE = "K, B and the network parameters must be finite"
KIND = "network must be an object with a kind in ['kan', 'mlp'], got kind"
GRID_HI = "hi must be a number above lo ="
KNOTS = "that keeps the knots finite and strictly increasing"


@pytest.mark.parametrize("edit, detail, mlp", [
    (lambda doc: doc["network"].pop("layers"), "bad network section: missing key 'layers'",
     False),
    (_set(["network"], "x"), f"{KIND} None", False),
    (_set(["network"], []), f"{KIND} None", False),
    (lambda doc: doc["network"].pop("kind"), f"{KIND} None", False),
    (_set(["network", "kind"], "poly"), f"{KIND} 'poly'", False),
    (_set(["network", "kind"], ["kan"]), f"{KIND} ['kan']", False),
    (_set(["config"], {"alpha": 2, "bogus": 1}), "bad config section: ", False),
    (_set(["network", "layers", 0, "coeffs"], [[1.0]]),
     "bad network section: layer shapes (coeffs, w_base, w_spline) [((1, 1), (1, 2), (1, 2))] "
     "do not fit shape [2, 1] with 8 bases per edge", False),
    (_set(["network", "grid", "order"], 0),
     "bad network section: order must be a positive integer, got 0", False),
    (_set(["network", "grid", "intervals"], 2.5),
     "bad network section: intervals must be a positive integer, got 2.5", False),
    (_set(["network", "grid", "lo"], "a"),
     "bad network section: lo must be a finite number, got 'a'", False),
    (_set(["network", "grid", "hi"], 10**400),
     f"bad network section: {GRID_HI} -3.0 {KNOTS}, got inf", False),
    (_set(["network", "grid"], {"lo": -1e308, "hi": 1e308, "intervals": 5, "order": 3}),
     f"bad network section: {GRID_HI} -1e+308 {KNOTS}, got 1e+308", False),
    (_set(["network", "grid"], {"lo": 1e16, "hi": 10000000000000004, "intervals": 5,
                                "order": 3}),
     f"bad network section: {GRID_HI} 1e+16 {KNOTS}, got 10000000000000004", False),
    (_set(["network", "shape", 1], 10**400),
     "bad network section: shape width must be a positive integer, got inf", False),
    (_set(["network", "shape", 1], 3.5),
     "bad network section: shape width must be a positive integer, got 3.5", True),
    (_set(["network", "shape", 0], "2"),
     "bad network section: shape width must be a positive integer, got '2'", False),
    (_set(["network", "shape", 0], 2.9),
     "bad network section: shape width must be a positive integer, got 2.9", False),
    (_set(["network", "shape", 1], True),
     "bad network section: shape width must be a positive integer, got True", False),
    (_set(["network", "shape"], [2]),
     "bad network section: shape must list >= 2 layer widths, got [2]", False),
    (_set(["network", "kind"], "mlp"), "bad network section: missing key 'weights'", False),
    (_set(["network", "biases", 1], [0.0, 0.0]),
     "bad network section: weight and bias shapes [(3, 2), (1, 3), (3,), (2,)] do not fit "
     "shape [2, 3, 1]", True),
    (_set(["config"], {"lbfgs_max_iter": 0}),
     "bad config section: lbfgs_max_iter must be a positive integer, got 0", False),
    (_set(["config"], {"alpha": 1.5}),
     "bad config section: alpha must be a positive integer, got 1.5", False),
    (_set(["K"], np.eye(4).tolist()), "K (4, 4) and B (3, 1) do not fit n_total=3", False),
    (_set(["B"], [[0.0]] * 4), "K (3, 3) and B (4, 1) do not fit n_total=3", False),
    (_set(["K"], np.eye(5).tolist()), "K (5, 5) and B (3, 1) do not fit n_total=3", True),
    (_set(["K", 1], [1.0]), "K and B must be matrices of numbers", False),
    (_set(["K", 0, 0], "0.5"), "K and B must be matrices of numbers", False),
    (_set(["B", 2, 0], True), "K and B must be matrices of numbers", False),
    (_set(["network", "weights", 0, 1, 0], "0.5"),
     "bad network section: weights must hold only numbers, got '0.5'", True),
    (_set(["network", "biases", 0, 1], False),
     "bad network section: biases must hold only numbers, got False", True),
    (_set(["network", "layers", 0, "w_base", 0, 1], None),
     "bad network section: w_base must hold only numbers, got None", False),
    (_set(["K", 0, 0], float("nan")), NON_FINITE, False),
    (_set(["K", 0, 0], 10**400), NON_FINITE, False),
    (_set(["B", 2, 0], float("-inf")), NON_FINITE, False),
    (_set(["network", "layers", 0, "coeffs", 0, 1, 4], float("inf")), NON_FINITE, False),
    (_set(["network", "layers", 0, "coeffs", 0, 1, 4], -10**400), NON_FINITE, False),
    (_set(["network", "biases", 0, 2], float("nan")), NON_FINITE, True),
], ids=["no-layers", "network-str", "network-list", "network-kind-missing",
        "network-kind-unknown", "network-kind-list", "config-unknown-key", "coeffs-shape",
        "grid-order-0", "grid-intervals-float", "grid-lo-str", "grid-hi-int-past-float",
        "grid-knots-overflow", "grid-knots-collapse", "shape-int-past-float",
        "mlp-shape-float", "shape-str", "shape-float", "shape-bool", "shape-one-width",
        "network-kind", "mlp-bias-shape", "config-lbfgs_max_iter-0", "config-alpha-float",
        "K-4x4", "B-4-rows", "mlp-K-5x5", "K-ragged", "K-str", "B-bool", "mlp-weight-str",
        "mlp-bias-bool", "w_base-null", "K-nan", "K-int-past-float", "B-inf",
        "coeffs-inf", "coeffs-int-past-float", "mlp-bias-nan"])
def test_model_malformed_network_or_config_exits_1(pendulum_cfg, tmp_path, capsys, edit,
                                                   detail, mlp):
    network = mlp_init([2, 3, 1], seed=0) if mlp else None
    path, err = _evaluate_broken_model(pendulum_cfg, tmp_path, capsys, edit, network)
    assert err.startswith(f"error: {path}: {detail}")
    assert err.count("\n") == 1 and "Traceback" not in err
    # control loads the model the same way.
    assert main(["control", "--config", pendulum_cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("key, shape", [("K", (3, 2)), ("B", (2, 1))], ids=["K", "B"])
def test_model_wrong_operator_shape_exits_1(pendulum_cfg, tmp_path, capsys, key, shape):
    def edit(doc):
        doc[key] = np.zeros(shape).tolist()

    path, err = _evaluate_broken_model(pendulum_cfg, tmp_path, capsys, edit)
    assert path in err and f"{key} {shape}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_model_not_json_exits_1(pendulum_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    path = out / "model.json"
    model = KoopmanModel(network=kan_init([2, 1], SplineGrid(), seed=0),
                         K=np.eye(3), B=np.zeros((3, 1)))
    save_model(model, path)
    path.write_text(path.read_text()[:200])
    assert main(["evaluate", "--config", pendulum_cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "not valid JSON" in err
    assert err.count("\n") == 1 and "Traceback" not in err


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("target", ["config", "model", "manifest"])
def test_json_nested_too_deeply_is_one_line(pendulum_cfg, tmp_path, capsys, target):
    # The parser gives up past the interpreter's recursion limit; that is
    # invalid JSON, with the config's exit code 2 and the data's 1.
    out = tmp_path / "run"
    for command in ("generate", "train"):
        assert main([command, "--config", pendulum_cfg, "--out", str(out)]) == 0
    path = {"config": Path(pendulum_cfg), "model": out / "model.json",
            "manifest": out / "dataset" / "manifest.json"}[target]
    key = {"config": "dataset", "model": "K", "manifest": "files"}[target]
    path.write_text(path.read_text().replace(f'"{key}": ', f'"{key}": {DEEP}, "_": ', 1))
    capsys.readouterr()
    command = "train" if target == "manifest" else "evaluate"
    code = main([command, "--config", pendulum_cfg, "--out", str(out)])
    err = capsys.readouterr().err
    if target == "config":
        assert code == 2 and err.startswith("config error: not valid JSON (")
        assert err.endswith(f" (in {path})\n")
    else:
        assert code == 1 and err.startswith(f"error: {path}: not valid JSON (")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, system", [
    ("evaluate", "twobody"), ("compare", "twobody"), ("evaluate", "pendulum"),
    ("control", "pendulum"), ("train", "pendulum"),
], ids=["evaluate-pendulum-model", "compare-pendulum-model", "evaluate-twobody-model",
        "control-twobody-model", "train-twobody-dataset"])
def test_model_or_dataset_of_the_other_system_exits_1(pendulum_cfg, twobody_cfg, tmp_path,
                                                      capsys, command, system):
    # The model (or, for train, the dataset) is the other system's.
    doc = json.loads(Path(pendulum_cfg if system == "pendulum" else twobody_cfg).read_text())
    out = tmp_path / "run"
    n, p = (4, 0) if system == "pendulum" else (2, 1)
    if command == "train":
        path = save_dataset(generate_twobody_dataset(1, 0, 5), out / "dataset",
                            TWOBODY_STATE_NAMES, TWOBODY_CONTROL_NAMES)
    else:
        out.mkdir()
        path = out / "model.json"
        save_model(KoopmanModel(network=kan_init([n, 1], SplineGrid(), seed=0), K=np.eye(n + 1),
                                B=np.zeros((n + 1, p))), path)
        doc["compare"] = {"model_a": str(path), "model_b": str(path)}
    cfg = write_config(tmp_path / "other.json", doc)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    want = (2, 1) if system == "pendulum" else (4, 0)
    assert capsys.readouterr().err == (f"error: {path}: {n} states and {p} inputs do not fit "
                                       f"the {system} system's {want[0]} and {want[1]}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, edit, detail", [
    ("evaluate", _set(["K", 0, 0], 1e308), "rollout produced non-finite state at step "),
    ("compare", _set(["K", 0, 0], 1e308), "rollout produced non-finite state at step "),
    ("control", _set(["K", 0, 0], 1e308), "Riccati iteration did not converge"),
    ("control", _set(["B"], [[0.0]] * 3), "Riccati iteration did not converge"),
], ids=["evaluate-huge-K", "compare-huge-K", "control-huge-K", "control-zero-B"])
def test_diverging_or_unstabilizable_model_names_its_file(pendulum_cfg, tmp_path, capsys,
                                                          command, edit, detail):
    out = tmp_path / "run"
    out.mkdir()
    path = out / "model.json"
    doc = json.loads(FIXTURE.read_text())
    edit(doc)
    write_config(path, doc)
    cfg = json.loads(Path(pendulum_cfg).read_text())
    cfg["compare"] = {"model_a": str(path), "model_b": str(path)}
    cfg = write_config(tmp_path / "probe.json", cfg)
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {detail}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_truncated_dataset_csv_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": "pendulum", "backend": "kan", "dataset": {"n_ic": 3, "seed": 7},
        "train": {"alpha": 5, "epochs": 1, "optimizer": "lbfgs", "lbfgs_max_iter": 2},
    })
    out = tmp_path / "run"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    path = out / "dataset" / "traj_0001.csv"
    path.write_bytes(path.read_bytes()[:3000])
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "the manifest says 201" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "model.json").exists()


def test_dataset_csv_that_is_not_utf8_names_the_file(pendulum_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--config", pendulum_cfg, "--out", str(out)]) == 0
    path = out / "dataset" / "traj_0003.csv"
    data = bytearray(path.read_bytes())
    data[23] = 0xFF
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["train", "--config", pendulum_cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 23: "
        "invalid start byte\n")
    assert not (out / "model.json").exists()


def test_pendulum_alpha_beyond_trajectory_exits_2(pendulum_cfg, tmp_path, capsys):
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["train"]["alpha"] = 500
    cfg = write_config(tmp_path / "long_alpha.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "fresh")]) == 2
    assert not (tmp_path / "fresh").exists()
    # With a dataset and a model in place, every command still refuses the config.
    out = str(tmp_path / "run")
    for command in ("generate", "train"):
        assert main([command, "--config", pendulum_cfg, "--out", out]) == 0
    files = lambda: {p: p.read_bytes() for p in sorted(Path(out).rglob("*")) if p.is_file()}
    before = files()
    for command in ("generate", "train", "evaluate", "control"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"config error: train.alpha must be in [1, 200] (in {cfg})\n")
    assert files() == before


@pytest.mark.parametrize("text, detail", [("{bad", "not valid JSON ("),
                                          ("[1]", "not a JSON object (")],
                         ids=["truncated", "not-object"])
def test_compare_bad_summary_exits_1(pendulum_cfg, tmp_path, capsys, text, detail):
    run = tmp_path / "run"
    run.mkdir()
    model_path = run / "model.json"
    save_model(KoopmanModel(network=kan_init([2, 1], SplineGrid(), seed=0),
                            K=np.eye(3), B=np.zeros((3, 1))), model_path)
    summary = run / "summary.json"
    summary.write_text(text)
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["compare"] = {"model_a": str(model_path), "model_b": str(model_path)}
    cfg = write_config(tmp_path / "cmp.json", doc)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {summary}: {detail}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bad", ["missing", "not-json", "other-system", "bad-summary",
                                 "diverges"])
def test_compare_bad_model_b_writes_nothing(pendulum_cfg, tmp_path, capsys, bad):
    # model_a is good; model_b and its summary are checked, and both models
    # rolled out, before model_a's CSVs are written, so the error leaves no
    # compare/ file behind.
    for name, n, p in (("a", 2, 1), ("b", 4, 0) if bad == "other-system" else ("b", 2, 1)):
        (tmp_path / name).mkdir()
        save_model(KoopmanModel(network=kan_init([n, 1], SplineGrid(), seed=0), K=np.eye(n + 1),
                                B=np.zeros((n + 1, p))),
                   tmp_path / name / "model.json")
    path = tmp_path / "b" / ("summary.json" if bad == "bad-summary" else "model.json")
    if bad == "missing":
        path.unlink()
    elif bad in ("not-json", "bad-summary"):
        path.write_text("{bad")
    elif bad == "diverges":
        doc = json.loads(FIXTURE.read_text())
        _set(["K", 0, 0], 1e308)(doc)
        write_config(path, doc)
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["compare"] = {"model_a": str(tmp_path / "a" / "model.json"),
                      "model_b": str(tmp_path / "b" / "model.json")}
    cfg = write_config(tmp_path / "cmp.json", doc)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "compare").exists()


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("files"),
    lambda m: [m],
    lambda m: "{bad",
    lambda m: m["files"][0].update(dt=-1),
    lambda m: m.update(files=[]),
    lambda m: m["files"][1].update(dt=float("nan")),
    lambda m: m["files"][0].update(name=3),
    lambda m: m["files"][1].update(n_samples="201"),
    lambda m: m.update(state_names=2),
    lambda m: m["files"].__setitem__(0, "traj_0000.csv"),
    lambda m: m["files"][1].update(n_samples=0),
    lambda m: m["files"][0].update(dt=10**400),
], ids=["no-files", "list", "truncated", "dt-negative", "files-empty", "dt-nan", "name-int",
        "n_samples-str", "state_names-int", "entry-str", "n_samples-0", "dt-int-past-float"])
def test_malformed_manifest_exits_1(pendulum_cfg, tmp_path, capsys, edit):
    # edit changes the manifest in place or returns what replaces it.
    out = tmp_path / "run"
    assert main(["generate", "--config", pendulum_cfg, "--out", str(out)]) == 0
    path = out / "dataset" / "manifest.json"
    manifest = json.loads(path.read_text())
    new = edit(manifest)
    path.write_text(new if isinstance(new, str) else json.dumps(manifest if new is None else new))
    capsys.readouterr()
    assert main(["train", "--config", pendulum_cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
def test_out_path_that_is_a_file_exits_1(pendulum_cfg, tmp_path, capsys, command):
    # --out names a regular file: generate fails at once, train after training
    # and evaluate after its rollout, each with one line, leaving the file be.
    run = tmp_path / "run"
    for step in ("generate", "train"):
        assert main([step, "--config", pendulum_cfg, "--out", str(run)]) == 0
    doc = json.loads(Path(pendulum_cfg).read_text())
    if command != "generate":
        doc["dataset"]["path"], doc["model_path"] = str(run / "dataset"), str(run / "model.json")
    cfg = write_config(tmp_path / "elsewhere.json", doc)
    out = tmp_path / "a_file"
    out.write_bytes(b"not a directory\n")
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("preset, section, key", [
    ("pendulum_kan.json", "dataset", "n_ic"),
    ("twobody_kan.json", "dataset", "points_per_orbit"),
    ("twobody_kan.json", "dataset", "n_ic"),
])
def test_size_too_large_to_allocate_exits_1(tmp_path, capsys, preset, section, key):
    # numpy refuses these arrays (146 TiB, 8.5 PiB and 291 TiB) before
    # allocating them, and before any per-IC draw.
    doc = json.loads((PRESET_DIR / preset).read_text())
    doc[section][key] = 10**13
    cfg = write_config(tmp_path / "huge.json", doc)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip("\n").endswith(f"(in {cfg})")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key, value", [
    ("generate", "dataset.n_ic", 10**20),
    ("evaluate", "evaluation.n_ic", 10**20),
    ("control", "control.duration", 1e300),
])
def test_size_past_numpy_largest_array_names_the_config(pendulum_cfg, tmp_path, capsys,
                                                        command, key, value):
    # numpy refuses an array past the largest it can address with a ValueError,
    # not a MemoryError; the line still names the config.
    doc = json.loads(Path(pendulum_cfg).read_text())
    section, name = key.split(".")
    doc[section][name] = value
    doc["model_path"] = str(FIXTURE)
    cfg = write_config(tmp_path / "huge.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip("\n").endswith(f"(in {cfg})")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("n_ic", [0, -2, 1.5, "3"])
def test_bad_evaluation_n_ic_exits_2(pendulum_cfg, tmp_path, capsys, n_ic):
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["evaluation"]["n_ic"] = n_ic
    cfg = write_config(tmp_path / "bad_eval.json", doc)
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "evaluation.n_ic must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("train", "network.n_observables", "abc"),
    ("train", "network.hidden_layers", 1.5),
    ("train", "network.neurons", 0),
    ("generate", "dataset.seed", "x"),
    ("train", "train.seed", -1),
    ("evaluate", "evaluation.seed", 2.0),
    ("control", "control.dt", 0),
    ("control", "control.duration", float("nan")),
    ("evaluate", "evaluation.n_ic", True),
    ("train", "train.alpha", 1.5),
    ("train", "train.epochs", True),
    ("train", "train.epochs", -1),
    ("train", "train.lbfgs_max_iter", 0),
    ("train", "train.lbfgs_history", "10"),
    ("generate", "dataset.points_per_orbit", 1.5),
    ("control", "control.u_limit", "a"),
    ("control", "control.u_limit", float("inf")),
    ("control", "control.q_state", "a"),
    ("control", "control.q_state", 0),
    ("control", "control.r", 0),
    ("control", "control.r", -1.0),
    ("control", "control.x0", "ab"),
    ("control", "control.x0", [1.0]),
    ("control", "control.x0", [1.0, float("nan")]),
    ("control", "control.x0", [True, 0.0]),
    ("train", "train.gamma", -1.0),
    ("train", "train.beta", float("nan")),
    ("train", "train.weight_decay", "0"),
    ("train", "train.lambda_l1", -0.5),
    ("train", "train.lambda_l2", float("inf")),
    ("train", "train.learning_rate", 0),
    ("train", "train.learning_rate", float("inf")),
    ("train", "train.batch_size", 0),
    ("train", "train.batch_size", True),
    ("train", "train.batch_size", 2.5),
    ("train", "train.optimizer", "sgd"),
    ("evaluate", "evaluation.extrapolation.n_ic", "3"),
    ("evaluate", "evaluation.extrapolation.n_ic", 1.5),
    ("evaluate", "evaluation.extrapolation.n_ic", 0),
    ("evaluate", "evaluation.radius_range", [1]),
    ("evaluate", "evaluation.radius_range", "abc"),
    ("evaluate", "evaluation.radius_range", [True, 3]),
    ("evaluate", "evaluation.radius_range", [9000, 7000]),
    ("evaluate", "evaluation.extrapolation.radius_range", [1]),
    ("evaluate", "evaluation.extrapolation.radius_range", [1, 2, 3]),
    ("train", "network.grid.intervals", 2.5),
    ("train", "network.grid.order", True),
    ("evaluate", "model_path", 5),
    ("generate", "dataset.path", 5),
    ("compare", "compare.model_a", 5),
    ("compare", "compare.model_b", ["a.json"]),
    ("train", "out_dir", False),
    ("evaluate", "evaluation.radius_range", [1, 2]),
    ("evaluate", "evaluation.extrapolation", {"n_ic": 4, "radius_range": [1, 2]}),
    ("generate", "dataset.points_per_orbit", 7),
    ("control", "control.duration", 0.001),
    ("control", "control.duration", 1e308),
    ("control", "control.duration", 10**400),
    ("control", "control.x0", [10**400, 0.0]),
    ("train", "train.learning_rate", 10**400),
    ("train", "train.gamma", 10**400),
    ("train", "train.beta", 10**400),
    ("train", "train.lambda_l1", 10**400),
    ("train", "train.lambda_l2", 10**400),
    ("train", "network.grid.lo", -10**400),
    ("train", "network.grid.hi", 10**400),
    ("train", "network.grid.hi", 1.7e308),
    ("train", "network.grid.hi", -2.9999999999999996),
    ("evaluate", "twobody:evaluation.radius_range", [1, 10**400]),
    ("evaluate", "twobody:evaluation.extrapolation.radius_range", [1, 10**400]),
    ("evaluate", "twobody:evaluation.radius_range", [1e-200, 1e-200]),
    ("evaluate", "twobody:evaluation.radius_range", [1e200, 1e200]),
    ("evaluate", "twobody:evaluation.extrapolation.radius_range", [1, 1e308]),
], ids=["n_observables-str", "hidden_layers-float", "neurons-zero", "dataset-seed-str",
        "train-seed-negative", "evaluation-seed-float", "dt-zero", "duration-nan",
        "n_ic-bool", "alpha-float", "epochs-bool", "epochs-negative", "lbfgs_max_iter-zero",
        "lbfgs_history-str", "points_per_orbit-float", "u_limit-str", "u_limit-inf",
        "q_state-str", "q_state-zero", "r-zero", "r-negative", "x0-str", "x0-short",
        "x0-nan", "x0-bool", "gamma-negative", "beta-nan", "weight_decay-str",
        "lambda_l1-negative", "lambda_l2-inf", "learning_rate-zero", "learning_rate-inf",
        "batch_size-zero", "batch_size-bool", "batch_size-float", "optimizer-unknown",
        "extrapolation-n_ic-str", "extrapolation-n_ic-float", "extrapolation-n_ic-zero",
        "radius_range-short", "radius_range-str", "radius_range-bool", "radius_range-reversed",
        "extrapolation-radius_range-short", "extrapolation-radius_range-long",
        "grid-intervals-float", "grid-order-bool", "model_path-int", "dataset-path-int",
        "compare-model_a-int", "compare-model_b-list", "out_dir-bool",
        "pendulum-radius_range", "pendulum-extrapolation", "pendulum-points_per_orbit",
        "duration-under-half-dt", "duration-steps-past-float", "duration-int-past-float",
        "x0-int-past-float", "learning_rate-int-past-float", "gamma-int-past-float",
        "beta-int-past-float", "lambda_l1-int-past-float", "lambda_l2-int-past-float",
        "grid-lo-int-past-float", "grid-hi-int-past-float", "grid-knots-overflow",
        "grid-knots-collapse", "radius_range-int-past-float",
        "extrapolation-radius_range-int-past-float", "radius_range-step-zero",
        "radius_range-step-inf", "extrapolation-radius_range-step-inf"])
def test_bad_config_value_exits_2(pendulum_cfg, twobody_cfg, tmp_path, capsys, command, key,
                                  value):
    # A key written "twobody:<key>" is set in the two-body config.
    system, _, key = key.rpartition(":")
    doc = json.loads(Path(twobody_cfg if system else pendulum_cfg).read_text())
    *sections, name = key.split(".")
    section = doc
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = value
    cfg = write_config(tmp_path / "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be a ")
    assert err.rstrip("\n").endswith(f"(in {cfg})")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_integer_past_the_digit_limit_names_its_key(pendulum_cfg, tmp_path, capsys):
    # json.dumps refuses a 5,001-digit int, so the config is written as text.
    text = Path(pendulum_cfg).read_text()
    assert '"learning_rate": 1.0' in text
    cfg = tmp_path / "digits.json"
    cfg.write_text(text.replace('"learning_rate": 1.0', '"learning_rate": 1' + "0" * 5000))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == ("config error: train.learning_rate must be a positive "
                                       f"finite number, got inf (in {cfg})\n")


def test_grid_too_fine_for_its_data_prints_one_line(pendulum_cfg, tmp_path, capsys):
    # A valid grid whose step (1e-321) makes the basis quotients overflow:
    # training stops at its finiteness check, with no numpy warning.
    out = str(tmp_path / "run")
    assert main(["generate", "--config", pendulum_cfg, "--out", out]) == 0
    doc = json.loads(Path(pendulum_cfg).read_text())
    doc["network"]["grid"] = {"lo": 0, "hi": 1e-320}
    cfg = write_config(tmp_path / "fine.json", doc)
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == ("error: training diverged at epoch 0: "
                                       "non-finite lifted data\n")


def test_grid_of_integers_whose_spread_overflows_exits_2(pendulum_cfg, tmp_path, capsys):
    # Each end fits a float, but hi - lo, an exact Python integer, does not.
    doc = json.loads(Path(pendulum_cfg).read_text())
    big = int(1.7e308)
    doc["network"]["grid"] = {"lo": -big, "hi": big, "intervals": 1}
    cfg = write_config(tmp_path / "grid.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: network.grid.hi must be a number above lo = {-big}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "train"])
def test_negative_seed_flag_exits_2(pendulum_cfg, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", pendulum_cfg, "--out", str(tmp_path / "run"),
              "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.rstrip("\n").endswith(
        "error: argument --seed: must be a non-negative integer, got '-1'")
    assert not (tmp_path / "run").exists()


def test_python_m_kooplift_help():
    src = str(Path(kooplift.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-m", "kooplift", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: kooplift")


def test_presets_parse_with_expected_sizes():
    expected = {
        "pendulum_kan.json": ([2, 1], 30),
        "pendulum_mlp.json": ([2, 6, 6, 6, 6, 6, 6, 6, 6, 2], 326),
        "twobody_kan.json": ([4, 1, 1, 1, 1], 70),
        "twobody_mlp.json": ([4, 25, 25, 25, 6], 1581),
    }
    for name, (shape, n_params) in expected.items():
        cfg = RunConfig.load(PRESET_DIR / name)
        assert cfg.network_shape() == shape
        if cfg.backend == "kan":
            net = kan_init(shape, cfg.spline_grid(), seed=0)
        else:
            net = mlp_init(shape, seed=0)
        assert net.n_params == n_params


def test_kan_presets_use_fewer_params_than_mlp():
    for system in ("pendulum", "twobody"):
        kan_cfg = RunConfig.load(PRESET_DIR / f"{system}_kan.json")
        mlp_cfg = RunConfig.load(PRESET_DIR / f"{system}_mlp.json")
        kan_net = kan_init(kan_cfg.network_shape(), kan_cfg.spline_grid(), seed=0)
        mlp_net = mlp_init(mlp_cfg.network_shape(), seed=0)
        assert kan_net.n_params < mlp_net.n_params
