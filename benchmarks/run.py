"""kooplift benchmark: four workloads, end-to-end metrics and a traced run.

    python3 benchmarks/run.py --workload pendulum_kan [--seed N] \
        [--seconds 10] [--trace 0|1]

Workloads (see benchmarks/README.md for why each was chosen):
pendulum_kan, twobody_kan, pendulum_mlp_scaled, pendulum_kan_infer.

Each workload is a closed loop with a single caller. Every pass runs in a
fresh interpreter (worker.py) with a fresh run directory, and passes repeat
until --seconds have gone by. The seed picks the held-out inputs; without
--seed the preset's own evaluation seed is used.

--trace 0 reports the end-to-end metrics from untraced passes, with set-up
sampled at least SETUP_SAMPLES times. --trace 1 runs one untraced pass and
then traced passes, and reports the per-layer metrics and the tracing
overhead. Both print a readable report, write a result file under
.bench_runs/results/, and end with one JSON line: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS
from worker import FINGERPRINTS, ROOT, RUN_ROOT, UNITS, WORKLOADS, default_seed

WORKER = Path(__file__).resolve().parent / "worker.py"
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, started: float, spans: Path | None = None,
          setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_ROOT))
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--run-dir", str(run_dir)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if setup_only:
        argv.append("--setup-only")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    try:
        t0 = time.monotonic()
        proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run(workload: str, seed: int, seconds: float, trace: bool):
    started = time.monotonic()
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    results = RUN_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)

    baseline = [spawn(workload, seed, started)] if trace else []
    passes = []
    while not passes or time.monotonic() - started < seconds:
        spans = results / f"{stem}-pass{len(passes)}-spans.json" if trace else None
        passes.append(spawn(workload, seed, started, spans=spans))
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, started, setup_only=True)["setup_s"])

    every = baseline + passes
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    problems = [msg for p in every for msg in p["problems"]]
    report = {name: median(p["metrics"].get(name) for p in passes)
              for name in passes[0]["metrics"]}
    report["setup_s"] = median(setups)
    report["fail_frac"] = failed / attempted

    reference = json.loads(FINGERPRINTS.read_text())["workloads"].get(workload)
    fingerprints = [p["fingerprint"] for p in every]
    bit_identical = (None if reference is None
                     else all(f == reference for f in fingerprints))

    if trace:
        layers = {name: median(p["layers"].get(name) for p in passes)
                  for name in LAYER_METRICS}
        layers["trace.overhead_s"] = (report["wall_s"]
                                      - median(p["metrics"]["wall_s"] for p in baseline))
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items() if value is not None}
    else:
        metrics = {name: {"value": report[name], "unit": UNITS[name]}
                   for name in END_TO_END}

    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "setup_samples": len(setups),
        "report": report, "bit_identical": bit_identical,
        "fingerprint": fingerprints[0], "reference_fingerprint": reference,
        "problems": problems, "env": passes[0]["env"],
        "pass_records": every,
    }
    if trace:
        summary["unmeasured"] = sorted({n for p in passes for n in p["unmeasured"]})
        summary["missing_sites"] = sorted({s for p in passes for s in p["missing_sites"]})
        summary["lbfgs"] = passes[0]["lbfgs"]
        summary["layers"] = layers
    result_file = results / f"{stem}.json"
    result_file.write_text(json.dumps(summary, indent=1) + "\n")

    print(f"workload {workload}  seed {seed}  passes {len(passes)}"
          f"  setup samples {len(setups)}  trace {int(trace)}")
    for name, value in report.items():
        unit = UNITS.get(name, "")
        if name == "fail_frac":
            print(f"  {name:<22} {fmt(value)} ({failed}/{attempted} ops)")
        else:
            print(f"  {name:<22} {fmt(value)} {unit}")
    print(f"  {'bit_identical':<22} {fmt(bit_identical).lower()}"
          f"  (fingerprint {fingerprints[0]})")
    if trace:
        for name, value in layers.items():
            print(f"  {name:<30} {fmt(value)} {units[name]}")
        for name in summary["unmeasured"]:
            print(f"  unmeasured: {name} (no span entered; its metrics are left out)")
        for site in summary["missing_sites"]:
            print(f"  missing binding site: {site}")
        for epoch, r in enumerate(summary["lbfgs"]):
            print(f"  lbfgs epoch {epoch}: n_iter {r['n_iter']}  n_evals {r['n_evals']}"
                  f"  stop {r['stop_reason']}")
    for msg in problems:
        print(f"  failed: {msg}")
    env = summary["env"]
    print(f"  env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']},"
          f" numpy {env['numpy']}, {env['blas']}, blas threads"
          f" {env['blas_threads']}")
    print(f"  result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kooplift benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="held-out input seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting passes until this many seconds passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kooplift" / "cli.py").is_file():
        print(f"error: no kooplift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = default_seed(args.workload) if args.seed is None else args.seed
    RUN_ROOT.mkdir(exist_ok=True)
    try:
        run(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
