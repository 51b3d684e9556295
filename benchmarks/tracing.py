"""Spans around kooplift's public functions, recorded from outside the package.

install() replaces each traced function by a timing wrapper at every place
it is bound: its module attribute, each by-name import in another module,
the backend dispatch tables in koopman, and class attributes for the
optimizers. Nothing in src/ changes. A binding site that no longer exists
is listed in `missing_sites`; a layer the workload should have entered but
did not is reported as unmeasured, by name, and never as 0 s.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _rows(args, kwargs, result) -> int:
    """Rows of the input batch of a network call (1 for a single state)."""
    shape = getattr(args[1], "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _steps(args, kwargs, result) -> int:
    """Steps of a returned Trajectory."""
    return result.controls.shape[0]


def _rows_written(args, kwargs, result) -> int:
    return sum(traj.states.shape[0] for traj in args[0])


def _rows_read(args, kwargs, result) -> int:
    return sum(traj.states.shape[0] for traj in result)


# span name -> (binding sites, work counter). A site is "module:attr",
# "module:Class.attr" or "module:table[key]".
SITES = {
    "kan.forward": (["kooplift.kan:kan_forward", "kooplift.koopman:_FORWARD[kan]"], _rows),
    "kan.backward": (["kooplift.kan:kan_backward", "kooplift.koopman:_BACKWARD[kan]"], _rows),
    "mlp.forward": (["kooplift.mlp:mlp_forward", "kooplift.koopman:_FORWARD[mlp]"], _rows),
    "mlp.backward": (["kooplift.mlp:mlp_backward", "kooplift.koopman:_BACKWARD[mlp]"], _rows),
    "optim.adamw_step": (["kooplift.optim:AdamW.step"], None),
    "koopman.train": (["kooplift.koopman:train", "kooplift.cli:train"], None),
    "koopman.build_snapshots": (["kooplift.koopman:build_snapshots"], None),
    "koopman.fit_edmdc": (["kooplift.koopman:fit_edmdc"], None),
    "numerics.pinv": (["kooplift.numerics:pinv", "kooplift.koopman:pinv"], None),
    "koopman.lift": (["kooplift.koopman:lift", "kooplift.control:lift"], _rows),
    "koopman.rollout": (["kooplift.koopman:rollout", "kooplift.cli:rollout"], _steps),
    "koopman.load_model": (["kooplift.koopman:load_model", "kooplift.cli:load_model"], None),
    "dynamics.simulate": (["kooplift.dynamics:simulate"], _steps),
    "dynamics.generate_pendulum_dataset": (
        ["kooplift.dynamics:generate_pendulum_dataset",
         "kooplift.cli:generate_pendulum_dataset"], None),
    "dynamics.generate_twobody_dataset": (
        ["kooplift.dynamics:generate_twobody_dataset",
         "kooplift.cli:generate_twobody_dataset"], None),
    "dynamics.save_dataset": (
        ["kooplift.dynamics:save_dataset", "kooplift.cli:save_dataset"], _rows_written),
    "dynamics.load_dataset": (
        ["kooplift.dynamics:load_dataset", "kooplift.cli:load_dataset"], _rows_read),
    "control.dlqr": (["kooplift.control:dlqr", "kooplift.cli:dlqr"], None),
    "numerics.solve_dare": (
        ["kooplift.numerics:solve_dare", "kooplift.control:solve_dare"], None),
    "control.closed_loop_sim": (
        ["kooplift.control:closed_loop_sim", "kooplift.cli:closed_loop_sim"], _steps),
    "cli.main": (["kooplift.cli:main"], None),
}
LBFGS_SITE = "kooplift.optim:Lbfgs.minimize"


class Summary:
    """Inclusive time, self time, calls and work per span name."""

    def __init__(self, spans):
        covered = [0.0] * len(spans)
        for name, parent, start, end, work in spans:
            if parent >= 0:
                covered[parent] += end - start
        self._agg = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for index, (name, parent, start, end, work) in enumerate(spans):
            agg = self._agg[name]
            agg[0] += end - start
            agg[1] += end - start - covered[index]
            agg[2] += 1
            agg[3] += work

    def time(self, name: str) -> float:
        return self._agg[name][0] if name in self._agg else 0.0

    def self_time(self, name: str) -> float:
        return self._agg[name][1] if name in self._agg else 0.0

    def calls(self, name: str) -> int:
        return self._agg[name][2] if name in self._agg else 0

    def work(self, name: str) -> int:
        return self._agg[name][3] if name in self._agg else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (unit, spans it is read from, value from (Summary, L-BFGS results)).
LAYER_METRICS = {
    "kan.forward_s": ("s", ("kan.forward",), lambda s, lb: s.time("kan.forward")),
    "kan.forward_calls": ("count", ("kan.forward",), lambda s, lb: s.calls("kan.forward")),
    "kan.forward_rows": ("count", ("kan.forward",), lambda s, lb: s.work("kan.forward")),
    "kan.backward_s": ("s", ("kan.backward",), lambda s, lb: s.time("kan.backward")),
    "kan.backward_calls": ("count", ("kan.backward",), lambda s, lb: s.calls("kan.backward")),
    "kan.backward_rows": ("count", ("kan.backward",), lambda s, lb: s.work("kan.backward")),
    "kan.rows_per_forward_call": (
        "rows/call", ("kan.forward",),
        lambda s, lb: _ratio(s.work("kan.forward"), s.calls("kan.forward"))),
    "mlp.forward_s": ("s", ("mlp.forward",), lambda s, lb: s.time("mlp.forward")),
    "mlp.forward_calls": ("count", ("mlp.forward",), lambda s, lb: s.calls("mlp.forward")),
    "mlp.forward_rows": ("count", ("mlp.forward",), lambda s, lb: s.work("mlp.forward")),
    "mlp.backward_s": ("s", ("mlp.backward",), lambda s, lb: s.time("mlp.backward")),
    "mlp.backward_calls": ("count", ("mlp.backward",), lambda s, lb: s.calls("mlp.backward")),
    "mlp.backward_rows": ("count", ("mlp.backward",), lambda s, lb: s.work("mlp.backward")),
    "optim.adamw_steps": (
        "count", ("optim.adamw_step",), lambda s, lb: s.calls("optim.adamw_step")),
    "optim.adamw_step_s": (
        "s", ("optim.adamw_step",), lambda s, lb: s.time("optim.adamw_step")),
    "optim.lbfgs_s": ("s", ("optim.lbfgs",), lambda s, lb: s.time("optim.lbfgs")),
    "optim.closure_s": ("s", ("optim.closure",), lambda s, lb: s.time("optim.closure")),
    "optim.closure_evals": (
        "count", ("optim.lbfgs",), lambda s, lb: sum(r["n_evals"] for r in lb)),
    # The closures are the only spans inside minimize, so its self time is
    # minimize time minus closure time.
    "optim.lbfgs_self_s": (
        "s", ("optim.lbfgs", "optim.closure"), lambda s, lb: s.self_time("optim.lbfgs")),
    "optim.lbfgs_iters": (
        "count", ("optim.lbfgs",), lambda s, lb: sum(r["n_iter"] for r in lb)),
    "optim.evals_per_iter": (
        "evals/iter", ("optim.lbfgs",),
        lambda s, lb: _ratio(sum(r["n_evals"] for r in lb), sum(r["n_iter"] for r in lb))),
    # The L-BFGS closure is koopman's loss-and-gradient code called through
    # the optimizer, so its self time (forcing sum, loss assembly) counts here.
    "koopman.train_self_s": (
        "s", ("koopman.train",),
        lambda s, lb: s.self_time("koopman.train") + s.self_time("optim.closure")),
    "koopman.build_snapshots_s": (
        "s", ("koopman.build_snapshots",), lambda s, lb: s.time("koopman.build_snapshots")),
    "koopman.fit_edmdc_s": (
        "s", ("koopman.fit_edmdc",), lambda s, lb: s.time("koopman.fit_edmdc")),
    "koopman.fit_edmdc_calls": (
        "count", ("koopman.fit_edmdc",), lambda s, lb: s.calls("koopman.fit_edmdc")),
    "numerics.pinv_s": ("s", ("numerics.pinv",), lambda s, lb: s.time("numerics.pinv")),
    "numerics.pinv_calls": (
        "count", ("numerics.pinv",), lambda s, lb: s.calls("numerics.pinv")),
    "dynamics.simulate_s": (
        "s", ("dynamics.simulate",), lambda s, lb: s.time("dynamics.simulate")),
    "dynamics.simulate_calls": (
        "count", ("dynamics.simulate",), lambda s, lb: s.calls("dynamics.simulate")),
    "dynamics.rk4_steps": (
        "count", ("dynamics.simulate",), lambda s, lb: s.work("dynamics.simulate")),
    "dynamics.save_dataset_s": (
        "s", ("dynamics.save_dataset",), lambda s, lb: s.time("dynamics.save_dataset")),
    "dynamics.load_dataset_s": (
        "s", ("dynamics.load_dataset",), lambda s, lb: s.time("dynamics.load_dataset")),
    "dynamics.csv_rows": (
        "count", ("dynamics.save_dataset", "dynamics.load_dataset"),
        lambda s, lb: s.work("dynamics.save_dataset") + s.work("dynamics.load_dataset")),
    "cli.self_s": ("s", ("cli.main",), lambda s, lb: s.self_time("cli.main")),
    "koopman.rollout_s": (
        "s", ("koopman.rollout",), lambda s, lb: s.time("koopman.rollout")),
    "koopman.rollout_calls": (
        "count", ("koopman.rollout",), lambda s, lb: s.calls("koopman.rollout")),
    "koopman.rollout_steps": (
        "count", ("koopman.rollout",), lambda s, lb: s.work("koopman.rollout")),
    "control.dlqr_s": ("s", ("control.dlqr",), lambda s, lb: s.time("control.dlqr")),
    "numerics.solve_dare_s": (
        "s", ("numerics.solve_dare",), lambda s, lb: s.time("numerics.solve_dare")),
    "numerics.solve_dare_calls": (
        "count", ("numerics.solve_dare",), lambda s, lb: s.calls("numerics.solve_dare")),
    "control.closed_loop_sim_s": (
        "s", ("control.closed_loop_sim",), lambda s, lb: s.time("control.closed_loop_sim")),
    "control.closed_loop_steps": (
        "count", ("control.closed_loop_sim",),
        lambda s, lb: s.work("control.closed_loop_sim")),
}


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self.lbfgs: list[dict] = []
        self.missing_sites: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def _wrap_minimize(self, minimize):
        """Time Lbfgs.minimize, time each call of the fun passed to it, and
        keep n_iter, n_evals and stop_reason of every returned LbfgsResult."""

        def traced(opt, fun, *args, **kwargs):
            result = minimize(opt, self.wrap("optim.closure", fun), *args, **kwargs)
            self.lbfgs.append({"n_iter": result.n_iter, "n_evals": result.n_evals,
                               "stop_reason": result.stop_reason})
            return result

        return self.wrap("optim.lbfgs", functools.wraps(minimize)(traced))

    def patch(self, site: str, make_wrapper) -> None:
        module_name, _, path = site.partition(":")
        owner = importlib.import_module(module_name)
        *parents, last = path.split(".")
        key = None
        if last.endswith("]"):
            last, key = last[:-1].split("[")
        try:
            for part in parents:
                owner = getattr(owner, part)
            if key is None:
                setattr(owner, last, make_wrapper(getattr(owner, last)))
            else:
                table = getattr(owner, last)
                table[key] = make_wrapper(table[key])
        except (AttributeError, KeyError, TypeError):
            self.missing_sites.append(site)

    def report(self, expected_layers) -> dict:
        """Per-layer metrics, the layers left unmeasured, and solver accounting."""
        summary = Summary(self.spans)
        unmeasured = sorted(name for name in expected_layers
                            if summary.calls(name) == 0)
        metrics = {
            metric: value(summary, self.lbfgs)
            for metric, (_, sources, value) in LAYER_METRICS.items()
            if not set(sources) & set(unmeasured)
        }
        return {"layers": metrics, "unmeasured": unmeasured,
                "missing_sites": self.missing_sites, "lbfgs": self.lbfgs}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "work"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def install() -> Tracer:
    """Wrap every binding site in SITES and Lbfgs.minimize; return the tracer."""
    tracer = Tracer()
    # Import every module first: a by-name import made after its source was
    # patched would pick up the wrapper and nest a second one inside it.
    for sites, _ in SITES.values():
        for site in sites:
            importlib.import_module(site.partition(":")[0])
    for name, (sites, work) in SITES.items():
        for site in sites:
            tracer.patch(site, lambda fn, name=name, work=work: tracer.wrap(name, fn, work))
    tracer.patch(LBFGS_SITE, tracer._wrap_minimize)
    return tracer
