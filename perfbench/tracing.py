"""Outside-in tracing of the drcbf layers.

The tracer replaces public names of the program's modules with timing
wrappers while a traced phase runs, and restores them afterwards; nothing in
the program changes. Every call through a wrapper is one span (start, end,
parent span, name) appended to flat arrays kept in memory, so a 30k-step run
costs a few MB; the spans are written out when the benchmark ends. Counts
(QP subsets tried, guard events, CSV bytes, ...) are taken from the wrapped
calls' arguments and results at the same boundaries.

A name that no longer exists (after a refactor) marks its span absent
instead of failing, and so does a count whose result no longer has the
expected shape.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from arith import percentile, self_times, subsets_tried

# In the controller's QP the stability row comes first and the safety row
# second (controller.control_step builds A = (clf_row, -cbf_row)).
SAFETY_ROW = 1


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._kind_of = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.kinds = array("q")
        self._stack = [-1]
        self.counts = {}
        self.absent = set()
        self._undo = []

    def kind(self, name: str) -> int:
        if name not in self._kind_of:
            self._kind_of[name] = len(self.names)
            self.names.append(name)
        return self._kind_of[name]

    def add(self, counter: str, amount=1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextmanager
    def span(self, name: str):
        """A span around a block, e.g. one benchmark round."""
        idx = len(self.starts)
        self.parents.append(self._stack[-1])
        self.kinds.append(self.kind(name))
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, module_name: str, path: str, name: str, after=None) -> bool:
        """Replace module_name.path (a function, class or Class.method) with
        a wrapper recording span `name`; False when the name is missing."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        kind = self.kind(name)
        starts, ends, parents, kinds, stack = (
            self.starts, self.ends, self.parents, self.kinds, self._stack,
        )

        # Same bookkeeping as span(), inlined: this runs several times per
        # control step, and its cost is the tracing overhead.
        @functools.wraps(original, updated=())
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            kinds.append(kind)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(self, result, args)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.absent.add(after.__name__)
            return result

        own = isinstance(owner, type) and attr in owner.__dict__
        saved = owner.__dict__[attr] if own else original
        self._undo.append((owner, attr, saved, own or not isinstance(owner, type)))
        setattr(owner, attr, traced)
        return True

    def install(self, targets) -> None:
        """Wrap every target; a span none of whose names exist is absent."""
        for name, places, after in targets:
            found = [self.wrap(mod, path, name, after) for mod, path in places]
            if not any(found):
                self.absent.add(name)
                if after is not None:
                    self.absent.add(after.__name__)

    def uninstall(self) -> None:
        for owner, attr, saved, restore in reversed(self._undo):
            if restore:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "starts": np.frombuffer(self.starts, dtype=float),
            "ends": np.frombuffer(self.ends, dtype=float),
            "parents": np.frombuffer(self.parents, dtype=np.int64),
            "kinds": np.frombuffer(self.kinds, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def qp_solved(tracer, solution, args):
    problem = args[0]
    optimal = solution.status == "optimal"
    tracer.add("qp.solves")
    tracer.add("qp.subsets_tried",
               subsets_tried(solution.active_set, len(problem.A), len(problem.c), optimal))
    if optimal:
        tracer.add("qp.safety_binding", SAFETY_ROW in solution.active_set)
    else:
        tracer.add("qp.infeasible")


def guards_counted(tracer, result, args):
    tracer.add("adaptive.guard_events", len(result[2]))


def log_counted(tracer, log, args):
    tracer.add("simulate.log_records", len(log))


def csv_counted(tracer, result, args):
    tracer.add("cli.csv_bytes", os.path.getsize(args[0]))


# (span name, [(module, public name), ...], count hook). The same function is
# wrapped under each name its callers look it up by: run_simulation uses the
# names imported into drcbf.simulate, the benchmark's own loop the defining
# modules' names.
TARGETS = (
    ("controller.control_step",
     [("drcbf.simulate", "control_step"), ("drcbf.controller", "control_step")], None),
    ("robust.chain_evaluate.hocbf", [("drcbf.robust", "HocbfChain.evaluate")], None),
    ("robust.chain_evaluate.drcbf", [("drcbf.robust", "DrcbfChain.evaluate")], None),
    ("robust.chain_evaluate.adrcbf", [("drcbf.adaptive", "AdrcbfChain.evaluate")], None),
    ("adaptive.evaluate_with_clamping",
     [("drcbf.controller", "evaluate_with_clamping")], guards_counted),
    ("controller.clf_constraint", [("drcbf.controller", "clf_constraint")], None),
    ("qp.problem_build", [("drcbf.controller", "QpProblem")], None),
    ("qp.solve_qp", [("drcbf.controller", "solve_qp")], qp_solved),
    ("simulate.integrate_step",
     [("drcbf.simulate", "integrate_step")], None),
    ("disturbances.evaluate",
     [("drcbf.simulate", "evaluate_signal"), ("drcbf.disturbances", "evaluate")], None),
    ("cli.execute_document", [("drcbf.cli", "execute_document")], None),
    ("simulate.run_simulation", [("drcbf.cli", "run_simulation")], log_counted),
    ("cli.prepare_run", [("drcbf.cli", "prepare_run")], None),
    ("acc.build_study", [("drcbf.cli", "build_study")], None),
    ("disturbances.realize", [("drcbf.acc", "realize")], None),
    ("acc.summarize_log", [("drcbf.cli", "summarize_log")], None),
    ("cli.write_trajectory_csv", [("drcbf.cli", "write_trajectory_csv")], csv_counted),
    ("cli.write_plots", [("drcbf.cli", "write_plots")], None),
)

# Per-call mean inclusive time of a span: metric -> (span, scale to unit).
_MEAN_TIMES = {
    "qp.solve_us": ("qp.solve_qp", 1e6),
    "qp.problem_build_us": ("qp.problem_build", 1e6),
    "robust.chain_evaluate_us.hocbf": ("robust.chain_evaluate.hocbf", 1e6),
    "robust.chain_evaluate_us.drcbf": ("robust.chain_evaluate.drcbf", 1e6),
    "robust.chain_evaluate_us.adrcbf": ("robust.chain_evaluate.adrcbf", 1e6),
    "adaptive.evaluate_with_clamping_us": ("adaptive.evaluate_with_clamping", 1e6),
    "controller.clf_constraint_us": ("controller.clf_constraint", 1e6),
    "simulate.integrate_step_us": ("simulate.integrate_step", 1e6),
    "disturbances.evaluate_us": ("disturbances.evaluate", 1e6),
    "cli.prepare_run_s": ("cli.prepare_run", 1.0),
    "disturbances.realize_s": ("disturbances.realize", 1.0),
    "cli.write_trajectory_csv_s": ("cli.write_trajectory_csv", 1.0),
    "cli.write_plots_s": ("cli.write_plots", 1.0),
    "acc.summarize_log_s": ("acc.summarize_log", 1.0),
}

# The other per-layer metrics -> the span or count hook they come from.
_DERIVED = {
    "qp.subsets_tried_per_solve": "qp_solved",
    "qp.safety_binding_share": "qp_solved",
    "qp.infeasible": "qp_solved",
    "adaptive.guard_events": "guards_counted",
    "controller.control_step_us_p50": "controller.control_step",
    "controller.control_step_us_p99": "controller.control_step",
    "controller.control_step_self_us": "controller.control_step",
    "controller.deadline_miss_share": "controller.control_step",
    "simulate.integrate_step_calls": "simulate.integrate_step",
    "simulate.log_records": "log_counted",
    "cli.csv_bytes": "csv_counted",
}


def layer_metrics(tracer: Tracer, operations: int, control_period: float) -> dict:
    """Per-layer figures of a traced phase: metric -> (value, sample count),
    or None for an absent metric. Counts are per operation, so they do not
    depend on how many operations fit in the run."""
    a = tracer.arrays()
    durations = a["ends"] - a["starts"]
    own = self_times(a["starts"], a["ends"], a["parents"])
    kinds = a["kinds"]

    def spans(name):
        if name not in tracer._kind_of:
            return np.empty(0)
        return durations[kinds == tracer._kind_of[name]]

    out = {}
    for metric, (name, scale) in _MEAN_TIMES.items():
        d = spans(name)
        out[metric] = (float(d.mean()) * scale if d.size else 0.0, int(d.size))

    steps = spans("controller.control_step")
    if steps.size:
        step_self = own[kinds == tracer._kind_of["controller.control_step"]]
        out["controller.control_step_us_p50"] = (percentile(steps, 50) * 1e6, steps.size)
        out["controller.control_step_us_p99"] = (percentile(steps, 99) * 1e6, steps.size)
        out["controller.control_step_self_us"] = (float(step_self.mean()) * 1e6, steps.size)
        missed = float(np.count_nonzero(steps > control_period)) / steps.size
        out["controller.deadline_miss_share"] = (missed, steps.size)
    else:
        for metric in ("controller.control_step_us_p50", "controller.control_step_us_p99",
                       "controller.control_step_self_us", "controller.deadline_miss_share"):
            out[metric] = (0.0, 0)

    counts = tracer.counts
    solves = counts.get("qp.solves", 0)
    per_solve = (lambda c: counts.get(c, 0) / solves) if solves else (lambda c: 0.0)
    per_op = lambda c: counts.get(c, 0) / operations  # noqa: E731
    out["qp.subsets_tried_per_solve"] = (per_solve("qp.subsets_tried"), solves)
    out["qp.safety_binding_share"] = (per_solve("qp.safety_binding"), solves)
    out["qp.infeasible"] = (counts.get("qp.infeasible", 0), solves)
    out["adaptive.guard_events"] = (per_op("adaptive.guard_events"), operations)
    out["simulate.integrate_step_calls"] = (
        spans("simulate.integrate_step").size / operations, operations)
    out["simulate.log_records"] = (per_op("simulate.log_records"), operations)
    out["cli.csv_bytes"] = (per_op("cli.csv_bytes"), operations)

    sources = {metric: span for metric, (span, _) in _MEAN_TIMES.items()}
    sources.update(_DERIVED)
    for metric, source in sources.items():
        if source in tracer.absent:
            out[metric] = None  # absent: the program no longer has that name
    return out


def self_time_table(tracer: Tracer) -> list:
    """Rows (span, parent span, calls, inclusive s, self s), largest self
    time first: where each layer's own time goes, split by its caller."""
    a = tracer.arrays()
    if not a["starts"].size:
        return []
    durations = a["ends"] - a["starts"]
    own = self_times(a["starts"], a["ends"], a["parents"])
    kinds = a["kinds"]
    parents = a["parents"]
    parent_kinds = np.where(parents >= 0, kinds[np.maximum(parents, 0)], -1)
    width = len(tracer.names) + 1
    keys = kinds * width + (parent_kinds + 1)
    calls = np.bincount(keys, minlength=width * width)
    total = np.bincount(keys, weights=durations, minlength=width * width)
    total_self = np.bincount(keys, weights=own, minlength=width * width)
    rows = []
    for key in np.nonzero(calls)[0]:
        kind, parent = divmod(int(key), width)
        rows.append((
            tracer.names[kind],
            tracer.names[parent - 1] if parent else "-",
            int(calls[key]),
            float(total[key]),
            float(total_self[key]),
        ))
    rows.sort(key=lambda r: -r[4])
    return rows
