"""The three workloads, the reference probe and the output checks.

Every workload makes its inputs from the benchmark seed alone and hands the
program only generated config documents. A round is the smallest repeatable
unit of work (every controller once, or one sweep); an operation is one run,
one filter loop or one sweep, and each returns an Op with its host time and
the outcome of its checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from drcbf import cli, controller, disturbances, simulate

STUDY_MODES = ("hocbf", "drcbf", "adrcbf")
STUDY_HORIZON = 30.0
FILTER_HORIZON = 12.0
SWEEP_HORIZON = 4.0
SWEEP_SEEDS = 8
PROBE_HORIZON = 1.0
# The probe starts close behind the lead so that the safety row binds within
# its short horizon and each cascade shapes the trajectory.
PROBE_PARAMETERS = {"initial_state": [25.0, 22.0]}
# Set-up is timed in batches of this many, one batch before every round and
# one after the last, so that the reported median spans the whole run.
SETUP_BATCH = 12
# Summary figures must match the stored references to this relative error.
REFERENCE_RTOL = 1e-9


@dataclass
class Op:
    """One operation: host seconds, control steps, per-step samples (µs) and
    the failures its checks found; figures are compared with references."""

    key: str
    seconds: float
    steps: int = 0
    step_us: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    member_seconds: float = 0.0
    jobs: int = 1


def study_figures(summary: dict) -> dict:
    return {k: summary.get(k) for k in
            ("min_distance", "steady_state_distance", "records", "violation")}


def compare_figures(label: str, got: dict, want: dict) -> list:
    """Failures where got differs from want: numbers beyond REFERENCE_RTOL,
    anything else at all."""
    failures = []
    for name, expected in want.items():
        value = got.get(name)
        if isinstance(expected, float) and isinstance(value, (int, float)):
            ok = math.isclose(value, expected, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
        else:
            ok = value == expected
        if not ok:
            failures.append(f"{label}: {name} is {value!r}, reference {expected!r}")
    return failures


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _program_seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def time_setup(docs: list) -> list:
    """Seconds to validate and prepare a run, SETUP_BATCH times over docs."""
    times = []
    for i in range(SETUP_BATCH):
        doc = docs[i % len(docs)]
        t0 = perf_counter()
        cli.validate_document(doc)
        cli.prepare_run(doc)
        times.append(perf_counter() - t0)
    return times


def run_document(key: str, doc: dict, out_dir: Path, expect_violation: bool) -> Op:
    """One closed-loop run through cli.execute_document with its artifacts."""
    steps = round(doc["horizon"] / 1e-3)
    t0 = perf_counter()
    code, summary = cli.execute_document(doc, out_dir=out_dir)
    op = Op(key, perf_counter() - t0)
    op.steps = summary.get("records", 0)
    op.figures = {key: study_figures(summary)}
    op.digests = {key: digest(out_dir / "trajectory.csv")}
    if op.steps:
        op.step_us.append(summary["wall_clock_seconds"] / op.steps * 1e6)
    expected_code = cli.EXIT_VIOLATION if expect_violation else cli.EXIT_OK
    if code != expected_code:
        op.failures.append(f"{key}: exit code {code}, expected {expected_code}")
    if summary.get("failed"):
        op.failures.append(f"{key}: fault: {summary.get('failure_reason')}")
    if op.steps != steps:
        op.failures.append(f"{key}: {op.steps} records for {steps} steps")
    if summary.get("violation") is not expect_violation:
        floor = "cross" if expect_violation else "hold"
        op.failures.append(
            f"{key}: should {floor} the {summary.get('min_distance_required')} m floor, "
            f"min distance {summary.get('min_distance')}")
    return op


def filter_loop(key: str, config, params) -> Op:
    """The safety filter in a caller's loop: per step, look up the
    disturbance, call control_step (timed against the control period) and
    take one RK4 step. No log, no artifacts."""
    evaluate = disturbances.evaluate
    control_step = controller.control_step
    integrate_step = simulate.integrate_step
    spec, system, realized = config.controller, config.system, config.disturbance
    dt = config.control_period
    x = config.x0
    min_gap = x[0]
    failures = []
    timed_steps = []
    steps = 0
    t0 = perf_counter()
    for k in range(config.steps):
        t = k * dt
        d = evaluate(realized, t)
        s0 = perf_counter()
        result = control_step(spec, x, t)
        timed_steps.append(perf_counter() - s0)
        if result.qp_status != "optimal":
            failures.append(f"{key}: QP {result.qp_status} at t={t}")
            break
        x = integrate_step(system, x, result.u, d, dt)
        steps += 1
        min_gap = min(min_gap, x[0])
    op = Op(key, perf_counter() - t0, steps=steps, failures=failures)
    op.step_us = [v * 1e6 for v in timed_steps]
    if steps != config.steps:
        op.failures.append(f"{key}: {steps} of {config.steps} steps")
    if min_gap < params.min_distance:
        op.failures.append(f"{key}: gap {min_gap} below the {params.min_distance} m floor")
    op.figures = {key: {"min_distance": min_gap, "final_distance": x[0],
                        "final_speed": x[1], "steps": steps}}
    return op


class Workload:
    """Inputs of one workload and its rounds. mode is "plain" (tracing off,
    as a user runs it), "reference" (tracing off, the traced phase's
    comparison) or "traced". setup_docs are the documents whose set-up
    time_setup measures."""

    name = ""
    setup_docs: list = []

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._first_digests = {}

    def round(self, mode: str) -> list:
        raise NotImplementedError

    def repeat_check(self, op: Op) -> None:
        """A repeat with the same inputs must give byte-identical CSVs."""
        for name, value in op.digests.items():
            first = self._first_digests.setdefault(name, value)
            if value != first:
                op.failures.append(f"{name}: trajectory.csv differs from the first run")


class StudyCase1(Workload):
    name = "study-case1"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        (program_seed,) = _program_seeds(self.name, seed, 1)
        self.docs = [
            {"case": 1, "controller": mode, "seed": program_seed, "horizon": STUDY_HORIZON}
            for mode in STUDY_MODES
        ]
        self.setup_docs = self.docs

    def round(self, mode):
        ops = []
        for doc in self.docs:
            name = doc["controller"]
            op = run_document(name, doc, self.workdir / name, name == "hocbf")
            self.repeat_check(op)
            ops.append(op)
        return ops


class FilterCase3(Workload):
    name = "filter-case3"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        (program_seed,) = _program_seeds(self.name, seed, 1)
        self.docs = filter_documents(program_seed, FILTER_HORIZON)
        self.prepared = [cli.prepare_run(doc) for doc in self.docs]
        self.setup_docs = self.docs

    def round(self, mode):
        ops = []
        for doc, (config, params, _) in zip(self.docs, self.prepared):
            ops.append(filter_loop(doc["controller"], config, params))
        return ops


def filter_documents(program_seed: int, horizon: float, **extra) -> list:
    """Case 3: drcbf with the least-conservative gains, adrcbf with those
    gains and rates (100, 100)."""
    base = {"case": 3, "seed": program_seed, "horizon": horizon, **extra}
    return [
        dict(base, controller="drcbf", gains={"use_optimal_k": True}),
        dict(base, controller="adrcbf", gains={"use_optimal_k": True, "adaptive": [100, 100]}),
    ]


class SweepSeeds(Workload):
    """cli.main sweep over seeds; each round repeats the same sweep. Tracing
    runs it with --jobs 1 so that every span stays in this process; the
    reference phase runs it both ways, the default for the speed-up."""

    name = "sweep-seeds"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        self.seeds = _program_seeds(self.name, seed, SWEEP_SEEDS)
        self.doc = {"case": 1, "controller": "drcbf", "horizon": SWEEP_HORIZON}
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "sweep.json"
        self.config_path.write_text(json.dumps(self.doc))
        self.setup_docs = [dict(self.doc, seed=s) for s in self.seeds]

    def round(self, mode):
        if mode == "plain":
            return [self.sweep(None)]
        if mode == "reference":
            return [self.sweep(None), self.sweep(1)]
        return [self.sweep(1)]

    def sweep(self, jobs) -> Op:
        out = self.workdir / "out"
        argv = ["sweep", str(self.config_path), "--param", "seed",
                "--values", ",".join(str(s) for s in self.seeds), "--out", str(out)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        key = "jobs=auto" if jobs is None else f"jobs={jobs}"
        op = Op(key, perf_counter() - t0)
        # The CLI's default worker count.
        op.jobs = jobs or min(len(self.seeds), os.cpu_count() or 1)
        if code != cli.EXIT_OK:
            op.failures.append(f"sweep exit code {code}")
        members = sorted(out.glob("*/summary.json"))
        if len(members) != len(self.seeds):
            op.failures.append(f"{len(members)} sweep members for {len(self.seeds)} seeds")
        steps = round(SWEEP_HORIZON / 1e-3)
        for i, path in enumerate(members):
            summary = json.loads(path.read_text())
            label = f"member {i:02d}"
            records = summary.get("records", 0)
            op.steps += records
            op.member_seconds += summary["wall_clock_seconds"]
            if records:
                op.step_us.append(summary["wall_clock_seconds"] / records * 1e6)
            op.figures[label] = study_figures(summary)
            op.digests[label] = digest(path.parent / "trajectory.csv")
            if records != steps or summary.get("failed") or summary.get("violation"):
                op.failures.append(
                    f"{label}: records {records}/{steps}, failed {summary.get('failed')}, "
                    f"violation {summary.get('violation')}")
        self.repeat_check(op)
        return op


WORKLOADS = {w.name: w for w in (StudyCase1, FilterCase3, SweepSeeds)}


def probe(workdir: Path, references) -> tuple:
    """Short fixed-input runs checked in every benchmark run, whatever its
    seed: case-1 runs of each controller and case-3 filter loops at the
    default program seed, against stored references; a repeated drcbf run
    must write the same CSV bytes, and the benchmark's own filter loop must
    reproduce run_simulation's trajectory exactly. Returns (ops, figures)."""
    ops, figures = [], {}
    for mode in STUDY_MODES + ("drcbf",):
        doc = {"case": 1, "controller": mode, "horizon": PROBE_HORIZON,
               "parameters": PROBE_PARAMETERS}
        out = workdir / f"probe-{mode}"
        if out.exists():
            shutil.rmtree(out)
        ops.append(run_document(f"probe/{mode}", doc, out, expect_violation=False))
    if ops[1].digests["probe/drcbf"] != ops[3].digests["probe/drcbf"]:
        ops[3].failures.append("probe/drcbf: repeat wrote different trajectory.csv bytes")
    for doc in filter_documents(cli.DEFAULT_SEED, PROBE_HORIZON, parameters=PROBE_PARAMETERS):
        key = f"probe/filter-{doc['controller']}"
        config, params, _ = cli.prepare_run(doc)
        op = filter_loop(key, config, params)
        log = simulate.run_simulation(config)
        loop_min = min(s[0] for s in log.states + [log.final_state])
        loop = op.figures[key]
        if (loop["final_distance"], loop["final_speed"]) != tuple(log.final_state) or (
            loop["min_distance"] != loop_min
        ):
            op.failures.append(f"{key}: benchmark loop differs from run_simulation")
        ops.append(op)
    for op in ops:
        figures.update(op.figures)
        want = (references or {}).get("probe", {}).get(next(iter(op.figures)))
        if want is not None:
            op.failures += compare_figures(op.key, next(iter(op.figures.values())), want)
        elif references is not None:
            op.failures.append(f"{op.key}: no stored reference")
    return ops, figures
