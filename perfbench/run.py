#!/usr/bin/env python3
"""drcbf benchmark: the closed-loop study, the safety filter in a caller's
loop, and a seed sweep, each checked for correct output.

Run from the root of a checkout (it imports the program from ./src):

    python3 perfbench/run.py --workload study-case1 --seed 3 --seconds 30 --trace 0

Workloads (closed loop: each operation starts when the previous one ends;
one client, this process):

  study-case1   cli.execute_document runs case 1 for hocbf, drcbf and
                adrcbf, 30 s horizon (30k steps), CSV and SVG artifacts.
  filter-case3  the benchmark's own loop calls disturbances.evaluate,
                controller.control_step and simulate.integrate_step for
                12 s of case 3 (drcbf at the least-conservative gains,
                adrcbf at rates (100, 100)); each control_step is timed.
  sweep-seeds   cli.main sweep of drcbf on case 1 over 8 seeds, 4 s
                horizon (inside the transient), default --jobs.

With --trace 0 the run measures with tracing off and reports the
end-to-end metrics. With --trace 1 it first runs the workload untraced
for half the time, then the same number of rounds with every layer's
public functions wrapped (see tracing.py), and reports the per-layer
metrics, including the tracing overhead. Every run also performs the
reference probe and all output checks; any failure makes "correct" false.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Details (environment, sample counts, self time by parent
span) go to .perfbench_out/ in the current directory, spans of a traced
run to .perfbench_out/<workload>.spans.npz.

--write-references reruns the probe and one round of every workload at
the default seed and stores their summary figures in references.json. The
references pin the program's output; regenerate them only for a change
that is meant to alter it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
CONTROL_PERIOD = 1e-3

# name -> unit; failed_share is printed but not in the JSON metrics, since a
# correct run makes it 0 (the JSON carries attempted and failed instead).
END_TO_END = {
    "run_s": "s",
    "steps_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "qp.solve_us": ("us", "step_us_p50 @ filter-case3, steps_per_s @ study-case1; least @ sweep-seeds"),
    "qp.problem_build_us": ("us", "step_us_p50 @ filter-case3, steps_per_s @ study-case1"),
    "qp.subsets_tried_per_solve": ("count", "step_us_p50 @ filter-case3, steps_per_s @ study-case1; ~2 @ sweep-seeds"),
    "qp.safety_binding_share": ("share", "step_us_p50 @ filter-case3, steps_per_s @ study-case1"),
    "qp.infeasible": ("count", "failed ops @ all"),
    "robust.chain_evaluate_us.hocbf": ("us", "steps_per_s @ study-case1"),
    "robust.chain_evaluate_us.drcbf": ("us", "step_us_p50 @ filter-case3"),
    "robust.chain_evaluate_us.adrcbf": ("us", "step_us_p50 @ filter-case3"),
    "adaptive.evaluate_with_clamping_us": ("us", "step_us_p50 @ filter-case3"),
    "adaptive.guard_events": ("count/op", "step_us_p50 @ filter-case3"),
    "controller.clf_constraint_us": ("us", "step_us_p50 @ filter-case3"),
    "controller.control_step_us_p50": ("us", "step_us_p50 @ filter-case3"),
    "controller.control_step_us_p99": ("us", "step_us_p99 @ filter-case3"),
    "controller.control_step_self_us": ("us", "step_us_p99 @ filter-case3"),
    "controller.deadline_miss_share": ("share", "step_us_p99 @ filter-case3"),
    "simulate.integrate_step_us": ("us", "steps_per_s @ study-case1"),
    "simulate.integrate_step_calls": ("count/op", "steps_per_s @ study-case1"),
    "simulate.log_records": ("count/op", "steps_per_s @ study-case1"),
    "disturbances.evaluate_us": ("us", "steps_per_s @ study-case1"),
    "cli.prepare_run_s": ("s", "setup_s @ all; largest share of run_s @ sweep-seeds"),
    "disturbances.realize_s": ("s", "setup_s @ all; largest share of run_s @ sweep-seeds"),
    "cli.write_trajectory_csv_s": ("s", "run_s @ study-case1, sweep-seeds; 0 @ filter-case3"),
    "cli.csv_bytes": ("B/op", "run_s @ study-case1, sweep-seeds; 0 @ filter-case3"),
    "cli.write_plots_s": ("s", "run_s @ study-case1, sweep-seeds; 0 @ filter-case3"),
    "acc.summarize_log_s": ("s", "run_s @ study-case1, sweep-seeds; 0 @ filter-case3"),
    "cli.sweep_speedup": ("ratio", "run_s @ sweep-seeds only"),
    "cli.sweep_overhead_s": ("s", "run_s @ sweep-seeds only"),
    "trace.overhead_share": ("share", "none: traced run_s / untraced run_s - 1"),
}


def load_program():
    """Put ./src first on the import path; the program must come from there."""
    src = ROOT / "src"
    if not (src / "drcbf" / "__init__.py").is_file():
        raise ImportError(f"no drcbf package under {src}")
    sys.path.insert(0, str(src))
    import drcbf

    if Path(drcbf.__file__).resolve().parent != (src / "drcbf").resolve():
        raise ImportError(f"drcbf was imported from {drcbf.__file__}, not {src}")


def environment() -> dict:
    import numpy

    # The ceiling keeps git from reporting a repository that merely encloses
    # this directory.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=10)
        sha = done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_rounds(workload, mode, budget=None, rounds=None, tracer=None, between=None):
    """Whole rounds until the next would overrun `budget` seconds (at least
    one), or exactly `rounds` rounds; `between(rounds done)` runs before each
    round and after the last. A round that raises ends the phase and counts
    as one failed operation."""
    from workloads import Op

    ops, done, started = [], 0, perf_counter()
    while True:
        if between is not None:
            between(done)
        t0 = perf_counter()
        try:
            if tracer is None:
                ops += workload.round(mode)
            else:
                with tracer.span("bench.round"):
                    ops += workload.round(mode)
            raised = False
        except Exception:  # the program under test failed; report, do not crash
            traceback.print_exc(file=sys.stderr)
            ops.append(Op("round", perf_counter() - t0,
                          failures=[f"{workload.name}: round raised, see stderr"]))
            raised = True
        done += 1
        if raised or done == rounds or (
            rounds is None and (perf_counter() - started) * (done + 1) / done > budget
        ):
            if between is not None:
                between(done)
            return ops, done


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any of its children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(ops, setup_times, rss_mb) -> dict:
    """metric -> (value, sample count, note)."""
    from arith import percentile, tail

    seconds = [op.seconds for op in ops]
    steps = sum(op.steps for op in ops)
    step_us = [v for op in ops for v in op.step_us]
    if step_us:
        p50 = percentile(step_us, 50)
        tail_label, p99 = tail(step_us)
    else:
        p50, tail_label, p99 = 0.0, "none", 0.0
    return {
        "run_s": (statistics.median(seconds), len(seconds), "median per operation"),
        "steps_per_s": (steps / sum(seconds), steps, "control steps / operation seconds"),
        "step_us_p50": (p50, len(step_us), "median"),
        "step_us_p99": (p99, len(step_us), tail_label),
        "setup_s": (statistics.median(setup_times), len(setup_times), "median"),
        # Taken after the first round: later rounds add only the benchmark's
        # own samples, whose number grows as the program gets faster.
        "peak_rss_mb": (rss_mb, 1, "after the probe and the first round"),
    }


def sweep_figures(ref_ops) -> dict:
    """cli.sweep_speedup and cli.sweep_overhead_s from the default-jobs sweeps."""
    auto = [op for op in ref_ops if op.key == "jobs=auto"]
    if not auto:
        return {"cli.sweep_speedup": (0.0, 0), "cli.sweep_overhead_s": (0.0, 0)}
    speedup = statistics.median(op.member_seconds / op.seconds for op in auto)
    overhead = statistics.median(op.seconds - op.member_seconds / op.jobs for op in auto)
    return {"cli.sweep_speedup": (speedup, len(auto)),
            "cli.sweep_overhead_s": (overhead, len(auto))}


def overhead_share(ref_ops, traced_ops) -> tuple:
    keys = {op.key for op in traced_ops}
    ref = [op.seconds for op in ref_ops if op.key in keys]
    traced = [op.seconds for op in traced_ops]
    return statistics.median(traced) / statistics.median(ref) - 1.0, len(traced)


def reference_failures(workload, ops, references) -> list:
    """At the default seed, every figure must match the stored references."""
    from workloads import compare_figures

    stored = references.get("workloads", {}).get(workload.name, {})
    failures = []
    for op in ops:
        for key, figures in op.figures.items():
            if key not in stored:
                failures.append(f"{workload.name}/{key}: no stored reference")
            else:
                failures += compare_figures(f"{workload.name}/{key}", figures, stored[key])
    return failures


def write_references() -> int:
    from workloads import WORKLOADS, probe

    stored = {"probe": {}, "workloads": {}}
    failures = []
    ops, stored["probe"] = probe(OUT / "work" / "probe", None)
    for op in ops:
        failures += op.failures
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, OUT / "work" / name)
        figures = {}
        for op in workload.round("plain"):
            failures += op.failures
            figures.update(op.figures)
        stored["workloads"][name] = figures
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["study-case1", "filter-case3", "sweep-seeds"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.write_references:
        return write_references()
    if args.workload is None:
        parser.error("--workload is required")

    from tracing import TARGETS, Tracer, layer_metrics, self_time_table
    from workloads import WORKLOADS, probe, time_setup

    workdir = OUT / "work" / args.workload
    if workdir.exists():
        shutil.rmtree(workdir)
    references = json.loads(REFERENCES.read_text())
    workload = WORKLOADS[args.workload](args.seed, workdir)
    env = environment()

    ops, _ = probe(OUT / "work" / "probe", references)
    tracer = None
    if args.trace:
        ref_ops, rounds = run_rounds(workload, "reference", budget=args.seconds / 2)
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            # One traced set-up batch, so that every workload reports the
            # set-up layers (the filter loop prepares nothing in its rounds).
            with tracer.span("bench.setup"):
                time_setup(workload.setup_docs)
            traced_ops, _ = run_rounds(workload, "traced", rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        measured = ref_ops + traced_ops
    else:
        setup_times, rss = [], []

        def between(done):
            setup_times.extend(time_setup(workload.setup_docs))
            if done == 1:
                rss.append(peak_rss_mb())

        measured, _ = run_rounds(workload, "plain", budget=args.seconds, between=between)
    ops += measured

    failures = [f for op in ops for f in op.failures]
    if args.seed == DEFAULT_SEED:
        failures += reference_failures(workload, measured, references)
    failed = sum(1 for op in ops if op.failures)
    if failures and not failed:
        failed = 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    report, samples = {}, {}
    if args.trace:
        layers = layer_metrics(tracer, len(traced_ops), CONTROL_PERIOD)
        layers.update(sweep_figures(ref_ops))
        layers["trace.overhead_share"] = overhead_share(ref_ops, traced_ops)
        for name, (unit, moves) in PER_LAYER.items():
            value = layers.get(name)
            if value is None:
                print(f"layer {name}: absent ({unit}) -> {moves}")
                report[name] = {"value": 0.0, "unit": unit, "absent": True}
                continue
            print(f"layer {name} = {value[0]:.6g} {unit} (n={value[1]}) -> {moves}")
            report[name] = {"value": value[0], "unit": unit}
            samples[name] = value[1]
        table = self_time_table(tracer)
        print("self time by parent span (span <- parent: calls, inclusive s, self s):")
        for row in table[:16]:
            print(f"  {row[0]} <- {row[1]}: {row[2]}, {row[3]:.4f}, {row[4]:.4f}")
        tracer.write(OUT / f"{args.workload}.spans.npz")
    else:
        table = []
        figures = end_to_end(measured, setup_times, rss[0])
        for name, unit in END_TO_END.items():
            value, n, note = figures[name]
            print(f"metric {name} = {value:.6g} {unit} (n={n}, {note})")
            report[name] = {"value": value, "unit": unit}
            samples[name] = n
    print(f"metric failed_share = {failed / len(ops):.6g} share (n={len(ops)} operations)")
    for failure in failures:
        print(f"check FAILED: {failure}")
    print(f"checks: {len(ops) - failed} of {len(ops)} operations passed")

    OUT.mkdir(parents=True, exist_ok=True)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "metrics": report, "samples": samples,
               "attempted": len(ops), "failed": failed, "failures": failures,
               "self_time_by_parent": table[:64]}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
