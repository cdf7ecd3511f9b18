"""The byte-identity gate's reference: the nine default-seed study runs and one
more, and the logs of seven runs that the study does not cover.

Each run is one study case (1, 2, 3) under one controller (hocbf, drcbf,
adrcbf) at the default seed and horizon, written by cli.execute_document.
A tenth run starts case 1's drcbf run from speed -0.0, so that its first
CSV row holds a negative zero, which none of the nine write.
Its reference is the sha256 of trajectory.csv, distance.svg and speed.svg,
and the summary figures of summary.json apart from the wall-clock time.
The digests depend on the platform's libm (cases 2 and 3 use sinusoids) and
on Python's float formatting, so the Python version and platform are kept
with them.

The seven logs are the triple integrator (cascade depth 3) and the planar
double integrator (two inputs) of tests/oracles.py under each controller
for 6 s, and case 1's adrcbf run for 5 s under the worst constant
disturbance, whose guard breach the per-step body clamps. Their reference
is the sha256 of the log's values and of the repr of its per-step lists,
and the repr of its failure reason, metadata and final state.

    PYTHONPATH=src python tests/golden_study.py

rewrites tests/golden/study.json from the program as it stands. A change
that rewrites it must say which bytes changed and why.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

from drcbf.acc import build_study, case_bound
from drcbf.cli import case_document, execute_document
from drcbf.disturbances import Constant, SignalSpec
from drcbf.simulate import run_simulation

from oracles import planar_config, triple_integrator_config

GOLDEN = Path(__file__).resolve().parent / "golden" / "study.json"
CASES = (1, 2, 3)
MODES = ("hocbf", "drcbf", "adrcbf")
ARTIFACTS = ("trajectory.csv", "distance.svg", "speed.svg")
# Summary keys that are not a property of the run's output.
UNSTABLE = ("wall_clock_seconds",)
# The log's per-step lists, pinned by the sha256 of their repr.
LOG_LISTS = ("qp_statuses", "guard_event_counts", "active_sets")


def host() -> dict:
    return {
        "python": platform.python_version(),
        "platform": f"{platform.system()} {platform.machine()} {' '.join(platform.libc_ver())}",
    }


def documents() -> dict:
    docs = {
        f"case{case}-{mode}": case_document(case, mode)
        for case in CASES
        for mode in MODES
    }
    docs["case1-drcbf-from-speed--0.0"] = case_document(
        1, "drcbf", parameters={"initial_state": [100.0, -0.0]}
    )
    return docs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def study_run(doc: dict, directory: Path) -> dict:
    """Digests and summary figures of one run."""
    execute_document(doc, out_dir=directory)
    summary = json.loads((directory / "summary.json").read_text())
    for key in UNSTABLE:
        del summary[key]
    return {
        "sha256": {name: sha256((directory / name).read_bytes()) for name in ARTIFACTS},
        "summary": summary,
    }


def study_runs(directory: Path) -> dict:
    return {name: study_run(doc, directory / name) for name, doc in documents().items()}


def log_configs() -> dict:
    configs = {
        f"{plant}-{mode}": build(mode, 6.0)
        for plant, build in (("triple-integrator", triple_integrator_config),
                             ("planar", planar_config))
        for mode in MODES
    }
    worst = SignalSpec(channels=((Constant(-case_bound(1)),), (Constant(0.0),)))
    configs["case1-adrcbf-worst-constant"] = build_study(
        "adrcbf", disturbance_spec=worst, horizon=5.0, verify=False
    )
    return configs


def log_run(config) -> dict:
    """Digests and reprs of one run's log."""
    log = run_simulation(config)
    pinned = {"values_sha256": sha256(log.values.tobytes())}
    for name in LOG_LISTS:
        pinned[f"{name}_sha256"] = sha256(repr(getattr(log, name)).encode())
    for name in ("failure_reason", "metadata", "final_state"):
        pinned[name] = repr(getattr(log, name))
    return pinned


def log_runs() -> dict:
    return {name: log_run(config) for name, config in log_configs().items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = study_runs(Path(tmp))
    logs = log_runs()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({**host(), "runs": runs, "logs": logs}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN} ({len(runs)} runs, {len(logs)} logs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
