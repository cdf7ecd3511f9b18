"""The byte-identity gate's reference: the nine default-seed study runs and one more.

Each run is one study case (1, 2, 3) under one controller (hocbf, drcbf,
adrcbf) at the default seed and horizon, written by cli.execute_document.
A tenth run starts case 1's drcbf run from speed -0.0, so that its first
CSV row holds a negative zero, which none of the nine write.
Its reference is the sha256 of trajectory.csv, distance.svg and speed.svg,
and the summary figures of summary.json apart from the wall-clock time.
The digests depend on the platform's libm (cases 2 and 3 use sinusoids) and
on Python's float formatting, so the Python version and platform are kept
with them.

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

from drcbf.cli import case_document, execute_document

GOLDEN = Path(__file__).resolve().parent / "golden" / "study.json"
CASES = (1, 2, 3)
MODES = ("hocbf", "drcbf", "adrcbf")
ARTIFACTS = ("trajectory.csv", "distance.svg", "speed.svg")
# Summary keys that are not a property of the run's output.
UNSTABLE = ("wall_clock_seconds",)


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


def study_run(doc: dict, directory: Path) -> dict:
    """Digests and summary figures of one run."""
    execute_document(doc, out_dir=directory)
    summary = json.loads((directory / "summary.json").read_text())
    for key in UNSTABLE:
        del summary[key]
    return {
        "sha256": {
            name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in ARTIFACTS
        },
        "summary": summary,
    }


def study_runs(directory: Path) -> dict:
    return {name: study_run(doc, directory / name) for name, doc in documents().items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = study_runs(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({**host(), "runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
