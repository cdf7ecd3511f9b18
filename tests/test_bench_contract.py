"""The benchmark's output contract, checked on the program as it stands.

Each workload of BENCHMARK.json runs once untraced and once traced
(--trace 0 and 1), at --seconds 0, the way the benchmark runs it:
perfbench/run.py from a fresh directory holding only a link to src. Its
last line of standard output must be one strict-JSON result with every
metric finite (the end-to-end metrics untraced, the per-layer ones traced)
and none marked absent, and it must leave nothing on standard error and no
process behind.
"""

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w["name"], trace, id=w["name"] + ("-traced" if trace else ""))
    for trace in (0, 1)
    for w in BENCHMARK["workloads"]
])
def test_workload_ends_in_one_clean_result_line(workload, trace, tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        command,
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=600)
    finally:
        # The run leads its own process group: whatever is left in it (a
        # sweep's pool workers, say) outlived the run.
        leftover = group_alive(proc.pid)
        if leftover:
            os.killpg(proc.pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not leftover, f"{workload} left processes in its group"
    assert proc.returncode == 0, stderr
    assert stderr == ""

    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    result = json.loads(last, parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), name
    # A per-layer metric is absent where a name it wraps, or the shape its
    # count hook reads, no longer exists in the program.
    absent = sorted(name for name, metric in metrics.items() if metric.get("absent"))
    assert not absent, f"absent per-layer metrics: {absent}"
