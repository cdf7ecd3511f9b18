"""Byte-identity gate: the default-seed study runs still write the bytes
and summary figures kept in tests/golden/study.json (see golden_study.py).

A digest mismatch on the host that wrote the reference means the program's
output changed. The figures are compared to 1e-9 relative, so a mismatch
also says whether numbers moved or only their bytes.
"""

import json
import math

import pytest

from golden_study import GOLDEN, host, study_runs

REFERENCE = json.loads(GOLDEN.read_text())
RELATIVE = 1e-9


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return study_runs(tmp_path_factory.mktemp("golden"))


def where() -> str:
    here = host()
    return (
        f"reference written with Python {REFERENCE['python']} on {REFERENCE['platform']}; "
        f"this is Python {here['python']} on {here['platform']}"
    )


def figure_differs(expected, actual) -> bool:
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isnan(expected):
            return not math.isnan(actual)
        return abs(actual - expected) > RELATIVE * abs(expected)
    return expected != actual


@pytest.mark.parametrize("run", sorted(REFERENCE["runs"]))
def test_summary_figures_match(runs, run):
    expected = REFERENCE["runs"][run]["summary"]
    actual = runs[run]["summary"]
    assert set(actual) == set(expected), where()
    moved = {
        key: (expected[key], actual[key])
        for key in expected
        if figure_differs(expected[key], actual[key])
    }
    assert not moved, f"{run}: figures (reference, now) moved: {moved}; {where()}"


@pytest.mark.parametrize("run", sorted(REFERENCE["runs"]))
def test_artifacts_are_byte_identical(runs, run):
    expected = REFERENCE["runs"][run]["sha256"]
    actual = runs[run]["sha256"]
    changed = sorted(name for name in expected if actual.get(name) != expected[name])
    assert not changed, f"{run}: {', '.join(changed)} differ from the reference; {where()}"
