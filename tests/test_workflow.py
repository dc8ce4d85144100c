"""The CI workflow parses, and runs tier-1 and the benchmark tests, nothing
beside them: each check lives in one place, the test suite.  Tier-1 runs
before the benchmark's dependencies are installed."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEPS = ["Check out the repository", "Set up Python", "Install test dependencies",
         "Tier-1 tests", "Install benchmark dependencies", "Benchmark tests"]


def _steps():
    # a plain scalar holding ": " (as in a lambda) stops the file from
    # parsing, and then CI runs nothing at all
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text())
    return [step for job in doc["jobs"].values() for step in job["steps"]]


def test_workflow_loads_and_each_step_has_a_name_and_one_action():
    for step in _steps():
        assert isinstance(step.get("name"), str) and step["name"], step
        assert ("run" in step) != ("uses" in step), step["name"]
        assert step.get("run", step.get("uses")), step["name"]


def test_workflow_runs_tier_1_and_states_no_pin():
    # a pinned report is one row of the tier-1 table, so no step names a
    # file under tests/data/, and the tier-1 step runs ROADMAP's command
    steps = _steps()
    assert [step["name"] for step in steps] == STEPS
    tier_1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert steps[STEPS.index("Tier-1 tests")]["run"] == tier_1.group(1)
    assert not any("tests/data/" in str(step) for step in steps)
