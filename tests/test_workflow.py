"""The CI workflow parses, and each of its steps is one named command."""

import pathlib

import pytest

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_loads_and_each_step_has_a_name_and_one_action():
    # a plain scalar holding ": " (as in a lambda) stops the file from
    # parsing, and then CI runs nothing at all
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert len(steps) > 20
    for step in steps:
        assert isinstance(step.get("name"), str) and step["name"], step
        assert ("run" in step) != ("uses" in step), step["name"]
        assert step.get("run", step.get("uses")), step["name"]
