"""Every shipped example runs cleanly and prints what it promises."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXPECTATIONS = {
    "quickstart.py": ["ATOMICITY VIOLATIONS", "increment"],
    "bank_accounts.py": ["buggy bank", "transfer", "fixed bank"],
    "multi_run_workflow.py": ["first runs", "second run", "violations"],
    "iterative_refinement_demo.py": ["converged: True", "non-atomic methods"],
    "record_and_replay.py": ["recorded", "Velodrome (replayed)", "vc (replayed)"],
    "checker_shootout.py": ["Checker shootout", "DoubleChecker single-run"],
}


def run_example(name, *args, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )


def test_every_example_has_expectations():
    present = sorted(
        f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")
    )
    assert present == sorted(EXPECTATIONS)


@pytest.mark.parametrize("name", sorted(EXPECTATIONS))
def test_example_runs_and_prints(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    for needle in EXPECTATIONS[name]:
        assert needle in result.stdout, (name, needle, result.stdout[-500:])


def test_shootout_rejects_unknown_benchmark():
    result = run_example("checker_shootout.py", "not-a-benchmark")
    assert result.returncode != 0
    assert "unknown benchmark" in result.stderr


def test_record_and_replay_leaves_no_file_behind(tmp_path):
    """The recorded trace lives in a temporary directory of its own."""
    result = run_example(
        "record_and_replay.py", env={**os.environ, "TMPDIR": str(tmp_path)}
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []
