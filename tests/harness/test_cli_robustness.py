"""CLI robustness: pre-flight validation, readable exit-2 failures
(never a traceback for predictable mistakes), and exit status 3 when a
worker process dies."""

import os

import pytest

from repro.harness import runner
from repro.harness.cli import main
from repro.harness.parallel import JOBS_ENV


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path))
    runner._FINAL_SPEC_MEMO.clear()
    yield
    runner._FINAL_SPEC_MEMO.clear()


# ----------------------------------------------------------------------
# readable exit-2 failures
# ----------------------------------------------------------------------
def test_bad_jobs_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv(JOBS_ENV, "several")
    code = main(["table3", "--names", "hedc"])
    assert code == 2
    assert JOBS_ENV in capsys.readouterr().err


def test_out_under_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    code = main([
        "table3", "--names", "hedc", "--out", str(blocker / "results"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err


def test_out_path_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "results"
    blocker.write_text("already a file\n")
    code = main(["table3", "--names", "hedc", "--out", str(blocker)])
    assert code == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table2", "--names", "nope"],
    ["figure7", "--names", "hedc", "nope", "--jobs", "2"],
    ["crosscheck", "--names", "nope"],
])
def test_unknown_benchmark_name_exits_2(argv, capsys):
    # a typo must not look like a crosscheck disagreement (exit 1)
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("doublechecker-experiments: error: ")
    assert "'nope'" in lines[0] and "hedc" in lines[0]


def test_out_accepts_not_yet_existing_directory(tmp_path, capsys):
    target = tmp_path / "a" / "b" / "results"
    code = main(["table3", "--names", "hedc", "--out", str(target)])
    assert code == 0
    assert (target / "table3.txt").exists()


# ----------------------------------------------------------------------
# a dead worker
# ----------------------------------------------------------------------
def _dying_cell(*args):
    os._exit(1)


def test_dead_worker_exits_3(monkeypatch, capsys):
    # table3 submits the patched cell, which kills its worker process:
    # the run must end in one error line, with no traceback
    monkeypatch.setattr(runner, "run_cell", _dying_cell)
    code = main(["table3", "--names", "hedc", "--jobs", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "doublechecker-experiments: error: cell _dying_cell["
    )
