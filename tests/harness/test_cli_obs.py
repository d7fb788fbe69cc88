"""CLI observability flags: --obs, --trace-out, --metrics-out,
--version, and readable errors for unwritable output paths."""

import json

import pytest

import repro
from repro.harness import runner
from repro.harness.cli import main
from repro.obs.registry import NOOP, recorder, use_registry


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "cache"))
    runner._FINAL_SPEC_MEMO.clear()
    yield
    runner._FINAL_SPEC_MEMO.clear()


@pytest.fixture(autouse=True)
def restore_recorder():
    previous = recorder()
    yield
    use_registry(previous)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_obs_off_is_default_and_prints_no_summary(capsys):
    assert main(["table3", "--names", "hedc"]) == 0
    assert "Telemetry" not in capsys.readouterr().out


def test_obs_counters_prints_summary(capsys):
    assert main(["table3", "--names", "hedc", "--obs", "counters"]) == 0
    out = capsys.readouterr().out
    assert "Telemetry: counters" in out
    assert "phase.experiment.table3.seconds" in out


def test_metrics_out_writes_merged_snapshot(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    code = main(
        ["table3", "--names", "hedc", "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    doc = json.loads(metrics_path.read_text())
    # --metrics-out alone elevates off -> counters
    assert doc["mode"] == "counters"
    assert doc["counters"]["executor.runs"] > 0


def test_trace_out_implies_full_mode(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main(["table3", "--names", "hedc", "--trace-out", str(trace_path)])
    assert code == 0
    doc = json.loads(trace_path.read_text())
    phases = {event["ph"] for event in doc["traceEvents"]}
    assert phases == {"M", "X"}
    names = {event["name"] for event in doc["traceEvents"]}
    assert "experiment.table3" in names


def test_unwritable_metrics_out_fails_readably(capsys):
    code = main(
        ["table3", "--names", "hedc", "--metrics-out", "/nonexistent/m.json"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "directory does not exist" in err
    assert "Traceback" not in err


def test_metrics_out_to_directory_fails_readably(tmp_path, capsys):
    code = main(
        ["table3", "--names", "hedc", "--metrics-out", str(tmp_path)]
    )
    assert code == 2
    assert "path is a directory" in capsys.readouterr().err


def test_unwritable_trace_out_fails_before_running(tmp_path, capsys):
    """The writability check runs up front: nothing is executed and no
    partial output is printed before the error."""
    code = main(
        ["table3", "--names", "hedc", "--trace-out", "/nonexistent/t.json"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "hedc" not in captured.out


def test_cli_restores_previous_recorder(tmp_path):
    assert recorder() is NOOP
    main(["table3", "--names", "hedc", "--obs", "counters"])
    assert recorder() is NOOP


# ----------------------------------------------------------------------
# conflicting --obs / output-flag combinations fail the pre-flight
# ----------------------------------------------------------------------
def test_explicit_obs_off_with_trace_out_exits_2(tmp_path, capsys):
    code = main(
        ["table3", "--names", "hedc", "--obs", "off",
         "--trace-out", str(tmp_path / "t.json")]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--trace-out" in captured.err
    assert "--obs off" in captured.err
    # nothing ran and no output file was created
    assert "hedc" not in captured.out
    assert not (tmp_path / "t.json").exists()


def test_explicit_obs_off_with_metrics_out_exits_2(tmp_path, capsys):
    code = main(
        ["table3", "--names", "hedc", "--obs", "off",
         "--metrics-out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "--metrics-out" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_obs_counters_with_trace_out_exits_2(tmp_path, capsys):
    code = main(
        ["table3", "--names", "hedc", "--obs", "counters",
         "--trace-out", str(tmp_path / "t.json")]
    )
    assert code == 2
    assert "--obs full" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_obs_full_with_both_outputs_allowed(tmp_path):
    code = main(
        ["table3", "--names", "hedc", "--obs", "full",
         "--metrics-out", str(tmp_path / "m.json"),
         "--trace-out", str(tmp_path / "t.json")]
    )
    assert code == 0
    assert json.loads((tmp_path / "m.json").read_text())["mode"] == "full"
    assert (tmp_path / "t.json").exists()
