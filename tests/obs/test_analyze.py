"""``repro obs analyze``: trace validation and critical-path report."""

import json

import pytest

from repro.obs.analyze import (
    critical_path_report,
    main,
    render_report,
    validate_trace,
)


def _span(name, pid, ts_us, dur_us, **extra):
    entry = {"name": name, "cat": "phase", "ph": "X",
             "ts": ts_us, "dur": dur_us, "pid": pid, "tid": pid}
    entry.update(extra)
    return entry


def _meta(pid, label):
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
            "args": {"name": label}}


def _synthetic_trace():
    """A ``--jobs 2`` run: the parent (pid 1) spends 0.6s of a 1.0s
    experiment refining the spec, while two cell workers (pids 2 and
    3) run one cell each.  Wall = 1.0s."""
    return {
        "traceEvents": [
            _meta(1, "doublechecker"),
            _meta(2, "cell-worker"),
            _meta(3, "cell-worker"),
            # parent: a 1.0s experiment containing a 0.6s refinement
            _span("experiment.table3", 1, 0, 1_000_000),
            _span("final_spec", 1, 0, 600_000),
            # first worker: one cell with two executor quanta
            _span("cell.single", 2, 50_000, 900_000),
            _span("executor.quantum", 2, 100_000, 200_000),
            _span("executor.quantum", 2, 400_000, 100_000),
            # second worker: one cell
            _span("cell.velodrome", 3, 600_000, 300_000),
        ],
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": "feedc0ffee00abcd"},
    }


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validate_accepts_synthetic_trace():
    assert validate_trace(_synthetic_trace()) == []


def test_validate_rejects_non_object():
    assert validate_trace([1, 2]) != []
    assert validate_trace({"notTraceEvents": []}) != []


def test_validate_rejects_malformed_events():
    assert validate_trace({"traceEvents": [{"ph": "Q"}]}) != []
    # X without dur
    bad = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0, "pid": 1},
    ]}
    assert any("dur" in e for e in validate_trace(bad))


def test_validate_rejects_flow_events():
    flow = {"traceEvents": [
        {"name": "a", "ph": "s", "ts": 0, "id": 1, "pid": 1},
    ]}
    assert any("unknown phase 's'" in e for e in validate_trace(flow))


# ----------------------------------------------------------------------
# critical-path report
# ----------------------------------------------------------------------
def test_report_wall_and_coverage():
    report = critical_path_report(_synthetic_trace())
    assert report["trace_id"] == "feedc0ffee00abcd"
    assert report["wall_seconds"] == pytest.approx(1.0)
    # the parent's 1.0s span covers the whole run
    assert report["coverage_percent"] == pytest.approx(100.0)


def test_report_self_time_subtracts_children():
    report = critical_path_report(_synthetic_trace())
    stages = {s["name"]: s for s in report["stages"]}
    # the experiment (1.0s) minus the nested 0.6s refinement = 0.4s
    assert stages["experiment.table3"]["self_seconds"] == pytest.approx(0.4)
    assert stages["final_spec"]["self_seconds"] == pytest.approx(0.6)
    # the cell (0.9s) minus its two quanta (0.3s) = 0.6s self
    assert stages["cell.single"]["self_seconds"] == pytest.approx(0.6)
    assert stages["executor.quantum"]["self_seconds"] == pytest.approx(0.3)
    assert stages["executor.quantum"]["count"] == 2


def test_report_per_process_busy():
    report = critical_path_report(_synthetic_trace())
    busy = {p["pid"]: p["busy_seconds"] for p in report["processes"]}
    assert busy[1] == pytest.approx(1.0)
    assert busy[2] == pytest.approx(0.9)
    assert busy[3] == pytest.approx(0.3)
    labels = {p["pid"]: p["label"] for p in report["processes"]}
    assert labels == {1: "doublechecker", 2: "cell-worker", 3: "cell-worker"}


def test_report_suggestion_and_rendering():
    report = critical_path_report(_synthetic_trace())
    # the largest self time leads: the parent's refinement and the
    # first cell's own work tie at 0.6s; either one may lead
    assert report["suggestion"].startswith("suggested next bottleneck: ")
    assert "60.0% of wall" in report["suggestion"]
    text = render_report(report)
    assert "Critical path" in text
    assert "Per-process utilization" in text
    assert "Per-stage attribution" in text


def test_report_empty_trace():
    report = critical_path_report({"traceEvents": []})
    assert report["wall_seconds"] == 0.0
    assert report["stages"] == []
    assert "no spans recorded" in report["suggestion"]
    # renders without dividing by zero
    assert "Critical path" in render_report(report)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_text_report(tmp_path, capsys):
    trace = _write(tmp_path, "t.json", _synthetic_trace())
    assert main(["analyze", trace]) == 0
    out = capsys.readouterr().out
    assert "Critical path" in out
    assert "suggested next bottleneck" in out


def test_cli_json_report(tmp_path, capsys):
    trace = _write(tmp_path, "t.json", _synthetic_trace())
    # the leading "analyze" token is optional (python -m spelling)
    assert main([trace, "--json", "--top", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trace_id"] == "feedc0ffee00abcd"
    assert len(report["top_spans"]) == 2


def test_cli_missing_trace_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_cli_invalid_trace_exits_2(tmp_path, capsys):
    trace = _write(tmp_path, "bad.json", {"traceEvents": [{"ph": "Q"}]})
    assert main(["analyze", trace]) == 2
    assert "schema validation" in capsys.readouterr().err


def test_cli_dispatch_from_experiments_entry_point(tmp_path, capsys):
    from repro.harness.cli import main as cli_main

    trace = _write(tmp_path, "t.json", _synthetic_trace())
    assert cli_main(["obs", "analyze", trace]) == 0
    assert "Critical path" in capsys.readouterr().out
