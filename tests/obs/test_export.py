"""Exporters: metrics JSON, JSONL, Chrome trace, text summary."""

import json

from repro.obs.export import (
    chrome_trace_document,
    metrics_document,
    render_summary,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.registry import MetricsRegistry, MODE_FULL


def _sample_registry():
    # pinned trace id so two calls build snapshot-identical registries
    reg = MetricsRegistry(MODE_FULL, trace_id="feedc0ffee000001")
    reg.inc("icd.edges", 12)
    reg.gauge_max("gc.peak", 5)
    reg.observe("phase.run.seconds", 0.25)
    reg.emit_event("run", "executor", ts=0.001, dur=0.25, args={"depth": 1})
    return reg


def test_metrics_document_shape():
    doc = metrics_document(_sample_registry())
    assert doc["mode"] == MODE_FULL
    assert doc["counters"] == {"icd.edges": 12}
    assert doc["gauges"] == {"gc.peak": 5}
    summary = doc["histograms"]["phase.run.seconds"]
    assert summary == {"count": 1, "total": 0.25, "min": 0.25, "max": 0.25}


def test_exporters_accept_snapshot_dicts():
    snapshot = _sample_registry().snapshot()
    assert metrics_document(snapshot) == metrics_document(_sample_registry())


def test_write_metrics_json_roundtrip(tmp_path):
    path = tmp_path / "metrics.json"
    write_metrics_json(str(path), _sample_registry())
    doc = json.loads(path.read_text())
    assert doc["counters"]["icd.edges"] == 12


def test_write_jsonl_one_event_per_line(tmp_path):
    reg = _sample_registry()
    reg.emit_event("second", "executor", ts=0.3, dur=0.1)
    path = tmp_path / "events.jsonl"
    write_jsonl(str(path), reg)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["name"] == "run"
    assert json.loads(lines[1])["name"] == "second"


def test_chrome_trace_format():
    reg = _sample_registry()
    doc = chrome_trace_document(reg)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    # one process_name metadata record per pid track
    assert [m["name"] for m in metadata] == ["process_name"]
    assert metadata[0]["pid"] == reg.pid
    (event,) = complete
    # seconds -> microseconds
    assert event["ts"] == 1000.0
    assert event["dur"] == 250000.0
    assert event["pid"] == event["tid"] == reg.pid
    assert event["args"]["depth"] == 1


def test_chrome_trace_multiple_pids_get_tracks():
    snapshot = {
        "events": [
            {"name": "a", "cat": "c", "ts": 0.0, "dur": 0.1, "pid": 1},
            {"name": "b", "cat": "c", "ts": 0.0, "dur": 0.1, "pid": 2},
            {"name": "c", "cat": "c", "ts": 0.2, "dur": 0.1, "pid": 1},
        ]
    }
    doc = chrome_trace_document(snapshot)
    metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert sorted(m["pid"] for m in metadata) == [1, 2]


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), _sample_registry())
    doc = json.loads(path.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_render_summary_sections():
    text = render_summary(_sample_registry())
    assert "icd.edges" in text
    assert "gc.peak" in text
    assert "phase.run.seconds" in text
    assert "1 span event(s)" in text


def test_render_summary_top_truncates():
    reg = MetricsRegistry(MODE_FULL)
    reg.inc("small", 1)
    reg.inc("large", 100)
    text = render_summary(reg, top=1)
    assert "large" in text
    assert "small" not in text


def test_render_summary_empty():
    reg = MetricsRegistry(MODE_FULL)
    assert "no metrics" in render_summary(reg)


# ----------------------------------------------------------------------
# distributed-trace features: labels, trace id
# ----------------------------------------------------------------------
def test_chrome_trace_carries_trace_id():
    reg = MetricsRegistry(MODE_FULL, trace_id="feedc0ffee000002")
    reg.emit_event("send", "phase", ts=0.0, dur=0.010)
    doc = chrome_trace_document(reg)
    assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X"}
    assert doc["otherData"]["trace_id"] == "feedc0ffee000002"


def test_chrome_trace_process_labels():
    snapshot = {
        "trace_id": "feedc0ffee000003",
        "labels": {1: "doublechecker", 2: "cell-worker"},
        "events": [
            {"name": "a", "cat": "c", "ts": 0.0, "dur": 0.1, "pid": 1},
            {"name": "b", "cat": "c", "ts": 0.0, "dur": 0.1, "pid": 2},
            {"name": "c", "cat": "c", "ts": 0.0, "dur": 0.1, "pid": 3},
        ],
    }
    doc = chrome_trace_document(snapshot)
    names = {
        m["pid"]: m["args"]["name"]
        for m in doc["traceEvents"]
        if m["ph"] == "M"
    }
    assert names[1] == "doublechecker"
    assert names[2] == "cell-worker"
    assert names[3] == "doublechecker worker 3"  # unlabeled fallback


def test_metrics_document_carries_trace_id():
    doc = metrics_document(_sample_registry())
    assert doc["trace_id"] == "feedc0ffee000001"


# ----------------------------------------------------------------------
# atomic write-then-rename
# ----------------------------------------------------------------------
def test_failed_export_leaves_existing_file_intact(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text('{"previous": true}\n')
    # a set is not JSON-serializable, so the dump fails mid-body
    bad_snapshot = {"counters": {"x": {1, 2}}, "gauges": {}, "histograms": {}}
    try:
        write_metrics_json(str(path), bad_snapshot)
    except TypeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected the serialization to fail")
    assert json.loads(path.read_text()) == {"previous": True}
    # and the temp file was cleaned up, not left as litter
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


def test_exports_leave_no_temp_litter(tmp_path):
    reg = _sample_registry()
    write_metrics_json(str(tmp_path / "m.json"), reg)
    write_chrome_trace(str(tmp_path / "t.json"), reg)
    write_jsonl(str(tmp_path / "e.jsonl"), reg)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "e.jsonl", "m.json", "t.json",
    ]
