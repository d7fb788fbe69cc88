"""Exporters: metrics JSON, JSONL event log, Chrome trace, text summary.

The Chrome trace output follows the Trace Event Format's *complete*
events (``"ph": "X"``, timestamps and durations in microseconds), so
the file loads directly in ``chrome://tracing`` and in Perfetto
(https://ui.perfetto.dev → "Open trace file").  Each worker process
appears as its own track via its ``pid`` (named from the registry's
process labels when a ``--jobs`` run recorded them); timestamps are
relative to the run's shared epoch (see :mod:`repro.obs.wire`).

Every file exporter writes **atomically** — the document is serialized
to a temporary file in the destination directory and renamed over the
target (the same write-then-rename discipline as
:class:`~repro.harness.checkpoint.Checkpoint`) — so a run killed
mid-export never leaves a truncated trace or metrics file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, Dict, List

# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def _as_snapshot(source: Any) -> Dict[str, Any]:
    """Accept either a registry or an already-taken snapshot dict."""
    if isinstance(source, dict):
        return source
    return source.snapshot()


def _atomic_write(path: str, write_body: Callable[[Any], None]) -> None:
    """Write-then-rename: ``write_body(handle)`` fills a temp file in
    the destination directory, which is atomically renamed over
    ``path`` only after a successful write + flush."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".obs-export-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            write_body(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# metrics JSON
# ----------------------------------------------------------------------
def metrics_document(source: Any) -> Dict[str, Any]:
    """The ``--metrics-out`` document: counters, gauges, and histogram
    summaries (events are the trace exporters' concern)."""
    snapshot = _as_snapshot(source)
    return {
        "mode": snapshot.get("mode"),
        "trace_id": snapshot.get("trace_id"),
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "histograms": {
            name: {
                "count": h["count"],
                "total": h["total"],
                "min": h["min"],
                "max": h["max"],
            }
            for name, h in snapshot.get("histograms", {}).items()
        },
    }


def write_metrics_json(path: str, source: Any) -> None:
    document = metrics_document(source)

    def body(handle):
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _atomic_write(path, body)


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def write_jsonl(path: str, source: Any) -> None:
    """One JSON object per line, one line per span event."""
    snapshot = _as_snapshot(source)

    def body(handle):
        for event in snapshot.get("events", []):
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")

    _atomic_write(path, body)


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def chrome_trace_document(source: Any) -> Dict[str, Any]:
    """Trace Event Format document for chrome://tracing / Perfetto.

    Span events become complete (``"X"``) events on their process's
    track.
    """
    snapshot = _as_snapshot(source)
    labels = snapshot.get("labels", {}) or {}
    trace_events: List[Dict[str, Any]] = []
    seen_pids = []
    for event in snapshot.get("events", []):
        pid = event.get("pid", 0)
        if pid not in seen_pids:
            seen_pids.append(pid)
        entry = {
            "name": event["name"],
            "cat": event.get("cat", "phase"),
            "ph": "X",
            "ts": round(event["ts"] * 1e6, 3),
            "dur": round(event["dur"] * 1e6, 3),
            "pid": pid,
            "tid": pid,
        }
        if "args" in event:
            entry["args"] = event["args"]
        trace_events.append(entry)
    # name each process track so Perfetto shows something readable
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": pid,
            "args": {
                "name": labels.get(pid, labels.get(str(pid)))
                or f"doublechecker worker {pid}"
            },
        }
        for pid in seen_pids
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": snapshot.get("trace_id")},
    }


def write_chrome_trace(path: str, source: Any) -> None:
    document = chrome_trace_document(source)

    def body(handle):
        json.dump(document, handle)
        handle.write("\n")

    _atomic_write(path, body)


# ----------------------------------------------------------------------
# text summary
# ----------------------------------------------------------------------
def render_summary(source: Any, *, top: int = 0) -> str:
    """Fixed-width text rendering of a snapshot.

    ``top`` truncates the counter table to the N largest values
    (0 = everything).  Style-matched to the experiment tables from
    :mod:`repro.harness.rendering`.
    """
    from repro.harness.rendering import render_table  # lazy: layering

    snapshot = _as_snapshot(source)
    sections: List[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        items = sorted(counters.items())
        if top:
            items = sorted(items, key=lambda kv: -kv[1])[:top]
        sections.append(
            render_table(
                ["counter", "value"],
                [[name, value] for name, value in items],
                title="Telemetry: counters",
            )
        )

    gauges = snapshot.get("gauges", {})
    if gauges:
        sections.append(
            render_table(
                ["gauge", "value"],
                [[name, value] for name, value in sorted(gauges.items())],
                title="Telemetry: gauges",
            )
        )

    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            h = histograms[name]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            rows.append(
                [
                    name,
                    h["count"],
                    f"{h['total']:.4f}",
                    f"{mean:.6f}",
                    f"{h['max']:.6f}" if h["max"] is not None else "-",
                ]
            )
        sections.append(
            render_table(
                ["timer", "count", "total_s", "mean_s", "max_s"],
                rows,
                title="Telemetry: timers",
            )
        )

    events = snapshot.get("events", [])
    if events:
        sections.append(f"{len(events)} span event(s) recorded (full mode)")

    if not sections:
        return "Telemetry: no metrics recorded"
    return "\n\n".join(sections)


__all__ = [
    "chrome_trace_document",
    "metrics_document",
    "render_summary",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]
