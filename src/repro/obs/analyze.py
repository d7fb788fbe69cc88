"""``repro obs analyze``: critical-path analysis of merged traces.

Reads a merged Chrome trace (``--trace-out``) and answers the
question the telemetry exists for: *where does the time actually go?*
The report contains:

* per-process busy time (interval union of that process's spans);
* per-stage **self time** — each span's duration minus the spans
  nested inside it, so wrappers (``experiment.*``, ``executor.run``)
  do not double-count their children — with the percentage of wall
  each stage accounts for;
* the top-k longest individual spans;
* a one-line "suggested next bottleneck".

Usage::

    repro obs analyze trace.json [--top 10]
    python -m repro.obs.analyze trace.json --json

Exit status 2 marks a missing or schema-invalid trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

#: events per process beyond which self-time attribution subsamples is
#: never needed in practice (quantum events are already capped at the
#: executor); kept as a guard against hand-built pathological traces
_MAX_EVENTS = 500_000


# ----------------------------------------------------------------------
# loading and validation
# ----------------------------------------------------------------------
def load_trace(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def validate_trace(doc: Any) -> List[str]:
    """Schema-validate a merged trace document; returns error strings
    (empty = valid).  Checks exactly what the analyzer and the trace
    viewers rely on, so a truncated or hand-mangled file fails loudly
    instead of producing a silently wrong report."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: missing integer pid")
        if ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata event without args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing numeric ts")
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"{where}: complete event without dur >= 0")
        if len(errors) >= 20:
            errors.append("... (more errors suppressed)")
            break
    return errors


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def _interval_union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def _self_times(
    spans: List[Tuple[float, float, str]],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time for one process's spans (``(ts, dur, name)``
    seconds).  A stack over the timestamp-sorted spans subtracts each
    span's overlap from its innermost enclosing span, so nested phases
    partition their parents instead of double-counting."""
    self_by_name: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    stack: List[Tuple[float, str]] = []  # (end, name)
    for ts, dur, name in sorted(spans, key=lambda s: (s[0], -s[1])):
        end = ts + dur
        while stack and stack[-1][0] <= ts:
            stack.pop()
        self_by_name[name] = self_by_name.get(name, 0.0) + dur
        counts[name] = counts.get(name, 0) + 1
        if stack:
            parent_end, parent_name = stack[-1]
            overlap = min(parent_end, end) - ts
            if overlap > 0:
                self_by_name[parent_name] -= overlap
        stack.append((end, name))
    for name, value in self_by_name.items():
        if value < 0:  # clock-skew slop across merged processes
            self_by_name[name] = 0.0
    return self_by_name, counts


def critical_path_report(
    trace_doc: Dict[str, Any], top: int = 10
) -> Dict[str, Any]:
    """Build the critical-path report (a plain dict; see module doc)."""
    events = trace_doc.get("traceEvents", [])
    labels: Dict[int, str] = {}
    spans_by_pid: Dict[int, List[Tuple[float, float, str]]] = {}
    all_spans: List[Tuple[float, float, str, int]] = []
    for event in events[:_MAX_EVENTS]:
        ph = event.get("ph")
        pid = event.get("pid", 0)
        if ph == "M":
            labels[pid] = event.get("args", {}).get("name", str(pid))
        elif ph == "X":
            ts = event["ts"] / 1e6
            dur = event.get("dur", 0.0) / 1e6
            spans_by_pid.setdefault(pid, []).append((ts, dur, event["name"]))
            all_spans.append((ts, dur, event["name"], pid))

    if all_spans:
        run_start = min(ts for ts, _d, _n, _p in all_spans)
        run_end = max(ts + dur for ts, dur, _n, _p in all_spans)
        wall = run_end - run_start
    else:
        run_start = run_end = wall = 0.0

    processes = []
    stage_self: Dict[str, float] = {}
    stage_count: Dict[str, int] = {}
    for pid in sorted(spans_by_pid):
        spans = spans_by_pid[pid]
        self_by_name, counts = _self_times(spans)
        for name, value in self_by_name.items():
            stage_self[name] = stage_self.get(name, 0.0) + value
        for name, value in counts.items():
            stage_count[name] = stage_count.get(name, 0) + value
        processes.append({
            "pid": pid,
            "label": labels.get(pid, str(pid)),
            "busy_seconds": _interval_union(
                [(ts, ts + dur) for ts, dur, _n in spans]
            ),
            "spans": len(spans),
        })

    coverage = _interval_union(
        [(ts, ts + dur) for ts, dur, _n, _p in all_spans]
    )
    stages = [
        {
            "name": name,
            "self_seconds": stage_self[name],
            "count": stage_count.get(name, 0),
            "percent_of_wall": (
                100.0 * stage_self[name] / wall if wall > 0 else 0.0
            ),
        }
        for name in sorted(
            stage_self, key=lambda n: stage_self[n], reverse=True
        )
        if stage_self[name] > 0.0
    ]

    top_spans = [
        {
            "name": name,
            "pid": pid,
            "label": labels.get(pid, str(pid)),
            "start_seconds": ts - run_start,
            "dur_seconds": dur,
        }
        for ts, dur, name, pid in sorted(
            all_spans, key=lambda s: s[1], reverse=True
        )[:top]
    ]

    report: Dict[str, Any] = {
        "trace_id": trace_doc.get("otherData", {}).get("trace_id"),
        "wall_seconds": wall,
        "coverage_percent": 100.0 * coverage / wall if wall > 0 else 0.0,
        "processes": processes,
        "stages": stages,
        "top_spans": top_spans,
    }
    report["suggestion"] = _suggest(report)
    return report


def _suggest(report: Dict[str, Any]) -> str:
    """The "what to split next" line the ROADMAP asks this tool for."""
    stages = report.get("stages") or []
    if not stages:
        return "no spans recorded — run with --obs full to attribute time"
    lead = stages[0]
    return (
        f"suggested next bottleneck: {lead['name']} "
        f"({lead['percent_of_wall']:.1f}% of wall self time across "
        f"{lead['count']} span(s))"
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_report(report: Dict[str, Any]) -> str:
    from repro.harness.rendering import render_table  # lazy: layering

    sections: List[str] = []
    header = (
        f"Critical path: {report['wall_seconds']:.3f}s wall, "
        f"{report['coverage_percent']:.1f}% covered by spans"
    )
    if report.get("trace_id"):
        header += f" (trace {report['trace_id']})"
    sections.append(header)

    if report["processes"]:
        sections.append(render_table(
            ["process", "pid", "busy_s", "busy_%", "spans"],
            [
                [
                    p["label"], p["pid"], f"{p['busy_seconds']:.3f}",
                    (
                        f"{100.0 * p['busy_seconds'] / report['wall_seconds']:.1f}"
                        if report["wall_seconds"] > 0 else "-"
                    ),
                    p["spans"],
                ]
                for p in report["processes"]
            ],
            title="Per-process utilization",
        ))

    if report["stages"]:
        sections.append(render_table(
            ["stage", "self_s", "% wall", "count"],
            [
                [
                    s["name"], f"{s['self_seconds']:.4f}",
                    f"{s['percent_of_wall']:.1f}", s["count"],
                ]
                for s in report["stages"]
            ],
            title="Per-stage attribution (self time)",
        ))

    if report["top_spans"]:
        sections.append(render_table(
            ["span", "process", "start_s", "dur_s"],
            [
                [
                    s["name"], s["label"], f"{s['start_seconds']:.3f}",
                    f"{s['dur_seconds']:.4f}",
                ]
                for s in report["top_spans"]
            ],
            title=f"Top {len(report['top_spans'])} spans",
        ))

    sections.append(report["suggestion"])
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "analyze":
        # invoked as `repro obs analyze ...` or `python -m
        # repro.obs.analyze analyze ...` — both spellings work
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro obs analyze",
        description=(
            "Critical-path report over a merged Chrome trace (--trace-out)."
        ),
    )
    parser.add_argument("trace", help="merged Chrome trace JSON file")
    parser.add_argument(
        "--top", type=int, default=10,
        help="longest individual spans to list (default 10)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    args = parser.parse_args(argv)

    try:
        trace_doc = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro obs analyze: error: cannot read trace: {exc}",
              file=sys.stderr)
        return 2
    errors = validate_trace(trace_doc)
    if errors:
        print(
            "repro obs analyze: error: trace failed schema validation:",
            file=sys.stderr,
        )
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 2

    report = critical_path_report(trace_doc, top=args.top)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "critical_path_report",
    "load_trace",
    "main",
    "render_report",
    "validate_trace",
]
