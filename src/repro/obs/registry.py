"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every metric a process (or one
experiment cell) records.  The design goals, in order:

1. **Disabled telemetry is free.**  Components capture the active
   recorder once at construction (``self._obs = recorder()``); when
   telemetry is off that recorder is the :data:`NOOP` null object, so
   a hot loop pays one attribute load to discover ``enabled`` is false
   and skips all instrumentation.  Analyses additionally batch their
   hot-path counters in plain dataclasses (``ICDStats`` etc.) and
   publish them once at execution end — the per-event cost of
   telemetry is zero in every mode.
2. **Deterministic aggregation.**  Counter values are derived from the
   analyzed execution, never from wall-clock time, so merging worker
   snapshots in submission order yields identical counters for any
   ``--jobs`` count.  Wall-clock data lives in histograms and span
   events only.
3. **Picklable snapshots.**  :meth:`MetricsRegistry.snapshot` returns
   plain dicts/lists so :class:`~repro.harness.parallel.CellPool`
   workers can ship their telemetry back to the parent process.

Modes (the CLI's ``--obs`` flag):

* ``off`` — the null recorder; nothing is collected.
* ``counters`` — counters, gauges, and duration histograms.
* ``full`` — everything above plus structured span events (the input
  to the Chrome-trace exporter).
"""

from __future__ import annotations

import dataclasses
import os
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, Tuple

MODE_OFF = "off"
MODE_COUNTERS = "counters"
MODE_FULL = "full"
MODES = (MODE_OFF, MODE_COUNTERS, MODE_FULL)

#: default histogram bucket upper bounds for durations, in seconds
#: (fixed at registry creation so snapshots always merge bucket-wise)
DEFAULT_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram; bucket ``i`` counts values ``<= bounds[i]``
    (the final overflow bucket counts the rest)."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        if tuple(data["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(data["counts"]):
            self.counts[i] += c
        self.count += data["count"]
        self.total += data["total"]
        for key, pick in (("min", min), ("max", max)):
            other = data.get(key)
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else pick(mine, other))


class NoopSpan:
    """Null context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP_SPAN = NoopSpan()


class NoopRecorder:
    """Null-object recorder: the interface of :class:`MetricsRegistry`
    with every operation a no-op.  Installed globally when telemetry is
    off, so instrumented code never needs a None check — one attribute
    load of :attr:`enabled` is the whole cost of disabled telemetry."""

    enabled = False
    mode = MODE_OFF
    events: Tuple = ()

    def inc(self, name: str, value: int = 1) -> None:
        return None

    def gauge_set(self, name: str, value: float) -> None:
        return None

    def gauge_max(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def emit_event(self, name: str, category: str, ts: float, dur: float,
                   args: Optional[Dict[str, Any]] = None) -> None:
        return None

    def span(self, name: str, category: str = "phase",
             **fields: Any) -> NoopSpan:
        return _NOOP_SPAN

    def snapshot(self) -> Dict[str, Any]:
        return {"mode": MODE_OFF, "counters": {}, "gauges": {},
                "histograms": {}, "events": []}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        return None


#: the process-wide null recorder
NOOP = NoopRecorder()


class MetricsRegistry:
    """A live metrics store for one process or experiment cell.

    ``epoch`` pins the perf_counter origin event timestamps are taken
    against; the CellPool workers of a ``--jobs`` run receive the run's
    epoch so every process's events land on **one** shared timeline
    (see :mod:`repro.obs.wire`).
    ``trace_id`` identifies the run the registry belongs to; children
    inherit it so a merged trace is self-describing.  ``label`` names
    this process's track in the exported trace.
    """

    enabled = True

    def __init__(self, mode: str = MODE_COUNTERS, *,
                 epoch: Optional[float] = None,
                 trace_id: Optional[str] = None,
                 label: Optional[str] = None) -> None:
        if mode not in (MODE_COUNTERS, MODE_FULL):
            raise ValueError(
                f"registry mode must be one of {(MODE_COUNTERS, MODE_FULL)}, "
                f"got {mode!r} (use NOOP for {MODE_OFF!r})"
            )
        self.mode = mode
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: structured span events (``full`` mode only); each is a plain
        #: dict with the Chrome trace-event fields (name/cat/ts/dur/pid)
        self.events: List[Dict[str, Any]] = []
        #: perf_counter origin: event timestamps are relative to this,
        #: so every process's trace starts near zero
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.pid = os.getpid()
        #: run identity stamped into exported traces/metrics
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: pid -> human-readable track name for the trace exporter
        self.labels: Dict[int, str] = {}
        if label:
            self.labels[self.pid] = label

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def emit_event(self, name: str, category: str, ts: float, dur: float,
                   args: Optional[Dict[str, Any]] = None) -> None:
        """Record one completed span (``full`` mode only).

        ``ts`` is seconds since :attr:`epoch`, ``dur`` in seconds; the
        Chrome-trace exporter converts to microseconds.
        """
        if self.mode != MODE_FULL:
            return
        event: Dict[str, Any] = {
            "name": name, "cat": category, "ts": ts, "dur": dur,
            "pid": self.pid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def span(self, name: str, category: str = "phase", **fields: Any):
        """A timed span over this registry (see :mod:`repro.obs.spans`)."""
        from repro.obs.spans import Span

        return Span(self, name, category=category, args=fields or None)

    # ------------------------------------------------------------------
    # snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable copy of every metric, deterministically ordered."""
        return {
            "mode": self.mode,
            "trace_id": self.trace_id,
            "labels": dict(self.labels),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
            },
            "events": list(self.events),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot in: counters/histograms add, gauges take the
        max, events append.  Merging worker snapshots in submission
        order therefore reproduces the serial counters exactly."""
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(
                    tuple(data["bounds"])
                )
            histogram.merge_dict(data)
        for pid, label in snapshot.get("labels", {}).items():
            self.labels.setdefault(int(pid), label)
        if self.mode == MODE_FULL:
            self.events.extend(snapshot.get("events", []))


# ----------------------------------------------------------------------
# the process-global active recorder
# ----------------------------------------------------------------------
_active: Any = NOOP


def recorder() -> Any:
    """The active recorder (a :class:`MetricsRegistry` or :data:`NOOP`).

    Instrumented components capture this once at construction time, so
    a cell's components all record into the registry that was active
    when the cell started.
    """
    return _active


def use_registry(registry: Any) -> Any:
    """Install ``registry`` (or :data:`NOOP`) as the active recorder;
    returns the previous one so callers can restore it."""
    global _active
    previous = _active
    _active = registry if registry is not None else NOOP
    return previous


def configure(mode: str) -> Any:
    """Install a fresh recorder for ``mode`` and return it.

    ``"off"`` installs :data:`NOOP`; ``"counters"``/``"full"`` install
    a new :class:`MetricsRegistry`.
    """
    if mode not in MODES:
        raise ValueError(f"obs mode must be one of {MODES}, got {mode!r}")
    registry = NOOP if mode == MODE_OFF else MetricsRegistry(mode)
    use_registry(registry)
    return registry


# ----------------------------------------------------------------------
# dataclass publication
# ----------------------------------------------------------------------
def publish_stats(target: Any, prefix: str, stats: Any,
                  gauges: Iterable[str] = ()) -> None:
    """Publish a ``*Stats`` dataclass onto the registry as counters.

    Every integer field becomes ``<prefix>.<field>``; integer-valued
    dict fields fan out to ``<prefix>.<field>.<key>``.  Field names in
    ``gauges`` (peaks and other high-water marks) become max-merged
    gauges instead.  Non-numeric fields — including linked nested stats
    objects — are skipped, so analyses can keep their existing
    dataclasses as hot-path accumulators and publish them once at
    execution end.
    """
    if not target.enabled:
        return
    gauge_names = set(gauges)
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        name = f"{prefix}.{field.name}"
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            if field.name in gauge_names:
                target.gauge_max(name, value)
            else:
                target.inc(name, value)
        elif isinstance(value, dict):
            for key in sorted(value):
                entry = value[key]
                if isinstance(entry, int) and not isinstance(entry, bool):
                    target.inc(f"{name}.{key}", entry)


__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "MODE_COUNTERS",
    "MODE_FULL",
    "MODE_OFF",
    "MODES",
    "NOOP",
    "NoopRecorder",
    "NoopSpan",
    "configure",
    "publish_stats",
    "recorder",
    "use_registry",
]
