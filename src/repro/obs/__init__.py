"""Unified telemetry: metrics registry, phase spans, and exporters.

The observability layer shared by the executor, the analyses (Octet,
ICD, PCD, Velodrome, the graph engine), and the experiment harness.
See ``docs/OBSERVABILITY.md`` for the metric-name catalog and the
exporter formats.

Typical embedded use::

    from repro import obs

    registry = obs.configure("full")      # or "counters" / "off"
    ...  # run checkers, experiments, CellPool fan-outs
    print(obs.render_summary(registry))
    obs.write_chrome_trace("trace.json", registry)

Instrumented components capture ``obs.recorder()`` once at
construction; with telemetry off that is the :data:`~repro.obs.NOOP`
null object and instrumentation costs one attribute load.
"""

from repro.obs.export import (
    chrome_trace_document,
    metrics_document,
    render_summary,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    MODE_COUNTERS,
    MODE_FULL,
    MODE_OFF,
    MODES,
    NOOP,
    NoopRecorder,
    configure,
    publish_stats,
    recorder,
    use_registry,
)
from repro.obs.spans import Span, phase
from repro.obs.wire import aligned_epoch, trace_context

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
    "Span",
    "aligned_epoch",
    "chrome_trace_document",
    "configure",
    "metrics_document",
    "phase",
    "publish_stats",
    "recorder",
    "render_summary",
    "trace_context",
    "use_registry",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]
