"""Cross-process trace propagation for ``--jobs`` runs.

The parallel harness (:mod:`repro.harness.parallel`) forks CellPool
worker processes; each one records spans and wall-clock histograms
into its own :class:`~repro.obs.registry.MetricsRegistry` and ships a
snapshot back with the cell's result.  This module holds the two
pieces that make those per-process buffers merge into **one**
timeline:

* **Trace context** (:func:`trace_context`) — a picklable capsule of
  the parent registry's ``(mode, epoch, trace_id, spawn_now)``.  It is
  attached to the config of every child process.
* **Clock alignment** (:func:`aligned_epoch`) — the handshake that
  maps a child's monotonic clock onto the parent's.  Under ``fork`` on
  Linux both processes read the same ``CLOCK_MONOTONIC``, so the
  child simply adopts the parent's epoch; if the child's clock turns
  out to be a different domain (its "now" predates the parent's
  recorded spawn instant), the child pins its startup to the spawn
  instant instead — bounding skew by process-creation latency.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional


def trace_context(registry: Any) -> Optional[Dict[str, Any]]:
    """Picklable spawn-time capsule of the active trace context.

    Returns ``None`` when telemetry is off (children then record
    nothing).  ``spawn_now`` is sampled here — call this immediately
    before starting the children so the clock handshake is tight.
    """
    if registry is None or not getattr(registry, "enabled", False):
        return None
    return {
        "mode": registry.mode,
        "epoch": registry.epoch,
        "trace_id": registry.trace_id,
        "spawn_now": time.perf_counter(),
    }


def aligned_epoch(trace_epoch: Optional[float],
                  spawn_now: Optional[float]) -> float:
    """The child-side epoch mapping local perf_counter onto the
    parent's timeline (see module docstring)."""
    now = time.perf_counter()
    if trace_epoch is None:
        return now
    if spawn_now is None or now >= spawn_now:
        # shared monotonic clock domain (fork): adopt the parent epoch
        return trace_epoch
    # disjoint domains: pin the child's "now" to the spawn instant
    return now - (spawn_now - trace_epoch)


__all__ = [
    "aligned_epoch",
    "trace_context",
]
