"""Parallel execution of independent experiment cells.

Every paper artefact (Table 2, Table 3, Figure 7, the Section 5.3/5.4
studies) is an aggregation over independent (workload, checker, seed)
cells: each cell builds its own program, runs its own seeded scheduler,
and shares no state with any other cell.  That makes the experiment
harness embarrassingly parallel, and — because the cells are separate
*processes* — entirely unconstrained by the GIL.

:class:`CellPool` fans cells across worker processes via
:class:`concurrent.futures.ProcessPoolExecutor`:

* **Workers rebuild programs from workload names.**  Cell functions
  receive the workload *name* and call :func:`repro.workloads.build`
  inside the worker; :class:`~repro.runtime.program.Program` objects
  (closures over generator bodies) are never pickled.  Specifications,
  static-transaction info, and checker results are all plain picklable
  data.
* **Ordered results.**  :meth:`CellPool.starmap` returns results in
  submission order regardless of completion order, so any aggregation
  (medians, unions, geomeans) observes exactly the sequence the serial
  path would — rendered tables are byte-identical for any job count.
* **Read-only caches in workers.**  Workers are initialized with
  :func:`repro.harness.runner.set_cache_readonly`, so only the parent
  process ever writes the final-spec disk cache (see
  :func:`repro.harness.runner._store_cache`).
* **Workers die with their parent.**  A parent killed outright
  (``kill -9``) cannot shut its pool down, and its workers would idle
  on, reparented.  Each worker polls its parent pid from a daemon
  thread and exits as soon as it changes.

A batch's telemetry merge is **all-or-nothing**: per-cell snapshots
are folded into the caller's registry — in submission order — only
after the whole batch succeeds, so a failed experiment never leaves a
partially merged registry behind.

There is no recovery: the first failing cell cancels its pending
siblings, waits for the running ones, and re-raises.  A worker process
that dies (``BrokenProcessPool``) surfaces as :class:`CellFailedError`
naming the cell.  A whole experiment grid runs in minutes, so a failed
run is simply started again.

The job count comes from (highest precedence first) an explicit
``jobs=`` argument, the ``--jobs`` CLI flag, or the
``DOUBLECHECKER_JOBS`` environment variable; the default is serial.
``jobs=1`` executes cells inline in the parent process — no worker
processes, no pickling.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    MetricsRegistry,
    recorder as obs_recorder,
    use_registry,
)
from repro.obs.wire import aligned_epoch, trace_context

#: environment variable consulted when no explicit job count is given
JOBS_ENV = "DOUBLECHECKER_JOBS"

#: seconds between a worker's checks that its parent is still alive
_PARENT_POLL_S = 0.5


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Determine the worker count.

    ``None`` falls back to ``DOUBLECHECKER_JOBS`` (and then to 1);
    ``0`` or a negative count means "one worker per CPU".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


class CellFailedError(Exception):
    """A worker process died while running a cell (the cause is
    chained)."""

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(f"cell {label} failed: {cause!r}")
        self.label = label


def _init_worker() -> None:
    """Worker initializer: never write shared on-disk caches, and exit
    once the parent process is gone."""
    from repro.harness import runner

    runner.set_cache_readonly(True)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    """Poll the parent pid; an orphaned worker is reparented, so its
    parent pid changes, and it exits at once."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _obs_cell(octx: dict, fn: Callable[..., Any], args: Sequence[Any]) -> Tuple[Any, dict]:
    """Run one cell under a fresh telemetry registry.

    ``octx`` is the batch's :func:`repro.obs.wire.trace_context`: the
    cell registry inherits the caller's trace id and epoch (aligned
    onto this process's monotonic clock), so cells in worker processes
    land on the same merged timeline as the parent's own spans.

    Returns ``(result, snapshot)``.  Both the inline path and the
    worker path route cells through this wrapper when telemetry is on,
    so the merged registry — snapshots folded in **submission order**
    — is identical for any job count (counters are derived from the
    analyzed execution, never from timing; see
    :meth:`repro.obs.registry.MetricsRegistry.merge`).
    """
    registry = MetricsRegistry(
        octx["mode"],
        epoch=aligned_epoch(octx.get("epoch"), octx.get("spawn_now")),
        trace_id=octx.get("trace_id"),
        label="cell-worker",
    )
    previous = use_registry(registry)
    try:
        result = fn(*args)
    finally:
        use_registry(previous)
    return result, registry.snapshot()


class CellPool:
    """Run independent experiment cells, optionally across processes.

    Args:
        jobs: worker count (see :func:`resolve_jobs`).  With ``jobs=1``
            every cell executes inline and the pool is free.

    The pool is a context manager; exiting shuts the workers down.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        if self.jobs > 1:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_init_worker
            )

    def starmap(
        self,
        fn: Callable[..., Any],
        argslists: Iterable[Sequence[Any]],
    ) -> List[Any]:
        """Run ``fn(*args)`` for each args tuple; ordered results.

        The parallel path submits everything up front and collects in
        submission order, so the returned list is positionally
        identical to ``[fn(*args) for args in argslists]``.

        When telemetry is active (see :mod:`repro.obs`), every cell —
        inline or in a worker — runs under its own registry whose
        snapshot is merged back into the caller's registry in
        submission order **after the whole batch succeeds**, so serial
        and parallel runs of the same experiment produce identical
        merged counters and a failed batch merges nothing.
        """
        batch = [tuple(args) for args in argslists]
        target = obs_recorder()
        if not target.enabled:
            if self._executor is None:
                return [fn(*args) for args in batch]
            return self._collect(fn, batch, None)
        octx = trace_context(target)
        if self._executor is None:
            pairs = [_obs_cell(octx, fn, args) for args in batch]
        else:
            pairs = self._collect(fn, batch, octx)
        # all-or-nothing merge, in submission order
        for _, snapshot in pairs:
            target.merge(snapshot)
        return [result for result, _ in pairs]

    def _collect(
        self,
        fn: Callable[..., Any],
        batch: List[Tuple[Any, ...]],
        octx: Optional[dict],
    ) -> List[Any]:
        """Submit every cell to the workers and collect the results in
        submission order (``(result, snapshot)`` pairs when ``octx``
        carries a telemetry context)."""
        futures: List["Future[Any]"] = []
        try:
            for args in batch:
                if octx is None:
                    futures.append(self._executor.submit(fn, *args))
                else:
                    futures.append(
                        self._executor.submit(_obs_cell, octx, fn, args)
                    )
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            # a worker died: every unfinished future fails with this,
            # and so does ``submit`` once the pool has noticed.  Which
            # cell the dead worker ran cannot be told from here, so
            # the error names the first cell without a result.
            index = next(
                (i for i, future in enumerate(futures)
                 if not future.done() or future.exception() is not None),
                len(futures),
            )
            raise CellFailedError(f"{fn.__qualname__}[{index}]", exc) from exc
        except Exception:
            # cancel pending siblings and drain the running ones, so a
            # failed batch neither wastes workers on doomed cells nor
            # leaves them racing the caller's cleanup
            for future in futures:
                future.cancel()
            futures_wait(futures)
            raise
        except BaseException:
            # KeyboardInterrupt/SystemExit: cancel what we can and
            # re-raise at once
            for future in futures:
                future.cancel()
            raise

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@contextmanager
def ensure_pool(pool: Optional[CellPool]) -> Iterator[CellPool]:
    """Yield ``pool`` if given, else a fresh :class:`CellPool` (job
    count from ``DOUBLECHECKER_JOBS``) that is closed on exit.  Lets
    experiment entry points accept an explicit pool shared across
    experiments."""
    if pool is not None:
        yield pool
        return
    with CellPool() as owned:
        yield owned


__all__ = [
    "CellFailedError",
    "CellPool",
    "JOBS_ENV",
    "ensure_pool",
    "resolve_jobs",
]
