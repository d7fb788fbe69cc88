"""Command-line entry point: ``doublechecker-experiments``.

Regenerates the paper's evaluation artefacts as text tables::

    doublechecker-experiments table2
    doublechecker-experiments figure7 --names eclipse6 xalan6
    doublechecker-experiments all --out results/ --jobs 4

``--jobs N`` (or the ``DOUBLECHECKER_JOBS`` environment variable) fans
independent (workload, checker, seed) cells across N worker processes;
``--jobs 0`` uses one worker per CPU.  Rendered tables are identical
for any job count.  Each single analysis run executes in-process
(:meth:`repro.core.doublechecker.DoubleChecker.run_single`).

Exit statuses:

* 0 — success;
* 1 — ``crosscheck`` found disagreeing verdicts;
* 2 — a pre-flight or usage error (bad flags, an unknown ``--names``
  benchmark, bad ``DOUBLECHECKER_JOBS``, an unwritable output path);
* 3 — a worker process died while running a cell (under ``--jobs``).
  There is no retry: the run stops with one error line naming the
  cell, and is simply started again.

Telemetry (see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``):

* ``--obs counters`` collects analysis counters and phase timers;
  ``--obs full`` also records structured events for trace export.
* ``--metrics-out FILE`` writes the merged metrics snapshot as JSON
  (implies at least ``--obs counters``).
* ``--trace-out FILE`` writes a Chrome trace-event JSON loadable in
  Perfetto / ``chrome://tracing`` (implies ``--obs full``).
* Under ``--jobs N`` the trace is a single merged timeline: cell
  workers inherit the run's trace id and clock epoch and ship their
  spans back with each cell's result; each worker is its own
  ``cell-worker`` track (see ``docs/OBSERVABILITY.md``).
* Flag combinations that cannot be honored — an explicit ``--obs off``
  with ``--metrics-out``/``--trace-out``, or ``--obs counters`` with
  ``--trace-out`` (counters mode records no events) — fail the
  pre-flight check with exit status 2 instead of silently writing an
  empty file.

``doublechecker-experiments obs analyze TRACE`` delegates to
:mod:`repro.obs.analyze`: a critical-path report over a merged trace
(per-process utilization, per-stage wall attribution, longest spans,
suggested next bottleneck).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import repro
from repro.harness import figure7, section54, table2, table3
from repro.harness.parallel import CellFailedError, CellPool
from repro.obs import (
    MODE_COUNTERS,
    MODE_FULL,
    MODE_OFF,
    phase,
    render_summary,
    use_registry,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.registry import MetricsRegistry
from repro.workloads import all_names

EXPERIMENTS = (
    "table2",
    "table3",
    "figure7",
    "unsound",
    "refinement-phases",
    "arrays",
    "pcd-only",
    "second-run-variants",
)

#: backend-selection experiments — separate from EXPERIMENTS so
#: ``all`` keeps regenerating exactly the paper's artefacts
BACKEND_EXPERIMENTS = ("check", "crosscheck")


def _generate(
    experiment: str,
    names: Optional[List[str]],
    pool: Optional[CellPool] = None,
) -> str:
    if experiment == "table2":
        return table2.generate(names, pool=pool).render()
    if experiment == "table3":
        return table3.generate(names, pool=pool).render()
    if experiment == "figure7":
        return figure7.generate(names, pool=pool).render()
    if experiment == "unsound":
        return section54.unsound_velodrome(names, pool=pool).render()
    if experiment == "refinement-phases":
        return section54.refinement_phases(names, pool=pool).render()
    if experiment == "arrays":
        return section54.arrays(names, pool=pool).render()
    if experiment == "pcd-only":
        return section54.pcd_only(names, pool=pool).render()
    if experiment == "second-run-variants":
        return section54.second_run_variants(names, pool=pool).render()
    raise ValueError(f"unknown experiment: {experiment}")


def _check_writable(path: str, flag: str) -> Optional[str]:
    """Return an error message if ``path`` cannot be written, else None.

    Checked up front so a long experiment run never fails at the very
    end with a traceback over an unwritable output path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return f"{flag}: directory does not exist: {directory}"
    if os.path.isdir(path):
        return f"{flag}: path is a directory: {path}"
    probe = path if os.path.exists(path) else directory
    if not os.access(probe, os.W_OK):
        return f"{flag}: path is not writable: {path}"
    return None


def _check_writable_dir(path: str, flag: str) -> Optional[str]:
    """Return an error message if the results *directory* ``path``
    cannot be created/written, else None.

    ``--out`` may name a directory that does not exist yet
    (``os.makedirs`` creates it), so the check walks up to the nearest
    existing ancestor and requires it to be a writable directory.
    """
    path = os.path.abspath(path)
    if os.path.exists(path):
        if not os.path.isdir(path):
            return f"{flag}: path exists and is not a directory: {path}"
        if not os.access(path, os.W_OK):
            return f"{flag}: directory is not writable: {path}"
        return None
    probe = os.path.dirname(path)
    while not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    if not os.path.isdir(probe):
        return f"{flag}: cannot create directory under {probe}"
    if not os.access(probe, os.W_OK):
        return f"{flag}: directory is not writable: {probe}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs":
        # `doublechecker-experiments obs analyze TRACE ...` — telemetry
        # tooling lives in its own module with its own argument parser
        from repro.obs.analyze import main as obs_main

        return obs_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="doublechecker-experiments",
        description="Regenerate the DoubleChecker paper's tables and figures.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",) + BACKEND_EXPERIMENTS,
        help=(
            "which artefact to regenerate; 'check' tabulates one "
            "analysis backend's verdicts (see --backend) and "
            "'crosscheck' validates the all-backend agreement matrix"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("icd", "velodrome", "vc"),
        default=None,
        help=(
            "analysis backend for the check experiment: icd "
            "(DoubleChecker single-run ICD+PCD, the default), "
            "velodrome, or vc (vector-clock)"
        ),
    )
    parser.add_argument(
        "--names",
        nargs="*",
        default=None,
        help="restrict to these benchmarks (default: the experiment's set)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write <experiment>.txt files into",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for independent cells (0 = one per CPU; "
            "default: $DOUBLECHECKER_JOBS or serial)"
        ),
    )
    parser.add_argument(
        "--obs",
        choices=(MODE_OFF, MODE_COUNTERS, MODE_FULL),
        default=None,
        help=(
            "telemetry mode (default off): counters adds analysis "
            "counters and phase timers; full also records events for "
            "--trace-out"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the merged metrics snapshot as JSON (implies --obs counters)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome trace-event JSON loadable in Perfetto "
            "(implies --obs full)"
        ),
    )
    args = parser.parse_args(argv)

    # --backend only steers the check experiment; anywhere else it
    # would be silently ignored, so fail the pre-flight instead
    if args.backend is not None and args.experiment != "check":
        print(
            "doublechecker-experiments: error: --backend only applies to "
            "the check experiment",
            file=sys.stderr,
        )
        return 2

    # an unknown benchmark would otherwise end the run in a KeyError
    # traceback with exit 1, the status of a crosscheck disagreement
    unknown = [name for name in args.names or () if name not in all_names()]
    if unknown:
        print(f"doublechecker-experiments: error: unknown benchmark "
              f"{', '.join(map(repr, unknown))} in --names; known: "
              f"{', '.join(all_names())}", file=sys.stderr)
        return 2

    # Explicit --obs choices that contradict an output flag fail up
    # front (exit 2) rather than silently writing an empty file; an
    # *omitted* --obs is still upgraded to whatever the output needs.
    obs_conflict = None
    if args.obs == MODE_OFF and (args.trace_out or args.metrics_out):
        flag = "--trace-out" if args.trace_out else "--metrics-out"
        obs_conflict = f"{flag} cannot be honored with an explicit --obs off"
    elif args.obs == MODE_COUNTERS and args.trace_out:
        obs_conflict = (
            "--trace-out needs --obs full (counters mode records no "
            "events, so the trace would be empty)"
        )
    if obs_conflict is not None:
        print(
            f"doublechecker-experiments: error: {obs_conflict}",
            file=sys.stderr,
        )
        return 2

    mode = args.obs if args.obs is not None else MODE_OFF
    if args.trace_out:
        mode = MODE_FULL
    elif args.metrics_out and mode == MODE_OFF:
        mode = MODE_COUNTERS

    for path, flag in (
        (args.metrics_out, "--metrics-out"),
        (args.trace_out, "--trace-out"),
    ):
        if path:
            error = _check_writable(path, flag)
            if error is not None:
                print(f"doublechecker-experiments: error: {error}", file=sys.stderr)
                return 2
    if args.out:
        error = _check_writable_dir(args.out, "--out")
        if error is not None:
            print(f"doublechecker-experiments: error: {error}", file=sys.stderr)
            return 2

    experiments = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    try:
        pool = CellPool(args.jobs)
    except ValueError as exc:
        # a malformed DOUBLECHECKER_JOBS
        print(f"doublechecker-experiments: error: {exc}", file=sys.stderr)
        return 2

    registry: Optional[MetricsRegistry] = None
    previous = None
    if mode != MODE_OFF:
        registry = MetricsRegistry(mode)
        previous = use_registry(registry)
    crosscheck_failed = False
    try:
        with pool:
            for experiment in experiments:
                with phase(f"experiment.{experiment}", category="experiment"):
                    if experiment == "check":
                        from repro.harness import backends

                        rendered = backends.generate_check(
                            args.backend or "icd", args.names
                        ).render()
                    elif experiment == "crosscheck":
                        from repro.harness import backends

                        crosscheck = backends.generate_crosscheck(args.names)
                        rendered = crosscheck.render()
                        crosscheck_failed = bool(crosscheck.mismatches)
                    else:
                        rendered = _generate(experiment, args.names, pool=pool)
                print(rendered)
                print()
                if args.out:
                    try:
                        os.makedirs(args.out, exist_ok=True)
                        path = os.path.join(args.out, f"{experiment}.txt")
                        with open(path, "w") as handle:
                            handle.write(rendered + "\n")
                    except OSError as exc:
                        # the pre-flight check covers the common cases;
                        # this catches races and exotic filesystems so
                        # a finished experiment still exits readably
                        print(
                            f"doublechecker-experiments: error: could not "
                            f"write results: {exc}",
                            file=sys.stderr,
                        )
                        return 2
    except CellFailedError as exc:
        print(f"doublechecker-experiments: error: {exc}", file=sys.stderr)
        return 3
    finally:
        if registry is not None:
            use_registry(previous)

    if registry is not None:
        try:
            if args.metrics_out:
                write_metrics_json(args.metrics_out, registry)
            if args.trace_out:
                write_chrome_trace(args.trace_out, registry)
        except OSError as exc:
            print(
                f"doublechecker-experiments: error: could not write "
                f"telemetry output: {exc}",
                file=sys.stderr,
            )
            return 2
        print(render_summary(registry))
    if crosscheck_failed:
        print(
            "doublechecker-experiments: error: backend cross-validation "
            "found disagreeing verdicts (see the agreement column)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
