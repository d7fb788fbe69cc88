"""Throughput-regression gate for the committed benchmark baselines.

Re-runs the measurement functions behind every committed
``results/BENCH_*.json`` baseline, compares each throughput metric
(keys named ``*steps_per_second``) against the stored value, and
prints a per-metric PASS/FAIL table.  A fresh value below its
baseline's tolerance floor is a regression: the script lists every
offending metric and exits nonzero, so CI — or a pre-commit run —
fails loudly instead of silently shipping a slower analysis pipeline.

Each baseline carries its own default tolerance (see ``BASELINES``);
``--tolerance`` overrides them all, e.g. a tight local gate with
``--tolerance 0.05`` or a loose cross-machine CI gate with
``--tolerance 0.60``.  The ``BENCH_obs.json`` baseline additionally
re-checks the telemetry overhead budget: disabled-mode overhead is
measured *paired* against the pre-telemetry loop (machine-independent,
see ``bench_obs_overhead``), so its 2% bound holds at full strength
even where raw throughput tolerances must be loose.

Counters that are deterministic (visit counts, check counts) are not
compared here; the benchmark suites assert their invariants
themselves.  Throughput baselines are machine-dependent, so after an
intentional change — or on new hardware — regenerate them with::

    PYTHONPATH=src python benchmarks/bench_executor_throughput.py
    PYTHONPATH=src python benchmarks/bench_analysis_throughput.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_fault_overhead.py
    PYTHONPATH=src python benchmarks/bench_access_barrier.py

Run the gate with::

    PYTHONPATH=src python benchmarks/check_bench_regression.py
"""

import argparse
import importlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: committed baseline -> (benchmark module regenerating it, default
#: fractional tolerance for its throughput metrics)
BASELINES = {
    "BENCH_executor.json": ("bench_executor_throughput", 0.30),
    "BENCH_analysis.json": ("bench_analysis_throughput", 0.30),
    "BENCH_obs.json": ("bench_obs_overhead", 0.30),
    "BENCH_faults.json": ("bench_fault_overhead", 0.30),
    "BENCH_access.json": ("bench_access_barrier", 0.30),
}

#: fallback tolerance for baselines discovered on disk but missing
#: from ``BASELINES`` (gated via their embedded ``module`` field)
DISCOVERED_TOLERANCE = 0.30


def discover_baselines():
    """Every committed baseline, including ones not wired into
    ``BASELINES``.

    A ``results/BENCH_*.json`` that names its regenerating benchmark in
    a top-level ``module`` field is gated automatically (with a warning
    that it should be added to ``BASELINES``); one that does not is
    reported as a gate failure — a committed baseline must never
    silently skip the gate.

    Returns ``(entries, warnings, failures)`` where ``entries`` maps
    filename -> (module_name, tolerance).
    """
    entries = dict(BASELINES)
    warnings = []
    failures = []
    results_dir = os.path.join(BENCH_DIR, "..", "results")
    if os.path.isdir(results_dir):
        for filename in sorted(os.listdir(results_dir)):
            if not (filename.startswith("BENCH_") and filename.endswith(".json")):
                continue
            if filename in entries:
                continue
            try:
                with open(os.path.join(results_dir, filename)) as handle:
                    module_name = json.load(handle).get("module")
            except (OSError, ValueError) as exc:
                failures.append(f"{filename}: unreadable baseline: {exc}")
                continue
            if module_name:
                warnings.append(
                    f"{filename}: not in BASELINES; gating via its "
                    f"'module' field ({module_name}) — add it to "
                    f"BASELINES in {os.path.basename(__file__)}"
                )
                entries[filename] = (module_name, DISCOVERED_TOLERANCE)
            else:
                failures.append(
                    f"{filename}: committed baseline is not wired into the "
                    f"gate: add it to BASELINES or embed a top-level "
                    f"'module' field naming its benchmark module"
                )
    return entries, warnings, failures


def _throughput_metrics(node, prefix=""):
    """Yield (dotted-path, value) for every ``*steps_per_second`` key."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and key.endswith(
                "steps_per_second"
            ):
                yield path, value
            else:
                yield from _throughput_metrics(value, path)


def _render_table(rows):
    """Plain fixed-width PASS/FAIL table (no repro imports: the gate
    must stay runnable even when the package itself is broken)."""
    headers = ("status", "baseline", "metric", "committed", "fresh", "floor")
    table = [headers] + [
        (
            status,
            filename,
            metric,
            f"{committed:.0f}" if committed is not None else "-",
            f"{fresh:.0f}" if fresh is not None else "-",
            f"{floor:.0f}" if floor is not None else "-",
        )
        for status, filename, metric, committed, fresh, floor in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def check(tolerance=None):
    """Compare fresh measurements against every committed baseline.

    ``tolerance`` overrides the per-baseline defaults when given.
    Returns ``(checked, regressions, table_rows)``.
    """
    sys.path.insert(0, BENCH_DIR)
    baselines, warnings, failures = discover_baselines()
    for warning in warnings:
        print(f"-- warning: {warning}")
    regressions = list(failures)
    rows = []
    checked = 0
    for filename, (module_name, default_tolerance) in baselines.items():
        path = os.path.join(BENCH_DIR, "..", "results", filename)
        if not os.path.exists(path):
            print(f"-- {filename}: no committed baseline, skipping")
            continue
        allowed = default_tolerance if tolerance is None else tolerance
        with open(path) as handle:
            committed = dict(_throughput_metrics(json.load(handle)))
        module = importlib.import_module(module_name)
        fresh_workloads = module._measure()
        fresh = dict(_throughput_metrics({"workloads": fresh_workloads}))
        for metric, baseline in sorted(committed.items()):
            current = fresh.get(metric)
            if current is None:
                regressions.append(
                    f"{filename}:{metric}: missing from fresh measurement"
                )
                rows.append(("MISSING", filename, metric, baseline, None, None))
                continue
            checked += 1
            floor = baseline * (1.0 - allowed)
            if current < floor:
                regressions.append(
                    f"{filename}:{metric}: {current:.0f} < {floor:.0f} "
                    f"(baseline {baseline:.0f}, -{allowed:.0%} floor)"
                )
                rows.append(("FAIL", filename, metric, baseline, current, floor))
            else:
                rows.append(("PASS", filename, metric, baseline, current, floor))
        # the telemetry bench also carries a machine-independent paired
        # overhead budget; re-check it on the fresh measurement
        if hasattr(module, "check_overhead_budget"):
            fresh_report = {
                "overhead_budget_percent": module.OVERHEAD_BUDGET_PERCENT,
                "workloads": fresh_workloads,
            }
            for violation in module.check_overhead_budget(fresh_report):
                checked += 1
                regressions.append(f"{filename}:overhead: {violation}")
                rows.append(
                    ("FAIL", filename, f"overhead:{violation.split(':')[0]}",
                     None, None, None)
                )
    return checked, regressions, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "allowed fractional slowdown before failing; overrides the "
            "per-baseline defaults (executor/analysis/obs: 0.30)"
        ),
    )
    # backward-compatible alias for the pre-table flag name
    parser.add_argument(
        "--threshold",
        type=float,
        dest="tolerance",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    checked, regressions, rows = check(args.tolerance)
    if rows:
        print(_render_table(rows))
    if regressions:
        print(f"\n{len(regressions)} regression(s) of {checked} checks:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nall {checked} checks within tolerance")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(BENCH_DIR, "..", "src"))
    raise SystemExit(main())
