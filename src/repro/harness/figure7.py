"""Figure 7 — normalized execution time of all configurations.

For each compute-bound benchmark under its final refined specification:

* **Unmodified** — the uninstrumented executor (the 1.0 baseline);
* **Velodrome** — the sound+precise online baseline;
* **Single-run (ICD+PCD)** — DoubleChecker's fully sound mode;
* **First run (ICD w/o logging)** — multi-run mode's first run;
* **Second run (ICD+PCD)** — multi-run mode's second run, restricted to
  the static transactions identified by first runs.

Each configuration reports the *modelled* normalized execution time
(the calibrated event-cost model; see :mod:`repro.costs.model`) and
its GC share (Figure 7's sub-bars).  Medians over ``trials`` seeds,
geomean across benchmarks.  Every cell is a function of the seeds, so
a render is byte-identical for any job count; measured wall-clock
time is the layer ledger's (``benchmarks/layers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.static_info import StaticTransactionInfo
from repro.costs.model import CostModel
from repro.harness import runner
from repro.harness.parallel import CellPool, ensure_pool
from repro.harness.rendering import render_table
from repro.stats.summary import geomean, median
from repro.workloads import compute_bound_names

CONFIGS = ("velodrome", "single", "first", "second")


@dataclass
class Figure7Row:
    """One benchmark's bars."""

    name: str
    #: configuration -> modelled normalized execution time
    normalized: Dict[str, float] = field(default_factory=dict)
    #: configuration -> modelled GC share of total time
    gc_fraction: Dict[str, float] = field(default_factory=dict)


@dataclass
class Figure7Result:
    rows: List[Figure7Row]

    def geomeans(self) -> Dict[str, float]:
        out = {}
        for config in CONFIGS:
            values = [r.normalized[config] for r in self.rows]
            out[config] = geomean(values)
        return out

    def render(self) -> str:
        headers = [
            "benchmark",
            "Velodrome",
            "Single-run",
            "First run",
            "Second run",
            "gc%V",
            "gc%S",
        ]
        rows = []
        for r in self.rows:
            rows.append(
                [
                    r.name,
                    r.normalized["velodrome"],
                    r.normalized["single"],
                    r.normalized["first"],
                    r.normalized["second"],
                    f"{r.gc_fraction['velodrome']:.0%}",
                    f"{r.gc_fraction['single']:.0%}",
                ]
            )
        means = self.geomeans()
        rows.append(
            [
                "geomean",
                means["velodrome"],
                means["single"],
                means["first"],
                means["second"],
                "",
                "",
            ]
        )
        return render_table(
            headers, rows, title="Figure 7: normalized execution time (modelled)"
        )


def generate(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 3,
    first_trials: int = 2,
    seed_base: int = 50_000,
    model: Optional[CostModel] = None,
    pool: Optional[CellPool] = None,
) -> Figure7Result:
    """Regenerate Figure 7 (default: the 16 compute-bound benchmarks).

    All (benchmark, configuration, seed) cells are independent, so
    they run in two global fan-out stages across ``pool``'s workers:
    first every Velodrome/single/first cell of every benchmark, then
    every second-run cell (which needs the first runs'
    static-transaction info).  Results are aggregated in submission
    order, so the rendered figure is byte-identical for any job count.
    """
    model = model or CostModel()
    selected = list(names or compute_bound_names())
    seeds = [seed_base + i for i in range(trials)]
    with ensure_pool(pool) as cells:
        specs = {name: runner.final_spec(name, pool=cells) for name in selected}

        # stage 1: everything that does not depend on first-run output
        stage1 = []
        for name in selected:
            spec = specs[name]
            stage1 += [("velodrome", name, spec, s) for s in seeds]
            stage1 += [("single", name, spec, s) for s in seeds]
            stage1 += [("first", name, spec, s) for s in seeds]
            stage1 += [
                ("first", name, spec, seed_base + 100 + i)
                for i in range(first_trials)
            ]
        stride = 3 * trials + first_trials
        results1 = cells.starmap(runner.run_cell, stage1)

        # stage 2: second runs, restricted to the statically identified
        # transactions from the extra first runs
        infos = {}
        stage2 = []
        for index, name in enumerate(selected):
            chunk = results1[index * stride:(index + 1) * stride]
            infos[name] = StaticTransactionInfo.union_all(
                r.static_info for r in chunk[3 * trials:]
            )
            stage2 += [("second", name, specs[name], s, infos[name]) for s in seeds]
        results2 = cells.starmap(runner.run_cell, stage2)

    rows = []
    for index, name in enumerate(selected):
        chunk = results1[index * stride:(index + 1) * stride]
        velodrome = chunk[:trials]
        single = chunk[trials:2 * trials]
        firsts = chunk[2 * trials:3 * trials]
        seconds = results2[index * trials:(index + 1) * trials]

        row = Figure7Row(name)
        for config, breakdown, results in (
            ("velodrome", model.velodrome, velodrome),
            ("single", model.double_checker_single, single),
            ("first", model.double_checker_first, firsts),
            ("second", model.double_checker_single, seconds),
        ):
            breakdowns = [breakdown(r) for r in results]
            row.normalized[config] = median([b.normalized_time for b in breakdowns])
            row.gc_fraction[config] = median([b.gc_fraction for b in breakdowns])
        rows.append(row)
    return Figure7Result(rows)
