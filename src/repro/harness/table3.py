"""Table 3 — run-time characteristics of DoubleChecker.

For each benchmark (under its final refined specification), reports
for single-run mode and for the second run of multi-run mode: the
number of regular transactions, instrumented accesses inside regular
and unary transactions, IDG cross-thread edges, and ICD SCCs detected.
Each value is the mean over a few statistics-gathering trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.static_info import StaticTransactionInfo
from repro.harness import runner
from repro.harness.parallel import CellPool, ensure_pool
from repro.harness.rendering import render_table
from repro.stats.summary import mean
from repro.workloads import all_names


@dataclass
class ModeCharacteristics:
    """One configuration's Table 3 columns (means over trials)."""

    regular_transactions: float
    regular_accesses: float
    unary_accesses: float
    idg_edges: float
    sccs: float


@dataclass
class Table3Row:
    name: str
    single: ModeCharacteristics
    second: ModeCharacteristics


@dataclass
class Table3Result:
    rows: List[Table3Row]

    def render(self) -> str:
        headers = [
            "benchmark",
            "s:reg-tx",
            "s:reg-acc",
            "s:unary-acc",
            "s:edges",
            "s:SCCs",
            "2:reg-tx",
            "2:reg-acc",
            "2:unary-acc",
            "2:edges",
            "2:SCCs",
        ]
        rows = []
        for r in self.rows:
            rows.append(
                [
                    r.name,
                    round(r.single.regular_transactions),
                    round(r.single.regular_accesses),
                    round(r.single.unary_accesses),
                    round(r.single.idg_edges),
                    round(r.single.sccs),
                    round(r.second.regular_transactions),
                    round(r.second.regular_accesses),
                    round(r.second.unary_accesses),
                    round(r.second.idg_edges),
                    round(r.second.sccs),
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                "Table 3: run-time characteristics "
                "(s: = single-run mode, 2: = second run of multi-run mode)"
            ),
        )


def _characteristics(results) -> ModeCharacteristics:
    return ModeCharacteristics(
        regular_transactions=mean(
            [r.tx_stats.regular_transactions for r in results]
        ),
        regular_accesses=mean([r.tx_stats.regular_accesses for r in results]),
        unary_accesses=mean([r.tx_stats.unary_accesses for r in results]),
        idg_edges=mean([r.icd_stats.idg_edges for r in results]),
        sccs=mean([r.icd_stats.sccs for r in results]),
    )


def generate(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 3,
    first_trials: int = 2,
    seed_base: int = 40_000,
    pool: Optional[CellPool] = None,
) -> Table3Result:
    """Regenerate Table 3 (default: all 19 benchmarks).

    The statistics-gathering trials of every benchmark are independent
    cells; across ``pool``'s workers the single-run and first-run cells
    fan out first, then the second-run cells (which need the first runs'
    static-transaction info).  Counters are identical to a serial run.
    """
    rows = []
    with ensure_pool(pool) as cells:
        for name in names or all_names():
            spec = runner.final_spec(name, pool=cells)
            seeds = [seed_base + i for i in range(trials)]
            batch = [("single", name, spec, s) for s in seeds]
            batch += [
                ("first", name, spec, seed_base + 100 + i)
                for i in range(first_trials)
            ]
            results = cells.starmap(runner.run_cell, batch)
            single = _characteristics(results[:trials])
            info = StaticTransactionInfo.union_all(
                r.static_info for r in results[trials:]
            )
            seconds = cells.starmap(
                runner.run_cell,
                [
                    ("second", name, spec, seed_base + 200 + i, info)
                    for i in range(trials)
                ],
            )
            second = _characteristics(seconds)
            rows.append(Table3Row(name, single, second))
    return Table3Result(rows)
