"""Table 2 — static atomicity violations per checker.

For each benchmark, iterative refinement is run to convergence three
times — under Velodrome, DoubleChecker's single-run mode, and
DoubleChecker's multi-run mode — and every method blamed along the way
is collected.  ``Unique`` counts violations a configuration reported
that single-run mode (sound and precise by design) did not; non-zero
values come from run-to-run schedule nondeterminism, exactly as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.harness import runner
from repro.harness.parallel import CellPool, ensure_pool
from repro.harness.rendering import render_table
from repro.workloads import all_names


@dataclass
class Table2Row:
    """One benchmark's violation counts."""

    name: str
    velodrome_total: int
    velodrome_unique: int
    single_total: int
    multi_total: int
    multi_unique: int
    velodrome_blamed: Set[str]
    single_blamed: Set[str]
    multi_blamed: Set[str]


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def totals(self) -> Dict[str, int]:
        return {
            "velodrome_total": sum(r.velodrome_total for r in self.rows),
            "velodrome_unique": sum(r.velodrome_unique for r in self.rows),
            "single_total": sum(r.single_total for r in self.rows),
            "multi_total": sum(r.multi_total for r in self.rows),
            "multi_unique": sum(r.multi_unique for r in self.rows),
        }

    def multi_detection_rate(self) -> float:
        """Fraction of single-run violations multi-run mode also found
        (the paper reports 83% overall, 90% per-program average)."""
        single = sum(r.single_total for r in self.rows)
        if single == 0:
            return 1.0
        found = sum(
            len(r.multi_blamed & r.single_blamed) for r in self.rows
        )
        return found / single

    def render(self) -> str:
        headers = [
            "benchmark",
            "Velodrome",
            "(Unique)",
            "Single-run",
            "Multi-run",
            "(Unique)",
        ]
        rows = [
            [
                r.name,
                r.velodrome_total,
                r.velodrome_unique,
                r.single_total,
                r.multi_total,
                r.multi_unique,
            ]
            for r in self.rows
        ]
        totals = self.totals()
        rows.append(
            [
                "Total",
                totals["velodrome_total"],
                totals["velodrome_unique"],
                totals["single_total"],
                totals["multi_total"],
                totals["multi_unique"],
            ]
        )
        table = render_table(
            headers,
            rows,
            title="Table 2: static atomicity violations reported (iterative refinement)",
        )
        rate = self.multi_detection_rate()
        return f"{table}\n\nmulti-run detection rate vs single-run: {rate:.0%}"


def generate(
    names: Optional[Sequence[str]] = None,
    *,
    trials_per_step: int = 3,
    seed_base: int = 0,
    pool: Optional[CellPool] = None,
) -> Table2Result:
    """Regenerate Table 2 for the given benchmarks (default: all 19).

    Refinement rounds stay serial (each round depends on the last),
    but every round's trials fan out across ``pool``'s workers; results
    are identical for any job count.
    """
    rows = []
    with ensure_pool(pool) as cells:
        for name in names or all_names():
            velodrome = runner.refine(
                name, "velodrome", trials_per_step=trials_per_step,
                seed_base=seed_base, pool=cells,
            ).all_blamed
            single = runner.refine(
                name, "single", trials_per_step=trials_per_step,
                seed_base=seed_base + 10_000, pool=cells,
            ).all_blamed
            multi = runner.refine(
                name, "multi", trials_per_step=max(2, trials_per_step - 1),
                seed_base=seed_base + 20_000, pool=cells,
            ).all_blamed
            rows.append(
                Table2Row(
                    name=name,
                    velodrome_total=len(velodrome),
                    velodrome_unique=len(velodrome - single),
                    single_total=len(single),
                    multi_total=len(multi),
                    multi_unique=len(multi - single),
                    velodrome_blamed=velodrome,
                    single_blamed=single,
                    multi_blamed=multi,
                )
            )
    return Table2Result(rows)
