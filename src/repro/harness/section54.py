"""Section 5.3/5.4 side experiments.

* :func:`unsound_velodrome` — the Velodrome variant that eschews
  synchronization when metadata need not change (paper: 4.1X vs 6.1X,
  crashes on avrora9, still slower than DoubleChecker).
* :func:`refinement_phases` — single-run mode's slowdown at the start,
  halfway point, and end of iterative refinement (paper: 3.4X / 3.6X /
  3.6X).
* :func:`arrays` — the extra overhead of instrumenting array accesses
  with array-granularity metadata (cycle detection disabled because the
  conflation makes both analyses imprecise; xalan6/xalan9 excluded as
  they run out of memory in the paper).
* :func:`pcd_only` — the straw man where PCD processes every executed
  transaction (paper: 3.1X → 16.6X, with four benchmarks excluded for
  running out of memory).
* :func:`second_run_variants` — the second run with unconditional unary
  instrumentation (paper: 169% vs 140% overhead) and with Velodrome as
  the precise second-run checker (paper: 2.9X vs 2.4X).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.doublechecker import DoubleChecker
from repro.core.static_info import StaticTransactionInfo
from repro.costs.model import CostModel
from repro.errors import OutOfMemoryBudget
from repro.harness import runner
from repro.harness.parallel import CellPool, ensure_pool
from repro.harness.rendering import render_table
from repro.stats.summary import geomean, median
from repro.velodrome.checker import VelodromeChecker
from repro.velodrome.unsound import MetadataRaceError, UnsoundVelodrome
from repro.workloads import build, compute_bound_names


# ----------------------------------------------------------------------
# picklable cell functions (module-level so CellPool can ship them to
# worker processes; each rebuilds its program from the workload name)
# ----------------------------------------------------------------------
def _sound_velodrome_cell(name, spec, seed, model) -> float:
    return model.velodrome(runner.run_velodrome(name, spec, seed)).normalized_time


def _unsound_velodrome_cell(
    name, spec, seed, crash_threshold, model
) -> Optional[float]:
    """One unsound-Velodrome trial; ``None`` signals a metadata-race crash."""
    checker = UnsoundVelodrome(spec, seed=seed, crash_threshold=crash_threshold)
    try:
        result = checker.run(build(name), runner.make_scheduler(seed))
    except MetadataRaceError:
        return None
    return model.velodrome(result).normalized_time


def _single_norm_cell(name, spec, seed, model) -> float:
    return model.double_checker_single(
        runner.run_single(name, spec, seed)
    ).normalized_time


def _array_cell(name, spec, seed, instrument, which, model) -> float:
    """One array-instrumentation trial for ``which`` in {"dc", "vel"}."""
    if which == "dc":
        checker = DoubleChecker(
            spec,
            instrument_arrays=instrument,
            array_granularity_object=True,
            cycle_detection=False,
        )
        result = checker.run_single(build(name), runner.make_scheduler(seed))
        return model.double_checker_single(result).normalized_time
    checker = VelodromeChecker(
        spec,
        instrument_arrays=instrument,
        array_granularity_object=True,
        cycle_detection=False,
    )
    result = checker.run(build(name), runner.make_scheduler(seed))
    return model.velodrome(result).normalized_time


def _pcd_only_cell(name, spec, seed, pcd_memory_budget, model) -> Optional[float]:
    """One PCD-only trial; ``None`` signals the memory budget blew."""
    checker = DoubleChecker(spec, pcd_memory_budget=pcd_memory_budget)
    try:
        result = checker.run_pcd_only(build(name), runner.make_scheduler(seed))
    except OutOfMemoryBudget:
        return None
    return model.double_checker_single(result).normalized_time


def _second_norm_cell(name, spec, info, seed, always_unary, model) -> float:
    result = runner.run_second(
        name, spec, info, seed, always_instrument_unary=always_unary
    )
    return model.double_checker_single(result).normalized_time


def _velodrome_second_cell(name, spec, info, seed, model) -> float:
    checker = VelodromeChecker(
        spec,
        monitor_regular=info.monitors_method,
        monitor_unary=info.any_unary,
    )
    result = checker.run(build(name), runner.make_scheduler(seed))
    return model.velodrome(result).normalized_time


# ----------------------------------------------------------------------
# unsound Velodrome (Section 5.3)
# ----------------------------------------------------------------------
@dataclass
class UnsoundVelodromeResult:
    rows: List[Tuple[str, float, float, str]]  # name, sound, unsound, note

    def geomeans(self) -> Tuple[float, float]:
        sound = [r[1] for r in self.rows if r[3] != "crash"]
        unsound = [r[2] for r in self.rows if r[3] != "crash"]
        return geomean(sound), geomean(unsound)

    def render(self) -> str:
        rows = [
            [name, sound, unsound if note != "crash" else "-", note]
            for name, sound, unsound, note in self.rows
        ]
        gs, gu = self.geomeans()
        rows.append(["geomean(no-crash)", gs, gu, ""])
        return render_table(
            ["benchmark", "Velodrome", "unsound variant", "note"],
            rows,
            title="Unsound Velodrome variant (Section 5.3)",
        )


def unsound_velodrome(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 3,
    seed_base: int = 60_000,
    model: Optional[CostModel] = None,
    crash_threshold: int = 15,
    pool: Optional[CellPool] = None,
) -> UnsoundVelodromeResult:
    """Compare sound Velodrome with the unsound variant.

    All trials of one benchmark run as independent cells (a crash in
    any trial marks the row as crashed, matching the serial behaviour
    where the first crash aborts the remaining trials).
    """
    model = model or CostModel()
    seeds = [seed_base + i for i in range(trials)]
    rows = []
    with ensure_pool(pool) as cells:
        for name in names or compute_bound_names():
            spec = runner.final_spec(name, pool=cells)
            sound_values = cells.starmap(
                _sound_velodrome_cell, [(name, spec, s, model) for s in seeds]
            )
            unsound_values = cells.starmap(
                _unsound_velodrome_cell,
                [(name, spec, s, crash_threshold, model) for s in seeds],
            )
            sound = median(sound_values)
            note = "crash" if any(v is None for v in unsound_values) else ""
            survived = [v for v in unsound_values if v is not None]
            unsound = median(survived) if survived else float("nan")
            rows.append((name, sound, unsound, note))
    return UnsoundVelodromeResult(rows)


# ----------------------------------------------------------------------
# performance during iterative refinement (Section 5.4)
# ----------------------------------------------------------------------
@dataclass
class RefinementPhasesResult:
    #: benchmark -> (start, halfway, final) normalized times
    rows: Dict[str, Tuple[float, float, float]]

    def geomeans(self) -> Tuple[float, float, float]:
        start = geomean([v[0] for v in self.rows.values()])
        half = geomean([v[1] for v in self.rows.values()])
        final = geomean([v[2] for v in self.rows.values()])
        return start, half, final

    def render(self) -> str:
        rows = [
            [name, start, half, final]
            for name, (start, half, final) in sorted(self.rows.items())
        ]
        gs, gh, gf = self.geomeans()
        rows.append(["geomean", gs, gh, gf])
        return render_table(
            ["benchmark", "start", "halfway", "final"],
            rows,
            title="Single-run slowdown across iterative refinement (Section 5.4)",
        )


def refinement_phases(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 2,
    seed_base: int = 70_000,
    model: Optional[CostModel] = None,
    pool: Optional[CellPool] = None,
) -> RefinementPhasesResult:
    """Single-run mode's cost at the start/halfway/end of refinement.

    Refinement rounds stay serial; each round's trials and the three
    phase measurements fan out across workers.
    """
    model = model or CostModel()
    rows: Dict[str, Tuple[float, float, float]] = {}
    with ensure_pool(pool) as cells:
        for name in names or compute_bound_names():
            refinement = runner.refine(
                name, "single", seed_base=seed_base, pool=cells
            )
            batch = [
                (name, refinement.spec_at_fraction(fraction), seed_base + i, model)
                for fraction in (0.0, 0.5, 1.0)
                for i in range(trials)
            ]
            values = cells.starmap(_single_norm_cell, batch)
            phases = [
                median(values[p * trials:(p + 1) * trials]) for p in range(3)
            ]
            rows[name] = (phases[0], phases[1], phases[2])
    return RefinementPhasesResult(rows)


# ----------------------------------------------------------------------
# array instrumentation (Section 5.4)
# ----------------------------------------------------------------------
ARRAY_EXCLUDED = ("xalan6", "xalan9")  # out of memory in the paper


@dataclass
class ArraysResult:
    #: benchmark -> (dc_no_arrays, dc_arrays, vel_no_arrays, vel_arrays)
    rows: Dict[str, Tuple[float, float, float, float]]

    def geomeans(self) -> Tuple[float, float, float, float]:
        return tuple(  # type: ignore[return-value]
            geomean([v[i] for v in self.rows.values()]) for i in range(4)
        )

    def render(self) -> str:
        rows = [
            [name, *values] for name, values in sorted(self.rows.items())
        ]
        rows.append(["geomean", *self.geomeans()])
        return render_table(
            ["benchmark", "DC", "DC+arrays", "Velodrome", "Velodrome+arrays"],
            rows,
            title=(
                "Array instrumentation overhead "
                "(cycle detection off; xalan6/xalan9 excluded)"
            ),
        )


def arrays(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 2,
    seed_base: int = 80_000,
    model: Optional[CostModel] = None,
    pool: Optional[CellPool] = None,
) -> ArraysResult:
    """The Section 5.4 array-instrumentation comparison."""
    model = model or CostModel()
    selected = [
        n for n in (names or compute_bound_names()) if n not in ARRAY_EXCLUDED
    ]
    seeds = [seed_base + i for i in range(trials)]
    variants = [
        (which, instrument)
        for which in ("dc", "vel")
        for instrument in (False, True)
    ]
    rows: Dict[str, Tuple[float, float, float, float]] = {}
    with ensure_pool(pool) as cells:
        for name in selected:
            spec = runner.final_spec(name, pool=cells)
            batch = [
                (name, spec, s, instrument, which, model)
                for which, instrument in variants
                for s in seeds
            ]
            results = cells.starmap(_array_cell, batch)
            values = [
                median(results[v * trials:(v + 1) * trials])
                for v in range(len(variants))
            ]
            rows[name] = (values[0], values[1], values[2], values[3])
    return ArraysResult(rows)


# ----------------------------------------------------------------------
# PCD-only straw man (Section 5.4)
# ----------------------------------------------------------------------
@dataclass
class PcdOnlyResult:
    #: benchmark -> (single_norm, pcd_only_norm or None if OOM)
    rows: Dict[str, Tuple[float, Optional[float]]]
    oom: List[str] = field(default_factory=list)

    def geomeans(self) -> Tuple[float, float]:
        names = [n for n, v in self.rows.items() if v[1] is not None]
        if not names:
            return float("nan"), float("nan")
        single = geomean([self.rows[n][0] for n in names])
        pcd = geomean([self.rows[n][1] for n in names])
        return single, pcd

    def render(self) -> str:
        rows = []
        for name, (single, pcd) in sorted(self.rows.items()):
            rows.append([name, single, pcd if pcd is not None else "OOM"])
        gs, gp = self.geomeans()
        rows.append(["geomean(no-OOM)", gs, gp])
        return render_table(
            ["benchmark", "Single-run", "PCD-only"],
            rows,
            title="PCD-only variant (Section 5.4): ICD as a first-pass filter",
        )


def pcd_only(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 1,
    seed_base: int = 90_000,
    pcd_memory_budget: int = 9_000,
    model: Optional[CostModel] = None,
    pool: Optional[CellPool] = None,
) -> PcdOnlyResult:
    """Compare single-run mode with the PCD-only variant."""
    model = model or CostModel()
    seeds = [seed_base + i for i in range(trials)]
    rows: Dict[str, Tuple[float, Optional[float]]] = {}
    oom: List[str] = []
    with ensure_pool(pool) as cells:
        for name in names or compute_bound_names():
            spec = runner.final_spec(name, pool=cells)
            single_values = cells.starmap(
                _single_norm_cell, [(name, spec, s, model) for s in seeds]
            )
            single = median(single_values)
            pcd_values = cells.starmap(
                _pcd_only_cell,
                [(name, spec, s, pcd_memory_budget, model) for s in seeds],
            )
            if any(v is None for v in pcd_values):
                rows[name] = (single, None)
                oom.append(name)
            else:
                rows[name] = (single, median(pcd_values))
    return PcdOnlyResult(rows, oom)


# ----------------------------------------------------------------------
# second-run variants (Section 5.3)
# ----------------------------------------------------------------------
@dataclass
class SecondRunVariantsResult:
    #: benchmark -> (second, second_always_unary, velodrome_second)
    rows: Dict[str, Tuple[float, float, float]]

    def geomeans(self) -> Tuple[float, float, float]:
        return tuple(  # type: ignore[return-value]
            geomean([v[i] for v in self.rows.values()]) for i in range(3)
        )

    def render(self) -> str:
        rows = [[name, *values] for name, values in sorted(self.rows.items())]
        rows.append(["geomean", *self.geomeans()])
        return render_table(
            ["benchmark", "second (ICD+PCD)", "always-unary", "Velodrome-second"],
            rows,
            title="Second-run variants (Section 5.3)",
        )


def second_run_variants(
    names: Optional[Sequence[str]] = None,
    *,
    trials: int = 2,
    first_trials: int = 2,
    seed_base: int = 95_000,
    model: Optional[CostModel] = None,
    pool: Optional[CellPool] = None,
) -> SecondRunVariantsResult:
    """Evaluate the conditional-unary optimization and Velodrome-as-
    second-run."""
    model = model or CostModel()
    seeds = [seed_base + 100 + i for i in range(trials)]
    rows: Dict[str, Tuple[float, float, float]] = {}
    with ensure_pool(pool) as cells:
        for name in names or compute_bound_names():
            spec = runner.final_spec(name, pool=cells)
            firsts = cells.starmap(
                runner.run_first,
                [(name, spec, seed_base + i) for i in range(first_trials)],
            )
            info = StaticTransactionInfo.union_all(
                r.static_info for r in firsts
            )
            batch = [
                (name, spec, info, s, always)
                for always in (False, True)
                for s in seeds
            ]
            norm = cells.starmap(
                _second_norm_cell, [args + (model,) for args in batch]
            )
            second = median(norm[:trials])
            always = median(norm[trials:])
            vel_values = cells.starmap(
                _velodrome_second_cell,
                [(name, spec, info, s, model) for s in seeds],
            )
            rows[name] = (second, always, median(vel_values))
    return SecondRunVariantsResult(rows)
