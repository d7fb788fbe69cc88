"""Shared harness plumbing.

Responsibilities:

* build benchmark programs and matching atomicity specifications
  (including the paper's out-of-memory spec adjustments);
* run individual (benchmark, checker, seed) cells;
* run iterative refinement per checker and derive the *final*
  specifications used by the performance experiments (the intersection
  of Velodrome's and single-run mode's converged specs, Section 5.1);
* cache final specs on disk so repeated benchmark invocations do not
  redo refinement.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.parallel import CellPool

from repro.core.doublechecker import (
    DoubleChecker,
    FirstRunResult,
    MultiRunResult,
    SingleRunResult,
)
from repro.core.static_info import StaticTransactionInfo
from repro.obs.spans import phase
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler, Scheduler
from repro.spec.refinement import RefinementResult, iterative_refinement
from repro.spec.specification import AtomicitySpecification
from repro.vc.checker import VcChecker, VcResult
from repro.velodrome.checker import VelodromeChecker, VelodromeResult
from repro.workloads import build, get_spec

#: context-switch probability for harness schedulers; high enough to
#: expose interleavings, matching a loaded test machine
SWITCH_PROB = 0.5

#: where final-spec caches live (safe to delete at any time)
CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", ".repro_cache")


def make_scheduler(seed: int) -> RandomScheduler:
    """The harness's standard seeded scheduler."""
    return RandomScheduler(seed=seed, switch_prob=SWITCH_PROB)


def initial_spec(name: str) -> AtomicitySpecification:
    """Initial specification for a benchmark, with OOM adjustments.

    The paper excludes raytracer's and sunflow9's long-running atomic
    methods because PCD runs out of memory on their logs (Section 5.1);
    the catalog records those methods as ``spec_adjustments``.
    """
    program = build(name)
    spec = AtomicitySpecification.initial(program)
    adjustments = [
        m for m in get_spec(name).spec_adjustments if m in spec.all_methods
    ]
    return spec.exclude(adjustments)


# ----------------------------------------------------------------------
# single cells
# ----------------------------------------------------------------------
def run_velodrome(
    name: str, spec: AtomicitySpecification, seed: int
) -> VelodromeResult:
    checker = VelodromeChecker(spec)
    return checker.run(build(name), make_scheduler(seed))


def run_vc(
    name: str,
    spec: AtomicitySpecification,
    seed: int,
    *,
    sync_edges: bool = False,
) -> VcResult:
    checker = VcChecker(spec, sync_edges=sync_edges)
    return checker.run(build(name), make_scheduler(seed))


def run_single(
    name: str,
    spec: AtomicitySpecification,
    seed: int,
    *,
    pcd_memory_budget: Optional[int] = None,
) -> SingleRunResult:
    checker = DoubleChecker(spec, pcd_memory_budget=pcd_memory_budget)
    return checker.run_single(build(name), make_scheduler(seed))


def run_first(
    name: str, spec: AtomicitySpecification, seed: int
) -> FirstRunResult:
    checker = DoubleChecker(spec)
    return checker.run_first(build(name), make_scheduler(seed))


def run_second(
    name: str,
    spec: AtomicitySpecification,
    info: StaticTransactionInfo,
    seed: int,
    *,
    always_instrument_unary: bool = False,
) -> SingleRunResult:
    checker = DoubleChecker(spec)
    return checker.run_second(
        build(name),
        info,
        make_scheduler(seed),
        always_instrument_unary=always_instrument_unary,
    )


def run_multi(
    name: str,
    spec: AtomicitySpecification,
    seed: int,
    *,
    first_trials: int = 3,
) -> MultiRunResult:
    checker = DoubleChecker(spec)
    return checker.run_multi(
        lambda: build(name),
        first_trials=first_trials,
        scheduler_factory=lambda t: make_scheduler(seed * 1000 + t),
        second_scheduler=make_scheduler(seed * 1000 + 999),
    )


# ----------------------------------------------------------------------
# generic cells (picklable: safe to ship to CellPool workers)
# ----------------------------------------------------------------------
def refine_trial(
    name: str,
    checker: str,
    spec: AtomicitySpecification,
    trial: int,
    seed_base: int = 0,
    first_trials: int = 2,
) -> Set[str]:
    """One refinement trial under ``spec``; returns the blamed methods.

    A module-level function (rather than a closure) so
    :class:`~repro.harness.parallel.CellPool` can pickle it to worker
    processes; the worker rebuilds the program from ``name``.
    """
    with phase("cell.refine", checker=checker, workload=name, trial=trial):
        if checker == "velodrome":
            return run_velodrome(name, spec, seed_base + trial).blamed_methods
        if checker == "single":
            return run_single(name, spec, seed_base + trial).blamed_methods
        if checker == "multi":
            result = run_multi(
                name, spec, seed_base + trial, first_trials=first_trials
            )
            return result.violations.blamed_methods()
        raise ValueError(f"unknown checker: {checker!r}")


def run_cell(
    kind: str,
    name: str,
    spec: Optional[AtomicitySpecification],
    seed: int,
    info: Optional[StaticTransactionInfo] = None,
):
    """Dispatch one (configuration, workload, seed) cell by kind.

    ``kind`` is ``"velodrome"``, ``"vc"``, ``"single"``, ``"first"``,
    or ``"second"`` (the latter requires ``info``).  Experiments submit
    heterogeneous batches of these to a
    :class:`~repro.harness.parallel.CellPool` in one go.
    """
    with phase(f"cell.{kind}", workload=name, seed=seed):
        if kind == "velodrome":
            return run_velodrome(name, spec, seed)
        if kind == "vc":
            return run_vc(name, spec, seed)
        if kind == "single":
            return run_single(name, spec, seed)
        if kind == "first":
            return run_first(name, spec, seed)
        if kind == "second":
            if info is None:
                raise ValueError("second-run cells need static-transaction info")
            return run_second(name, spec, info, seed)
        raise ValueError(f"unknown cell kind: {kind!r}")


# ----------------------------------------------------------------------
# refinement per checker
# ----------------------------------------------------------------------
def refine(
    name: str,
    checker: str,
    *,
    trials_per_step: int = 3,
    seed_base: int = 0,
    first_trials: int = 2,
    pool: Optional["CellPool"] = None,
) -> RefinementResult:
    """Run iterative refinement with one checker configuration.

    ``checker`` is ``"velodrome"``, ``"single"``, or ``"multi"``.
    Refinement steps are inherently serial (each step's spec depends on
    the previous step's blames), but the ``trials_per_step`` runs
    inside one step are independent; passing ``pool`` fans them across
    workers.  Trial seeds do not depend on the execution order, so the
    parallel path converges to exactly the serial result.
    """
    with phase(f"refine.{checker}", workload=name):
        spec0 = initial_spec(name)

        def trial_runner(spec: AtomicitySpecification, trial: int) -> Set[str]:
            return refine_trial(
                name, checker, spec, trial, seed_base, first_trials
            )

        step_runner = None
        if pool is not None:
            def step_runner(
                spec: AtomicitySpecification, trials: Sequence[int]
            ) -> List[Set[str]]:
                return pool.starmap(
                    refine_trial,
                    [
                        (name, checker, spec, trial, seed_base, first_trials)
                        for trial in trials
                    ],
                )

        return iterative_refinement(
            spec0,
            trial_runner,
            trials_per_step=trials_per_step,
            step_runner=step_runner,
        )


# ----------------------------------------------------------------------
# final specifications (cached)
# ----------------------------------------------------------------------
_FINAL_SPEC_MEMO: Dict[str, AtomicitySpecification] = {}

#: when true (set in CellPool workers) the on-disk cache is read-only:
#: the parent process is the sole writer, so parallel workers can never
#: interleave read-modify-write cycles on the cache file
_CACHE_READONLY = False


def set_cache_readonly(readonly: bool = True) -> None:
    """Toggle read-only cache mode (workers must never write)."""
    global _CACHE_READONLY
    _CACHE_READONLY = readonly


def _cache_path() -> str:
    os.makedirs(CACHE_DIR, exist_ok=True)
    return os.path.join(CACHE_DIR, "final_specs.json")


def _load_cache() -> Dict[str, List[str]]:
    try:
        with open(_cache_path()) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _store_cache(cache: Dict[str, List[str]]) -> None:
    """Atomically replace the cache file.

    Writing to a temporary file in the same directory and
    :func:`os.replace`-ing it over the destination means readers never
    observe a half-written file, even with concurrent processes; the
    read-modify-write cycle itself is confined to the parent process
    (workers run with :func:`set_cache_readonly`).
    """
    if _CACHE_READONLY:
        return
    path = _cache_path()
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".final_specs-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(cache, handle, indent=1, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError:
        pass  # caching is best-effort


def final_spec(
    name: str,
    *,
    use_cache: bool = True,
    pool: Optional["CellPool"] = None,
) -> AtomicitySpecification:
    """The refined specification used by performance experiments.

    The intersection of the specs Velodrome and single-run mode each
    converge to, avoiding bias toward one approach (Section 5.1).
    ``pool`` parallelizes the refinement trials on a cache miss.
    """
    if name in _FINAL_SPEC_MEMO:
        return _FINAL_SPEC_MEMO[name]
    cache = _load_cache() if use_cache else {}
    spec0 = initial_spec(name)
    if name in cache:
        excluded = [m for m in cache[name] if m in spec0.all_methods]
        spec = spec0.exclude(excluded)
    else:
        with phase("final_spec", workload=name):
            velodrome = refine(name, "velodrome", seed_base=0, pool=pool)
            single = refine(name, "single", seed_base=10_000, pool=pool)
            spec = velodrome.final_spec.intersect(single.final_spec)
        cache[name] = sorted(spec.excluded)
        if use_cache:
            _store_cache(cache)
    _FINAL_SPEC_MEMO[name] = spec
    return spec


def clear_caches() -> None:
    """Drop the in-memory and on-disk final-spec caches (test hook)."""
    _FINAL_SPEC_MEMO.clear()
    try:
        os.remove(_cache_path())
    except OSError:
        pass
