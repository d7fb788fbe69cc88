"""Velodrome's fused barrier, run for run against recorded results.

:meth:`VelodromeChecker.access_barrier` runs Figure 5's whole
per-access rule in one closure: transaction resolution with unary
merging inline, the metadata no-op predicate, the access's edges, the
metadata update and the new edges' cycle checks, with its counters
batched.  ``VcChecker`` and ``UnsoundVelodrome`` go through the same
closure, the latter with its race model and pay-on-change cost rule
switched in.  This module runs deterministic random programs, built
from script-IR bodies (arrays included) and from generator bodies,
under every checker, in every configuration the closure branches on,
and compares each run's violation records, blamed set, budget or crash
error, and every ``stats``, ``tx_stats`` and ``gc_stats`` counter with
``fixtures/fused_barrier_digests.json``.  The fixture was recorded
while the rule still ran in a per-access ``_analyze`` call and the
unsound variant had an event barrier of its own, so it pins the closure
to that reference.

Each digest is a SHA-256 prefix over one checker's outcomes on one
program family in one configuration, case by case.  Counters that
read zero are left out of an outcome, so a counter added later at zero
keeps the digests.

Regenerate (only when a result is meant to change)::

    PYTHONPATH=src python -m tests.velodrome.test_fused_barrier
"""

import dataclasses
import hashlib
import json
import os
import random

import pytest

from repro.errors import OutOfMemoryBudget
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker
from repro.velodrome.unsound import MetadataRaceError, UnsoundVelodrome

from tests.integration.test_soundness_properties import (
    materialize,
    materialize_scripted,
)

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "fused_barrier_digests.json"
)
#: programs per family
CASES = 40


# ----------------------------------------------------------------------
# programs: the shapes of the property tests' strategies, drawn from a
# seeded RNG so that every run sees the same cases
# ----------------------------------------------------------------------
def _bare_access(rng):
    return (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))


def _scripts(rng, unary_heavy):
    """Worker scripts: a step is a call or a bare (unary) access, the
    latter three times in four on unary-heavy programs."""
    def step():
        if rng.random() < (0.75 if unary_heavy else 0.5):
            return _bare_access(rng)
        return rng.randint(0, 3)

    low, high = (2, 10) if unary_heavy else (1, 6)
    return [
        [step() for _ in range(rng.randint(low, high))]
        for _ in range(rng.randint(2, 3))
    ]


def _methods(rng, kinds):
    return [
        [
            (rng.randint(0, kinds - 1), rng.randint(0, 1), rng.randint(0, 3))
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(rng.randint(1, 4))
    ]


def _case(family, index):
    rng = random.Random(f"{family}/{index}")
    if family == "generator":
        # read, write, locked read+write; slot % 2 picks the field
        methods = [
            [(kind, obj, slot % 2) for kind, obj, slot in ops]
            for ops in _methods(rng, 3)
        ]
        return materialize(methods, _scripts(rng, False)), rng.randint(0, 10_000)
    # the scripted ops add array reads and writes
    program = materialize_scripted(
        _methods(rng, 5), _scripts(rng, family == "unary-heavy")
    )
    return program, rng.randint(0, 10_000)


FAMILIES = ("unary-heavy", "scripted", "generator")


# ----------------------------------------------------------------------
# configurations and checkers
# ----------------------------------------------------------------------
#: instrumentation filters, as keyword arguments: method ``m1``, where
#: there is one, is never atomic (see :func:`outcome`), so its accesses
#: join the caller's unary transaction
FILTERS = {
    "all": {},
    "regular-filter": dict(monitor_regular=lambda method: method in ("m0", "m2")),
    "no-unary": dict(monitor_unary=False),
}
ARRAYS = {
    "arrays-off": {},
    "arrays-element": dict(instrument_arrays=True),
    "arrays-object": dict(instrument_arrays=True, array_granularity_object=True),
}
CONFIGS = {
    f"{filter_name}/{arrays_name}": {**filters, **arrays}
    for filter_name, filters in FILTERS.items()
    for arrays_name, arrays in ARRAYS.items()
}

#: every checker the closure serves; the unsound variant without
#: losses, at its default loss and with a crash threshold
CHECKERS = {
    "velodrome": lambda spec, seed, kw: VelodromeChecker(spec, **kw),
    "vc": lambda spec, seed, kw: VcChecker(spec, **kw),
    "vc+sync": lambda spec, seed, kw: VcChecker(spec, sync_edges=True, **kw),
    "unsound-loss0": lambda spec, seed, kw: UnsoundVelodrome(
        spec, seed=seed, loss_prob=0.0, **kw
    ),
    "unsound": lambda spec, seed, kw: UnsoundVelodrome(spec, seed=seed, **kw),
    "unsound-crash": lambda spec, seed, kw: UnsoundVelodrome(
        spec, seed=seed, crash_threshold=1, **kw
    ),
}


def _nonzero(stats):
    return {k: v for k, v in dataclasses.asdict(stats).items() if v}


def outcome(family, index, config, checker_name):
    """One checker's run of one case, as JSON-able data."""
    program, seed = _case(family, index)
    spec = AtomicitySpecification.initial(program)
    spec = spec.exclude(m for m in ("m1",) if m in spec.all_methods)
    checker = CHECKERS[checker_name](
        spec, seed, dict(CONFIGS[config], gc_interval=1)
    )
    error = None
    try:
        checker.run(program, RandomScheduler(seed=seed, switch_prob=0.7))
    except (OutOfMemoryBudget, MetadataRaceError) as exc:
        error = [type(exc).__name__, str(exc)]
    return {
        "error": error,
        "records": [dataclasses.astuple(r) for r in checker.violations.records],
        "blamed": sorted(checker.violations.blamed_methods()),
        "stats": _nonzero(checker.stats),
        "tx": _nonzero(checker.tx_manager.stats),
        "gc": _nonzero(checker.collector.stats),
    }


def outcomes(family, config, checker_name):
    return [outcome(family, i, config, checker_name) for i in range(CASES)]


def digest(runs):
    data = json.dumps(runs, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def record():
    """Every digest, keyed ``family/filter/arrays`` then by checker."""
    return {
        f"{family}/{config}": {
            name: digest(outcomes(family, config, name)) for name in CHECKERS
        }
        for family in FAMILIES
        for config in CONFIGS
    }


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def expected(key):
    with open(FIXTURE) as fh:
        return json.load(fh)[key]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("family", FAMILIES)
def test_results_match_the_recorded_reference(family, config):
    runs = {name: outcomes(family, config, name) for name in CHECKERS}
    assert {
        name: digest(found) for name, found in runs.items()
    } == expected(f"{family}/{config}")

    def total(name, section, counter):
        return sum(run[section].get(counter, 0) for run in runs[name])

    # the branches each family and configuration reaches
    assert total("vc", "stats", "sync_accesses_skipped") > 0
    assert total("unsound", "stats", "fastpath_hits") == 0
    assert any(run["error"] for run in runs["unsound-crash"])
    if not config.startswith("no-unary"):
        assert total("velodrome", "stats", "fastpath_hits") > 0
        assert total("velodrome", "tx", "unary_accesses") > total(
            "velodrome", "tx", "unary_transactions"
        )
    if family != "generator" and config.endswith("arrays-off"):
        assert total("velodrome", "stats", "array_accesses_skipped") > 0
    if family == "generator" and config == "all/arrays-off":
        assert total("unsound", "stats", "lost_metadata_updates") > 0


@pytest.mark.parametrize("name", sorted(CHECKERS))
def test_barrier_takes_no_keyword_only_parameters(name):
    program, seed = _case("scripted", 0)
    checker = CHECKERS[name](AtomicitySpecification.initial(program), seed, {})
    assert checker.access_barrier().__code__.co_kwonlyargcount == 0


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
