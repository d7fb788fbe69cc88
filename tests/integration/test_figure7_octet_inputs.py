"""Figure 7's Octet inputs, pinned end to end.

The cost model (:mod:`repro.costs.model`) prices a run from its
``OctetStats`` (barriers, atomic operations, fences, the transition
counts), the coordination protocol's explicit and implicit responses,
and ``ICDStats``.  ``fixtures/figure7_octet_inputs.json`` records all
three for every catalog program at scheduler seed 0, from both
``run_single`` and ``run_first``; a change to Octet's barrier or to
ICD's Figure 4 procedures must leave every one of them unchanged.

Regenerate (only when a counter is meant to move)::

    PYTHONPATH=src python tests/integration/test_figure7_octet_inputs.py
"""

import dataclasses
import json
import os

from repro.harness import runner
from repro.workloads import all_names

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "figure7_octet_inputs.json"
)
SEED = 0


def _inputs(result):
    return {
        "octet": dataclasses.asdict(result.octet_stats),
        "protocol": result.protocol_stats,
        "icd": dataclasses.asdict(result.icd_stats),
    }


def record():
    """Every catalog program's cost-model inputs, single and first run."""
    document = {}
    for name in all_names():
        spec = runner.initial_spec(name)
        document[name] = {
            "single": _inputs(runner.run_single(name, spec, SEED)),
            "first": _inputs(runner.run_first(name, spec, SEED)),
        }
    return document


def test_cost_model_inputs_match_recording():
    with open(FIXTURE) as handle:
        expected = json.load(handle)
    assert record() == expected


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
