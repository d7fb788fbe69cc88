"""Experiment harness: regenerates every table and figure in the paper.

Each module corresponds to one evaluation artefact (see DESIGN.md's
per-experiment index); the CLI entry point ``doublechecker-experiments``
runs them from the command line, and ``benchmarks/`` wraps them in
pytest-benchmark tests.
"""

from repro.harness.runner import (
    final_spec,
    initial_spec,
    make_scheduler,
    run_first,
    run_second,
    run_single,
    run_velodrome,
)

__all__ = [
    "final_spec",
    "initial_spec",
    "make_scheduler",
    "run_first",
    "run_second",
    "run_single",
    "run_velodrome",
]
