"""E3 — Figure 7: normalized execution time of every configuration.

Regenerates the headline performance comparison on the 16
compute-bound benchmarks under their final refined specifications,
reporting the modelled normalized execution times (calibrated
event-cost model).  Measured wall-clock time is the layer ledger's
(``benchmarks/layers``).

Paper claims checked (shape, not absolute numbers):

* geomean ordering: first run < second run < single-run < Velodrome
  (paper: 1.9X < 2.4X < 3.6X < 6.1X);
* single-run mode beats Velodrome on every benchmark except xalan6,
  where imprecise SCCs make PCD dominate (the crossover);
* single-run mode's GC share is visible (long-lived read/write logs),
  Velodrome's is comparatively small.
"""

import pytest

from repro.harness import figure7, runner


@pytest.fixture(scope="module")
def result(write_result):
    outcome = figure7.generate(trials=2, first_trials=2)
    write_result("figure7_performance", outcome.render())
    return outcome


def test_generate_figure7_cell(benchmark, result):
    """Times one (benchmark, configuration) cell: Velodrome on hsqldb6 —
    and validates the headline shape under --benchmark-only."""
    spec = runner.final_spec("hsqldb6")
    benchmark.pedantic(
        lambda: runner.run_velodrome("hsqldb6", spec, 0),
        rounds=1,
        iterations=1,
    )
    means = result.geomeans()
    assert means["first"] < means["second"] < means["single"] < means["velodrome"]
    rows = {r.name: r for r in result.rows}
    assert rows["xalan6"].normalized["single"] > rows["xalan6"].normalized["velodrome"]


def test_geomean_ordering_matches_paper(result):
    means = result.geomeans()
    assert means["first"] < means["second"] < means["velodrome"]
    assert means["single"] < means["velodrome"]
    assert means["first"] < means["single"]


def test_geomean_bands(result):
    """The calibrated model lands near the paper's 6.1/3.6/1.9/2.4."""
    means = result.geomeans()
    assert 5.0 <= means["velodrome"] <= 7.5
    assert 2.5 <= means["single"] <= 4.5
    assert 1.3 <= means["first"] <= 2.4
    assert 1.7 <= means["second"] <= 3.1


def test_xalan6_crossover(result):
    """The one benchmark where Velodrome outperforms single-run mode."""
    rows = {r.name: r for r in result.rows}
    xalan6 = rows["xalan6"]
    assert xalan6.normalized["single"] > xalan6.normalized["velodrome"]
    others = [
        r for r in result.rows if r.name != "xalan6"
    ]
    wins = sum(
        1 for r in others if r.normalized["single"] < r.normalized["velodrome"]
    )
    assert wins >= len(others) - 2  # DoubleChecker wins almost everywhere


def test_gc_share_driven_by_logging(result):
    for row in result.rows:
        assert row.gc_fraction["single"] >= row.gc_fraction["velodrome"]
