"""Figure 7 result aggregation, on synthetic rows (no runs)."""

import pytest

from repro.harness.figure7 import CONFIGS, Figure7Result, Figure7Row


def row(name, velodrome, single, first, second):
    r = Figure7Row(name)
    r.normalized = {
        "velodrome": velodrome,
        "single": single,
        "first": first,
        "second": second,
    }
    r.gc_fraction = {c: 0.1 for c in CONFIGS}
    return r


def test_geomeans_are_geometric():
    result = Figure7Result([row("a", 4.0, 2.0, 1.0, 1.0),
                            row("b", 9.0, 8.0, 4.0, 4.0)])
    means = result.geomeans()
    assert means["velodrome"] == pytest.approx(6.0)
    assert means["single"] == pytest.approx(4.0)
    assert means["first"] == pytest.approx(2.0)


def test_render_includes_every_benchmark_and_geomean():
    result = Figure7Result([row("alpha", 6, 3, 2, 2), row("beta", 5, 4, 2, 3)])
    text = result.render()
    assert "alpha" in text and "beta" in text
    assert "geomean" in text
    assert "Figure 7" in text


def test_configs_constant_stable():
    assert CONFIGS == ("velodrome", "single", "first", "second")
