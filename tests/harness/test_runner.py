"""Harness plumbing: specs, cells, refinement, caching."""

import pytest

from repro.harness import runner
from repro.spec.specification import AtomicitySpecification


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path))
    runner._FINAL_SPEC_MEMO.clear()
    yield
    runner._FINAL_SPEC_MEMO.clear()


def test_initial_spec_applies_oom_adjustments():
    spec = runner.initial_spec("raytracer")
    assert not spec.is_atomic("render_scene")


def test_initial_spec_excludes_worker_entry():
    spec = runner.initial_spec("hsqldb6")
    assert not spec.is_atomic("worker")
    assert spec.is_atomic("unsafe_op0")


def test_cells_run():
    spec = runner.initial_spec("hedc")
    assert runner.run_velodrome("hedc", spec, 0).execution.steps > 0
    assert runner.run_single("hedc", spec, 0).execution.steps > 0
    first = runner.run_first("hedc", spec, 0)
    second = runner.run_second("hedc", spec, first.static_info, 0)
    assert second.execution.steps > 0


def test_refinement_removes_bugs():
    result = runner.refine("hedc", "single", trials_per_step=3)
    assert result.converged
    # hedc has one injected violating method
    assert any(m.startswith("unsafe_op") for m in result.all_blamed)


def test_final_spec_has_no_remaining_violations():
    spec = runner.final_spec("hedc")
    for method in spec.atomic_methods():
        assert not method.startswith("unsafe_op")


def test_final_spec_cached_on_disk():
    first = runner.final_spec("hedc")
    runner._FINAL_SPEC_MEMO.clear()
    second = runner.final_spec("hedc")  # loaded from the JSON cache
    assert first.excluded == second.excluded


def test_clear_caches():
    runner.final_spec("hedc")
    runner.clear_caches()
    assert runner._FINAL_SPEC_MEMO == {}
