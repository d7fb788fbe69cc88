"""CellPool: job resolution, ordered results, and serial/parallel
determinism of the experiment surfaces.

The determinism tests are the contract the parallel harness advertises:
for a representative workload subset, ``jobs=4`` must reproduce the
serial path exactly — Table 2's blamed-method sets, Table 3's
counters, Figure 7's normalized times.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.harness import figure7, runner, table2, table3
from repro.harness.parallel import (
    CellFailedError,
    CellPool,
    JOBS_ENV,
    ensure_pool,
    resolve_jobs,
)
from repro.obs.registry import MODE_COUNTERS, MetricsRegistry, use_registry

NAMES = ["hsqldb6", "xalan6"]


# ----------------------------------------------------------------------
# unit behaviour
# ----------------------------------------------------------------------
def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) == 7


def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_cpu_count(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def test_starmap_results_are_ordered():
    with CellPool(4) as pool:
        assert pool.starmap(_square, [(i,) for i in range(20)]) == [
            i * i for i in range(20)
        ]


def test_serial_pool_runs_inline():
    pool = CellPool(1)
    assert pool._executor is None
    assert pool.starmap(_square, [(3,), (4,)]) == [9, 16]


def test_parallel_pool_propagates_exceptions():
    with CellPool(2) as pool:
        with pytest.raises(RuntimeError):
            pool.starmap(_boom, [(1,)])


def test_ensure_pool_reuses_and_owns(monkeypatch):
    with CellPool(1) as outer:
        with ensure_pool(outer) as inner:
            assert inner is outer
    monkeypatch.delenv(JOBS_ENV, raising=False)
    with ensure_pool(None) as owned:
        assert owned.jobs == 1


def _die(x):
    os._exit(7)


def test_dead_worker_raises_cell_failed_error():
    # a worker process that dies mid-cell breaks the process pool;
    # starmap must end in CellFailedError naming a cell, never hang
    with CellPool(2) as pool:
        with pytest.raises(CellFailedError) as failure:
            pool.starmap(_die, [(i,) for i in range(4)])
    assert failure.value.label.startswith("_die[")


#: a parent process running two cells that record their worker's pid
#: and then sleep for longer than the test waits
_ORPHANING_PARENT = textwrap.dedent(
    """
    import os, sys, time
    from repro.harness.parallel import CellPool

    def cell(directory, index):
        open(os.path.join(directory, f"worker-{os.getpid()}"), "w").close()
        time.sleep(120)

    if __name__ == "__main__":
        with CellPool(2) as pool:
            pool.starmap(cell, [(sys.argv[1], 0), (sys.argv[1], 1)])
    """
)


def _running(pid):
    """Whether ``pid`` is a live process; a zombie (dead, waiting for
    the init process to reap it) counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_when_parent_is_killed(tmp_path):
    # kill -9 leaves the pool no chance to shut its workers down: they
    # must notice the reparenting themselves and exit
    script = tmp_path / "parent.py"
    script.write_text(_ORPHANING_PARENT)
    pids_dir = tmp_path / "pids"
    pids_dir.mkdir()
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    parent = subprocess.Popen([sys.executable, str(script), str(pids_dir)], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            pids = [int(name.split("-")[1]) for name in os.listdir(pids_dir)]
        assert len(pids) == 2, "the two cells never started"
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(_running(pid) for pid in pids)
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
        for pid in filter(_running, pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _interrupt(x):
    raise KeyboardInterrupt


def _exit(x):
    raise SystemExit(3)


def test_serial_pool_starmap_reraises_keyboard_interrupt():
    # a Ctrl-C during an inline cell must reach the user immediately
    pool = CellPool(1)
    with pytest.raises(KeyboardInterrupt):
        pool.starmap(_interrupt, [(1,)])
    with pytest.raises(SystemExit):
        pool.starmap(_exit, [(1,)])


def _marker_or_boom(directory, index, delay):
    if index == 0:
        raise RuntimeError("boom")
    time.sleep(delay)
    with open(os.path.join(directory, f"cell-{index}"), "w") as handle:
        handle.write("done")
    return index


def test_failed_starmap_cancels_and_drains_siblings(tmp_path):
    # satellite fix: when one cell fails non-retryably, pending sibling
    # futures are cancelled and running ones drained before the raise —
    # no cell may still be executing (and writing) after starmap returns
    with CellPool(2) as pool:
        with pytest.raises(RuntimeError):
            pool.starmap(
                _marker_or_boom,
                [(str(tmp_path), i, 0.3) for i in range(8)],
            )
        settled = len(os.listdir(tmp_path))
        time.sleep(0.8)
        assert len(os.listdir(tmp_path)) == settled


def _obs_counting_cell(x):
    from repro.obs.registry import recorder

    recorder().inc("test.cell_runs")
    if x < 0:
        raise RuntimeError("boom")
    return x


def test_failed_batch_merges_no_telemetry():
    # satellite fix: the telemetry merge is all-or-nothing — cells that
    # completed before a sibling failed must not leak their snapshots
    # into the caller's registry
    registry = MetricsRegistry(MODE_COUNTERS)
    previous = use_registry(registry)
    try:
        with CellPool(2) as pool:
            assert pool.starmap(_obs_counting_cell, [(i,) for i in range(4)]) \
                == [0, 1, 2, 3]
            merged = registry.snapshot()["counters"]["test.cell_runs"]
            assert merged == 4
            with pytest.raises(RuntimeError):
                pool.starmap(_obs_counting_cell, [(0,), (-1,), (2,)])
            assert registry.snapshot()["counters"]["test.cell_runs"] == merged
    finally:
        use_registry(previous)


# ----------------------------------------------------------------------
# cache hygiene
# ----------------------------------------------------------------------
def test_store_cache_is_atomic_and_readonly_mode_skips(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path))
    runner._store_cache({"bench": ["m1", "m2"]})
    assert runner._load_cache() == {"bench": ["m1", "m2"]}
    # no temp droppings left behind
    assert sorted(os.listdir(tmp_path)) == ["final_specs.json"]

    runner.set_cache_readonly(True)
    try:
        runner._store_cache({"bench": ["overwritten"]})
        assert runner._load_cache() == {"bench": ["m1", "m2"]}
    finally:
        runner.set_cache_readonly(False)


# ----------------------------------------------------------------------
# serial/parallel determinism of the paper artefacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def jobs4():
    with CellPool(4) as pool:
        yield pool


def test_table2_blamed_sets_identical(jobs4):
    serial = table2.generate(NAMES)
    parallel = table2.generate(NAMES, pool=jobs4)
    assert [r.velodrome_blamed for r in serial.rows] == [
        r.velodrome_blamed for r in parallel.rows
    ]
    assert [r.single_blamed for r in serial.rows] == [
        r.single_blamed for r in parallel.rows
    ]
    assert [r.multi_blamed for r in serial.rows] == [
        r.multi_blamed for r in parallel.rows
    ]
    assert serial.render() == parallel.render()


def test_table3_counters_identical(jobs4):
    serial = table3.generate(NAMES, trials=2, first_trials=1)
    parallel = table3.generate(NAMES, trials=2, first_trials=1, pool=jobs4)
    assert serial.rows == parallel.rows
    assert serial.render() == parallel.render()


def test_figure7_normalized_times_identical(jobs4):
    serial = figure7.generate(NAMES, trials=2, first_trials=1)
    parallel = figure7.generate(NAMES, trials=2, first_trials=1, pool=jobs4)
    # modelled numbers are deterministic; measured wall-clock is not
    assert [r.normalized for r in serial.rows] == [
        r.normalized for r in parallel.rows
    ]
    assert [r.gc_fraction for r in serial.rows] == [
        r.gc_fraction for r in parallel.rows
    ]
    assert serial.geomeans() == parallel.geomeans()
