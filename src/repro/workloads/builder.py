"""Workload synthesis: :class:`WorkloadSpec` → runnable Program.

A workload is a population of methods drawn from the pattern library,
plus worker threads that invoke them according to a seeded, per-thread
schedule.  The *structure* of a workload (methods, schedules) is fully
determined by its spec, so repeated builds produce identical programs;
run-to-run nondeterminism comes exclusively from the scheduler, exactly
as in the paper's trials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.runtime.ops import Acquire, Read, Release, Wait, Write
from repro.runtime.lowering import script_body
from repro.runtime.program import Program
from repro.workloads import patterns


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters describing one synthetic benchmark.

    Dynamic-count parameters are chosen per benchmark to reproduce its
    qualitative Table 2/3 profile at ~10³ reduced scale; see
    :mod:`repro.workloads.catalog` for the calibrated values and the
    paper row each one mimics.
    """

    name: str
    #: worker threads (forked from main unless ``fork_join`` is False)
    threads: int = 4
    #: method invocations per worker
    iterations: int = 60
    #: contended shared objects
    shared_objects: int = 8
    #: read-mostly objects (drive RdSh states and fence transitions)
    readonly_objects: int = 4
    #: methods with injected atomicity violations
    violating_methods: int = 2
    #: correctly synchronized / private methods
    safe_methods: int = 6
    #: per-iteration direct accesses in the worker body (unary traffic)
    unary_ops: int = 2
    #: per-iteration array-element accesses (the Section 5.4 array-
    #: instrumentation experiment; ignored by the main configurations,
    #: which do not instrument arrays)
    array_ops: int = 2
    #: length of the shared array the array traffic uses
    array_length: int = 16
    #: fraction of invocations that go to violating methods
    violating_weight: float = 0.15
    #: fraction of invocations that go to field-sliced methods
    sliced_weight: float = 0.10
    #: fraction of invocations that go to ring-write methods
    ring_weight: float = 0.12
    #: fraction of safe invocations that read the read-mostly objects
    shared_read_weight: float = 0.3
    #: fraction of safe invocations touching thread-private objects
    private_weight: float = 0.3
    #: one unary access in ``unary_shared_period`` touches shared state;
    #: the rest are thread-local (real non-transactional traffic is
    #: overwhelmingly local)
    unary_shared_period: int = 5
    #: per-thread-field slicing methods (imprecise-SCC driver)
    sliced_methods: int = 0
    #: ring-write methods (SCC storm, xalan6 profile)
    ring_size: int = 0
    #: iterations of one long-running transaction (PCD memory hazard)
    long_transaction_iters: int = 0
    #: iterations of each hub-scan transaction (cycle-check stress:
    #: hub threads run long transactions anchored into the producer
    #: group's access chain, so a large dead-end region stays reachable
    #: — and alive — for the whole scan)
    hub_scan_iters: int = 0
    #: how many hub-scan transactions each hub thread runs (0 disables)
    hub_rounds: int = 0
    #: how many threads run probing hub-scan schedules; one additional
    #: *warden* thread always rides along, anchoring the seeder chain
    #: so finished seed transactions stay collectable-from and alive
    hub_threads: int = 1
    #: every ``hub_probe_period`` scan iterations the hub reads one
    #: write-once seed field an old listener transaction published;
    #: the probe edge can never close a cycle, so the naive per-edge
    #: check exhausts the hub's whole reachable region to refute one,
    #: while a component certificate answers in O(1)
    hub_probe_period: int = 0
    #: listener threads running the seeder schedule (the hub's probe
    #: sources); the remaining helpers are producers pinned to
    #: ``shared[0]`` (the hub's anchor).  Producers and listeners touch
    #: disjoint state, so the only paths between the groups run
    #: through hub transactions
    hub_listener_threads: int = 2
    #: producer/consumer pairs using wait/notify (philo profile)
    wait_notify_pairs: int = 0
    #: threads work on disjoint data only (jython9/luindex9/pmd9 profile)
    disjoint: bool = False
    #: fork workers from a main thread and join them at the end
    fork_join: bool = True
    #: thread-local accesses padding every transactional method; real
    #: programs are dominated by same-state (fast-path) accesses — the
    #: paper's benchmarks see conflicting transitions on roughly 1% of
    #: accesses — and the padding reproduces that mix
    pad: int = 5
    #: methods the harness must exclude from specifications to avoid
    #: out-of-memory (the paper's raytracer/sunflow9 adjustments)
    spec_adjustments: Tuple[str, ...] = ()

    def structure_seed(self) -> int:
        """Deterministic seed derived from the workload name."""
        return sum(ord(c) * 31 ** i for i, c in enumerate(self.name)) % (2 ** 31)


def build_program(spec: WorkloadSpec) -> Program:
    """Synthesize the program for ``spec`` (deterministic)."""
    program = Program(spec.name)
    rng = random.Random(spec.structure_seed())

    shared = program.add_global_objects("shared", max(1, spec.shared_objects))
    readonly = program.add_global_objects("readonly", max(1, spec.readonly_objects))
    private = program.add_global_objects("private", spec.threads)
    hot = program.add_global_object("hot")

    violating = _make_violating_methods(program, spec, shared, rng)
    safe_locked, safe_private, safe_read, safe_hot = _make_safe_methods(
        program, spec, shared, readonly, hot
    )
    sliced = _make_sliced_methods(program, spec, shared)
    ring = _make_ring_methods(program, spec)
    long_tx = _make_long_transaction(program, spec)
    hub_parts = _make_hub_scan(program, spec, shared)
    hub, warden, archive = hub_parts if hub_parts else (None, None, None)
    groups = _make_group_methods(program, spec, shared, archive)

    _make_worker(
        program,
        spec,
        rng,
        shared=shared,
        violating=violating,
        safe_locked=safe_locked,
        safe_private=safe_private,
        safe_read=safe_read,
        safe_hot=safe_hot,
        sliced=sliced,
        ring=ring,
        long_tx=long_tx,
        hub=hub,
        warden=warden,
        groups=groups,
    )
    _make_wait_notify(program, spec)
    _make_main(program, spec)
    return program


# ----------------------------------------------------------------------
# method populations
# ----------------------------------------------------------------------
_VIOLATION_FACTORIES = (
    lambda target, aux: patterns.split_rmw(target),
    lambda target, aux: patterns.toctou(target, aux),
    lambda target, aux: patterns.two_phase_locked(target),
    lambda target, aux: patterns.read_pair(target),
)


#: the padding's fields, in turn
_PAD_FIELDS = ("pad0", "pad1", "pad2")


def _pad_script(ctx, lane: int, pad: int) -> List[tuple]:
    """The thread-local fast-path padding prefix, as script ops."""
    pad_obj = ctx.private[lane % len(ctx.private)]
    out = []
    for i in range(pad):
        fieldname = _PAD_FIELDS[i % 3]
        out.append(("read", pad_obj, fieldname, "_pad"))
        out.append(("write", pad_obj, fieldname, ("inc", "_pad", 1)))
    return out


def _padded(inner, pad: int, takes_lane: bool):
    """Wrap a method body with thread-local fast-path padding.

    Every transactional method takes a ``lane`` argument (the invoking
    worker's index) and performs ``pad`` read/write pairs against that
    worker's private object before its real work — the same-state
    traffic that dominates real programs.

    Padding a scripted inner body produces a scripted composite (so
    the whole method lowers for the batch executor); padding a
    generator body stays a generator.
    """
    inner_script = getattr(inner, "_dc_script_fn", None)
    if inner_script is not None:

        def padded_script(ctx, lane):
            script = _pad_script(ctx, lane, pad)
            if takes_lane:
                script.extend(inner_script(ctx, lane))
            else:
                script.extend(inner_script(ctx))
            return script

        return script_body(padded_script)

    def body(ctx, lane):
        pad_obj = ctx.private[lane % len(ctx.private)]
        for i in range(pad):
            fieldname = _PAD_FIELDS[i % 3]
            value = yield Read(pad_obj, fieldname)
            yield Write(pad_obj, fieldname, (value or 0) + 1)
        if takes_lane:
            yield from inner(ctx, lane)
        else:
            yield from inner(ctx)

    return body


def _make_violating_methods(program, spec, shared, rng) -> List[str]:
    names = []
    for i in range(spec.violating_methods):
        factory = _VIOLATION_FACTORIES[i % len(_VIOLATION_FACTORIES)]
        target = shared[i % len(shared)]
        aux = shared[(i + 1) % len(shared)]
        name = f"unsafe_op{i}"
        program.method(
            _padded(factory(target, aux), spec.pad, takes_lane=False), name=name
        )
        names.append(name)
    return names


def _make_safe_methods(program, spec, shared, readonly, hot):
    locked, private_names, read_names, hot_names = [], [], [], []
    for i in range(max(1, spec.safe_methods)):
        kind = i % 4
        if kind == 0:
            name = f"locked_op{i}"
            program.method(
                _padded(
                    patterns.locked_rmw(shared[i % len(shared)]),
                    spec.pad,
                    takes_lane=False,
                ),
                name=name,
            )
            locked.append(name)
        elif kind == 1:
            name = f"private_op{i}"

            def make_private(idx=i):
                def script(ctx, lane):
                    target = ctx.private[lane % len(ctx.private)]
                    out = []
                    for j in range(3):
                        out.append(
                            ("read", target, f"field{(idx + j) % 3}", "v")
                        )
                        out.append(
                            ("write", target, f"field{(idx + j) % 3}",
                             ("inc", "v", 1))
                        )
                    return out

                return script_body(script)

            program.method(
                _padded(make_private(), spec.pad, takes_lane=True), name=name
            )
            private_names.append(name)
        elif kind == 2:
            name = f"scan_op{i}"
            program.method(
                _padded(patterns.shared_read(readonly), spec.pad, takes_lane=False),
                name=name,
            )
            read_names.append(name)
        else:
            name = f"flag_op{i}"
            program.method(
                _padded(
                    patterns.hot_write(hot, f"flag{i}"), spec.pad, takes_lane=False
                ),
                name=name,
            )
            hot_names.append(name)
    return locked, private_names, read_names, hot_names


def _make_sliced_methods(program, spec, shared) -> List[str]:
    names = []
    for i in range(spec.sliced_methods):
        name = f"sliced_op{i}"
        program.method(
            _padded(
                patterns.field_sliced(shared[i % len(shared)]),
                spec.pad,
                takes_lane=True,
            ),
            name=name,
        )
        names.append(name)
    return names


def _make_ring_methods(program, spec) -> List[str]:
    if spec.ring_size <= 0:
        return []
    ring_objects = program.add_global_objects("ring", spec.ring_size)
    names = []
    for start in range(spec.ring_size):
        name = f"ring_op{start}"
        program.method(
            _padded(
                patterns.ring_write(ring_objects, start),
                spec.pad,
                takes_lane=False,
            ),
            name=name,
        )
        names.append(name)
    return names


#: listener seeding comes in same-thread bursts of ``_SEED_BURST``
#: invocations every ``_SEED_STRIDE`` iterations (staggered between
#: listeners); each burst fills exactly one seedbank *epoch* object
_SEED_BURST = 12
_SEED_STRIDE = 48


def _make_hub_scan(program, spec, shared):
    """The probing hub method plus the listener-chain warden."""
    if spec.hub_rounds <= 0 or spec.hub_scan_iters <= 0:
        return None
    scratch = program.add_global_object("hub_scratch")
    archive = program.add_global_object("hub_archive")
    epochs = spec.iterations // _SEED_STRIDE + 2
    seedbanks = program.add_global_objects("hub_seedbank", epochs)
    program.method(
        _padded(
            patterns.hub_scan(
                shared[0],
                "u0",
                seedbanks,
                archive,
                scratch,
                spec.hub_scan_iters,
                spec.hub_probe_period,
                spec.hub_listener_threads,
                seed_epoch=_SEED_BURST,
            ),
            spec.pad,
            takes_lane=False,
        ),
        name="hub_scan",
    )
    # the warden is one scan-long transaction anchored into the seeder
    # chain (the archive's ping field): it never probes, it only keeps
    # the finished seed transactions reachable — hence alive — for the
    # hubs to probe
    program.method(
        _padded(
            patterns.hub_scan(
                archive,
                "ping",
                seedbanks,
                archive,
                program.add_global_object("warden_scratch"),
                spec.hub_scan_iters * spec.hub_rounds,
                0,
            ),
            spec.pad,
            takes_lane=False,
        ),
        name="hub_warden",
    )
    return "hub_scan", "hub_warden", (archive, seedbanks)


def _make_group_methods(program, spec, shared, archive):
    """Helper methods for hub-stress workloads.

    Producers touch only ``shared[0]`` — the hub's anchor — so their
    small real cycles, and their ever-growing write chain, all land
    inside the hub's reachable region.  Listeners run the write-only
    seeder chain on the archive object: acyclic by construction, and
    disjoint from the producers, so the only paths between the groups
    run through hub transactions.
    """
    if archive is None:
        return None
    archive_obj, seedbanks = archive
    first_listener = spec.hub_threads + 1
    program.method(
        _padded(
            patterns.seeder(
                archive_obj,
                seedbanks,
                first_listener,
                spec.hub_listener_threads,
                seed_epoch=_SEED_BURST,
            ),
            spec.pad,
            takes_lane=True,
        ),
        name="seed_op",
    )
    program.method(
        _padded(patterns.split_rmw(shared[0]), spec.pad, takes_lane=False),
        name="group_rmw0",
    )
    program.method(
        _padded(patterns.locked_rmw(shared[0]), spec.pad, takes_lane=False),
        name="group_locked0",
    )
    return "seed_op", "group_rmw0", "group_locked0"


def _make_long_transaction(program, spec) -> Optional[str]:
    if spec.long_transaction_iters <= 0:
        return None
    canvas = program.add_global_object("canvas")
    name = "render_scene"
    program.method(
        _padded(
            patterns.long_loop(canvas, spec.long_transaction_iters),
            spec.pad,
            takes_lane=False,
        ),
        name=name,
    )
    return name


# ----------------------------------------------------------------------
# worker and thread structure
# ----------------------------------------------------------------------
def _make_worker(
    program,
    spec,
    rng,
    *,
    shared,
    violating,
    safe_locked,
    safe_private,
    safe_read,
    safe_hot,
    sliced,
    ring,
    long_tx,
    hub=None,
    warden=None,
    groups=None,
):
    # precompute each thread's invocation schedule so the program
    # structure is deterministic
    hub_mode = hub is not None
    producer: Dict[int, bool] = {}
    schedules: Dict[int, List[Tuple[str, Tuple]]] = {}
    warden_tid = spec.hub_threads
    first_producer = spec.hub_threads + 1 + spec.hub_listener_threads
    for tid in range(spec.threads):
        schedule: List[Tuple[str, Tuple]] = []
        producer[tid] = hub_mode and tid >= first_producer
        if hub_mode and tid < spec.hub_threads:
            # hub threads run back-to-back long scans whose probe
            # cycle checks stress the detector
            schedule = [(hub, (tid,))] * spec.hub_rounds
        elif hub_mode and tid == warden_tid:
            schedule = [(warden, (tid,))]
        elif hub_mode and tid < first_producer:
            # listeners: the write-only seeder chain publishing the
            # hubs' probe targets.  Seeding comes in same-thread
            # bursts (staggered between listeners) so consecutive
            # seedbank writes keep its coherence state unchanged —
            # the object-granularity detector sees at most one
            # conflict per burst, the per-field one a distinct writer
            # transaction per seed
            listener = tid - warden_tid - 1
            burst, stride = _SEED_BURST, _SEED_STRIDE
            phase = listener * (stride // 2)
            for it in range(spec.iterations):
                if (it + phase) % stride < burst or not safe_private:
                    schedule.append((groups[0], (tid,)))
                else:
                    schedule.append((rng.choice(safe_private), (tid,)))
        elif hub_mode:
            # producers: group-pinned traffic on the hub anchor object,
            # a mix of small real cycles and locked (safe) updates
            group_rmw, group_locked = groups[1], groups[2]
            for it in range(spec.iterations):
                roll = rng.random()
                if roll < spec.violating_weight:
                    schedule.append((group_rmw, (tid,)))
                elif roll < 0.6 and safe_private:
                    schedule.append((rng.choice(safe_private), (tid,)))
                else:
                    schedule.append((group_locked, (tid,)))
        else:
            for it in range(spec.iterations):
                schedule.append(_pick_action(spec, rng, tid, it, violating,
                                             safe_locked, safe_private,
                                             safe_read, safe_hot, sliced,
                                             ring))
            if long_tx is not None and tid == 0:
                schedule.append((long_tx, (tid,)))
        schedules[tid] = schedule

    def worker(ctx, tid):
        # the whole schedule is statically determined by (spec, tid),
        # so the worker is a script: one lowered frame covers the
        # invokes, the unary padding, and the array traffic
        script: List[tuple] = []
        append = script.append
        # fixed per thread: whether a unary op may touch shared state,
        # and each unary op's shared and private target and field
        may_share = not spec.disjoint and not (hub_mode and not producer[tid])
        period = spec.unary_shared_period
        unary = [
            (u, ctx.shared[(tid + u) % len(ctx.shared)], f"u{u % 2}")
            for u in range(spec.unary_ops)
        ]
        private = ctx.private[tid % len(ctx.private)]
        private_field = f"u{tid}"
        grid, length = ctx.grid, spec.array_length
        for it, (method, args) in enumerate(schedules[tid]):
            append(("invoke", method, args))
            for u, shared_target, shared_field in unary:
                if may_share and (it + u) % period == 0:
                    if hub_mode:
                        # producers only, write-only: pure writes keep
                        # the anchor object's access chain acyclic
                        # (every edge points from the previous writer
                        # to the next), so the hub's reachable region
                        # grows without drowning both detectors in
                        # mutual-RMW cycles — and ``u0`` is the chain
                        # the hub's anchor read hangs off
                        append(
                            ("write", ctx.shared[0], shared_field, ("const", it))
                        )
                        continue
                    target, fieldname = shared_target, shared_field
                else:
                    target, fieldname = private, private_field
                append(("read", target, fieldname, "v"))
                append(("write", target, fieldname, ("inc", "v", 1)))
            for a in range(spec.array_ops):
                index = (tid * 3 + it + a) % length
                append(("aread", grid, index, "e"))
                append(("awrite", grid, index, ("inc", "e", 1)))
        return script

    program.add_global_array("grid", spec.array_length)
    program.method(script_body(worker), name="worker")
    program.mark_entry("worker")


def _pick_action(
    spec, rng, tid, iteration, violating, safe_locked, safe_private,
    safe_read, safe_hot, sliced, ring,
) -> Tuple[str, Tuple]:
    # every method takes the worker's lane (for its fast-path padding)
    if spec.disjoint:
        pool = safe_private or safe_read or safe_locked
        return (rng.choice(pool), (tid,))
    roll = rng.random()
    if violating and roll < spec.violating_weight:
        return (rng.choice(violating), (tid,))
    if sliced and roll < spec.violating_weight + spec.sliced_weight:
        return (rng.choice(sliced), (tid,))
    if ring and roll < spec.violating_weight + spec.sliced_weight + spec.ring_weight:
        return (ring[(tid + iteration) % len(ring)], (tid,))
    roll = rng.random()
    if safe_read and roll < spec.shared_read_weight:
        return (rng.choice(safe_read), (tid,))
    if safe_private and roll < spec.shared_read_weight + spec.private_weight:
        return (rng.choice(safe_private), (tid,))
    pool = safe_locked or safe_hot or safe_read or safe_private
    return (rng.choice(pool), (tid,))


def _make_wait_notify(program, spec) -> None:
    if spec.wait_notify_pairs <= 0:
        return
    boxes = program.add_global_objects("box", spec.wait_notify_pairs)

    def producer(ctx, index):
        return [("invoke", "deposit", (index,)), ("compute", 2)] * 4

    def deposit(ctx, index):
        box = ctx.box[index]
        return [
            ("acquire", box),
            ("read", box, "count", "c"),
            ("write", box, "count", ("inc", "c", 1)),
            ("notify", box, True),
            ("release", box),
        ]

    def consumer(ctx, index):
        return [("invoke", "withdraw", (index,))] * 4

    def withdraw(ctx, index):
        box = ctx.box[index]
        yield Acquire(box)
        count = yield Read(box, "count")
        while not count:
            yield Wait(box)
            count = yield Read(box, "count")
        yield Write(box, "count", count - 1)
        yield Release(box)

    program.method(script_body(producer), name="producer")
    program.method(script_body(consumer), name="consumer")
    program.method(script_body(deposit), name="deposit")
    # withdraw loops until a value read under the monitor is non-zero:
    # data-dependent control flow, so it stays a generator
    program.method(withdraw, name="withdraw", interrupting=True)
    program.mark_entry("producer")
    program.mark_entry("consumer")


def _make_main(program, spec) -> None:
    def main(ctx):
        script: List[tuple] = []
        names = []
        for tid in range(spec.threads):
            name = f"W{tid}"
            script.append(("fork", name, "worker", (tid,)))
            names.append(name)
        for pair in range(spec.wait_notify_pairs):
            script.append(("fork", f"P{pair}", "producer", (pair,)))
            script.append(("fork", f"C{pair}", "consumer", (pair,)))
            names.extend([f"P{pair}", f"C{pair}"])
        for name in names:
            script.append(("join", name))
        return script

    if spec.fork_join:
        program.method(script_body(main), name="main")
        program.add_thread("main", "main")
    else:
        for tid in range(spec.threads):
            program.add_thread(f"W{tid}", "worker", (tid,))
