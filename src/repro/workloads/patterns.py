"""Atomicity-violation idioms.

Each pattern is a method-body generator factory: given the shared
objects it operates on, it returns a generator-function body suitable
for :meth:`repro.runtime.program.Program.add_method`.  The violating
patterns are the idioms the bug-characteristics literature (Lu et al.,
ASPLOS 2008) identifies as dominant in real code; the safe patterns
provide the non-violating traffic every benchmark is mostly made of.

Violating patterns (each yields conflict-serializability cycles when
interleaved, because the method is in the atomicity specification but
does not enforce atomicity):

* ``split_rmw`` — read-compute-write with no lock: a remote write
  between the read and the write creates W→R / R→W edges both ways.
* ``toctou`` — check-then-act: test a flag, then act on the protected
  state; the flag and the state are distinct fields.
* ``two_phase_locked`` — each *half* holds the lock, but the method
  releases it between the halves (the classic "locked but not atomic"
  bug: individual accesses race-free, region not serializable).
* ``read_pair`` — reads the same field twice expecting stability; a
  remote write between them yields a W→R/R→W cycle.

Safe patterns:

* ``locked_rmw`` — the whole read-modify-write under the object's
  monitor.
* ``private_work`` — accesses a thread-private object only.
* ``shared_read`` — reads read-mostly objects (drives Octet's RdSh
  states and fence transitions without creating violations).
* ``hot_write`` — writes a dedicated per-method object (WrEx traffic,
  conflicting transitions when two benchmarks share it).
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.runtime.heap import SharedObject
from repro.runtime.lowering import script_body
from repro.runtime.ops import Compute, Read, Write

Body = Callable[..., Any]

# Patterns whose op stream is statically known are declared as *script
# functions* (see repro.runtime.lowering), which the executor lowers to
# its columnar form.  Patterns with data-dependent control flow (toctou,
# read_pair, the probing hub_scan, seeder) remain plain generators,
# driven one ``yield`` at a time.


def split_rmw(target: SharedObject, fieldname: str = "value", gap: int = 2) -> Body:
    """Unsynchronized read-modify-write (the canonical violation)."""

    def script(ctx):
        return [
            ("read", target, fieldname, "v"),
            ("compute", gap),
            ("write", target, fieldname, ("inc", "v", 1)),
        ]

    return script_body(script)


def toctou(flag_obj: SharedObject, state_obj: SharedObject) -> Body:
    """Check a flag, then act on separately-raced state."""

    def body(ctx):
        ready = yield Read(flag_obj, "ready")
        yield Compute(1)
        if ready:
            current = yield Read(state_obj, "items")
            yield Write(state_obj, "items", (current or 0) - 1)
        else:
            yield Write(flag_obj, "ready", 1)
            yield Write(state_obj, "items", 1)

    return body


def two_phase_locked(target: SharedObject, fieldname: str = "balance") -> Body:
    """Race-free but non-atomic: the lock is dropped mid-region."""

    def script(ctx):
        return [
            ("acquire", target),
            ("read", target, fieldname, "v"),
            ("release", target),
            ("compute", 2),
            ("acquire", target),
            ("write", target, fieldname, ("inc", "v", 1)),
            ("release", target),
        ]

    return script_body(script)


def read_pair(target: SharedObject, fieldname: str = "config") -> Body:
    """Two reads expecting a stable value."""

    def body(ctx):
        first = yield Read(target, fieldname)
        yield Compute(2)
        second = yield Read(target, fieldname)
        if first != second:
            yield Write(target, "retries", 1)

    return body


def locked_rmw(target: SharedObject, fieldname: str = "value") -> Body:
    """Atomic read-modify-write under the object's monitor."""

    def script(ctx):
        return [
            ("acquire", target),
            ("read", target, fieldname, "v"),
            ("write", target, fieldname, ("inc", "v", 1)),
            ("release", target),
        ]

    return script_body(script)


def private_work(target: SharedObject, ops: int = 4) -> Body:
    """Thread-private traffic: fast-path Octet states, no dependences."""

    def script(ctx):
        out = []
        for i in range(ops):
            out.append(("read", target, f"slot{i % 2}", "v"))
            out.append(("write", target, f"slot{i % 2}", ("inc", "v", 1)))
        return out

    return script_body(script)


def shared_read(targets: Sequence[SharedObject], ops: int = 3) -> Body:
    """Read-mostly traffic over shared objects (RdSh states, fences)."""

    def script(ctx):
        return [
            ("read", targets[i % len(targets)], "data", None)
            for i in range(ops)
        ]

    return script_body(script)


def hot_write(target: SharedObject, fieldname: str = "hot") -> Body:
    """A single write to a contended object (conflicting transitions)."""

    def script(ctx):
        return [("write", target, fieldname, ("const", 1))]

    return script_body(script)


def long_loop(target: SharedObject, iterations: int) -> Body:
    """A long-running transaction touching many *distinct* fields.

    Models raytracer's and sunflow9's long atomic regions, whose logs
    make PCD exhaust memory (Section 5.1's methodology adjustment).
    Fields are distinct so duplicate elision cannot shrink the log —
    matching the real hazard, where a render loop touches fresh scene
    data throughout.
    """

    def script(ctx):
        shared = ctx.shared[0]
        out = []
        for i in range(iterations):
            out.append(("read", target, f"cell{i}", "v"))
            out.append(("write", target, f"cell{i}", ("inc", "v", 1)))
            if i % 400 == 0:
                # periodic progress updates on shared state: the long
                # transaction exchanges dependences with concurrent
                # transactions, so ICD's imprecise cycles can (and do)
                # pull its huge log into PCD — the Section 5.1 hazard
                out.append(("read", shared, "progress", "p"))
                out.append(("write", shared, "progress", ("inc", "p", 1)))
        return out

    return script_body(script)


def hub_scan(
    anchor: SharedObject,
    anchor_field: str,
    seedbanks: Sequence[SharedObject],
    archive: SharedObject,
    scratch: SharedObject,
    iterations: int,
    probe_period: int = 0,
    listener_count: int = 0,
    probe_lag: int = 26,
    seed_epoch: int = 12,
) -> Body:
    """A long scanner transaction anchored into a large producer group.

    The transaction reads ``anchor`` once at the start.  The producer
    group keeps overwriting that variable, so the first post-anchor
    write hangs the scanner off the group's ever-growing access chain:
    a huge, still-live, dead-end region becomes reachable *from* the
    scanner for its whole lifetime (the collector cannot sweep it — it
    is reachable from an unfinished transaction).

    Periodically the scanner probes the ``seedbank``: it reads seed
    fields that listener transactions (:func:`seeder`) wrote *before
    this scan began* (per the cursors published on the ``archive``)
    and never write again.  Each probe adds an edge
    from an old, finished seeder transaction to the scanner, and the
    per-edge cycle check that follows must refute a cycle — which the
    naive whole-graph DFS can only do by exhausting the scanner's
    entire reachable region, re-walking the dead-end producer history
    on every probe.  An incremental component certificate answers the
    same question in O(1): the seeder and the scanner were never in
    one strongly connected component, so no traversal is needed.  This
    is the regime the paper's incremental detector targets.

    With ``probe_period=0`` the pattern degenerates into a *warden*: a
    long transaction that only anchors a group's chain, keeping its
    history alive (exactly how a long-running transaction pins memory
    in Section 5.1) without ever probing it.  The warden arm has no
    data-dependent control flow, so it is declared as a script; the
    probing arm computes its probe targets from values read at run
    time (the cursors), so it stays a generator.
    """

    if probe_period == 0:

        def script(ctx):
            out = [("read", anchor, anchor_field, None)]
            for i in range(iterations):
                out.append(("read", scratch, f"cell{i}", "v"))
                out.append(("write", scratch, f"cell{i}", ("inc", "v", 1)))
            return out

        return script_body(script)

    def body(ctx):
        yield Read(anchor, anchor_field)
        cursors = []
        if probe_period:
            # the listeners publish how many seeds they have written;
            # reading the cursors makes every later probe hit a field
            # that provably has a (pre-scan) writer
            for listener in range(listener_count):
                count = yield Read(archive, f"cursor{listener}")
                cursors.append(count or 0)
        probes = 0
        for i in range(iterations):
            value = yield Read(scratch, f"cell{i}")
            yield Write(scratch, f"cell{i}", (value or 0) + 1)
            if probe_period and i % probe_period == probe_period - 1:
                listener = probes % listener_count
                index = cursors[listener] - 1 - probe_lag - probes // listener_count
                # the seedbank is partitioned into per-burst *epoch*
                # objects the listeners never touch again once filled;
                # probing only epochs at least two bursts old keeps
                # every object-granularity probe edge pointing from an
                # old, already-registered transaction to the hub
                if index >= 0 and index // seed_epoch < len(seedbanks):
                    bank = seedbanks[index // seed_epoch]
                    yield Read(bank, f"seed{listener}_{index}")
                probes += 1

    return body


def seeder(
    archive: SharedObject,
    seedbanks: Sequence[SharedObject],
    lane_base: int = 0,
    listener_count: int = 1,
    seed_epoch: int = 12,
) -> Body:
    """One write-once seed per invocation, published via a cursor.

    The body takes a ``lane`` argument (the listener's index).  Each
    invocation writes the archive's ping field — chaining the
    transaction onto the global write-only seeder chain at creation
    time — then
    writes one fresh ``seed<lane>_<k>`` field on the seedbank (never
    written again: a later hub-scan probe of it can add an edge but
    never close a cycle) and advances the lane's cursor.  The chain is
    acyclic by construction: every precise edge points from an older
    seeder transaction to a newer one, so seeders can never join a
    strongly connected component.

    The seeds live on *epoch* objects separate from the ping/cursor
    traffic so that the coarse, object-granularity detector stays
    quiet too: seeder invocations come in same-thread bursts, one
    burst fills one epoch object, and the listeners never touch an
    epoch again once filled.  A hub probing only old epochs therefore
    reads quiescent objects — at most one object-level conflict per
    epoch ever, and none at all once the epoch is in the hub's read
    state — while the precise per-field detector still sees one
    distinct (old, finished) writer transaction per probe.
    """

    def body(ctx, lane):
        # ``lane`` is the invoking worker's thread index (so the
        # padding stays on that thread's private object); the
        # listener's seed namespace is its offset from ``lane_base``
        listener = lane - lane_base
        if listener_count > 1:
            # read a *sibling* listener's cursor: its last writer is an
            # old transaction of another thread, so this access gives
            # every seed transaction a precise cross-thread edge at
            # creation time.  Without it, burst-interior seeds (whose
            # ping/cursor writes follow a same-thread access) would get
            # their first cross edge only when the hub probes them.
            # Bursts do not overlap, so these sibling edges always
            # point old -> new: acyclic.
            yield Read(archive, f"cursor{(listener + 1) % listener_count}")
        yield Write(archive, "ping", listener)
        count = yield Read(archive, f"cursor{listener}")
        index = count or 0
        bank = seedbanks[min(index // seed_epoch, len(seedbanks) - 1)]
        yield Write(bank, f"seed{listener}_{index}", 1)
        yield Write(archive, f"cursor{listener}", index + 1)

    return body


def ring_write(targets: Sequence[SharedObject], start: int) -> Body:
    """Write around a ring of shared objects.

    With several threads starting at different ring offsets, dependence
    edges form abundant cross-thread cycles at transaction granularity
    without any being an atomicity violation per se once refined —
    xalan6's SCC-storm profile.
    """

    def script(ctx):
        n = len(targets)
        out = []
        for step in range(n):
            obj = targets[(start + step) % n]
            out.append(("read", obj, "token", "v"))
            out.append(("write", obj, "token", ("inc", "v", 1)))
        return out

    return script_body(script)


def field_sliced(target: SharedObject) -> Body:
    """Per-thread fields of one shared object.

    The body takes a ``lane`` argument; each lane touches only its own
    field, so there is **no** precise cross-thread dependence — but
    Octet tracks state at object granularity, so every lane switch is a
    conflicting transition and ICD adds edges.  This is the purest
    driver of imprecise-but-not-precise SCCs (montecarlo's profile:
    thousands of ICD SCCs, almost no violations).
    """

    def script(ctx, lane):
        return [
            ("read", target, f"slot{lane}", "v"),
            ("compute", 1),
            ("write", target, f"slot{lane}", ("inc", "v", 1)),
        ]

    return script_body(script)


PATTERN_NAMES = [
    "field_sliced",
    "split_rmw",
    "toctou",
    "two_phase_locked",
    "read_pair",
    "locked_rmw",
    "private_work",
    "shared_read",
    "hot_write",
    "long_loop",
    "ring_write",
]
