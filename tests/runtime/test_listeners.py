"""Listener pipeline dispatch and ordering."""

from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.heap import Heap
from repro.runtime.listeners import ExecutionListener, ListenerPipeline


class Probe(ExecutionListener):
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_thread_start(self, thread):
        self.log.append((self.name, "start", thread))

    def on_thread_end(self, thread):
        self.log.append((self.name, "end", thread))

    def on_method_enter(self, thread, method, depth):
        self.log.append((self.name, "enter", method, depth))

    def on_method_exit(self, thread, method, depth):
        self.log.append((self.name, "exit", method, depth))

    def on_access(self, event):
        self.log.append((self.name, "access", event.fieldname))

    def on_execution_end(self):
        self.log.append((self.name, "finish"))


def make_event():
    return AccessEvent(
        seq=1, thread_name="T", obj=Heap().alloc("o"), fieldname="f",
        kind=AccessKind.READ, is_sync=False, is_array=False, site=Site("m"),
    )


def test_dispatch_order_matches_registration():
    """Barrier order = registration order (Octet before ICD's logger)."""
    log = []
    pipeline = ListenerPipeline([Probe("a", log), Probe("b", log)])
    pipeline.on_access(make_event())
    assert [entry[0] for entry in log] == ["a", "b"]


def test_all_event_kinds_forwarded():
    log = []
    pipeline = ListenerPipeline([Probe("p", log)])
    pipeline.on_thread_start("T")
    pipeline.on_method_enter("T", "m", 1)
    pipeline.on_access(make_event())
    pipeline.on_method_exit("T", "m", 1)
    pipeline.on_thread_end("T")
    pipeline.on_execution_end()
    kinds = [entry[1] for entry in log]
    assert kinds == ["start", "enter", "access", "exit", "end", "finish"]


def test_add_after_construction():
    log = []
    pipeline = ListenerPipeline()
    pipeline.add(Probe("late", log))
    pipeline.on_thread_start("T")
    assert log == [("late", "start", "T")]


def test_base_listener_is_a_no_op():
    listener = ExecutionListener()
    listener.on_thread_start("T")
    listener.on_access(make_event())
    listener.on_execution_end()  # nothing raised


def barrier_args(event):
    """The barrier arguments the executor passes for ``event``."""
    return (
        event.seq, event.thread_name, event.obj, event.fieldname, event.kind,
        event.site, event.address, str(event.site), event.is_array,
        event.is_sync,
    )


class Fused(ExecutionListener):
    """A listener supplying its own access barrier."""

    def __init__(self, log, name="fused"):
        self.log = log

        def fused(seq, thread_name, obj, fieldname, kind, site, address,
                  site_str, is_array, is_sync):
            self.log.append((name, fieldname))

        self.barrier = fused

    def on_access(self, event):
        self.log.append(("unfused", event.fieldname))

    def access_barrier(self):
        return self.barrier


def test_access_barrier_follows_the_listeners_added():
    """No listeners: a no-op barrier.  One: that listener's own
    barrier.  Two or more: each listener's barrier in registration
    order.  The pipeline builds the barrier from its listeners at the
    time of the call, so add() is picked up by the next build."""
    log = []
    pipeline = ListenerPipeline()
    pipeline.access_barrier()(*barrier_args(make_event()))  # dropped
    assert log == []

    first = Fused(log, "a")
    pipeline.add(first)
    assert pipeline.access_barrier() is first.barrier

    pipeline.add(Fused(log, "b"))
    pipeline.add(Probe("c", log))
    pipeline.access_barrier()(*barrier_args(make_event()))
    assert log == [("a", "f"), ("b", "f"), ("c", "access", "f")]


def test_single_listener_binds_the_fused_barrier():
    """With one listener the pipeline's barrier is the listener's
    access_barrier() closure — ICD's fused ICD+Octet call — not a
    wrapper around on_access."""
    log = []
    listener = Fused(log)
    barrier = ListenerPipeline([listener]).access_barrier()
    assert barrier is listener.barrier
    barrier(*barrier_args(make_event()))
    assert log == [("fused", "f")]


def test_fan_out_uses_each_listeners_barrier():
    log = []
    pipeline = ListenerPipeline([Fused(log), Probe("p", log)])
    pipeline.access_barrier()(*barrier_args(make_event()))
    assert log == [("fused", "f"), ("p", "access", "f")]


def test_default_access_barrier_builds_the_event_for_on_access():
    """The default barrier hands on_access the AccessEvent its
    arguments describe, is_sync and is_array included."""
    seen = []

    class Events(ExecutionListener):
        def on_access(self, event):
            seen.append(event)

    barrier = Events().access_barrier()
    heap = Heap()
    events = [
        make_event(),
        AccessEvent(
            seq=2, thread_name="T", obj=heap.alloc("lock"),
            fieldname="<monitor>", kind=AccessKind.WRITE, is_sync=True,
            is_array=False, site=Site("m", 3),
        ),
        AccessEvent(
            seq=3, thread_name="U", obj=heap.alloc_array("a", 2),
            fieldname="[1]", kind=AccessKind.READ, is_sync=False,
            is_array=True, site=Site("n", 4),
        ),
    ]
    for event in events:
        barrier(*barrier_args(event))
    # AccessEvent equality covers every field, is_sync included
    assert seen == events


def test_single_listener_fast_path_preserves_event_identity():
    seen = []

    class Identity(ExecutionListener):
        def on_access(self, event):
            seen.append(event)

    pipeline = ListenerPipeline([Identity()])
    event = make_event()
    pipeline.on_access(event)
    assert seen == [event]
