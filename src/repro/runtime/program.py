"""Program model: methods, thread entry points, and the body context.

A :class:`Program` is a set of named methods plus the threads that
start executing when the program launches (additional threads may be
forked at run time).  Method bodies are generator functions taking a
:class:`BodyContext` plus the ``Invoke``/``Fork`` arguments and
yielding :mod:`repro.runtime.ops` operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ProgramError
from repro.runtime.heap import Heap, SharedArray, SharedObject

BodyFn = Callable[..., Any]


@dataclass(frozen=True)
class MethodDef:
    """A named method.

    Attributes:
        name: unique method name; also the static transaction identity.
        body: generator function ``body(ctx, *args)``.
        interrupting: true for methods containing interrupting calls
            (``wait``/``notify``/...); iterative refinement never places
            these in the atomicity specification (Section 5.1).
    """

    name: str
    body: BodyFn
    interrupting: bool = False


@dataclass(frozen=True)
class ThreadSpec:
    """A thread started at program launch."""

    name: str
    method: str
    args: Tuple[Any, ...] = field(default=())


class BodyContext:
    """Per-program services available to method bodies.

    Bodies receive the context as their first argument and may use it to
    look up globals registered with :meth:`Program.add_global` or to
    reach the heap for pre-allocated structures.  All *shared-memory*
    interaction still goes through yielded operations; the context only
    hands out references.

    Globals are plain instance attributes, so ``ctx.<name>`` is a native
    lookup.  A global named like the context's own attributes (``heap``,
    ``global_names``) leaves them alone; an unknown name raises an
    ``AttributeError`` that lists the known globals.
    """

    def __init__(self, heap: Heap, globals_: Dict[str, Any]) -> None:
        self._heap = heap
        self._globals = globals_
        attributes = vars(self)
        for name, value in globals_.items():
            if name not in attributes and not hasattr(type(self), name):
                attributes[name] = value

    def __getattr__(self, name: str) -> Any:
        # reached only for a name that is no attribute, hence no global
        raise AttributeError(
            f"program has no global named {name!r}; "
            f"known globals: {sorted(self._globals)}"
        )

    @property
    def heap(self) -> Heap:
        return self._heap

    def global_names(self) -> List[str]:
        """Names of all registered globals."""
        return sorted(self._globals)


class Program:
    """A simulated multithreaded program.

    Example::

        program = Program("counter-demo")
        counter = program.add_global_object("counter")

        @program.method
        def increment(ctx):
            value = yield Read(counter, "value")
            yield Write(counter, "value", value + 1)

        @program.method
        def worker(ctx):
            for _ in range(10):
                yield Invoke("increment")

        program.add_thread("T1", "worker")
        program.add_thread("T2", "worker")
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.heap = Heap()
        self.methods: Dict[str, MethodDef] = {}
        self.threads: List[ThreadSpec] = []
        self._globals: Dict[str, Any] = {}
        self._extra_entry_methods: set[str] = set()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def method(self, fn: Optional[BodyFn] = None, *, name: Optional[str] = None,
               interrupting: bool = False) -> Any:
        """Register a method; usable as a decorator.

        ``interrupting`` marks methods excluded from initial atomicity
        specifications (they call ``wait``/``notify`` etc.).
        """
        def register(body: BodyFn) -> BodyFn:
            method_name = name or body.__name__
            self.add_method(MethodDef(method_name, body, interrupting=interrupting))
            return body

        if fn is not None:
            return register(fn)
        return register

    def add_method(self, definition: MethodDef) -> None:
        """Register a :class:`MethodDef`; names must be unique."""
        if definition.name in self.methods:
            raise ProgramError(f"duplicate method name: {definition.name!r}")
        self.methods[definition.name] = definition

    def add_thread(self, name: str, method: str, args: Tuple[Any, ...] = ()) -> None:
        """Add a thread started at launch, running ``method(*args)``."""
        if any(t.name == name for t in self.threads):
            raise ProgramError(f"duplicate thread name: {name!r}")
        self.threads.append(ThreadSpec(name, method, args))

    def add_global(self, name: str, value: Any) -> Any:
        """Register an arbitrary global reachable as ``ctx.<name>``."""
        if name in self._globals:
            raise ProgramError(f"duplicate global name: {name!r}")
        self._globals[name] = value
        return value

    def add_global_object(self, name: str) -> SharedObject:
        """Allocate a shared object and register it as a global."""
        return self.add_global(name, self.heap.alloc(name))

    def add_global_array(self, name: str, length: int, fill: Any = 0) -> SharedArray:
        """Allocate a shared array and register it as a global."""
        return self.add_global(name, self.heap.alloc_array(name, length, fill))

    def add_global_objects(self, prefix: str, count: int) -> List[SharedObject]:
        """Allocate ``count`` objects named ``<prefix>0..`` and register the list."""
        objs = [self.heap.alloc(f"{prefix}{i}") for i in range(count)]
        self.add_global(prefix, objs)
        return objs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, method: str) -> MethodDef:
        """Return the definition of ``method`` or raise ProgramError."""
        try:
            return self.methods[method]
        except KeyError:
            raise ProgramError(f"unknown method: {method!r}") from None

    def method_names(self) -> List[str]:
        """All registered method names, sorted."""
        return sorted(self.methods)

    def mark_entry(self, method: str) -> None:
        """Mark ``method`` as a thread entry point (e.g., a fork target).

        Entry methods are the analogues of ``main()``/``Thread.run()``
        and are excluded from initial atomicity specifications.
        """
        self._extra_entry_methods.add(method)

    def entry_methods(self) -> List[str]:
        """Methods used as thread entry points (launch or fork targets)."""
        launch = {t.method for t in self.threads}
        return sorted(launch | self._extra_entry_methods)

    def interrupting_methods(self) -> List[str]:
        """Methods flagged as containing interrupting calls."""
        return sorted(m.name for m in self.methods.values() if m.interrupting)

    def make_context(self) -> BodyContext:
        """Build the :class:`BodyContext` passed to every body."""
        return BodyContext(self.heap, dict(self._globals))

    def validate(self) -> None:
        """Check that every thread entry point exists."""
        for spec in self.threads:
            if spec.method not in self.methods:
                raise ProgramError(
                    f"thread {spec.name!r} starts at unknown method {spec.method!r}"
                )
        if not self.threads:
            raise ProgramError("program has no threads")
