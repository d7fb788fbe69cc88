"""Program model: methods, globals, entry points, validation."""

import pytest

from repro.errors import ProgramError
from repro.runtime.heap import Heap, SharedArray, SharedObject
from repro.runtime.ops import Compute
from repro.runtime.program import MethodDef, Program


def noop(ctx):
    yield Compute(1)


class TestMethods:
    def test_decorator_registers_by_function_name(self):
        program = Program("p")

        @program.method
        def my_method(ctx):
            yield Compute(1)

        assert "my_method" in program.methods

    def test_decorator_with_name_and_interrupting(self):
        program = Program("p")

        @program.method(name="custom", interrupting=True)
        def body(ctx):
            yield Compute(1)

        assert program.lookup("custom").interrupting
        assert program.interrupting_methods() == ["custom"]

    def test_duplicate_method_rejected(self):
        program = Program("p")
        program.add_method(MethodDef("m", noop))
        with pytest.raises(ProgramError):
            program.add_method(MethodDef("m", noop))

    def test_lookup_unknown_raises(self):
        with pytest.raises(ProgramError):
            Program("p").lookup("ghost")


class TestThreadsAndEntries:
    def test_duplicate_thread_rejected(self):
        program = Program("p")
        program.add_method(MethodDef("m", noop))
        program.add_thread("T", "m")
        with pytest.raises(ProgramError):
            program.add_thread("T", "m")

    def test_entry_methods_include_marked(self):
        program = Program("p")
        program.add_method(MethodDef("m", noop))
        program.add_method(MethodDef("w", noop))
        program.add_thread("T", "m")
        program.mark_entry("w")
        assert program.entry_methods() == ["m", "w"]

    def test_validate_rejects_unknown_entry(self):
        program = Program("p")
        program.add_thread("T", "ghost")
        with pytest.raises(ProgramError):
            program.validate()

    def test_validate_rejects_no_threads(self):
        with pytest.raises(ProgramError):
            Program("p").validate()


class TestGlobals:
    def test_global_object_allocated_and_reachable(self):
        program = Program("p")
        obj = program.add_global_object("cfg")
        ctx = program.make_context()
        assert ctx.cfg is obj
        assert isinstance(obj, SharedObject)

    def test_global_array(self):
        program = Program("p")
        arr = program.add_global_array("buf", 8, fill=1)
        assert isinstance(arr, SharedArray)
        assert len(arr) == 8
        assert program.make_context().buf is arr

    def test_global_objects_list(self):
        program = Program("p")
        objs = program.add_global_objects("pool", 3)
        assert len(objs) == 3
        assert program.make_context().pool == objs

    def test_duplicate_global_rejected(self):
        program = Program("p")
        program.add_global("x", 1)
        with pytest.raises(ProgramError):
            program.add_global("x", 2)

    def test_unknown_global_attribute_error(self):
        program = Program("p")
        program.add_global("known", 1)
        ctx = program.make_context()
        with pytest.raises(AttributeError, match="known"):
            ctx.missing

    def test_context_lists_global_names(self):
        program = Program("p")
        program.add_global("b", 1)
        program.add_global("a", 2)
        assert program.make_context().global_names() == ["a", "b"]

    def test_global_is_a_plain_attribute(self):
        program = Program("p")
        obj = program.add_global_object("cfg")
        ctx = program.make_context()
        # found by the native attribute lookup, not by __getattr__
        assert vars(ctx)["cfg"] is obj

    def test_globals_named_like_context_attributes_leave_them_alone(self):
        program = Program("p")
        program.add_global("heap", "not the heap")
        program.add_global("global_names", "not the method")
        ctx = program.make_context()
        assert ctx.heap is program.heap
        assert isinstance(ctx.heap, Heap)
        assert ctx.global_names() == ["global_names", "heap"]


class TestHeap:
    def test_alloc_assigns_unique_ids(self):
        heap = Heap()
        a = heap.alloc("a")
        b = heap.alloc("b")
        assert a.oid != b.oid
        assert heap.get(a.oid) is a

    def test_len_and_iter(self):
        heap = Heap()
        heap.alloc("a")
        heap.alloc_array("arr", 4)
        assert len(heap) == 2
        assert len(list(heap)) == 2

    def test_field_defaults_to_zero(self):
        heap = Heap()
        obj = heap.alloc("o")
        assert heap.read_field(obj, "f") == 0
        heap.write_field(obj, "f", "v")
        assert heap.read_field(obj, "f") == "v"

    def test_array_bounds_checked(self):
        heap = Heap()
        arr = heap.alloc_array("a", 2)
        with pytest.raises(IndexError):
            heap.read_element(arr, 5)

    def test_objects_hash_by_identity(self):
        heap = Heap()
        a, b = heap.alloc("x"), heap.alloc("x")
        assert a != b
        assert len({a, b}) == 2
