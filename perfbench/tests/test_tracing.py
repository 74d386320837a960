import sys
import types

import pytest

from perfbench import layers, tracing
from perfbench.tracing import Patches, Recorder, Span, nesting_problems, self_times


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent=parent)


def test_self_time_subtracts_direct_children_only():
    root = _span("root", 0.0, 10.0)
    child = _span("child", 1.0, 5.0, root)
    grandchild = _span("grandchild", 2.0, 3.0, child)
    sibling = _span("sibling", 6.0, 9.0, root)
    own = self_times([root, child, grandchild, sibling])
    assert own[root] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[child] == pytest.approx(4.0 - 1.0)
    assert own[grandchild] == pytest.approx(1.0)
    assert own[sibling] == pytest.approx(3.0)
    # the self times of a tree add up to its root's duration
    assert sum(own.values()) == pytest.approx(10.0)
    assert nesting_problems([root, child, grandchild, sibling]) == []


def test_async_and_wait_spans_have_no_self_time():
    root = _span("root", 0.0, 4.0)
    waited = Span("queue", 1.0, 2.0, kind="wait")
    coroutine = Span("frame", 0.0, 3.0, kind="async")
    own = self_times([root, waited, coroutine])
    assert set(own) == {root}
    assert own[root] == pytest.approx(4.0)


def test_overlapping_children_are_reported():
    root = _span("root", 0.0, 10.0)
    first = _span("a", 1.0, 6.0, root)
    second = _span("b", 5.0, 9.0, root)
    escaped = _span("c", 9.5, 11.0, root)
    problems = nesting_problems([root, first, second, escaped])
    assert any("overlaps" in p for p in problems)
    assert any("escapes" in p for p in problems)


def test_recorded_spans_nest_by_call():
    recorder = Recorder()

    def leaf():
        return 1

    wrapped_leaf = recorder.timed("leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert recorder.timed("outer", outer)() == 2
    spans = recorder.finished()
    assert [s.name for s in spans] == ["outer", "leaf", "leaf"]
    assert spans[1].parent is spans[0] and spans[2].parent is spans[0]
    assert nesting_problems(spans) == []


def test_errors_are_recorded_and_reraised():
    recorder = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.timed("boom", boom)()
    (span,) = recorder.finished()
    assert span.error == "KeyError"


def test_dump_round_trip_keeps_parents():
    recorder = Recorder()
    inner = recorder.timed("inner", lambda: None)
    recorder.timed("outer", lambda: inner())()
    spans = tracing.load_spans(recorder.dump("bench"))
    assert spans[1].parent is spans[0]


@pytest.fixture
def toy_package():
    """``toypkg.impl.work`` imported by name into ``toypkg.user``."""
    pkg = types.ModuleType("toypkg")
    impl = types.ModuleType("toypkg.impl")
    user = types.ModuleType("toypkg.user")

    def work(n):
        return n + 1

    class Box:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls()

    impl.work = work
    impl.Box = Box
    user.work = work  # ``from toypkg.impl import work``

    def call_twice():
        return impl.work(1) + user.work(2)

    user.call_twice = call_twice
    modules = {"toypkg": pkg, "toypkg.impl": impl, "toypkg.user": user}
    sys.modules.update(modules)
    yield impl, user
    for name in modules:
        sys.modules.pop(name, None)


def test_one_record_per_call_under_several_names(toy_package):
    impl, user = toy_package
    recorder, patches = Recorder(), Patches(package="toypkg")
    assert patches.wrap("toypkg.impl:work", lambda fn: recorder.timed("w", fn)) == 2
    # wrapping the same function again (say, from another layer's list)
    # must not stack a second wrapper on either binding
    assert patches.wrap("toypkg.user:work", lambda fn: recorder.timed("w", fn)) == 0
    assert impl.work is user.work
    assert user.call_twice() == 5
    assert [s.name for s in recorder.finished()] == ["w", "w"]
    patches.restore()


def test_restore_puts_every_original_back(toy_package):
    impl, user = toy_package
    work, method = impl.work, impl.Box.__dict__["method"]
    build = impl.Box.__dict__["build"]
    recorder, patches = Recorder(), Patches(package="toypkg")
    patches.wrap("toypkg.impl:work", lambda fn: recorder.timed("w", fn))
    patches.wrap("toypkg.impl:Box.method", lambda fn: recorder.timed("m", fn))
    patches.wrap("toypkg.impl:Box.build", lambda fn: recorder.timed("b", fn))
    assert impl.Box.build().method() == "m"
    assert [s.name for s in recorder.finished()] == ["b", "m"]
    assert isinstance(impl.Box.__dict__["build"], classmethod)
    assert tracing.installed_wrappers("toypkg")
    patches.restore()
    assert impl.work is work and user.work is work
    assert impl.Box.__dict__["method"] is method
    assert impl.Box.__dict__["build"] is build
    assert tracing.installed_wrappers("toypkg") == []


def test_layer_installation_is_fully_undone():
    from repro.compiler import tuning
    from repro.regalloc import allocator

    assert tracing.installed_wrappers() == []
    minimal_budget = allocator.minimal_budget
    inst = layers.install()
    try:
        # patched where the callers look it up, not only where defined
        assert tracing.is_wrapper(tuning.minimal_budget)
        assert tuning.minimal_budget is allocator.minimal_budget
    finally:
        inst.uninstall()
    assert tracing.installed_wrappers() == []
    assert allocator.minimal_budget is minimal_budget
    assert tuning.minimal_budget is minimal_budget


def test_every_target_resolves():
    for _, path, _, _ in layers.TARGETS:
        owner, attr = tracing.resolve(path)
        assert callable(getattr(owner, attr)), path
