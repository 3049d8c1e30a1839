"""Self-time arithmetic of the tracer, on a fake clock.

Run with `python3 -m pytest perfbench/test_tracer.py` or
`python3 perfbench/test_tracer.py`.
"""

import sys
from pathlib import Path
from types import ModuleType

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def _recursive_module(clock):
    """A module with one recursive function: 1 s before and 2 s after recursing."""
    mod = ModuleType("fake.layer")

    def depth(n):
        clock.work(1.0)
        if n:
            mod.depth(n - 1)  # through the module binding, as the package does
        clock.work(2.0)
        return n

    depth.__module__ = mod.__name__
    mod.depth = depth
    return mod


def test_recursive_self_time_counts_each_interval_once():
    clock = FakeClock()
    mod = _recursive_module(clock)
    tracer = Tracer([mod], clock=clock)
    tracer.install()
    try:
        tracer.request("request", lambda: mod.depth(4))
    finally:
        tracer.uninstall()

    st = tracer.stats["layer.depth"]
    assert st.calls == 5
    # five activations, each with 3 s of its own work
    assert st.self_s == 15.0
    # inclusive time nests: 15 + 12 + 9 + 6 + 3, which is why it is not reported
    assert st.total_s == 45.0
    root = tracer.roots[-1]
    assert root.duration == 15.0
    assert root.self_sum == root.duration
    assert root.spans == 6
    assert tracer.stats["request"].self_s == 0.0


def test_errors_are_counted_and_the_stack_unwinds():
    clock = FakeClock()
    mod = ModuleType("fake.layer")

    def fails(n):
        clock.work(1.0)
        if n:
            return mod.fails(n - 1)
        raise RecursionError("bottom")

    fails.__module__ = mod.__name__
    mod.fails = fails
    tracer = Tracer([mod], clock=clock)
    tracer.install()
    try:
        tracer.request("request", lambda: mod.fails(2))
    except RecursionError:
        pass
    finally:
        tracer.uninstall()

    assert tracer.stats["layer.fails"].errors == 3
    assert tracer.stats["request"].errors == 1
    assert tracer.roots[-1].self_sum == tracer.roots[-1].duration == 3.0
    assert not tracer._stack


def test_generator_resumes_are_spans_and_aliases_are_rewrapped():
    clock = FakeClock()
    mod = ModuleType("fake.gen")
    user = ModuleType("fake.user")

    def items(n):
        for i in range(n):
            clock.work(1.0)
            yield i

    items.__module__ = mod.__name__
    mod.items = items
    user.items = items  # a `from fake.gen import items` binding
    tracer = Tracer([mod, user], clock=clock)
    tracer.install()
    try:
        assert user.items is mod.items is not items
        tracer.request("request", lambda: [clock.work(0.5) for _ in user.items(3)])
    finally:
        tracer.uninstall()
    assert user.items is items and mod.items is items

    st = tracer.stats["gen.items"]
    assert st.calls == 4  # three items and the resume that ends the generator
    assert st.self_s == 3.0
    assert tracer.stats["request"].self_s == 1.5
    assert tracer.roots[-1].self_sum == tracer.roots[-1].duration == 4.5


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
