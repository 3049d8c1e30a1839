"""Span tracer that wraps the package's public functions from outside it.

Every wrapped call is a span.  Spans nest on one stack (the benchmark is
single-threaded), so a span's self time is its duration minus the durations
of the spans it directly caused.  Recursive functions such as
`Diagram.dimension` therefore never count the same interval twice: each
activation keeps only the time no deeper activation covers.

Spans are folded into per-name totals as they close instead of being kept
one record per call: a towers run makes millions of calls, and one record
each would need hundreds of megabytes.  Per request the tracer keeps the
root span's duration and the sum of every self time recorded under it; the
two agree exactly when the stack bookkeeping is sound, which the benchmark
checks after each traced request.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable


@dataclass
class FnStats:
    """Totals for one span name: calls, self seconds, and calls that raised."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0


@dataclass
class RootSpan:
    """One request's root span, closed: its duration and its tree's self-time sum."""

    name: str
    duration: float
    self_sum: float
    spans: int


class Tracer:
    """Spans over the public functions of `modules` and methods of `classes`.

    Module-level public functions defined in a module are named
    `<layer>.<name>`, where the layer is the module's last dotted component;
    public methods of `classes` (layer -> class) are `<layer>.<method>`.
    `install` points every binding at its wrapper: the defining module's,
    any other listed module's `from x import f` alias, and the package
    re-export, so a span appears whichever binding a caller goes through.
    `uninstall` restores the originals; the totals survive both.
    """

    def __init__(self, modules: Iterable[ModuleType] = (), classes: dict[str, type] | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, FnStats] = {}
        self.roots: list[RootSpan] = []
        # one [child_seconds] cell per open span, innermost last
        self._stack: list[list[float]] = []
        # running [self seconds, span count] over every span ever closed
        self._acc = [0.0, 0]
        self._bindings = self._plan(list(modules), classes or {})
        self._saved: list[tuple[object, str, object]] = []

    def _stats(self, name: str) -> FnStats:
        return self.stats.setdefault(name, FnStats())

    def snapshot(self) -> dict[str, tuple[int, float, float, int]]:
        """(calls, self_s, total_s, errors) per span name, to diff between passes."""
        return {n: (s.calls, s.self_s, s.total_s, s.errors) for n, s in self.stats.items()}

    def _close(self, st: FnStats, frame: list[float], t0: float) -> float:
        dur = self.clock() - t0
        self._stack.pop()
        own = dur - frame[0]
        st.calls += 1
        st.self_s += own
        st.total_s += dur
        self._acc[0] += own
        self._acc[1] += 1
        if self._stack:
            self._stack[-1][0] += dur
        return dur

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A stand-in for `fn` that records one span per call (or per resume)."""
        st = self._stats(name)
        stack = self._stack
        clock = self.clock
        close = self._close

        if inspect.isgeneratorfunction(fn):
            # the work of a generator happens while it is resumed, so each
            # resume is a span; the call itself only creates the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        except BaseException:
                            st.errors += 1
                            raise
                        finally:
                            close(st, frame, t0)
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                close(st, frame, t0)

        return wrapper

    def request(self, name: str, fn: Callable[[], object]):
        """Run `fn` as the root span of one request and keep its accounting."""
        if self._stack:
            raise RuntimeError("a request root must not be nested in another span")
        acc0, n0 = self._acc[0], self._acc[1]
        st = self._stats(name)
        frame = [0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            return fn()
        except BaseException:
            st.errors += 1
            raise
        finally:
            dur = self._close(st, frame, t0)
            self.roots.append(
                RootSpan(name, dur, self._acc[0] - acc0, self._acc[1] - n0)
            )

    def _plan(self, modules: list[ModuleType], classes: dict[str, type]) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every binding of a traced function."""
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        plan = []
        for layer, cls in classes.items():
            for attr, value in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(value):
                    plan.append((cls, attr, self.wrap(f"{layer}.{attr}", value)))
        for mod in modules:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and id(value) in wrappers:
                    plan.append((mod, attr, wrappers[id(value)]))
        return plan

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, wrapper in self._bindings:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
