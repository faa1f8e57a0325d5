"""Outside-in call tracing for the benchmark.

A `Tracer` wraps named functions of the `shiftlab` package in every module
namespace that bound them by name, plus class methods and properties, and
records one span (name, start, end, parent) per call. Spans stay in memory
until the caller writes them out. Leaving the `with` block restores every
patched name.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# (name, start, end, index of the parent span or -1)
Span = Tuple[str, float, float, int]
# observer(tracer, args, kwargs, result) updates tracer.counts after a call
Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Patch `targets` for the duration of a `with` block and record spans.

    A target is "module.function" or "module.Class.attribute", relative to
    `package`. Names in `counted` are only counted, not timed, because they
    run too often for a span. `observers` maps a target to a callback that
    reads its arguments and return value.
    """

    def __init__(self, targets: Sequence[str], counted: Sequence[str] = (),
                 observers: Dict[str, Observer] | None = None, package: str = "shiftlab"):
        self.targets = tuple(targets)
        self.counted = tuple(counted)
        self.observers = dict(observers or {})
        self.package = package
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name in self.targets:
                self._patch(name, self._timed(name, self.observers.get(name)))
            for name in self.counted:
                self._patch(name, self._counter(name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, name: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        parts = name.split(".")
        module = importlib.import_module(f"{self.package}.{parts[0]}")
        if len(parts) == 3:
            owner = getattr(module, parts[1])
            original = owner.__dict__[parts[2]]
            if isinstance(original, property):
                replacement = property(make_wrapper(original.fget))
            else:
                replacement = make_wrapper(original)
            self._patched.append((owner, parts[2], original))
            setattr(owner, parts[2], replacement)
            return
        original = getattr(module, parts[1])
        wrapper = make_wrapper(original)
        bound = [(mod, attr) for mod in _package_modules(self.package)
                 for attr, value in vars(mod).items() if value is original]
        for mod, attr in bound:
            self._patched.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name: str) -> Callable[[Callable], Callable]:
        calls = self.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            counted._perfbench_wrapper = True
            return counted
        return make

    def _timed(self, name: str, observe: Observer | None) -> Callable[[Callable], Callable]:
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter
        tracer = self

        def enter() -> Tuple[int, int]:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            return idx, parent

        def make(fn):
            if inspect.isgeneratorfunction(fn):
                # one call, one span per resumption: the body runs while the
                # caller iterates, so only the resumptions carry its time
                def traced_gen(*args, **kwargs):
                    calls[name] += 1
                    inner = fn(*args, **kwargs)
                    try:
                        while True:
                            idx, parent = enter()
                            start = clock()
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            finally:
                                spans[idx] = (name, start, clock(), parent)
                                stack.pop()
                            yield item
                    finally:
                        inner.close()
                traced_gen.__wrapped__ = fn
                traced_gen._perfbench_wrapper = True
                return traced_gen

            def traced(*args, **kwargs):
                calls[name] += 1
                idx, parent = enter()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[idx] = (name, start, clock(), parent)
                    stack.pop()
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
            traced.__wrapped__ = fn
            traced._perfbench_wrapper = True
            return traced
        return make


def self_times(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Inclusive and self seconds per span name, and the top-level total.

    A span's self time is its duration minus the durations of its direct
    children. Calls run on one thread, so children never overlap and their
    durations sum to the part of the parent they cover.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive: Dict[str, float] = defaultdict(float)
    exclusive: Dict[str, float] = defaultdict(float)
    top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        inclusive[name] += end - start
        exclusive[name] += end - start - child[i]
        if parent < 0:
            top += end - start
    return dict(inclusive), dict(exclusive), top


def _package_modules(package: str) -> List[object]:
    prefix = package + "."
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(prefix))]


def still_patched(package: str = "shiftlab") -> List[str]:
    """Names in the package's modules that still hold a tracing wrapper."""
    left = []
    for mod in _package_modules(package):
        key = mod.__name__
        for attr, value in vars(mod).items():
            if getattr(value, "_perfbench_wrapper", False):
                left.append(f"{key}.{attr}")
            if inspect.isclass(value) and value.__module__ == key:
                for cattr, cvalue in vars(value).items():
                    fn = cvalue.fget if isinstance(cvalue, property) else cvalue
                    if getattr(fn, "_perfbench_wrapper", False):
                        left.append(f"{key}.{attr}.{cattr}")
    return left
