"""An outside-in span recorder for the traced benchmark run.

The program is not changed.  Instead, :func:`install` replaces each layer's
public function at every name callers look it up by (the defining module,
every ``repro`` module that imported it, or the class that owns a method)
with a wrapper that records a span around the call.  Wrappers are only
installed in the traced run, in the process that executes the layer.

A span is ``[id, name, parent, request, start_ns, end_ns, duration_ns]``.
``parent`` is the span that was open on the same thread when this one
started; ``request`` is the id of the root span of that chain, so spans
caused by one request share it.  A generator's span covers only the time
spent inside its ``next()`` calls: its duration is their sum, and spans
opened while it runs are its children.  Self time is a span's duration
minus the durations of its children.

Spans are kept in memory and written out as JSON by :meth:`Recorder.dump`
(registered with :mod:`atexit` by the traced launcher).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

ID, NAME, PARENT, REQUEST, START, END, DURATION = range(7)

Hook = Callable[["Recorder", tuple, dict, Any], None]


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Objects a hook asked to keep for the exit snapshot (e.g. logs).
        self.kept: dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        return [
            span_id,
            name,
            parent[ID] if parent else None,
            parent[REQUEST] if parent else span_id,
            0,
            0,
            0,
        ]

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counters[name] += amount

    def wrap_call(self, name: str | Callable, fn: Callable, hook: Hook | None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(name(args) if callable(name) else name)
            stack = recorder._stack()
            stack.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span[START], span[END], span[DURATION] = start, end, end - start
                recorder.spans.append(span)
            if hook is not None:
                hook(recorder, args, kwargs, result)
            return result

        return traced

    def wrap_generator(
        self,
        name: str,
        fn: Callable,
        on_create: Hook | None,
        on_item: Callable[["Recorder", Any], None] | None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_create is not None:
                on_create(recorder, args, kwargs, None)
            inner = fn(*args, **kwargs)
            span = recorder._open(name)
            started = False
            try:
                while True:
                    stack = recorder._stack()
                    stack.append(span)
                    begin = time.perf_counter_ns()
                    if not started:
                        span[START], started = begin, True
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = time.perf_counter_ns()
                        stack.pop()
                        span[END] = end
                        span[DURATION] += end - begin
                    if on_item is not None:
                        on_item(recorder, item)
                    yield item
            finally:
                inner.close()
                if started:
                    recorder.spans.append(span)

        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        document = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class Target:
    """One layer function to wrap.

    :param owner: dotted module path, optionally ``module:Class``.
    :param attr: the function or method name on the owner.
    :param span: span name, or a function of the call arguments.
    :param generator: the function returns a generator to time per ``next()``.
    """

    def __init__(
        self,
        owner: str,
        attr: str,
        span: str | Callable,
        generator: bool = False,
        hook: Hook | None = None,
        on_item: Callable | None = None,
    ) -> None:
        self.owner, self.attr, self.span = owner, attr, span
        self.generator, self.hook, self.on_item = generator, hook, on_item

    def resolve_owner(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        owner = sys.modules.get(module_name)
        if owner is None:
            owner = __import__(module_name, fromlist=["_"])
        return getattr(owner, class_name) if class_name else owner


Patch = tuple[Any, str, Any]


def install(recorder: Recorder, targets: Iterable[Target]) -> tuple[list[str], list[Patch]]:
    """Wrap every target at each name callers look it up by.

    Returns the targets that could not be found (a renamed layer function),
    so the caller can report them instead of failing the run, and the
    ``(owner, name, original)`` patches :func:`restore` undoes.
    """
    missing: list[str] = []
    patches: list[Patch] = []
    for target in targets:
        try:
            owner = target.resolve_owner()
            original = owner.__dict__[target.attr] if isinstance(owner, type) else getattr(owner, target.attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{target.owner}.{target.attr}")
            continue
        if target.generator:
            wrapped = recorder.wrap_generator(target.span, original, target.hook, target.on_item)
        else:
            wrapped = recorder.wrap_call(target.span, original, target.hook)
        sites = [(owner, target.attr)]
        if not isinstance(owner, type):
            # Modules that did ``from owner import attr`` hold their own name.
            sites += [
                (module, key)
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                for key, value in list(vars(module).items())
                if value is original
            ]
        for site, key in sites:
            patches.append((site, key, original))
            setattr(site, key, wrapped)
    return missing, patches


def restore(patches: list[Patch]) -> None:
    """Undo :func:`install`."""
    for site, key, original in reversed(patches):
        setattr(site, key, original)


# --------------------------------------------------------------------- #
# aggregation (run in the benchmark process over dumped spans)
# --------------------------------------------------------------------- #


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: total and self time in ms.

    A span nested inside another span of the same name (recursion) is left
    out of the total so it is not counted twice; its self time still counts.
    """
    by_id = {span[ID]: span for span in spans}
    child_time: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[DURATION]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for span in spans:
        self_time[span[NAME]] += (span[DURATION] - child_time.get(span[ID], 0)) / 1e6
        parent = by_id.get(span[PARENT])
        nested = False
        while parent is not None:
            if parent[NAME] == span[NAME]:
                nested = True
                break
            parent = by_id.get(parent[PARENT])
        if not nested:
            total[span[NAME]] += span[DURATION] / 1e6
    return dict(total), dict(self_time)
