"""In-memory spans around the program's public entry points.

A span records its name, start, end and parent (the span open when it
started). The simulator is single-threaded and every wrapped call
returns before its caller does, so one stack gives every span its
parent. Spans live in four flat arrays; self time is computed once the
run ends: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop recorded spans in place (the wrappers hold the arrays)."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        del self._stack[1:]

    def intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        key_arg: Optional[int] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call.

        ``key_arg`` appends that positional argument to the span name
        (``Network.broadcast[mb]``); ``after(args)`` runs once the call
        returns, for counters the span alone cannot carry.
        """
        fixed = self.intern(name, layer)
        intern = self.intern
        names, parents, starts, ends = (
            self.name, self.parent, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(
                fixed if key_arg is None
                else intern(f"{name}[{args[key_arg]}]", layer)
            )
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    def patch_method(self, layer: str, cls: type, attr: str, **options) -> None:
        """Wrap ``cls.attr`` where it is defined in the MRO (once)."""
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        original = vars(owner)[attr]
        if getattr(original, "__wrapped__", None) is not None:
            return
        name = f"{owner.__name__}.{attr}"
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original, **options))

    def patch_function(self, layer: str, fn: Callable, **options) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that imported it."""
        traced = self.wrap(layer, fn.__name__, fn, **options)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)

    def patch_attr(self, layer: str, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: ``count``, inclusive ``total_s`` and ``self_s``."""
        count = len(self.name)
        covered = [0.0] * count
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        stats: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index in range(count):
            entry = stats[self.names[self.name[index]]]
            duration = ends[index] - starts[index]
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[index]
        return dict(stats)

    def layer_self_s(self, summary: dict[str, dict]) -> dict[str, float]:
        layer_of = dict(zip(self.names, self.layers))
        totals: dict[str, float] = defaultdict(float)
        for name, entry in summary.items():
            totals[layer_of[name]] += entry["self_s"]
        return dict(totals)

    def count_spans(self, names: set, parent_names: set) -> int:
        """Spans named in ``names`` whose parent is named in ``parent_names``."""
        children = {
            index for index, name in enumerate(self.names) if name in names
        }
        parents = {
            index for index, name in enumerate(self.names)
            if name in parent_names
        }
        return sum(
            1 for index in range(len(self.name))
            if self.name[index] in children
            and self.parent[index] >= 0
            and self.name[self.parent[index]] in parents
        )
