"""Spans around calls into relpoly's public functions, recorded from outside.

A :class:`Tracer` replaces each target function, wherever a relpoly module
holds it, with a wrapper that records one span: an id, the name, start and
end (``time.perf_counter``), the id of the enclosing span, and a small info
dict.  Spans stay in memory until :meth:`Tracer.write`.  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (id, name, start, end, parent id or None, info)
Span = tuple[int, str, float, float, "int | None", dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's span belongs to the call the one client
                # thread has open while the pool runs
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info and result is not None else {}
                tracer.spans.append((sid, name, start, end, parent, extra))

        return traced

    def install(self, modules: list, targets: list[tuple[str, Any, str, Callable | None]]) -> None:
        """Wrap ``owner.attr`` for every (name, owner, attr, info) target.

        Every module in ``modules`` that imported the same function object
        under any name gets the wrapper too, so calls through those names
        are traced as well.
        """
        for name, owner, attr, info in targets:
            original = getattr(owner, attr)
            traced = self._wrap(name, original, info)
            self._patch(owner, attr, traced)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children in pool threads may overlap).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for sid, name, start, end, _, _ in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["total"] += end - start
        agg["self"] += end - start - _covered(children.get(sid, []), start, end)
    return dict(out)
