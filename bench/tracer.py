"""In-memory span tracer that wraps hqec functions from outside the package.

A span is recorded around every call of a wrapped name: its span name, start,
end and the index of the enclosing span.  Spans stay in memory; ``summary``
turns them into per-name call counts, total time and self time, where self
time is a span's duration minus the durations of its direct children.

Targets are dotted paths such as ``hqec.experiments.syndrome_of`` (the name
as the calling module sees it) or ``hqec.noise.ErrorSampler.sample`` (a
method, patched on its class).  A target that no longer resolves is not an
error: its span is reported as absent, with the reason, so a refactor that
removes or renames a function does not crash the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable


def resolve(target: str):
    """Return ``(owner, attr)`` for a dotted target, or raise ``LookupError``."""
    parts = target.split(".")
    owner = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if owner is None:
        raise LookupError(f"no importable module in {target}")
    for name in parts[cut:-1]:
        if not hasattr(owner, name):
            raise LookupError(f"{target} not found")
        owner = getattr(owner, name)
    attr = parts[-1]
    if not hasattr(owner, attr):
        raise LookupError(f"{target} not found")
    return owner, attr


class Tracer:
    """Records nested spans around wrapped callables; ``restore`` undoes every patch."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        # Each span is [name, start, end, parent_index]; parent -1 is a root.
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._present: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def timed(self, name: str, fn: Callable, observe: Callable | None = None,
              within: str | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``observe(result, args, kwargs, span)`` sees each result and its closed
        span.  With ``within``, calls are recorded only while a span of that
        name is open; other calls pass straight through.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if within is not None and not any(spans[i][0] == within for i in stack):
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(result, args, kwargs, spans[index])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count calls only (for very hot, very small calls)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def wrap(self, span: str, targets: tuple[str, ...], observe: Callable | None = None,
             within: str | None = None, count_only: bool = False) -> None:
        """Patch every resolvable target; mark ``span`` absent if none resolves."""
        reasons = []
        for target in targets:
            try:
                owner, attr = resolve(target)
            except LookupError as exc:
                reasons.append(str(exc))
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            if isinstance(raw, (classmethod, staticmethod)):
                inner = self._make(span, raw.__func__, observe, within, count_only)
                replacement = type(raw)(inner)
                original = raw
            else:
                original = getattr(owner, attr)
                replacement = self._make(span, original, observe, within, count_only)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            self._present.add(span)
        if span not in self._present:
            self.absent[span] = "; ".join(reasons)

    def _make(self, span, fn, observe, within, count_only):
        return self.counted(span, fn) if count_only else self.timed(span, fn, observe, within)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: ``calls``, ``total_ns`` and ``self_ns`` over closed spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return out
