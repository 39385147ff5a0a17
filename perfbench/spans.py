"""Timing for the benchmark: a wall/CPU clock and an in-memory span recorder.

:class:`Clock` times the measured calls.  The benchmark traces the program
from the outside: :meth:`Tracer.patch` replaces a function at the name its
caller resolves (a module global such as
``repro.simulation.batch_engine.apply_events``, a class attribute such as
``LaplacianOperator.matvec``, or a registry entry such as
``scenario.GRAPH_FAMILIES["erdos-renyi"]``) with a wrapper that records one
span per call: its name, start, end, parent span and optional counters.
Nothing under ``src/`` is edited, and :meth:`Tracer.restore` puts every
original back, so untraced runs execute the unmodified program.

A layer's self time is its span's duration minus the durations of its
direct child spans; because every span nests inside its parent, the self
times of all spans recorded during a call add up to the durations of its
outermost spans.  Their sum therefore shows that the outermost calls are
spanned, not that every inner layer is.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional


class Clock:
    """Wall and process-CPU seconds elapsed since construction."""

    __slots__ = ("wall", "cpu")

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


class Span:
    """One recorded call: name, start/end (ns), parent index, counters."""

    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: int, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    def as_dict(self, index: int) -> dict[str, Any]:
        return {
            "id": index,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            **({"counts": self.counts} if self.counts else {}),
        }


class Tracer:
    """Records nested spans around patched callables while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, Any, Any, bool]] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(
        self,
        name: str,
        func: Callable[..., Any],
        counts: Optional[Callable[[tuple, dict, Any], dict[str, float]]],
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, 0, stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: Any,
        name: str,
        counts: Optional[Callable[[tuple, dict, Any], dict[str, float]]] = None,
    ) -> None:
        """Record span ``name`` around ``owner.attr`` (or ``owner[attr]``).

        ``owner`` is a module, a class or a dict.  Class attributes are
        looked up in the class's own ``__dict__`` so an inherited method is
        patched where it is defined, and a classmethod keeps its binding.
        ``counts(args, kwargs, result)`` may return per-call counters that
        are summed into the span's layer metrics.
        """
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, counts)
            self._patches.append((owner, attr, original, True))
            return
        if isinstance(owner, type):
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(name, original.__func__, counts))
            else:
                wrapped = self._wrap(name, original, counts)
        else:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counts)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, False))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def mark(self) -> int:
        """The index the next span will get (to slice one flow's spans)."""
        return len(self.spans)

    def layer_totals(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``self_s`` and summed counters.

        Only spans recorded from index ``since`` on are included; their
        parents are always recorded before them, so the slice is closed
        under the child relation.
        """
        spans = self.spans[since:]
        child_ns = [0] * len(spans)
        for span in spans:
            if span.parent is not None and span.parent >= since:
                child_ns[span.parent - since] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for offset, span in enumerate(spans):
            entry = totals[span.name]
            entry["count"] += 1
            entry["self_s"] += (span.end - span.start - child_ns[offset]) / 1e9
            for key, value in span.counts.items():
                entry[key] += value
        return {name: dict(entry) for name, entry in totals.items()}

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index), sort_keys=True) + "\n")
