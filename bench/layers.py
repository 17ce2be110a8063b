"""Spans recorded from outside the program, around calls into its layers.

A traced round installs wrappers on the layers' public entry points
(``Recorder.wrap``) or opens spans around the benchmark's own calls
(``Recorder.span``); an untraced round uses :data:`OFF`, which records
nothing and patches nothing.  Each span keeps its name, start, end and
the span that was open on the same thread when it began, so a layer's
self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import inspect
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list plus the patches that feed it."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes):
        stack = self._stack()
        record = Span(name, perf_counter(), parent=stack[-1] if stack else None,
                      attributes=attributes)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            stack.pop()

    def wrap(self, owner: object, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`restore`.

        ``measure(result)`` may return attributes (such as instruction
        counts) to store on the span.
        """
        original = inspect.getattr_static(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if measure is not None:
                record.attributes.update(measure(result))
            return result

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def attribute_sum(self, name: str, key: str) -> int:
        return sum(span.attributes.get(key, 0) for span in self.named(name))


class _Off:
    """The untraced recorder: no spans, no patches."""

    active = False

    def span(self, name: str, **attributes):
        return nullcontext()

    def wrap(self, owner: object, attr: str, name: str, measure=None) -> None:
        pass

    def restore(self) -> None:
        pass


OFF = _Off()


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
