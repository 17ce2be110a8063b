"""Cycle-stamped pipeline events and the bus that delivers them to sinks.

The machine emits one :class:`TraceEvent` per pipeline stage a dynamic
instruction occupies (fetch, rename, select, register read, execute,
format conversion, writeback, retire) plus one ``bypass_forward`` event
per operand served off the bypass network (carrying the level and the
Fig. 13 case).  Events are buffered by the :class:`EventBus` and
delivered to every attached sink in ``(cycle, seq, stage-order)`` order
when the run closes, so every consumer — the ASCII pipeline viewer, the
JSONL/Chrome exporters, metric recomputation — sees one deterministic,
cycle-monotonic stream.

This module deliberately has no dependency on :mod:`repro.core`: events
are plain data.  :func:`stage_events` and :func:`operand_event` build
them from plain stamps — the SoA engine calls them over its columns —
and :func:`lifecycle_events` duck-types over the object engine's
``DynInstr`` record (the pipeline-shape constant ``SELECT_TO_EXEC`` is
passed in by the caller).
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

logger = logging.getLogger(__name__)


class EventKind(enum.Enum):
    """Pipeline event types, in within-cycle presentation order."""

    FETCH = "fetch"
    RENAME = "rename"
    SELECT = "select"
    REGISTER_READ = "register_read"
    OPERAND = "operand_read"
    BYPASS = "bypass_forward"
    EXECUTE = "execute"
    CONVERT = "convert"
    WRITEBACK = "writeback"
    RETIRE = "retire"
    STALL = "stall"
    #: Service-plane events (repro.serve): requests, batches, retries,
    #: health transitions.  ``cycle`` carries the service's monotonic
    #: tick and ``seq`` the request/batch id, so the same bus, sinks,
    #: and sort order work unchanged for the serving layer.
    SERVICE = "service"
    #: Distributed-tracing spans (repro.obs.trace): one finished span
    #: per event.  ``cycle`` carries microseconds since the tracer's
    #: origin, ``dur`` the span duration in microseconds, ``text`` the
    #: span name, and ``args`` the serialized span (trace_id, span_id,
    #: parent_id, timestamps, attributes).
    SPAN = "span"


# Each member carries its within-cycle rank as a plain attribute: the bus
# sorts every event of a run by it, and a dict keyed by the member would
# pay a Python-level ``Enum.__hash__`` call per event.
for _rank, _kind in enumerate(EventKind):
    _kind.rank = _rank
del _rank, _kind

_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One cycle-stamped pipeline event for one dynamic instruction.

    ``cycle`` is the first cycle the stage occupies and ``dur`` how many
    cycles it lasts (1 for point events).  ``args`` carries kind-specific
    detail (e.g. bypass level and case).
    """

    cycle: int
    kind: EventKind
    seq: int
    text: str = ""
    dur: int = 1
    args: dict | None = None

    def sort_key(self) -> tuple[int, int, int]:
        return (self.cycle, self.seq, self.kind.rank)

    def to_dict(self) -> dict:
        entry: dict = {
            "cycle": self.cycle,
            "kind": self.kind.value,
            "seq": self.seq,
            "text": self.text,
        }
        if self.dur != 1:
            entry["dur"] = self.dur
        if self.args:
            entry["args"] = self.args
        return entry

    @classmethod
    def from_dict(cls, entry: dict) -> "TraceEvent":
        return cls(
            cycle=entry["cycle"],
            kind=_KIND_BY_VALUE[entry["kind"]],
            seq=entry["seq"],
            text=entry.get("text", ""),
            dur=entry.get("dur", 1),
            args=entry.get("args"),
        )


class EventBus:
    """Buffers events during a run and replays them, sorted, to sinks.

    Sorting at close (rather than forcing the machine to emit in cycle
    order) lets the simulator stamp an instruction's whole lifecycle the
    moment it retires while still handing every sink a cycle-monotonic
    stream; it also makes the stream deterministic regardless of
    emission order.

    ``capacity`` bounds the buffer: when set, the bus keeps only the
    newest ``capacity`` events (by cycle order) and counts the rest in
    :attr:`dropped`.  Compaction runs when the buffer reaches twice the
    capacity so emission stays amortised O(1) per event.
    """

    def __init__(self, sinks: Sequence = (), capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("EventBus capacity must be positive")
        self.sinks = list(sinks)
        self.events: list[TraceEvent] = []
        self.meta: dict = {}
        self.capacity = capacity
        self.dropped = 0
        self._closed = False

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        if self.capacity is not None and len(self.events) >= 2 * self.capacity:
            self._compact()

    def emit_many(self, events: Iterable[TraceEvent]) -> None:
        self.events.extend(events)
        if self.capacity is not None and len(self.events) >= 2 * self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Sort and keep the newest ``capacity`` events."""
        self.events.sort(key=TraceEvent.sort_key)
        excess = len(self.events) - self.capacity
        if excess > 0:
            del self.events[:excess]
            self.dropped += excess

    def close(self, meta: dict | None = None) -> list[TraceEvent]:
        """Sort the stream, replay it through every sink, return it."""
        if self._closed:
            return self.events
        self._closed = True
        self.meta = dict(meta or {})
        if self.capacity is not None:
            self._compact()
            if self.dropped:
                self.meta.setdefault("dropped_events", self.dropped)
        self.events.sort(key=TraceEvent.sort_key)
        for sink in self.sinks:
            sink.begin(self.meta)
        for event in self.events:
            for sink in self.sinks:
                sink.event(event)
        for sink in self.sinks:
            sink.finish()
        return self.events


def lifecycle_events(
    rec,
    select_to_exec: int,
    include_frontend: bool = True,
) -> list[TraceEvent]:
    """The full stage timeline of one retired ``DynInstr``-like record.

    See :func:`stage_events`, which takes the same stamps as plain values.
    """
    fetch = rename = None
    if include_frontend:
        fetch, rename = rec.fetch_cycle, rec.rename_cycle
    if rec.select_cycle is None:
        return stage_events(rec.seq, rec.instr.text, select_to_exec, fetch, rename)
    return stage_events(
        rec.seq, rec.instr.text, select_to_exec, fetch, rename,
        rec.select_cycle, rec.scheduler, rec.cluster, rec.lat_rb, rec.lat_tc,
        rec.complete_cycle, getattr(rec, "retire_cycle", None),
    )


def stage_events(
    seq: int,
    text: str,
    select_to_exec: int,
    fetch: int | None,
    rename: int | None,
    select: int | None = None,
    scheduler: int = -1,
    cluster: int = 0,
    lat_rb: int = 0,
    lat_tc: int = 0,
    complete: int | None = None,
    retire: int | None = None,
) -> list[TraceEvent]:
    """The stage timeline of one dynamic instruction from its stamps.

    This is the single source of the pipeline shape shared by both
    engines' bus emission and the pipeline viewer: fetch and rename
    (skipped when ``None`` or negative), then, once selected, select, a
    ``select_to_exec - 1``-cycle register read, execution for the
    redundant-format latency, format conversion for the TC/RB latency
    gap, writeback the cycle after completion, and retirement.
    """
    # Positional TraceEvent arguments and a bound append: this runs once
    # per retired instruction of every traced run, and keyword arguments
    # measured ~20% of a stream build.
    events: list[TraceEvent] = []
    append = events.append
    if fetch is not None:
        append(TraceEvent(fetch, EventKind.FETCH, seq, text))
    if rename is not None and rename >= 0:
        append(TraceEvent(rename, EventKind.RENAME, seq, text))
    if select is None:
        return events
    append(TraceEvent(
        select, EventKind.SELECT, seq, text, 1,
        {"scheduler": scheduler, "cluster": cluster},
    ))
    read_cycles = select_to_exec - 1
    if read_cycles > 0:
        append(TraceEvent(select + 1, EventKind.REGISTER_READ, seq, text, read_cycles))
    exec_start = select + select_to_exec
    exec_cycles = lat_rb if lat_rb > 1 else 1
    append(TraceEvent(exec_start, EventKind.EXECUTE, seq, text, exec_cycles))
    convert_cycles = lat_tc - lat_rb
    if convert_cycles > 0:
        append(TraceEvent(
            exec_start + exec_cycles, EventKind.CONVERT, seq, text, convert_cycles,
        ))
    if complete is not None:
        append(TraceEvent(complete + 1, EventKind.WRITEBACK, seq, text))
    if retire is not None:
        append(TraceEvent(retire, EventKind.RETIRE, seq, text))
    return events


def operand_event(
    cycle: int,
    seq: int,
    text: str,
    bypassed: bool,
    level: int,
    case: str,
    producer_seq: int,
    fmt: str,
    cross_cluster: bool,
    arrival: int,
    producer_load: bool,
) -> TraceEvent:
    """One register source served to an instruction selected at ``cycle``.

    A ``bypass_forward`` event when the bypass network served it, else an
    ``operand_read`` (register file; no cluster detail).  ``level`` is
    1-based (1 == BYP-1) and ``case`` a Fig. 13 ``BypassCase`` name.
    """
    if bypassed:
        return TraceEvent(cycle, EventKind.BYPASS, seq, text, 1, {
            "level": level,
            "case": case,
            "producer_seq": producer_seq,
            "format": fmt,
            "cross_cluster": cross_cluster,
            "arrival": arrival,
            "producer_load": producer_load,
        })
    return TraceEvent(cycle, EventKind.OPERAND, seq, text, 1, {
        "level": level,
        "case": case,
        "producer_seq": producer_seq,
        "format": fmt,
        "arrival": arrival,
        "producer_load": producer_load,
    })


def ipc_from_events(events: Iterable[TraceEvent]) -> float:
    """IPC recomputed purely from the retire events of a trace.

    The machine's final cycle is the one retiring the last instruction
    (the pipeline is empty afterwards, so the run ends that cycle), so
    the cycle count is ``max retire cycle + 1`` and the instruction
    count is simply the number of retire events.  Matches
    :attr:`SimStats.ipc` exactly.
    """
    retires = [e for e in events if e.kind is EventKind.RETIRE]
    if not retires:
        logger.warning(
            "ipc_from_events: no retire events in stream; returning 0.0 "
            "(was the trace truncated or the bus never closed?)"
        )
        return 0.0
    cycles = max(e.cycle for e in retires) + 1
    return len(retires) / cycles
