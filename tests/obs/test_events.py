"""Tests for the event bus and the machine's trace emission: monotonic
cycles, determinism, JSON round-trips, and the acceptance check that IPC
recomputed purely from retire events matches ``SimStats.ipc`` exactly on
every paper machine model."""

import pytest

from repro.core.machine import SELECT_TO_EXEC, Machine
from repro.core.presets import baseline, ideal, rb_full, rb_limited
from repro.isa.assembler import assemble
from repro.obs.events import (
    EventBus,
    EventKind,
    TraceEvent,
    ipc_from_events,
    lifecycle_events,
    operand_event,
    stage_events,
)
from repro.obs.sinks import CollectorSink
from repro.workloads.suite import build

TINY = """
    .text
main:
    lda r1, 3(zero)
    lda r2, 5(zero)
    sll r1, #2, r3
    add r3, r2, r5
    sub r5, r3, r6
    halt
"""


def _run_with_bus(config, program):
    sink = CollectorSink()
    bus = EventBus([sink])
    stats = Machine(config).run(program, bus=bus)
    return stats, bus, sink


class TestTraceEvent:
    def test_dict_round_trip(self):
        event = TraceEvent(7, EventKind.BYPASS, 3, "add r1, r2, r3",
                           args={"level": 1, "case": "RB_TO_RB"})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_defaults_omitted_from_dict(self):
        entry = TraceEvent(1, EventKind.FETCH, 0, "x").to_dict()
        assert "dur" not in entry and "args" not in entry


class TestSortOrder:
    def test_mixed_kind_tie_order(self):
        """Same cycle and seq: stage order decides; equal keys keep their
        emission order through the (stable) close sort."""
        kinds = list(EventKind)
        bus = EventBus()
        emitted = [
            TraceEvent(5, EventKind.STALL, 3, args={"cause": "frontend"}),
            TraceEvent(5, EventKind.BYPASS, 3, args={"producer_seq": 2}),
            TraceEvent(5, EventKind.SELECT, 3),
            TraceEvent(5, EventKind.BYPASS, 3, args={"producer_seq": 1}),
            TraceEvent(4, EventKind.RETIRE, 9),
            TraceEvent(5, EventKind.OPERAND, 3, args={"producer_seq": 0}),
            TraceEvent(5, EventKind.FETCH, 2),
            TraceEvent(5, EventKind.WRITEBACK, 3),
        ]
        bus.emit_many(emitted)
        ordered = bus.close()
        assert [(e.cycle, e.seq, e.kind) for e in ordered] == [
            (4, 9, EventKind.RETIRE),
            (5, 2, EventKind.FETCH),
            (5, 3, EventKind.SELECT),
            (5, 3, EventKind.OPERAND),
            (5, 3, EventKind.BYPASS),
            (5, 3, EventKind.BYPASS),
            (5, 3, EventKind.WRITEBACK),
            (5, 3, EventKind.STALL),
        ]
        bypasses = [e.args["producer_seq"] for e in ordered if e.kind is EventKind.BYPASS]
        assert bypasses == [2, 1]
        assert all(
            e.sort_key() == (e.cycle, e.seq, kinds.index(e.kind)) for e in ordered
        )

    def test_rank_follows_declaration_order(self):
        assert [kind.rank for kind in EventKind] == list(range(len(EventKind)))


class TestLifecycleEvents:
    def test_unselected_record_yields_frontend_only(self):
        class Rec:
            seq = 0
            fetch_cycle = 2
            rename_cycle = -1
            select_cycle = None

            class instr:
                text = "nop"

        kinds = [e.kind for e in lifecycle_events(Rec(), SELECT_TO_EXEC)]
        assert kinds == [EventKind.FETCH]

    def test_stage_events_shape(self):
        events = stage_events(
            7, "addq", SELECT_TO_EXEC, fetch=1, rename=8, select=10,
            scheduler=2, cluster=1, lat_rb=1, lat_tc=3, complete=13, retire=15,
        )
        assert [(e.kind, e.cycle, e.dur) for e in events] == [
            (EventKind.FETCH, 1, 1),
            (EventKind.RENAME, 8, 1),
            (EventKind.SELECT, 10, 1),
            (EventKind.REGISTER_READ, 11, SELECT_TO_EXEC - 1),
            (EventKind.EXECUTE, 10 + SELECT_TO_EXEC, 1),
            (EventKind.CONVERT, 11 + SELECT_TO_EXEC, 2),
            (EventKind.WRITEBACK, 14, 1),
            (EventKind.RETIRE, 15, 1),
        ]
        assert events[2].args == {"scheduler": 2, "cluster": 1}
        assert {e.seq for e in events} == {7}

    def test_operand_event_kinds(self):
        bypass = operand_event(9, 4, "x", True, 2, "RB_TO_TC", 3, "TC", True, 8, False)
        served = operand_event(9, 4, "x", False, 5, "TC_TO_TC", 1, "TC", False, 2, True)
        assert bypass.kind is EventKind.BYPASS
        assert bypass.args["cross_cluster"] is True
        assert served.kind is EventKind.OPERAND
        assert "cross_cluster" not in served.args
        assert served.args["producer_load"] is True


class TestMachineEmission:
    @pytest.fixture(scope="class")
    def run(self):
        program = assemble(TINY, "tiny")
        return _run_with_bus(rb_full(4), program)

    def test_events_monotonic_in_cycle(self, run):
        _, bus, _ = run
        cycles = [e.cycle for e in bus.events]
        assert cycles == sorted(cycles)
        assert all(c >= 0 for c in cycles)

    def test_retires_match_instruction_count(self, run):
        stats, bus, _ = run
        retires = [e for e in bus.events if e.kind is EventKind.RETIRE]
        assert len(retires) == stats.instructions

    def test_every_retired_instruction_has_full_lifecycle(self, run):
        stats, bus, _ = run
        by_seq = {}
        for event in bus.events:
            # STALL events attribute cycles (seq -1 on an empty window), not
            # instruction lifecycles; skip them when grouping by instruction.
            if event.kind is EventKind.STALL or event.seq < 0:
                continue
            by_seq.setdefault(event.seq, set()).add(event.kind)
        assert len(by_seq) == stats.instructions
        for kinds in by_seq.values():
            assert {EventKind.FETCH, EventKind.SELECT, EventKind.EXECUTE,
                    EventKind.WRITEBACK, EventKind.RETIRE} <= kinds

    def test_bypass_events_present_with_level_and_case(self, run):
        stats, bus, _ = run
        bypasses = [e for e in bus.events if e.kind is EventKind.BYPASS]
        assert len(bypasses) == stats.bypassed_sources
        for event in bypasses:
            assert event.args["level"] in (1, 2, 3)
            assert event.args["case"] in (
                "TC_TO_TC", "TC_TO_RB", "RB_TO_RB", "RB_TO_TC"
            )
            assert event.args["producer_seq"] < event.seq

    def test_sink_meta(self, run):
        stats, _, sink = run
        assert sink.meta["machine"] == stats.machine
        assert sink.meta["ipc"] == stats.ipc

    def test_no_bus_no_events_attribute_change(self):
        program = assemble(TINY, "tiny")
        stats = Machine(rb_full(4)).run(program)
        assert stats.instructions > 0  # plain runs stay unaffected


class TestDeterminism:
    def test_identical_runs_identical_streams(self):
        program = assemble(TINY, "tiny")
        _, bus_a, _ = _run_with_bus(rb_limited(4), program)
        _, bus_b, _ = _run_with_bus(rb_limited(4), program)
        assert bus_a.events == bus_b.events

    def test_kernel_runs_deterministic(self):
        program = build("li")
        _, bus_a, _ = _run_with_bus(ideal(4), program)
        _, bus_b, _ = _run_with_bus(ideal(4), program)
        assert bus_a.events == bus_b.events


class TestBoundedBuffer:
    def test_capacity_keeps_newest_and_counts_dropped(self):
        bus = EventBus(capacity=10)
        for cycle in range(35):
            bus.emit(TraceEvent(cycle, EventKind.FETCH, cycle, "nop"))
        bus.close()
        assert len(bus.events) == 10
        assert [e.cycle for e in bus.events] == list(range(25, 35))
        assert bus.dropped == 25
        assert bus.meta["dropped_events"] == 25

    def test_unbounded_by_default(self):
        bus = EventBus()
        for cycle in range(1000):
            bus.emit(TraceEvent(cycle, EventKind.FETCH, cycle, "nop"))
        bus.close()
        assert len(bus.events) == 1000
        assert bus.dropped == 0
        assert "dropped_events" not in bus.meta

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)

    def test_bounded_real_run_keeps_tail_of_stream(self):
        program = assemble(TINY, "tiny")
        sink = CollectorSink()
        bus = EventBus([sink], capacity=8)
        stats = Machine(rb_full(4)).run(program, bus=bus)
        assert stats.instructions > 0
        assert len(bus.events) <= 8
        # the newest events survive: the last retire is always present
        assert any(e.kind is EventKind.RETIRE for e in bus.events)


class TestIPCFromRetireEvents:
    """Acceptance: trace-derived IPC equals SimStats.ipc exactly for all
    four machine models on three kernels."""

    @pytest.mark.parametrize("preset", [baseline, rb_limited, rb_full, ideal])
    @pytest.mark.parametrize("kernel", ["ijpeg", "li", "compress"])
    def test_ipc_exact(self, preset, kernel):
        stats, bus, _ = _run_with_bus(preset(4), build(kernel))
        assert ipc_from_events(bus.events) == stats.ipc

    def test_empty_stream(self):
        assert ipc_from_events([]) == 0.0

    def test_retire_free_stream_warns_and_returns_zero(self, caplog):
        events = [TraceEvent(0, EventKind.FETCH, 0, "nop"),
                  TraceEvent(5, EventKind.STALL, -1, args={"cause": "frontend-empty"})]
        with caplog.at_level("WARNING", logger="repro.obs.events"):
            assert ipc_from_events(events) == 0.0
        assert any("no retire events" in rec.message for rec in caplog.records)
