"""The out-of-order core simulator.

Pipeline (Table 2: minimum 13 cycles end to end):

* fetch + decode: 6 cycles (includes the 2-cycle pipelined I-cache);
* rename: 2 cycles;
* schedule: 1 cycle (the select cycle);
* register read: 2 cycles;
* execute: >= 1 cycle;
* retire: 1 cycle.

All dependence timing is done in select-cycle space (see
:mod:`repro.backend.bypass`): an instruction selected at cycle ``s``
begins executing at ``s + 3``, so a consumer selected ``L`` cycles after
a latency-L producer catches the result on the first-level bypass.  The
scheduler re-evaluates an instruction's sources each candidate cycle, so
holes left by deleted bypass levels delay it exactly as the paper's
shift-register wakeup logic would.
"""

from __future__ import annotations

from collections import deque

from repro.backend.bypass import AvailabilityTemplate, BypassModel, BypassStyle
from repro.backend.formats import DataFormat
from repro.backend.latency import AdderStyle
from repro.backend.scheduler import Scheduler
from repro.backend.steering import RoundRobinSteering, choose_dependence_target
from repro.core.config import MachineConfig
from repro.core.statistics import OCCUPANCY_STRIDE, BypassCase, BypassLevelUse, SimStats
from repro.core.window import DynInstr, ReorderBuffer
from repro.frontend.fetch import FetchUnit
from repro.isa.instruction import NUM_REGS, ZERO_REG
from repro.isa.opcodes import LatencyClass, Opcode, OperandFormat, ResultFormat
from repro.isa.program import Program
from repro.isa.semantics import ArchState
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.events import (
    EventBus,
    EventKind,
    TraceEvent,
    lifecycle_events,
    operand_event,
)
from repro.obs.explain import StallCause, classify_stall_cycle
from repro.obs.log import get_logger
from repro.obs.timeline import DEFAULT_STRIDE, IntervalSampler

log = get_logger(__name__)

#: One-shot guard for the explicit-SoA-request downgrade warning.
_DOWNGRADE_WARNED = False

#: Select-cycle distance from select to the start of execution: one
#: schedule cycle is the select itself, then the 2-cycle register read.
SELECT_TO_EXEC = 3

#: Bypass levels before the register file serves a value (§5.2).
RF_LEVELS = 3

#: A store's "result" for store-to-load ordering: the dependent load may be
#: selected the cycle after the store (so its address generation follows
#: the store's execution).
_STORE_TEMPLATE = AvailabilityTemplate((), 1)

#: On the staggered machine (Fig. 1 Configuration C), only adder-to-adder
#: edges can use the early low-half forwarding.
_STAGGERED_FORWARD_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.LDA, Opcode.LDAH,
    Opcode.S4ADD, Opcode.S8ADD, Opcode.S4SUB, Opcode.S8SUB,
})


class SimulationError(RuntimeError):
    """The simulation wedged or exceeded its cycle budget."""


#: Sentinel wake cycle meaning "no internally scheduled event" — larger
#: than any reachable cycle, so the progress/budget caps always bound it.
_NEVER = 1 << 62


def _replay_stall_range(
    stats: SimStats,
    bus: EventBus | None,
    head: DynInstr | None,
    frontier: DynInstr | None,
    start: int,
    stop: int,
    dispatch_blocked: bool,
    sampler: IntervalSampler | None = None,
) -> None:
    """Record the per-cycle stall attribution for skipped cycles [start, stop).

    Every input to :func:`~repro.obs.explain.classify_stall_cycle` is
    frozen across a skipped range except the cycle number itself, which
    only matters at two thresholds: the head's completion cycle (rule 4,
    RETIRE_BOUND) and the head's RB-to-TC conversion point (rule 7,
    CONVERSION_LATENCY).  Splitting the range there and classifying once
    per segment reproduces the per-cycle loop's distribution exactly.
    With a bus attached the per-cycle STALL events must be emitted
    anyway, so the range is simply walked cycle by cycle.

    An attached interval ``sampler`` is driven at exactly the cycles the
    per-cycle loop would have driven it: every other sampled input is
    frozen across the range, and each capture due at cycle ``c`` fires
    after the stall attribution for cycles ``<= c`` has been recorded —
    so the replayed timeline rows are bit-identical to a no-skip run's.
    """
    stall_causes = stats.stall_causes
    if bus is not None:
        head_seq = head.seq if head is not None else -1
        for c in range(start, stop):
            cause = classify_stall_cycle(
                head, frontier, c, SELECT_TO_EXEC, dispatch_blocked
            )
            stall_causes.record(cause)
            bus.emit(TraceEvent(
                c, EventKind.STALL, head_seq, args={"cause": cause.value},
            ))
            if sampler is not None and c == sampler.next_capture:
                sampler.capture(c)
        return
    marks = {start, stop}
    if head is not None:
        complete = head.complete_cycle
        if complete is not None and start < complete < stop:
            marks.add(complete)
        select = head.select_cycle
        if select is not None:
            conversion_edge = select + SELECT_TO_EXEC + head.lat_rb
            if start < conversion_edge < stop:
                marks.add(conversion_edge)
    points = sorted(marks)
    for segment_start, segment_stop in zip(points, points[1:]):
        cause = classify_stall_cycle(
            head, frontier, segment_start, SELECT_TO_EXEC, dispatch_blocked
        )
        if sampler is None:
            stall_causes.record(cause, segment_stop - segment_start)
            continue
        # Chunk the segment at capture boundaries so each capture sees
        # the attribution for every cycle up to and including its own.
        position = segment_start
        while position < segment_stop:
            boundary = sampler.next_capture
            if position <= boundary < segment_stop:
                stall_causes.record(cause, boundary + 1 - position)
                sampler.capture(boundary)
                position = boundary + 1
            else:
                stall_causes.record(cause, segment_stop - position)
                position = segment_stop


def _close_bus(bus: EventBus, stats: SimStats) -> None:
    """Close a finished run's bus (sort, replay to sinks) with its meta."""
    bus.close(meta={
        "machine": stats.machine,
        "workload": stats.workload,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "ipc": stats.ipc,
    })


class Machine:
    """One configured machine, able to run programs and report statistics."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        removed = config.removed_levels or None
        self.bypass = BypassModel(
            config.adder_style, config.bypass_style, removed,
            conversion_cycles=config.conversion_cycles,
        )
        self.latency = self.bypass.latency
        self._store_templates = {
            DataFormat.RB: _STORE_TEMPLATE, DataFormat.TC: _STORE_TEMPLATE,
        }
        #: Cycles fast-forwarded (not executed) by the last run() call.
        #: Diagnostic only — deliberately not part of SimStats, so cached
        #: results stay byte-identical whether or not skipping ran.
        self.skipped_cycles = 0
        #: Final architectural state of the last run() call (registers,
        #: memory, PC).  The timing model drives the same functional
        #: interpreter down the correct path, so this must match a pure
        #: functional execution bit for bit — repro.verify audits that.
        self.last_state: ArchState | None = None
        #: SoA-engine caches (repro.core.engine): per-static-Instruction
        #: rename memo keyed by id(instr) — each entry pins the instr
        #: object so the id stays valid — and flattened load templates
        #: keyed by dynamic load latency.  Config-dependent, so they live
        #: on the machine and survive across runs.
        self._soa_memo: dict[int, tuple] = {}
        self._soa_load_flats: dict[int, tuple[int, int, int]] = {}

    # -- public API --------------------------------------------------------------

    def run(
        self,
        program: Program,
        max_cycles: int = 20_000_000,
        progress_window: int = 100_000,
        record_trace: bool = False,
        bus: EventBus | None = None,
        cycle_skip: bool = True,
        timeline: bool = True,
        timeline_stride: int = DEFAULT_STRIDE,
        timeline_sink=None,
        engine: str | None = None,
    ) -> SimStats:
        """Simulate ``program`` to completion and return its statistics.

        With ``record_trace`` the returned stats carry a ``trace``
        attribute: the retired :class:`DynInstr` records in program order,
        including each instruction's select cycle — used by timing tests
        and for pipeline debugging.

        With a ``bus``, every retired instruction's full stage timeline,
        one event per register source served at select (bypass forward
        or register-file read), and the per-cycle stall events are
        emitted as :class:`~repro.obs.events.TraceEvent` records; the bus
        is closed (sorted, replayed through its sinks) before this method
        returns.  Both engines emit the same stream, event for event.

        ``cycle_skip`` enables the event-driven fast-forward: when every
        pipeline stage is provably quiescent until some future cycle
        (DESIGN.md, "Cycle skipping"), the per-cycle bookkeeping for the
        intervening idle cycles is replayed in bulk and the clock jumps
        ahead.  Statistics (cycles, CPI stacks, occupancy series, event
        streams) are bit-identical either way; ``cycle_skip=False`` is
        the escape hatch that forces the plain per-cycle loop.

        With ``timeline`` (the default) an
        :class:`~repro.obs.timeline.IntervalSampler` captures a
        microarchitectural time-series row every ``timeline_stride``
        cycles, attached to the returned stats as a ``timeline``
        attribute (like ``trace``, not part of the serialized SimStats
        schema).  Rows are bit-identical with and without ``cycle_skip``.
        ``timeline_sink`` (a callable taking a
        :class:`~repro.obs.timeline.TimelineRow`) observes each row as it
        is captured — the live-streaming hook.

        ``engine`` selects the cycle-loop implementation: ``"soa"`` (the
        flat structure-of-arrays fast path, the default) or ``"objects"``
        (this method's DynInstr-graph loop, kept as the differential
        reference).  Unset, the ``REPRO_ENGINE`` environment variable
        decides.  Both engines produce bit-identical statistics, CPI
        stacks, timelines, and event streams — ``repro check``'s
        ``differential:engine`` and ``differential:events`` sections
        audit that.  A bus run on the SoA engine rebuilds the event
        stream from its columns after the loop (and never fast-forwards,
        since stall events are per cycle).  Only ``record_trace``, which
        returns ``DynInstr`` records, needs the object engine; when that
        overrides an *explicit* ``engine="soa"`` request the downgrade is
        surfaced rather than silent — a one-shot warning plus a
        ``core.engine.downgraded`` counter on the run's metrics (so
        ``repro serve`` operators see it in serialized stats).
        """
        from repro.core.engine import resolve_engine, run_soa

        downgraded = False
        if resolve_engine(engine) == "soa":
            if not record_trace:
                stats = run_soa(
                    self, program,
                    max_cycles=max_cycles,
                    progress_window=progress_window,
                    cycle_skip=cycle_skip,
                    timeline=timeline,
                    timeline_stride=timeline_stride,
                    timeline_sink=timeline_sink,
                    bus=bus,
                )
                if bus is not None:
                    # Closed out here, once run_soa's columns are freed:
                    # the close sort is a bus run's memory peak.
                    _close_bus(bus, stats)
                return stats
            if engine is not None:
                # The caller explicitly asked for the SoA engine but also
                # asked for DynInstr records, which the SoA loop never
                # materializes.  Honour the feature, not silently.
                downgraded = True
                global _DOWNGRADE_WARNED
                if not _DOWNGRADE_WARNED:
                    _DOWNGRADE_WARNED = True
                    log.warning(
                        "engine='soa' requested but record_trace needs the "
                        "object graph; running the object engine instead "
                        "(counted in core.engine.downgraded; this "
                        "warning is logged once per process)",
                    )
        config = self.config
        stats = SimStats(machine=config.name, workload=program.name)
        if downgraded:
            stats.metrics.counter("core.engine.downgraded").inc()
        trace: list[DynInstr] | None = [] if record_trace else None
        log.debug("running %s on %s", config.name, program.name)

        state = ArchState(program)
        self.last_state = state
        hierarchy = MemoryHierarchy(config.memory)
        fetch = FetchUnit(
            program, state, hierarchy,
            fetch_width=config.fetch_width,
            max_blocks_per_cycle=config.max_blocks_per_cycle,
        )
        schedulers = [
            Scheduler(config.scheduler_capacity, 2, name=f"sched{i}", metrics=stats.metrics)
            for i in range(config.num_schedulers)
        ]
        steering = RoundRobinSteering(config.num_schedulers)
        rob = ReorderBuffer(config.rob_size)
        fetch_queue: deque[DynInstr] = deque()

        last_writer: list[DynInstr | None] = [None] * NUM_REGS
        reg_is_rb = [False] * NUM_REGS
        last_store: dict[int, DynInstr] = {}

        self._fetch = fetch
        self._hierarchy = hierarchy
        self._stats = stats
        self._bus = bus
        occupancy_series = stats.metrics.timeseries(
            "scheduler.occupancy", stride=OCCUPANCY_STRIDE
        )

        sampler: IntervalSampler | None = None
        sampler_next = _NEVER
        if timeline:
            sampler = IntervalSampler(
                stats, rob, fetch_queue, schedulers,
                stride=timeline_stride, on_row=timeline_sink,
            )
            sampler_next = sampler.next_capture

        seq = 0
        cycle = 0
        last_progress_cycle = 0
        cluster_delay = config.cluster_delay
        self.skipped_cycles = 0

        # The readiness callback below is the simulator's hottest code
        # (one call per candidate source per select evaluation).  It is a
        # manual inline of classify_operand_wait() plus
        # AvailabilityTemplate.available() — same logic, but attribute
        # loads and identity tests instead of enum-keyed dict lookups and
        # frozenset hashing.  tests/core/test_machine_invariants.py and
        # the explain-path equivalence tests pin the behavior to the
        # out-of-line versions.
        _TC = DataFormat.TC
        _LOAD_LATENCY = StallCause.LOAD_LATENCY
        _BYPASS_HOLE = StallCause.BYPASS_HOLE
        _CONVERSION = StallCause.CONVERSION_LATENCY
        _ADDER_PIPE = StallCause.ADDER_PIPELINE

        def is_ready(rec: DynInstr, now: int) -> tuple[bool, int]:
            worst = now
            cause: StallCause | None = None
            for producer, fmt in rec.sources:
                select_cycle = producer.select_cycle
                if select_cycle is None:
                    # The producer itself has not issued: inherit its
                    # recorded operand wait (one level of transitive
                    # attribution), else attribute by producer type.
                    inherited = producer.stall_cause
                    if (
                        inherited is _LOAD_LATENCY
                        or inherited is _ADDER_PIPE
                        or inherited is _BYPASS_HOLE
                        or inherited is _CONVERSION
                    ):
                        rec.stall_cause = inherited
                    elif producer.is_load_producer:
                        rec.stall_cause = _LOAD_LATENCY
                    else:
                        rec.stall_cause = _ADDER_PIPE
                    return False, now + 1
                wants_tc = fmt is _TC
                adjust = cluster_delay if producer.cluster != rec.cluster else 0
                offset = now - select_cycle - adjust
                template = producer.tmpl_tc if wants_tc else producer.tmpl_rb
                if offset < template.permanent_from and offset not in template.discrete:
                    next_offset = template.next_available(
                        offset + 1 if offset >= 0 else 1
                    )
                    candidate = select_cycle + adjust + next_offset
                    if candidate > worst:
                        worst = candidate
                        # Classify at the *last blocked* offset: if the
                        # value is computed by then, the extra wait is a
                        # bypass hole, not execution latency.
                        blocked = next_offset - 1
                        computed_at = producer.lat_tc if wants_tc else producer.lat_rb
                        if blocked >= computed_at:
                            cause = _BYPASS_HOLE
                        elif producer.is_load_producer:
                            cause = _LOAD_LATENCY
                        elif (
                            wants_tc
                            and producer.produces_rb
                            and blocked >= producer.lat_rb
                        ):
                            cause = _CONVERSION
                        else:
                            cause = _ADDER_PIPE
            dep = rec.store_dep
            if dep is not None:
                dep_select = dep.select_cycle
                if dep_select is None:
                    rec.stall_cause = _LOAD_LATENCY
                    return False, now + 1
                if now - dep_select < 1:
                    candidate = dep_select + 1
                    if candidate > worst:
                        worst = candidate
                        # Memory-ordering wait: the load is held for the
                        # store, so the cycles are memory-access latency.
                        cause = _LOAD_LATENCY
            if worst > now:
                rec.stall_cause = cause
                return False, worst
            rec.stall_cause = None
            return True, now

        def no_progress_error() -> SimulationError:
            return SimulationError(
                f"{config.name} on {program.name}: no retirement progress for "
                f"{progress_window} cycles at cycle {cycle} "
                f"(ROB {rob.occupancy}, schedulers "
                f"{[s.occupancy for s in schedulers]})"
            )

        def budget_error() -> SimulationError:
            return SimulationError(
                f"{config.name} on {program.name}: exceeded {max_cycles} cycles"
            )

        while True:
            # ---- retire ------------------------------------------------------
            retired = rob.retire_ready(cycle, config.retire_width)
            if retired:
                stats.instructions += len(retired)
                last_progress_cycle = cycle
                for rec in retired:
                    rec.retire_cycle = cycle
                if trace is not None:
                    trace.extend(retired)
                if bus is not None:
                    for rec in retired:
                        bus.emit_many(lifecycle_events(rec, SELECT_TO_EXEC))

            # ---- select + issue ------------------------------------------------
            selected_any = False
            for scheduler in schedulers:
                grants = scheduler.select(cycle, is_ready)
                if grants:
                    selected_any = True
                    for rec in grants:
                        self._issue(rec, cycle)

            # ---- rename / dispatch ----------------------------------------------
            dispatched = 0
            dispatch_blocked = False
            while dispatched < config.rename_width and fetch_queue:
                rec = fetch_queue[0]
                if rec.fetch_cycle + config.frontend_depth > cycle:
                    break
                if not rob.has_room():
                    dispatch_blocked = True
                    break
                if config.steering_policy == "dependence":
                    target = self._dependence_target(
                        rec, last_writer, schedulers, steering.peek()
                    )
                    if target is None:
                        dispatch_blocked = True
                        break
                else:
                    target = steering.peek()
                    if not schedulers[target].has_room():
                        schedulers[target].note_full_stall(cycle, bus, rec.seq)
                        dispatch_blocked = True
                        break
                scheduler = schedulers[target]
                fetch_queue.popleft()
                steering.next_scheduler()
                rec.scheduler = target
                rec.cluster = config.cluster_of_scheduler(target)
                self._rename(rec, cycle, last_writer, reg_is_rb, last_store)
                scheduler.insert(rec, cycle + config.rename_latency)
                rob.push(rec)
                dispatched += 1

            # ---- fetch ---------------------------------------------------------------
            if len(fetch_queue) < config.fetch_queue_capacity:
                for fetched in fetch.fetch_bundle(cycle):
                    rec = DynInstr(
                        seq, fetched.instr, fetched.result,
                        fetched.fetch_cycle, fetched.mispredicted,
                    )
                    seq += 1
                    fetch_queue.append(rec)

            # ---- occupancy sampling ------------------------------------------------------
            occupancy_series.record(cycle, sum(s.occupancy for s in schedulers))

            # ---- stall attribution -------------------------------------------------------
            # Exactly one StallCause per simulated cycle, so the CPI-stack
            # components sum exactly to cycles.  Each scheduler's entries
            # are oldest-first, so the select frontier is the min-seq
            # front entry across schedulers.
            if retired:
                stats.stall_causes.record(StallCause.BASE)
            else:
                head = rob.head
                frontier: DynInstr | None = None
                for scheduler in schedulers:
                    if scheduler.entries:
                        front = scheduler.entries[0].record
                        if frontier is None or front.seq < frontier.seq:
                            frontier = front
                cause = classify_stall_cycle(
                    head, frontier, cycle, SELECT_TO_EXEC, dispatch_blocked
                )
                stats.stall_causes.record(cause)
                if bus is not None:
                    bus.emit(TraceEvent(
                        cycle, EventKind.STALL,
                        head.seq if head is not None else -1,
                        args={"cause": cause.value},
                    ))

            # ---- interval sampling -------------------------------------------------------
            # After stall attribution, so the row at a boundary covers
            # every cycle <= the boundary (the skip replay preserves
            # exactly this ordering).
            if cycle == sampler_next:
                sampler.capture(cycle)
                sampler_next = sampler.next_capture

            # ---- termination --------------------------------------------------------------
            if (
                fetch.halted
                and not fetch_queue
                and not rob
                and all(not s.entries for s in schedulers)
            ):
                break
            cycle += 1
            if cycle - last_progress_cycle > progress_window:
                raise no_progress_error()
            if cycle > max_cycles:
                raise budget_error()
            # Analyzing for a skip only pays off from a backend-idle
            # cycle: a stage that just made progress usually can act
            # again next cycle, and an idle stretch runs the analysis on
            # its first cycle anyway (one per-cycle iteration of
            # lead-in).  A cycle where only fetch progressed still
            # qualifies — the frontend pipeline delay before its bundle
            # becomes dispatch-eligible is a skippable gap.
            if not cycle_skip or retired or selected_any or dispatched:
                continue

            # ---- cycle skipping (event-driven fast-forward) ----------------------
            # Find the earliest future cycle at which any stage could act.
            # Each candidate below is exact or conservative (never later
            # than the true wake cycle); if any stage can act at the
            # current cycle, fall through to the normal per-cycle loop.
            wake = _NEVER
            head = rob.head
            if head is not None:
                head_complete = head.complete_cycle
                if head_complete is not None:
                    # Retirement happens the cycle after completion.
                    wake = head_complete + 1
            for scheduler in schedulers:
                candidate = scheduler.next_wake()
                if candidate is not None and candidate < wake:
                    wake = candidate
            if wake <= cycle:
                continue

            # Dispatch: with retire and select quiescent until ``wake``,
            # ROB and scheduler occupancy are frozen, so the head of the
            # fetch queue either becomes age-eligible at a known cycle or
            # stays blocked the same way every skipped cycle.
            dispatch_wait_blocked = False
            blocked_full_index = -1
            blocked_seq = -1
            if fetch_queue:
                first = fetch_queue[0]
                eligible = first.fetch_cycle + config.frontend_depth
                if eligible > cycle:
                    if eligible < wake:
                        wake = eligible
                elif not rob.has_room():
                    dispatch_wait_blocked = True
                elif config.steering_policy == "dependence":
                    if self._dependence_target(
                        first, last_writer, schedulers, steering.peek()
                    ) is None:
                        dispatch_wait_blocked = True
                    else:
                        continue  # dispatch can act this cycle
                else:
                    target = steering.peek()
                    if schedulers[target].has_room():
                        continue  # dispatch can act this cycle
                    dispatch_wait_blocked = True
                    blocked_full_index = target
                    blocked_seq = first.seq

            queue_open = len(fetch_queue) < config.fetch_queue_capacity
            fetch_counts = False
            if queue_open:
                fetch_wake, fetch_counts = fetch.next_event_cycle(cycle)
                if fetch_wake is not None:
                    if fetch_wake <= cycle:
                        continue  # fetch can act this cycle
                    if fetch_wake < wake:
                        wake = fetch_wake

            if wake <= cycle:
                continue
            # A wedged machine (wake == _NEVER) must still raise at the
            # same cycle the per-cycle loop would: cap the jump at the
            # progress/budget limits and re-check after landing.
            stop = min(wake, last_progress_cycle + progress_window + 1, max_cycles + 1)
            span = stop - cycle

            # Replay the per-cycle bookkeeping the skipped iterations
            # would have performed.  No stage acts in [cycle, stop), so
            # every input below is frozen at its current value.
            if blocked_full_index >= 0:
                blocked_scheduler = schedulers[blocked_full_index]
                if bus is not None:
                    for c in range(cycle, stop):
                        blocked_scheduler.note_full_stall(c, bus, blocked_seq)
                else:
                    blocked_scheduler.full_stall_cycles += span
            if fetch_counts:
                fetch.note_skipped_stalls(span)
            occupancy_series.record_run(
                cycle, stop, sum(s.occupancy for s in schedulers)
            )
            frontier = None
            for scheduler in schedulers:
                if scheduler.entries:
                    front = scheduler.entries[0].record
                    if frontier is None or front.seq < frontier.seq:
                        frontier = front
            _replay_stall_range(
                stats, bus, head, frontier, cycle, stop, dispatch_wait_blocked,
                sampler,
            )
            if sampler is not None:
                sampler_next = sampler.next_capture
            self.skipped_cycles += span
            cycle = stop
            if cycle - last_progress_cycle > progress_window:
                raise no_progress_error()
            if cycle > max_cycles:
                raise budget_error()

        stats.cycles = cycle + 1
        stats.branches = fetch.branches
        stats.mispredictions = fetch.mispredictions
        stats.fetch_stall_cycles = fetch.fetch_stall_cycles
        stats.dcache_hits = hierarchy.dcache.hits
        stats.dcache_misses = hierarchy.dcache.misses
        stats.icache_misses = hierarchy.icache.misses
        stats.l2_misses = hierarchy.l2.misses
        # The exact whole-run accumulators mirror the sampled time-series.
        stats.scheduler_occupancy_samples = occupancy_series.count
        stats.scheduler_occupancy_sum = occupancy_series.total
        if trace is not None:
            stats.trace = trace  # dynamic attribute: not part of the cached schema
        if sampler is not None:
            # Dynamic attribute like trace — kept out of SimStats.to_dict
            # so serialized stats (goldens, differentials) are unchanged;
            # the ResultCache persists it as a sibling entry key.
            stats.timeline = sampler.finalize(cycle)
        if bus is not None:
            _close_bus(bus, stats)
        log.debug(
            "finished %s on %s: %d instructions in %d cycles (IPC %.3f)",
            config.name, program.name, stats.instructions, stats.cycles, stats.ipc,
        )
        return stats

    # -- steering ----------------------------------------------------------------------

    def _dependence_target(
        self,
        rec: DynInstr,
        last_writer: list[DynInstr | None],
        schedulers: list[Scheduler],
        round_robin_hint: int,
    ) -> int | None:
        """Dependence-aware steering (§4.2 future work): prefer the most
        recent producer's scheduler so the dependent's forwarding stays
        local."""
        producers = []
        for operand in rec.instr.sources:
            if operand.reg is None or operand.reg == ZERO_REG:
                continue
            producer = last_writer[operand.reg]
            if producer is not None and producer.scheduler >= 0:
                producers.append(producer)
        producers.sort(key=lambda p: p.seq, reverse=True)
        return choose_dependence_target(
            [p.scheduler for p in producers],
            [s.occupancy for s in schedulers],
            self.config.scheduler_capacity,
            round_robin_hint,
        )

    # -- rename stage ------------------------------------------------------------------

    def _rename(
        self,
        rec: DynInstr,
        cycle: int,
        last_writer: list[DynInstr | None],
        reg_is_rb: list[bool],
        last_store: dict[int, DynInstr],
    ) -> None:
        """Resolve dependences, formats, and availability templates."""
        rec.rename_cycle = cycle
        instr = rec.instr
        spec = instr.spec
        rb_machine = self.config.adder_style is AdderStyle.RB
        staggered = self.config.adder_style is AdderStyle.STAGGERED

        # The MOVE idiom (bis ra, ra, rc) is format-transparent: it moves an
        # RB value as RB with add-class timing, or a TC value as a 1-cycle
        # logical (§3.6).
        is_move = (
            instr.opcode is Opcode.BIS
            and len(instr.sources) == 2
            and instr.sources[0].is_reg
            and instr.sources[1].is_reg
            and instr.sources[0].reg == instr.sources[1].reg
        )
        effective_class = spec.latency_class
        if rb_machine:
            if is_move and instr.sources[0].reg != ZERO_REG:
                produces_rb = reg_is_rb[instr.sources[0].reg]
                if produces_rb:
                    effective_class = LatencyClass.INT_ARITH
            else:
                produces_rb = spec.result is ResultFormat.RB
        elif staggered:
            # Only true adds produce an early-forwardable low half.
            produces_rb = instr.opcode in _STAGGERED_FORWARD_OPS
        else:
            produces_rb = False
        rec.produces_rb = produces_rb

        rec.lat_rb = self.latency.exec_latency(effective_class)
        rec.lat_tc = (
            self.latency.tc_latency(effective_class) if produces_rb else rec.lat_rb
        )
        rec.is_load_producer = spec.is_load
        if spec.is_load:
            rec.set_templates(None)  # set at issue, when the cache latency is known
        elif spec.is_store:
            rec.set_templates(self._store_templates)
        else:
            rec.set_templates(self.bypass.templates(effective_class, produces_rb))

        # Source dependences: pair each register operand with the format the
        # consumer reads it in.  A MOVE consumes its source as RB-capable.
        operand_formats = spec.operand_formats
        sources: list[tuple[DynInstr, DataFormat]] = []
        for position, operand in enumerate(instr.sources):
            if not operand.is_reg or operand.reg == ZERO_REG:
                continue
            producer = last_writer[operand.reg]
            if producer is None:
                continue
            if staggered:
                # Config C: only another adder can consume the early half.
                can_take_early = (
                    instr.opcode in _STAGGERED_FORWARD_OPS
                    and operand_formats[position] is OperandFormat.RB_OK
                )
                fmt = DataFormat.RB if can_take_early else DataFormat.TC
            elif is_move:
                fmt = DataFormat.RB
            else:
                required = operand_formats[position]
                fmt = DataFormat.TC if required is OperandFormat.TC_ONLY else DataFormat.RB
            sources.append((producer, fmt))
        rec.sources = sources

        # Memory ordering: a load after a store to the same 8-byte granule
        # may not be selected until the store has executed.
        result = rec.result
        if spec.is_load and result.mem_address is not None:
            dep = last_store.get(result.mem_address >> 3)
            if dep is not None:
                rec.store_dep = dep
        elif spec.is_store and result.mem_address is not None:
            last_store[result.mem_address >> 3] = rec

        if instr.dest is not None and spec.writes_reg and instr.dest != ZERO_REG:
            last_writer[instr.dest] = rec
            reg_is_rb[instr.dest] = produces_rb

    # -- issue (the select cycle) -----------------------------------------------------------

    def _issue(self, rec: DynInstr, cycle: int) -> None:
        """Grant execution: fix the producer timeline and collect statistics."""
        rec.select_cycle = cycle
        spec = rec.instr.spec

        if spec.is_load:
            address = rec.result.mem_address
            ready = self._hierarchy.data_access(address, cycle + SELECT_TO_EXEC + 1)
            load_latency = ready - (cycle + SELECT_TO_EXEC)
            template = self.bypass.load_template(load_latency)
            rec.set_templates({DataFormat.RB: template, DataFormat.TC: template})
            rec.lat_rb = rec.lat_tc = load_latency
            rec.complete_cycle = cycle + SELECT_TO_EXEC + load_latency
        elif spec.is_store:
            self._hierarchy.data_access(
                rec.result.mem_address, cycle + SELECT_TO_EXEC + 1, is_write=True
            )
            rec.lat_rb = rec.lat_tc = 1
            rec.complete_cycle = cycle + SELECT_TO_EXEC + 1
        elif spec.is_branch:
            resolve = cycle + SELECT_TO_EXEC + self.latency.exec_latency(
                LatencyClass.BRANCH
            )
            rec.complete_cycle = resolve
            if rec.mispredicted:
                self._fetch.resolve_branch(resolve)
        else:
            rec.complete_cycle = cycle + SELECT_TO_EXEC + rec.lat_tc

        self._record_bypass_stats(rec, cycle)

    # -- statistics --------------------------------------------------------------------------

    def _record_bypass_stats(self, rec: DynInstr, cycle: int) -> None:
        """Fig. 13 bypass cases and §5.2 bypass-level usage."""
        stats = self._stats
        bus = self._bus
        level_histogram = stats.metrics.histogram("bypass.source_level")
        cluster_delay = self.config.cluster_delay
        any_bypassed = False
        best_level: int | None = None
        last_arrival = -1
        last_case: BypassCase | None = None

        for producer, fmt in rec.sources:
            adjust = cluster_delay if producer.cluster != rec.cluster else 0
            offset = cycle - producer.select_cycle - adjust
            # Which format was actually consumed: RB only if the producer
            # made an RB value and its TC form was not yet available.
            consumed_rb = (
                producer.produces_rb
                and fmt is DataFormat.RB
                and offset < producer.lat_tc
            )
            exec_latency = producer.lat_rb if consumed_rb else producer.lat_tc
            level = offset - exec_latency  # 0: BYP-1, 1-2: other levels, >=3: RF
            bypassed = level < RF_LEVELS
            producer_rb = producer.produces_rb
            consumer_rb = fmt is DataFormat.RB
            if producer_rb and consumer_rb:
                case = BypassCase.RB_TO_RB
            elif producer_rb:
                case = BypassCase.RB_TO_TC
            elif consumer_rb:
                case = BypassCase.TC_TO_RB
            else:
                case = BypassCase.TC_TO_TC
            arrival = producer.select_cycle + adjust + producer.templates[fmt].first_offset
            if bypassed:
                any_bypassed = True
                stats.bypassed_sources += 1
                level_histogram.record(level + 1)  # 1 == BYP-1
                if adjust:
                    stats.cross_cluster_bypasses += 1
                if best_level is None or level < best_level:
                    best_level = level
            if bus is not None:
                # Register-file-served sources are emitted too: the
                # critical-path analyzer needs those edges (Fig. 13 counts
                # RF deliveries).
                bus.emit(operand_event(
                    cycle, rec.seq, rec.instr.text, bypassed, level + 1,
                    case.name, producer.seq, fmt.name, bool(adjust), arrival,
                    producer.instr.spec.is_load,
                ))
            if arrival > last_arrival:
                last_arrival = arrival
                last_case = case if bypassed else None

        if any_bypassed:
            stats.instructions_with_bypass += 1
            if last_case is not None:
                stats.bypass_cases.record(last_case)
        if best_level is None:
            stats.bypass_levels.record(BypassLevelUse.NONE)
        elif best_level == 0:
            stats.bypass_levels.record(BypassLevelUse.FIRST_LEVEL)
        else:
            stats.bypass_levels.record(BypassLevelUse.OTHER_LEVEL)


def simulate(config: MachineConfig, program: Program, **kwargs) -> SimStats:
    """Convenience: build a machine and run one program."""
    return Machine(config).run(program, **kwargs)


def run_batch(
    configs: list[MachineConfig],
    workload: Program | str,
    **kwargs,
) -> list[SimStats]:
    """Simulate one workload on many configs in one batched process.

    ``workload`` is a :class:`Program` or a suite workload name; every
    config is advanced over the same decoded program by
    :func:`repro.core.engine.run_soa_batch`, sharing the fetch probe,
    rename plans, and steering columns across configs (non-batchable
    configs transparently fall back to solo runs).  Returns one
    bit-identical-to-solo :class:`SimStats` per config, in order.
    ``kwargs`` are forwarded to ``run_soa_batch`` (``cycle_skip``,
    ``timeline``, ``timeline_sinks``, ...).
    """
    from repro.core.engine import run_soa_batch
    from repro.workloads.suite import build

    program = build(workload) if isinstance(workload, str) else workload
    machines = [Machine(config) for config in configs]
    return run_soa_batch(machines, program, **kwargs)
