"""Structure-of-arrays cycle engine: the fast path behind ``Machine.run``.

The object engine (:mod:`repro.core.machine`) walks per-instruction
:class:`~repro.core.window.DynInstr` graphs every cycle; its profile is
dominated by re-evaluating wakeup readiness for instructions whose
producers have not even issued yet (~70 evaluations per instruction on
Ideal-8w/ijpeg).  This module re-represents the whole in-flight window
as flat parallel columns — one stdlib list per field, indexed by the
instruction's fetch sequence number — and replaces the per-cycle
object-graph walk with three structural ideas:

* **Append-only columns, ranges for structures.**  A slot is never
  reused (consumers may consult retired producers' columns), so the
  reorder buffer is just the integer range ``[rob_head, rob_tail)`` and
  the fetch queue is ``[fq_head, seq_count)``; dispatch and retire are
  integer bookkeeping.  Availability templates are flattened to
  ``(bitmask, permanent_from, first_offset)`` integers (see
  :meth:`~repro.backend.bypass.AvailabilityTemplate.flatten`), so the
  hole test and next-available search are two bit operations.

* **Inherit mode instead of poll-every-cycle.**  The object engine's
  readiness callback returns ``(False, now + 1)`` for an instruction
  blocked on an unissued producer, so the scheduler re-evaluates it
  every cycle purely to refresh one inherited stall cause.  Here such an
  entry enters *inherit mode*: it records which producer it waits on,
  sleeps forever (``next_try = NEVER``), and is woken by the producer's
  issue.  Its inherited stall cause is kept bit-identical with the
  object engine's per-cycle reassignment by cheap in-sweep updates,
  driven by change marks (below).

* **Merged sweeps with dirty-waiter marks.**  Each scheduler's per-cycle
  scan ("sweep") only runs when it can matter: some entry may be due
  (``finite_min <= cycle``), or a stall cause one of its inherit entries
  mirrors changed (``dirty_cur``).  Any write that changes an entry's
  stall cause marks exactly the entries waiting on it, routed by walk
  position to reproduce the object engine's Gauss-Seidel evaluation
  order: a waiter positioned *after* the writer (same scheduler, later
  slot, or a later scheduler) lands in the current cycle's dirty list
  and sees the new value this cycle; one positioned before lands in
  ``dirty_nxt`` and sees it next cycle.  Sweeps refresh only the marked
  waiters — every re-evaluation the object engine would perform on the
  others is provably a no-op and is skipped.

The result is bit-identical ``SimStats``, CPI stacks, and timeline rows
(``verify.differential.diff_engines`` and the golden corpus audit this),
at roughly an order of magnitude fewer readiness evaluations.

Engine selection: ``Machine.run(engine="soa"|"objects")``, defaulting to
the ``REPRO_ENGINE`` environment variable and then to ``"soa"``.  An
attached event bus stays on this engine: the loop records the stamps its
columns lack and :func:`_emit_events` rebuilds the object engine's event
stream after the run (``verify.differential.diff_events`` audits it
event for event).  Only ``record_trace=True`` uses the object engine,
since the columns never materialize ``DynInstr`` records to trace.
"""

from __future__ import annotations

import gc
import os
from bisect import bisect_left, insort
from contextlib import contextmanager

from repro.backend.latency import AdderStyle
from repro.backend.steering import choose_dependence_target
from repro.core.statistics import OCCUPANCY_STRIDE, BypassCase, BypassLevelUse
from repro.frontend.fetch import FetchUnit
from repro.isa.instruction import NUM_REGS, ZERO_REG
from repro.isa.opcodes import LatencyClass, Opcode, OperandFormat, ResultFormat
from repro.isa.semantics import ArchState
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.events import EventKind, TraceEvent, operand_event, stage_events
from repro.obs.explain import StallCause
from repro.obs.log import get_logger
from repro.obs.timeline import DEFAULT_STRIDE, IntervalSampler

log = get_logger(__name__)

#: Engine names accepted by ``Machine.run(engine=...)`` / ``REPRO_ENGINE``.
ENGINES = ("soa", "objects")

#: Environment variable consulted when ``engine`` is not passed explicitly.
ENGINE_ENV = "REPRO_ENGINE"

#: Default engine when neither the argument nor the environment chooses.
DEFAULT_ENGINE = "soa"

#: Sentinel "sleep forever" next-try for inherit-mode entries; larger than
#: any reachable cycle (the machine's budget caps are far below it).
_NEVER = 1 << 62

#: Instruction kinds, flattened from the opcode spec once at rename.
_K_SIMPLE, _K_LOAD, _K_STORE, _K_BRANCH = 0, 1, 2, 3

#: Constant-tuple sources for bulk column extends at fetch (sliced to the
#: bundle length; 256 comfortably exceeds any configured fetch width).
_ZEROS = (0,) * 256
_MINUS_ONES = (-1,) * 256
_FALSES = (False,) * 256
_NONES = (None,) * 256
_EMPTIES = ((),) * 256


def resolve_engine(explicit: str | None = None) -> str:
    """The engine to use: explicit argument, else ``REPRO_ENGINE``, else SoA."""
    if explicit is not None:
        value = explicit
    else:
        value = os.environ.get(ENGINE_ENV, "").strip().lower() or DEFAULT_ENGINE
    if value not in ENGINES:
        raise ValueError(
            f"unknown engine {value!r}: expected one of {', '.join(ENGINES)}"
        )
    return value


# ---------------------------------------------------------------------------
# Boundary views: duck-typed stand-ins for the ReorderBuffer / fetch deque /
# Scheduler objects the IntervalSampler reads at capture boundaries.
# ---------------------------------------------------------------------------

class _RobView:
    """Occupancy-only view of the integer-range reorder buffer."""

    __slots__ = ("occupancy",)

    def __init__(self) -> None:
        self.occupancy = 0


class _QueueView:
    """Length-only view of the integer-range fetch queue."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __len__(self) -> int:
        return self.count


class _SchedView:
    """Occupancy + contention view of one column-backed scheduler."""

    __slots__ = ("occupancy", "contended_cycles")

    def __init__(self) -> None:
        self.occupancy = 0
        self.contended_cycles = 0


# ---------------------------------------------------------------------------
# Static rename memo: everything about an instruction that does not depend
# on dynamic state, computed once per static Instruction per Machine.
# ---------------------------------------------------------------------------

def _flatten(template) -> tuple[int, int, int]:
    return template.flatten()


def _static_variant(machine, instr, spec, produces_rb, effective_class, is_move):
    """One (produces_rb, effective_class) flavor of an instruction's rename."""
    from repro.core.machine import _STAGGERED_FORWARD_OPS, _STORE_TEMPLATE

    staggered = machine.config.adder_style is AdderStyle.STAGGERED
    lat_rb = machine.latency.exec_latency(effective_class)
    lat_tc = (
        machine.latency.tc_latency(effective_class) if produces_rb else lat_rb
    )
    if spec.is_load:
        # Placeholder: a load's templates depend on its dynamic cache
        # latency and are installed at issue.
        rbm = rbp = rbf = tcm = tcp = tcf = 0
    elif spec.is_store:
        rbm, rbp, rbf = _STORE_TEMPLATE.flatten()
        tcm, tcp, tcf = rbm, rbp, rbf
    else:
        templates = machine.bypass.templates(effective_class, produces_rb)
        from repro.backend.formats import DataFormat

        rbm, rbp, rbf = templates[DataFormat.RB].flatten()
        tcm, tcp, tcf = templates[DataFormat.TC].flatten()

    operand_formats = spec.operand_formats
    src_pairs = []
    for position, operand in enumerate(instr.sources):
        if not operand.is_reg or operand.reg == ZERO_REG:
            continue
        if staggered:
            wants_tc = not (
                instr.opcode in _STAGGERED_FORWARD_OPS
                and operand_formats[position] is OperandFormat.RB_OK
            )
        elif is_move:
            wants_tc = False
        else:
            wants_tc = operand_formats[position] is OperandFormat.TC_ONLY
        src_pairs.append((operand.reg, wants_tc))

    dest = (
        instr.dest
        if instr.dest is not None and spec.writes_reg and instr.dest != ZERO_REG
        else -1
    )
    return (
        produces_rb, lat_rb, lat_tc,
        rbm, rbp, rbf, tcm, tcp, tcf,
        tuple(src_pairs), dest,
    )


def _static_entry(machine, instr):
    """The full per-static-instruction memo record.

    ``(instr, kind, steer_regs, move_reg, variants)`` — ``instr`` is held
    to pin its ``id()`` (the memo key) for the machine's lifetime.  When
    ``move_reg >= 0`` the instruction is an RB-machine MOVE whose result
    format depends on the source register's dynamic RB-ness: ``variants``
    is then a ``(tc_variant, rb_variant)`` pair selected at rename.
    """
    from repro.core.machine import _STAGGERED_FORWARD_OPS

    spec = instr.spec
    config = machine.config
    rb_machine = config.adder_style is AdderStyle.RB
    staggered = config.adder_style is AdderStyle.STAGGERED

    if spec.is_load:
        kind = _K_LOAD
    elif spec.is_store:
        kind = _K_STORE
    elif spec.is_branch:
        kind = _K_BRANCH
    else:
        kind = _K_SIMPLE

    steer_regs = tuple(
        operand.reg for operand in instr.sources
        if operand.reg is not None and operand.reg != ZERO_REG
    )

    is_move = (
        instr.opcode is Opcode.BIS
        and len(instr.sources) == 2
        and instr.sources[0].is_reg
        and instr.sources[1].is_reg
        and instr.sources[0].reg == instr.sources[1].reg
    )

    move_reg = -1
    if rb_machine:
        if is_move and instr.sources[0].reg != ZERO_REG:
            move_reg = instr.sources[0].reg
            variants = (
                _static_variant(
                    machine, instr, spec, False, spec.latency_class, is_move
                ),
                _static_variant(
                    machine, instr, spec, True, LatencyClass.INT_ARITH, is_move
                ),
            )
        else:
            produces_rb = spec.result is ResultFormat.RB
            variants = _static_variant(
                machine, instr, spec, produces_rb, spec.latency_class, is_move
            )
    elif staggered:
        produces_rb = instr.opcode in _STAGGERED_FORWARD_OPS
        variants = _static_variant(
            machine, instr, spec, produces_rb, spec.latency_class, is_move
        )
    else:
        variants = _static_variant(
            machine, instr, spec, False, spec.latency_class, is_move
        )
    return (instr, kind, steer_regs, move_reg, variants)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def run_soa(
    machine,
    program,
    max_cycles: int = 20_000_000,
    progress_window: int = 100_000,
    cycle_skip: bool = True,
    timeline: bool = True,
    timeline_stride: int = DEFAULT_STRIDE,
    timeline_sink=None,
    bus=None,
):
    """Simulate ``program`` on ``machine`` with the SoA engine.

    Mirrors the observable behavior of the object engine's per-cycle loop
    exactly — same statistics, CPI stacks, timeline rows, event streams,
    error messages — without materializing any per-instruction objects.

    With a ``bus`` the loop also records the few stamps its columns lack
    (rename and retire cycles, issue order, per-cycle stall causes and
    window-full stalls), and :func:`_emit_events` rebuilds the object
    engine's :class:`~repro.obs.events.TraceEvent` stream from them after
    the run.  Stall events are per cycle, so a bus run never
    fast-forwards (``cycle_skip`` changes no statistic either way).  The
    bus is left open: :meth:`Machine.run` closes it once this frame and
    its columns are gone, since the close sort is a bus run's memory peak.
    """
    from repro.core.machine import SELECT_TO_EXEC, SimulationError
    from repro.core.statistics import SimStats

    config = machine.config
    stats = SimStats(machine=config.name, workload=program.name)
    log.debug("running %s on %s (soa)", config.name, program.name)

    # Event recording: off (and free) unless a bus is attached.  Rename
    # and retire happen in seq order, so those stamps are plain appends.
    record = bus is not None
    if record:
        cycle_skip = False
    ren_col: list[int] = []     # rename (dispatch) cycle
    ret_col: list[int] = []     # retire cycle
    issue_log: list[int] = []   # seqs in issue order (scheduler, then age)
    full_log: list[tuple] = []  # (cycle, blocked seq, scheduler index)
    stall_log: list[tuple] = [] # (cycle, ROB-head seq or -1, StallCause)

    state = ArchState(program)
    machine.last_state = state
    hierarchy = MemoryHierarchy(config.memory)
    fetch = FetchUnit(
        program, state, hierarchy,
        fetch_width=config.fetch_width,
        max_blocks_per_cycle=config.max_blocks_per_cycle,
    )

    ns = config.num_schedulers
    metrics = stats.metrics
    sel_counters = []
    full_counters = []
    cont_counters = []
    for i in range(ns):
        # Same names, creation order, and zero-touch as Scheduler.__init__.
        selected = metrics.counter(f"scheduler.sched{i}.selected")
        full = metrics.counter(f"scheduler.sched{i}.full_stall_cycles")
        contended = metrics.counter(f"scheduler.sched{i}.contended_cycles")
        selected.value = 0
        full.value = 0
        contended.value = 0
        sel_counters.append(selected)
        full_counters.append(full)
        cont_counters.append(contended)

    # Round-robin steering (groups of two) inlined as two counters.
    steer_cur = 0
    steer_ing = 0
    occupancy_series = metrics.timeseries(
        "scheduler.occupancy", stride=OCCUPANCY_STRIDE
    )

    # -- flat parallel columns, indexed by fetch sequence number -----------
    instr_col: list = []        # static Instruction
    fetchc_col: list[int] = []  # fetch cycle
    misp_col: list[bool] = []   # mispredicted branch?
    mem_col: list = []          # memory address (or None)
    kind_col: list[int] = []    # _K_* (filled at rename)
    sched_col: list[int] = []   # scheduler index (-1 before dispatch)
    clus_col: list[int] = []    # cluster of the scheduler
    sel_col: list[int] = []     # select cycle (-1 == not issued)
    comp_col: list[int] = []    # completion cycle (-1 == unknown)
    prb_col: list[bool] = []    # produces a redundant-binary result
    lrb_col: list[int] = []     # RB (execution) latency
    ltc_col: list[int] = []     # TC (converted) latency
    isload_col: list[bool] = [] # spec.is_load, flattened
    trbm_col: list[int] = []    # RB-consumer template: discrete bitmask
    trbp_col: list[int] = []    #   permanent_from
    trbf_col: list[int] = []    #   first_offset
    ttcm_col: list[int] = []    # TC-consumer template: discrete bitmask
    ttcp_col: list[int] = []    #   permanent_from
    ttcf_col: list[int] = []    #   first_offset
    srcs_col: list = []         # ((producer_seq, wants_tc), ...)
    sdep_col: list[int] = []    # store-ordering dependence seq (-1 == none)
    cause_col: list = []        # last recorded StallCause (or None)
    wait_col: list[int] = []    # inherit mode: producer seq waited on (-1)
    wstore_col: list[bool] = [] # inherit wait is the fixed store-dep kind
    ntry_col: list[int] = []    # scheduler next-try cycle
    haswait_col: list[bool] = []  # cons[] holds waiters for this seq

    #: waiters per producer seq: consumers in inherit mode on that seq.
    cons: dict[int, list[int]] = {}

    # -- per-scheduler state -----------------------------------------------
    # Each scheduler's entries are split by mode into two seq-sorted lists:
    # ``act`` holds sleeping/due entries (finite next-try), ``wtr`` holds
    # inherit-mode waiters (next-try pinned at _NEVER).  Sweeps merge the
    # due entries with the *marked* waiters by position; unmarked waiters
    # are never visited at all.
    act: list[list[int]] = [[] for _ in range(ns)]
    wtr: list[list[int]] = [[] for _ in range(ns)]
    # Lower bound on min(next_try) over *finite* (non-inherit) entries.
    finite_min = [0] * ns
    # Dirty waiters: seqs whose mirrored stall cause may need a refresh.
    # ``dirty_cur[s]`` is consumed by scheduler s's sweep this cycle;
    # ``dirty_nxt[s]`` rotates into it at the next cycle boundary.
    dirty_cur: list[list[int]] = [[] for _ in range(ns)]
    dirty_nxt: list[list[int]] = [[] for _ in range(ns)]
    any_dirty_nxt = False
    # Walk position of the sweep currently running — (scheduler index,
    # entry seq) — read by _mark_waiters to route a fresh mark.
    cur_s = -1
    cur_p = -1

    rob_head = 0
    rob_tail = 0
    fq_head = 0
    seq_count = 0
    occ_total = 0

    rob_size = config.rob_size
    sched_capacity = config.scheduler_capacity
    select_width = 2
    rename_width = config.rename_width
    retire_width = config.retire_width
    frontend_depth = config.frontend_depth
    rename_latency = config.rename_latency
    fetch_queue_capacity = config.fetch_queue_capacity
    cluster_delay = config.cluster_delay
    cluster_of = [config.cluster_of_scheduler(i) for i in range(ns)]
    dependence_steering = config.steering_policy == "dependence"
    branch_latency = machine.latency.exec_latency(LatencyClass.BRANCH)

    last_writer = [-1] * NUM_REGS
    reg_is_rb = [False] * NUM_REGS
    last_store: dict[int, int] = {}

    if config.fetch_width <= len(_ZEROS):
        zeros_src, m1_src = _ZEROS, _MINUS_ONES
        false_src, none_src, empty_src = _FALSES, _NONES, _EMPTIES
    else:
        width = config.fetch_width
        zeros_src, m1_src = (0,) * width, (-1,) * width
        false_src, none_src, empty_src = (False,) * width, (None,) * width, ((),) * width

    memo = machine._soa_memo
    load_flats = machine._soa_load_flats
    build_entry = _static_entry

    _LOAD = StallCause.LOAD_LATENCY
    _ADDER = StallCause.ADDER_PIPELINE
    _BASE = StallCause.BASE
    _FRONTEND = StallCause.FRONTEND_EMPTY
    _RETIRE = StallCause.RETIRE_BOUND
    _WINDOW = StallCause.WINDOW_FULL
    _HOLE = StallCause.BYPASS_HOLE
    _CONV = StallCause.CONVERSION_LATENCY
    _RB_RB = BypassCase.RB_TO_RB
    _RB_TC = BypassCase.RB_TO_TC
    _TC_RB = BypassCase.TC_TO_RB
    _TC_TC = BypassCase.TC_TO_TC
    _LVL_NONE = BypassLevelUse.NONE
    _LVL_FIRST = BypassLevelUse.FIRST_LEVEL
    _LVL_OTHER = BypassLevelUse.OTHER_LEVEL

    stall_record = stats.stall_causes.record
    # Stall-cause runs accumulate in first-occurrence-ordered parallel
    # lists (Enum.__hash__ is Python-level — Counter updates are not
    # cheap), flushed before any reader.  The skip replay records
    # directly: it interleaves records with sampler captures, and the
    # buffer is always empty when it runs.
    stall_keys: list = []
    stall_vals: list[int] = []
    # TimeSeries.record inlined for the per-cycle occupancy point: the
    # count/total sums accumulate in locals (flushed before any reader —
    # the skip replay's record_run and the end-of-run stats), and only
    # sample-boundary cycles touch the series itself.
    occ_samples = occupancy_series.samples
    occ_stride = occupancy_series.stride
    occ_max = occupancy_series.max_samples
    occ_next = 0  # cycle 0 is a sample point
    occ_cnt = 0
    occ_tot = 0
    level_histogram = None  # created at first issue, like the object path

    # Insertion-ordered buffers for the per-issue bypass statistics; see
    # the note in _issue.  Indices: cases 0..3 == RB_TO_RB, RB_TO_TC,
    # TC_TO_RB, TC_TO_TC; levels 0..2 == NONE, FIRST_LEVEL, OTHER_LEVEL.
    hist_buf: dict[int, int] = {}
    cases_buf: dict[int, int] = {}
    levels_buf: dict[int, int] = {}
    hist_get = hist_buf.get
    cases_get = cases_buf.get
    levels_get = levels_buf.get
    case_keys = (_RB_RB, _RB_TC, _TC_RB, _TC_TC)
    level_keys = (_LVL_NONE, _LVL_FIRST, _LVL_OTHER)
    # Scalar per-issue counters, accumulated locally and flushed with the
    # buffers (the sampler reads ``stats.bypassed_sources`` at captures).
    bypassed_n = 0
    cross_n = 0
    withbyp_n = 0

    def _flush_bypass() -> None:
        nonlocal bypassed_n, cross_n, withbyp_n
        if stall_keys:
            for k, v in zip(stall_keys, stall_vals):
                stall_record(k, v)
            del stall_keys[:]
            del stall_vals[:]
        if bypassed_n:
            stats.bypassed_sources += bypassed_n
            bypassed_n = 0
        if cross_n:
            stats.cross_cluster_bypasses += cross_n
            cross_n = 0
        if withbyp_n:
            stats.instructions_with_bypass += withbyp_n
            withbyp_n = 0
        if hist_buf:
            record = level_histogram.record
            for value, count in hist_buf.items():
                record(value, count)
            hist_buf.clear()
        if cases_buf:
            record = stats.bypass_cases.record
            for index, count in cases_buf.items():
                record(case_keys[index], count)
            cases_buf.clear()
        if levels_buf:
            record = stats.bypass_levels.record
            for index, count in levels_buf.items():
                record(level_keys[index], count)
            levels_buf.clear()

    # -- sampler views -----------------------------------------------------
    sampler: IntervalSampler | None = None
    sampler_next = _NEVER
    rob_view = _RobView()
    fq_view = _QueueView()
    sched_views = [_SchedView() for _ in range(ns)]
    if timeline:
        sampler = IntervalSampler(
            stats, rob_view, fq_view, sched_views,
            stride=timeline_stride, on_row=timeline_sink,
        )
        sampler_next = sampler.next_capture

    def _sync_views() -> None:
        rob_view.occupancy = rob_tail - rob_head
        fq_view.count = seq_count - fq_head
        for i in range(ns):
            view = sched_views[i]
            view.occupancy = len(act[i]) + len(wtr[i])
            view.contended_cycles = cont_counters[i].value

    # While fetch is stalled on an unresolved mispredicted branch its
    # fetch_bundle/fetch_into calls return empty without side effects
    # (no stall counting on that path) — skip the call entirely until
    # the branch issues and resolve_branch restarts it.
    fetch_misp_stalled = False

    cycle = 0
    last_progress_cycle = 0
    machine.skipped_cycles = 0
    skipped_cycles = 0
    pending_cause = None  # run-length batch of per-cycle stall records
    pending_count = 0

    # The hot closures bind their stable free variables (columns, lookup
    # tables, constants) as defaults: LOAD_FAST instead of LOAD_DEREF on
    # every access.  Mutated/rebound names (cur_s, cur_p, counters) stay
    # true closure variables.
    def _mark_waiters(
        e: int,
        cons=cons, wait_col=wait_col, wstore_col=wstore_col,
        sched_col=sched_col, dirty_cur=dirty_cur, dirty_nxt=dirty_nxt,
        insort=insort,
    ) -> None:
        """Entry ``e``'s stall cause changed: queue its waiters for a
        mirrored-cause refresh.  A consumer's seq is always greater than
        its producer's, so relative to the marking walk position a waiter
        is either later in the same sweep (insort into the live dirty
        list — refreshed this cycle), in a later scheduler (appended for
        its sweep this cycle), or in an earlier scheduler whose sweep
        already ran (refreshed next cycle) — exactly the object engine's
        one-level-per-cycle Gauss-Seidel cause propagation."""
        nonlocal any_dirty_nxt
        for f in cons[e]:
            if wait_col[f] == e and not wstore_col[f]:
                sf = sched_col[f]
                if sf > cur_s:
                    dirty_cur[sf].append(f)
                elif sf == cur_s:
                    insort(dirty_cur[sf], f)
                else:
                    dirty_nxt[sf].append(f)
                    any_dirty_nxt = True

    def _eval(
        e: int, now: int,
        srcs_col=srcs_col, sel_col=sel_col, cause_col=cause_col,
        isload_col=isload_col, haswait_col=haswait_col, wait_col=wait_col,
        wstore_col=wstore_col, ntry_col=ntry_col, cons=cons,
        clus_col=clus_col, ttcp_col=ttcp_col, ttcm_col=ttcm_col,
        trbp_col=trbp_col, trbm_col=trbm_col, ltc_col=ltc_col,
        lrb_col=lrb_col, prb_col=prb_col, sdep_col=sdep_col,
        cluster_delay=cluster_delay, _mark_waiters=_mark_waiters,
        _LOAD=_LOAD, _ADDER=_ADDER, _HOLE=_HOLE, _CONV=_CONV,
        _NEVER=_NEVER,
    ) -> int:
        """The readiness evaluation (object engine's ``is_ready``).

        Returns ``now`` when ready, a future cycle to sleep until when
        blocked with a known candidate, or ``-1`` when ``e`` entered
        inherit mode (side effects already applied).
        """
        worst = now
        cause = None
        cluster = clus_col[e]
        for pseq, wants_tc in srcs_col[e]:
            psel = sel_col[pseq]
            if psel < 0:
                # Unissued producer: inherit its operand-wait cause (one
                # level of transitive attribution), else by producer type.
                # (_set_cause + _enter_wait inlined — this is the hot
                # enter-inherit path.)
                inherited = cause_col[pseq]
                if inherited is None:
                    inherited = _LOAD if isload_col[pseq] else _ADDER
                if cause_col[e] is not inherited:
                    cause_col[e] = inherited
                    if haswait_col[e]:
                        _mark_waiters(e)
                wait_col[e] = pseq
                wstore_col[e] = False
                ntry_col[e] = _NEVER
                lst = cons.get(pseq)
                if lst is None:
                    cons[pseq] = [e]
                    haswait_col[pseq] = True
                else:
                    lst.append(e)
                return -1
            adjust = cluster_delay if clus_col[pseq] != cluster else 0
            offset = now - psel - adjust
            if wants_tc:
                permanent = ttcp_col[pseq]
                mask = ttcm_col[pseq]
            else:
                permanent = trbp_col[pseq]
                mask = trbm_col[pseq]
            if offset < permanent and not (offset >= 0 and (mask >> offset) & 1):
                start = offset + 1 if offset >= 0 else 1
                if start >= permanent:
                    next_offset = start
                else:
                    rest = mask >> start
                    if rest:
                        next_offset = start + ((rest & -rest).bit_length() - 1)
                    else:
                        next_offset = permanent
                candidate = psel + adjust + next_offset
                if candidate > worst:
                    worst = candidate
                    blocked = next_offset - 1
                    computed_at = ltc_col[pseq] if wants_tc else lrb_col[pseq]
                    if blocked >= computed_at:
                        cause = _HOLE
                    elif isload_col[pseq]:
                        cause = _LOAD
                    elif wants_tc and prb_col[pseq] and blocked >= lrb_col[pseq]:
                        cause = _CONV
                    else:
                        cause = _ADDER
        dep = sdep_col[e]
        if dep >= 0:
            dep_select = sel_col[dep]
            if dep_select < 0:
                if cause_col[e] is not _LOAD:
                    cause_col[e] = _LOAD
                    if haswait_col[e]:
                        _mark_waiters(e)
                wait_col[e] = dep
                wstore_col[e] = True
                ntry_col[e] = _NEVER
                lst = cons.get(dep)
                if lst is None:
                    cons[dep] = [e]
                    haswait_col[dep] = True
                else:
                    lst.append(e)
                return -1
            if now - dep_select < 1:
                candidate = dep_select + 1
                if candidate > worst:
                    worst = candidate
                    cause = _LOAD
        if worst > now:
            if cause_col[e] is not cause:
                cause_col[e] = cause
                if haswait_col[e]:
                    _mark_waiters(e)
            return worst
        if cause_col[e] is not None:
            cause_col[e] = None
            if haswait_col[e]:
                _mark_waiters(e)
        return now

    def _issue(
        e: int, now: int, sched_index: int,
        sel_col=sel_col, kind_col=kind_col, comp_col=comp_col,
        ltc_col=ltc_col, lrb_col=lrb_col, mem_col=mem_col,
        misp_col=misp_col, srcs_col=srcs_col, clus_col=clus_col,
        prb_col=prb_col, haswait_col=haswait_col, wait_col=wait_col,
        sched_col=sched_col, ntry_col=ntry_col, cons=cons,
        trbm_col=trbm_col, trbp_col=trbp_col, trbf_col=trbf_col,
        ttcm_col=ttcm_col, ttcp_col=ttcp_col, ttcf_col=ttcf_col,
        wtr=wtr, act=act, finite_min=finite_min, hierarchy=hierarchy,
        load_flats=load_flats, fetch=fetch, hist_buf=hist_buf,
        hist_get=hist_get, cases_buf=cases_buf, cases_get=cases_get,
        levels_buf=levels_buf, levels_get=levels_get,
        bisect_left=bisect_left, insort=insort,
        cluster_delay=cluster_delay, branch_latency=branch_latency,
        SELECT_TO_EXEC=SELECT_TO_EXEC, _NEVER=_NEVER,
    ) -> None:
        """Grant execution: fix the producer timeline, wake waiters,
        and collect the bypass statistics — the object engine's
        ``_issue`` + ``_record_bypass_stats`` merged."""
        nonlocal level_histogram, fetch_misp_stalled
        sel_col[e] = now
        kind = kind_col[e]
        if kind == _K_SIMPLE:
            comp_col[e] = now + SELECT_TO_EXEC + ltc_col[e]
        elif kind == _K_LOAD:
            ready = hierarchy.data_access(mem_col[e], now + SELECT_TO_EXEC + 1)
            load_latency = ready - (now + SELECT_TO_EXEC)
            flat = load_flats.get(load_latency)
            if flat is None:
                flat = machine.bypass.load_template(load_latency).flatten()
                load_flats[load_latency] = flat
            mask, permanent, first = flat
            trbm_col[e] = ttcm_col[e] = mask
            trbp_col[e] = ttcp_col[e] = permanent
            trbf_col[e] = ttcf_col[e] = first
            lrb_col[e] = ltc_col[e] = load_latency
            comp_col[e] = now + SELECT_TO_EXEC + load_latency
        elif kind == _K_STORE:
            hierarchy.data_access(
                mem_col[e], now + SELECT_TO_EXEC + 1, is_write=True
            )
            lrb_col[e] = ltc_col[e] = 1
            comp_col[e] = now + SELECT_TO_EXEC + 1
        else:  # _K_BRANCH
            resolve = now + SELECT_TO_EXEC + branch_latency
            comp_col[e] = resolve
            if misp_col[e]:
                fetch.resolve_branch(resolve)
                fetch_misp_stalled = False

        # Wake inherit-mode consumers: those in a later scheduler are due
        # this very cycle (their sweep has not run yet), earlier ones next.
        if haswait_col[e]:
            haswait_col[e] = False
            for f in cons.pop(e):
                if wait_col[f] != e:
                    continue
                wait_col[f] = -1
                sf = sched_col[f]
                wtrs = wtr[sf]
                del wtrs[bisect_left(wtrs, f)]
                insort(act[sf], f)
                due = now if sf > sched_index else now + 1
                ntry_col[f] = due
                if due < finite_min[sf]:
                    finite_min[sf] = due

        # -- bypass statistics (Fig. 13 cases, §5.2 level usage) ----------
        # Counts go into insertion-ordered local buffers keyed by small
        # ints — flushed to the enum-keyed Distributions/Histogram in
        # first-occurrence order (so serialized key order matches the
        # object engine's first-record order) before every sampler
        # capture and at run end.  The histogram object itself is still
        # created at the first issue, matching the object engine's
        # get-or-create in _record_bypass_stats.
        nonlocal bypassed_n, cross_n, withbyp_n
        if level_histogram is None:
            level_histogram = metrics.histogram("bypass.source_level")
        srcs = srcs_col[e]
        if not srcs:
            levels_buf[0] = levels_get(0, 0) + 1
            return
        any_bypassed = False
        best_level = _NEVER
        last_arrival = -1
        last_case = -1
        cluster = clus_col[e]
        for pseq, wants_tc in srcs:
            adjust = cluster_delay if clus_col[pseq] != cluster else 0
            psel = sel_col[pseq]
            offset = now - psel - adjust
            producer_rb = prb_col[pseq]
            if producer_rb and not wants_tc and offset < ltc_col[pseq]:
                exec_latency = lrb_col[pseq]
            else:
                exec_latency = ltc_col[pseq]
            level = offset - exec_latency
            bypassed = level < 3  # RF_LEVELS
            arrival = psel + adjust + (
                ttcf_col[pseq] if wants_tc else trbf_col[pseq]
            )
            if bypassed:
                any_bypassed = True
                bypassed_n += 1
                value = level + 1  # 1 == BYP-1
                hist_buf[value] = hist_get(value, 0) + 1
                if adjust:
                    cross_n += 1
                if level < best_level:
                    best_level = level
            if arrival > last_arrival:
                last_arrival = arrival
                if bypassed:
                    if producer_rb:
                        last_case = 1 if wants_tc else 0
                    else:
                        last_case = 3 if wants_tc else 2
                else:
                    last_case = -1
        if any_bypassed:
            withbyp_n += 1
            if last_case >= 0:
                cases_buf[last_case] = cases_get(last_case, 0) + 1
            use = 1 if best_level == 0 else 2
        else:
            use = 0
        levels_buf[use] = levels_get(use, 0) + 1

    def _memo_entry(instr):
        entry = memo.get(id(instr))
        if entry is None:
            entry = build_entry(machine, instr)
            memo[id(instr)] = entry
        return entry

    def _dependence_target(e: int) -> int | None:
        producers = []
        for reg in _memo_entry(instr_col[e])[2]:
            pseq = last_writer[reg]
            if pseq >= 0 and sched_col[pseq] >= 0:
                producers.append(pseq)
        producers.sort(reverse=True)
        return choose_dependence_target(
            [sched_col[p] for p in producers],
            [len(act[i]) + len(wtr[i]) for i in range(ns)],
            sched_capacity,
            steer_cur,
        )

    def _classify(
        hseq: int, fseq: int, at: int, blocked: bool,
        cause_col=cause_col, comp_col=comp_col, sel_col=sel_col,
        isload_col=isload_col, prb_col=prb_col, ltc_col=ltc_col,
        lrb_col=lrb_col, SELECT_TO_EXEC=SELECT_TO_EXEC,
        _FRONTEND=_FRONTEND, _RETIRE=_RETIRE, _WINDOW=_WINDOW,
        _LOAD=_LOAD, _CONV=_CONV, _ADDER=_ADDER,
    ):
        """Port of :func:`repro.obs.explain.classify_stall_cycle` over
        columns (rules 2-7; rule 1 — retirement — is handled by callers)."""
        if hseq < 0:
            return _FRONTEND
        if fseq >= 0:
            frontier_cause = cause_col[fseq]
            if frontier_cause is not None:
                return frontier_cause
        head_complete = comp_col[hseq]
        if 0 <= head_complete <= at:
            return _RETIRE
        if blocked:
            return _WINDOW
        if fseq >= 0:
            return _FRONTEND
        head_select = sel_col[hseq]
        if head_select < 0:
            return _FRONTEND
        if isload_col[hseq]:
            return _LOAD
        if (
            prb_col[hseq]
            and ltc_col[hseq] > lrb_col[hseq]
            and at >= head_select + SELECT_TO_EXEC + lrb_col[hseq]
        ):
            return _CONV
        return _ADDER

    # Monotone select-frontier pointer: every seq below fq_head has been
    # dispatched, and an entry leaves its scheduler exactly when it issues
    # (sel_col set), so the frontier — the oldest entry still in any
    # scheduler — is the smallest dispatched seq with no select cycle yet.
    fr_ptr = 0

    def _frontier_seq() -> int:
        nonlocal fr_ptr
        p = fr_ptr
        fq = fq_head
        while p < fq and sel_col[p] >= 0:
            p += 1
        fr_ptr = p
        return p if p < fq else -1

    def _replay_stall_range(
        hseq: int, fseq: int, start: int, stop: int, blocked: bool
    ) -> None:
        """Closed-form replay of [start, stop) stall attribution + sampler
        captures — the column port of machine._replay_stall_range."""
        marks = {start, stop}
        if hseq >= 0:
            complete = comp_col[hseq]
            if complete >= 0 and start < complete < stop:
                marks.add(complete)
            select = sel_col[hseq]
            if select >= 0:
                conversion_edge = select + SELECT_TO_EXEC + lrb_col[hseq]
                if start < conversion_edge < stop:
                    marks.add(conversion_edge)
        points = sorted(marks)
        for segment_start, segment_stop in zip(points, points[1:]):
            cause = _classify(hseq, fseq, segment_start, blocked)
            if sampler is None:
                stall_record(cause, segment_stop - segment_start)
                continue
            position = segment_start
            while position < segment_stop:
                boundary = sampler.next_capture
                if position <= boundary < segment_stop:
                    stall_record(cause, boundary + 1 - position)
                    sampler.capture(boundary)
                    position = boundary + 1
                else:
                    stall_record(cause, segment_stop - position)
                    position = segment_stop

    def no_progress_error() -> "SimulationError":
        return SimulationError(
            f"{config.name} on {program.name}: no retirement progress for "
            f"{progress_window} cycles at cycle {cycle} "
            f"(ROB {rob_tail - rob_head}, schedulers "
            f"{[len(act[i]) + len(wtr[i]) for i in range(ns)]})"
        )

    def budget_error() -> "SimulationError":
        return SimulationError(
            f"{config.name} on {program.name}: exceeded {max_cycles} cycles"
        )

    # ---------------------------------------------------------------------
    # The cycle loop (stage order mirrors the object engine exactly).
    # ---------------------------------------------------------------------
    while True:
        # ---- retire ------------------------------------------------------
        retired = 0
        while retired < retire_width and rob_head < rob_tail:
            complete = comp_col[rob_head]
            if complete < 0 or complete >= cycle:
                break
            rob_head += 1
            retired += 1
        if retired:
            stats.instructions += retired
            last_progress_cycle = cycle
            if record:
                ret_col.extend((cycle,) * retired)

        # ---- select + issue (merged sweep per scheduler) -----------------
        selected_any = False
        for s in range(ns):
            acts = act[s]
            wtrs = wtr[s]
            pend = dirty_cur[s]
            if not acts and not wtrs:
                if pend:
                    del pend[:]  # stale marks: every waiter is gone
                continue
            if finite_min[s] > cycle and not pend:
                continue
            if pend:
                pend.sort()  # cross-scheduler appends arrive unsorted
            cur_s = s
            cur_p = -1
            grants = None
            grant_indices = None
            wait_seqs = None
            wait_indices = None
            newmin = _NEVER
            exhausted = False
            na = len(acts)
            ai = 0
            pi = 0
            while True:
                # len(pend) re-read each step: in-sweep marks insort into
                # the unconsumed tail.
                if pi < len(pend) and (ai >= na or pend[pi] < acts[ai]):
                    e = pend[pi]
                    pi += 1
                    cur_p = e
                    # Marked waiter: inline _quick_update.  A stale mark
                    # (the entry was woken after marking) fails the wait
                    # check and falls out; a duplicate refresh is a no-op.
                    producer = wait_col[e]
                    if producer >= 0 and not wstore_col[e]:
                        inherited = cause_col[producer]
                        if inherited is None:
                            inherited = _LOAD if isload_col[producer] else _ADDER
                        if cause_col[e] is not inherited:
                            cause_col[e] = inherited
                            if haswait_col[e]:
                                _mark_waiters(e)
                    continue
                if ai >= na:
                    break
                e = acts[ai]
                index = ai
                ai += 1
                if exhausted:
                    # Select bandwidth exhausted: probe mode, exactly like
                    # the object scheduler — update sleepy losers, count
                    # the cycle contended at the first ready one.
                    if ntry_col[e] > cycle:
                        continue
                    cur_p = e
                    verdict = _eval(e, cycle)
                    if verdict == cycle:
                        cont_counters[s].value += 1
                        break
                    if verdict >= 0:
                        ntry_col[e] = verdict
                    elif wait_seqs is None:
                        wait_seqs = [e]
                        wait_indices = [index]
                    else:
                        wait_seqs.append(e)
                        wait_indices.append(index)
                    continue
                verdict = ntry_col[e]
                if verdict > cycle:
                    if verdict < newmin:
                        newmin = verdict
                    continue
                cur_p = e
                verdict = _eval(e, cycle)
                if verdict == cycle:
                    if grants is None:
                        grants = [e]
                        grant_indices = [index]
                    else:
                        grants.append(e)
                        grant_indices.append(index)
                        if len(grants) == select_width:
                            exhausted = True
                elif verdict >= 0:
                    ntry_col[e] = verdict
                    if verdict < newmin:
                        newmin = verdict
                elif wait_seqs is None:
                    wait_seqs = [e]
                    wait_indices = [index]
                else:
                    wait_seqs.append(e)
                    wait_indices.append(index)
            if pi < len(pend):
                # Contended break mid-walk: the unvisited marks refresh
                # next cycle (the second half of the old two-cycle mark
                # window — those waiters' object twins re-evaluate then).
                dirty_nxt[s].extend(pend[pi:])
                any_dirty_nxt = True
            del pend[:]
            if wait_seqs is not None:
                # Entries that entered inherit mode mid-sweep migrate to
                # the waiter list (before grants issue, so a same-cycle
                # producer grant can wake them right back).
                if grant_indices is None:
                    removals = wait_indices
                else:
                    removals = sorted(grant_indices + wait_indices)
                for index in reversed(removals):
                    del acts[index]
                for e in wait_seqs:
                    insort(wtrs, e)
            elif grants is not None:
                for index in reversed(grant_indices):
                    del acts[index]
            if grants is not None:
                occ_total -= len(grants)
                sel_counters[s].value += len(grants)
                selected_any = True
                for e in grants:
                    _issue(e, cycle, s)
                if record:
                    issue_log.extend(grants)
            elif acts or wtrs:
                # Fruitless full sweep: every finite entry was visited, so
                # ``newmin`` is the exact minimum over finite next-tries
                # (inherit entries sit at _NEVER and fell out) — tighten
                # the wake bound.
                finite_min[s] = newmin

        # ---- rename / dispatch ------------------------------------------
        dispatched = 0
        dispatch_blocked = False
        while dispatched < rename_width and fq_head < seq_count:
            e = fq_head
            if fetchc_col[e] + frontend_depth > cycle:
                break
            if rob_tail - rob_head >= rob_size:
                dispatch_blocked = True
                break
            if dependence_steering:
                target = _dependence_target(e)
                if target is None:
                    dispatch_blocked = True
                    break
            else:
                target = steer_cur
                if len(act[target]) + len(wtr[target]) >= sched_capacity:
                    full_counters[target].value += 1
                    if record:
                        full_log.append((cycle, e, target))
                    dispatch_blocked = True
                    break
            fq_head += 1
            if steer_ing:
                steer_ing = 0
                steer_cur += 1
                if steer_cur == ns:
                    steer_cur = 0
            else:
                steer_ing = 1
            sched_col[e] = target
            clus_col[e] = cluster_of[target]
            # Rename inlined (hot: once per instruction): resolve
            # dependences, formats, and flattened bypass templates.
            instr = instr_col[e]
            entry = memo.get(id(instr))
            if entry is None:
                entry = build_entry(machine, instr)
                memo[id(instr)] = entry
            _, kind, _, move_reg, variants = entry
            if move_reg >= 0:
                variant = variants[1] if reg_is_rb[move_reg] else variants[0]
            else:
                variant = variants
            (
                produces_rb, lat_rb, lat_tc,
                rbm, rbp, rbf, tcm, tcp, tcf,
                src_pairs, dest,
            ) = variant
            kind_col[e] = kind
            prb_col[e] = produces_rb
            lrb_col[e] = lat_rb
            ltc_col[e] = lat_tc
            isload_col[e] = kind == _K_LOAD
            trbm_col[e] = rbm
            trbp_col[e] = rbp
            trbf_col[e] = rbf
            ttcm_col[e] = tcm
            ttcp_col[e] = tcp
            ttcf_col[e] = tcf
            if src_pairs:
                sources = []
                for reg, wants_tc in src_pairs:
                    producer = last_writer[reg]
                    if producer >= 0:
                        sources.append((producer, wants_tc))
                srcs_col[e] = sources
            address = mem_col[e]
            if kind == _K_LOAD:
                if address is not None:
                    sdep_col[e] = last_store.get(address >> 3, -1)
            elif kind == _K_STORE and address is not None:
                last_store[address >> 3] = e
            if dest >= 0:
                last_writer[dest] = e
                reg_is_rb[dest] = produces_rb
            earliest = cycle + rename_latency
            acts = act[target]
            if (not acts and not wtr[target]) or earliest < finite_min[target]:
                finite_min[target] = earliest
            ntry_col[e] = earliest
            acts.append(e)
            occ_total += 1
            rob_tail += 1
            dispatched += 1
            if record:
                ren_col.append(cycle)

        # ---- fetch -------------------------------------------------------
        if not fetch_misp_stalled and seq_count - fq_head < fetch_queue_capacity:
            n, misp_last = fetch.fetch_into(cycle, instr_col, mem_col)
            if misp_last:
                fetch_misp_stalled = True
            if n:
                # Default-valued columns grow by constant-tuple slices: one
                # C-level extend per column per bundle instead of one
                # append per column per instruction.
                zeros = zeros_src[:n]
                minus_ones = m1_src[:n]
                falses = false_src[:n]
                fetchc_col.extend((cycle,) * n)
                misp_col.extend(falses)
                if misp_last:
                    misp_col[-1] = True
                kind_col.extend(zeros)
                sched_col.extend(minus_ones)
                clus_col.extend(zeros)
                sel_col.extend(minus_ones)
                comp_col.extend(minus_ones)
                prb_col.extend(falses)
                lrb_col.extend(zeros)
                ltc_col.extend(zeros)
                isload_col.extend(falses)
                trbm_col.extend(zeros)
                trbp_col.extend(zeros)
                trbf_col.extend(zeros)
                ttcm_col.extend(zeros)
                ttcp_col.extend(zeros)
                ttcf_col.extend(zeros)
                srcs_col.extend(empty_src[:n])
                sdep_col.extend(minus_ones)
                cause_col.extend(none_src[:n])
                wait_col.extend(minus_ones)
                wstore_col.extend(falses)
                ntry_col.extend(zeros)
                haswait_col.extend(falses)
                seq_count += n

        # ---- occupancy sampling ------------------------------------------
        occ_cnt += 1
        occ_tot += occ_total
        if cycle == occ_next:
            occ_samples.append(occ_total)
            if len(occ_samples) > occ_max:
                occ_samples = occupancy_series.samples = occ_samples[::2]
                occ_stride = occupancy_series.stride = occ_stride * 2
            occ_next = cycle - cycle % occ_stride + occ_stride

        # ---- stall attribution -------------------------------------------
        # Consecutive same-cause cycles are batched into one Distribution
        # record; the pending run is flushed before anything reads the
        # stall counts (sampler captures, the skip replay, run end).
        if retired:
            cause = _BASE
        else:
            # _frontier_seq inlined (hot: every non-retiring cycle).
            p = fr_ptr
            while p < fq_head and sel_col[p] >= 0:
                p += 1
            fr_ptr = p
            hseq = rob_head if rob_head < rob_tail else -1
            cause = _classify(
                hseq, p if p < fq_head else -1, cycle, dispatch_blocked
            )
            if record:
                stall_log.append((cycle, hseq, cause))
        if cause is pending_cause:
            pending_count += 1
        else:
            if pending_count:
                # Buffered accumulate (enum identity scan over ~6 keys).
                try:
                    ki = stall_keys.index(pending_cause)
                except ValueError:
                    stall_keys.append(pending_cause)
                    stall_vals.append(pending_count)
                else:
                    stall_vals[ki] += pending_count
            pending_cause = cause
            pending_count = 1

        # ---- interval sampling -------------------------------------------
        if cycle == sampler_next:
            try:
                ki = stall_keys.index(pending_cause)
            except ValueError:
                stall_keys.append(pending_cause)
                stall_vals.append(pending_count)
            else:
                stall_vals[ki] += pending_count
            pending_cause = None
            pending_count = 0
            _flush_bypass()
            _sync_views()
            sampler.capture(cycle)
            sampler_next = sampler.next_capture

        # ---- termination -------------------------------------------------
        if (
            fetch.halted
            and fq_head == seq_count
            and rob_head == rob_tail
            and occ_total == 0
        ):
            if pending_count:
                try:
                    ki = stall_keys.index(pending_cause)
                except ValueError:
                    stall_keys.append(pending_cause)
                    stall_vals.append(pending_count)
                else:
                    stall_vals[ki] += pending_count
                pending_count = 0
            break
        cycle += 1
        if any_dirty_nxt:
            # Rotate: marks made behind a sweep become visible now.
            any_dirty_nxt = False
            for dn, dc in zip(dirty_nxt, dirty_cur):
                if dn:
                    dc.extend(dn)
                    del dn[:]
        if cycle - last_progress_cycle > progress_window:
            raise no_progress_error()
        if cycle > max_cycles:
            raise budget_error()
        if not cycle_skip or retired or selected_any or dispatched:
            continue

        # ---- cycle skipping (event-driven fast-forward) ------------------
        wake = _NEVER
        if rob_head < rob_tail:
            head_complete = comp_col[rob_head]
            if head_complete >= 0:
                wake = head_complete + 1
        for s in range(ns):
            if wtr[s]:
                # An inherit entry mirrors a stall cause the object engine
                # refreshes every cycle; its presence pins the scheduler's
                # wake to "now", exactly like the object entries' rolling
                # next_try = cycle + 1.
                wake = cycle
                break
            if act[s] and finite_min[s] < wake:
                wake = finite_min[s]
        if wake <= cycle:
            continue

        dispatch_wait_blocked = False
        blocked_full_index = -1
        if fq_head < seq_count:
            eligible = fetchc_col[fq_head] + frontend_depth
            if eligible > cycle:
                if eligible < wake:
                    wake = eligible
            elif rob_tail - rob_head >= rob_size:
                dispatch_wait_blocked = True
            elif dependence_steering:
                if _dependence_target(fq_head) is None:
                    dispatch_wait_blocked = True
                else:
                    continue  # dispatch can act this cycle
            else:
                target = steer_cur
                if len(act[target]) + len(wtr[target]) < sched_capacity:
                    continue  # dispatch can act this cycle
                dispatch_wait_blocked = True
                blocked_full_index = target

        fetch_counts = False
        if seq_count - fq_head < fetch_queue_capacity:
            fetch_wake, fetch_counts = fetch.next_event_cycle(cycle)
            if fetch_wake is not None:
                if fetch_wake <= cycle:
                    continue  # fetch can act this cycle
                if fetch_wake < wake:
                    wake = fetch_wake

        if wake <= cycle:
            continue
        stop = min(wake, last_progress_cycle + progress_window + 1, max_cycles + 1)
        span = stop - cycle

        if blocked_full_index >= 0:
            full_counters[blocked_full_index].value += span
        if fetch_counts:
            fetch.note_skipped_stalls(span)
        if occ_cnt:
            occupancy_series.count += occ_cnt
            occupancy_series.total += occ_tot
            occ_cnt = 0
            occ_tot = 0
        occupancy_series.record_run(cycle, stop, occ_total)
        occ_samples = occupancy_series.samples
        occ_stride = occupancy_series.stride
        occ_next = stop + (-stop) % occ_stride
        if pending_count:
            try:
                ki = stall_keys.index(pending_cause)
            except ValueError:
                stall_keys.append(pending_cause)
                stall_vals.append(pending_count)
            else:
                stall_vals[ki] += pending_count
            pending_cause = None
            pending_count = 0
        _flush_bypass()
        if sampler is not None:
            _sync_views()
        _replay_stall_range(
            rob_head if rob_head < rob_tail else -1,
            _frontier_seq(), cycle, stop, dispatch_wait_blocked,
        )
        if sampler is not None:
            sampler_next = sampler.next_capture
        skipped_cycles += span
        cycle = stop
        if any_dirty_nxt:
            # Live marks pin wake to "now" (their waiters sit in wtr), so
            # anything still queued across a skip is stale; rotate it out
            # for the validity check to discard.
            any_dirty_nxt = False
            for dn, dc in zip(dirty_nxt, dirty_cur):
                if dn:
                    dc.extend(dn)
                    del dn[:]
        if cycle - last_progress_cycle > progress_window:
            raise no_progress_error()
        if cycle > max_cycles:
            raise budget_error()

    # ---- end of run ------------------------------------------------------
    _flush_bypass()
    machine.skipped_cycles = skipped_cycles
    stats.cycles = cycle + 1
    stats.branches = fetch.branches
    stats.mispredictions = fetch.mispredictions
    stats.fetch_stall_cycles = fetch.fetch_stall_cycles
    stats.dcache_hits = hierarchy.dcache.hits
    stats.dcache_misses = hierarchy.dcache.misses
    stats.icache_misses = hierarchy.icache.misses
    stats.l2_misses = hierarchy.l2.misses
    if occ_cnt:
        occupancy_series.count += occ_cnt
        occupancy_series.total += occ_tot
    stats.scheduler_occupancy_samples = occupancy_series.count
    stats.scheduler_occupancy_sum = occupancy_series.total
    if sampler is not None:
        _sync_views()
        stats.timeline = sampler.finalize(cycle)
    if record:
        with _gc_paused():
            _emit_events(
                bus, cycle + 1, SELECT_TO_EXEC, cluster_delay,
                instr_col, fetchc_col, ren_col, sel_col, comp_col, ret_col,
                sched_col, clus_col, prb_col, lrb_col, ltc_col, isload_col,
                trbf_col, ttcf_col, srcs_col, issue_log, full_log, stall_log,
            )
    log.debug(
        "finished %s on %s (soa): %d instructions in %d cycles (IPC %.3f)",
        config.name, program.name, stats.instructions, stats.cycles, stats.ipc,
    )
    return stats


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for a bulk allocation.

    An event stream is ~10^6 fresh acyclic objects (events and their
    args); left on, the collector re-traverses the growing heap again and
    again, which measured ~40% of the stream build.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Events handed to an unbounded bus per ``emit_many`` call.
_EMIT_CHUNK = 4096


def _emit_events(
    bus, cycles, select_to_exec, cluster_delay,
    instr_col, fetchc_col, ren_col, sel_col, comp_col, ret_col,
    sched_col, clus_col, prb_col, lrb_col, ltc_col, isload_col,
    trbf_col, ttcf_col, srcs_col, issue_log, full_log, stall_log,
) -> None:
    """Emit a finished run's event stream onto ``bus`` from its columns.

    Events go out in the object engine's emission order — per cycle: the
    stage timelines of the instructions retiring, the operand events of
    the instructions issuing (scheduler order, then age; sources in
    rename order), the window-full stall, then the cycle's stall — so
    events whose ``(cycle, seq, kind)`` tie (one consumer's operands)
    keep that order through the bus's stable sort, and a bounded bus
    compacts the same stream.  Every operand field is recomputed from
    final columns: nothing a producer's columns hold changes after it
    issues, and a consumer always issues after its producers.
    """
    out: list[TraceEvent] = []
    extend = out.extend
    append = out.append
    chunk = bus.capacity or _EMIT_CHUNK
    texts = [instr.text for instr in instr_col]
    n = len(ret_col)
    r = 0
    i = 0
    n_issue = len(issue_log)
    f = 0
    n_full = len(full_log)
    s = 0
    n_stall = len(stall_log)
    for c in range(cycles):
        while r < n and ret_col[r] == c:
            extend(stage_events(
                r, texts[r], select_to_exec, fetchc_col[r], ren_col[r],
                sel_col[r], sched_col[r], clus_col[r], lrb_col[r],
                ltc_col[r], comp_col[r], c,
            ))
            r += 1
        while i < n_issue and sel_col[issue_log[i]] == c:
            e = issue_log[i]
            i += 1
            text = texts[e]
            cluster = clus_col[e]
            for pseq, wants_tc in srcs_col[e]:
                adjust = cluster_delay if clus_col[pseq] != cluster else 0
                psel = sel_col[pseq]
                offset = c - psel - adjust
                producer_rb = prb_col[pseq]
                if producer_rb and not wants_tc and offset < ltc_col[pseq]:
                    level = offset - lrb_col[pseq]
                else:
                    level = offset - ltc_col[pseq]
                if producer_rb:
                    case = "RB_TO_TC" if wants_tc else "RB_TO_RB"
                else:
                    case = "TC_TO_TC" if wants_tc else "TC_TO_RB"
                arrival = psel + adjust + (
                    ttcf_col[pseq] if wants_tc else trbf_col[pseq]
                )
                append(operand_event(
                    c, e, text, level < 3, level + 1, case, pseq,
                    "TC" if wants_tc else "RB", bool(adjust), arrival,
                    isload_col[pseq],
                ))
        if f < n_full and full_log[f][0] == c:
            _, blocked, index = full_log[f]
            f += 1
            append(TraceEvent(
                c, EventKind.STALL, blocked, "", 1,
                {"cause": "window-full", "unit": f"sched{index}"},
            ))
        if s < n_stall and stall_log[s][0] == c:
            _, hseq, cause = stall_log[s]
            s += 1
            append(TraceEvent(c, EventKind.STALL, hseq, "", 1, {"cause": cause.value}))
        if len(out) >= chunk:
            # Hand the bus the stream in pieces: a bounded bus compacts as
            # it goes, and an unbounded one never holds a second full-size
            # list of the stream next to its own.
            bus.emit_many(out)
            out.clear()
    bus.emit_many(out)


# Batched lockstep simulation: N configs over one decoded program, sharing
# the fetch probe, rename plans, and steering columns (repro.core.batch).
# Imported at the bottom because batch.py reuses this module's kind codes
# and static-entry memoization at call time.
from repro.core.batch import batchable, run_soa_batch  # noqa: E402,F401
