"""Paired-run differential harness over the "bit-identical" execution modes.

Nine equivalence pairs are claimed by the simulator:

* ``engine`` — the structure-of-arrays cycle engine
  (:mod:`repro.core.engine`) vs the per-instruction object engine, over
  the serialized statistics *and* every interval-timeline row;
* ``events`` — the same two engines with an event bus attached: the
  SoA engine rebuilds the stream from its columns, the object engine
  emits it from its ``DynInstr`` records, and every event, the bus meta,
  and the statistics must match;
* ``batch`` — N configs advanced by one :func:`run_soa_batch` call
  (shared fetch probe, rename plans, steering columns) vs each config's
  solo run, statistics and timelines alike;
* ``cycle-skip`` — :meth:`Machine.run` with the event-driven fast-forward
  on vs off;
* ``timeline-skip`` — the interval timeline (:mod:`repro.obs.timeline`)
  captured with the fast-forward on vs off, row by row;
* ``machine-reuse`` — one :class:`Machine` reused across programs (the
  serial runner's behavior) vs a fresh machine per run (the pool
  worker's behavior);
* ``run-matrix`` — :meth:`SimulationRunner.run_matrix` serial vs fanned
  over a process pool;
* ``rb-adder`` — the word-parallel bitwise carry-free adder vs the
  per-digit :func:`~repro.rb.adder.interim_digit` reference;
* ``gate-adders`` — every gate-level two's-complement adder netlist
  (including the Pareto-sweep designs) vs plain integer addition, via
  packed word-parallel evaluation.

Each differential runs both sides and reports the **first diverging
field** of the serialized :class:`~repro.core.statistics.SimStats` —
which includes every CPI-stack bucket, distribution, histogram, and
metric counter, not just IPC — as a :class:`Divergence`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.config import MachineConfig
from repro.core.machine import Machine
from repro.core.statistics import SimStats
from repro.isa.program import Program
from repro.obs.events import EventBus, EventKind, TraceEvent
from repro.obs.log import get_logger
from repro.rb.adder import rb_add, rb_add_reference, rb_sub, rb_sub_reference
from repro.rb.number import RBNumber

log = get_logger(__name__)


def first_divergence(left: object, right: object, path: str = "") -> tuple[str, object, object] | None:
    """Depth-first earliest difference between two JSON-like values.

    Returns ``(path, left_value, right_value)`` for the first diverging
    leaf (dict keys visited in sorted order, so the answer is stable),
    or ``None`` when the structures are identical.
    """
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in left:
                return where, "<absent>", right[key]
            if key not in right:
                return where, left[key], "<absent>"
            found = first_divergence(left[key], right[key], where)
            if found is not None:
                return found
        return None
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        for index in range(max(len(left), len(right))):
            where = f"{path}[{index}]"
            if index >= len(left):
                return where, "<absent>", right[index]
            if index >= len(right):
                return where, left[index], "<absent>"
            found = first_divergence(left[index], right[index], where)
            if found is not None:
                return found
        return None
    if left != right or type(left) is not type(right):
        return path, left, right
    return None


@dataclass
class Divergence:
    """One equivalence-pair violation: the first field that differs."""

    pair: str           # which equivalence pair diverged
    machine: str
    workload: str
    field: str          # dotted path into SimStats.to_dict()
    left: object
    right: object

    def describe(self) -> str:
        return (f"[{self.pair}] {self.machine} on {self.workload}: "
                f"first divergence at {self.field!r}: "
                f"{self.left!r} != {self.right!r}")

    def as_dict(self) -> dict:
        return {
            "pair": self.pair,
            "machine": self.machine,
            "workload": self.workload,
            "field": self.field,
            "left": repr(self.left),
            "right": repr(self.right),
        }


def _compare(pair: str, machine: str, workload: str,
             left: SimStats, right: SimStats) -> Divergence | None:
    found = first_divergence(left.to_dict(), right.to_dict())
    if found is None:
        return None
    field, left_value, right_value = found
    return Divergence(pair, machine, workload, field, left_value, right_value)


# ---------------------------------------------------------------------------
# The pairs
# ---------------------------------------------------------------------------

def diff_engines(
    config: MachineConfig, program: Program, cycle_skip: bool = True
) -> Divergence | None:
    """SoA column engine vs the object reference engine, bit for bit.

    Compares the full serialized :class:`SimStats` — every CPI-stack
    bucket, distribution, histogram, and metric counter — and then every
    interval-timeline row.  The SoA engine's contract is *bit-identical*
    output, so any first divergence is a bug in one engine or the other.
    """
    soa = Machine(config).run(program, cycle_skip=cycle_skip, engine="soa")
    objects = Machine(config).run(
        program, cycle_skip=cycle_skip, engine="objects"
    )
    found = _compare("engine", config.name, program.name, soa, objects)
    if found is not None:
        return found
    if (soa.timeline is None) != (objects.timeline is None):
        return Divergence(
            "engine", config.name, program.name, "timeline",
            soa.timeline, objects.timeline,
        )
    if soa.timeline is not None:
        diverged = first_divergence(
            soa.timeline.to_dict(), objects.timeline.to_dict()
        )
        if diverged is not None:
            field, left_value, right_value = diverged
            return Divergence(
                "engine", config.name, program.name,
                f"timeline.{field}", left_value, right_value,
            )
    return None


def diff_event_streams(
    machine: str,
    workload: str,
    left: list[TraceEvent],
    right: list[TraceEvent],
    left_meta: dict | None = None,
    right_meta: dict | None = None,
) -> Divergence | None:
    """First difference between two closed event streams (and bus metas).

    Events compare by :meth:`~repro.obs.events.TraceEvent.to_dict`, so
    the reported field is ``events[<index>].<key>`` — the first diverging
    index in stream order, then the first diverging key of that event.
    """
    found = first_divergence(left_meta or {}, right_meta or {}, "meta")
    if found is None:
        for index, (a, b) in enumerate(zip(left, right)):
            if a != b:
                found = first_divergence(
                    a.to_dict(), b.to_dict(), f"events[{index}]"
                )
                if found is not None:
                    break
    if found is None and len(left) != len(right):
        index = min(len(left), len(right))
        found = (
            f"events[{index}]",
            left[index].to_dict() if index < len(left) else "<absent>",
            right[index].to_dict() if index < len(right) else "<absent>",
        )
    if found is None:
        return None
    field, left_value, right_value = found
    return Divergence("events", machine, workload, field, left_value, right_value)


def diff_events(
    config: MachineConfig, program: Program, cycle_skip: bool = True
) -> Divergence | None:
    """Event-bus run on the SoA engine vs the object engine, event for event.

    The SoA engine builds its stream from columns after the loop; the
    object engine emits from its ``DynInstr`` records as it goes.  The
    serialized statistics, the bus meta, and the sorted stream (tie order
    included — the critical path's last-arriving edge depends on it) must
    all be identical.  ``cycle_skip`` reaches the object engine (the SoA
    engine never fast-forwards with a bus).
    """
    runs = {}
    for engine in ("soa", "objects"):
        bus = EventBus()
        stats = Machine(config).run(
            program, bus=bus, cycle_skip=cycle_skip, engine=engine
        )
        runs[engine] = (stats, bus)
    (soa, soa_bus), (objects, objects_bus) = runs["soa"], runs["objects"]
    found = _compare("events", config.name, program.name, soa, objects)
    if found is not None:
        return found
    return diff_event_streams(
        config.name, program.name, soa_bus.events, objects_bus.events,
        soa_bus.meta, objects_bus.meta,
    )


def event_stream_mutants(events: list[TraceEvent]) -> dict[str, list[TraceEvent]]:
    """Negative controls for :func:`diff_event_streams`.

    Two near-misses a stream comparison must catch: two tie-ordered
    operand events of one consumer swapped (same ``(cycle, seq, kind)``,
    different producers — only emission order tells them apart), and one
    stall event moved a cycle later.  Each mutant differs from ``events``
    in exactly those positions; a mutation with no site in the stream is
    left out of the result.
    """
    mutants: dict[str, list[TraceEvent]] = {}
    for index in range(len(events) - 1):
        a, b = events[index], events[index + 1]
        if (
            a.kind in (EventKind.BYPASS, EventKind.OPERAND)
            and a.sort_key() == b.sort_key()
            and a.to_dict() != b.to_dict()
        ):
            swapped = list(events)
            swapped[index], swapped[index + 1] = b, a
            mutants["swapped-tie"] = swapped
            break
    for index, event in enumerate(events):
        if event.kind is EventKind.STALL:
            shifted = list(events)
            shifted[index] = replace(event, cycle=event.cycle + 1)
            mutants["stall-cycle-off-by-one"] = shifted
            break
    return mutants


def diff_cycle_skip(config: MachineConfig, program: Program) -> Divergence | None:
    """Fast-forwarding must not change a single statistic."""
    skipped = Machine(config).run(program, cycle_skip=True)
    plain = Machine(config).run(program, cycle_skip=False)
    return _compare("cycle-skip", config.name, program.name, skipped, plain)


def diff_timeline_skip(config: MachineConfig, program: Program) -> Divergence | None:
    """Fast-forwarding must not change a single interval-timeline row.

    The closed-form skip replay claims *bit-identical* timelines, not
    just identical aggregates: every sampled row — occupancies, stall
    deltas, bypass-level deltas, conversion counts — must match the
    per-cycle loop's, including rows whose boundary lands inside a
    skipped range.
    """
    skipped = Machine(config).run(program, cycle_skip=True)
    plain = Machine(config).run(program, cycle_skip=False)
    found = first_divergence(
        skipped.timeline.to_dict(), plain.timeline.to_dict()
    )
    if found is None:
        return None
    field, left_value, right_value = found
    return Divergence(
        "timeline-skip", config.name, program.name,
        f"timeline.{field}", left_value, right_value,
    )


def diff_machine_reuse(
    config: MachineConfig, warmup: Program, program: Program
) -> Divergence | None:
    """A machine that already ran ``warmup`` must match a fresh one.

    This is the serial runner's reuse pattern vs the pool worker's
    fresh-machine pattern — the implicit fourth equivalence pair behind
    the "parallel sweeps are identical to serial" claim.
    """
    reused_machine = Machine(config)
    reused_machine.run(warmup)
    reused = reused_machine.run(program)
    fresh = Machine(config).run(program)
    return _compare("machine-reuse", config.name, program.name, reused, fresh)


def diff_run_matrix(
    configs: list[MachineConfig],
    workloads: list[str],
    workdir: Path,
    jobs: int = 2,
) -> list[Divergence]:
    """Serial vs process-pool ``run_matrix`` over the full cross product."""
    from repro.harness.runner import SimulationRunner

    results = {}
    for label, pool_jobs in (("serial", None), ("parallel", jobs)):
        runner = SimulationRunner(
            cache_path=workdir / f"{label}.json",
            bench_path=workdir / f"{label}-bench.json",
        )
        results[label] = runner.run_matrix(
            configs, workloads, jobs=pool_jobs,
            force_pool=pool_jobs is not None,
        )
    divergences = []
    for key in results["serial"]:
        machine, workload = key
        found = _compare(
            "run-matrix", machine, workload,
            results["serial"][key], results["parallel"][key],
        )
        if found is not None:
            divergences.append(found)
    return divergences


def diff_batch(
    configs: list[MachineConfig],
    program: Program,
    cycle_skip=True,
) -> list[Divergence]:
    """Batched lockstep simulation vs each config's solo run, bit for bit.

    Runs all ``configs`` through one
    :func:`~repro.core.engine.run_soa_batch` call and every config
    through its own solo :meth:`Machine.run`, then compares each pair's
    full serialized :class:`SimStats` and every interval-timeline row —
    the batch engine's contract is that sharing fetch/rename/steering
    work across configs changes *nothing*.  ``cycle_skip`` may be a
    per-config sequence (the check alternates it so both loop modes of
    the batch engine face every program).
    """
    from repro.core.engine import run_soa_batch

    if isinstance(cycle_skip, (bool, int)):
        skips = [bool(cycle_skip)] * len(configs)
    else:
        skips = [bool(value) for value in cycle_skip]
    batch_stats = run_soa_batch(
        [Machine(config) for config in configs], program, cycle_skip=skips,
    )
    divergences: list[Divergence] = []
    for config, skip, batched in zip(configs, skips, batch_stats):
        solo = Machine(config).run(program, cycle_skip=skip)
        found = _compare("batch", config.name, program.name, solo, batched)
        if found is None:
            if (solo.timeline is None) != (batched.timeline is None):
                found = Divergence(
                    "batch", config.name, program.name, "timeline",
                    solo.timeline, batched.timeline,
                )
            elif solo.timeline is not None:
                diverged = first_divergence(
                    solo.timeline.to_dict(), batched.timeline.to_dict()
                )
                if diverged is not None:
                    field, left_value, right_value = diverged
                    found = Divergence(
                        "batch", config.name, program.name,
                        f"timeline.{field}", left_value, right_value,
                    )
        if found is not None:
            divergences.append(found)
    return divergences


def diff_gate_adders(seed: int, trials: int = 512) -> list[Divergence]:
    """Every gate-level TC adder netlist vs plain integer addition.

    The sampled complement of the BDD equivalence gate
    (:mod:`repro.circuits.verify`): where the gate proves the netlist's
    *function*, this exercises the evaluator path the proofs don't cover,
    word-parallel (64 random operand triples per packed evaluation).
    Operands are biased toward carry-hostile shapes (all-ones, long
    propagate runs) exactly like the RB property tests.
    """
    from repro.circuits.analysis import ADDER_FAMILIES
    from repro.circuits.verify import evaluate_packed

    rng = random.Random(f"gate-adders:{seed}")
    lanes = 64  # packed test vectors per evaluation
    divergences: list[Divergence] = []
    families = [
        name for name in ADDER_FAMILIES
        if name not in ("rb", "rb_to_tc_converter")  # non-(a, b, cin) interface
    ]
    for width in (8, 64):
        circuits = {name: ADDER_FAMILIES[name](width) for name in families}
        mask = (1 << width) - 1
        for batch in range((trials + lanes - 1) // lanes):
            operands = []
            for _ in range(lanes):
                shape = rng.random()
                if shape < 0.15:
                    a = mask  # all-ones: any carry-in ripples the full width
                elif shape < 0.3:
                    a = mask >> rng.randrange(width)  # long propagate run
                else:
                    a = rng.getrandbits(width)
                operands.append((a, rng.getrandbits(width), rng.getrandbits(1)))
            packed = {f"a[{i}]": 0 for i in range(width)}
            packed.update({f"b[{i}]": 0 for i in range(width)})
            packed["cin"] = 0
            for lane, (a, b, cin) in enumerate(operands):
                for i in range(width):
                    packed[f"a[{i}]"] |= ((a >> i) & 1) << lane
                    packed[f"b[{i}]"] |= ((b >> i) & 1) << lane
                packed["cin"] |= cin << lane
            lane_mask = (1 << lanes) - 1
            for name, circuit in circuits.items():
                outputs = evaluate_packed(circuit, packed, lane_mask)
                for lane, (a, b, cin) in enumerate(operands):
                    total = a + b + cin
                    got = sum(
                        ((outputs[f"sum[{i}]"] >> lane) & 1) << i
                        for i in range(width)
                    ) | ((outputs["cout"] >> lane) & 1) << width
                    if got != total:
                        divergences.append(Divergence(
                            pair="gate-adders",
                            machine=f"{name} width={width}",
                            workload=(
                                f"seed={seed} batch={batch} lane={lane} "
                                f"a={a:#x} b={b:#x} cin={cin}"
                            ),
                            field="sum|cout<<width",
                            left=got,
                            right=total,
                        ))
    return divergences


def diff_rb_adder(seed: int, trials: int = 2000) -> list[Divergence]:
    """Bitwise word-parallel RB addition vs the per-digit reference.

    Operands are random *redundant* encodings (independent plus/minus
    digit patterns, all widths the machines use), not just canonical
    TC re-encodings — most values have many encodings and the adder must
    agree on all of them.
    """
    rng = random.Random(f"rb-adder:{seed}")
    divergences: list[Divergence] = []
    for trial in range(trials):
        width = rng.choice((4, 8, 16, 32, 64))
        plus = rng.getrandbits(width)
        minus = rng.getrandbits(width) & ~plus
        x = RBNumber(width, plus, minus)
        plus = rng.getrandbits(width)
        minus = rng.getrandbits(width) & ~plus
        y = RBNumber(width, plus, minus)
        for op, bitwise, reference in (
            ("add", rb_add, rb_add_reference),
            ("sub", rb_sub, rb_sub_reference),
        ):
            fast = bitwise(x, y)
            slow = reference(x, y)
            left = (fast.value.plus, fast.value.minus, fast.overflow)
            right = (slow.value.plus, slow.value.minus, slow.overflow)
            if left != right:
                divergences.append(Divergence(
                    pair="rb-adder",
                    machine=f"{op} width={width}",
                    workload=f"seed={seed} trial={trial} x={x!r} y={y!r}",
                    field="(plus, minus, overflow)",
                    left=left,
                    right=right,
                ))
    return divergences
