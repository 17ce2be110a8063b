"""``repro check``: run the fuzzer, every differential pair, and the audit.

One :func:`run_check` call produces a :class:`CheckReport` with one
section per verification layer:

* ``fuzz`` — every (profile, seed) program generated and assembled;
* ``formal:adders`` — every gate-level netlist in
  :mod:`repro.circuits` proven equal to its arithmetic specification by
  the BDD checker (:mod:`repro.circuits.verify`), plus the deliberately
  broken mutant adder which the checker must *reject*;
* ``differential:engine`` — the SoA cycle engine vs the object reference
  engine, bit for bit over the golden corpus (four machines × three
  kernels × both widths) plus at least ten fuzzed kernels;
* ``differential:events`` — the same two engines with an event bus:
  the SoA engine's column-built stream vs the object engine's, event
  for event (plus bus meta and statistics) over the golden grid and the
  engine section's fuzzed kernels, with a negative control — a stream
  with two tie-ordered operand events swapped, and one with a stall
  event a cycle off, must each be reported;
* ``differential:batch`` — the batched lockstep engine
  (:func:`~repro.core.engine.run_soa_batch`) vs solo runs: the golden
  grid batched per kernel (mixed widths, alternating cycle-skip) and the
  fuzzed kernels on the check configs;
* ``differential:cycle-skip`` / ``differential:timeline-skip`` /
  ``differential:machine-reuse`` / ``differential:run-matrix`` /
  ``differential:rb-adder`` / ``differential:gate-adders`` — the other
  equivalence pairs over the fuzzed programs (first diverging
  SimStats/timeline field per case);
* ``invariant:cpi-conservation`` — every statistics object produced
  anywhere in the check must have a CPI stack summing exactly to its
  cycles;
* ``invariant:machine-ordering`` — Ideal fastest / Baseline slowest on
  real suite workloads (Figs. 9-12 shape);
* ``invariant:bypass-monotonicity`` — the Fig. 14 deletion lattice;
* ``invariant:shadow-state`` — timing-simulator architectural state vs
  shadow functional execution, plus the redundant-datapath checks.

``quick=True`` bounds the fuzz seeds and workload list for CI; the full
mode widens everything.
"""

from __future__ import annotations

import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.presets import (
    FIG14_VARIANTS,
    adder_designs,
    adder_machine,
    all_paper_machines,
    baseline,
    ideal,
    ideal_limited,
    rb_limited,
    resolve_machine,
)
from repro.core.machine import Machine
from repro.core.statistics import SimStats
from repro.obs.events import EventBus
from repro.obs.log import get_logger
from repro.verify import differential, invariants
from repro.verify.fuzz import PROFILES, fuzz_name, fuzz_program
from repro.workloads.suite import build

log = get_logger(__name__)

#: Schema version of the JSON report.
REPORT_VERSION = 1

#: Suite workloads audited for the machine-ordering invariant.
QUICK_ORDERING_WORKLOADS = ["ijpeg", "li"]
FULL_ORDERING_WORKLOADS = ["ijpeg", "li", "compress", "gzip", "mcf"]

#: Workload for the Fig. 14 bypass-deletion lattice audit.
MONOTONICITY_WORKLOAD = "li"

#: The golden-corpus cross product (tests/golden/) over which the SoA and
#: object engines must agree bit for bit, in quick and full mode alike.
ENGINE_MACHINES = ["baseline", "staggered", "rb-limited", "rb-full"]
ENGINE_KERNELS = ["ijpeg", "li", "compress"]
ENGINE_WIDTHS = [4, 8]

#: Minimum number of fuzzed kernels the engine differential must cover.
ENGINE_FUZZ_MIN = 10

#: Kernels of the event-stream differential's golden grid (with
#: ENGINE_MACHINES x ENGINE_WIDTHS).
EVENT_KERNELS = ENGINE_KERNELS


@dataclass
class Section:
    """One verification layer's outcome."""

    name: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` invocation."""

    quick: bool
    sections: list[Section] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)

    def total_cases(self) -> int:
        return sum(section.cases for section in self.sections)

    def total_failures(self) -> int:
        return sum(len(section.failures) for section in self.sections)

    def as_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "quick": self.quick,
            "ok": self.ok,
            "cases": self.total_cases(),
            "failures": self.total_failures(),
            "sections": [section.as_dict() for section in self.sections],
        }

    def summary(self) -> str:
        lines = []
        for section in self.sections:
            status = "ok" if section.ok else f"{len(section.failures)} FAILED"
            lines.append(
                f"  {section.name:<34} {section.cases:>5} cases  "
                f"{section.seconds:>6.1f}s  {status}"
            )
            for failure in section.failures[:5]:
                lines.append(f"      {failure.get('detail') or failure}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {self.total_cases()} cases, "
            f"{self.total_failures()} failures"
        )
        return "\n".join(lines)


def persist_failing_fuzz_sources(
    report: "CheckReport", directory: Path | str
) -> list[Path]:
    """Write the assembly of every fuzz program a section failed on.

    A ``fuzz:<profile>:<seed>`` name in a failure is only replayable by
    whoever knows the suite's fuzz build hook; the divergence artifact
    should stand alone.  For each distinct fuzz workload appearing in
    any failure, the deterministic :func:`~repro.verify.fuzz.fuzz_source`
    text is written next to the report as
    ``fuzz-<profile>-<seed>.asm`` (assemblable by ``repro run <path>``).
    Returns the written paths; generation problems are logged, never
    raised — persistence must not mask the original failure.
    """
    from repro.verify.fuzz import fuzz_source, is_fuzz_name, parse_fuzz_name

    directory = Path(directory)
    names: list[str] = []
    for section in report.sections:
        for failure in section.failures:
            for key in ("workload", "program"):
                name = failure.get(key)
                if (
                    isinstance(name, str) and is_fuzz_name(name)
                    and name not in names
                ):
                    names.append(name)
    written: list[Path] = []
    for name in names:
        try:
            profile, seed = parse_fuzz_name(name)
            source = fuzz_source(profile, seed)
        except Exception as exc:
            log.error("could not re-derive %s for persistence: %r", name, exc)
            continue
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"fuzz-{profile}-{seed}.asm"
        path.write_text(source, encoding="utf-8")
        written.append(path)
        log.info("persisted failing fuzz program %s -> %s", name, path)
    return written


class _Timer:
    """Times a section and absorbs an audit crash as a section failure.

    A verification layer that *raises* — instead of returning violations —
    must not abort the whole check: the remaining sections still run, the
    report is still returned (so ``repro check -o`` still writes it), and
    the crashed section reports a failure, which makes the exit code
    nonzero.  ``KeyboardInterrupt``/``SystemExit`` still propagate.
    """

    def __init__(self, section: Section) -> None:
        self.section = section

    def __enter__(self) -> Section:
        self._started = time.perf_counter()
        return self.section

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.section.seconds = time.perf_counter() - self._started
        if exc is None or not isinstance(exc, Exception):
            return False
        self.section.cases = max(self.section.cases, 1)
        self.section.failures.append({
            "section": self.section.name,
            "detail": f"audit crashed: {exc!r}",
        })
        log.error("section %s crashed: %r", self.section.name, exc)
        return True


def run_check(
    quick: bool = True,
    seeds: Sequence[int] | None = None,
    profiles: Sequence[str] | None = None,
    width: int = 4,
    jobs: int = 2,
    workdir: Path | None = None,
    adder_trials: int | None = None,
) -> CheckReport:
    """Run every verification layer and return the combined report."""
    if seeds is None:
        seeds = range(2) if quick else range(8)
    if profiles is None:
        profiles = sorted(PROFILES)
    if adder_trials is None:
        adder_trials = 2_000 if quick else 20_000
    # The Pareto adder presets (proven-netlist machines) ride the fuzz
    # grids alongside the paper machines so `repro check` exercises the
    # adder design space end to end, not just the paper's two adders.
    designs = adder_designs()
    configs = [
        rb_limited(width), ideal(width),
        adder_machine(designs["hybrid_select_cla"], width),
    ]
    if not quick:
        configs.insert(0, baseline(width))
        configs.append(adder_machine(designs["rb"], width))
    report = CheckReport(quick=quick)
    all_stats: list[SimStats] = []

    # ---- fuzz: generate + assemble every (profile, seed) kernel ----------
    fuzz_section = Section("fuzz")
    report.sections.append(fuzz_section)
    programs = []
    with _Timer(fuzz_section):
        for profile in profiles:
            for seed in seeds:
                fuzz_section.cases += 1
                try:
                    programs.append(fuzz_program(profile, seed))
                except Exception as exc:
                    fuzz_section.failures.append({
                        "program": fuzz_name(profile, seed),
                        "detail": f"generation/assembly failed: {exc!r}",
                    })
    log.info("fuzz: %d programs generated", len(programs))

    # ---- formal: BDD equivalence gate over the netlist library -----------
    section = Section("formal:adders")
    report.sections.append(section)
    with _Timer(section):
        from repro.circuits.verify import (
            build_mutant_ripple_adder,
            check_circuit,
            verify_library,
        )

        formal_width = 32 if quick else 64
        for name, result in verify_library(width=formal_width).items():
            section.cases += 1
            if not result.equivalent:
                section.failures.append({
                    "netlist": name,
                    "detail": result.describe(),
                })
        # Negative control: the checker must reject the broken adder.
        section.cases += 1
        mutant = check_circuit(
            build_mutant_ripple_adder(formal_width), "tc_adder", formal_width
        )
        if mutant.equivalent:
            section.failures.append({
                "netlist": "mutant_ripple",
                "detail": "checker accepted the deliberately broken adder "
                          "(dropped carry-propagate term) — the gate is "
                          "vacuous",
            })

    # ---- differential: SoA engine vs object engine -----------------------
    section = Section("differential:engine")
    report.sections.append(section)
    engine_fuzz = list(programs)
    with _Timer(section):
        # The full golden corpus — the paper's four machines, three
        # kernels, both widths — always runs, quick mode included: this
        # is the section that licenses every other layer to run on the
        # fast engine.
        for kernel in ENGINE_KERNELS:
            program = build(kernel)
            for machine_name in ENGINE_MACHINES:
                for engine_width in ENGINE_WIDTHS:
                    section.cases += 1
                    found = differential.diff_engines(
                        resolve_machine(machine_name, engine_width), program
                    )
                    if found is not None:
                        section.failures.append(found.as_dict())
        # At least ENGINE_FUZZ_MIN fuzzed kernels, cycling the check
        # configs and alternating the cycle-skip flag so both loop modes
        # of both engines face irregular programs.
        extra_seed = 1000
        while len(engine_fuzz) < ENGINE_FUZZ_MIN:
            engine_fuzz.append(fuzz_program("mixed", extra_seed))
            extra_seed += 1
        for index, program in enumerate(engine_fuzz):
            section.cases += 1
            found = differential.diff_engines(
                configs[index % len(configs)],
                program,
                cycle_skip=index % 2 == 0,
            )
            if found is not None:
                section.failures.append(found.as_dict())

    # ---- differential: event streams, SoA engine vs object engine --------
    section = Section("differential:events")
    report.sections.append(section)
    with _Timer(section):
        for kernel in EVENT_KERNELS:
            program = build(kernel)
            for machine_name in ENGINE_MACHINES:
                for engine_width in ENGINE_WIDTHS:
                    section.cases += 1
                    found = differential.diff_events(
                        resolve_machine(machine_name, engine_width), program
                    )
                    if found is not None:
                        section.failures.append(found.as_dict())
        for index, program in enumerate(engine_fuzz):
            section.cases += 1
            found = differential.diff_events(
                configs[index % len(configs)],
                program,
                cycle_skip=index % 2 == 0,
            )
            if found is not None:
                section.failures.append(found.as_dict())
        # Negative control: the comparison must catch the two near-misses
        # an engine bug would most plausibly produce.
        program = build(EVENT_KERNELS[0])
        config = resolve_machine(ENGINE_MACHINES[0], ENGINE_WIDTHS[0])
        bus = EventBus()
        Machine(config).run(program, bus=bus)
        mutants = differential.event_stream_mutants(bus.events)
        for label in ("swapped-tie", "stall-cycle-off-by-one"):
            section.cases += 1
            mutant = mutants.get(label)
            if mutant is None:
                detail = "no site for the mutation in the control stream"
            elif differential.diff_event_streams(
                config.name, program.name, bus.events, mutant,
            ) is None:
                detail = "stream comparison missed the mutation"
            else:
                continue
            section.failures.append({
                "pair": "events",
                "machine": config.name,
                "workload": program.name,
                "detail": f"negative control {label}: {detail}",
            })

    # ---- differential: batched vs solo simulation ------------------------
    section = Section("differential:batch")
    report.sections.append(section)
    with _Timer(section):
        # The full golden grid per kernel in ONE mixed-width batch: all
        # four paper machines at both widths share the kernel's decode,
        # with cycle-skip alternating across batch members so both loop
        # modes are exercised inside one call.
        grid = [
            resolve_machine(machine_name, engine_width)
            for engine_width in ENGINE_WIDTHS
            for machine_name in ENGINE_MACHINES
        ]
        # Two Pareto presets join the golden batch: the batch engine must
        # share work correctly across adder-derived configs too.
        grid.append(adder_machine(designs["early_output"], 4))
        grid.append(adder_machine(designs["rb"], 8))
        for kernel in ENGINE_KERNELS:
            program = build(kernel)
            section.cases += len(grid)
            section.failures.extend(d.as_dict() for d in (
                differential.diff_batch(
                    grid, program,
                    cycle_skip=[i % 2 == 0 for i in range(len(grid))],
                )
            ))
        # Fuzzed kernels stress irregular programs through the shared
        # plan construction, on the smaller check-config batch.
        for index, program in enumerate(programs):
            section.cases += len(configs)
            section.failures.extend(d.as_dict() for d in (
                differential.diff_batch(
                    configs, program,
                    cycle_skip=[
                        (index + i) % 2 == 0 for i in range(len(configs))
                    ],
                )
            ))

    # ---- differential: cycle-skip ----------------------------------------
    section = Section("differential:cycle-skip")
    report.sections.append(section)
    with _Timer(section):
        for program in programs:
            for config in configs:
                section.cases += 1
                found = differential.diff_cycle_skip(config, program)
                if found is not None:
                    section.failures.append(found.as_dict())

    # ---- differential: timeline skip-replay ------------------------------
    section = Section("differential:timeline-skip")
    report.sections.append(section)
    with _Timer(section):
        for program in programs:
            for config in configs:
                section.cases += 1
                found = differential.diff_timeline_skip(config, program)
                if found is not None:
                    section.failures.append(found.as_dict())

    # ---- differential: machine reuse -------------------------------------
    section = Section("differential:machine-reuse")
    report.sections.append(section)
    with _Timer(section):
        for index, program in enumerate(programs):
            warmup = programs[(index + 1) % len(programs)]
            for config in configs:
                section.cases += 1
                found = differential.diff_machine_reuse(config, warmup, program)
                if found is not None:
                    section.failures.append(found.as_dict())

    # ---- differential: serial vs parallel run_matrix ---------------------
    section = Section("differential:run-matrix")
    report.sections.append(section)
    with _Timer(section):
        matrix_workloads = [program.name for program in programs]
        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
                found = differential.diff_run_matrix(
                    configs, matrix_workloads, Path(tmp), jobs=jobs
                )
        else:
            found = differential.diff_run_matrix(
                configs, matrix_workloads, Path(workdir), jobs=jobs
            )
        section.cases = len(configs) * len(matrix_workloads)
        section.failures.extend(d.as_dict() for d in found)

    # ---- differential: RB adder bitwise vs per-digit ---------------------
    section = Section("differential:rb-adder")
    report.sections.append(section)
    with _Timer(section):
        section.cases = adder_trials * 2  # one add + one sub per trial
        for seed in seeds:
            found = differential.diff_rb_adder(seed, trials=adder_trials)
            section.failures.extend(d.as_dict() for d in found)

    # ---- differential: gate-level TC adder netlists vs integer add -------
    section = Section("differential:gate-adders")
    report.sections.append(section)
    with _Timer(section):
        gate_trials = 256 if quick else 1024
        for seed in seeds:
            section.cases += gate_trials
            found = differential.diff_gate_adders(seed, trials=gate_trials)
            section.failures.extend(d.as_dict() for d in found)

    # ---- invariant: machine ordering on real workloads -------------------
    section = Section("invariant:machine-ordering")
    report.sections.append(section)
    with _Timer(section):
        ordering_workloads = (
            QUICK_ORDERING_WORKLOADS if quick else FULL_ORDERING_WORKLOADS
        )
        machines = all_paper_machines(width)
        for workload in ordering_workloads:
            program = build(workload)
            per_machine = {}
            for config in machines:
                stats = Machine(config).run(program)
                per_machine[config.name] = stats
                all_stats.append(stats)
            section.cases += len(per_machine)
            section.failures.extend(v.as_dict() for v in (
                invariants.audit_machine_ordering(
                    per_machine,
                    ideal_name=ideal(width).name,
                    baseline_name=baseline(width).name,
                    workload=workload,
                )
            ))

    # ---- invariant: Fig. 14 bypass-deletion monotonicity -----------------
    section = Section("invariant:bypass-monotonicity")
    report.sections.append(section)
    with _Timer(section):
        program = build(MONOTONICITY_WORKLOAD)
        full = Machine(ideal(width)).run(program)
        all_stats.append(full)
        by_removed = {}
        for removed in FIG14_VARIANTS:
            stats = Machine(ideal_limited(width, removed)).run(program)
            by_removed[removed] = stats
            all_stats.append(stats)
        section.cases = len(by_removed) + 1
        section.failures.extend(v.as_dict() for v in (
            invariants.audit_bypass_monotonicity(
                by_removed, full, MONOTONICITY_WORKLOAD
            )
        ))

    # ---- invariant: shadow functional execution --------------------------
    section = Section("invariant:shadow-state")
    report.sections.append(section)
    with _Timer(section):
        shadow_config = rb_limited(width)
        shadow_programs = list(programs)
        shadow_programs.append(build("compress" if quick else "vortex"))
        for program in shadow_programs:
            section.cases += 1
            section.failures.extend(v.as_dict() for v in (
                invariants.audit_shadow_state(shadow_config, program)
            ))

    # ---- invariant: CPI conservation over everything run above -----------
    section = Section("invariant:cpi-conservation")
    report.sections.append(section)
    with _Timer(section):
        for stats in all_stats:
            section.cases += 1
            violation = invariants.audit_cpi_stack(stats)
            if violation is not None:
                section.failures.append(violation.as_dict())

    return report
