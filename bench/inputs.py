"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed and imports nothing from
the program: the program only ever sees the names this module returns
(suite kernel names, machine/width pairs and ``fuzz:<profile>:<seed>``
workload names), so the same seed gives the same inputs on every commit.

The seed chooses *which* kernels, machines and programs; the amount of
work does not depend on it.  Kernels come from cost-matched pools
(README.md gives the measured costs), and the ``serve-mix`` schedule of
request kinds is fixed, so a metric's spread across seeds measures the
program, not the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's four pipelined-adder machines (``repro explain`` default).
MACHINES = ("baseline", "rb-limited", "rb-full", "ideal")

#: ``pareto-sweep`` draws this many kernels from its pool per seed.
PARETO_KERNELS = ("m88ksim", "mcf")
PARETO_SUBSET = 1

#: ``explain`` draws one kernel from this pool per seed.
EXPLAIN_KERNELS = ("li", "crafty")
EXPLAIN_WIDTH = 4

#: ``serve-mix`` draws kernel jobs from these kernels and widths, and
#: ``small`` requests carry fuzz programs from this finite space, run at
#: the service's default width.
SERVE_KERNELS = ("ijpeg", "li")
SERVE_WIDTHS = (4, 8)
FUZZ_PROFILES = ("mixed", "branchy", "memory", "serial")
FUZZ_SEEDS = range(16)

#: The kinds of request every closed-loop client sends, in order: 1
#: miss, 2 small, 2 sweep, 1 dup and 12 repeat.  The clients share this
#: schedule and so move in lockstep: each request lands in the same 50 ms
#: batch window as its partner's.  Repeats make pure cache-read batches
#: (two thirds of the samples, so p50 falls among them) and sweeps the
#: slowest ones (11%, so p90 falls among them).  The shares are an
#: assumption, not taken from observed traffic (README.md says what that
#: costs p50).
SERVE_SCHEDULE = (
    "miss", "repeat", "repeat", "small", "repeat", "sweep", "repeat", "repeat", "dup",
    "repeat", "repeat", "repeat", "sweep", "repeat", "small", "repeat", "repeat", "repeat",
)
SERVE_CLIENTS = 2
#: The sweeps cover every (kernel, width) of the pool on the four machines
#: above, so each round does the same sweep work whatever the seed;
#: misses and the dup run this fifth preset on the same kernels.  The
#: pool holds as many kernels as a client sends sweeps and as many widths
#: as there are clients.
SINGLE_MACHINE = "staggered"
#: fuzz programs per ``small`` request, in order of the client's smalls
SMALL_SIZES = (4, 8)


@dataclass(frozen=True)
class Job:
    machine: str
    workload: str
    width: int

    def as_request(self) -> dict:
        return {"machine": self.machine, "workload": self.workload, "width": self.width}


@dataclass(frozen=True)
class Request:
    """One ``POST /jobs`` a serve client sends, tagged with its kind."""

    kind: str
    jobs: tuple[Job, ...]


@dataclass(frozen=True)
class ServePlan:
    #: one closed-loop request list per client
    clients: tuple[tuple[Request, ...], ...]
    #: every workload name the plan sends (built during set-up)
    programs: tuple[str, ...]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def pareto_plan(seed: int) -> tuple[str, ...]:
    """The kernel subset of one cold ``pareto_experiment``."""
    rng = _rng("pareto-sweep", seed)
    return tuple(sorted(rng.sample(PARETO_KERNELS, PARETO_SUBSET)))


def explain_plan(seed: int) -> str:
    """The kernel that ``explain`` accounts on the four machines."""
    return _rng("explain", seed).choice(EXPLAIN_KERNELS)


def _fuzz_jobs() -> list[Job]:
    return [
        Job(machine, f"fuzz:{profile}:{fuzz_seed}", 4)
        for profile in FUZZ_PROFILES for fuzz_seed in FUZZ_SEEDS for machine in MACHINES
    ]


def serve_plan(seed: int) -> ServePlan:
    """Per-client request lists for one ``serve-mix`` round.

    Every ``miss``, ``sweep``, ``dup`` and ``small`` job key is unseen
    within the round.  A ``miss`` is one kernel job.  A ``sweep`` is the
    four machines at one width on one kernel.  A ``repeat`` asks again
    for a key the same client already received, so it is a cache read.
    A ``dup`` is sent by both clients at once, so the service coalesces it.
    """
    rng = _rng("serve-mix", seed)
    # Client c sweeps every kernel at its own width, one kernel per sweep
    # position, so each lockstep sweep batch pairs two kernels at two
    # widths and the batches cost the same on every seed.
    kernels = rng.sample(SERVE_KERNELS, len(SERVE_KERNELS))
    widths = rng.sample(SERVE_WIDTHS, len(SERVE_WIDTHS))
    sweeps = [
        [tuple(Job(m, kernels[(client + p) % len(kernels)], widths[client]) for m in MACHINES)
         for p in range(SERVE_SCHEDULE.count("sweep"))]
        for client in range(SERVE_CLIENTS)
    ]
    singles = [Job(SINGLE_MACHINE, k, w) for k in SERVE_KERNELS for w in SERVE_WIDTHS]
    rng.shuffle(singles)
    fuzz = _fuzz_jobs()
    rng.shuffle(fuzz)
    dups = [(singles.pop(),) for _ in range(SERVE_SCHEDULE.count("dup"))]
    plans = []
    for client in range(SERVE_CLIENTS):
        smalls = []
        for size in SMALL_SIZES:
            smalls.append(tuple(fuzz[:size]))
            del fuzz[:size]
        fresh = {
            "miss": iter([(singles.pop(),) for _ in range(SERVE_SCHEDULE.count("miss"))]),
            "sweep": iter(sweeps[client]),
            "dup": iter(dups),
            "small": iter(smalls),
        }
        requests: list[Request] = []
        received: list[Job] = []
        for kind in SERVE_SCHEDULE:
            jobs = (rng.choice(received),) if kind == "repeat" else next(fresh[kind])
            received.extend(jobs)
            requests.append(Request(kind, jobs))
        plans.append(tuple(requests))
    programs = sorted({job.workload for client in plans for r in client for job in r.jobs})
    return ServePlan(clients=tuple(plans), programs=tuple(programs))


def drawable_serve_jobs() -> list[Job]:
    """Every job any ``serve-mix`` seed can send (for the digest table)."""
    kernels = [
        Job(machine, kernel, width)
        for kernel in SERVE_KERNELS for width in SERVE_WIDTHS
        for machine in MACHINES + (SINGLE_MACHINE,)
    ]
    return kernels + _fuzz_jobs()
