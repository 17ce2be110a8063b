"""Write ``digests.json``: the expected output of every pair a seed can draw.

    python3 bench/record_digests.py

Each (config, workload) pair that any ``pareto-sweep``, ``explain`` or
``serve-mix`` seed can send is simulated once on the object engine (the
repository's independent timing oracle) and its ``SimStats.to_dict()``
reduced to a sha256; ``explain`` pairs also record their event counts.
Pairs that ``tests/golden/`` pins as well are cross-checked against it.
Re-record only for an intended change of simulated behaviour.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_DIR = HERE.parent / "tests" / "golden"

sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
from checks import DIGESTS_FILE, stats_digest, stats_key  # noqa: E402


def pairs() -> list[tuple[str, int, str, bool]]:
    """(machine spec, width, workload, with event bus) for every drawable pair.

    A machine spec is a preset name, or ``adder:<family>`` for the
    Pareto sweep's proven adder machines.
    """
    from repro.core.presets import PARETO_ADDER_FAMILIES

    found = [
        (f"adder:{family}", width, kernel, False)
        for kernel in inputs.PARETO_KERNELS
        for family in PARETO_ADDER_FAMILIES for width in (4, 8)
    ]
    found += [
        (machine, inputs.EXPLAIN_WIDTH, kernel, True)
        for kernel in inputs.EXPLAIN_KERNELS for machine in inputs.MACHINES
    ]
    found += [(job.machine, job.width, job.workload, False)
              for job in inputs.drawable_serve_jobs()]
    return found


def simulate(spec: str, width: int, workload: str, with_bus: bool) -> tuple[dict, int | None]:
    from repro.core.machine import Machine
    from repro.core.presets import adder_designs, adder_machine, resolve_machine
    from repro.obs.events import EventBus
    from repro.obs.sinks import CollectorSink
    from repro.workloads.suite import build

    if spec.startswith("adder:"):
        family = spec[len("adder:"):]
        config = adder_machine(adder_designs(64, (family,))[family], width)
    else:
        config = resolve_machine(spec, width)
    if not with_bus:
        return Machine(config).run(build(workload), engine="objects").to_dict(), None
    sink = CollectorSink()
    stats = Machine(config).run(build(workload), bus=EventBus([sink]))
    return stats.to_dict(), len(sink.events)


def record() -> dict:
    digests: dict[str, str] = {}
    events: dict[str, int] = {}
    todo = pairs()
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(simulate, *pair) for pair in todo]
        for (_, _, _, with_bus), future in zip(todo, futures):
            entry, count = future.result()
            key = stats_key(entry)
            digest = stats_digest(entry)
            if digests.setdefault(key, digest) != digest:
                raise SystemExit(f"{key}: two runs of one pair disagree")
            if with_bus:
                events[key] = count
    return {"digests": dict(sorted(digests.items())), "events": dict(sorted(events.items()))}


def golden_mismatches(table: dict) -> tuple[int, list[str]]:
    """(pairs compared, keys whose digest differs from tests/golden)."""
    compared, wrong = 0, []
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        entry = json.loads(path.read_text())
        key = stats_key(entry)
        if key in table["digests"]:
            compared += 1
            if table["digests"][key] != stats_digest(entry):
                wrong.append(key)
    return compared, wrong


def main() -> int:
    table = record()
    compared, wrong = golden_mismatches(table)
    print(f"{len(table['digests'])} digests, {len(table['events'])} event counts; "
          f"{compared} cross-checked against tests/golden, {len(wrong)} differ")
    if wrong:
        print("golden mismatch: " + ", ".join(wrong), file=sys.stderr)
        return 1
    DIGESTS_FILE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
