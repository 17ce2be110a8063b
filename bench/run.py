"""The repository benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload {pareto-sweep,serve-mix,explain} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout root.  The benchmark imports the program from
``src/`` (it needs no install), pays the workload's set-up, then repeats
the workload's fixed, seeded input ("a round") for ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer
metrics, measured by wrapping the layers' entry points from here, plus
the overhead of that tracing.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the host, the inputs and the exact work counts.
See README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: every temporary file the program writes goes here, inside the checkout
WORK_DIR = ROOT / ".bench_work"

#: set-up-only children after each round of an untraced run.  With the
#: rounds' own set-ups they are the ``setup_s`` samples, spread over the
#: whole run so that no single moment of a shared host decides the median.
SETUP_PER_ROUND = 3
#: one child (set-up plus one round) must end within this
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "circuits.verify_s": "s",
    "workloads.build_s": "s",
    "core.batch_s": "s",
    "core.batch_instr_per_s": "instr/s",
    "core.solo_s": "s",
    "core.solo_instr_per_s": "instr/s",
    "core.objects_s": "s",
    "core.objects_instr_per_s": "instr/s",
    "core.sim_instructions": "count",
    "core.sim_cycles": "count",
    "harness.cache_write_s": "s",
    "harness.cache_bytes": "B",
    "harness.cache_hit_ratio": "ratio",
    "harness.batched_share": "ratio",
    "serve.request_self_s": "s",
    "serve.queue_wait_s": "s",
    "serve.dispatch_self_s": "s",
    "serve.coalesced_share": "ratio",
    "serve.jobs_per_batch": "jobs/batch",
    "serve.response_bytes_per_job": "B/job",
    "obs.events": "count",
    "obs.critpath_s": "s",
    "obs.render_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.latency_samples": "count",
    "error_rate": "ratio",
}

#: the exact work counts; any change between rounds or commits is a
#: behaviour change, not noise
WORK_COUNTS = ("core.sim_instructions", "core.sim_cycles", "obs.events")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pareto-sweep", "serve-mix", "explain"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced", "setup"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail_percentile(values: list[float], q: float = 0.9, tail: int = 10) -> float:
    """The nearest-rank ``q`` quantile when ``tail`` samples lie beyond it.

    With too few samples for that, the maximum stands in.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank >= tail:
        return ordered[rank - 1]
    return ordered[-1]


def source_digest() -> str:
    """sha256 over ``src/``'s Python files: names the code even without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def host_metadata(args: argparse.Namespace) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_report(args: argparse.Namespace, kind: str) -> dict:
    """Set up, then run one round of ``kind`` (``plain``, ``traced`` or ``setup`` only)."""
    started = perf_counter()
    from checks import Checker, load_table
    from layers import OFF, Recorder
    from workloads import WORKLOADS

    checker = Checker(load_table())
    workload = WORKLOADS[args.workload](args.seed, checker, WORK_DIR)
    rec = Recorder() if kind == "traced" else OFF
    workload.setup(rec)
    report = {
        "setup_s": perf_counter() - started,
        "build_s": rec.total("workloads.build") if rec.active else 0.0,
        "round": None,
    }
    if kind != "setup":
        gc.collect()
        report["round"] = asdict(workload.round(rec))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["attempted"] = checker.attempted
    report["failures"] = checker.failures
    return report


def child_env() -> dict[str, str]:
    """The caller's environment without the program's ``REPRO_*`` switches.

    ``REPRO_ENGINE``, ``REPRO_JOBS`` and ``REPRO_FAULT_DIR`` change which
    engine runs, how many workers serve and which faults fire; the
    benchmark always measures the defaults.
    """
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def spawn(args: argparse.Namespace, kind: str) -> dict:
    """:func:`child_report` in a fresh interpreter, so every round starts cold."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--child", kind],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{kind} child exited {done.returncode}: {done.stderr[-600:]}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(args: argparse.Namespace, min_rounds: int) -> list[dict]:
    """Child reports, one step at a time, while the next step fits ``--seconds``.

    A step is one round.  An untraced run follows each round with
    :data:`SETUP_PER_ROUND` set-up-only children; a traced run alternates
    plain and traced rounds, starting plain.  The run stops once its
    slowest step so far would overrun the budget, unless the workload
    still needs ``min_rounds``.
    """
    reports: list[dict] = []
    minimum = max(min_rounds, 2 if args.trace else 1)
    started = perf_counter()
    slowest = 0.0
    steps = 0
    while steps < minimum or perf_counter() - started + slowest <= args.seconds:
        step_started = perf_counter()
        kind = "traced" if args.trace and steps % 2 == 1 else "plain"
        reports.append(dict(spawn(args, kind), kind=kind))
        if not args.trace:
            reports.extend(dict(spawn(args, "setup"), kind="setup")
                           for _ in range(SETUP_PER_ROUND))
        slowest = max(slowest, perf_counter() - step_started)
        steps += 1
    return reports


def end_to_end(reports: list[dict]) -> dict:
    rounds = [r["round"] for r in reports if r["round"] is not None]
    walls = [r["wall"] for r in rounds]
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "wall_s": statistics.median(walls),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": tail_percentile(latencies),
        "jobs_per_s": sum(r["jobs"] for r in rounds) / sum(walls),
        "peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for r in reports if r["round"] is not None
        ),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
    }


def per_layer(workload: str, reports: list[dict], error_rate: float) -> dict:
    plain = [r["round"] for r in reports if r["kind"] == "plain"]
    traced = [r["round"] for r in reports if r["kind"] == "traced"]
    if workload == "serve-mix":
        # Serving is judged per request, so compare the median latency.
        base = statistics.median(x for r in plain for x in r["latencies"])
        with_trace = statistics.median(x for r in traced for x in r["latencies"])
    else:
        base = statistics.median(r["wall"] for r in plain)
        with_trace = statistics.median(r["wall"] for r in traced)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        if samples:
            values[name] = statistics.median(samples)
    values.update(plain[0]["counts"])
    values["workloads.build_s"] = statistics.median(
        r["build_s"] for r in reports if r["kind"] == "traced"
    )
    values["bench.trace_overhead"] = with_trace / base - 1
    values["bench.latency_samples"] = sum(len(r["latencies"]) for r in plain)
    values["error_rate"] = error_rate
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK_DIR)
    os.environ["TMPDIR"] = str(WORK_DIR)
    if args.child is not None:
        print(json.dumps(child_report(args, args.child)))
        return 0

    from workloads import WORKLOADS

    host = host_metadata(args)
    if host["loadavg_1m"] > host["nproc"]:
        print(f"warning: load average {host['loadavg_1m']:.2f} exceeds nproc "
              f"{host['nproc']}; timings are unreliable", file=sys.stderr)
    try:
        reports = measure(args, WORKLOADS[args.workload].min_rounds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports) + 1
    failures = [f for r in reports for f in r["failures"]]
    counts = [r["round"]["counts"] for r in reports if r["round"] is not None]
    if any(c != counts[0] for c in counts):
        failures.append(f"work counts differ between rounds: {counts}")
    error_rate = len(failures) / attempted

    if args.trace:
        values, units = per_layer(args.workload, reports, error_rate), PER_LAYER
    else:
        values, units = end_to_end(reports), END_TO_END
    for name in units:
        print(f"{name:32s} {values[name]:>16.6g} {units[name]}")
    print(f"{len(failures)} of {attempted} operations failed (error_rate {error_rate:.6g})")
    for failure in failures[:20]:
        print(f"  failed: {failure}")
    rounds = [r for r in reports if r["round"] is not None]
    print(json.dumps({
        "host": host,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r["kind"] == "traced"),
        "latency_samples": sum(len(r["round"]["latencies"]) for r in rounds
                               if r["kind"] == "plain"),
        "work_counts": {k: v for k, v in counts[0].items() if k in WORK_COUNTS},
        "error_rate": error_rate,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
