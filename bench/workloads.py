"""The three benchmark workloads, driven through the program's public APIs.

Each workload turns its seed into inputs (:mod:`inputs`), pays its
set-up once (:meth:`Workload.setup`) and then runs *rounds*: one round
is the workload's fixed input, done cold and checked.  A round given a
live :class:`~layers.Recorder` also wraps the layers' entry points and
returns per-layer numbers; given :data:`~layers.OFF` it touches nothing.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import inputs
from checks import Checker, stats_key
from layers import Recorder, covered, ratio

#: How long a serve client waits for one reply, or for its partner at a
#: ``dup`` rendezvous, before counting the request as failed.
CLIENT_TIMEOUT_S = 120.0


@dataclass
class Round:
    #: seconds from the first call to the checked result
    wall: float
    #: seconds per user operation (a sweep, one machine's explanation,
    #: one HTTP request)
    latencies: list[float]
    #: simulation jobs whose results the round returned
    jobs: int
    #: exact, host-independent work counts
    counts: dict[str, int]
    #: per-layer numbers (traced rounds only)
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: rounds every run makes, whatever its time budget
    min_rounds = 1

    def __init__(self, checker: Checker, work_dir: Path) -> None:
        self.checker = checker
        self.work_dir = work_dir

    def programs(self) -> tuple[str, ...]:
        raise NotImplementedError

    def setup(self, rec) -> None:
        """Import the layers and build every program the inputs name."""
        from repro.workloads import suite

        rec.wrap(suite, "build", "workloads.build")
        try:
            for name in self.programs():
                suite.build(name)
        finally:
            rec.restore()

    def round(self, rec) -> Round:
        raise NotImplementedError


def _batch_measure(stats_list) -> dict:
    return {
        "configs": len(stats_list),
        "instructions": sum(stats.instructions for stats in stats_list),
    }


def _wrap_cache_writes(rec, result_cache_cls) -> None:
    rec.wrap(result_cache_cls, "put", "harness.cache_put")
    rec.wrap(result_cache_cls, "save", "harness.cache_save")


def _cache_layers(rec, cache_bytes: int, hits: int, misses: int, batched: int) -> dict:
    puts = len(rec.named("harness.cache_put"))
    return {
        "harness.cache_write_s": rec.total("harness.cache_put") + rec.total("harness.cache_save"),
        "harness.cache_bytes": cache_bytes,
        "harness.cache_hit_ratio": ratio(hits, hits + misses),
        "harness.batched_share": ratio(batched, puts),
    }


class ParetoSweep(Workload):
    name = "pareto-sweep"

    def __init__(self, seed: int, checker: Checker, work_dir: Path) -> None:
        super().__init__(checker, work_dir)
        self.kernels = inputs.pareto_plan(seed)

    def programs(self) -> tuple[str, ...]:
        return self.kernels

    def setup(self, rec) -> None:
        from repro.circuits import verify
        from repro.core import engine
        from repro.harness import experiments, runner

        self.verify, self.engine, self.experiments, self.runner = (
            verify, engine, experiments, runner,
        )
        super().setup(rec)

    def round(self, rec) -> Round:
        runner_mod = self.runner
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            cache_path = Path(tmp) / "results.json"
            runner = runner_mod.SimulationRunner(cache_path=cache_path)
            rec.wrap(self.verify, "assert_verified", "circuits.verify")
            rec.wrap(self.engine, "run_soa_batch", "core.batch", _batch_measure)
            _wrap_cache_writes(rec, runner_mod.ResultCache)
            try:
                started = perf_counter()
                try:
                    result = self.experiments.pareto_experiment(runner, workloads=self.kernels)
                except Exception as exc:
                    self.checker.record([f"pareto_experiment raised {exc!r}"])
                    return Round(perf_counter() - started, [], 0, {})
                wall = perf_counter() - started
            finally:
                rec.restore()
            # Read back what the sweep wrote, so the check covers the cache.
            stored = runner_mod.ResultCache(cache_path)
            points = result.series["points"]
            counts = {"core.sim_instructions": 0, "core.sim_cycles": 0}
            jobs = 0
            for point in points:
                for kernel in self.kernels:
                    stats = stored.get(point["machine"], kernel)
                    if stats is None:
                        self.checker.record([f"{point['machine']}::{kernel} not in the cache"])
                        continue
                    entry = stats.to_dict()
                    problems = self.checker.stats_problems(entry)
                    if stats.ipc != point["ipc"][kernel]:
                        problems.append(f"{stats_key(entry)}: reported IPC differs from cache")
                    self.checker.record(problems)
                    counts["core.sim_instructions"] += stats.instructions
                    counts["core.sim_cycles"] += stats.cycles
                    jobs += 1
            frontier = result.series["frontier"]
            self.checker.record([] if frontier else ["empty Pareto frontier"])
            layers = {}
            if rec.active:
                hits = runner.metrics.counter("cache.hits").value
                misses = runner.metrics.counter("cache.misses").value
                batched = rec.attribute_sum("core.batch", "configs")
                layers = {
                    "circuits.verify_s": rec.total("circuits.verify"),
                    "core.batch_s": rec.total("core.batch"),
                    "core.batch_instr_per_s": ratio(
                        rec.attribute_sum("core.batch", "instructions"),
                        rec.total("core.batch"),
                    ),
                    **_cache_layers(rec, cache_path.stat().st_size, hits, misses, batched),
                }
        return Round(wall, [wall], jobs, counts, layers)


class Explain(Workload):
    name = "explain"

    def __init__(self, seed: int, checker: Checker, work_dir: Path) -> None:
        super().__init__(checker, work_dir)
        self.kernel = inputs.explain_plan(seed)

    def programs(self) -> tuple[str, ...]:
        return (self.kernel,)

    def setup(self, rec) -> None:
        from repro.core.machine import Machine
        from repro.core.presets import resolve_machine
        from repro.obs.critpath import CritPathReport
        from repro.obs.events import EventBus
        from repro.obs.explain import CPIStack, Explanation, explanations_to_json
        from repro.obs.sinks import CollectorSink
        from repro.workloads.suite import build

        self.api = SimpleNamespace(
            Machine=Machine, resolve_machine=resolve_machine,
            CritPathReport=CritPathReport, EventBus=EventBus, CPIStack=CPIStack,
            Explanation=Explanation, explanations_to_json=explanations_to_json,
            CollectorSink=CollectorSink, build=build,
        )
        super().setup(rec)

    def _explain_one(self, rec, program, name: str):
        api = self.api
        config = api.resolve_machine(name, inputs.EXPLAIN_WIDTH)
        machine = api.Machine(config)
        sink = api.CollectorSink()
        with rec.span("core.objects") as span:
            stats = machine.run(program, bus=api.EventBus([sink]))
        if span is not None:
            span.attributes["instructions"] = stats.instructions
        stack = api.CPIStack.from_stats(stats)
        stack.validate()
        with rec.span("obs.critpath"):
            critpath = api.CritPathReport.from_events(sink.events)
        explanation = api.Explanation(
            machine=config.name, workload=program.name, cycles=stats.cycles,
            instructions=stats.instructions, ipc=stats.ipc, stack=stack,
            critpath=critpath, hole_summary=machine.bypass.hole_summary(),
        )
        return stats, explanation, len(sink.events), critpath

    def round(self, rec) -> Round:
        program = self.api.build(self.kernel)
        counts = {"core.sim_instructions": 0, "core.sim_cycles": 0, "obs.events": 0}
        latencies: list[float] = []
        explanations = []
        started = perf_counter()
        for name in inputs.MACHINES:
            op_started = perf_counter()
            try:
                stats, explanation, events, critpath = self._explain_one(rec, program, name)
            except Exception as exc:
                self.checker.record([f"explain {name} on {self.kernel} raised {exc!r}"])
                continue
            latencies.append(perf_counter() - op_started)
            entry = stats.to_dict()
            problems = self.checker.stats_problems(entry)
            problems += self.checker.events_problems(stats_key(entry), events)
            if critpath.nodes == 0:
                problems.append(f"{stats_key(entry)}: empty critical path")
            self.checker.record(problems)
            explanations.append(explanation)
            counts["core.sim_instructions"] += stats.instructions
            counts["core.sim_cycles"] += stats.cycles
            counts["obs.events"] += events
        with rec.span("obs.render"):
            rendered = json.dumps(self.api.explanations_to_json(explanations), indent=2)
        wall = perf_counter() - started
        machines = [entry["machine"] for entry in json.loads(rendered)["machines"]]
        self.checker.record(
            [] if len(machines) == len(inputs.MACHINES) else
            [f"explain JSON lists {len(machines)} of {len(inputs.MACHINES)} machines"]
        )
        layers = {}
        if rec.active:
            layers = {
                "core.objects_s": rec.total("core.objects"),
                "core.objects_instr_per_s": ratio(
                    rec.attribute_sum("core.objects", "instructions"),
                    rec.total("core.objects"),
                ),
                "obs.critpath_s": rec.total("obs.critpath"),
                "obs.render_s": rec.total("obs.render"),
            }
        return Round(wall, latencies, len(explanations), counts, layers)


class _ServiceHost:
    """A ``SimulationService`` on its own event-loop thread (as the CLI hosts it)."""

    def __init__(self, serve, cache_dir: Path) -> None:
        self.service = serve.SimulationService(serve.ServeConfig(cache_dir=cache_dir))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="bench-serve")
        self.thread.start()
        self.started = False
        try:
            asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result(60)
            self.started = True
        finally:
            if not self.started:
                self.close()
        self.port = self.service.port

    def close(self) -> None:
        try:
            if self.started:
                asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(60)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join()
            self.loop.close()


@dataclass
class _Reply:
    kind: str
    latency: float
    trace_id: str | None = None
    entries: list[dict] = field(default_factory=list)
    response_bytes: int = 0


class ServeMix(Workload):
    name = "serve-mix"
    #: three rounds give at least 100 latency samples, so p90 has ten beyond it
    min_rounds = 3

    def __init__(self, seed: int, checker: Checker, work_dir: Path) -> None:
        super().__init__(checker, work_dir)
        self.plan = inputs.serve_plan(seed)

    def programs(self) -> tuple[str, ...]:
        return self.plan.programs

    def setup(self, rec) -> None:
        from repro import serve
        from repro.harness.runner import ResultCache

        self.serve, self.ResultCache = serve, ResultCache
        super().setup(rec)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            _ServiceHost(serve, Path(tmp)).close()

    def _client(self, index: int, port: int, barrier: threading.Barrier,
                replies: list[_Reply]) -> None:
        client = self.serve.ServeClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
        try:
            for request in self.plan.clients[index]:
                if request.kind == "dup":
                    try:
                        barrier.wait(CLIENT_TIMEOUT_S)
                    except threading.BrokenBarrierError:
                        pass  # the partner failed; send alone
                replies.append(self._send(client, request))
        finally:
            # A client that stops early must not strand its partner.
            barrier.abort()

    def _send(self, client, request: inputs.Request) -> _Reply:
        """One closed-loop request, timed from send to parsed reply, checked."""
        started = perf_counter()
        try:
            reply = client.submit([job.as_request() for job in request.jobs])
            latency = perf_counter() - started
            results = reply["results"]
            problems = [] if reply["ok"] else [f"{request.kind} reply not ok"]
            if [r["workload"] for r in results] != [j.workload for j in request.jobs]:
                problems.append(f"{request.kind} reply does not match its jobs")
            for entry in results:
                if "stats" in entry:
                    problems += self.checker.stats_problems(entry["stats"])
        except Exception as exc:
            self.checker.record([f"{request.kind} request failed: {exc!r}"])
            return _Reply(request.kind, perf_counter() - started)
        self.checker.record(problems)
        return _Reply(
            request.kind, latency, reply["trace_id"], results,
            # The service writes json.dumps(payload, indent=2) and a newline.
            len(json.dumps(reply, indent=2).encode()) + 1,
        )

    def round(self, rec) -> Round:
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            host = _ServiceHost(self.serve, Path(tmp))
            try:
                barrier = threading.Barrier(len(self.plan.clients))
                replies: list[list[_Reply]] = [[] for _ in self.plan.clients]
                threads = [
                    threading.Thread(target=self._client, args=(i, host.port, barrier, replies[i]))
                    for i in range(len(self.plan.clients))
                ]
                _wrap_cache_writes(rec, self.ResultCache)
                try:
                    started = perf_counter()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    wall = perf_counter() - started
                finally:
                    rec.restore()
                flat = [reply for client in replies for reply in client]
                self._check_dups(replies)
                counts = self._counts(flat)
                layers = self._layers(rec, host, flat, Path(tmp)) if rec.active else {}
            finally:
                host.close()
        jobs = sum(1 for reply in flat for entry in reply.entries if entry.get("ok"))
        return Round(wall, [reply.latency for reply in flat], jobs, counts, layers)

    def _check_dups(self, replies: list[list[_Reply]]) -> None:
        """Every client's k-th dup must come back with identical stats."""
        per_client = [
            [reply.entries for reply in client if reply.kind == "dup"] for client in replies
        ]
        for same_dup in zip(*per_client):
            stats = [json.dumps(entries, sort_keys=True) for entries in
                     ([e.get("stats") for e in group] for group in same_dup)]
            self.checker.record(
                [] if len(set(stats)) == 1 else ["duplicate requests returned different stats"]
            )

    @staticmethod
    def _counts(flat: list[_Reply]) -> dict[str, int]:
        """Work of the distinct jobs the round simulated, from the replies."""
        distinct = {}
        for reply in flat:
            for entry in reply.entries:
                if "stats" in entry:
                    distinct[stats_key(entry["stats"])] = entry["stats"]
        return {
            "core.sim_instructions": sum(s["instructions"] for s in distinct.values()),
            "core.sim_cycles": sum(s["cycles"] for s in distinct.values()),
        }

    def _layers(self, rec: Recorder, host: _ServiceHost, flat: list[_Reply],
                cache_dir: Path) -> dict[str, float]:
        """Per-layer numbers from the service's own spans and counters."""
        client = self.serve.ServeClient("127.0.0.1", host.port, timeout=CLIENT_TIMEOUT_S)
        spans = []
        for reply in flat:
            if reply.trace_id is not None:
                spans += client.trace(reply.trace_id)["spans"]
        metrics = client.metrics()
        service = metrics["service"]["counters"]
        runner = metrics["runner"]["counters"]
        children = defaultdict(list)
        for span in spans:
            if span["parent_id"] is not None:
                children[span["parent_id"]].append(span)
        # A coalesced request waits on a job another request's trace owns.
        linked = defaultdict(list)
        for span in spans:
            for trace_id in span.get("attributes", {}).get("linked_traces", ()):
                linked[trace_id].append(span)

        def self_time(span: dict, kids: list[dict]) -> float:
            return (span["end"] - span["start"]) - covered(
                span["start"], span["end"], [(k["start"], k["end"]) for k in kids]
            )

        def named(name: str) -> list[dict]:
            return [span for span in spans if span["name"] == name]

        requests = named("serve.request")
        dispatches = named("serve.dispatch")
        queues = named("serve.queue")
        runs = named("machine.run")
        run_time = sum(s["end"] - s["start"] for s in runs)
        entries = [entry for reply in flat for entry in reply.entries]
        puts = len(rec.named("harness.cache_put"))
        cache_bytes = sum(path.stat().st_size for path in cache_dir.glob("shard-*.json"))
        return {
            "core.solo_s": run_time,
            "core.solo_instr_per_s": ratio(
                sum(s["attributes"].get("instructions", 0) for s in runs), run_time
            ),
            **_cache_layers(rec, cache_bytes, runner.get("cache.hits", 0),
                            runner.get("cache.misses", 0), puts - len(runs)),
            "serve.request_self_s": ratio(sum(
                self_time(s, children[s["span_id"]] + linked[s["trace_id"]]) for s in requests
            ), len(requests)),
            "serve.queue_wait_s": ratio(sum(s["end"] - s["start"] for s in queues), len(queues)),
            "serve.dispatch_self_s": ratio(
                sum(self_time(s, children[s["span_id"]]) for s in dispatches), len(dispatches)
            ),
            "serve.coalesced_share": ratio(sum(1 for e in entries if e.get("coalesced")),
                                           len(entries)),
            "serve.jobs_per_batch": ratio(service.get("serve.jobs.submitted", 0),
                                          service.get("serve.batches.dispatched", 0)),
            "serve.response_bytes_per_job": ratio(sum(r.response_bytes for r in flat),
                                                  len(entries)),
        }


WORKLOADS = {cls.name: cls for cls in (ParetoSweep, ServeMix, Explain)}
