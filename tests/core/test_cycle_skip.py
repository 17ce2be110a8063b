"""Cycle-skipping fast-forward must be invisible in every statistic.

``Machine.run`` jumps over quiescent stretches (nothing to retire,
select, dispatch, or fetch until a known future cycle), replaying the
per-cycle bookkeeping — stall attribution, occupancy series, frontend
stall counters — in closed form.  These tests pin the invariant: every
field of ``SimStats`` (and the event stream, and the CPI stack built
from it) is bit-identical with the fast-forward on and off, while
``--no-skip`` stays available as an escape hatch.
"""

import json

import pytest

from repro.core import simulate
from repro.core.machine import Machine
from repro.core.presets import baseline, ideal, rb_limited, staggered
from repro.obs.events import EventBus
from repro.obs.explain import CPIStack
from repro.obs.sinks import CollectorSink
from repro.workloads.suite import build

PAIRS = [
    (baseline(4), "ijpeg"),
    (rb_limited(4), "parser"),
    (staggered(4), "li"),
    (ideal(8), "compress"),
]


def _ids(pair):
    config, workload = pair
    return f"{config.name}-{workload}"


@pytest.fixture(scope="module", params=PAIRS, ids=_ids)
def skip_vs_noskip(request):
    config, workload = request.param
    program = build(workload)
    machine = Machine(config)
    skipped = machine.run(program, cycle_skip=True)
    skipped_cycles = machine.skipped_cycles
    plain = machine.run(program, cycle_skip=False)
    return skipped, plain, skipped_cycles


class TestEquivalence:
    def test_full_stats_identical(self, skip_vs_noskip):
        skipped, plain, _ = skip_vs_noskip
        assert skipped.to_dict() == plain.to_dict()

    def test_cycles_ipc_identical(self, skip_vs_noskip):
        skipped, plain, _ = skip_vs_noskip
        assert skipped.cycles == plain.cycles
        assert skipped.ipc == plain.ipc

    def test_cpi_stack_identical(self, skip_vs_noskip):
        """The repro-explain CPI stack survives the fast-forward exactly."""
        skipped, plain, _ = skip_vs_noskip
        for stats in (skipped, plain):
            CPIStack.from_stats(stats).validate()
        stack_a = CPIStack.from_stats(skipped)
        stack_b = CPIStack.from_stats(plain)
        assert stack_a.components == stack_b.components

    def test_skipping_actually_engages(self, skip_vs_noskip):
        _, _, skipped_cycles = skip_vs_noskip
        assert skipped_cycles > 0


class TestEventStream:
    def test_traced_runs_identical(self):
        """With an event bus attached the skip path replays per-cycle events.

        Pinned to the object engine: the SoA engine never fast-forwards a
        bus run, so only the object loop has a skip path to audit here.
        """
        config, workload = rb_limited(4), "ijpeg"
        program = build(workload)
        digests = {}
        for cycle_skip in (True, False):
            sink = CollectorSink()
            Machine(config).run(
                program, bus=EventBus([sink]), cycle_skip=cycle_skip,
                engine="objects",
            )
            digests[cycle_skip] = json.dumps(
                [(e.cycle, e.kind.value, e.seq, e.text, e.args) for e in sink.events],
                sort_keys=True,
            )
        assert digests[True] == digests[False]


class TestEscapeHatch:
    def test_simulate_kwarg_passthrough(self):
        config, workload = baseline(4), "compress"
        program = build(workload)
        with_skip = simulate(config, program, cycle_skip=True)
        without = simulate(config, program, cycle_skip=False)
        assert with_skip.to_dict() == without.to_dict()

    def test_skip_is_default(self):
        machine = Machine(ideal(4))
        machine.run(build("compress"))
        assert machine.skipped_cycles > 0
