"""The differential harness: finds real divergences, stays quiet otherwise."""

import pytest

from repro.core.machine import Machine
from repro.core.presets import ideal, rb_limited, resolve_machine
from repro.obs.events import EventBus, EventKind, TraceEvent
from repro.verify.differential import (
    Divergence,
    diff_cycle_skip,
    diff_event_streams,
    diff_events,
    diff_machine_reuse,
    diff_rb_adder,
    diff_timeline_skip,
    event_stream_mutants,
    first_divergence,
)
from repro.verify.fuzz import fuzz_program
from repro.workloads.suite import build


class TestFirstDivergence:
    def test_identical(self):
        value = {"a": [1, {"b": 2}], "c": "x"}
        assert first_divergence(value, dict(value)) is None

    def test_reports_deepest_path(self):
        left = {"a": {"b": [1, 2, 3]}}
        right = {"a": {"b": [1, 9, 3]}}
        assert first_divergence(left, right) == ("a.b[1]", 2, 9)

    def test_sorted_key_order_is_stable(self):
        left = {"z": 1, "a": 1}
        right = {"z": 2, "a": 2}
        assert first_divergence(left, right) == ("a", 1, 2)

    def test_missing_key(self):
        assert first_divergence({"a": 1}, {}) == ("a", 1, "<absent>")
        assert first_divergence({}, {"a": 1}) == ("a", "<absent>", 1)

    def test_length_mismatch(self):
        assert first_divergence([1], [1, 2]) == ("[1]", "<absent>", 2)

    def test_type_mismatch_is_a_divergence(self):
        assert first_divergence({"a": 1}, {"a": 1.0}) == ("a", 1, 1.0)
        assert first_divergence({"a": True}, {"a": 1}) == ("a", True, 1)


class TestPairs:
    def test_cycle_skip_pair_is_clean(self):
        program = fuzz_program("mixed", 11)
        for config in (rb_limited(4), ideal(4)):
            assert diff_cycle_skip(config, program) is None

    def test_timeline_skip_pair_is_clean(self):
        program = fuzz_program("mixed", 11)
        for config in (rb_limited(4), ideal(4)):
            assert diff_timeline_skip(config, program) is None

    def test_machine_reuse_pair_is_clean(self):
        warmup = fuzz_program("branchy", 11)
        program = fuzz_program("serial", 11)
        assert diff_machine_reuse(rb_limited(4), warmup, program) is None

    def test_rb_adder_pair_is_clean(self):
        assert diff_rb_adder(seed=123, trials=500) == []

    def test_divergence_reporting(self):
        divergence = Divergence(
            pair="cycle-skip", machine="Ideal-4w", workload="fuzz:mixed:0",
            field="cycles", left=100, right=101,
        )
        text = divergence.describe()
        assert "cycle-skip" in text and "'cycles'" in text
        payload = divergence.as_dict()
        assert payload["field"] == "cycles"
        assert payload["left"] == "100"


class TestEventStreams:
    @pytest.fixture(scope="class")
    def stream(self):
        program = fuzz_program("mixed", 11)
        config = rb_limited(4)
        bus = EventBus()
        Machine(config).run(program, bus=bus)
        return config, program, bus

    def test_events_pair_is_clean(self):
        program = fuzz_program("mixed", 11)
        for config, skip in ((rb_limited(4), True), (ideal(8), False)):
            assert diff_events(config, program, cycle_skip=skip) is None

    def test_identical_streams(self, stream):
        config, program, bus = stream
        assert diff_event_streams(
            config.name, program.name, bus.events, list(bus.events),
            bus.meta, dict(bus.meta),
        ) is None

    def test_mutants_are_reported_at_their_index(self, stream):
        """The negative control: a swapped tie and an off-by-one stall."""
        config, program, bus = stream
        mutants = event_stream_mutants(bus.events)
        assert set(mutants) == {"swapped-tie", "stall-cycle-off-by-one"}
        for label, mutant in mutants.items():
            found = diff_event_streams(
                config.name, program.name, bus.events, mutant
            )
            assert found is not None, label
            assert found.pair == "events"
            index = next(
                i for i, (a, b) in enumerate(zip(bus.events, mutant)) if a != b
            )
            assert found.field.startswith(f"events[{index}].")
        found = diff_event_streams(
            config.name, program.name, bus.events,
            mutants["stall-cycle-off-by-one"],
        )
        assert found.field.endswith(".cycle")
        assert found.right == found.left + 1

    def test_meta_and_length_mismatches(self, stream):
        config, program, bus = stream
        found = diff_event_streams(
            config.name, program.name, bus.events, bus.events,
            bus.meta, {**bus.meta, "cycles": -1},
        )
        assert found is not None and found.field == "meta.cycles"
        found = diff_event_streams(
            config.name, program.name, bus.events, bus.events[:-1],
        )
        assert found is not None
        assert found.field == f"events[{len(bus.events) - 1}]"
        assert found.right == "<absent>"

    def test_tie_free_stream_has_no_swap_site(self):
        events = [
            TraceEvent(0, EventKind.FETCH, 0, "nop"),
            TraceEvent(1, EventKind.STALL, -1, args={"cause": "frontend"}),
        ]
        assert set(event_stream_mutants(events)) == {"stall-cycle-off-by-one"}


#: The golden corpus's machine x kernel x width grid (mirrors
#: tests/integration/test_golden_results.py) — the issue's acceptance bar
#: is that *every* corpus pair has a bit-identical skip/no-skip timeline.
CORPUS = [
    (machine, kernel, width)
    for machine in ("baseline", "staggered", "rb-limited", "rb-full")
    for kernel in ("ijpeg", "li", "compress")
    for width in (4, 8)
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "machine, kernel, width", CORPUS,
    ids=[f"{m}-{w}w-{k}" for m, k, w in CORPUS],
)
def test_timeline_skip_clean_across_golden_corpus(machine, kernel, width):
    config = resolve_machine(machine, width)
    divergence = diff_timeline_skip(config, build(kernel))
    assert divergence is None, divergence and divergence.describe()
