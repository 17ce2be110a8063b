"""The SoA engine is bit-identical to the object engine, and selectable.

The structure-of-arrays fast path (:mod:`repro.core.engine`) claims the
same contract as cycle skipping: an implementation detail that changes
no observable output.  These tests audit that claim from the outside —
serialized stats, CPI stacks, and timeline rows over curated kernels and
fuzz programs, crossed with both cycle-skip settings — and pin down the
selection machinery (argument > environment > default, the fallbacks
that need the object graph, and the error on unknown names).
"""

import pytest

from repro.core.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    ENGINES,
    resolve_engine,
)
from repro.core.machine import Machine
from repro.core.presets import baseline, ideal, rb_full, rb_limited
from repro.obs.events import EventBus
from repro.verify.differential import diff_engines, diff_events, first_divergence
from repro.verify.fuzz import fuzz_program
from repro.workloads.suite import build


def _run(config, program, engine, cycle_skip=True, **kwargs):
    return Machine(config).run(
        program, cycle_skip=cycle_skip, engine=engine, **kwargs
    )


class TestEngineSelection:
    def test_engines_registry(self):
        assert ENGINES == ("soa", "objects")
        assert DEFAULT_ENGINE in ENGINES

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "objects")
        assert resolve_engine("soa") == "soa"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "objects")
        assert resolve_engine(None) == "objects"
        monkeypatch.setenv(ENGINE_ENV, "  SoA  ")
        assert resolve_engine(None) == "soa"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine(None) == DEFAULT_ENGINE
        monkeypatch.setenv(ENGINE_ENV, "")
        assert resolve_engine(None) == DEFAULT_ENGINE

    @pytest.mark.parametrize("bogus", ["fast", "SOA2", "object"])
    def test_unknown_engine_raises(self, monkeypatch, bogus):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(bogus)
        monkeypatch.setenv(ENGINE_ENV, bogus)
        with pytest.raises(ValueError, match="unknown engine"):
            Machine(ideal(4)).run(build("li"), engine=None)

    def test_env_selects_engine_end_to_end(self, monkeypatch):
        """REPRO_ENGINE routes a plain ``run`` through either engine with
        identical results."""
        program = build("li")
        config = ideal(4)
        by_env = {}
        for name in ENGINES:
            monkeypatch.setenv(ENGINE_ENV, name)
            by_env[name] = Machine(config).run(program).to_dict()
        assert by_env["soa"] == by_env["objects"]


class TestObjectGraphFallbacks:
    """Only ``record_trace`` (DynInstr records) needs the object engine;
    event-bus runs stay on the SoA engine with an identical stream."""

    def test_record_trace_still_carries_records(self):
        stats = _run(ideal(4), build("li"), "soa", record_trace=True)
        assert stats.trace, "record_trace must still produce DynInstr records"
        assert stats.trace[0].seq == 0

    def test_bus_run_emits_events(self):
        bus = EventBus()
        _run(ideal(4), build("li"), "soa", bus=bus)
        assert bus.events, "bus runs must still emit events"

    def test_bus_run_stays_on_soa(self, monkeypatch):
        """A bus run never enters the object loop, whatever cycle_skip says."""
        import repro.core.machine as machine_module

        def forbidden(*args, **kwargs):
            raise AssertionError("object engine ran a bus run")

        monkeypatch.delenv(ENGINE_ENV, raising=False)
        monkeypatch.setattr(machine_module.Machine, "_issue", forbidden)
        for cycle_skip in (True, False):
            bus = EventBus()
            stats = _run(ideal(4), build("li"), None, cycle_skip, bus=bus)
            assert bus.events and stats.instructions > 0

    @pytest.mark.parametrize("preset", [baseline, rb_limited, rb_full, ideal],
                             ids=lambda p: p.__name__)
    def test_bus_streams_identical(self, preset):
        found = diff_events(preset(4), build("li"))
        assert found is None, found.describe()

    @pytest.mark.parametrize("seed", range(3))
    def test_bus_streams_identical_on_fuzz(self, seed):
        program = fuzz_program(("mixed", "branchy", "serial")[seed], seed)
        found = diff_events(rb_limited(8), program, cycle_skip=seed % 2 == 0)
        assert found is None, found.describe()

    def test_bounded_bus_keeps_same_newest_events(self):
        """``repro trace --buffer 4096``: same kept tail, same drop count."""
        program = build("li")
        buses = {}
        for engine in ENGINES:
            buses[engine] = EventBus(capacity=4096)
            _run(rb_limited(4), program, engine, bus=buses[engine])
        soa, objects = buses["soa"], buses["objects"]
        assert soa.dropped > 0
        assert soa.dropped == objects.dropped
        assert soa.meta == objects.meta
        assert soa.meta["dropped_events"] == soa.dropped
        assert len(soa.events) == 4096
        assert [e.to_dict() for e in soa.events] == [
            e.to_dict() for e in objects.events
        ]

    def test_fallback_matches_soa_stats(self):
        """The traced (object-engine) run agrees with the SoA run.

        Modulo the one deliberate marker: downgrading an *explicit*
        ``engine="soa"`` request is counted in
        ``core.engine.downgraded`` (see ``tests/core/test_batch_parity``
        for the counter's own contract).
        """
        program = build("li")
        traced = _run(ideal(4), program, "soa", record_trace=True)
        plain = _run(ideal(4), program, "soa")
        traced_entry = traced.to_dict()
        assert traced_entry["metrics"]["counters"].pop(
            "core.engine.downgraded"
        ) == 1
        assert traced_entry == plain.to_dict()


@pytest.mark.parametrize("cycle_skip", [True, False], ids=["skip", "no-skip"])
class TestEngineParity:
    """diff_engines over kernels × machines × both cycle-skip settings."""

    @pytest.mark.parametrize("kernel", ["ijpeg", "li", "compress"])
    def test_kernels(self, kernel, cycle_skip):
        found = diff_engines(rb_limited(4), build(kernel), cycle_skip=cycle_skip)
        assert found is None, found.describe()

    @pytest.mark.parametrize(
        "preset", [baseline, rb_limited, rb_full, ideal],
        ids=lambda p: p.__name__,
    )
    def test_machines(self, preset, cycle_skip):
        found = diff_engines(preset(8), build("ijpeg"), cycle_skip=cycle_skip)
        assert found is None, found.describe()

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_programs(self, seed, cycle_skip):
        profile = ("mixed", "branchy", "serial")[seed % 3]
        program = fuzz_program(profile, seed)
        config = (rb_limited(4), ideal(8))[seed % 2]
        found = diff_engines(config, program, cycle_skip=cycle_skip)
        assert found is None, found.describe()


class TestTimelineIdentity:
    def test_timeline_rows_identical(self):
        """Row-by-row timeline equality, not just aggregate stats."""
        program = build("compress")
        config = baseline(8)
        soa = _run(config, program, "soa")
        objects = _run(config, program, "objects")
        assert soa.timeline is not None and objects.timeline is not None
        assert first_divergence(
            soa.timeline.to_dict(), objects.timeline.to_dict()
        ) is None

    def test_timeline_off_both_engines(self):
        for engine in ENGINES:
            stats = _run(ideal(4), build("li"), engine, timeline=False)
            assert getattr(stats, "timeline", None) is None

    def test_timeline_sink_sees_same_rows(self):
        program = build("li")
        rows = {}
        for engine in ENGINES:
            seen = []
            _run(ideal(4), program, engine, timeline_sink=seen.append)
            rows[engine] = [row.to_dict() for row in seen]
        assert rows["soa"] == rows["objects"]
        assert rows["soa"], "sink must observe at least one row"
