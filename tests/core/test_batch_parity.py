"""Batched lockstep simulation is bit-identical to solo runs.

:func:`~repro.core.engine.run_soa_batch` advances N independent machine
states over one decoded program, sharing the fetch probe, rename plans,
and steering columns.  Its contract is the same as the SoA engine's and
cycle skipping's: an implementation detail that changes no observable
output.  These tests audit that claim over mixed presets, mixed widths,
and mixed per-config ``cycle_skip`` settings, pin the ``run_batch``
convenience API and the ``batchable`` predicate, and keep two
regressions dead: the three-source CMOV overflow in the rename plan,
and the silent engine downgrade on an explicit ``engine="soa"``
request.
"""

import dataclasses
import logging

import pytest

from repro.core import machine as machine_module
from repro.core.engine import batchable, run_soa_batch
from repro.core.machine import Machine, run_batch
from repro.core.presets import (
    baseline,
    ideal,
    paper_matrix,
    rb_full,
    rb_limited,
)
from repro.obs.events import EventBus
from repro.verify.differential import diff_batch, first_divergence
from repro.verify.fuzz import fuzz_program
from repro.workloads.suite import build

PRESETS = (baseline, rb_limited, rb_full, ideal)
KERNELS = ("ijpeg", "li", "compress")

_programs: dict[str, object] = {}


def _program(name):
    if name not in _programs:
        _programs[name] = build(name)
    return _programs[name]


class TestBatchParity:
    """The ISSUE's acceptance grid: 4 presets x 3 kernels x 2 widths."""

    @pytest.mark.parametrize("width", (4, 8))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mixed_preset_batch(self, kernel, width):
        configs = [preset(width) for preset in PRESETS]
        skips = [index % 2 == 0 for index in range(len(configs))]
        divergences = diff_batch(configs, _program(kernel), cycle_skip=skips)
        assert divergences == [], [d.describe() for d in divergences]

    def test_mixed_width_batch(self):
        configs = [baseline(4), baseline(8), rb_full(4), rb_full(8)]
        divergences = diff_batch(configs, _program("li"))
        assert divergences == [], [d.describe() for d in divergences]

    def test_three_source_cmov_parity(self):
        # Conditional moves read three registers (condition, value, old
        # destination); the rename plan packs (s0, s1) and spills the
        # rest to the sparse overflow column.  This program used to
        # raise "more than two renamed sources" instead of simulating.
        program = fuzz_program("mixed", 0)
        assert any(
            sum(1 for op in instr.sources if op.is_reg and op.reg != 0) > 2
            for instr in program.instructions
        ), "fixture lost its three-source instruction"
        divergences = diff_batch(
            [baseline(4), rb_full(8)], program, cycle_skip=[True, False]
        )
        assert divergences == [], [d.describe() for d in divergences]


class TestRunBatchApi:
    def test_matches_solo_runs(self):
        configs = [baseline(4), ideal(4)]
        batch = run_batch(configs, "compress")
        for config, stats in zip(configs, batch):
            solo = Machine(config).run(_program("compress"))
            assert first_divergence(solo.to_dict(), stats.to_dict()) is None

    def test_batch_seconds_recorded(self):
        stats = run_batch([baseline(4)], "compress")[0]
        assert stats.batch_seconds > 0

    def test_unbatchable_config_still_exact(self):
        # Dependence steering cannot be precomputed; run_soa_batch must
        # fall back to a solo run for it, not refuse the whole batch.
        steered = dataclasses.replace(
            baseline(4), name="dep-steer", steering_policy="dependence"
        )
        configs = [baseline(4), steered]
        batch = run_soa_batch(
            [Machine(config) for config in configs], _program("compress")
        )
        for config, stats in zip(configs, batch):
            solo = Machine(config).run(_program("compress"))
            assert first_divergence(solo.to_dict(), stats.to_dict()) is None

    def test_batchable_predicate(self):
        assert batchable(baseline(4))
        assert not batchable(
            dataclasses.replace(
                baseline(4), name="dep-steer", steering_policy="dependence"
            )
        )

    def test_paper_matrix_covers_both_widths(self):
        matrix = paper_matrix()
        assert len(matrix) == 8
        assert {config.width for config in matrix} == {4, 8}
        assert all(batchable(config) for config in matrix)


class TestExplicitSoaDowngrade:
    """engine="soa" + record_trace must downgrade *loudly*; a bus does not
    downgrade at all."""

    def test_explicit_request_counts_downgrade(self, monkeypatch):
        monkeypatch.setattr(machine_module, "_DOWNGRADE_WARNED", True)
        stats = Machine(baseline(4)).run(
            _program("compress"), engine="soa", record_trace=True
        )
        counters = stats.to_dict()["metrics"]["counters"]
        assert counters["core.engine.downgraded"] == 1
        assert stats.trace is not None

    def test_warning_logged_once_per_process(self, monkeypatch, caplog):
        monkeypatch.setattr(machine_module, "_DOWNGRADE_WARNED", False)
        with caplog.at_level(logging.WARNING, logger="repro.core.machine"):
            for _ in range(2):
                Machine(baseline(4)).run(
                    _program("compress"), engine="soa", record_trace=True
                )
        warnings = [
            record for record in caplog.records
            if "running the object engine instead" in record.getMessage()
        ]
        assert len(warnings) == 1

    def test_explicit_soa_bus_run_is_not_a_downgrade(self, monkeypatch, caplog):
        # The SoA engine serves event buses itself: no counter, no warning.
        monkeypatch.setattr(machine_module, "_DOWNGRADE_WARNED", False)
        bus = EventBus()
        with caplog.at_level(logging.WARNING, logger="repro.core.machine"):
            stats = Machine(baseline(4)).run(
                _program("compress"), engine="soa", bus=bus
            )
        counters = stats.to_dict()["metrics"]["counters"]
        assert "core.engine.downgraded" not in counters
        assert bus.events
        assert not machine_module._DOWNGRADE_WARNED
        assert not [
            record for record in caplog.records
            if "running the object engine instead" in record.getMessage()
        ]

    def test_implicit_selection_not_counted(self, monkeypatch):
        # engine=None resolving to the SoA default and then needing the
        # object graph is normal selection, not a downgrade of an
        # explicit request — no counter, no warning.
        monkeypatch.setattr(machine_module, "_DOWNGRADE_WARNED", True)
        stats = Machine(baseline(4)).run(
            _program("compress"), record_trace=True
        )
        counters = stats.to_dict()["metrics"]["counters"]
        assert "core.engine.downgraded" not in counters
