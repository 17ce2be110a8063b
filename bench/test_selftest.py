"""Self-test of the benchmark's own checks, at tiny size (about a minute).

    python3 -m pytest bench/test_selftest.py

Negative controls: a corrupted digest and a forced non-2xx reply must
each drive ``error_rate`` above 0, while the same tiny runs with the
true table and plan stay at 0.  It also pins that every metric named in
``BENCHMARK.json`` is emitted, finite and carries its unit, and that the
digest table agrees with ``tests/golden/`` wherever both hold a pair.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's input to seconds of work.

    Rounds run in this interpreter rather than in fresh ones, so the
    patched inputs reach them.
    """
    import repro.core.presets as presets

    monkeypatch.setattr(run, "spawn", run.child_report)
    monkeypatch.setattr(run, "SETUP_PER_ROUND", 1)
    monkeypatch.setattr(presets, "PARETO_ADDER_FAMILIES", ("ripple",))
    monkeypatch.setattr(inputs, "MACHINES", ("ideal",))
    monkeypatch.setattr(inputs, "EXPLAIN_KERNELS", ("li",))
    monkeypatch.setattr(inputs, "SERVE_SCHEDULE", ("dup", "repeat", "small"))
    monkeypatch.setattr(inputs, "SMALL_SIZES", (2,))


def bench(capsys, workload: str, trace: int = 0) -> tuple[dict, str]:
    """Run the benchmark in-process; return its result object and output."""
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.splitlines()[-1]), out


def error_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]


def test_benchmark_json_names_the_metrics_the_code_emits():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.parse_args(["--workload", "explain"]).seconds == BENCHMARK["run_seconds"]


@pytest.mark.parametrize("workload", ["pareto-sweep", "explain", "serve-mix"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_finite_with_its_unit(tiny, capsys, workload, trace):
    result, out = bench(capsys, workload, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    assert result["correct"] and result["failed"] == 0, out


def test_children_run_the_program_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "objects")
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("BENCH_UNRELATED", "kept")
    env = run.child_env()
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["BENCH_UNRELATED"] == "kept"


def test_corrupted_digest_raises_error_rate(tiny, capsys, monkeypatch):
    table = checks.load_table()
    key = "RB-full-4w::li"
    table["digests"][key] = "0" * 64
    monkeypatch.setattr(inputs, "MACHINES", ("rb-full",))
    monkeypatch.setattr(checks, "load_table", lambda path=checks.DIGESTS_FILE: table)
    result, out = bench(capsys, "explain")
    assert error_rate(result) > 0
    assert not result["correct"]
    assert f"{key}: statistics digest mismatch" in out


def test_forced_non_2xx_reply_raises_error_rate(tiny, capsys, monkeypatch):
    real_plan = inputs.serve_plan

    def plan_with_bad_machine(seed: int) -> inputs.ServePlan:
        plan = real_plan(seed)
        bad = inputs.Request("miss", (inputs.Job("no-such-machine", "ijpeg", 4),))
        first, *rest = plan.clients
        return inputs.ServePlan((first + (bad,), *rest), plan.programs)

    monkeypatch.setattr(inputs, "serve_plan", plan_with_bad_machine)
    result, out = bench(capsys, "serve-mix")
    assert error_rate(result) > 0
    assert "HTTP 400" in out


def test_digest_table_agrees_with_the_golden_corpus():
    from record_digests import golden_mismatches

    compared, wrong = golden_mismatches(checks.load_table())
    assert compared > 0
    assert wrong == []
