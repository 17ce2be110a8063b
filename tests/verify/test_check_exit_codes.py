"""Regression tests for ``repro check`` exit-code and report-write paths.

Three contracts, each of which has broken (or could break) silently:

* a clean ``--quick`` check exits 0 (covered end-to-end in
  ``test_check.py``; re-asserted here on a minimal run);
* an injected invariant violation exits nonzero *and* the JSON report is
  written;
* an audit that **raises** (not merely reports a violation) no longer
  aborts the check — the report is still written, the crashed section
  carries the failure, and the exit code is nonzero.  Before the
  ``_Timer`` fix, the exception escaped ``run_check`` and ``-o`` never
  produced a file.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.verify import check, differential, invariants
from repro.verify.check import run_check


@pytest.fixture
def tiny_check(monkeypatch):
    """Shrink the heavyweight audit workloads so each check run is fast."""
    monkeypatch.setattr(check, "QUICK_ORDERING_WORKLOADS", ["fuzz:serial:5"])
    monkeypatch.setattr(check, "MONOTONICITY_WORKLOAD", "fuzz:serial:5")
    monkeypatch.setattr(check, "EVENT_KERNELS", ["fuzz:serial:5"])


def run_cli_check(tmp_path):
    out_path = tmp_path / "check-report.json"
    code = main([
        "check", "--quick", "--seeds", "1", "--profiles", "serial",
        "--jobs", "1", "-o", str(out_path),
    ])
    return code, out_path


def test_clean_quick_check_exits_zero(tiny_check, tmp_path):
    code, out_path = run_cli_check(tmp_path)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True and payload["failures"] == 0


def test_injected_invariant_failure_exits_nonzero_with_report(
    tiny_check, monkeypatch, tmp_path
):
    class FakeViolation:
        def as_dict(self):
            return {"detail": "injected: ideal slower than baseline"}

    monkeypatch.setattr(
        invariants, "audit_machine_ordering",
        lambda *args, **kwargs: [FakeViolation()],
    )
    code, out_path = run_cli_check(tmp_path)
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is False and payload["failures"] >= 1
    ordering = next(
        s for s in payload["sections"] if s["name"] == "invariant:machine-ordering"
    )
    assert ordering["failures"][0]["detail"].startswith("injected")


def test_crashing_audit_still_writes_report_and_exits_nonzero(
    tiny_check, monkeypatch, tmp_path
):
    def explode(*args, **kwargs):
        raise RuntimeError("audit blew up")

    monkeypatch.setattr(differential, "diff_cycle_skip", explode)
    code, out_path = run_cli_check(tmp_path)
    assert code == 1
    assert out_path.exists(), "check-report.json must be written on failure"
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is False
    crashed = next(
        s for s in payload["sections"] if s["name"] == "differential:cycle-skip"
    )
    assert not crashed["ok"]
    assert "audit crashed" in crashed["failures"][0]["detail"]
    assert "RuntimeError" in crashed["failures"][0]["detail"]
    # The crash did not abort the later sections.
    later = [s["name"] for s in payload["sections"]]
    assert "invariant:cpi-conservation" in later


def test_crashing_audit_does_not_swallow_keyboard_interrupt(tiny_check, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(differential, "diff_cycle_skip", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_check(quick=True, seeds=[0], profiles=["serial"], adder_trials=10)
