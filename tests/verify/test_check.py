"""End-to-end ``repro check``: the report, its JSON artifact, and the CLI."""

import json

from repro.cli import main
from repro.verify.check import REPORT_VERSION, run_check


class TestRunCheck:
    def test_quick_check_passes_end_to_end(self, tmp_path, capsys):
        """One bounded check through the CLI: every section green, exit 0,
        and a parseable JSON report on disk."""
        out_path = tmp_path / "report.json"
        code = main([
            "check", "--quick", "--seeds", "1", "--profiles", "mixed,serial",
            "--jobs", "2", "-o", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0, printed
        assert "PASS" in printed
        payload = json.loads(out_path.read_text())
        assert payload["version"] == REPORT_VERSION
        assert payload["ok"] is True
        assert payload["failures"] == 0
        names = {section["name"] for section in payload["sections"]}
        assert {
            "fuzz",
            "differential:events",
            "differential:cycle-skip",
            "differential:timeline-skip",
            "differential:machine-reuse",
            "differential:run-matrix",
            "differential:rb-adder",
            "invariant:machine-ordering",
            "invariant:bypass-monotonicity",
            "invariant:shadow-state",
            "invariant:cpi-conservation",
        } <= names
        assert all(section["ok"] for section in payload["sections"])

    def test_report_records_failures(self):
        """A synthetic failing section flips ok and the counters."""
        from repro.verify.check import CheckReport, Section

        report = CheckReport(quick=True)
        report.sections.append(Section("fuzz", cases=3))
        report.sections.append(Section(
            "differential:cycle-skip", cases=2,
            failures=[{"detail": "cycles: 10 != 11"}],
        ))
        assert not report.ok
        assert report.total_cases() == 5
        assert report.total_failures() == 1
        assert "FAIL" in report.summary()
        assert "cycles: 10 != 11" in report.summary()

    def test_run_check_api_defaults(self, tmp_path):
        report = run_check(
            quick=True, seeds=[0], profiles=["mixed"],
            workdir=tmp_path, adder_trials=50,
        )
        assert report.ok
        assert report.quick
