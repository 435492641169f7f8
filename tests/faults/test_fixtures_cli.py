"""The sanitize CLI over the seeded chaos fixtures (what the CI job runs).

The fixtures declare their fault plans as module attributes
(``FAULTS``/``RELIABILITY``), so ``repro-analyze sanitize`` replays the
exact seeded scenario and its RPD45x findings are deterministic.
"""

import json
import os

import pytest

from repro.sanitize.cli import main as sanitize_main, run_program

from ..conftest import require_transport_capability


@pytest.fixture(autouse=True)
def _sanitizer_backend():
    """Every test here replays fixtures under the sanitizer."""
    require_transport_capability("shared_address_space")


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
LOSSY = os.path.join(FIXTURES, "lossy_no_reliability.py")
EXHAUSTED = os.path.join(FIXTURES, "retry_exhausted.py")


class TestRunProgram:
    def test_lossy_fixture_reports_rpd450(self):
        report = run_program(LOSSY, timeout=30)
        assert not report.aborted  # MPI_ERRORS_RETURN: ranks survive
        assert "RPD450" in report.codes()
        totals = report.reliability_totals()
        assert totals["lost_messages"] == 1

    def test_exhausted_fixture_reports_rpd452(self):
        report = run_program(EXHAUSTED, timeout=30)
        assert not report.aborted
        assert "RPD452" in report.codes()
        assert report.reliability_totals()["exhausted"] >= 1

    def test_reliability_shows_in_text_and_json(self, tmp_path, capsys):
        report = run_program(EXHAUSTED, timeout=30)
        assert "reliability:" in report.format_text()
        out = tmp_path / "report.json"
        sanitize_main(["--format", "json", "--report", str(out), EXHAUSTED])
        for doc in (json.loads(capsys.readouterr().out),
                    json.loads(out.read_text())):
            totals = doc["summary"]["reliability"][EXHAUSTED]
            assert totals["retransmits"] > 0


class TestCliExit:
    def test_strict_exit_and_codes(self, capsys):
        rc = sanitize_main(["--strict", "--format", "json", LOSSY, EXHAUSTED])
        assert rc == 1  # findings present
        doc = json.loads(capsys.readouterr().out)
        by_code = doc["summary"]["by_code"]
        assert by_code.get("RPD450", 0) >= 1
        assert by_code.get("RPD452", 0) >= 1
        assert doc["summary"]["aborted"] == []
        assert doc["summary"]["reliability"]  # per-program totals present

    def test_text_mode_prints_reliability(self, capsys):
        rc = sanitize_main([EXHAUSTED])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPD452" in out
        assert "reliability:" in out

    def test_deterministic_across_invocations(self):
        reports = [run_program(EXHAUSTED, timeout=30) for _ in range(2)]
        assert [d.code for d in reports[0].diagnostics] == \
            [d.code for d in reports[1].diagnostics]
        assert reports[0].reliability == reports[1].reliability
