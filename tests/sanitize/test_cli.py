"""``repro-analyze sanitize`` CLI: dispatch, corpus coverage, exit codes."""

import json
import os

from repro.analyze.cli import main

HERE = os.path.dirname(__file__)
REPO = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir))
FIXTURES = os.path.join(HERE, "fixtures")

#: Every seeded-bug fixture and the code it must produce.
CORPUS = {
    "buffer_race_isend.py": "RPD401",
    "recv_truncation.py": "RPD411",
    "signature_mismatch.py": "RPD410",
    "lying_packed_size.py": "RPD430",
    "leaked_request.py": "RPD420",
    "ring_deadlock.py": "RPD440",
}


def run_json(args, capsys):
    rc = main(["sanitize"] + args + ["--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


class TestDispatch:
    def test_subcommand_reaches_sanitizer(self, capsys):
        rc = main(["sanitize"])
        assert rc == 2  # usage error from the sanitize parser, not analyze
        assert "no programs given" in capsys.readouterr().err

    def test_static_cli_untouched(self, capsys):
        rc = main(["--list-codes"])
        assert rc == 0
        assert "RPD440" in capsys.readouterr().out

    def test_missing_path(self, capsys):
        rc = main(["sanitize", os.path.join(FIXTURES, "no_such_file.py")])
        assert rc == 2


class TestSeededCorpus:
    def test_every_fixture_fires_its_code(self, capsys):
        rc, doc = run_json([FIXTURES, "--strict"], capsys)
        assert rc == 1
        fired = {}
        for f in doc["findings"]:
            fired.setdefault(os.path.basename(f["file"]), set()).add(
                f["code"])
        for fixture, code in CORPUS.items():
            assert code in fired.get(fixture, set()), (
                f"{fixture}: expected {code}, got {sorted(fired.get(fixture, []))}")

    def test_corpus_fails_without_strict_too(self, capsys):
        # Error-severity findings (races, mismatches, deadlock) gate the
        # default mode as well.
        rc = main(["sanitize", FIXTURES])
        capsys.readouterr()
        assert rc == 1


class TestCleanPrograms:
    def test_clean_example_exits_zero(self, capsys):
        rc, doc = run_json(
            [os.path.join(REPO, "examples", "quickstart.py"), "--strict"],
            capsys)
        assert rc == 0
        assert doc["summary"]["findings"] == 0
        assert doc["summary"]["aborted"] == []

    def test_entry_less_file_is_skipped(self, capsys):
        rc, doc = run_json(
            [os.path.join(REPO, "examples", "python_objects.py")], capsys)
        assert rc == 0
        assert doc["summary"]["programs"] == 0
        assert len(doc["summary"]["skipped"]) == 1

    def test_duplicate_path_runs_the_job_once(self, capsys):
        quickstart = os.path.join(REPO, "examples", "quickstart.py")
        rc, doc = run_json([quickstart, quickstart], capsys)
        assert rc == 0
        assert doc["summary"]["programs"] == 1

    def test_nprocs_override(self, capsys):
        rc, doc = run_json(
            [os.path.join(REPO, "examples", "quickstart.py"),
             "--nprocs", "2"], capsys)
        assert rc == 0
