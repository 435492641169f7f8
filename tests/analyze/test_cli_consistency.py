"""Cross-subcommand CLI consistency (RPD8xx satellite).

Every ``repro-analyze`` subcommand that reports findings must behave
identically at the edges: ``--report FILE`` writes a JSON document with
the same ``version``/``tool`` envelope, and ``--format github`` ends with
the same human-readable trailer line.  This test enumerates the
subcommands so a new one cannot ship without joining the contract."""

import json

import pytest

from repro.analyze.cli import SCHEMA_VERSION, main

#: (subcommand, tool name, needs a path argument)
SUBCOMMANDS = [
    ("", "repro.analyze", True),
    ("flow", "repro.analyze.flow", True),
    ("plans", "repro.analyze.plans", True),
    ("proto", "repro.analyze.proto", False),
    ("races", "repro.analyze.races", True),
]
IDS = [tool for _, tool, _need in SUBCOMMANDS]


def _argv(subcmd, needs_path, target, extra):
    argv = [subcmd] if subcmd else []
    if subcmd == "proto":
        # Keep the model exploration small; the contract under test is
        # the CLI edge, not the state space.
        argv += ["--ranks", "2", "--depth", "40"]
    if needs_path:
        argv.append(str(target))
    return argv + extra


@pytest.fixture()
def target(tmp_path):
    """A clean subject module every subcommand accepts."""
    mod = tmp_path / "subject.py"
    mod.write_text('"""clean subject: no findings in any engine."""\n'
                   "X = 1\n")
    return mod


@pytest.mark.parametrize("subcmd,tool,needs_path", SUBCOMMANDS, ids=IDS)
def test_report_has_common_envelope(subcmd, tool, needs_path, target,
                                    tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(_argv(subcmd, needs_path, target,
                    ["--report", str(out)]))
    assert rc in (0, 1)
    doc = json.loads(out.read_text())
    assert doc["version"] == SCHEMA_VERSION
    assert doc["tool"] == tool


@pytest.mark.parametrize("subcmd,tool,needs_path", SUBCOMMANDS, ids=IDS)
def test_github_format_ends_with_trailer(subcmd, tool, needs_path, target,
                                         capsys):
    rc = main(_argv(subcmd, needs_path, target, ["--format", "github"]))
    assert rc in (0, 1)
    lines = capsys.readouterr().out.strip().splitlines()
    trailer = lines[-1]
    assert trailer.startswith("clean:") or " finding(s) in " in trailer
    # Annotations, if any, precede the trailer and use workflow syntax.
    for line in lines[:-1]:
        assert line.startswith(("::error", "::warning", "::notice"))


@pytest.mark.parametrize("subcmd,tool,needs_path", SUBCOMMANDS, ids=IDS)
def test_report_and_stdout_json_share_summary(subcmd, tool, needs_path,
                                              target, tmp_path, capsys):
    """--report must not change what --format json prints (and for the
    findings-based tools the two documents carry the same summary)."""
    out = tmp_path / "report.json"
    rc = main(_argv(subcmd, needs_path, target,
                    ["--format", "json", "--report", str(out)]))
    assert rc in (0, 1)
    stdout_doc = json.loads(capsys.readouterr().out)
    report_doc = json.loads(out.read_text())
    assert stdout_doc["version"] == SCHEMA_VERSION
    if "summary" in report_doc:
        assert report_doc["summary"] == stdout_doc["summary"]


@pytest.mark.parametrize("executor", ["auto", "slices", "gather"])
def test_plans_executor_option_is_gone(executor, target, capsys):
    """The backend is chosen by the form-gather pass alone; the removed
    ``--executor`` flag is a usage error, not a silent no-op."""
    assert main(["plans", str(target), "--executor", executor]) == 2
    assert "--executor" in capsys.readouterr().err
