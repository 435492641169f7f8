"""Cross-engine CLI consistency, driven from the ``Engine`` registry.

Every ``repro-analyze`` engine runs through one driver, so all of them
must behave identically at the edges: ``--report FILE`` writes a JSON
document with the same ``version``/``tool`` envelope, ``--format github``
ends with the same human-readable trailer line, and a mistyped
``--select``/``--ignore`` token is a usage error.  The cases enumerate
:func:`repro.analyze.cli.engines`, so a new engine cannot skip the
contract."""

import json
import os

import pytest

from repro.analyze.cli import SCHEMA_VERSION, engines, main
from repro.analyze.diagnostics import SEVERITIES
from repro.analyze.driver import build_parser

ENGINES = list(engines().values())
IDS = [engine.tool for engine in ENGINES]
COMMON_FLAGS = ("--format", "--strict", "--select", "--ignore", "--report")
DOCS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "docs", "diagnostics.md")


def _argv(engine, target, extra):
    argv = [engine.name] if engine.name else []
    if engine.name == "proto":
        # Keep the model exploration small; the contract under test is
        # the CLI edge, not the state space.
        argv += ["--ranks", "2", "--depth", "40"]
    positional = any(not a.option_strings
                     for a in build_parser(engine)._actions)
    return argv + ([str(target)] if positional else []) + extra


@pytest.fixture()
def target(tmp_path):
    """A clean subject module every engine accepts."""
    mod = tmp_path / "subject.py"
    mod.write_text('"""clean subject: no findings in any engine."""\n'
                   "X = 1\n")
    return mod


def test_registry_is_the_six_engines():
    assert sorted(engines()) == ["", "flow", "plans", "proto", "races",
                                 "sanitize"]


@pytest.mark.parametrize("engine", ENGINES, ids=IDS)
def test_report_has_common_envelope(engine, target, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(_argv(engine, target, ["--report", str(out)]))
    assert rc in (0, 1)
    doc = json.loads(out.read_text())
    assert doc["version"] == SCHEMA_VERSION
    assert doc["tool"] == engine.tool


@pytest.mark.parametrize("engine", ENGINES, ids=IDS)
def test_github_format_ends_with_trailer(engine, target, capsys):
    rc = main(_argv(engine, target, ["--format", "github"]))
    assert rc in (0, 1)
    lines = capsys.readouterr().out.strip().splitlines()
    trailer = lines[-1]
    assert trailer.startswith("clean:") or " finding(s) in " in trailer
    # Annotations, if any, precede the trailer and use workflow syntax.
    for line in lines[:-1]:
        assert line.startswith(("::error", "::warning", "::notice"))


@pytest.mark.parametrize("engine", ENGINES, ids=IDS)
def test_report_and_stdout_json_share_summary(engine, target, tmp_path,
                                              capsys):
    """--report must not change what --format json prints (and for the
    findings-based tools the two documents carry the same summary)."""
    out = tmp_path / "report.json"
    rc = main(_argv(engine, target,
                    ["--format", "json", "--report", str(out)]))
    assert rc in (0, 1)
    stdout_doc = json.loads(capsys.readouterr().out)
    report_doc = json.loads(out.read_text())
    assert stdout_doc["version"] == SCHEMA_VERSION
    assert ("summary" in report_doc) == engine.findings_in_report
    if "summary" in report_doc:
        assert report_doc["summary"] == stdout_doc["summary"]


@pytest.mark.parametrize("flag", ["--select", "--ignore"])
@pytest.mark.parametrize("engine", ENGINES, ids=IDS)
def test_unknown_code_filter_is_a_usage_error(engine, flag, target, capsys):
    assert main(_argv(engine, target, [flag, "RPD3,RPD16"])) == 2
    err = capsys.readouterr().err
    assert "unknown diagnostic code or prefix: RPD16" in err
    assert "--list-codes" in err


def _doc_rows(engine):
    """The rows docs/diagnostics.md "Command line" carries for one engine:
    its severity policy, then one row per argument of its parser."""
    command = f"`repro-analyze {engine.name}".rstrip() + "`"
    shown = [s for s in SEVERITIES if s not in engine.policy.hidden]
    fails = [s for s in shown if s in engine.policy.failing]
    yield (f"| {command} | `{engine.tool}` | {', '.join(shown)} "
           f"| {', '.join(fails)} |")
    for action in build_parser(engine)._actions:
        flag = action.option_strings[-1] if action.option_strings \
            else f"{action.dest} …"
        if flag == "--help":
            continue
        if action.option_strings and action.nargs != 0:
            flag += " " + (
                action.metavar
                or ("{" + ",".join(map(str, action.choices)) + "}"
                    if action.choices else action.dest.upper()))
        text = " ".join(action.help.split())
        yield (f"| `{flag}` | {text} |" if flag.split()[0] in COMMON_FLAGS
               else f"| {command} | `{flag}` | {text} |")


@pytest.mark.parametrize("engine", ENGINES, ids=IDS)
def test_command_line_docs_match_the_registry(engine):
    """The "Command line" section is generated from the registry's
    parsers; a failure prints the row to paste."""
    with open(DOCS, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ")[0]
    for row in _doc_rows(engine):
        assert row in section, f"docs/diagnostics.md lacks:\n{row}"


@pytest.mark.parametrize("executor", ["auto", "slices", "gather"])
def test_plans_executor_option_is_gone(executor, target, capsys):
    """The backend is chosen by the form-gather pass alone; the removed
    ``--executor`` flag is a usage error, not a silent no-op."""
    assert main(["plans", str(target), "--executor", executor]) == 2
    assert "--executor" in capsys.readouterr().err
