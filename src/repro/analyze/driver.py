"""The one findings pipeline behind every ``repro-analyze`` subcommand.

An :class:`Engine` says *what* to analyze: its own flags and a
``run(ns)`` that returns an :class:`Outcome`.  :func:`run` owns everything
between a list of findings and a process exit status — the common flags,
unknown-code rejection, ``# noqa`` suppression, severity/select/ignore
filtering, text/JSON/GitHub rendering, ``--report`` and the exit rule:

* 2 — usage error, or a seeded fixture escaped its designated code;
* 1 — findings that fail the engine's severity policy, or an aborted job;
* 0 — clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from ..ucp.transport import TransportUnavailableError
from .diagnostics import (CODE_TABLE, SCHEMA_VERSION, SEVERITIES,
                          STRICT_ONLY_SEVERITIES, Diagnostic,
                          sort_diagnostics, tally)
from .suppress import suppress_files


class UsageError(Exception):
    """An engine rejects its arguments: usage + message on stderr, exit 2."""


@dataclass(frozen=True)
class Policy:
    """What ``--strict`` means to an engine, as data."""

    #: Severities left out of every output unless ``--strict`` is given.
    hidden: frozenset
    #: Severities that fail the run without ``--strict`` (all do with it).
    failing: frozenset


#: Static engines: smells and tool notices are opt-in, whatever is shown fails.
STATIC_POLICY = Policy(STRICT_ONLY_SEVERITIES, frozenset(SEVERITIES))
#: The sanitizer: everything observed is shown, only errors fail the run.
DYNAMIC_POLICY = Policy(frozenset(), frozenset({"error"}))


@dataclass
class Outcome:
    """What one engine run produced, before any filtering."""

    findings: list
    #: How many subjects (files, datatypes, scenarios, jobs) were analyzed.
    subjects: int = 0
    #: Extra top-level keys of the ``--report`` document.
    report_sections: dict = field(default_factory=dict)
    #: Seeded fixtures that escaped their designated code (exit 2).
    missed: list = field(default_factory=list)
    #: One line per failed rank of an aborted job (exit 1).
    aborted: list = field(default_factory=list)
    #: Source files whose ``# noqa`` comments apply to ``findings``.
    suppress_in: list = field(default_factory=list)
    #: Extra top-level keys of the ``--format json`` document.
    json_sections: dict = field(default_factory=dict)
    #: Extra ``summary`` keys (JSON and report).
    summary: dict = field(default_factory=dict)
    #: Informational lines printed after the findings.
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class Engine:
    """One analyzer behind the shared front door."""

    #: Subcommand name (``""`` is the default pass).
    name: str
    #: ``tool`` of the ``--report`` document; stdout JSON names the package.
    tool: str
    description: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], Outcome]
    policy: Policy = STATIC_POLICY
    #: Whether ``--report`` opens with the findings/summary document.
    findings_in_report: bool = True
    #: What ``Outcome.subjects`` counts, for the trailer line.
    unit: str = "file(s)"


def build_parser(engine: Engine) -> argparse.ArgumentParser:
    """The engine's own flags plus the common ones, declared once."""
    p = argparse.ArgumentParser(
        prog=f"repro-analyze {engine.name}".strip(),
        description=engine.description)
    engine.add_arguments(p)
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text",
                   help="output format (default: text); 'github' emits "
                        "GitHub Actions workflow annotations")
    p.add_argument("--strict", action="store_true",
                   help="static engines: also report perf- and notice-"
                        "severity findings; sanitize: exit nonzero on "
                        "warnings too, not just errors")
    p.add_argument("--select", default="",
                   help="comma-separated code prefixes to keep "
                        "(e.g. RPD3,RPD101)")
    p.add_argument("--ignore", default="",
                   help="comma-separated code prefixes to drop")
    p.add_argument("--report", metavar="FILE", default="",
                   help="write the engine's JSON report to FILE "
                        "(independent of --format)")
    return p


def _code_prefixes(ns) -> tuple[tuple, tuple]:
    """The ``--select``/``--ignore`` prefixes; every token must be a prefix
    of a registered code (``RPD610``, ``RPD6``), so a typo like ``RPD16``
    cannot silently match nothing."""
    select, ignore = (tuple(t for t in spec.split(",") if t)
                      for spec in (ns.select, ns.ignore))
    bad = sorted({t for t in select + ignore
                  if not any(code.startswith(t) for code in CODE_TABLE)})
    if bad:
        raise UsageError("unknown diagnostic code or prefix: "
                         + ", ".join(bad) + " (run 'repro-analyze "
                         "--list-codes' for the table)")
    return select, ignore


def _gh_escape(text: str, *, prop: bool = False) -> str:
    """GitHub Actions workflow-command escaping."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if prop:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


def _render_github(findings) -> str:
    """One ``::error file=…,line=…,col=…`` annotation per finding."""
    lines = []
    for d in findings:
        level = d.severity if d.severity in ("error", "warning") else "notice"
        props = []
        if d.file:
            props.append(f"file={_gh_escape(d.file, prop=True)}")
        if d.line:
            props.append(f"line={d.line}")
            props.append(f"col={d.col + 1}")   # annotations are 1-based
        props.append(f"title={d.code}")
        message = d.message + (f" [{d.subject}]" if d.subject else "")
        lines.append(f"::{level} {','.join(props)}::{_gh_escape(message)}")
    return "\n".join(lines)


def _emit(engine: Engine, outcome: Outcome, findings, doc: dict,
          fmt: str) -> None:
    if fmt == "json":
        package = ".".join(engine.tool.split(".")[:2])
        print(json.dumps({**doc, "tool": package, **outcome.json_sections},
                         indent=2))
        return
    if fmt == "github":
        lines = [_render_github(findings)] if findings else []
        lines += [f"::error::{_gh_escape(m)}" for m in outcome.aborted]
        lines += [f"::notice::{_gh_escape(m)}" for m in outcome.notes]
    else:
        lines = [d.format_text() for d in findings]
        lines += outcome.aborted + outcome.notes
    n, unit = outcome.subjects, engine.unit
    lines.append(f"{len(findings)} finding(s) in {n} {unit}"
                 if findings or outcome.aborted
                 else f"clean: {n} {unit}, no findings")
    print("\n".join(lines))


def run(engine: Engine, argv=None) -> int:
    """Run one engine over ``argv``; returns the process exit status."""
    parser = build_parser(engine)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        select, ignore = _code_prefixes(ns)
        outcome = engine.run(ns)
    except (UsageError, FileNotFoundError, TransportUnavailableError) as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for escaped in outcome.missed:
        print(f"error: {escaped}", file=sys.stderr)

    hidden = () if ns.strict else engine.policy.hidden
    findings: list[Diagnostic] = sort_diagnostics(
        d for d in suppress_files(outcome.findings, outcome.suppress_in)
        if d.severity not in hidden
        and (not select or d.code.startswith(select))
        and not d.code.startswith(ignore))
    doc = {"version": SCHEMA_VERSION, "tool": engine.tool,
           "findings": [d.to_dict() for d in findings],
           "summary": {"files": outcome.subjects, "findings": len(findings),
                       **tally(findings), **outcome.summary}}
    if ns.report:
        report = doc if engine.findings_in_report else \
            {"version": SCHEMA_VERSION, "tool": engine.tool}
        with open(ns.report, "w") as fh:
            json.dump({**report, **outcome.report_sections}, fh, indent=2)
            fh.write("\n")
    _emit(engine, outcome, findings, doc, ns.format)
    if outcome.missed:
        return 2
    failing = any(ns.strict or d.severity in engine.policy.failing
                  for d in findings)
    return 1 if failing or outcome.aborted else 0
