"""Command-line front end: ``python -m repro.analyze`` / ``repro-analyze``.

Five static engines are declared here — the default lint/flow/``--import``
pass, ``flow``, ``plans``, ``proto`` and ``races`` — and the dynamic
``sanitize`` engine joins them in :func:`engines`.  Each is an
:class:`~repro.analyze.driver.Engine`: its own flags and a ``run(ns)``
that collects findings.  Everything after that (filters, formats,
``--report``, exit status) is :func:`repro.analyze.driver.run`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .contracts import verify_callbacks
from .diagnostics import CODE_TABLE, Diagnostic
from .driver import (SCHEMA_VERSION, Engine, Outcome, UsageError,  # noqa: F401
                     _render_github, run)
from .lint import lint_file
from .subjects import import_file, module_datatypes, py_files
from .typecheck import analyze_datatype


def _seeded_flag(p: argparse.ArgumentParser, flag: str, what: str) -> None:
    p.add_argument(flag, action="store_true",
                   help=f"run the seeded {what} corpus instead of a clean "
                        "verification (findings are EXPECTED; exits 2 if a "
                        "fixture escapes its designated RPD code)")


def _seeded(what: str, findings, missed, subjects: int,
            **sections) -> Outcome:
    """The outcome of a seeded-corpus run: an escape exits 2."""
    return Outcome(findings, subjects, report_sections=sections,
                   missed=[f"{what} NOT detected: {m}" for m in missed])


# -- default pass: lint + flow (+ --import) ----------------------------------

def _import_and_analyze(path: str) -> list[Diagnostic]:
    """Import one file and analyze the datatypes it defines at module level.

    Conventions: every module-level ``Datatype`` binding not starting with
    ``_`` is checked statically; a module-level ``ANALYZE_CONTRACT_CASES``
    list of dicts (``dtype``, ``send_buf``, optional ``recv_buf``/``count``/
    ``frag_size``) additionally runs the symbolic contract harness.
    """
    mod, error = import_file(path)
    if mod is None:
        return [Diagnostic("RPD300", error, file=path)]

    diags: list[Diagnostic] = []
    for _name, value in module_datatypes(mod):
        diags.extend(analyze_datatype(value, path=path))
    for case in getattr(mod, "ANALYZE_CONTRACT_CASES", []):
        try:
            diags.extend(verify_callbacks(
                case["dtype"], case.get("send_buf"),
                recv_buf=case.get("recv_buf"),
                count=case.get("count", 1),
                frag_size=case.get("frag_size", 64), path=path))
        except Exception as exc:
            diags.append(Diagnostic(
                "RPD300",
                f"contract case {case.get('dtype')!r} could not run: "
                f"{type(exc).__name__}: {exc}", file=path))
    return diags


class _ListCodes(argparse.Action):
    """``--list-codes``: print the diagnostic table and exit, like --help."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{'code':8s} {'severity':8s} {'mpi error':16s} description")
        for info in CODE_TABLE.values():
            print(f"{info.code:8s} {info.severity:8s} "
                  f"{info.mpi_error_name:16s} {info.title}")
        parser.exit()


def _default_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*", help="files or directories to analyze")
    p.add_argument("--no-flow", action="store_true",
                   help="skip the communication-flow verifier on files "
                        "that define main(comm)")
    p.add_argument("--import", dest="do_import", action="store_true",
                   help="import each file and analyze module-level "
                        "datatypes (executes the files!)")
    p.add_argument("--list-codes", action=_ListCodes, nargs=0,
                   help="print the diagnostic code table and exit")


def _run_default(ns) -> Outcome:
    from .flow import analyze_flow_file

    if not ns.paths:
        raise UsageError("no paths given (or use --list-codes)")
    files = py_files(ns.paths)
    findings: list[Diagnostic] = []
    for path in files:
        per_file = lint_file(path)
        report = None if ns.no_flow else analyze_flow_file(path)
        if report is not None and report.has_main:
            if report.complete:
                # The rank- and tag-aware static matching supersedes the
                # per-file tag heuristic.
                per_file = [d for d in per_file if d.code != "RPD301"]
            per_file.extend(report.findings)
        if ns.do_import:
            per_file.extend(_import_and_analyze(path))
        findings.extend(per_file)
    return Outcome(findings, len(files), suppress_in=files)


DEFAULT = Engine(
    "", "repro.analyze",
    "Static analysis for repro MPI programs and datatypes.",
    _default_arguments, _run_default)


# -- flow --------------------------------------------------------------------

def _job_sizes(spec: str) -> list[int]:
    sizes = [int(part) for part in spec.split(",") if part.strip()]
    if not sizes or min(sizes) < 2:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated job sizes >= 2, got {spec!r}")
    return sizes


def _flow_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*", help="files or directories to verify")
    p.add_argument("--nprocs", type=_job_sizes, default=None,
                   help="comma-separated job sizes to evaluate (default: "
                        "the size the file pins, else 2,3,4 plus symbolic-"
                        "N witnesses)")


def _run_flow(ns) -> Outcome:
    from .flow import analyze_flow_file

    if not ns.paths:
        raise UsageError("no paths given")
    reports = [analyze_flow_file(path, nprocs=ns.nprocs)
               for path in py_files(ns.paths)]
    analyzed = [r for r in reports if r.has_main]   # the rest are skipped
    return Outcome([d for r in analyzed for d in r.findings], len(analyzed),
                   suppress_in=[r.path for r in analyzed])


FLOW = Engine(
    "flow", "repro.analyze.flow",
    "Static communication-flow verification of main(comm) programs "
    "(RPD5xx).", _flow_arguments, _run_flow)


# -- plans -------------------------------------------------------------------

def _plans_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*",
                   help="Python files or directories whose module-level "
                        "datatypes to verify")
    p.add_argument("--ddtbench", action="store_true",
                   help="also verify every registered DDTBench workload "
                        "datatype")
    _seeded_flag(p, "--miscompile-corpus", "miscompile")


def _run_plans(ns) -> Outcome:
    from .planverify import (ddtbench_corpus, verify_datatype,
                             verify_miscompile_corpus)

    if ns.miscompile_corpus:
        return _seeded("seeded miscompile", *verify_miscompile_corpus())
    if not ns.paths and not ns.ddtbench:
        raise UsageError("no paths given (or use --ddtbench / "
                         "--miscompile-corpus)")

    # Collect (subject, datatype, attributed file) from every source.
    findings: list[Diagnostic] = []
    subjects = [(name, dt, None) for name, dt in ddtbench_corpus()] \
        if ns.ddtbench else []
    for path in py_files(ns.paths):
        mod, error = import_file(path)
        if mod is None:
            findings.append(Diagnostic("RPD300", error, file=path))
            continue
        subjects += [(name, dt, path) for name, dt in module_datatypes(mod)]

    reports = [verify_datatype(dt, path=path, subject=name)
               for name, dt, path in subjects]
    findings += [d for rep in reports for d in rep.diagnostics]
    # What each plan compiled to: the same entries in both documents.
    entries = [rep.to_dict() for rep in reports]
    return Outcome(
        findings, len(subjects), json_sections={"plans": entries},
        report_sections={
            "reports": entries,
            "verified": sum(1 for rep in reports if rep.verified),
            "total": len(reports)})


PLANS = Engine(
    "plans", "repro.analyze.plans",
    "Pack-plan IR verification (RPD6xx): translation-validates every "
    "rewrite pass, checks IR well-formedness, and runs the static cost "
    "model.  Files are imported (executed!) and their module-level "
    "datatypes verified.", _plans_arguments, _run_plans,
    findings_in_report=False)


# -- proto -------------------------------------------------------------------

_FAULT_KINDS = ("drop", "corrupt", "duplicate", "reorder", "crash")


def _fault_kinds(spec: str) -> frozenset | None:
    kinds = frozenset(k for k in spec.split(",") if k)
    if kinds - set(_FAULT_KINDS):
        raise argparse.ArgumentTypeError(
            "unknown fault action(s): "
            + ", ".join(sorted(kinds - set(_FAULT_KINDS)))
            + " (choose from " + ",".join(_FAULT_KINDS) + ")")
    return kinds or None


def _proto_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", type=int, default=3, choices=(2, 3, 4),
                   help="ranks in the model-checked scenarios (default: 3)")
    p.add_argument("--depth", type=int, default=60,
                   help="interleaving depth bound (default: 60)")
    p.add_argument("--max-states", type=int, default=200_000,
                   help="per-scenario state-count safety valve "
                        "(default: 200000)")
    p.add_argument("--faults", type=_fault_kinds, default=None,
                   help="comma-separated fault actions to model ("
                        + ",".join(_FAULT_KINDS) + "; default: all)")
    p.add_argument("--no-por", action="store_true",
                   help="disable the partial-order reduction (explores "
                        "the full interleaving set; for debugging)")
    p.add_argument("--conformance", action="store_true",
                   help="also run model traces against the live "
                        "transport (RPD720 on divergence)")
    p.add_argument("--transport", default=None,
                   help="backend the conformance cases run on "
                        "(inproc/shm/asyncio; default: $REPRO_TRANSPORT, "
                        "else inproc)")
    _seeded_flag(p, "--mutants", "protocol-mutant")


def _run_proto(ns) -> Outcome:
    from .protomodel import run_mutant_corpus, verify_shipped

    sections = {"ranks": ns.ranks, "depth": ns.depth}
    if ns.mutants:
        findings, missed, model = run_mutant_corpus(
            nranks=ns.ranks, depth=ns.depth, max_states=ns.max_states)
        return _seeded("protocol mutant", findings, missed,
                       len(model.results), **sections,
                       model=model.to_dict(), mutants_missed=missed)

    model = verify_shipped(nranks=ns.ranks, depth=ns.depth,
                           fault_kinds=ns.faults, max_states=ns.max_states,
                           por=not ns.no_por)
    findings = list(model.diagnostics)
    scenarios = len(model.results)
    sections["model"] = model.to_dict()
    if ns.conformance:
        from .protoconform import run_conformance
        conf = run_conformance(transport=ns.transport)
        findings.extend(conf.diagnostics)
        scenarios += len(conf.cases)
        sections["conformance"] = conf.to_dict()
    return Outcome(findings, scenarios, report_sections=sections)


PROTO = Engine(
    "proto", "repro.analyze.proto",
    "Protocol verification (RPD7xx): bounded model checking of the wire "
    "protocol's state machine over all action interleavings, plus "
    "(--conformance) a live-transport conformance sweep against the "
    "model's predictions.", _proto_arguments, _run_proto,
    findings_in_report=False)


# -- races -------------------------------------------------------------------

def _races_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*",
                   help="files or directories to audit (default: the "
                        "shipped fabric — repro/ucp, repro/mpi and the "
                        "type caches)")
    _seeded_flag(p, "--corpus", "race")
    p.add_argument("--witness", action="store_true",
                   help="also run the dynamic lockset witness (a canned "
                        "multi-rank job under instrumented locks) and "
                        "report runtime-confirmed races as RPD800")


def _run_races(ns) -> Outcome:
    from .races import analyze_paths, run_corpus, shipped_audit_paths

    if ns.corpus:
        findings, missed, nfiles = run_corpus()
        return _seeded("seeded race", findings, missed, nfiles,
                       corpus_missed=missed)

    # analyze_paths applies the ``# noqa`` comments itself (its library
    # callers rely on that), so nothing is left for the driver to suppress.
    findings, nfiles, audit = analyze_paths(
        ns.paths or shipped_audit_paths())
    sections = {"audit": audit.to_dict()}
    if ns.witness:
        from ..sanitize.witness import run_shipped_witness
        wit = run_shipped_witness()
        sections["witness"] = wit.to_dict()
        findings += [Diagnostic(
            "RPD800",
            f"dynamic lockset witness observed {conf.writes} "
            f"unsynchronized write(s) to {conf.cls}.{conf.attr} from "
            f"{conf.threads} thread(s) with no common lock held",
            subject=f"{conf.cls}.{conf.attr}",
            hint="the static audit missed this attribute or its lock "
                 "was bypassed at runtime; guard every write")
            for conf in wit.confirmed]
    return Outcome(findings, nfiles, report_sections=sections)


RACES = Engine(
    "races", "repro.analyze.races",
    "Static concurrency and transport-portability audit (RPD8xx): per-"
    "attribute lockset inference and GIL-atomicity checks over the fabric "
    "classes, a lock-order graph with inversion detection, and a wire-"
    "envelope audit of what a process-boundary transport must copy versus "
    "map.", _races_arguments, _run_races)


# -- registry and entry points -----------------------------------------------

def engines() -> dict[str, Engine]:
    """The registry: subcommand name -> engine (``""`` is the default)."""
    from ..sanitize.cli import SANITIZE
    return {e.name: e for e in (DEFAULT, FLOW, PLANS, PROTO, RACES,
                                SANITIZE)}


def main(argv: list | None = None) -> int:
    """Entry point; returns the process exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    engine = engines().get(argv[0]) if argv and argv[0] else None
    return run(engine, argv[1:]) if engine else run(DEFAULT, argv)


flow_main = functools.partial(run, FLOW)
plans_main = functools.partial(run, PLANS)
proto_main = functools.partial(run, PROTO)
races_main = functools.partial(run, RACES)
