"""Command-line front end: ``python -m repro.analyze`` / ``repro-analyze``.

Lints every ``.py`` file under the given paths; with ``--import`` it also
imports each file and analyzes the module-level datatypes it defines (plus
any ``ANALYZE_CONTRACT_CASES`` harness cases).  Exit status is 1 iff
findings were reported, 2 on usage errors, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from typing import Optional

from .contracts import verify_callbacks
from .diagnostics import (CODE_TABLE, STRICT_ONLY_SEVERITIES, Diagnostic,
                          sort_diagnostics)
from .lint import lint_file
from .suppress import apply_suppressions
from .typecheck import analyze_datatype

#: JSON schema version; bump only on incompatible output changes.
SCHEMA_VERSION = 1


def _iter_py_files(paths):
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__"
                                     and not d.startswith("."))
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        seen.append(os.path.join(dirpath, fn))
        elif os.path.isfile(path):
            seen.append(path)
        else:
            raise FileNotFoundError(path)
    out = []
    for p in seen:
        if p not in out:
            out.append(p)
    return out


def _import_module(path: str):
    """Import one file under a throwaway module name.

    Returns ``(module, None)`` or ``(None, RPD300 Diagnostic)`` on failure.
    """
    modname = "_repro_analyze_" + os.path.basename(path)[:-3].replace(
        "-", "_") + f"_{abs(hash(os.path.abspath(path))) % 10 ** 8}"
    try:
        spec = importlib.util.spec_from_file_location(modname, path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[modname] = mod
        spec.loader.exec_module(mod)
        return mod, None
    except Exception as exc:
        return None, Diagnostic(
            "RPD300", f"import failed: {type(exc).__name__}: {exc}",
            file=path)
    finally:
        sys.modules.pop(modname, None)


def _module_datatypes(mod) -> list[tuple[str, object]]:
    """Module-level non-underscore ``Datatype`` bindings, deduplicated."""
    from ..core.datatype import Datatype

    out: list[tuple[str, object]] = []
    seen: set[int] = set()
    for name, value in sorted(vars(mod).items()):
        if name.startswith("_") or not isinstance(value, Datatype):
            continue
        if id(value) in seen:
            continue
        seen.add(id(value))
        out.append((name, value))
    return out


def _import_and_analyze(path: str) -> list[Diagnostic]:
    """Import one file and analyze the datatypes it defines at module level.

    Conventions: every module-level ``Datatype`` binding not starting with
    ``_`` is checked statically; a module-level ``ANALYZE_CONTRACT_CASES``
    list of dicts (``dtype``, ``send_buf``, optional ``recv_buf``/``count``/
    ``frag_size``) additionally runs the symbolic contract harness.
    """
    mod, err = _import_module(path)
    if err is not None:
        return [err]

    diags: list[Diagnostic] = []
    for name, value in _module_datatypes(mod):
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


def _matches(code: str, patterns) -> bool:
    return any(code.startswith(p) for p in patterns)


def _invalid_code_patterns(ns) -> list[str]:
    """``--select``/``--ignore`` tokens that match no known RPD code.

    A token is valid iff it is a prefix of at least one registered code —
    full codes (``RPD610``) and family prefixes (``RPD6``, ``RPD61``) both
    work; typos like ``RPD16`` or ``RDP101`` are rejected so a filter can
    never silently match nothing.
    """
    bad = []
    for spec in (ns.select, ns.ignore):
        for token in spec.split(","):
            if not token:
                continue
            if not any(code.startswith(token) for code in CODE_TABLE):
                bad.append(token)
    return bad


def _reject_unknown_codes(ns) -> bool:
    """Report invalid filter tokens; True when the run must abort."""
    bad = _invalid_code_patterns(ns)
    if bad:
        print("error: unknown diagnostic code or prefix: "
              + ", ".join(sorted(set(bad)))
              + " (run 'repro-analyze --list-codes' for the table)",
              file=sys.stderr)
    return bool(bad)


def _render_json(findings, nfiles: int, tool: str = "repro.analyze") -> str:
    by_code: dict[str, int] = {}
    by_severity: dict[str, int] = {}
    for d in findings:
        by_code[d.code] = by_code.get(d.code, 0) + 1
        by_severity[d.severity] = by_severity.get(d.severity, 0) + 1
    doc = {
        "version": SCHEMA_VERSION,
        "tool": tool,
        "findings": [d.to_dict() for d in findings],
        "summary": {
            "files": nfiles,
            "findings": len(findings),
            "by_code": dict(sorted(by_code.items())),
            "by_severity": dict(sorted(by_severity.items())),
        },
    }
    return json.dumps(doc, indent=2)


def _write_report(path: str, doc: dict) -> None:
    """Write one machine-readable report; identical shape across
    subcommands (``version`` + ``tool`` keys, then tool-specific
    sections)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _findings_report_doc(findings, nfiles: int, tool: str) -> dict:
    """The common findings/summary report document of a subcommand."""
    return json.loads(_render_json(findings, nfiles, tool=tool))


def _gh_escape(text: str, *, prop: bool = False) -> str:
    """GitHub Actions workflow-command escaping."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if prop:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


_GH_LEVELS = {"error": "error", "warning": "warning",
              "perf": "notice", "notice": "notice"}


def _render_github(findings) -> str:
    """One ``::error file=…,line=…,col=…`` annotation per finding."""
    lines = []
    for d in findings:
        level = _GH_LEVELS.get(d.severity, "notice")
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


def _emit(findings, nfiles: int, fmt: str) -> None:
    if fmt == "json":
        print(_render_json(findings, nfiles))
    elif fmt == "github":
        out = _render_github(findings)
        if out:
            print(out)
        print(f"{len(findings)} finding(s) in {nfiles} file(s)"
              if findings else f"clean: {nfiles} file(s), no findings")
    else:
        for d in findings:
            print(d.format_text())
        print(f"{len(findings)} finding(s) in {nfiles} file(s)"
              if findings else f"clean: {nfiles} file(s), no findings")


def _parse_nprocs(spec: str):
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        n = int(part)
        if n < 2:
            raise ValueError(f"nprocs must be >= 2, got {n}")
        out.append(n)
    if not out:
        raise ValueError("empty --nprocs list")
    return out


def _list_codes() -> str:
    lines = [f"{'code':8s} {'severity':8s} {'mpi error':16s} description"]
    for info in CODE_TABLE.values():
        lines.append(f"{info.code:8s} {info.severity:8s} "
                     f"{info.mpi_error_name:16s} {info.title}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for the docs and tests)."""
    p = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Static analysis for repro MPI programs and datatypes.")
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text",
                   help="output format (default: text); 'github' emits "
                        "GitHub Actions workflow annotations")
    p.add_argument("--strict", action="store_true",
                   help="also report perf- and notice-severity findings")
    p.add_argument("--no-flow", action="store_true",
                   help="skip the communication-flow verifier on files "
                        "that define main(comm)")
    p.add_argument("--select", default="",
                   help="comma-separated code prefixes to keep "
                        "(e.g. RPD3,RPD101)")
    p.add_argument("--ignore", default="",
                   help="comma-separated code prefixes to drop")
    p.add_argument("--import", dest="do_import", action="store_true",
                   help="import each file and analyze module-level "
                        "datatypes (executes the files!)")
    p.add_argument("--report", metavar="FILE", default="",
                   help="write the findings and summary to FILE as JSON "
                        "(independent of --format)")
    p.add_argument("--list-codes", action="store_true",
                   help="print the diagnostic code table and exit")
    return p


def main(argv: Optional[list] = None) -> int:
    """Entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sanitize":
        # Subcommand dispatch: the dynamic sanitizer shares this CLI so the
        # static pass and the runtime verifier form one tool.
        from ..sanitize.cli import main as sanitize_main
        return sanitize_main(argv[1:])
    if argv and argv[0] == "flow":
        return flow_main(argv[1:])
    if argv and argv[0] == "plans":
        return plans_main(argv[1:])
    if argv and argv[0] == "proto":
        return proto_main(argv[1:])
    if argv and argv[0] == "races":
        return races_main(argv[1:])
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2

    if _reject_unknown_codes(ns):
        return 2
    if ns.list_codes:
        print(_list_codes())
        return 0
    if not ns.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --list-codes)", file=sys.stderr)
        return 2

    try:
        files = _iter_py_files(ns.paths)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc}", file=sys.stderr)
        return 2

    findings: list[Diagnostic] = []
    for path in files:
        per_file = lint_file(path)
        if not ns.no_flow:
            from .flow import analyze_flow_file
            report = analyze_flow_file(path)
            if report.has_main:
                if report.complete:
                    # The rank- and tag-aware static matching supersedes
                    # the per-file tag heuristic.
                    per_file = [d for d in per_file if d.code != "RPD301"]
                per_file.extend(report.findings)
        if ns.do_import:
            per_file.extend(_import_and_analyze(path))
        kept, notices = apply_suppressions(per_file, path)
        findings.extend(kept)
        findings.extend(notices)

    findings = _filter_findings(findings, ns)
    if ns.report:
        _write_report(ns.report,
                      _findings_report_doc(findings, len(files),
                                           "repro.analyze"))
    _emit(findings, len(files), ns.format)
    return 1 if findings else 0


def _filter_findings(findings, ns) -> list[Diagnostic]:
    """Shared severity/select/ignore post-processing."""
    if not ns.strict:
        findings = [d for d in findings
                    if d.severity not in STRICT_ONLY_SEVERITIES]
    select = [s for s in ns.select.split(",") if s]
    ignore = [s for s in ns.ignore.split(",") if s]
    if select:
        findings = [d for d in findings if _matches(d.code, select)]
    if ignore:
        findings = [d for d in findings if not _matches(d.code, ignore)]
    return sort_diagnostics(findings)


def build_flow_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro-analyze flow`` subcommand."""
    p = argparse.ArgumentParser(
        prog="repro-analyze flow",
        description="Static communication-flow verification of main(comm) "
                    "programs (RPD5xx).")
    p.add_argument("paths", nargs="*",
                   help="files or directories to verify")
    p.add_argument("--nprocs", default="",
                   help="comma-separated job sizes to evaluate (default: "
                        "the size the file pins, else 2,3,4 plus symbolic-"
                        "N witnesses)")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text", help="output format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="also report notice-severity findings "
                        "(RPD530 incomplete analysis, RPD590 unused noqa)")
    p.add_argument("--select", default="",
                   help="comma-separated code prefixes to keep")
    p.add_argument("--ignore", default="",
                   help="comma-separated code prefixes to drop")
    p.add_argument("--report", metavar="FILE", default="",
                   help="write the findings and summary to FILE as JSON "
                        "(independent of --format)")
    return p


def flow_main(argv: Optional[list] = None) -> int:
    """Entry point of ``repro-analyze flow``."""
    from .flow import analyze_flow_file

    parser = build_flow_parser()
    try:
        ns = parser.parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    if _reject_unknown_codes(ns):
        return 2
    if not ns.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2
    nprocs = None
    if ns.nprocs:
        try:
            nprocs = _parse_nprocs(ns.nprocs)
        except ValueError as exc:
            print(f"error: invalid --nprocs: {exc}", file=sys.stderr)
            return 2
    try:
        files = _iter_py_files(ns.paths)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc}", file=sys.stderr)
        return 2

    findings: list[Diagnostic] = []
    analyzed = 0
    for path in files:
        report = analyze_flow_file(path, nprocs=nprocs)
        if not report.has_main:
            continue
        analyzed += 1
        kept, notices = apply_suppressions(report.findings, path)
        findings.extend(kept)
        findings.extend(notices)

    findings = _filter_findings(findings, ns)
    if ns.report:
        _write_report(ns.report,
                      _findings_report_doc(findings, analyzed,
                                           "repro.analyze.flow"))
    _emit(findings, analyzed, ns.format)
    return 1 if findings else 0


def build_plans_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro-analyze plans`` subcommand."""
    p = argparse.ArgumentParser(
        prog="repro-analyze plans",
        description="Pack-plan IR verification (RPD6xx): translation-"
                    "validates every rewrite pass, checks IR well-"
                    "formedness, and runs the static cost model.  Files "
                    "are imported (executed!) and their module-level "
                    "datatypes verified.")
    p.add_argument("paths", nargs="*",
                   help="Python files or directories whose module-level "
                        "datatypes to verify")
    p.add_argument("--ddtbench", action="store_true",
                   help="also verify every registered DDTBench workload "
                        "datatype")
    p.add_argument("--miscompile-corpus", action="store_true",
                   help="run the seeded miscompile corpus instead of a "
                        "clean verification (findings are EXPECTED; exits "
                        "2 if any seeded bug goes undetected)")
    p.add_argument("--report", metavar="FILE", default="",
                   help="write the pass-pipeline report (one JSON entry "
                        "per verified compilation) to FILE")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text", help="output format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="also report perf-severity findings (RPD620 "
                        "cost-model smells)")
    p.add_argument("--select", default="",
                   help="comma-separated code prefixes to keep")
    p.add_argument("--ignore", default="",
                   help="comma-separated code prefixes to drop")
    return p


def plans_main(argv: Optional[list] = None) -> int:
    """Entry point of ``repro-analyze plans``."""
    from .planverify import (ddtbench_corpus, verify_datatype,
                             verify_miscompile_corpus)

    parser = build_plans_parser()
    try:
        ns = parser.parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    if _reject_unknown_codes(ns):
        return 2

    if ns.miscompile_corpus:
        findings, missed = verify_miscompile_corpus()
        for m in missed:
            print(f"error: seeded miscompile NOT detected: {m}",
                  file=sys.stderr)
        findings = _filter_findings(findings, ns)
        _emit(findings, 0, ns.format)
        if missed:
            return 2
        return 1 if findings else 0

    if not ns.paths and not ns.ddtbench:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --ddtbench / "
              "--miscompile-corpus)", file=sys.stderr)
        return 2

    # Collect (subject, datatype, attributed file) from every source.
    findings: list[Diagnostic] = []
    subjects = []
    if ns.ddtbench:
        for name, dt in ddtbench_corpus():
            subjects.append((name, dt, None))
    if ns.paths:
        try:
            files = _iter_py_files(ns.paths)
        except FileNotFoundError as exc:
            print(f"error: no such file or directory: {exc}",
                  file=sys.stderr)
            return 2
        for path in files:
            mod, err = _import_module(path)
            if err is not None:
                findings.append(err)
                continue
            for name, dt in _module_datatypes(mod):
                subjects.append((name, dt, path))

    reports = []
    for name, dt, path in subjects:
        rep = verify_datatype(dt, path=path, subject=name)
        reports.append(rep)
        findings.extend(rep.diagnostics)

    if ns.report:
        _write_report(ns.report, {
            "version": SCHEMA_VERSION,
            "tool": "repro.analyze.plans",
            "reports": [r.to_dict() for r in reports],
            "verified": sum(1 for r in reports if r.verified),
            "total": len(reports),
        })

    findings = _filter_findings(findings, ns)
    if ns.format == "json":
        # The findings document plus what each plan compiled to (executor,
        # units, record width, calls): the same entries --report writes.
        doc = _findings_report_doc(findings, len(subjects), "repro.analyze")
        doc["plans"] = [r.to_dict() for r in reports]
        print(json.dumps(doc, indent=2))
    else:
        _emit(findings, len(subjects), ns.format)
    return 1 if findings else 0


def build_proto_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro-analyze proto`` subcommand."""
    p = argparse.ArgumentParser(
        prog="repro-analyze proto",
        description="Protocol verification (RPD7xx): bounded model "
                    "checking of the wire protocol's state machine over "
                    "all action interleavings, plus (--conformance) a "
                    "live-transport conformance sweep against the model's "
                    "predictions.")
    p.add_argument("--ranks", type=int, default=3,
                   help="ranks in the model-checked scenarios, 2-4 "
                        "(default: 3)")
    p.add_argument("--depth", type=int, default=60,
                   help="interleaving depth bound (default: 60)")
    p.add_argument("--max-states", type=int, default=200_000,
                   help="per-scenario state-count safety valve "
                        "(default: 200000)")
    p.add_argument("--faults", default="",
                   help="comma-separated fault actions to model "
                        "(drop,corrupt,duplicate,reorder,crash; "
                        "default: all)")
    p.add_argument("--no-por", action="store_true",
                   help="disable the partial-order reduction (explores "
                        "the full interleaving set; for debugging)")
    p.add_argument("--conformance", action="store_true",
                   help="also run model traces against the live "
                        "transport (RPD720 on divergence)")
    p.add_argument("--transport", default=None,
                   help="backend the conformance cases run on "
                        "(inproc/shm/asyncio; default: $REPRO_TRANSPORT, "
                        "else inproc).  The model's predictions are "
                        "backend-independent, so a divergence on one "
                        "backend only is a transport bug")
    p.add_argument("--mutants", action="store_true",
                   help="run the seeded protocol-mutant corpus instead "
                        "of a clean verification (findings are EXPECTED; "
                        "exits 2 if any mutant escapes its designated "
                        "RPD code)")
    p.add_argument("--report", metavar="FILE", default="",
                   help="write the exploration report (states, "
                        "transitions, wall time, states/s per scenario) "
                        "to FILE as JSON")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text", help="output format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="also report perf- and notice-severity findings")
    p.add_argument("--select", default="",
                   help="comma-separated code prefixes to keep")
    p.add_argument("--ignore", default="",
                   help="comma-separated code prefixes to drop")
    return p


_FAULT_KINDS = ("drop", "corrupt", "duplicate", "reorder", "crash")


def proto_main(argv: Optional[list] = None) -> int:
    """Entry point of ``repro-analyze proto``."""
    from .protomodel import run_mutant_corpus, verify_shipped

    parser = build_proto_parser()
    try:
        ns = parser.parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    if _reject_unknown_codes(ns):
        return 2
    if not 2 <= ns.ranks <= 4:
        print("error: --ranks must be 2, 3 or 4", file=sys.stderr)
        return 2
    fault_kinds = None
    if ns.faults:
        kinds = [k for k in ns.faults.split(",") if k]
        bad = [k for k in kinds if k not in _FAULT_KINDS]
        if bad:
            print("error: unknown fault action(s): " + ", ".join(bad)
                  + " (choose from " + ",".join(_FAULT_KINDS) + ")",
                  file=sys.stderr)
            return 2
        fault_kinds = frozenset(kinds)

    report_doc = {"version": SCHEMA_VERSION, "tool": "repro.analyze.proto",
                  "ranks": ns.ranks, "depth": ns.depth}

    if ns.mutants:
        findings, missed, model_report = run_mutant_corpus(
            nranks=ns.ranks, depth=ns.depth, max_states=ns.max_states)
        for m in missed:
            print(f"error: protocol mutant NOT detected: {m}",
                  file=sys.stderr)
        report_doc["model"] = model_report.to_dict()
        report_doc["mutants_missed"] = missed
        findings = _filter_findings(findings, ns)
        _emit(findings, len(model_report.results), ns.format)
        if ns.report:
            _write_report(ns.report, report_doc)
        if missed:
            return 2
        return 1 if findings else 0

    findings: list[Diagnostic] = []
    model_report = verify_shipped(nranks=ns.ranks, depth=ns.depth,
                                  fault_kinds=fault_kinds,
                                  max_states=ns.max_states,
                                  por=not ns.no_por)
    findings.extend(model_report.diagnostics)
    report_doc["model"] = model_report.to_dict()
    nscen = len(model_report.results)

    if ns.conformance:
        from ..ucp.transport import TransportUnavailableError
        from .protoconform import run_conformance
        try:
            conf = run_conformance(transport=ns.transport)
        except TransportUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings.extend(conf.diagnostics)
        report_doc["conformance"] = conf.to_dict()
        nscen += len(conf.cases)

    if ns.report:
        _write_report(ns.report, report_doc)

    findings = _filter_findings(findings, ns)
    _emit(findings, nscen, ns.format)
    return 1 if findings else 0


def build_races_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro-analyze races`` subcommand."""
    p = argparse.ArgumentParser(
        prog="repro-analyze races",
        description="Static concurrency and transport-portability audit "
                    "(RPD8xx): per-attribute lockset inference and GIL-"
                    "atomicity checks over the fabric classes, a lock-"
                    "order graph with inversion detection, and a wire-"
                    "envelope audit of what a process-boundary transport "
                    "must copy versus map.")
    p.add_argument("paths", nargs="*",
                   help="files or directories to audit (default: the "
                        "shipped fabric — repro/ucp, repro/mpi and the "
                        "type caches)")
    p.add_argument("--corpus", action="store_true",
                   help="run the seeded race corpus instead of a clean "
                        "audit (findings are EXPECTED; exits 2 if any "
                        "seeded race escapes its designated RPD code)")
    p.add_argument("--witness", action="store_true",
                   help="also run the dynamic lockset witness — a canned "
                        "multi-rank job under instrumented locks — and "
                        "report runtime-confirmed races alongside the "
                        "static findings")
    p.add_argument("--report", metavar="FILE", default="",
                   help="write the findings, the audit inventory (lock-"
                        "order edges, wire fields, assumptions) and any "
                        "witness observations to FILE as JSON")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text", help="output format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="also report notice-severity findings "
                        "(RPD590 unused noqa)")
    p.add_argument("--select", default="",
                   help="comma-separated code prefixes to keep")
    p.add_argument("--ignore", default="",
                   help="comma-separated code prefixes to drop")
    return p


def races_main(argv: Optional[list] = None) -> int:
    """Entry point of ``repro-analyze races``."""
    from .races import analyze_paths, run_corpus, shipped_audit_paths

    parser = build_races_parser()
    try:
        ns = parser.parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    if _reject_unknown_codes(ns):
        return 2

    if ns.corpus:
        findings, missed, nfiles = run_corpus()
        for m in missed:
            print(f"error: seeded race NOT detected: {m}", file=sys.stderr)
        findings = _filter_findings(findings, ns)
        if ns.report:
            doc = _findings_report_doc(findings, nfiles,
                                       "repro.analyze.races")
            doc["corpus_missed"] = missed
            _write_report(ns.report, doc)
        _emit(findings, nfiles, ns.format)
        if missed:
            return 2
        return 1 if findings else 0

    try:
        findings, nfiles, audit = analyze_paths(
            ns.paths or shipped_audit_paths())
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc}", file=sys.stderr)
        return 2

    witness_doc = None
    if ns.witness:
        from ..sanitize.witness import run_shipped_witness
        wit = run_shipped_witness()
        witness_doc = wit.to_dict()
        for conf in wit.confirmed:
            findings.append(Diagnostic(
                "RPD800",
                f"dynamic lockset witness observed {conf.writes} "
                f"unsynchronized write(s) to {conf.cls}.{conf.attr} from "
                f"{conf.threads} thread(s) with no common lock held",
                subject=f"{conf.cls}.{conf.attr}",
                hint="the static audit missed this attribute or its lock "
                     "was bypassed at runtime; guard every write"))

    findings = _filter_findings(findings, ns)
    if ns.report:
        doc = _findings_report_doc(findings, nfiles, "repro.analyze.races")
        doc["audit"] = audit.to_dict()
        if witness_doc is not None:
            doc["witness"] = witness_doc
        _write_report(ns.report, doc)
    _emit(findings, nfiles, ns.format)
    return 1 if findings else 0
