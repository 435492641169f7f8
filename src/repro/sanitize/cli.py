"""``repro-analyze sanitize`` — run programs under the dynamic sanitizer.

Programs are files with a ``main(comm)`` entry
(:func:`repro.analyze.subjects.load_entry`); files without one are skipped
with a notice, so whole directories (``examples/``) can be swept.
``--ddtbench`` instead runs the DDTBench workload registry as sanitized
pingpongs over every practicable transfer method.  The engine runs through
:func:`repro.analyze.driver.run` like the static ones; its severity policy
prints every finding and fails on errors only (any severity under
``--strict``) or on an aborted job.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
from typing import Optional

from ..analyze.driver import (DYNAMIC_POLICY, Engine, Outcome, UsageError,
                              run)
from ..analyze.subjects import ddtbench_workloads, load_entry, py_files
from ..errors import RuntimeAbort
from .report import SanitizeReport

#: Transfer methods the ddtbench sweep exercises -> the workload's factory.
_DDT_METHODS = {"derived": "derived_datatype",
                "custom-pack": "custom_pack_datatype",
                "custom-region": "custom_region_datatype"}


def _sanitized(fn, nprocs: int, program: str, timeout: float,
               transport: Optional[str], **job_kwargs) -> SanitizeReport:
    """One job under the sanitizer; an abort is a report, not an error."""
    from ..mpi import run as run_job

    try:
        # The program's prints are not tool output; swallow them.
        with contextlib.redirect_stdout(io.StringIO()):
            result = run_job(fn, nprocs=nprocs, sanitize=True,
                             timeout=timeout, transport=transport,
                             **job_kwargs)
        report = result.sanitizer_report
        report.reliability = result.reliability
    except RuntimeAbort as exc:
        report = exc.sanitizer_report or SanitizeReport(
            nprocs=nprocs, aborted=True,
            failures={r: f"{type(e).__name__}: {e}"
                      for r, e in exc.failures.items()})
    report.program = program
    return report


def run_program(path: str, nprocs: Optional[int] = None,
                timeout: float = 60.0,
                transport: Optional[str] = None) -> Optional[SanitizeReport]:
    """Run one program file under the sanitizer; None when skipped."""
    fn, module_nprocs, job_kwargs, error = load_entry(path)
    if fn is None:
        if error.startswith("import failed"):
            return SanitizeReport(
                nprocs=0, aborted=True, failures={-1: error}, program=path)
        return None
    return _sanitized(fn, nprocs or module_nprocs, path, timeout, transport,
                      **job_kwargs)


def run_ddtbench(names=None, timeout: float = 60.0,
                 transport: Optional[str] = None) -> list[SanitizeReport]:
    """Sanitized pingpong of every registry workload x transfer method."""
    from ..ddtbench import make_workload

    reports = []
    for name, probe in ddtbench_workloads(names):
        for method in _DDT_METHODS:
            if method == "custom-region" and not probe.meta.memory_regions:
                continue

            def fn(comm, _name=name, _method=method):
                w = make_workload(_name)   # one per rank, nothing shared
                dt = getattr(w, _DDT_METHODS[_method])()
                if comm.rank == 0:
                    comm.send(w.make_send_buffer(), dest=1,
                              datatype=dt, count=1)
                else:
                    comm.recv(w.make_recv_buffer(), source=0,
                              datatype=dt, count=1)

            reports.append(_sanitized(fn, 2, f"ddtbench:{name}:{method}",
                                      timeout, transport))
    return reports


def _arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("programs", nargs="*",
                   help="program files or directories (main(comm) entries)")
    p.add_argument("--nprocs", type=int, default=None,
                   help="override the rank count (default: the program's "
                        "NPROCS/NRANKS/PROCS, else 2)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="wall-clock seconds per job (default: 60)")
    p.add_argument("--transport", default=None,
                   help="transport backend for the sanitized jobs "
                        "(inproc/asyncio; shm cannot host the sanitizer). "
                        "Default: $REPRO_TRANSPORT, else inproc")
    p.add_argument("--ddtbench", action="store_true",
                   help="also run the DDTBench workload registry as "
                        "sanitized pingpongs")
    p.add_argument("--workloads", default="",
                   help="comma-separated ddtbench workload names "
                        "(default: all)")


def _run(ns) -> Outcome:
    if not ns.programs and not ns.ddtbench:
        raise UsageError("no programs given (or use --ddtbench)")
    reports: list[SanitizeReport] = []
    skipped: list[str] = []
    for path in py_files(ns.programs):
        report = run_program(path, nprocs=ns.nprocs, timeout=ns.timeout,
                             transport=ns.transport)
        if report is None:
            skipped.append(path)
        else:
            reports.append(report)
    if ns.ddtbench:
        names = [w for w in ns.workloads.split(",") if w] or None
        reports.extend(run_ddtbench(names, timeout=ns.timeout,
                                    transport=ns.transport))

    aborted = [rep for rep in reports if rep.aborted]
    faulted = [rep for rep in reports if rep.reliability]
    summary = {
        "programs": len(reports),
        "skipped": skipped,
        "aborted": [rep.program for rep in aborted],
        "failures": {str(r): msg for rep in aborted
                     for r, msg in sorted(rep.failures.items())},
    }
    if faulted:
        summary["reliability"] = {rep.program: rep.reliability_totals()
                                  for rep in faulted}
    return Outcome(
        # Each finding carries the program it was observed in.
        [dataclasses.replace(d, file=rep.program)
         for rep in reports for d in rep.diagnostics],
        len(reports), summary=summary,
        aborted=[f"{rep.program}: rank {r} failed: {msg}" for rep in aborted
                 for r, msg in sorted(rep.failures.items())],
        notes=[f"{rep.program}: reliability: {rep.reliability_text()}"
               for rep in faulted]
        + [f"skipped (no main(comm) entry): {path}" for path in skipped])


SANITIZE = Engine(
    "sanitize", "repro.sanitize",
    "Run MPI programs on the simulated fabric with the dynamic sanitizer "
    "attached.", _arguments, _run, policy=DYNAMIC_POLICY,
    unit="sanitized job(s)")

main = functools.partial(run, SANITIZE)
