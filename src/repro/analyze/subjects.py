"""What the engines analyze: one helper per way of finding a subject.

Every ``repro-analyze`` engine takes its inputs from here — the ``.py``
walker, the throw-away importer, module-level datatype discovery, the
``main(comm)`` entry loader and the DDTBench registry sweep — so a path
argument means the same thing to all of them.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import os
import sys


def py_files(paths, exclude=()) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    ``exclude`` names directories the walk does not descend into.
    """
    out: dict[str, None] = {}
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__"
                                     and not d.startswith(".")
                                     and d not in exclude)
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        out[os.path.join(dirpath, fn)] = None
        elif os.path.isfile(path):
            out[path] = None
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return list(out)


def import_file(path: str):
    """Import one file under a throw-away module name.

    Returns ``(module, "")`` or ``(None, "import failed: ...")``.  What the
    file prints meanwhile would corrupt ``--format json`` and is swallowed.
    """
    modname = "_repro_analyze_" + os.path.basename(path)[:-3].replace(
        "-", "_") + f"_{abs(hash(os.path.abspath(path))) % 10 ** 8}"
    try:
        spec = importlib.util.spec_from_file_location(modname, path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[modname] = mod
        with contextlib.redirect_stdout(io.StringIO()):
            spec.loader.exec_module(mod)
        return mod, ""
    except Exception as exc:
        return None, f"import failed: {type(exc).__name__}: {exc}"
    finally:
        sys.modules.pop(modname, None)


def module_datatypes(mod) -> list[tuple[str, object]]:
    """Module-level non-underscore ``Datatype`` bindings, deduplicated."""
    from ..core.datatype import Datatype

    out: list[tuple[str, object]] = []
    seen: set[int] = set()
    for name, value in sorted(vars(mod).items()):
        if not name.startswith("_") and isinstance(value, Datatype) \
                and id(value) not in seen:
            seen.add(id(value))
            out.append((name, value))
    return out


def load_entry(path: str):
    """Import a program file; returns ``(fn, nprocs, job_kwargs, error)``.

    ``fn`` is None with a human reason in ``error`` when the file defines
    no ``main(comm)``-style entry (not a failure — the file is skipped) or
    could not be imported.  ``nprocs`` is the module's ``NPROCS``/
    ``NRANKS``/``PROCS``, else 2.  ``job_kwargs`` carries the program's
    optional fault-injection setup (module-level ``FAULTS`` /
    ``RELIABILITY``, in the dict/bool forms :func:`repro.mpi.run` accepts),
    so seeded chaos fixtures run with their faults live.
    """
    mod, error = import_file(path)
    if mod is None:
        return None, 0, {}, error
    fn = getattr(mod, "main", None)
    if callable(fn):
        try:
            params = list(inspect.signature(fn).parameters.values())
        except (TypeError, ValueError):
            params = []
        required = [p for p in params if p.default is inspect.Parameter.empty
                    and p.kind in (p.POSITIONAL_ONLY,
                                   p.POSITIONAL_OR_KEYWORD)]
        if len(required) == 1 and required[0].name == "comm":
            nprocs = next((int(getattr(mod, a))
                           for a in ("NPROCS", "NRANKS", "PROCS")
                           if isinstance(getattr(mod, a, None), int)), 2)
            job_kwargs = {key.lower(): getattr(mod, key)
                          for key in ("FAULTS", "RELIABILITY")
                          if getattr(mod, key, None) is not None}
            return fn, nprocs, job_kwargs, ""
    return None, 0, {}, "no main(comm) entry"


def ddtbench_workloads(names=None) -> list[tuple[str, object]]:
    """``(name, workload)`` for the named (default: all) registry entries."""
    from ..ddtbench.registry import WORKLOADS, make_workload
    return [(name, make_workload(name)) for name in names or WORKLOADS]
