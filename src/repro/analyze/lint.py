"""AST-based MPI-usage linter (the ``RPD3xx`` checks).

Operates on Python *source*, never importing or executing it, and is
deliberately conservative: every rule disarms itself as soon as the code
leaves the statically-analyzable subset (non-literal tags, requests stored
in containers, sends guarded by rank conditionals), so the shipped examples
and benchmarks lint clean while the classic textbook mistakes — mismatched
tags, forgotten waits, buffer reuse before completion, send/send deadlock —
are still caught.
"""

from __future__ import annotations

import ast
from typing import Optional, Union

from .diagnostics import Diagnostic

#: Method/function names treated as blocking sends, nonblocking sends,
#: blocking receives, and nonblocking receives.  The ``MPI_*`` spellings
#: cover the :mod:`repro.capi` shim.
SEND_NAMES = {"send", "ssend", "bsend", "Send", "MPI_Send", "MPI_Ssend"}
ISEND_NAMES = {"isend", "Isend", "MPI_Isend"}
RECV_NAMES = {"recv", "Recv", "MPI_Recv"}
IRECV_NAMES = {"irecv", "Irecv", "MPI_Irecv"}

#: Names that behave as a receive wildcard when used as a tag.
_WILDCARD_NAMES = {"ANY_TAG", "MPI_ANY_TAG"}

#: Sentinels for tag classification.
_WILDCARD = "any"
_UNKNOWN = "unknown"

#: List methods that stash a request into an aggregate rather than
#: completing it; the base-name load in ``reqs.append(...)`` is part of
#: the collection, not a read.
_AGG_MUTATORS = {"append", "extend", "insert"}


def _call_kind(call: ast.Call) -> tuple[Optional[str], bool]:
    """Classify a call as (kind, is_capi); kind None when not MPI traffic."""
    func = call.func
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None, False
    is_capi = name.startswith("MPI_")
    if name in SEND_NAMES:
        return "send", is_capi
    if name in ISEND_NAMES:
        return "isend", is_capi
    if name in RECV_NAMES:
        return "recv", is_capi
    if name in IRECV_NAMES:
        return "irecv", is_capi
    return None, False


def _tag_of(call: ast.Call, kind: str, is_capi: bool) -> Union[int, str]:
    """The tag a call matches on: an int literal, _WILDCARD, or _UNKNOWN.

    The capi shim passes tags at a different positional index, so capi
    calls are always _UNKNOWN (which disarms the tag rule for the file).
    """
    if is_capi:
        return _UNKNOWN
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs could smuggle a tag
            return _UNKNOWN
        if kw.arg == "tag":
            v = kw.value
            if isinstance(v, ast.Constant) and isinstance(v.value, int):
                return v.value
            if isinstance(v, ast.Name) and v.id in _WILDCARD_NAMES:
                return _WILDCARD
            if (isinstance(v, ast.Attribute)
                    and v.attr in _WILDCARD_NAMES):
                return _WILDCARD
            return _UNKNOWN
    args = call.args
    if len(args) >= 3:
        v = args[2]
        if isinstance(v, ast.Constant) and isinstance(v.value, int):
            return v.value
        if isinstance(v, ast.Name) and v.id in _WILDCARD_NAMES:
            return _WILDCARD
        return _UNKNOWN
    # Defaulted: sends default to tag 0, receives to ANY_TAG.
    return 0 if kind in ("send", "isend") else _WILDCARD


def _comm_key(call: ast.Call, is_capi: bool) -> str:
    """Textual identity of the communicator a call operates on.

    Tags live in per-communicator spaces — a ``comm.dup()``/``comm.split()``
    child never matches traffic on its parent — so sends and receives are
    grouped by the expression the traffic goes through: the method-call
    base (``comm`` in ``comm.send(...)``, ``sub`` in ``sub.recv(...)``) or
    the first positional argument for the capi spellings.  Aliased
    communicators split into separate (conservatively unchecked one-sided)
    groups; that errs toward silence, never false positives.
    """
    if is_capi:
        expr = call.args[0] if call.args else None
    else:
        expr = call.func.value if isinstance(call.func, ast.Attribute) \
            else None
    if expr is None:
        return "<expr>"
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        parts = [expr.attr]
        base = expr.value
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name):
            parts.append(base.id)
            return ".".join(reversed(parts))
    try:
        return ast.unparse(expr)
    except Exception:
        return "<expr>"


def _check_tags(tree: ast.Module, path: Optional[str]) -> list[Diagnostic]:
    """RPD301: send tags with no matching recv tag on the same communicator.

    Matching is per communicator key (see :func:`_comm_key`): a send on a
    duplicated communicator must find its receive on that communicator,
    and tags on different communicators never cross-satisfy each other.
    """
    groups: dict[str, tuple[list, list]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kind, is_capi = _call_kind(node)
        if kind is None:
            continue
        tag = _tag_of(node, kind, is_capi)
        sends, recvs = groups.setdefault(_comm_key(node, is_capi),
                                         ([], []))
        (sends if kind in ("send", "isend") else recvs).append((tag, node))
    diags: list[Diagnostic] = []
    for key in sorted(groups):
        sends, recvs = groups[key]
        if not sends or not recvs:
            continue  # one-sided traffic (drivers, helpers) is out of scope
        send_tags = {t for t, _ in sends}
        recv_tags = {t for t, _ in recvs}
        if _UNKNOWN in send_tags | recv_tags:
            continue  # a dynamic tag disarms the rule for this communicator
        if _WILDCARD not in recv_tags:
            for tag, call in sends:
                if tag not in recv_tags:
                    diags.append(Diagnostic(
                        "RPD301",
                        f"send with tag={tag} has no recv accepting tag "
                        f"{tag} on communicator {key!r} (its recv tags: "
                        f"{sorted(t for t in recv_tags)})",
                        hint="align the tag constants, or recv with "
                             "tag=ANY_TAG",
                        file=path, line=call.lineno, col=call.col_offset))
        for tag, call in recvs:
            if tag != _WILDCARD and tag not in send_tags:
                diags.append(Diagnostic(
                    "RPD301",
                    f"recv with tag={tag} can never match: no send uses "
                    f"tag {tag} on communicator {key!r} (its send tags: "
                    f"{sorted(send_tags)})",
                    hint="align the tag constants on both sides",
                    file=path, line=call.lineno, col=call.col_offset))
    return diags


def _scopes(tree: ast.Module):
    """Yield (scope_node, body) for the module and every function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _flatten(body, conditional: bool = False):
    """Yield (stmt, conditional) in document order, staying in this scope.

    Descends through loops and ``with`` (still unconditional control flow
    for a straight-line SPMD program) and through ``if``/``try`` with the
    conditional bit set; never descends into nested functions or classes.
    """
    for stmt in body:
        yield stmt, conditional
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # Loop bodies may run zero times; that only matters for the
            # deadlock rule, which requires the send itself to be reached,
            # so treat them as conditional.
            yield from _flatten(stmt.body, True)
            yield from _flatten(stmt.orelse, True)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield from _flatten(stmt.body, conditional)
        elif isinstance(stmt, ast.If):
            yield from _flatten(stmt.body, True)
            yield from _flatten(stmt.orelse, True)
        elif isinstance(stmt, ast.Try):
            yield from _flatten(stmt.body, True)
            for h in stmt.handlers:
                yield from _flatten(h.body, True)
            yield from _flatten(stmt.orelse, True)
            yield from _flatten(stmt.finalbody, conditional)


def _stmt_calls(stmt: ast.stmt):
    """Calls belonging to this statement itself.

    Nested statements (branch/loop bodies) are pruned — :func:`_flatten`
    yields those separately with their own conditional flag, so walking
    into them here would mis-attribute guarded calls to the parent.
    """
    todo = [stmt]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.stmt) and node is not stmt:
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _has_nb_call(expr: ast.AST) -> bool:
    """True when an isend/irecv call appears anywhere under ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            kind, _ = _call_kind(node)
            if kind in ("isend", "irecv"):
                return True
    return False


def _walk_scope(scope):
    """Walk a scope's AST without entering nested function/class bodies."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _aggregate_uses(scope) -> tuple[dict, set]:
    """Request-aggregate collection sites and genuine reads in a scope.

    Returns ``(collected, read)``.  ``collected`` maps a plain name to the
    (line, col) where a nonblocking request first entered an aggregate
    bound to it: a list/tuple/comprehension literal, an
    ``append``/``extend``/``insert`` call, or ``+=``.  ``read`` holds every
    name loaded anywhere under the scope *except* as the base of one of
    those collecting calls — so passing the aggregate to
    waitall/waitany/waitsome, iterating it in a wait loop, indexing it, or
    returning it all count as completion-capable reads.
    """
    collected: dict[str, tuple[int, int]] = {}
    collecting_nodes: set[int] = set()
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and not isinstance(node.value, ast.Call) \
                and _has_nb_call(node.value):
            collected.setdefault(node.targets[0].id,
                                 (node.lineno, node.col_offset))
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name) \
                and _has_nb_call(node.value):
            collected.setdefault(node.target.id,
                                 (node.lineno, node.col_offset))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _AGG_MUTATORS \
                and isinstance(node.func.value, ast.Name):
            collecting_nodes.add(id(node.func.value))
            if any(_has_nb_call(a) for a in node.args):
                collected.setdefault(node.func.value.id,
                                     (node.lineno, node.col_offset))
    read = {n.id for n in ast.walk(scope)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            and id(n) not in collecting_nodes}
    return collected, read


def _loads_in(node: ast.AST) -> set:
    """Names read anywhere under ``node`` (including nested functions)."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _mutated_names(stmt: ast.stmt) -> set:
    """Names whose binding or contents this statement writes."""
    out = set()
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for t in targets:
        if isinstance(t, ast.Name):
            out.add(t.id)
        elif isinstance(t, (ast.Subscript, ast.Attribute)):
            base = t.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                out.add(base.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            out.update(e.id for e in t.elts if isinstance(e, ast.Name))
    return out


def _check_scope(scope, body, path: Optional[str]) -> list[Diagnostic]:
    """RPD302/RPD303/RPD304 for one function or the module body."""
    diags: list[Diagnostic] = []
    stmts = list(_flatten(body))

    # -- RPD302: nonblocking request never waited ------------------------
    # Flag (a) a bare-expression isend/irecv (the request is discarded on
    # the spot); (b) a request assigned to a plain name that is never
    # read again in the scope; and (c) requests collected into an
    # aggregate (list literal, comprehension, append/extend, ``+=``)
    # whose name is never read outside those collecting calls.  Aggregate
    # completion — waitall(reqs), waitany/waitsome loops, ``for r in
    # reqs: r.wait()`` — reads the name and so passes.
    scope_loads = _loads_in(scope)
    for stmt, _cond in stmts:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            kind, _ = _call_kind(stmt.value)
            if kind in ("isend", "irecv"):
                diags.append(Diagnostic(
                    "RPD302",
                    f"{kind} result is discarded; the request can never be "
                    f"waited on and the operation may never complete",
                    hint="assign the request and wait() on it",
                    file=path, line=stmt.lineno, col=stmt.col_offset))
        elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)):
            kind, _ = _call_kind(stmt.value)
            if kind in ("isend", "irecv") \
                    and stmt.targets[0].id not in scope_loads:
                diags.append(Diagnostic(
                    "RPD302",
                    f"request {stmt.targets[0].id!r} from {kind} is never "
                    f"waited on (name is never read again)",
                    hint=f"call {stmt.targets[0].id}.wait() before the "
                         f"buffer is reused",
                    file=path, line=stmt.lineno, col=stmt.col_offset))
    collected, agg_reads = _aggregate_uses(scope)
    for name in sorted(collected):
        if name not in agg_reads:
            line, col = collected[name]
            diags.append(Diagnostic(
                "RPD302",
                f"requests collected in {name!r} are never completed "
                f"(the aggregate is never read again)",
                hint=f"pass {name} to waitall(), or wait() on each request",
                file=path, line=line, col=col))

    # -- RPD303: buffer mutated between post and wait --------------------
    # Track `req = comm.isend(buf, ...)` where both are plain names; any
    # later statement that reads `req` releases the watch, an unconditional
    # mutation of `buf` before that is flagged.
    active: dict[str, tuple[str, int]] = {}  # req -> (buf, post line)
    for stmt, cond in stmts:
        mutated = _mutated_names(stmt)
        for req, (bufname, post_line) in list(active.items()):
            if not cond and bufname in mutated:
                diags.append(Diagnostic(
                    "RPD303",
                    f"buffer {bufname!r} is modified while request {req!r} "
                    f"posted at line {post_line} is still in flight",
                    hint=f"call {req}.wait() before touching {bufname!r}",
                    file=path, line=stmt.lineno, col=stmt.col_offset))
                del active[req]
        loads = _loads_in(stmt)
        for req in list(active):
            if req in loads:
                del active[req]  # waited, tested, or handed off
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)):
            kind, _ = _call_kind(stmt.value)
            if kind in ("isend", "irecv") and stmt.value.args \
                    and isinstance(stmt.value.args[0], ast.Name):
                active[stmt.targets[0].id] = (stmt.value.args[0].id,
                                              stmt.lineno)

    # -- RPD304: unconditional blocking send before blocking recv --------
    # In an SPMD program a blocking send every rank executes before any
    # rank reaches a recv is the classic head-to-head deadlock (real MPI
    # only survives it while the message fits the eager limit).  Guarded
    # sends (rank conditionals, loops) disarm the rule.
    first_send = None
    for stmt, cond in stmts:
        if cond:
            continue
        for call in _stmt_calls(stmt):
            kind, _ = _call_kind(call)
            if kind == "send" and first_send is None:
                first_send = call
            elif kind == "recv" and first_send is not None:
                diags.append(Diagnostic(
                    "RPD304",
                    f"every rank blocks in send at line {first_send.lineno} "
                    f"before any rank reaches this recv; ranks deadlock "
                    f"once the message exceeds the eager limit",
                    hint="post the recv first (irecv), use sendrecv, or "
                         "order by rank parity",
                    file=path, line=call.lineno, col=call.col_offset))
                return diags  # one report per scope is enough
    return diags


def lint_source(source: str, path: Optional[str] = None) -> list[Diagnostic]:
    """Lint Python source text; returns diagnostics (RPD300 on bad syntax)."""
    try:
        tree = ast.parse(source, filename=path or "<string>")
    except SyntaxError as exc:
        return [Diagnostic("RPD300",
                           f"could not parse: {exc.msg}",
                           file=path, line=exc.lineno or 0,
                           col=(exc.offset or 1) - 1)]
    diags = _check_tags(tree, path)
    for scope, body in _scopes(tree):
        diags.extend(_check_scope(scope, body, path))
    return diags


def lint_file(path: str) -> list[Diagnostic]:
    """Lint one file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [Diagnostic("RPD300", f"could not read: {exc}", file=path)]
    return lint_source(source, path)
