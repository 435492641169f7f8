"""Static concurrency & transport-portability analyzer (RPD8xx).

Every rank in this prototype is a thread inside one process: large parts of
:mod:`repro.ucp` are only correct because the GIL serializes bytecode and
because payloads cross the simulated wire as in-process object references.
Before the transport layer can be swapped for ``multiprocessing``/shared
memory, three questions must be answerable from the source alone:

1. **Which shared state is synchronized?**  The analyzer infers a
   per-attribute *lockset* — the set of locks held at each access site — by
   walking the method bodies of every class that owns a synchronization
   primitive (``Lock``/``RLock``/``Condition``/``Event``).  An attribute of
   such a class written outside every lock is RPD800; a compound
   read-modify-write (``self.x += 1``), a check-then-act (``if k not in
   self.d: self.d[k] = …``) or a module-level ``next(itertools.count)``
   outside any lock is RPD801 — code that is only atomic because of the GIL.
2. **Can the locks deadlock?**  Acquisitions observed while another lock is
   held become edges of a lock-order graph (calls into lock-acquiring
   methods are propagated to a fixpoint); a cycle is RPD802.  A blocking
   call — ``Event.wait``, a foreign ``Condition.wait``, virtual-time
   sleeps — or a user-supplied callback executed while holding a lock is
   RPD803.
3. **What survives a process boundary?**  The wire audit taints values
   derived from caller parameters and flags payloads placed on the wire
   envelope without passing a copy barrier (``copy_chunks``, ``np.array``,
   a pool-acquired staging chunk): RPD810, by-reference aliasing across the
   rank boundary.  Envelope fields whose type cannot be serialized —
   threading primitives, exceptions, callables — are RPD811.  Together
   these findings are the contract for what a shared-memory backend must
   *copy* versus *map*.

The analyzer is deliberately contract-aware, mirroring the fabric's
documented ownership rules:

* classes with **no** synchronization primitive (``VirtualClock``,
  ``_Channel``, per-rank ``Worker`` state) are single-owner by design and
  are not audited for locksets;
* a plain write followed by ``Event.set()`` in the same method is the
  release-publish idiom (readers ``wait()`` first) and is exempt;
* ``Condition.wait`` on the *held* condition is the correct usage and is
  exempt from RPD803;
* lazy idempotent publishes (``if self._x is None: self._x = <pure>``)
  are exempt from the check-then-act rule.

The seeded corpus under :mod:`repro.analyze.races_corpus` keeps every rule
honest: each fixture names the code that must fire (``# expects:``) and
:func:`run_corpus` reports any escape, mirroring ``proto --mutants``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .diagnostics import Diagnostic
from .subjects import py_files
from .suppress import suppress_files

__all__ = ["analyze_paths", "run_corpus", "corpus_dir",
           "shipped_audit_paths", "RaceReport"]

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})
#: ``Latch`` is :class:`repro.ucp.wire.Latch`, the fabric's one-shot event.
_EVENT_FACTORIES = frozenset({"Event", "Semaphore", "BoundedSemaphore",
                              "Barrier", "Latch"})
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "discard", "remove", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "move_to_end", "sort", "reverse", "rotate"})
#: Calls whose *result* no longer aliases the argument buffers.
_COPY_BARRIERS = frozenset({"copy_chunks", "copy", "deepcopy", "array",
                            "bytes", "bytearray", "tobytes", "acquire",
                            "allocate", "pack", "frombuffer_copy"})
_NONSERIALIZABLE_ANNOTATIONS = ("Event", "Latch", "Lock", "RLock",
                                "Condition", "Semaphore", "BaseException",
                                "Exception", "Callable", "Thread")
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})
_EXPECT_RE = re.compile(r"#\s*expects:\s*([A-Z0-9, ]+)")

LockId = tuple  # ("class", ClassName, attr) | ("module", mod, name) | ...


def _lock_label(lock: LockId) -> str:
    return f"{lock[1]}.{lock[2]}" if lock[0] in ("class", "module") \
        else str(lock[1])


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class _ClassModel:
    name: str
    file: str
    node: ast.ClassDef
    lock_canon: dict = dc_field(default_factory=dict)   # attr -> canonical
    events: set = dc_field(default_factory=set)
    methods: dict = dc_field(default_factory=dict)
    attr_types: dict = dc_field(default_factory=dict)   # self.x -> ClassName

    @property
    def shared(self) -> bool:
        """A class that owns synchronization is, by its own admission,
        touched by more than one thread; lock-free classes are single-owner
        by the fabric's ownership contracts."""
        return bool(self.lock_canon or self.events)

    @property
    def is_wire(self) -> bool:
        return self.name.startswith("Wire")


@dataclass
class _ModuleModel:
    path: str
    name: str
    tree: ast.Module
    locks: set = dc_field(default_factory=set)
    counters: set = dc_field(default_factory=set)      # itertools.count
    mutables: set = dc_field(default_factory=set)      # dict/list/set/...
    classes: dict = dc_field(default_factory=dict)
    functions: dict = dc_field(default_factory=dict)
    uses_threading: bool = False


@dataclass
class _Access:
    """One ``self.<attr>`` access inside a method body."""
    file: str
    cls: str
    attr: str
    method: str
    kind: str                 # read | write | rmw | mut
    locks: frozenset
    line: int
    col: int
    published: bool           # method releases via Event.set()


@dataclass
class _FnFacts:
    """Everything one function-body walk learned (emission happens later)."""
    key: tuple                                  # summary key
    file: str
    acquires: set = dc_field(default_factory=set)
    calls: list = dc_field(default_factory=list)      # (callee_key, held, node)
    blocking: list = dc_field(default_factory=list)   # (node, desc, exempt)
    edges: list = dc_field(default_factory=list)      # (A, B, node)


@dataclass
class RaceReport:
    """Machine-readable audit companion to the findings list."""
    files: int = 0
    classes_audited: list = dc_field(default_factory=list)
    single_owner: list = dc_field(default_factory=list)
    lock_order_edges: list = dc_field(default_factory=list)
    assumptions: list = dc_field(default_factory=list)
    wire_fields: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "files": self.files,
            "classes_audited": sorted(self.classes_audited),
            "single_owner": sorted(self.single_owner),
            "lock_order_edges": sorted(self.lock_order_edges),
            "assumptions": sorted(self.assumptions),
            "wire_fields": sorted(self.wire_fields),
        }


# ---------------------------------------------------------------------------
# helpers on AST expressions
# ---------------------------------------------------------------------------

def _call_name(func: ast.AST) -> Optional[str]:
    """Terminal name of a call target: ``threading.Lock`` -> ``Lock``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_threading_call(node: ast.AST, names: frozenset,
                       mod: _ModuleModel) -> bool:
    """Is ``node`` a call creating one of ``names`` from :mod:`threading`?"""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and f.attr in names and \
            isinstance(f.value, ast.Name) and f.value.id == "threading":
        return True
    if isinstance(f, ast.Name) and f.id in names and mod.uses_threading:
        return True
    return False


def _self_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _names_in(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _self_attrs_in(node: ast.AST) -> set:
    out = set()
    for n in ast.walk(node):
        a = _self_attr(n)
        if a is not None:
            out.add(a)
    return out


# ---------------------------------------------------------------------------
# pass A: build models
# ---------------------------------------------------------------------------

def _scan_lockish_assign(stmt: ast.stmt, cm: _ClassModel,
                         mod: _ModuleModel) -> None:
    """Record lock/event attributes created by ``self.x = threading.…``."""
    targets = []
    value = None
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets, value = [stmt.target], stmt.value
    if value is None:
        return
    for tgt in targets:
        attr = _self_attr(tgt)
        if attr is None:
            continue
        if _is_threading_call(value, _LOCK_FACTORIES, mod):
            cm.lock_canon[attr] = attr
        elif _is_threading_call(value, frozenset({"Condition"}), mod):
            inner = value.args[0] if value.args else None
            alias = _self_attr(inner) if inner is not None else None
            cm.lock_canon[attr] = cm.lock_canon.get(alias, alias) \
                if alias else attr
        elif _is_threading_call(value, _EVENT_FACTORIES, mod):
            cm.events.add(attr)
        elif isinstance(value, ast.Call):
            name = _call_name(value.func)
            if name and name[0].isupper():
                cm.attr_types[attr] = name


def _build_module(path: str, tree: ast.Module) -> _ModuleModel:
    mod = _ModuleModel(path=path,
                       name=os.path.basename(path)[:-3], tree=tree)
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            text = ast.dump(stmt)
            if "threading" in text:
                mod.uses_threading = True
        elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and
              isinstance(stmt.targets[0], ast.Name)) or \
                (isinstance(stmt, ast.AnnAssign) and
                 isinstance(stmt.target, ast.Name) and
                 stmt.value is not None):
            name = stmt.targets[0].id if isinstance(stmt, ast.Assign) \
                else stmt.target.id
            v = stmt.value
            if _is_threading_call(v, _LOCK_FACTORIES | {"Condition"}, mod):
                mod.locks.add(name)
            elif isinstance(v, ast.Call) and _call_name(v.func) == "count":
                mod.counters.add(name)
            elif isinstance(v, (ast.Dict, ast.List, ast.Set)) or (
                    isinstance(v, ast.Call) and _call_name(v.func) in
                    ("dict", "list", "set", "OrderedDict", "defaultdict",
                     "deque")):
                mod.mutables.add(name)
        elif isinstance(stmt, ast.FunctionDef):
            mod.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            cm = _ClassModel(name=stmt.name, file=path, node=stmt)
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    cm.methods[sub.name] = sub
            for meth in cm.methods.values():
                for sub in ast.walk(meth):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        _scan_lockish_assign(sub, cm, mod)
            # dataclass fields: ``x: T = field(default_factory=threading.X)``
            for sub in stmt.body:
                if isinstance(sub, ast.AnnAssign) and \
                        isinstance(sub.target, ast.Name):
                    if _ann_mentions_event_factory(sub, mod):
                        cm.events.add(sub.target.id)
            mod.classes[stmt.name] = cm
    return mod


def _ann_mentions_event_factory(sub: ast.AnnAssign,
                                mod: _ModuleModel) -> bool:
    if sub.value is None or not isinstance(sub.value, ast.Call):
        return False
    if _call_name(sub.value.func) != "field":
        return False
    for kw in sub.value.keywords:
        if kw.arg == "default_factory" and isinstance(kw.value,
                                                     ast.Attribute):
            if kw.value.attr in _EVENT_FACTORIES | _LOCK_FACTORIES:
                return True
    return False


# ---------------------------------------------------------------------------
# the walker (passes B and C share it)
# ---------------------------------------------------------------------------

class _Analyzer:
    def __init__(self):
        self.modules: dict[str, _ModuleModel] = {}
        self.classes: dict[str, _ClassModel] = {}    # global, by name
        self.accesses: list[_Access] = []
        self.fn_facts: dict[tuple, _FnFacts] = {}
        self.direct: list[Diagnostic] = []           # walk-time findings
        self.report = RaceReport()
        self._dedup: set = set()

    # -- utilities --------------------------------------------------------

    def _emit(self, code: str, message: str, *, hint: str, file: str,
              node: ast.AST, subject: str = "") -> None:
        key = (code, file, getattr(node, "lineno", 0), subject, message)
        if key in self._dedup:
            return
        self._dedup.add(key)
        self.direct.append(Diagnostic(
            code, message, hint=hint, file=file,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), subject=subject))

    def _resolve_lock(self, expr: ast.AST, mod: _ModuleModel,
                      cls: Optional[_ClassModel],
                      local_locks: dict) -> Optional[LockId]:
        attr = _self_attr(expr)
        if attr is not None and cls is not None:
            canon = cls.lock_canon.get(attr)
            if canon is not None:
                return ("class", cls.name, canon)
            return None
        if isinstance(expr, ast.Name):
            if expr.id in mod.locks:
                return ("module", mod.name, expr.id)
            if expr.id in local_locks:
                return ("local", local_locks[expr.id], expr.id)
        if isinstance(expr, ast.Attribute):
            # ``obj.some_lock`` on a known attribute type
            base = _self_attr(expr.value)
            if base is not None and cls is not None:
                tname = cls.attr_types.get(base)
                target = self.classes.get(tname) if tname else None
                if target is not None:
                    canon = target.lock_canon.get(expr.attr)
                    if canon is not None:
                        return ("class", target.name, canon)
        return None

    # -- function walk ----------------------------------------------------

    def walk_function(self, fn: ast.FunctionDef, mod: _ModuleModel,
                      cls: Optional[_ClassModel], key: tuple) -> None:
        facts = _FnFacts(key=key, file=mod.path)
        self.fn_facts[key] = facts
        params = {a.arg for a in (fn.args.posonlyargs + fn.args.args +
                                  fn.args.kwonlyargs)} - {"self", "cls"}
        published = cls is not None and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "set"
            and _self_attr(n.func.value) in cls.events
            for n in ast.walk(fn))
        ctx = {"mod": mod, "cls": cls, "fn": fn, "facts": facts,
               "params": params, "published": published,
               "local_locks": {}, "registry": set(), "held": []}
        self._walk_body(fn.body, ctx)
        if cls is not None and not cls.is_wire or cls is None:
            self._wire_taint_pass(fn, mod, cls)

    def _walk_body(self, body, ctx) -> None:
        for stmt in body:
            self._walk_stmt(stmt, ctx)

    def _walk_stmt(self, stmt: ast.stmt, ctx) -> None:
        mod, cls, facts = ctx["mod"], ctx["cls"], ctx["facts"]
        held = ctx["held"]
        if isinstance(stmt, ast.With):
            acquired = []
            for item in stmt.items:
                lock = self._resolve_lock(item.context_expr, mod, cls,
                                          ctx["local_locks"])
                self._scan_expr(item.context_expr, ctx)
                if lock is not None:
                    for h in held:
                        if h != lock:
                            facts.edges.append((h, lock, stmt))
                    facts.acquires.add(lock)
                    held.append(lock)
                    acquired.append(lock)
            self._walk_body(stmt.body, ctx)
            for lock in acquired:
                held.remove(lock)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: runs later, with no lock held.
            sub_key = ctx["facts"].key + ("<nested>", stmt.name)
            saved = dict(ctx)
            self.walk_function(stmt, mod, None, sub_key)
            ctx.update(saved)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            # Track function-local locks: ``l = threading.Lock()``.
            if _is_threading_call(stmt.value, _LOCK_FACTORIES, mod):
                ctx["local_locks"][stmt.targets[0].id] = \
                    ":".join(str(k) for k in facts.key)
            # Track callables fetched from a module-level registry:
            # ``factory = _factories[key]`` — calling one under a lock runs
            # arbitrary user code inside the critical section (RPD803).
            val = stmt.value
            if isinstance(val, ast.Subscript) and \
                    isinstance(val.value, ast.Name) and \
                    val.value.id in mod.mutables:
                ctx.setdefault("registry", set()).add(stmt.targets[0].id)
            elif isinstance(val, ast.Call) and \
                    isinstance(val.func, ast.Attribute) and \
                    val.func.attr == "get" and \
                    isinstance(val.func.value, ast.Name) and \
                    val.func.value.id in mod.mutables:
                ctx.setdefault("registry", set()).add(stmt.targets[0].id)
        if isinstance(stmt, (ast.If, ast.While)):
            self._check_then_act(stmt, ctx)
            self._scan_expr(stmt.test, ctx)
            self._walk_body(stmt.body, ctx)
            self._walk_body(stmt.orelse, ctx)
            return
        if isinstance(stmt, ast.For):
            self._scan_expr(stmt.iter, ctx)
            self._walk_body(stmt.body, ctx)
            self._walk_body(stmt.orelse, ctx)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, ctx)
            for h in stmt.handlers:
                self._walk_body(h.body, ctx)
            self._walk_body(stmt.orelse, ctx)
            self._walk_body(stmt.finalbody, ctx)
            return
        # Leaf statements: scan every contained expression once.
        self._scan_stmt_leaf(stmt, ctx)

    # -- leaf-statement scanning ------------------------------------------

    def _scan_stmt_leaf(self, stmt: ast.stmt, ctx) -> None:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                self._record_store(tgt, "write", stmt, ctx)
            self._scan_expr(stmt.value, ctx)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_store(stmt.target, "write", stmt, ctx)
                self._scan_expr(stmt.value, ctx)
        elif isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, "rmw", stmt, ctx)
            self._scan_expr(stmt.value, ctx)
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                self._record_store(tgt, "write", stmt, ctx)
        elif isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value, ctx)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._scan_expr(stmt.value, ctx)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for sub in ast.iter_child_nodes(stmt):
                self._scan_expr(sub, ctx)

    def _record_store(self, tgt: ast.AST, kind: str, stmt: ast.stmt,
                      ctx) -> None:
        mod, cls = ctx["mod"], ctx["cls"]
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for el in tgt.elts:
                self._record_store(el, kind, stmt, ctx)
            return
        # self.X = … / self.X[i] = … / self.X += …
        base = tgt
        via_subscript = False
        if isinstance(tgt, ast.Subscript):
            base, via_subscript = tgt.value, True
            self._scan_expr(tgt.slice, ctx)
        attr = _self_attr(base)
        if attr is not None and cls is not None:
            self._note_access(attr, "mut" if via_subscript else kind,
                              stmt, ctx)
            if kind == "rmw":
                self._maybe_rpd801_attr(attr, stmt, ctx)
            return
        if isinstance(base, ast.Name):
            name = base.id
            if name in mod.mutables or name in mod.counters:
                self._module_mutation(name, kind if not via_subscript
                                      else "mut", stmt, ctx)

    def _note_access(self, attr: str, kind: str, node: ast.AST,
                     ctx) -> None:
        cls, fn = ctx["cls"], ctx["fn"]
        if cls is None or attr in cls.lock_canon or attr in cls.events:
            return
        self.accesses.append(_Access(
            file=ctx["mod"].path, cls=cls.name, attr=attr,
            method=fn.name, kind=kind, locks=frozenset(ctx["held"]),
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            published=ctx["published"]))

    def _maybe_rpd801_attr(self, attr: str, stmt: ast.stmt, ctx) -> None:
        cls, fn = ctx["cls"], ctx["fn"]
        if cls is None or not cls.shared or fn.name in _INIT_METHODS:
            return
        if ctx["held"]:
            return
        self._emit(
            "RPD801",
            f"compound update of shared attribute '{attr}' relies on GIL "
            f"atomicity: '{cls.name}.{attr}' is read-modify-written "
            "outside any lock",
            hint="guard the update with the owning lock (a += on shared "
                 "state is a lost-update race off the GIL)",
            file=ctx["mod"].path, node=stmt,
            subject=f"{cls.name}.{attr}")

    def _module_mutation(self, name: str, kind: str, stmt: ast.stmt,
                         ctx) -> None:
        mod = ctx["mod"]
        if not mod.uses_threading:
            return
        if any(h[0] == "module" and h[1] == mod.name for h in ctx["held"]):
            return
        if ctx["held"]:
            return  # guarded by some lock; identity-imprecise but guarded
        if name in mod.counters or kind == "rmw":
            self._emit(
                "RPD801",
                f"module-level shared state '{name}' is advanced outside "
                "any lock; only the GIL makes this atomic",
                hint="allocate from a lock-guarded allocator (see "
                     "repro.ucp.wire._MsgIdAllocator)",
                file=mod.path, node=stmt, subject=f"{mod.name}.{name}")
        else:
            self._emit(
                "RPD800",
                f"module-level mutable '{name}' is mutated outside the "
                "module's locks",
                hint="take the module lock around the mutation",
                file=mod.path, node=stmt, subject=f"{mod.name}.{name}")

    def _check_then_act(self, stmt, ctx) -> None:
        """``if <reads X>: …mutate X…`` outside any lock (RPD801)."""
        mod, cls = ctx["mod"], ctx["cls"]
        if ctx["held"]:
            return
        read_attrs = _self_attrs_in(stmt.test) if cls is not None else set()
        read_globals = {n for n in _names_in(stmt.test)
                        if n in mod.mutables or n in mod.counters}
        if not read_attrs and not read_globals:
            return
        mutated_attrs, mutated_globals = self._mutations_in(stmt.body, ctx)
        hit_attrs = read_attrs & mutated_attrs
        hit_globals = read_globals & mutated_globals \
            if mod.uses_threading else set()
        if cls is not None and (not cls.shared or
                                ctx["fn"].name in _INIT_METHODS):
            hit_attrs = set()
        for attr in sorted(hit_attrs):
            if self._is_lazy_init(stmt, attr):
                self.report.assumptions.append(
                    f"{cls.name}.{attr}: lazy idempotent publish "
                    f"({os.path.basename(mod.path)}:{stmt.lineno})")
                continue
            self._emit(
                "RPD801",
                f"check-then-act on shared attribute "
                f"'{cls.name}.{attr}' outside any lock: the state can "
                "change between the test and the update",
                hint="hold the owning lock across the test and the update",
                file=mod.path, node=stmt, subject=f"{cls.name}.{attr}")
        for name in sorted(hit_globals):
            self._emit(
                "RPD801",
                f"check-then-act on module-level shared state '{name}' "
                "outside any lock",
                hint="hold the module lock across the test and the update",
                file=mod.path, node=stmt, subject=f"{mod.name}.{name}")

    def _mutations_in(self, body, ctx):
        attrs, globals_ = set(), set()
        for stmt in body:
            for node in ast.walk(stmt):
                tgt = None
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    tgts = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for tgt in tgts:
                        base = tgt.value if isinstance(tgt, ast.Subscript) \
                            else tgt
                        a = _self_attr(base)
                        if a is not None:
                            attrs.add(a)
                        elif isinstance(base, ast.Name):
                            globals_.add(base.id)
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATING_METHODS:
                    a = _self_attr(node.func.value)
                    if a is not None:
                        attrs.add(a)
                    elif isinstance(node.func.value, ast.Name):
                        globals_.add(node.func.value.id)
        return attrs, globals_

    @staticmethod
    def _is_lazy_init(stmt, attr: str) -> bool:
        """``if self._x is None: self._x = <expr>`` — idempotent publish."""
        test = stmt.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1 and
                isinstance(test.ops[0], ast.Is) and
                isinstance(test.comparators[0], ast.Constant) and
                test.comparators[0].value is None and
                _self_attr(test.left) == attr):
            return False
        writes = [n for s in stmt.body for n in ast.walk(s)
                  if isinstance(n, (ast.Assign, ast.AugAssign))
                  and any(_self_attr(t) == attr for t in
                          (n.targets if isinstance(n, ast.Assign)
                           else [n.target]))]
        return len(writes) == 1 and isinstance(writes[0], ast.Assign)

    # -- expression scanning ----------------------------------------------

    def _scan_expr(self, expr: ast.AST, ctx) -> None:
        if expr is None:
            return
        mod, cls, facts = ctx["mod"], ctx["cls"], ctx["facts"]
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                # A lambda body runs later, with nothing held.
                sub = dict(ctx)
                sub["held"] = []
                for inner in ast.walk(node.body):
                    if isinstance(inner, ast.Call):
                        self._scan_call(inner, sub)
                continue
            if isinstance(node, ast.Call):
                self._scan_call(node, ctx)
            a = _self_attr(node)
            if a is not None and isinstance(node.ctx, ast.Load):
                self._note_access(a, "read", node, ctx)

    def _scan_call(self, call: ast.Call, ctx) -> None:
        mod, cls, facts = ctx["mod"], ctx["cls"], ctx["facts"]
        held = list(ctx["held"])
        fname = _call_name(call.func)
        # next(counter) on a module-level itertools.count
        if isinstance(call.func, ast.Name) and call.func.id == "next" and \
                call.args and isinstance(call.args[0], ast.Name) and \
                call.args[0].id in mod.counters:
            self._module_mutation(call.args[0].id, "rmw", call, ctx)
        # mutating container method on self.X or module global
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in _MUTATING_METHODS:
            a = _self_attr(call.func.value)
            if a is not None:
                tname = cls.attr_types.get(a) if cls is not None else None
                target = self.classes.get(tname) if tname else None
                if target is not None and target.shared:
                    # Delegation to an internally-synchronized component
                    # (e.g. MemoryTracker.pool is a lock-owning BufferPool):
                    # the callee guards its own state, so the caller needs
                    # no lock of its own.
                    note = (f"{cls.name}.{a}: mutating calls delegate to "
                            f"internally-synchronized {tname}")
                    if note not in self.report.assumptions:
                        self.report.assumptions.append(note)
                else:
                    self._note_access(a, "mut", call, ctx)
            elif isinstance(call.func.value, ast.Name) and \
                    call.func.value.id in mod.mutables:
                self._module_mutation(call.func.value.id, "mut", call, ctx)
        # blocking primitives
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in ("wait", "wait_for", "sleep"):
            base_lock = self._resolve_lock(call.func.value, mod, cls,
                                           ctx["local_locks"])
            is_time_sleep = call.func.attr == "sleep"
            exempt = (not is_time_sleep and base_lock is not None
                      and base_lock in held)
            desc = f"'{ast.unparse(call.func)}'" if hasattr(ast, "unparse") \
                else f"'.{call.func.attr}'"
            facts.blocking.append((call, f"blocking call {desc}", exempt))
            if held and not exempt:
                self._emit(
                    "RPD803",
                    f"blocking call {desc} while holding "
                    f"{_lock_label(held[-1])}: other threads needing the "
                    "lock stall (or deadlock) until the wait returns",
                    hint="move the wait outside the critical section, or "
                         "wait on the owning condition itself",
                    file=mod.path, node=call,
                    subject=_lock_label(held[-1]))
        # user-supplied callback invoked under a lock: a parameter, or a
        # callable fetched out of a module-level registry (the typecache's
        # ``factory = _factories[key]`` shape).
        if isinstance(call.func, ast.Name) and \
                (call.func.id in ctx["params"] or
                 call.func.id in ctx.get("registry", ())) and held:
            self._emit(
                "RPD803",
                f"user-supplied callable '{call.func.id}' invoked while "
                f"holding {_lock_label(held[-1])}: arbitrary code may "
                "block or re-enter and self-deadlock",
                hint="run the callback outside the lock and publish the "
                     "result with a double-checked insert",
                file=mod.path, node=call, subject=_lock_label(held[-1]))
        # record resolvable calls for the lock-order/blocking fixpoint
        callee = self._resolve_callee(call, ctx)
        if callee is not None:
            facts.calls.append((callee, frozenset(held), call))

    def _resolve_callee(self, call: ast.Call, ctx) -> Optional[tuple]:
        mod, cls = ctx["mod"], ctx["cls"]
        f = call.func
        if isinstance(f, ast.Attribute):
            base_attr = _self_attr(f.value)
            if isinstance(f.value, ast.Name) and f.value.id == "self" and \
                    cls is not None and f.attr in cls.methods:
                return ("method", cls.name, f.attr)
            if base_attr is not None and cls is not None:
                tname = cls.attr_types.get(base_attr)
                target = self.classes.get(tname) if tname else None
                if target is not None and f.attr in target.methods:
                    return ("method", target.name, f.attr)
        elif isinstance(f, ast.Name) and f.id in mod.functions:
            return ("func", mod.name, f.id)
        return None

    # -- wire audit (RPD810/811) ------------------------------------------

    def _wire_taint_pass(self, fn: ast.FunctionDef, mod: _ModuleModel,
                         cls: Optional[_ClassModel]) -> None:
        src_names = {n for n in _names_in(fn)}
        wire_names = {name for name, c in self.classes.items() if c.is_wire}
        if not (src_names & wire_names) and not any(
                isinstance(n, ast.Attribute) and n.attr == "chunks" and
                isinstance(n.ctx, ast.Store)
                for n in ast.walk(fn)):
            return
        taint: dict[str, tuple] = {}
        for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            if a.arg in ("self", "cls"):
                continue
            taint[a.arg] = (f"parameter '{a.arg}'", 0, 0)

        def expr_taint(expr) -> Optional[tuple]:
            """Provenance if ``expr`` may alias tainted memory."""
            if isinstance(expr, ast.Call):
                name = _call_name(expr.func)
                if name in _COPY_BARRIERS:
                    for kw in expr.keywords:
                        if kw.arg == "copy" and \
                                isinstance(kw.value, ast.Constant) and \
                                kw.value.value is False:
                            break
                    else:
                        return None
                if name in ("list", "tuple") and expr.args and \
                        isinstance(expr.args[0], ast.Name):
                    return taint.get(expr.args[0].id)
                if isinstance(expr.func, ast.Attribute):
                    base = expr.func.value
                    if isinstance(base, ast.Name) and base.id in taint:
                        return taint[base.id]
                return None
            if isinstance(expr, ast.Name):
                return taint.get(expr.id)
            if isinstance(expr, ast.Attribute):
                inner = expr.value
                while isinstance(inner, ast.Attribute):
                    inner = inner.value
                if isinstance(inner, ast.Name):
                    return taint.get(inner.id)
                return None
            if isinstance(expr, (ast.Subscript, ast.Starred)):
                return expr_taint(expr.value)
            if isinstance(expr, (ast.List, ast.Tuple)):
                for el in expr.elts:
                    t = expr_taint(el)
                    if t is not None:
                        return t
                return None
            if isinstance(expr, ast.IfExp):
                return expr_taint(expr.body) or expr_taint(expr.orelse)
            return None

        # Source order, not ast.walk (BFS) order: taint must flow through
        # assignments before the wire-construction sites that consume them.
        nodes = sorted(
            (n for n in ast.walk(fn)
             if isinstance(n, (ast.Assign, ast.Call))),
            key=lambda n: (n.lineno, n.col_offset))
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                t = expr_taint(node.value)
                if isinstance(tgt, ast.Name):
                    if t is not None:
                        desc = t[0]
                        taint[tgt.id] = (desc, node.lineno, node.col_offset)
                    else:
                        taint.pop(tgt.id, None)
                elif isinstance(tgt, ast.Attribute) and \
                        tgt.attr == "chunks" and t is not None:
                    self._emit_rpd810(t, node, mod)
            elif isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name not in wire_names:
                    continue
                payload_args = list(node.args[1:2]) + [
                    kw.value for kw in node.keywords
                    if kw.arg in ("chunks", "payload", "buffers")]
                for arg in payload_args:
                    t = expr_taint(arg)
                    if t is not None:
                        self._emit_rpd810(t, node, mod)

    def _emit_rpd810(self, provenance: tuple, node: ast.AST,
                     mod: _ModuleModel) -> None:
        desc, line, col = provenance
        line = line or getattr(node, "lineno", 0)
        col = col if line else getattr(node, "col_offset", 0)
        key = ("RPD810", mod.path, line, desc)
        if key in self._dedup:
            return
        self._dedup.add(key)
        self.direct.append(Diagnostic(
            "RPD810",
            f"wire payload aliases {desc} by reference: in-process ranks "
            "share this memory, a process-boundary transport must copy or "
            "map it",
            hint="stage through copy_chunks()/a pool buffer, or document "
                 "the mapping contract for the shared-memory backend",
            file=mod.path, line=line, col=col, subject=desc))

    def _wire_field_audit(self, mod: _ModuleModel) -> None:
        for cls in mod.classes.values():
            if not cls.is_wire:
                continue
            body = list(cls.node.body)
            init = cls.methods.get("__init__")
            if init is not None:
                body += list(ast.walk(init))
            for sub in body:
                self._wire_field_stmt(sub, cls, mod)

    def _wire_field_stmt(self, sub, cls: _ClassModel,
                         mod: _ModuleModel) -> None:
        attr, kind, node = None, None, None
        if isinstance(sub, ast.AnnAssign):
            tgt = sub.target
            attr = tgt.id if isinstance(tgt, ast.Name) else _self_attr(tgt)
            ann = ast.unparse(sub.annotation) if hasattr(ast, "unparse") \
                else ast.dump(sub.annotation)
            for bad in _NONSERIALIZABLE_ANNOTATIONS:
                if re.search(rf"\b{bad}\b", ann):
                    kind, node = f"annotated '{ann}'", sub
                    break
            if kind is None and sub.value is not None and \
                    _ann_mentions_event_factory(sub, mod):
                kind, node = "a threading primitive (default_factory)", sub
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            attr = _self_attr(sub.targets[0])
            if attr is None:
                return
            if _is_threading_call(sub.value,
                                  _EVENT_FACTORIES | _LOCK_FACTORIES |
                                  {"Condition"}, mod):
                kind, node = "a threading primitive", sub
            elif isinstance(sub.value, ast.Lambda):
                kind, node = "a callable", sub
        if attr and kind and node is not None:
            self._emit(
                "RPD811",
                f"non-serializable field on the wire envelope: "
                f"'{cls.name}.{attr}' is {kind} and cannot cross a "
                "process boundary",
                hint="keep control-plane state (events, exceptions, "
                     "callables) off the envelope, or define its "
                     "serialized replacement for process transports",
                file=mod.path, node=node, subject=f"{cls.name}.{attr}")
            self.report.wire_fields.append(f"{cls.name}.{attr}: {kind}")

    # -- aggregation and fixpoint -----------------------------------------

    def summarize(self) -> dict:
        """Fixpoint over (acquires, blocks) per function summary key."""
        summaries = {k: {"acquires": set(f.acquires),
                         "blocks": bool(f.blocking)}
                     for k, f in self.fn_facts.items()}
        changed = True
        while changed:
            changed = False
            for k, facts in self.fn_facts.items():
                s = summaries[k]
                for callee, _held, _node in facts.calls:
                    cs = summaries.get(callee)
                    if cs is None:
                        continue
                    before = (len(s["acquires"]), s["blocks"])
                    s["acquires"] |= cs["acquires"]
                    s["blocks"] = s["blocks"] or cs["blocks"]
                    if (len(s["acquires"]), s["blocks"]) != before:
                        changed = True
        return summaries

    def emit_aggregate(self) -> None:
        summaries = self.summarize()
        # call-propagated lock-order edges + blocking-under-lock
        edge_sites: dict[tuple, tuple] = {}
        for facts in self.fn_facts.values():
            for a, b, node in facts.edges:
                edge_sites.setdefault(
                    (a, b), (facts.file, node.lineno, node.col_offset))
            for callee, held, node in facts.calls:
                cs = summaries.get(callee)
                if cs is None or not held:
                    continue
                for a in held:
                    for b in cs["acquires"]:
                        if a != b:
                            edge_sites.setdefault(
                                (a, b),
                                (facts.file, node.lineno, node.col_offset))
                if cs["blocks"]:
                    own = self.fn_facts.get(callee)
                    all_exempt = own is not None and own.blocking and \
                        all(e for (_n, _d, e) in own.blocking)
                    if not all_exempt:
                        held_l = sorted(_lock_label(h) for h in held)
                        self._emit(
                            "RPD803",
                            f"call to '{callee[2]}' (which can block on a "
                            f"wait/sleep) while holding {held_l[0]}",
                            hint="complete the blocking operation outside "
                                 "the critical section",
                            file=facts.file, node=node, subject=held_l[0])
        for (a, b), (f, ln, col) in sorted(edge_sites.items(),
                                           key=lambda kv: kv[1]):
            self.report.lock_order_edges.append(
                f"{_lock_label(a)} -> {_lock_label(b)} "
                f"({os.path.basename(f)}:{ln})")
        self._emit_inversions(edge_sites)
        self._emit_rpd800()

    def _emit_inversions(self, edge_sites: dict) -> None:
        seen_pairs = set()
        for (a, b), site in sorted(edge_sites.items(),
                                   key=lambda kv: kv[1]):
            if (b, a) not in edge_sites:
                continue
            pair = tuple(sorted((a, b)))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            f, ln, col = site
            rf, rln, _rcol = edge_sites[(b, a)]
            self.direct.append(Diagnostic(
                "RPD802",
                f"lock-order inversion: {_lock_label(a)} -> "
                f"{_lock_label(b)} here, but {_lock_label(b)} -> "
                f"{_lock_label(a)} at {os.path.basename(rf)}:{rln}; two "
                "threads taking the locks in opposite orders deadlock",
                hint="impose a global acquisition order (or collapse the "
                     "critical sections into one lock)",
                file=f, line=ln, col=col,
                subject=f"{_lock_label(a)} vs {_lock_label(b)}"))

    def _emit_rpd800(self) -> None:
        table: dict[tuple, list] = {}
        for a in self.accesses:
            table.setdefault((a.cls, a.attr), []).append(a)
        for (cls_name, attr), accs in sorted(table.items()):
            cls = self.classes.get(cls_name)
            if cls is None or not cls.shared:
                continue
            methods = {a.method for a in accs} - _INIT_METHODS
            ever_locked = any(a.locks for a in accs)
            unlocked = [
                a for a in accs
                if a.kind in ("write", "mut") and not a.locks
                and a.method not in _INIT_METHODS and not a.published]
            if not unlocked or (len(methods) < 2 and not ever_locked):
                continue
            for a in unlocked:
                guard = "guarded elsewhere by a lock" if ever_locked \
                    else f"shared across {len(methods)} methods"
                self._emit(
                    "RPD800",
                    f"unsynchronized write to shared attribute "
                    f"'{cls_name}.{attr}' ({guard}): concurrent access "
                    "is only safe by accident of the GIL",
                    hint="hold the owning lock for every write, or move "
                         "the attribute into single-owner state",
                    file=a.file,
                    node=type("N", (), {"lineno": a.line,
                                        "col_offset": a.col})(),
                    subject=f"{cls_name}.{attr}")
        # publish the ownership ledger
        for name, cls in sorted(self.classes.items()):
            if cls.shared:
                self.report.classes_audited.append(name)
            elif cls.methods:
                self.report.single_owner.append(name)
        for a in self.accesses:
            if a.published and a.kind in ("write", "mut") and not a.locks \
                    and a.method not in _INIT_METHODS:
                note = (f"{a.cls}.{a.attr}: published via Event.set() "
                        f"({os.path.basename(a.file)}:{a.line})")
                if note not in self.report.assumptions:
                    self.report.assumptions.append(note)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def analyze_paths(paths) -> tuple[list[Diagnostic], int, RaceReport]:
    """Jointly analyze every ``.py`` file under ``paths``.

    Returns ``(findings, nfiles, report)``.  ``# noqa: RPD8xx`` directives
    on the flagged line suppress, with RPD590 notices for directives that
    suppressed nothing — same contract as the linter and flow verifier.
    """
    files = py_files(paths, exclude=("races_corpus",))
    an = _Analyzer()
    sources: dict[str, str] = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            an.direct.append(Diagnostic(
                "RPD300", f"parse failed: {type(exc).__name__}: {exc}",
                file=path))
            continue
        sources[path] = source
        mod = _build_module(path, tree)
        an.modules[mod.name] = mod
        an.classes.update(mod.classes)
    for mod in an.modules.values():
        an._wire_field_audit(mod)
        for name, fn in mod.functions.items():
            an.walk_function(fn, mod, None, ("func", mod.name, name))
        for cls in mod.classes.values():
            for mname, meth in cls.methods.items():
                an.walk_function(meth, mod, cls,
                                 ("method", cls.name, mname))
            # class-body field defaults (e.g. default_factory lambdas)
            for stmt in cls.node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    key = ("classbody", cls.name, stmt.lineno)
                    facts = _FnFacts(key=key, file=mod.path)
                    an.fn_facts[key] = facts
                    ctx = {"mod": mod, "cls": None, "fn": None,
                           "facts": facts, "params": set(),
                           "published": False, "local_locks": {},
                           "held": []}
                    if stmt.value is not None:
                        an._scan_expr(stmt.value, ctx)
    an.emit_aggregate()
    findings = suppress_files(an.direct, sorted(sources), sources)
    an.report.files = len(files)
    return findings, len(files), an.report


def shipped_audit_paths() -> list[str]:
    """The default audit set: the fabric, the MPI layer, the type caches,
    and the job service (whose scheduler slots hammer all of the above
    concurrently)."""
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [os.path.join(pkg, "ucp"),
            os.path.join(pkg, "mpi"),
            os.path.join(pkg, "core", "typecache.py"),
            os.path.join(pkg, "serve")]


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "races_corpus")


def corpus_expectations(path: str) -> list[str]:
    """The ``# expects: RPD8xx`` designations of one corpus fixture."""
    codes: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            m = _EXPECT_RE.search(line)
            if m:
                codes.extend(c.strip() for c in m.group(1).split(",")
                             if c.strip())
    return codes


def run_corpus():
    """Run the seeded bug corpus; every fixture must fire its designation.

    Returns ``(findings, missed, nfiles)`` — mirroring
    ``protomodel.run_mutant_corpus``: findings are EXPECTED, a non-empty
    ``missed`` means a seeded race escaped its designated code.
    """
    cdir = corpus_dir()
    fixtures = sorted(
        os.path.join(cdir, fn) for fn in os.listdir(cdir)
        if fn.endswith(".py") and fn != "__init__.py")
    findings: list[Diagnostic] = []
    missed: list[str] = []
    for path in fixtures:
        expected = corpus_expectations(path)
        per_file, _n, _rep = analyze_paths([path])
        findings.extend(per_file)
        fired = {d.code for d in per_file}
        for code in expected:
            if code not in fired:
                missed.append(f"{os.path.basename(path)}: {code}")
    return findings, missed, len(fixtures)
