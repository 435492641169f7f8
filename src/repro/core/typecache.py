"""Per-Python-type datatype caching (the RSMPI derive-macro behaviour).

RSMPI creates a derived datatype lazily "on first use of the type in a call"
and caches it for later usage (Section II.D).  :func:`cached_datatype` gives
Python classes the same ergonomics: decorate a zero-argument factory — or
register one per class — and every call site shares a single committed
datatype instance.

The module also hosts the **pack-plan cache**: :func:`pack_plan` compiles a
:class:`repro.core.packplan.PackPlan` at most once per canonical layout
(:meth:`repro.core.typemap.Typemap.layout_key`) and serves it from a bounded
LRU, so structurally equal datatypes — built fresh per job, over different
scalar types, used with any count — share one compiled plan.  A datatype
resolves its plan once: :func:`bound_plan` looks it up on the datatype's
first use and binds it to the datatype (``Datatype._plan``), so a message
reads size, contiguity and block count off the bound plan and makes no
cache lookup.  :func:`clear_plan_cache` (and an LRU eviction) unbinds, so
the next use looks the layout up again.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable

from .datatype import Datatype
from .packplan import PackPlan

_lock = threading.Lock()
_cache: dict[Any, Datatype] = {}
_factories: dict[Any, Callable[[], Datatype]] = {}


def register_datatype(key: Any, factory: Callable[[], Datatype]) -> None:
    """Register a lazy datatype factory under ``key`` (usually a class).

    The factory runs at most once, on first :func:`datatype_of` lookup —
    exactly RSMPI's first-use creation + caching.
    """
    with _lock:
        _factories[key] = factory
        _cache.pop(key, None)


def datatype_of(key: Any) -> Datatype:
    """The cached datatype for ``key``, creating it on first use."""
    with _lock:
        if key in _cache:
            return _cache[key]
        try:
            factory = _factories[key]
        except KeyError:
            raise KeyError(f"no datatype registered for {key!r}") from None
    # Run the user factory with no lock held (RPD803): a factory that
    # re-enters the cache — a struct type resolving a nested registered
    # type — would self-deadlock on the non-reentrant lock, and every
    # other rank would stall behind arbitrary user code.
    dtype = factory()
    commit = getattr(dtype, "commit", None)
    if callable(commit):
        commit()
    with _lock:
        # Two ranks may race to build the same type; the first insert
        # wins and the duplicate is discarded (factories are pure).
        return _cache.setdefault(key, dtype)


def cached_datatype(key: Any):
    """Decorator form of :func:`register_datatype`::

        @cached_datatype(Particle)
        def _particle_type():
            return StructSpec([...]).custom_datatype()

        comm.send(p, dest=1, datatype=datatype_of(Particle))
    """

    def deco(factory: Callable[[], Datatype]):
        register_datatype(key, factory)
        return factory

    return deco


def clear_datatype_cache() -> None:
    """Drop every cached instance (factories stay registered)."""
    with _lock:
        _cache.clear()


def cache_info() -> dict[str, int]:
    """(registered, instantiated) counts — for tests and debugging."""
    with _lock:
        return {"registered": len(_factories), "instantiated": len(_cache)}


# ---------------------------------------------------------------------------
# pack-plan LRU
# ---------------------------------------------------------------------------

#: Upper bound on cached plans (distinct layouts); covers every benchmark
#: and any plausible application working set.
PLAN_CACHE_MAXSIZE = 256

_plan_lock = threading.Lock()
_plans: OrderedDict[tuple[int, int, bytes], PackPlan] = OrderedDict()
_plan_stats = {"hits": 0, "contig_hits": 0, "compiled_hits": 0,
               "misses": 0, "evictions": 0, "compile_races": 0}
#: Datatypes holding a bound plan (``Datatype._plan``), unbound when their
#: plan leaves the cache.
_bound: weakref.WeakSet = weakref.WeakSet()


def pack_plan(dtype: Datatype, count: int = 1) -> PackPlan:
    """The compiled plan for packing elements of ``dtype`` (a datatype, or
    any other carrier of a ``.typemap``).

    Compiled on first use per layout key and cached in an LRU of
    :data:`PLAN_CACHE_MAXSIZE` entries; every call is one lookup.
    ``count`` selects nothing (one plan executes any count); callers may
    keep passing it.
    """
    return _lookup(dtype, None)


def bound_plan(dtype: Datatype) -> PackPlan:
    """``dtype``'s plan, resolved once: the first call looks the layout up
    (:func:`pack_plan`) and binds the plan to ``dtype`` as ``_plan``, where
    ``pack``/``unpack`` and the engine read it (``dtype._plan or
    bound_plan(dtype)``) with no lookup.  Anything else that carries a
    ``.typemap`` is looked up on every call, as by :func:`pack_plan`."""
    return _lookup(dtype, dtype if isinstance(dtype, Datatype) else None)


def _lookup(dtype, bind: Datatype | None) -> PackPlan:
    """One plan-cache lookup; ``bind`` gets the plan bound under the same
    lock that served it, so a concurrent clear or eviction cannot leave a
    datatype holding a plan the cache dropped."""
    tm = dtype.typemap
    key = tm.layout_key()
    with _plan_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            _plan_stats["hits"] += 1
            # Bucket by what the hit saved: a contiguous fast-path plan is
            # a trivial memcpy decision, a compiled plan skipped the full
            # IR lowering + pass pipeline.
            if plan.contiguous:
                _plan_stats["contig_hits"] += 1
            else:
                _plan_stats["compiled_hits"] += 1
            if bind is not None:
                _bind(bind, plan)
            return plan
        _plan_stats["misses"] += 1
    # Compile outside the lock (pure function of the immutable typemap; a
    # concurrent duplicate compile is wasted work, never wrong).
    plan = PackPlan(tm)
    with _plan_lock:
        # Double-checked insert: under concurrent jobs two slots can miss
        # on the same key and compile in parallel.  First insert wins —
        # mirroring ``datatype_of`` — so exactly one plan object is ever
        # live per layout.
        existing = _plans.get(key)
        if existing is not None:
            _plan_stats["compile_races"] += 1
            plan = existing
        else:
            _plans[key] = plan
            while len(_plans) > PLAN_CACHE_MAXSIZE:
                _, evicted = _plans.popitem(last=False)
                _plan_stats["evictions"] += 1
                for dt in [dt for dt in _bound if dt._plan is evicted]:
                    _unbind(dt)
        if bind is not None:
            _bind(bind, plan)
    return plan


def _bind(dtype: Datatype, plan: PackPlan) -> None:
    """(plan lock held)"""
    dtype._plan = plan
    _bound.add(dtype)


def _unbind(dtype: Datatype) -> None:
    """(plan lock held)"""
    dtype._plan = None
    _bound.discard(dtype)


def plan_cache_info() -> dict[str, int]:
    """Plan-cache statistics: size, hits, misses, evictions.

    ``hits`` is the total; ``contig_hits``/``compiled_hits`` split it by
    whether the served plan was a contiguous fast-path plan or a compiled
    (IR-lowered) one, so the pipeline's cache behaviour is observable.
    ``compile_races`` counts misses that lost the insert to a concurrent
    compile of the same layout.  A datatype whose plan is bound makes no
    lookup, so the counters count resolutions (a datatype's first use, and
    every :func:`pack_plan` call), not messages.
    """
    with _plan_lock:
        return {"size": len(_plans), **_plan_stats}


def clear_plan_cache() -> None:
    """Drop every cached plan, unbind every bound one and reset the
    statistics: the next use of any datatype compiles afresh."""
    with _plan_lock:
        _plans.clear()
        for dt in list(_bound):
            _unbind(dt)
        for k in _plan_stats:
            _plan_stats[k] = 0
