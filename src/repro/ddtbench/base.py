"""DDTBench workload machinery.

DDTBench (Schneider, Gerstenberger, Hoefler — EuroMPI'12) extracts the
communication data-access patterns of real applications.  Each workload here
describes the bytes it exchanges as a :class:`RunLayout` — an ordered list of
(offset, length) *runs* into a backing buffer — plus the explicit nested-loop
manual packer that mirrors the original Fortran/C pack code.  From the layout
we derive every transfer method of the paper's Fig. 10:

* ``reference``      — a contiguous pingpong of the same packed size,
* ``ompi-datatype``  — the derived datatype (hindexed over the runs) sent
  directly through the datatype engine,
* ``ompi-pack``      — MPI_Pack with that datatype, then a contiguous send,
* ``manual-pack``    — the workload's own nested-loop packer, contiguous send,
* ``custom-pack``    — the paper's API, pack callbacks only,
* ``custom-region``  — the paper's API, one memory region per contiguous run
  (only for workloads where Table I marks regions as sensible),
* ``custom-coro``    — pack callbacks implemented as a suspendable generator
  (the paper's C++-coroutine experiment, working here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from ..core import (BYTE, CustomDatatype, DerivedDatatype, PackPlan, Region,
                    Typemap, coroutine_pack_callbacks, from_numpy_dtype,
                    hindexed, pack_plan, resized, type_create_custom)
from ..core.callbacks import whole_stream_callbacks


@dataclass(frozen=True)
class WorkloadMeta:
    """One row of the paper's Table I."""

    name: str
    mpi_datatypes: str
    loop_structure: str
    memory_regions: bool


class RunLayout:
    """Ordered contiguous byte runs into one backing buffer (immutable):
    the validated runs, two sizes, and the typemap of the runs — the key
    under which :func:`~repro.core.typecache.pack_plan` serves the plan
    :meth:`gather`/:meth:`scatter` execute, the same plan the ``hindexed``
    spelling of the layout compiles to."""

    def __init__(self, runs: Iterable[tuple[int, int]], buffer_bytes: int):
        arr = np.asarray(list(runs), dtype=np.int64).reshape(-1, 2)
        self.runs = arr
        self.buffer_bytes = buffer_bytes
        if (arr[:, 1] <= 0).any():
            raise ValueError("run lengths must be positive")
        if (arr[:, 0] < 0).any() or (arr.sum(axis=1) > buffer_bytes).any():
            raise ValueError("run outside backing buffer")
        self.total_bytes = int(arr[:, 1].sum())

    @property
    def run_count(self) -> int:
        return self.runs.shape[0]

    def merged(self) -> "RunLayout":
        """Coalesce runs adjacent in both order and memory (region extraction)."""
        blocks = self.typemap.merged_blocks()
        return RunLayout([(b.offset, b.length) for b in blocks],
                         self.buffer_bytes)

    @cached_property
    def typemap(self) -> Typemap:
        """The runs as a typemap (the layout's key into the plan cache)."""
        return Typemap.from_runs(self.runs, self.buffer_bytes)

    @cached_property
    def plan(self) -> PackPlan:
        """The compiled pack plan: looked up once, then held."""
        return pack_plan(self)

    @staticmethod
    def _flat(buf: np.ndarray, nbytes: int) -> np.ndarray:
        """``buf`` as flat bytes, refused when shorter than ``nbytes``."""
        flat = buf.view(np.uint8).reshape(-1)
        if flat.shape[0] < nbytes:
            raise ValueError(
                f"{flat.shape[0]}-byte buffer where the layout needs {nbytes}")
        return flat

    def gather(self, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pack all runs into ``out`` (a fresh buffer when None)."""
        if out is None:
            out = np.empty(self.total_bytes, dtype=np.uint8)
        self.plan.pack_into(self._flat(buf, self.buffer_bytes), 1,
                            self._flat(out, self.total_bytes))
        return out

    def scatter(self, packed: np.ndarray, buf: np.ndarray) -> None:
        """Unpack all runs; runs that overlap are written in run order."""
        self.plan.unpack_into(self._flat(buf, self.buffer_bytes), 1,
                              self._flat(packed, self.total_bytes))


class Workload:
    """Base class: a backing buffer + a run layout + Table I metadata."""

    meta: WorkloadMeta

    #: Element dtype of the backing buffer (for the derived datatype base).
    element_dtype = np.dtype("<f8")

    def __init__(self):
        self.layout = self.build_layout()

    # -- to implement per workload -----------------------------------------

    def build_layout(self) -> RunLayout:
        raise NotImplementedError

    def make_send_buffer(self) -> np.ndarray:
        """Backing buffer with deterministic contents."""
        raise NotImplementedError

    def manual_pack(self, buf: np.ndarray) -> np.ndarray:
        """The workload's own nested-loop packer (mirrors the C code)."""
        raise NotImplementedError

    def manual_unpack(self, packed: np.ndarray, buf: np.ndarray) -> None:
        raise NotImplementedError

    # -- generic machinery ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.meta.name

    @property
    def packed_bytes(self) -> int:
        return self.layout.total_bytes

    def make_recv_buffer(self) -> np.ndarray:
        buf = self.make_send_buffer()
        flat = buf.view(np.uint8).reshape(-1)
        flat[:] = 0
        return buf

    def exchanged_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Compare only the exchanged runs of two backing buffers."""
        return bool(np.array_equal(self.layout.gather(a), self.layout.gather(b)))

    def derived_datatype(self) -> DerivedDatatype:
        """hindexed over the runs, in element units of ``element_dtype``."""
        esize = self.element_dtype.itemsize
        runs = self.layout.runs
        if (runs[:, 0] % esize).any() or (runs[:, 1] % esize).any():
            base = BYTE
            blens = runs[:, 1].tolist()
            displs = runs[:, 0].tolist()
        else:
            base = from_numpy_dtype(self.element_dtype)
            blens = (runs[:, 1] // esize).tolist()
            displs = runs[:, 0].tolist()
        t = hindexed(blens, displs, base)
        return resized(t, 0, self.layout.buffer_bytes).commit()

    # -- custom datatypes ---------------------------------------------------

    def custom_pack_datatype(self) -> CustomDatatype:
        """Pack-only custom type over the backing buffer: gathers straight
        into, and scatters straight out of, a window that covers the stream
        (what the engine offers)."""
        layout = self.layout
        state_fn, pack_fn, unpack_fn = whole_stream_callbacks(
            lambda buf, count: layout.total_bytes,
            lambda buf, count, out: layout.gather(buf, out=out),
            lambda src, buf, count: layout.scatter(src, buf))

        def state_free_fn(state):
            state.packed = None

        def query_fn(state, buf, count):
            return layout.total_bytes

        return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                                  unpack_fn=unpack_fn, state_fn=state_fn,
                                  state_free_fn=state_free_fn,
                                  name=f"custom-pack:{self.name}")

    def custom_region_datatype(self) -> CustomDatatype:
        """Region-based custom type: one region per merged contiguous run."""
        if not self.meta.memory_regions:
            raise ValueError(
                f"{self.name}: Table I marks memory regions as impracticable")
        # Python (start, stop) ints, once per datatype: slicing with numpy
        # scalars costs more than the slice itself.
        bounds = [(off, off + ln)
                  for off, ln in self.layout.merged().runs.tolist()]

        def query_fn(state, buf, count):
            return 0

        def region_count_fn(state, buf, count):
            return len(bounds)

        def region_fn(state, buf, count, region_count):
            flat = buf.view(np.uint8).reshape(-1)
            return [Region(flat[start:stop]) for start, stop in bounds]

        return type_create_custom(query_fn=query_fn,
                                  region_count_fn=region_count_fn,
                                  region_fn=region_fn,
                                  name=f"custom-region:{self.name}")

    def custom_coroutine_datatype(self) -> CustomDatatype:
        """Pack via a suspendable generator walking the run list.

        Unlike :meth:`custom_pack_datatype` (which materializes the full
        packed stream on first call — the paper's "full packing" fallback),
        the generator packs runs directly into each fragment and suspends
        mid-walk, which is exactly what Listing 9 does with C++ coroutines.
        """
        layout = self.layout

        def pack_gen(context, buf, count):
            src = buf.view(np.uint8).reshape(-1)
            dst = yield
            pos = 0  # position within current fragment
            written_any = False
            for off, ln in layout.runs:
                off = int(off)
                remaining = int(ln)
                while remaining:
                    if pos == len(dst):
                        dst = yield pos
                        pos = 0
                    step = min(remaining, len(dst) - pos)
                    dst[pos:pos + step] = src[off:off + step]
                    off += step
                    pos += step
                    remaining -= step
                    written_any = True
            if written_any or layout.total_bytes == 0:
                yield pos

        def unpack_gen(context, buf, count):
            dst = buf.view(np.uint8).reshape(-1)
            src = yield
            pos = 0
            for off, ln in layout.runs:
                off = int(off)
                remaining = int(ln)
                while remaining:
                    if pos == len(src):
                        src = yield pos
                        pos = 0
                    step = min(remaining, len(src) - pos)
                    dst[off:off + step] = src[pos:pos + step]
                    off += step
                    pos += step
                    remaining -= step
            yield pos

        def query_fn(state, buf, count):
            return layout.total_bytes

        state_fn, state_free_fn, pack_fn, unpack_fn = coroutine_pack_callbacks(
            pack_gen, unpack_gen)
        return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                                  unpack_fn=unpack_fn, state_fn=state_fn,
                                  state_free_fn=state_free_fn, inorder=True,
                                  name=f"custom-coro:{self.name}")
