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
from typing import Iterable

import numpy as np

from ..core import (BYTE, CustomDatatype, DerivedDatatype, Region,
                    coroutine_pack_callbacks, from_numpy_dtype, hindexed,
                    resized, type_create_custom)
from ..core.callbacks import whole_stream_callbacks


@dataclass(frozen=True)
class WorkloadMeta:
    """One row of the paper's Table I."""

    name: str
    mpi_datatypes: str
    loop_structure: str
    memory_regions: bool


class RunLayout:
    """Ordered contiguous byte runs into one backing buffer (immutable)."""

    #: Layouts of at most this many merged runs are copied run by run (one
    #: slice assignment each); longer run lists through one lane index.
    SLICE_COPY_MAX_RUNS = 64

    def __init__(self, runs: Iterable[tuple[int, int]], buffer_bytes: int):
        arr = np.asarray(list(runs), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        self.runs = arr
        self.buffer_bytes = buffer_bytes
        if arr.size:
            if (arr[:, 1] <= 0).any():
                raise ValueError("run lengths must be positive")
            if (arr[:, 0] < 0).any() or (arr[:, 0] + arr[:, 1] > buffer_bytes).any():
                raise ValueError("run outside backing buffer")
        self.total_bytes = int(arr[:, 1].sum())
        self._program = None  # decided by the first gather/scatter

    @property
    def run_count(self) -> int:
        return self.runs.shape[0]

    def merged(self) -> "RunLayout":
        """Coalesce runs adjacent in both order and memory (region extraction)."""
        merged: list[list[int]] = []
        for off, ln in self.runs:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1][1] += int(ln)
            else:
                merged.append([int(off), int(ln)])
        return RunLayout(merged, self.buffer_bytes)

    def _copy_program(self):
        """How gather/scatter move the bytes: ``(copies, index, unit)``.

        Decided once per layout, never per call.  Few merged runs: ``copies``
        pairs each run's memory slice with its packed slice.  Many: ``index``
        names the memory lane behind every packed lane, in the widest
        ``unit`` (8/4/2/1 bytes) dividing every offset, every length and
        the buffer.
        """
        if self._program is None:
            runs = self.merged().runs
            offs, lens = runs[:, 0], runs[:, 1]
            starts = np.cumsum(lens) - lens  # packed position of each run
            if len(runs) <= self.SLICE_COPY_MAX_RUNS:
                copies = [(slice(o, o + n), slice(p, p + n)) for o, n, p
                          in zip(offs.tolist(), lens.tolist(), starts.tolist())]
                self._program = (copies, None, 1)
            else:
                common = np.gcd(np.gcd.reduce(runs, axis=None),
                                self.buffer_bytes)
                unit = next(u for u in (8, 4, 2, 1) if common % u == 0)
                index = (np.repeat((offs - starts) // unit, lens // unit)
                         + np.arange(self.total_bytes // unit))
                self._program = (None, index, unit)
        return self._program

    @staticmethod
    def _lanes(buf: np.ndarray, nbytes: int, unit: int) -> np.ndarray:
        """The first ``nbytes`` of ``buf`` as ``unit``-byte lanes."""
        flat = buf.view(np.uint8).reshape(-1)
        if flat.shape[0] < nbytes:
            raise ValueError(
                f"{flat.shape[0]}-byte buffer where the layout needs {nbytes}")
        return flat[:nbytes].view(f"u{unit}")

    def gather(self, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pack all runs into ``out`` (a fresh buffer when None)."""
        if out is None:
            out = np.empty(self.total_bytes, dtype=np.uint8)
        copies, index, unit = self._copy_program()
        src = self._lanes(buf, self.buffer_bytes, unit)
        dst = self._lanes(out, self.total_bytes, unit)
        if index is None:
            for mem, pos in copies:
                dst[pos] = src[mem]
        else:
            # In range by construction (runs lie inside buffer_bytes, which
            # _lanes checked); "clip" only skips numpy's bounce buffer.
            np.take(src, index, out=dst, mode="clip")
        return out

    def scatter(self, packed: np.ndarray, buf: np.ndarray) -> None:
        """Unpack all runs (the inverse of :meth:`gather`)."""
        copies, index, unit = self._copy_program()
        src = self._lanes(packed, self.total_bytes, unit)
        dst = self._lanes(buf, self.buffer_bytes, unit)
        if index is None:
            for mem, pos in copies:
                dst[mem] = src[pos]
        else:
            dst[index] = src


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
        merged = self.layout.merged()

        def query_fn(state, buf, count):
            return 0

        def region_count_fn(state, buf, count):
            return merged.run_count

        def region_fn(state, buf, count, region_count):
            flat = buf.view(np.uint8).reshape(-1)
            return [Region(flat[off:off + ln]) for off, ln in merged.runs]

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
