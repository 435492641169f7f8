"""Every shipped pack/unpack callback under every window.

The engine offers ``pack_fn`` the whole packed stream as one window and
hands ``unpack_fn`` the one chunk it arrived in; unit tests, the layer probes
and the out-of-order ablation drive sub-stream windows through the same
callbacks.  Whatever the window, the bytes on the wire are the manual-pack
oracle's, the receive buffer ends up equal to the send buffer, and no
callback is ever shown a window reaching past the stream.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import pytest

from repro.core import (CustomDatatype, CustomRecvOperation,
                        CustomSendOperation, Field, StructSpec, datatype_for)
from repro.ddtbench.registry import WORKLOADS, make_workload
from repro.serial.pickle5 import dumps_oob, loads_oob
from repro.serial.strategies import (_InParcel, _OutParcel,
                                     pickle_cdt_datatype)
from repro.types import (STRUCT_SIMPLE, STRUCT_SIMPLE_NO_GAP, STRUCT_VEC,
                         DoubleVec, double_vec_custom_datatype,
                         make_struct_simple, make_struct_simple_no_gap,
                         make_struct_vec, manual_pack_struct_simple,
                         manual_pack_struct_simple_no_gap,
                         manual_pack_struct_vec,
                         struct_simple_custom_datatype,
                         struct_simple_no_gap_custom_datatype,
                         struct_vec_custom_datatype)
from repro.ucp.memory import MemoryTracker
from repro.ucp.netsim import DEFAULT_PARAMS, CostModel, VirtualClock

from .core.test_adapters import Blob
from .test_capi import Obj, listing2_type


@dataclasses.dataclass
class Case:
    dtype: CustomDatatype
    send: Any
    count: int
    #: A fresh, empty receive buffer.
    recv: Callable[[], Any]
    #: The in-band stream as the user's own packing code lays it out.
    oracle: bytes
    #: Did ``recv()`` end up holding what ``send`` holds?
    same: Callable[[Any], bool]


def _struct_simple():
    arr = make_struct_simple(37)
    return Case(struct_simple_custom_datatype(), arr, 37,
                lambda: np.zeros(37, dtype=STRUCT_SIMPLE),
                manual_pack_struct_simple(arr).tobytes(),
                lambda got: got.tobytes() == arr.tobytes())


def _no_gap():
    arr = make_struct_simple_no_gap(37)
    return Case(struct_simple_no_gap_custom_datatype(), arr, 37,
                lambda: np.zeros(37, dtype=STRUCT_SIMPLE_NO_GAP),
                manual_pack_struct_simple_no_gap(arr).tobytes(),
                lambda got: got.tobytes() == arr.tobytes())


def _struct_vec():
    arr = make_struct_vec(3)
    scalars = manual_pack_struct_vec(arr).reshape(3, -1)[:, :20]
    return Case(struct_vec_custom_datatype(), arr, 3,
                lambda: np.zeros(3, dtype=STRUCT_VEC), scalars.tobytes(),
                lambda got: all((got[f] == arr[f]).all()
                                for f in STRUCT_VEC.names))


def _double_vec():
    dv = DoubleVec.uniform(4096, 1024)
    return Case(double_vec_custom_datatype(), dv, 1, DoubleVec,
                dv.manual_pack()[:dv.header_bytes].tobytes(),
                lambda got: got == dv)


def _ddtbench(name: str, method: str):
    w = make_workload(name)
    buf = w.make_send_buffer()
    return Case(getattr(w, method)(), buf, 1, w.make_recv_buffer,
                w.manual_pack(buf).tobytes(),
                lambda got: w.exchanged_equal(got, buf))


def _protocol():
    blobs = [Blob(bytes([65 + i]) * n) for i, n in enumerate((5, 11, 30))]
    return Case(datatype_for(Blob), blobs, 3,
                lambda: [Blob(bytes(len(b.header))) for b in blobs],
                b"".join(bytes(b.header) for b in blobs),
                lambda got: [b.header for b in got]
                == [b.header for b in blobs])


def _builder():
    spec = StructSpec([Field("x", "<i4"), Field("v", "<f8", shape=4),
                       Field("big", "<u1", shape=600)], name="probe")
    obj = SimpleNamespace(x=np.int32(-7), v=np.arange(4.0) / 3,
                          big=np.arange(600, dtype=np.uint8))
    return Case(spec.custom_datatype(), obj, 1, SimpleNamespace,
                obj.x.tobytes() + obj.v.tobytes(),
                lambda got: got.x == obj.x and (got.v == obj.v).all()
                and (got.big == obj.big).all())


def _pickle_oob_cdt():
    obj = {"label": "halo", "field": np.arange(4096, dtype=np.float64)}
    header, buffers = dumps_oob(obj)
    assert buffers, "the array must travel out of band"
    comm = SimpleNamespace(memory=MemoryTracker(), clock=VirtualClock(),
                           worker=SimpleNamespace(model=CostModel()))
    frame = np.array([len(buffers)] + [b.nbytes for b in buffers], "<u8")

    def same(inbox):
        got = loads_oob(inbox.header, inbox.buffers)
        return got["label"] == "halo" and (got["field"] == obj["field"]).all()

    return Case(pickle_cdt_datatype(), _OutParcel(header, buffers), 1,
                lambda: _InParcel(comm), frame.tobytes() + bytes(header), same)


def _capi():
    src = Obj(pickle.dumps(list(range(40))), 64)
    src.payload[:] = np.arange(64)
    return Case(listing2_type(None), src, 1,
                lambda: Obj(bytes(len(src.header)), 64), bytes(src.header),
                lambda got: got.header == src.header
                and (got.payload == src.payload).all())


CASES: dict[str, Callable[[], Case]] = {
    "struct-simple": _struct_simple, "no-gap": _no_gap,
    "struct-vec": _struct_vec, "double-vec": _double_vec,
    "datatype_for": _protocol, "builder": _builder,
    "pickle-oob-cdt": _pickle_oob_cdt, "capi": _capi,
}
for _name in WORKLOADS:
    CASES[f"pack:{_name}"] = functools.partial(
        _ddtbench, _name, "custom_pack_datatype")
    CASES[f"coro:{_name}"] = functools.partial(
        _ddtbench, _name, "custom_coroutine_datatype")

# Send buffers and oracles are read-only here, and a case's tests run back
# to back (``name`` is the slowest parameter): build each case once, keep one.
_case = functools.lru_cache(maxsize=1)(lambda name: CASES[name]())


def _guarded(dtype: CustomDatatype, total: int) -> CustomDatatype:
    """``dtype`` with both callbacks refusing a window past the stream."""
    cb = dtype.callbacks

    def pack_fn(state, buf, count, offset, dst):
        assert offset + dst.shape[0] <= total, (offset, dst.shape[0], total)
        return cb.pack_fn(state, buf, count, offset, dst)

    def unpack_fn(state, buf, count, offset, src):
        assert offset + src.shape[0] <= total, (offset, src.shape[0], total)
        return cb.unpack_fn(state, buf, count, offset, src)

    return CustomDatatype(
        dataclasses.replace(cb, pack_fn=pack_fn, unpack_fn=unpack_fn),
        inorder=dtype.inorder, name=dtype.name)


WINDOWS = {"1": lambda total: 1, "7": lambda total: 7, "20": lambda total: 20,
           "frag_size": lambda total: DEFAULT_PARAMS.frag_size,
           "whole": lambda total: total}


@pytest.mark.parametrize("order", ["in-order", "reversed"])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", CASES)
def test_bytes_match_the_oracle_under_every_window(name, window, order):
    case = _case(name)
    if order == "reversed" and case.dtype.inorder:
        pytest.skip("inorder=True: fragments are never delivered reversed")
    total = len(case.oracle)
    step = WINDOWS[window](total)
    dtype = _guarded(case.dtype, total)

    with CustomSendOperation(dtype, case.send, case.count) as op:
        frags = op.pack_fragments(step)
        stream = b"".join(bytes(f) for f in frags)
        payloads = [bytes(r.read_bytes()) for r in op.regions()]
    assert stream == case.oracle
    assert all(0 < f.shape[0] <= step for f in frags)

    wire = np.frombuffer(stream, dtype=np.uint8)  # read-only, like a chunk
    pieces = [(off, wire[off:off + step]) for off in range(0, total, step)]
    if order == "reversed":
        pieces.reverse()
    got = case.recv()
    with CustomRecvOperation(dtype, got, case.count) as op:
        for offset, piece in pieces:
            op.unpack_fragment(offset, piece)
        regions = op.recv_regions([len(p) for p in payloads])
        for region, payload in zip(regions, payloads):
            region.writable_view()[:] = np.frombuffer(payload, np.uint8)
    assert case.same(got)
