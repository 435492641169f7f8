"""DDTBench layouts under seeded faults: real workloads, lossy wire.

Every registry layout crosses the faulted fabric via both its derived
datatype and its custom pack/unpack callbacks; with reliability enabled
the received buffer must match the fault-free one byte for byte.
"""

import numpy as np
import pytest

from repro.ddtbench import WORKLOADS, make_workload
from repro.mpi import run

FAULTS = {"seed": 512, "drop": 0.2, "corrupt": 0.2,
          "duplicate": 0.1, "reorder": 0.1}
RELIABILITY = {"retry_limit": 8}

#: A representative spread of layouts (nested vectors, indexed blocks,
#: structs); the full registry runs in the sanitize CLI sweeps.
LAYOUTS = ("FFT2", "LAMMPS", "MILC", "NAS_MG_z", "SPECFEM3D_oc", "WRF_x_vec")


def _pingpong(name, method, faults=None, reliability=None):
    def fn(comm):
        w = make_workload(name)
        dt = (w.derived_datatype() if method == "derived"
              else w.custom_pack_datatype())
        if comm.rank == 0:
            comm.send(w.make_send_buffer(), dest=1, datatype=dt, count=1)
            return None
        rb = w.make_recv_buffer()
        comm.recv(rb, source=0, datatype=dt, count=1)
        return rb

    res = run(fn, nprocs=2, faults=faults, reliability=reliability,
              timeout=90)
    return res


@pytest.mark.parametrize("method", ("derived", "custom-pack"))
@pytest.mark.parametrize("name", LAYOUTS)
def test_layout_survives_chaos(name, method):
    assert name in WORKLOADS
    clean = _pingpong(name, method)
    chaos = _pingpong(name, method, faults=FAULTS, reliability=RELIABILITY)
    # One comparison of the whole received buffer: shape, dtype and bytes.
    np.testing.assert_array_equal(chaos.results[1], clean.results[1],
                                  strict=True)
    total = {k: sum(s[k] for s in chaos.reliability)
             for k in chaos.reliability[0]}
    assert total["lost_messages"] == 0
    assert total["exhausted"] == 0


def test_chaos_trace_reproducible_on_a_layout():
    traces = [_pingpong("MILC", "derived", faults=FAULTS,
                        reliability=RELIABILITY).fault_trace
              for _ in range(2)]
    assert traces[0] == traces[1]
