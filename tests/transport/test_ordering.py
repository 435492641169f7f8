"""A rank's finish must not outrun its last frames — on every backend.

On ``shm`` ``mark_finished`` rides the finishing rank's own channels
behind its data frames (``remote.PlaneDetector``).  On ``asyncio`` the
ranks share one in-process detector, and the finishing rank has written
its frames before it is marked: the parked receiver must take every frame
already sent to it before it believes the verdict.  A detector that
applied "rank 1 finished" before rank 1's last message landed would turn
a receive that inproc completes into a hopeless-wait ``ProcFailedError``.
Three ranks: rank 2's channel, empty but for its end, drains long before
rank 0's.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ProcFailedError
from repro.mpi.comm import ERRORS_RETURN
from repro.mpi.runtime import run

MESSAGES = 500
REPEATS = 20


def _burst_then_return(comm):
    comm.set_errhandler(ERRORS_RETURN)
    if comm.rank == 1:
        for i in range(MESSAGES):
            comm.send(np.arange(i, i + 4, dtype=np.int32), 0, 5)
        return None
    if comm.rank == 2:
        return None
    time.sleep(0.01)  # let rank 1 run ahead of the receives
    buf = np.empty(4, dtype=np.int32)
    good = 0
    for i in range(MESSAGES):
        comm.recv(buf, source=1, tag=5)
        good += bool((buf == np.arange(i, i + 4)).all())
    try:
        comm.recv(buf, source=1, tag=5)
    except ProcFailedError as exc:
        return good, str(exc)
    return good, None


@pytest.mark.parametrize("repeat", range(REPEATS))
def test_a_finish_never_outruns_the_last_frames(backend, repeat):
    res = run(_burst_then_return, nprocs=3, transport=backend, faults={},
              timeout=60)
    good, last = res.results[0]
    assert good == MESSAGES
    assert last is not None and \
        "finished without a matching operation" in last
