"""The argument errors of every point-to-point entry, as one table.

Each entry checks its peer and tag in one inline range test against the
communicator's *local* size and builds its tag from the communicator's
base; only a refused argument goes to ``Communicator._check_args``, which
raises the error below.  The table holds the exception type, MPI error
class and message of every row, on ``COMM_WORLD`` of a 4-rank job and on
a 2-rank ``split`` of it, so it runs under any ``REPRO_TRANSPORT``.

Rows that differ from the table before the one-check change are the
fixes: a split communicator checks against its own size (it used to say
"size 4", or fail with ``IndexError`` or not at all), and the probe
entries check source and tag as a receive does (they used to check
nothing: a bad source raised ``ValueError`` from the tag packing or
probed for a message no rank can send).
"""

import numpy as np
import pytest

from repro.core import FLOAT64
from repro.errors import (MPI_ERR_COUNT, MPI_ERR_RANK, MPI_ERR_TAG,
                          MPI_ERR_TYPE, MPIError, error_name)
from repro.mpi import ANY_SOURCE, ANY_TAG, run
from repro.ucp.constants import MAX_USER_TAG

SEND_ENTRIES = ("isend", "issend", "send_init")
RECV_ENTRIES = ("irecv", "recv_init", "probe", "iprobe")

#: case -> (peer, tag) as a function of the communicator size ``n``; the
#: wildcards are refused only where they are not allowed.
CASES = {
    "bad-rank": lambda n: (n, 1),
    "negative-rank": lambda n: (-2, 1),
    "bad-tag": lambda n: (n - 1, MAX_USER_TAG),
    "negative-tag": lambda n: (n - 1, -5),
}
SEND_ONLY_CASES = {
    "any-source": lambda n: (ANY_SOURCE, 1),
    "any-tag": lambda n: (n - 1, ANY_TAG),
}


def _rank_error(peer, n):
    return MPI_ERR_RANK, f"MPI_ERR_RANK: rank {peer} outside communicator " \
                         f"of size {n}"


def _tag_error(tag):
    return MPI_ERR_TAG, f"MPI_ERR_TAG: tag {tag} out of range [0, " \
                        f"{MAX_USER_TAG})"


def expected(case: str, n: int):
    peer, tag = {**CASES, **SEND_ONLY_CASES}[case](n)
    if case in ("bad-rank", "negative-rank", "any-source"):
        return _rank_error(peer, n)
    return _tag_error(tag)


def _call(comm, entry, peer, tag):
    buf = np.zeros(4)
    if entry in ("probe", "iprobe"):
        return getattr(comm, entry)(peer, tag)
    return getattr(comm, entry)(buf, peer, tag)


def _rows(comm):
    """Every (communicator, entry, case) row: what the call raised, as
    ``(type name, code, message)``, or None."""
    sub = comm.split(0 if comm.rank < 2 else 1)
    out = {}
    if comm.rank == 0:
        for cname, c in (("world", comm), ("split", sub)):
            n = c.size
            for entry, case in ROWS:
                try:
                    _call(c, entry, *{**CASES, **SEND_ONLY_CASES}[case](n))
                    got = None
                except Exception as exc:  # noqa: BLE001 - the row's answer
                    got = (type(exc).__name__, getattr(exc, "code", None),
                           str(exc))
                out[(cname, entry, case)] = got
    comm.barrier()
    return out


@pytest.fixture(scope="module")
def table():
    return run(_rows, nprocs=4, timeout=60).results[0]


#: (entry, case): every case of every entry, and the wildcards where they
#: are not allowed.
ROWS = [(e, k) for e in SEND_ENTRIES + RECV_ENTRIES for k in CASES] \
    + [(e, k) for e in SEND_ENTRIES for k in SEND_ONLY_CASES]


@pytest.mark.parametrize("comm_name,size", [("world", 4), ("split", 2)])
@pytest.mark.parametrize("entry,case", ROWS)
def test_argument_error_table(table, comm_name, size, entry, case):
    code, message = expected(case, size)
    assert table[(comm_name, entry, case)] == ("MPIError", code, message)


def test_split_peer_is_checked_against_the_split_size():
    """``sub.isend(buf, 2, 1)`` on a 2-rank split of a 4-rank job used to
    raise ``IndexError: tuple index out of range``."""
    def fn(comm):
        sub = comm.split(comm.rank % 2)
        got = []
        for call in (lambda: sub.isend(np.zeros(2), 2, 1),
                     lambda: sub.irecv(np.zeros(2), 2, 1),
                     lambda: sub.iprobe(2, 1)):
            try:
                call()
                got.append(None)
            except MPIError as exc:
                got.append((exc.code, str(exc)))
        comm.barrier()
        return got

    res = run(fn, nprocs=4, timeout=60)
    want = (MPI_ERR_RANK,
            "MPI_ERR_RANK: rank 2 outside communicator of size 2")
    assert all(r == [want] * 3 for r in res.results)


# -- count and datatype ------------------------------------------------------

RESOLVE_CASES = {
    # name: (buf, count, datatype, code, message after the class prefix)
    "negative-count": (np.zeros(4), -1, FLOAT64, MPI_ERR_COUNT,
                       "negative count -1"),
    "negative-inferred": (np.zeros(4), -3, None, MPI_ERR_COUNT,
                          "negative count -3"),
    "uninferable-type": ([1.0, 2.0], None, None, MPI_ERR_TYPE,
                         "cannot infer a datatype for list; pass datatype= "
                         "explicitly (custom types accept any object)"),
    "count-required": ([1.0, 2.0], None, FLOAT64, MPI_ERR_COUNT,
                       "count is required for this buffer/datatype"),
}


@pytest.mark.parametrize("entry", ["isend", "issend", "irecv"])
@pytest.mark.parametrize("case", sorted(RESOLVE_CASES))
def test_resolve_error_classes(entry, case):
    buf, count, dtype, code, message = RESOLVE_CASES[case]

    def fn(comm):
        try:
            getattr(comm, entry)(buf, 0, 1, datatype=dtype, count=count)
        except MPIError as exc:
            return exc.code, str(exc)
        return None

    got = run(fn, nprocs=1, timeout=60).results[0]
    assert got == (code, f"{error_name(code)}: {message}")
