"""Dynamic sanitizer unit tests: every RPD4xx fires on its seeded bug.

Each test drives :func:`repro.mpi.run` with ``sanitize=True`` on a small
program carrying exactly one class of bug, then asserts the corresponding
diagnostic (and only meaningful companions) is reported.
"""

import json
import time

import numpy as np
import pytest

from repro.analyze.cli import main
from repro.core import Region, type_create_custom
from repro.errors import RuntimeAbort
from repro.mpi import run


def report_of(fn, nprocs=2, timeout=30.0):
    """Run sanitized; the report, whether the job survived or aborted."""
    try:
        return run(fn, nprocs=nprocs, sanitize=True,
                   timeout=timeout).sanitizer_report
    except RuntimeAbort as exc:
        assert exc.sanitizer_report is not None
        return exc.sanitizer_report


def test_rpd4_code_table_complete():
    # Every dynamic check family is registered in the shared vocabulary;
    # the corpus below (plus tests/sanitize/fixtures/ and the fault-aware
    # RPD45x triggers in tests/faults/) fires each one.
    from repro.analyze.diagnostics import CODE_TABLE
    assert {c for c in CODE_TABLE if c.startswith("RPD4")} == {
        "RPD400", "RPD401", "RPD402", "RPD410", "RPD411",
        "RPD420", "RPD421", "RPD430", "RPD431", "RPD432", "RPD440",
        "RPD450", "RPD451", "RPD452"}


class TestCleanRuns:
    def test_pingpong_is_clean(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(64, dtype=np.float64), dest=1, tag=1)
                inbox = np.empty(64)
                comm.recv(inbox, source=1, tag=2)
            else:
                inbox = np.empty(64)
                comm.recv(inbox, source=0, tag=1)
                comm.send(inbox, dest=0, tag=2)

        rep = report_of(fn)
        assert rep.clean, rep.format_text()
        assert rep.nprocs == 2

    def test_nonblocking_exchange_is_clean(self):
        def fn(comm):
            peer = 1 - comm.rank
            out = np.full(512, float(comm.rank))
            inbox = np.empty(512)
            reqs = [comm.irecv(inbox, source=peer, tag=3),
                    comm.isend(out, dest=peer, tag=3)]
            for r in reqs:
                r.wait()
            assert inbox[0] == float(peer)

        rep = report_of(fn)
        assert rep.clean, rep.format_text()

    def test_report_json_envelope(self, tmp_path, capsys):
        program = tmp_path / "noop.py"
        program.write_text("def main(comm):\n    pass\n")
        report = tmp_path / "report.json"
        rc = main(["sanitize", str(program), "--format", "json",
                   "--report", str(report)])
        assert rc == 0
        for doc in (json.loads(capsys.readouterr().out),
                    json.loads(report.read_text())):
            assert doc["tool"] == "repro.sanitize"
            assert doc["version"] == 1
            assert doc["summary"]["findings"] == 0


class TestBufferChecks:
    def test_rpd400_overlapping_writer(self):
        def fn(comm):
            buf = np.zeros(128)
            if comm.rank == 0:
                r1 = comm.irecv(buf, source=1, tag=1)
                r2 = comm.isend(buf, dest=1, tag=2)  # overlaps the irecv
                r2.wait()
                r1.wait()
            else:
                inbox = np.empty(128)
                comm.recv(inbox, source=0, tag=2)
                comm.send(np.ones(128), dest=0, tag=1)

        assert "RPD400" in report_of(fn).codes()

    def test_rpd400_respects_disjoint_typemap_blocks(self):
        # Concurrent derived ops on the two halves of one array share no
        # bytes: block-accurate tracking must stay silent.
        from repro.core import FLOAT64, contiguous

        half = contiguous(64, FLOAT64)

        def fn(comm):
            buf = np.zeros(128)
            peer = 1 - comm.rank
            r1 = comm.irecv(buf[:64], source=peer, tag=1, datatype=half,
                            count=1)
            r2 = comm.isend(np.ones(64), dest=peer, tag=1)
            r3 = comm.isend(buf[64:], dest=peer, tag=2)
            r4_buf = np.empty(64)
            r4 = comm.irecv(r4_buf, source=peer, tag=2)
            for r in (r2, r1, r3, r4):
                r.wait()

        rep = report_of(fn)
        assert rep.clean, rep.format_text()

    def test_rpd401_send_buffer_modified_in_flight(self):
        def fn(comm):
            if comm.rank == 0:
                buf = np.arange(1024, dtype=np.float64)
                req = comm.isend(buf, dest=1, tag=1)
                buf[0] = -1.0
                req.wait()
            else:
                inbox = np.empty(1024)
                comm.recv(inbox, source=0, tag=1)

        rep = report_of(fn)
        assert "RPD401" in rep.codes()
        (diag,) = rep.by_code("RPD401")
        assert diag.subject == "rank 0"

    def test_rpd402_recv_buffer_scribbled_before_delivery(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.ones(256), dest=1, tag=5)
            else:
                buf = np.zeros(256)
                req = comm.irecv(buf, source=0, tag=5)
                buf[17] = 99.0  # scribble before completing the receive
                req.wait()

        rep = report_of(fn)
        assert "RPD402" in rep.codes()
        (diag,) = rep.by_code("RPD402")
        assert diag.subject == "rank 1"


class TestSignatureChecks:
    def test_rpd410_mismatched_scalars_same_bytes(self):
        def recv(comm, buf):
            comm.recv(buf, source=0, tag=3)

        def mrecv(comm, buf):
            handle, _ = comm.mprobe(source=0, tag=3)
            handle.mrecv(buf)

        for receive in (recv, mrecv):
            def fn(comm):
                if comm.rank == 0:
                    comm.send(np.arange(4, dtype=np.float64), dest=1, tag=3)
                else:
                    receive(comm, np.zeros(8, dtype=np.int32))

            rep = report_of(fn)
            assert "RPD410" in rep.codes(), receive.__name__
            assert "RPD411" not in rep.codes()  # byte counts agree

    def test_rpd411_truncation(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(16, dtype=np.float64), dest=1, tag=2)
            else:
                small = np.zeros(8)
                comm.recv(small, source=0, tag=2)

        rep = report_of(fn)
        assert "RPD411" in rep.codes()
        assert rep.aborted  # the oversized delivery kills the receiver

    def test_byte_recv_of_typed_send_is_clean(self):
        # MPI_BYTE-style receives legitimately absorb any typed stream.
        from repro.core import BYTE

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(8, dtype=np.float64), dest=1, tag=7)
            else:
                raw = np.zeros(64, dtype=np.uint8)
                comm.recv(raw, source=0, tag=7, datatype=BYTE, count=64)

        rep = report_of(fn)
        assert "RPD410" not in rep.codes(), rep.format_text()


class TestRequestAndMessageLeaks:
    def test_rpd420_leaked_request(self):
        def fn(comm):
            if comm.rank == 0:
                comm.isend(np.arange(256, dtype=np.float64), dest=1, tag=5)
            else:
                inbox = np.empty(256)
                comm.recv(inbox, source=0, tag=5)

        rep = report_of(fn)
        assert "RPD420" in rep.codes()
        (diag,) = rep.by_code("RPD420")
        assert diag.severity == "warning"
        assert "send of 256 x double" in diag.message

    def test_rpd421_message_never_received(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(8, dtype=np.float64), dest=1, tag=9)

        rep = report_of(fn)
        assert "RPD421" in rep.codes()
        (diag,) = rep.by_code("RPD421")
        assert diag.subject == "rank 1"  # reported at the would-be receiver


class TestCustomCallbackContracts:
    @staticmethod
    def _pack_type(name, state_fn=None, state_free_fn=None):
        def query_fn(state, buf, count):
            return 8 * len(buf)

        def pack_fn(state, buf, count, offset, dst):
            raw = buf.view(np.uint8).reshape(-1)
            step = min(dst.shape[0], raw.shape[0] - offset)
            dst[:step] = raw[offset:offset + step]
            return int(step)

        def unpack_fn(state, buf, count, offset, src):
            raw = buf.view(np.uint8).reshape(-1)
            raw[offset:offset + src.shape[0]] = src

        return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                                  unpack_fn=unpack_fn, state_fn=state_fn,
                                  state_free_fn=state_free_fn, name=name)

    def test_rpd430_lying_packed_size(self):
        dt = self._pack_type("custom:lying-size")

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0, 2.0]), dest=1, tag=4,
                          datatype=dt, count=1)
            else:
                buf = np.zeros(3)  # query promises 24, sender packed 16
                comm.recv(buf, source=0, tag=4, datatype=dt, count=1)

        rep = report_of(fn)
        assert "RPD430" in rep.codes()
        (diag,) = rep.by_code("RPD430")
        assert "16" in diag.message and "24" in diag.message

    def test_rpd431_region_disagreement(self):
        def region_type(nregions):
            def query_fn(state, buf, count):
                return 0

            def region_count_fn(state, buf, count):
                return nregions

            def region_fn(state, buf, count, n):
                flat = buf.view(np.uint8).reshape(-1)
                step = flat.shape[0] // n
                return [Region(flat[i * step:(i + 1) * step])
                        for i in range(n)]

            return type_create_custom(query_fn=query_fn,
                                      region_count_fn=region_count_fn,
                                      region_fn=region_fn,
                                      name=f"custom:{nregions}-regions")

        def fn(comm):
            buf = np.zeros(16)
            if comm.rank == 0:
                comm.send(buf, dest=1, tag=8, datatype=region_type(1),
                          count=1)
            else:
                comm.recv(buf, source=0, tag=8, datatype=region_type(2),
                          count=1)

        rep = report_of(fn)
        assert "RPD431" in rep.codes()

    def test_rpd432_state_without_free(self):
        dt = self._pack_type("custom:stateful-no-free",
                             state_fn=lambda context, buf, count: {})

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(4, dtype=np.float64), dest=1, tag=6,
                          datatype=dt, count=1)
            else:
                buf = np.zeros(4)
                comm.recv(buf, source=0, tag=6, datatype=dt, count=1)

        rep = report_of(fn)
        assert "RPD432" in rep.codes()
        (diag,) = rep.by_code("RPD432")  # deduplicated across ranks/ops
        assert diag.severity == "warning"

    def test_rpd432_silent_with_free(self):
        dt = self._pack_type("custom:stateful-freed",
                             state_fn=lambda context, buf, count: {},
                             state_free_fn=lambda state: None)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(4, dtype=np.float64), dest=1, tag=6,
                          datatype=dt, count=1)
            else:
                buf = np.zeros(4)
                comm.recv(buf, source=0, tag=6, datatype=dt, count=1)

        rep = report_of(fn)
        assert "RPD432" not in rep.codes()


class TestDeadlockDetection:
    def test_rpd440_two_rank_head_to_head(self):
        def fn(comm):
            peer = 1 - comm.rank
            out = np.zeros(8192)  # 64 KiB: rendezvous, send blocks
            inbox = np.empty(8192)
            comm.send(out, dest=peer, tag=1)
            comm.recv(inbox, source=peer, tag=1)

        start = time.monotonic()
        rep = report_of(fn, timeout=60.0)
        elapsed = time.monotonic() - start
        assert "RPD440" in rep.codes()
        assert rep.aborted
        assert elapsed < 10.0, f"detection took {elapsed:.1f}s"
        (diag,) = rep.by_code("RPD440")
        assert "rank 0 -> rank 1 -> rank 0" in diag.message

    def test_eager_ring_does_not_deadlock(self):
        # The same pattern under the eager limit completes: the sends
        # buffer and return, so no cycle ever forms.
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            out = np.full(16, float(comm.rank))
            inbox = np.empty(16)
            comm.send(out, dest=right, tag=1)
            comm.recv(inbox, source=left, tag=1)
            return inbox[0]

        rep = report_of(fn, nprocs=3)
        assert rep.clean, rep.format_text()

    def test_wait_on_finished_rank(self):
        def fn(comm):
            if comm.rank == 1:
                inbox = np.empty(16)
                comm.recv(inbox, source=0, tag=2)  # rank 0 never sends

        start = time.monotonic()
        rep = report_of(fn, timeout=60.0)
        elapsed = time.monotonic() - start
        assert "RPD440" in rep.codes()
        assert elapsed < 10.0
        (diag,) = rep.by_code("RPD440")
        assert "already finished" in diag.message
