"""Chaos matrix: seeded fault schedules x transfer protocols.

The reliability protocol's contract is blunt: with any seeded
drop/corrupt/duplicate/reorder schedule, every payload still arrives
byte-identical, and the same seed reproduces the identical recovery
trace.  These tests sweep that contract across the protocol paths
(eager, rendezvous, iov, generic/custom) the planner distinguishes.
"""

import numpy as np
import pytest

from repro.core import type_create_custom, vector
from repro.core.datatype import FLOAT64
from repro.mpi import run

from ..conftest import require_transport_capability

#: Named fault schedules (dict form, as a CLI fixture would write them).
SCHEDULES = {
    "drop": {"seed": 101, "drop": 0.25},
    "corrupt": {"seed": 202, "corrupt": 0.25},
    "shuffle": {"seed": 303, "duplicate": 0.3, "reorder": 0.3,
                "delay": 0.3, "delay_time": 30e-6},
    "mixed": {"seed": 404, "drop": 0.15, "corrupt": 0.15,
              "duplicate": 0.2, "reorder": 0.2, "delay": 0.2},
}

#: Generous retry budget: heavy-loss schedules may need several rounds.
RELIABILITY = {"retry_limit": 8}


def eager_job(comm):
    """Contiguous payload under the eager limit (one copy, few frags)."""
    data = (np.arange(2048, dtype=np.int32) * 7 + comm.rank).astype(np.int32)
    if comm.rank == 0:
        comm.send(data, dest=1, tag=1)
        return data
    out = np.zeros_like(data)
    comm.recv(out, source=0, tag=1)
    return out


def rndv_job(comm):
    """Contiguous payload far past the eager limit (rendezvous, many frags)."""
    data = (np.arange(96 * 1024, dtype=np.int32) % 1013).astype(np.int32)
    if comm.rank == 0:
        comm.send(data, dest=1, tag=2)
        return data
    out = np.zeros_like(data)
    comm.recv(out, source=0, tag=2)
    return out


def iov_job(comm):
    """Strided column of a large matrix: the iov/region protocol path."""
    dt = vector(count=512, blocklength=8, stride=64, base=FLOAT64)
    full = np.arange(512 * 64, dtype=np.float64).reshape(512, 64)
    if comm.rank == 0:
        comm.send(full, dest=1, tag=3, datatype=dt, count=1)
        return full[:, :8].copy()
    out = np.zeros_like(full)
    comm.recv(out, source=0, tag=3, datatype=dt, count=1)
    return out[:, :8].copy()


def _custom_bytes_type(payload_len: int):
    def query(state, buf, count):
        return payload_len

    def pack(state, buf, count, offset, dst):
        n = min(dst.shape[0], payload_len - offset)
        dst[:n] = np.frombuffer(buf, dtype=np.uint8,
                                count=n, offset=offset)
        return int(n)

    def unpack(state, buf, count, offset, src):
        np.frombuffer(buf, dtype=np.uint8)[offset:offset + src.shape[0]] = src

    return type_create_custom(query_fn=query, pack_fn=pack,
                              unpack_fn=unpack, name="chaos-bytes")


def generic_job(comm):
    """Custom pack/unpack callbacks: the generic datatype path."""
    n = 48 * 1024
    dt = _custom_bytes_type(n)
    data = bytearray((np.arange(n) % 241).astype(np.uint8).tobytes())
    if comm.rank == 0:
        comm.send(data, dest=1, tag=4, datatype=dt, count=1)
        return np.frombuffer(bytes(data), dtype=np.uint8)
    out = bytearray(n)
    comm.recv(out, source=0, tag=4, datatype=dt, count=1)
    return np.frombuffer(bytes(out), dtype=np.uint8)


JOBS = {"eager": eager_job, "rndv": rndv_job,
        "iov": iov_job, "generic": generic_job}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("proto", sorted(JOBS))
class TestByteIdenticalUnderFaults:
    def test_payload_survives(self, proto, schedule):
        res = run(JOBS[proto], nprocs=2, faults=SCHEDULES[schedule],
                  reliability=RELIABILITY, timeout=60)
        sent, got = res.results
        np.testing.assert_array_equal(np.asarray(sent), np.asarray(got))


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_same_seed_reproduces_identical_trace(schedule):
    runs = [run(rndv_job, nprocs=2, faults=SCHEDULES[schedule],
                reliability=RELIABILITY, timeout=60) for _ in range(2)]
    assert runs[0].fault_trace == runs[1].fault_trace
    assert runs[0].reliability == runs[1].reliability
    assert runs[0].clocks == runs[1].clocks


def test_different_seeds_diverge():
    traces = []
    for seed in (1, 2, 3, 4):
        res = run(rndv_job, nprocs=2,
                  faults={"seed": seed, "drop": 0.3},
                  reliability=RELIABILITY, timeout=60)
        traces.append(repr(res.fault_trace))
    assert len(set(traces)) > 1


def test_corruption_without_reliability_reaches_app_as_rpd451():
    require_transport_capability("shared_address_space")

    def fn(comm):
        data = np.arange(4096, dtype=np.int32)
        if comm.rank == 0:
            comm.send(data, dest=1, tag=1)
            return 0
        out = np.zeros_like(data)
        comm.recv(out, source=0, tag=1)
        return int((out != data).sum())

    res = run(fn, nprocs=2, faults={"seed": 5, "corrupt": 1.0},
              sanitize=True, timeout=30)
    assert res.results[1] > 0  # flipped bytes were delivered
    assert "RPD451" in res.sanitizer_report.codes()
    assert sum(s["corrupted_delivered"] for s in res.reliability) > 0


class TestReliabilityStats:
    def test_stats_surface_in_result_and_snapshot(self):
        res = run(rndv_job, nprocs=2, faults=SCHEDULES["mixed"],
                  reliability=RELIABILITY, timeout=60)
        assert len(res.reliability) == 2
        total = {}
        for snap in res.reliability:
            for k, v in snap.items():
                total[k] = total.get(k, 0) + v
        # The mixed schedule at these rates must have forced recovery work.
        assert total["retransmits"] > 0
        assert total["crc_failures"] > 0
        assert total["ack_rounds"] > 0
        assert total["backoff_time"] > 0
        for i, mem in enumerate(res.memory):
            assert mem["reliability"] == res.reliability[i]

    def test_pristine_fabric_has_no_reliability_key(self):
        res = run(eager_job, nprocs=2)
        assert res.reliability == []
        assert res.fault_trace == {}
        assert all("reliability" not in mem for mem in res.memory)

    def test_retries_cost_virtual_time(self):
        clean = run(rndv_job, nprocs=2, timeout=60)
        faulty = run(rndv_job, nprocs=2, faults={"seed": 7, "drop": 0.3},
                     reliability=RELIABILITY, timeout=60)
        assert faulty.max_clock > clean.max_clock

    def test_no_pool_residue_after_faulted_job(self):
        res = run(rndv_job, nprocs=2, faults=SCHEDULES["mixed"],
                  reliability=RELIABILITY, timeout=60)
        for mem in res.memory:
            assert mem["pool"]["outstanding"] == 0
