"""Backend registry: selection precedence, availability, job gating."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.runtime import run
from repro.ucp.context import UcpConfig
from repro.ucp.transport import (DEFAULT_TRANSPORT, ENV_VAR, TRANSPORT_NAMES,
                                 TransportUnavailableError,
                                 available_transports, create_transport,
                                 resolve_transport_name)
from repro.ucp.transport.inproc import InprocTransport

from .conftest import require_backend


class TestResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_transport_name(None) == DEFAULT_TRANSPORT

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "asyncio")
        assert resolve_transport_name(None) == "asyncio"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "asyncio")
        assert resolve_transport_name("inproc") == "inproc"

    def test_normalizes_case_and_space(self):
        assert resolve_transport_name(" InProc ") == "inproc"

    def test_unknown_name_names_the_choices(self):
        with pytest.raises(TransportUnavailableError) as ei:
            resolve_transport_name("tcp")
        msg = str(ei.value)
        for name in TRANSPORT_NAMES:
            assert name in msg
        assert ENV_VAR in msg

    def test_unknown_env_var_value(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(TransportUnavailableError):
            resolve_transport_name(None)


class TestRegistry:
    def test_every_backend_listed(self):
        avail = available_transports()
        assert set(avail) == set(TRANSPORT_NAMES)
        assert avail["inproc"] == ""  # threads always work

    def test_create_default_is_inproc(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert isinstance(create_transport(None), InprocTransport)

    def test_create_each_available_backend(self):
        for name, reason in available_transports().items():
            if reason:
                continue
            assert create_transport(name).name == name


class TestJobGating:
    def test_shm_rejects_sanitize(self):
        require_backend("shm")
        t = create_transport("shm")
        with pytest.raises(TransportUnavailableError) as ei:
            t.check_job_supported(sanitize=True)
        assert "sanitize" in str(ei.value)
        assert "shm" in str(ei.value)

    def test_run_rejects_unknown_transport(self):
        def fn(comm):
            return comm.rank

        with pytest.raises(TransportUnavailableError):
            run(fn, nprocs=2, transport="bogus")

    def test_jobresult_names_backend(self, backend):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1)
            else:
                buf = np.empty(4)
                comm.recv(buf, source=0)
            return comm.rank

        res = run(fn, nprocs=2, transport=backend)
        assert res.transport == backend


class TestMsgIdNamespacing:
    def test_ids_deterministic_and_rank_namespaced(self):
        """Per-rank counters make msg_ids a pure function of the program,
        so remote acks resolve and cross-backend traces can be diffed."""
        from repro.ucp.context import UcpContext

        fabric = UcpContext(UcpConfig()).create_fabric(3)
        w0, w1 = fabric.worker(0), fabric.worker(1)
        a, b = w0.next_msg_id(), w0.next_msg_id()
        c = w1.next_msg_id()
        assert b == a + 1
        assert (a >> 40) == 1 and (c >> 40) == 2  # rank+1 namespace
        assert a != c
