"""The in-process (threads + shared objects) backend — the seed semantics.

Every baseline in BENCH_perf.json and every tier-1 assertion was measured
on this backend, so it inherits the base-class behavior unchanged: a
deposit is a method call into the destination's locked matcher, rendezvous
envelopes alias the sender's live buffers (the in-process stand-in for
RDMA get), and the receiver releases eager staging directly into the
sender's pool.
"""

from __future__ import annotations

from .base import ThreadedTransport


class InprocTransport(ThreadedTransport):
    """Ranks as threads of one process over directly shared objects."""

    name = "inproc"
