"""Tag matching: posted-receive and unexpected-message queues.

Implements the matching semantics MPI requires of its transport: messages
from one sender on one tag match posted receives in FIFO order; receives
posted before arrival are matched by the depositing sender, receives posted
after arrival claim from the unexpected queue.  Matching is by
``(msg.tag & mask) == (want.tag & mask)`` with the wildcard masks of
:mod:`repro.ucp.constants`.

Matching only *pairs* a message with a receive; the data movement (and all
virtual-time charging) happens later on the receiving thread — see
:class:`repro.ucp.context.Worker`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from .wire import Latch, WireMessage


class PostedRecv:
    """A receive posted before its message arrived."""

    __slots__ = ("tag", "mask", "msg", "matched")

    def __init__(self, tag: int, mask: int, msg: WireMessage | None = None):
        self.tag = tag
        self.mask = mask
        self.msg = msg  # given: claimed an unexpected message at post time
        self.matched = Latch(preset=msg is not None)

    def attach(self, msg: WireMessage) -> None:
        self.msg = msg
        self.matched.set()


class TagMatcher:
    """Per-worker matching engine (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Set whenever a message joins the unexpected queue: the wake-up
        #: of a blocking probe (``Worker.tag_probe``), which clears it on
        #: the owning rank's thread before every scan.
        self.arrival = threading.Event()
        self._posted: deque[PostedRecv] = deque()
        self._unexpected: deque[WireMessage] = deque()

    # -- sender side ------------------------------------------------------

    def deposit(self, msg: WireMessage) -> Optional[PostedRecv]:
        """Offer an arriving message; match a posted recv or queue it.

        Returns the receive it matched, or None when it was queued.
        """
        tag = msg.header.tag
        with self._lock:
            for i, posted in enumerate(self._posted):
                if (tag & posted.mask) == (posted.tag & posted.mask):
                    del self._posted[i]
                    posted.attach(msg)
                    return posted
            self._unexpected.append(msg)
        if not self.arrival.is_set():
            self.arrival.set()
        return None

    # -- receiver side ----------------------------------------------------

    def post(self, tag: int, mask: int) -> PostedRecv:
        """Post a receive; claims an unexpected message when one matches."""
        want = tag & mask
        with self._lock:
            for i, msg in enumerate(self._unexpected):
                if (msg.header.tag & mask) == want:
                    del self._unexpected[i]
                    return PostedRecv(tag, mask, msg)
            posted = PostedRecv(tag, mask)
            self._posted.append(posted)
        return posted

    def cancel(self, posted: PostedRecv) -> bool:
        """Remove an unmatched posted receive; False if already matched."""
        with self._lock:
            try:
                self._posted.remove(posted)
                return True
            except ValueError:
                return False

    def retract(self, msg: WireMessage) -> bool:
        """Remove a deposited-but-unclaimed message from the unexpected
        queue; False if a receive already matched (or is matching) it.

        Used by the fault machinery when a sender-side cancel or a job
        teardown needs to withdraw traffic that no receive will consume.
        """
        with self._lock:
            try:
                self._unexpected.remove(msg)
                return True
            except ValueError:
                return False

    def probe(self, tag: int, mask: int, remove: bool = False
              ) -> Optional[WireMessage]:
        """Non-blocking probe of the unexpected queue.

        ``remove=True`` implements mprobe semantics: the message is removed
        from matching and must be received via its handle.
        """
        with self._lock:
            for i, msg in enumerate(self._unexpected):
                if (msg.header.tag & mask) == (tag & mask):
                    if remove:
                        del self._unexpected[i]
                    return msg
        return None

    # -- introspection ------------------------------------------------------

    def pending_counts(self) -> tuple[int, int]:
        """(posted, unexpected) queue depths — for tests and debugging."""
        with self._lock:
            return len(self._posted), len(self._unexpected)

    def unmatched_messages(self) -> list[WireMessage]:
        """Snapshot of deposited messages no receive ever claimed.

        Used by the sanitizer's end-of-job sweep (RPD421): anything still
        here when every rank finished was sent and silently lost.
        """
        with self._lock:
            return list(self._unexpected)
