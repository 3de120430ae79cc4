"""Point-to-point channels between simulated ranks.

A channel is keyed by ``(src, dst, tag)`` and carries :class:`Envelope`
objects: the serialized payload plus its virtual availability timestamp.
One queue per key gives MPI's non-overtaking guarantee per (source, tag)
and keeps message matching deterministic -- wildcard receives are
deliberately unsupported.
"""
from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Envelope:
    """One in-flight message."""

    payload: Any  # bytes for serialized sends, ndarray for buffer sends
    nbytes: int  # actual payload bytes (sandbox-sized problem)
    cost_bytes: int  # bytes charged to the cost model (paper-scaled)
    available_at: float  # virtual time the last byte reaches the receiver
    raw: bool  # True if the payload is an unserialized buffer
    # Fragmentation (graceful degradation under a message-byte cap): an
    # oversized logical message travels as frag_total > 1 consecutive
    # envelopes on its channel; the receiver reassembles them in order.
    frag_index: int = 0
    frag_total: int = 1


#: Put into a channel to wake its blocked receiver; never a message.
_WAKE = object()


class ChannelTable:
    """All channels of one SPMD run, plus the run's abort flag.

    Failure semantics are deterministic: a surviving rank is never killed
    asynchronously.  After a peer fails (``fail`` sets the abort flag),
    every other rank keeps executing its own -- fully deterministic --
    instruction stream, and only aborts when it blocks on a message that
    provably can never arrive: the sender's thread has terminated
    (``mark_done``) and the channel is empty.  Whether a rank applied its
    shipping ops, advanced its virtual clock past its own scheduled
    fault, or posted its partials therefore depends only on the program
    and the fault plan, never on wall-clock thread scheduling.
    """

    def __init__(self) -> None:
        self._channels: dict[tuple[int, int, int], queue.SimpleQueue] = {}
        self._lock = threading.Lock()
        self.abort = threading.Event()
        self.abort_reason: BaseException | None = None
        self._done: set[int] = set()
        # Channels a receiver is blocked on, so ``mark_done``/``fail``
        # can wake it instead of leaving it to its next poll.
        self._blocked: set[tuple[int, int, int]] = set()

    def channel(self, src: int, dst: int, tag: int) -> queue.SimpleQueue:
        key = (src, dst, tag)
        ch = self._channels.get(key)
        if ch is None:
            with self._lock:
                ch = self._channels.setdefault(key, queue.SimpleQueue())
        return ch

    def post(self, src: int, dst: int, tag: int, env: Envelope) -> None:
        # Posting never aborts: a send into a queue is always safe, and
        # cancelling senders here would make their progress (and any
        # scheduled fault they have yet to reach) depend on how quickly
        # another thread's failure was observed.
        self.channel(src, dst, tag).put(env)

    def mark_done(self, rank: int) -> None:
        """Record that *rank*'s thread has terminated (normally or not).

        Must be called after the rank's last possible ``post``: receivers
        treat done + empty channel as "this message can never arrive".
        """
        with self._lock:
            self._done.add(rank)
            blocked = [k for k in self._blocked if k[0] == rank]
        self._wake(blocked)

    def take(
        self, src: int, dst: int, tag: int, real_timeout: float
    ) -> Envelope:
        """Blocking receive with a real-time deadline.

        Always drains an available message before considering failure:
        a sender's posts all happen before it is marked done, so the
        check order (message, then done-and-empty) is race-free.  A
        receiver registers as blocked under the same lock that
        ``mark_done`` takes, so a sender finishing while it sleeps wakes
        it at once.
        """
        key = (src, dst, tag)
        ch = self.channel(src, dst, tag)
        waited = 0.0
        poll = 0.05
        while True:
            env = _next_message(ch)
            if env is not None:
                return env
            with self._lock:
                self._blocked.add(key)
                done = src in self._done
            try:
                if done:
                    # Every post by src is visible by now, so empty
                    # means "never arriving".
                    env = _next_message(ch)
                    if env is not None:
                        return env
                    if self.abort.is_set():
                        raise_abort(self)
                    raise SimDeadlockError(
                        f"rank {dst} waits for a message from rank {src} "
                        f"tag {tag}, but rank {src} already finished "
                        f"without sending it; deadlock?"
                    )
                try:
                    env = ch.get(timeout=poll)
                except queue.Empty:
                    waited += poll
                    if waited >= real_timeout:
                        raise SimDeadlockError(
                            f"rank {dst} waited {real_timeout:.0f}s (real) "
                            f"for a message from rank {src} tag {tag}; "
                            f"deadlock?"
                        )
                    continue
            finally:
                with self._lock:
                    self._blocked.discard(key)
            if env is not _WAKE:
                return env

    def fail(self, exc: BaseException) -> None:
        """Record a rank failure and wake all blocked receivers (each
        re-checks its sender; only one blocked on a finished sender
        aborts)."""
        if not self.abort.is_set():
            self.abort_reason = exc
            self.abort.set()
        with self._lock:
            blocked = list(self._blocked)
        self._wake(blocked)

    def _wake(self, keys) -> None:
        for key in keys:
            self._channels[key].put(_WAKE)


def _next_message(ch) -> Envelope | None:
    """The channel's next envelope, skipping wake tokens (None: empty)."""
    while True:
        try:
            env = ch.get_nowait()
        except queue.Empty:
            return None
        if env is not _WAKE:
            return env


class SimDeadlockError(RuntimeError):
    """A simulated rank blocked on a receive that can never complete."""


class SimAborted(RuntimeError):
    """Another rank of this run failed; this rank was cancelled."""


def raise_abort(table: ChannelTable) -> None:
    reason = table.abort_reason
    raise SimAborted(f"run aborted: {reason!r}") from reason
