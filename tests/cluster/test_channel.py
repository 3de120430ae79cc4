"""Channel-table wake-ups: a receiver blocked on a sender that finishes
(or fails) without sending wakes because of that event, not because its
own poll timer ran out."""
import queue
import threading

import pytest

from repro.cluster import channel as channel_mod
from repro.cluster.channel import ChannelTable, SimAborted, SimDeadlockError


class _NoPollQueue:
    """A channel queue whose timed wait never expires: a receiver blocked
    on it wakes only when something is put, so the test cannot pass on
    the strength of a poll, however fast or slow the host is."""

    def __init__(self):
        self._q = queue.SimpleQueue()
        self.blocked = threading.Event()

    def put(self, item):
        self._q.put(item)

    def get_nowait(self):
        return self._q.get_nowait()

    def get(self, timeout=None):
        self.blocked.set()
        return self._q.get()


def _blocked_receiver(table: ChannelTable):
    """Start rank 0 receiving from rank 1 on a no-poll channel; return
    the thread, the channel and the list its error lands in."""
    ch = _NoPollQueue()
    table._channels[(1, 0, 7)] = ch
    errors: list[BaseException] = []

    def receive():
        try:
            table.take(1, 0, 7, real_timeout=60.0)
        except Exception as exc:  # recorded for the asserts below
            errors.append(exc)

    t = threading.Thread(target=receive, daemon=True)
    t.start()
    assert ch.blocked.wait(30.0), "receiver never blocked"
    return t, ch, errors


@pytest.mark.parametrize("failed", [False, True])
def test_blocked_receiver_wakes_when_its_sender_finishes(failed):
    table = ChannelTable()
    t, ch, errors = _blocked_receiver(table)
    if failed:
        table.fail(RuntimeError("rank 1 crashed"))
    table.mark_done(1)
    t.join(30.0)
    alive = t.is_alive()
    if alive:
        ch.put(None)  # release the stuck receiver before failing
    assert not alive, "receiver slept through its sender's end"
    (err,) = errors
    if failed:
        assert isinstance(err, SimAborted)
    else:
        assert isinstance(err, SimDeadlockError)
        assert "finished without sending it" in str(err)


def test_message_posted_before_done_is_still_delivered():
    # Drain first, then done-and-empty: a sender's last message wins
    # over its termination, also when the receiver was asleep.
    table = ChannelTable()
    got: list = []
    ch = _NoPollQueue()
    table._channels[(1, 0, 7)] = ch
    t = threading.Thread(
        target=lambda: got.append(table.take(1, 0, 7, real_timeout=60.0)),
        daemon=True,
    )
    t.start()
    assert ch.blocked.wait(30.0)
    table.post(1, 0, 7, "payload")
    table.mark_done(1)
    t.join(30.0)
    assert got == ["payload"]


def test_wake_tokens_never_surface_as_messages():
    table = ChannelTable()
    got: list = []
    ch = _NoPollQueue()
    table._channels[(1, 0, 7)] = ch
    t = threading.Thread(
        target=lambda: got.append(table.take(1, 0, 7, real_timeout=60.0)),
        daemon=True,
    )
    t.start()
    assert ch.blocked.wait(30.0)
    # Another rank fails: the receiver wakes, finds its own sender alive
    # and keeps waiting for the real message.
    table.fail(RuntimeError("rank 2 crashed"))
    table.post(1, 0, 7, "first")
    t.join(30.0)
    assert got == ["first"]
    # A token left over from a wake-up is skipped, not delivered.
    ch.put(channel_mod._WAKE)
    table.post(1, 0, 7, "second")
    assert table.take(1, 0, 7, real_timeout=1.0) == "second"
