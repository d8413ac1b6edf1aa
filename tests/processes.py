"""The child processes a test forks, through the program's `os.fork`
calls: their pids, whether they are reaped, the pipes they hold, and an
error they cannot report."""

import os
import threading
import time
from contextlib import suppress

import pytest


def record_forks(monkeypatch):
    """The pids of the processes forked from here on, as the parent sees
    them."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def assert_reaped(pids, n):
    """n processes were forked, and none of them is left, not even as a
    zombie."""
    assert len(pids) == n
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def exits_within(pid: int, seconds: float) -> bool:
    """Whether the child pid exits within `seconds`; it is left to be
    reaped."""
    deadline = time.monotonic() + seconds
    while not os.waitid(os.P_PID, pid,
                        os.WEXITED | os.WNOHANG | os.WNOWAIT):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def pipes(pid: int) -> set:
    """The pipes process pid holds open past fds 0-2, by name
    ("pipe:[inode]"): two ends of one pipe have one name."""
    fds, names = f"/proc/{pid}/fd", set()
    for fd in os.listdir(fds):
        if int(fd) > 2:
            with suppress(FileNotFoundError):    # closed meanwhile
                names.add(os.readlink(f"{fds}/{fd}"))
    return {n for n in names if n.startswith("pipe:")}


def unpicklable_error() -> ValueError:
    """An error that a child that raises it cannot report: it holds a
    lock, which does not pickle."""
    exc = ValueError("holds a lock")
    exc.lock = threading.Lock()
    return exc
