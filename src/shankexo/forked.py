"""Child processes of a run or a replay, forked and fed through a pipe.

Two parts of the program run in a child process beside the one that uses
them: the printer of timeseries.csv (`artifacts.Artifacts`) and the reader
of a long replay stream (`gait_signals.read_replay_columns`). Both are
forked (`os.fork`; the program starts no thread) by `fork` and share one
protocol:

- Data goes one way, through a pipe of PIPE_BYTES, as float64 blocks: per
  block, its count of values as 8 bytes, then the values as they lie in
  memory (`send_block`, `blocks`). EOF ends the blocks.
- The child keeps only fds 0-2, the fds it is given and the write end of
  its status pipe, so a child forked later holds no pipe end of an earlier
  one. It leaves only through os._exit: with 0 if its body returned, else
  with 1, after closing every fd it kept but the status pipe, so a parent
  that waits on a data pipe sees it end, and reporting the exception that
  ended it and its cause, pickled, on the status pipe.
- `Child.reap` reads the status pipe to its end, then waits for the child,
  so a report of any size gets through. It raises the reported exception
  again, with its cause and a note naming the child, or OSError naming the
  signal that killed the child or its exit status other than 0: that of a
  child whose exception would not pickle. `Child.kill` ends a child its
  parent drops early.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress
from signal import SIGKILL, Signals
from typing import Callable, Iterable

import numpy as np

# Pipe size (Linux; the default is 64 KiB): how far a child may run ahead
# of its parent, or behind it, before a write waits.
PIPE_BYTES = 1 << 20


def pipe() -> tuple[int, int]:
    """A pipe's read and write fds, the pipe widened to PIPE_BYTES where
    the system allows it."""
    fds = os.pipe()
    import fcntl
    with suppress(AttributeError, OSError):
        fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    return fds


def _send(fd: int, data) -> None:
    """Write all of `data` to the pipe fd."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def send_block(fd: int, block: np.ndarray) -> None:
    """Send the values of `block`, in C order as float64, on the pipe fd;
    a block of no values is not sent."""
    block = np.ascontiguousarray(block, np.float64)
    if block.size:
        _send(fd, block.size.to_bytes(8, "little"))
        _send(fd, memoryview(block).cast("B"))


def blocks(pipe, shape: tuple):
    """The blocks `send_block` sent on the binary file `pipe`, each
    reshaped to `shape`, until the pipe ends. A block cut short ends them
    too: only a sender that failed cuts one."""
    while head := pipe.read(8):
        block = np.empty(int.from_bytes(head, "little"))
        if pipe.readinto(memoryview(block).cast("B")) != block.nbytes:
            return
        yield block.reshape(shape)


def _close_all_but(keep: Iterable[int]) -> None:
    """Close every fd but 0-2 and `keep`."""
    keep = sorted(keep)
    for lo, hi in zip([2, *keep], [*keep, os.sysconf("SC_OPEN_MAX")]):
        os.closerange(lo + 1, hi)


class Child:
    """A child process that `fork` started, named `what` in its failures."""

    def __init__(self, what: str, pid: int, status: int):
        self.what, self.pid, self._status = what, pid, status

    def reap(self) -> None:
        """Wait for the child, once, and raise its failure (see the module
        docstring)."""
        if not self.pid:
            return
        pid, self.pid = self.pid, 0
        with open(self._status, "rb") as fh:
            report = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        failure = None
        with suppress(Exception):   # none, or one cut short by a signal
            failure = pickle.loads(report)
        if failure:
            exc, cause = failure
            if hasattr(exc, "add_note"):        # Python 3.11 on
                exc.add_note(f"raised in the {self.what} process")
            raise exc from cause
        if code < 0:
            raise OSError(f"{self.what} killed by {Signals(-code).name}")
        if code:
            raise OSError(f"{self.what} exited with {code}")

    def kill(self) -> None:
        """Kill the child and reap it, raising nothing; nothing once it is
        reaped."""
        if self.pid:
            os.kill(self.pid, SIGKILL)
            with suppress(Exception):
                self.reap()


def fork(what: str, keep: Iterable[int], body: Callable[[], None]) -> Child:
    """Fork a child that keeps the fds `keep` and runs body() (see the
    module docstring)."""
    status, report = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(status)
        os.close(report)
        raise
    if pid:
        os.close(report)
        return Child(what, pid, status)
    code = 1
    try:
        _close_all_but((*keep, report))
        body()
        code = 0
    except BaseException as exc:    # the process ends below either way
        with suppress(BaseException):
            _close_all_but((report,))
            _send(report, pickle.dumps((exc, exc.__cause__)))
    finally:
        os._exit(code)
