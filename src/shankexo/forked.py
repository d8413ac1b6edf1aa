"""Child processes of a run or a replay, forked and fed through a pipe.

Two parts of the program run in a child process beside the one that uses
them: the printer of timeseries.csv (`artifacts.Artifacts`) and the reader
of a long replay stream (`gait_signals.read_replay_columns`). Each is forked
(`os.fork`; the program starts no thread) and talks to its parent through
a pipe of PIPE_BYTES. `fork` runs the child: it keeps only fds 0-2 and the
fds it is given, so a child forked later holds no pipe end of an earlier
one, and it leaves only through os._exit, after reporting an exception
that ended it.
`reap` waits for a child and turns a failure (a one-line report, a signal
or a non-zero exit status) into OSError.
"""

from __future__ import annotations

import os
from contextlib import suppress
from signal import SIGKILL, Signals
from typing import Callable, Iterable

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


def send(fd: int, data) -> None:
    """Write all of `data` to the pipe fd."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def fork(keep: Iterable[int], body: Callable[[], None],
         report: Callable[[BaseException], None]) -> int:
    """Fork a child and return its pid. The child closes every fd but 0-2
    and `keep`, runs body() and leaves through os._exit: with 0 if body
    returned, else with 1 after report(exc) of the exception that ended it."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        keep = sorted(keep)
        for lo, hi in zip([2, *keep], [*keep, os.sysconf("SC_OPEN_MAX")]):
            os.closerange(lo + 1, hi)
        body()
        code = 0
    except BaseException as exc:    # the process ends below either way
        with suppress(BaseException):
            report(exc)
    finally:
        os._exit(code)


def kill(pid: int) -> None:
    """Kill the child pid and reap it."""
    os.kill(pid, SIGKILL)
    os.waitpid(pid, 0)


def report_line(fd: int, exc: BaseException) -> None:
    """Report `exc` on fd in one line for `reap`: its errno (0 for an
    error without one) and its text."""
    if isinstance(exc, OSError) and exc.errno:
        err, text = exc.errno, exc.strerror
    else:
        err, text = 0, f"{type(exc).__name__}: {exc}"
    os.write(fd, f"{err}\n{' '.join(text.split())}".encode())


def reap(pid: int, what: str, report_fd: int = -1) -> None:
    """Wait for the child pid. Raise OSError, naming it as `what`, for the
    report_line it wrote on report_fd (read to EOF and closed), if any, or
    if a signal killed it or it exited with a status other than 0."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if report_fd >= 0:
        with open(report_fd, "rb") as fh:
            err, _, text = fh.read().decode().partition("\n")
        if err:
            text = f"{what}: {text}"
            raise OSError(int(err), text) if int(err) else OSError(text)
    if code < 0:
        raise OSError(f"{what} killed by {Signals(-code).name}")
    if code:
        raise OSError(f"{what} exited with {code}")
