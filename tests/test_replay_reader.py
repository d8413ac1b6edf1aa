"""`read_replay_csv` against the per-row reference reader, bit for bit.

The reader parses a block of plain-number lines with numpy and conditions
it over columns; csv.reader and float() parse any other block. These tests
draw streams that take both parsers, every check of the conditioning and
block boundaries (the block size is patched small), and compare the
samples and the error with `reference_read_replay_csv`.
"""

import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from processes import (assert_reaped, exits_within, pipes, record_forks,
                       unpicklable_error)
from scalar_reference import reference_read_replay_csv
from shankexo import artifacts, gait_signals
from shankexo.cli import main
from shankexo.gait_signals import (REPLAY_HEADER, KinematicSample,
                                   SignalLossError, SignalQualityError,
                                   read_replay_csv)
from shankexo.plant import GaitWorld, PlantConfig, Row, build_template

HEADER = ",".join(REPLAY_HEADER) + "\n"
BLOCK_SIZES = (1, 2, 3, 4, 7, gait_signals.REPLAY_BLOCK_LINES)


def outcome(reader, path):
    """The samples read, as float bits, and the error that ended the read."""
    samples, error = [], None
    try:
        for s in reader(path):
            assert type(s) is KinematicSample
            assert all(type(v) is float for v in s)
            samples.append(tuple(v.hex() for v in s))
    except Exception as exc:
        error = (type(exc), str(exc))
    return samples, error


def assert_same_as_reference(path, block_sizes=BLOCK_SIZES):
    want = outcome(reference_read_replay_csv, path)
    for lines in block_sizes:
        with mock.patch.object(gait_signals, "REPLAY_BLOCK_LINES", lines):
            got = outcome(read_replay_csv, path)
        assert got == want, f"block of {lines} lines"
    return want


def text_of(rows):
    return HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows)


@contextmanager
def reader_past(samples):
    """Reads that fork a reader process past `samples` samples, on any
    host, however busy."""
    with mock.patch.object(gait_signals, "REPLAY_FORK_SAMPLES", samples), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1},
                              create=True), \
            mock.patch.object(gait_signals, "_idle_cpu", lambda: True):
        yield


def write(path, rows):
    path.write_text(text_of(rows))
    return path


def regular(n, t0=10.0):
    return [[t0 + 10.0 * i, 0.5 * i, -0.25 * i, 3.0, -1.5] for i in range(n)]


def with_gap_at(rows, at):
    """`rows` with one sample missing before row `at`."""
    return rows[:at] + [[r[0] + 10.0, *r[1:]] for r in rows[at:]]


def with_value(rows, at, col, v):
    rows = [list(r) for r in rows]
    rows[at][col] = v
    return rows


# -- generated streams -----------------------------------------------------------

# A stream is regular 10 ms rows of seeded random angles, with a few drawn
# changes at drawn rows: a time step (1-3 missing samples, steps that round
# half to even, gaps past the limit, non-increasing), a value (0, -0, one
# near the float limit for a fill to overflow, or not finite), a field
# written in a form that only csv.reader and float() read or that numpy
# must not be given, or a line that is blank or has 4 or 6 fields.
STEPS = [20.0, 30.0, 40.0, 50.0, 0.0, -10.0, 5.0, 15.0, 25.0, 35.0,
         9.999999, 10.000001, 1e300, math.nan, math.inf, -math.inf]
VALUES = [0.0, -0.0, 1e308, -1e308, 8e307, 5e-324, math.nan, math.inf,
          -math.inf]
STYLES = ["spaced", "tab", "quoted", "underscore", "upper", "separator"]
LINES = ["blank", "spaces", "four", "six"]
CHANGES = st.one_of(
    st.tuples(st.just("step"), st.sampled_from(STEPS)),
    st.tuples(st.just("value"), st.integers(1, 4), st.sampled_from(VALUES)),
    st.tuples(st.just("style"), st.integers(0, 4), st.sampled_from(STYLES)),
    st.tuples(st.just("line"), st.sampled_from(LINES)))


def field(v: float, style: str) -> str:
    text = repr(v)
    if style == "spaced":
        return f" {text} "
    if style == "tab":
        return f"\t{text}"
    if style == "quoted":
        return f'"{text}"'
    if style == "upper":
        return text.upper()
    if style == "separator":
        return text + "\x1c"
    if style == "underscore" and text[:2].isdigit():
        return text[0] + "_" + text[1:]
    return text


@st.composite
def streams(draw):
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-200.0, 200.0, (n, 4)).round(
        draw(st.sampled_from([1, 6, 17]))).tolist()
    steps = [10.0] * n
    styles = [[""] * 5 for _ in range(n)]
    lines = ["row"] * n
    for row, change in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                               CHANGES), max_size=5)):
        if row >= n:
            continue
        kind, *what = change
        if kind == "step":
            steps[row] = what[0]
        elif kind == "value":
            values[row][what[0] - 1] = what[1]
        elif kind == "style":
            styles[row][what[0]] = what[1]
        else:
            lines[row] = what[0]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text, t = [HEADER.replace("\n", ending)], draw(
        st.sampled_from([0.0, 10.0, -40.0, 1e6]))
    for step, vals, style, kind in zip(steps, values, styles, lines):
        t = step if not math.isfinite(step) else t + step
        fields = [field(v, how) for v, how in zip([t] + vals, style)]
        if not math.isfinite(t):
            t = 0.0
        if kind == "blank":
            fields = []
        elif kind == "spaces":
            fields = ["   "]
        elif kind == "four":
            fields.pop()
        elif kind == "six":
            fields.append("0.0")
        text.append(",".join(fields) + ending)
    return "".join(text)


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    return tmp_path_factory.mktemp("replay") / "stream.csv"


# The examples take a block with and without a gap: a gapless stream of
# several blocks, a gap at a block boundary, finite angles whose DF
# overflows, and a NaN field in an otherwise gapless block. A reader
# process takes over at the end of the block that passes 5 samples (the
# examples: the first block), or not at all; an error it raises has
# crossed the pipe when the caller gets it, and has the in-process
# reference's type and message.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=streams(), lines=st.sampled_from(BLOCK_SIZES),
       past=st.sampled_from([5, gait_signals.REPLAY_FORK_SAMPLES]))
@example(text=text_of(regular(11)), lines=4, past=0)
@example(text=text_of(with_gap_at(regular(11), 4)), lines=4, past=0)
@example(text=text_of(with_value(with_value(regular(11), 5, 2, 1e308),
                                 5, 1, -1e308)), lines=4, past=0)
@example(text=text_of(with_value(regular(11), 6, 3, math.nan)), lines=4,
         past=0)
def test_block_reader_equals_the_per_row_reader(stream_path, text, lines,
                                                past):
    stream_path.write_bytes(text.encode())
    with reader_past(past):
        assert_same_as_reference(stream_path, block_sizes=(lines,))


# -- hand-picked streams ---------------------------------------------------------

@pytest.mark.parametrize("at", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("missing", [1, 2])
def test_gap_that_straddles_a_block_boundary_is_filled(tmp_path, at, missing):
    rows = regular(8)
    for r in rows[at:]:
        r[0] += 10.0 * missing
    samples, error = assert_same_as_reference(write(tmp_path / "s.csv", rows))
    assert error is None and len(samples) == 8 + missing


def test_gap_after_the_first_row_repeats_it(tmp_path):
    rows = [[0.0, -0.0, -0.0, 2.0, -3.0], [30.0, 1.0, 1.0, 1.0, 1.0]]
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path)
    assert error is None
    got = list(read_replay_csv(path))
    assert [s.t_ms for s in got] == [0.0, 10.0, 20.0, 30.0]
    assert math.copysign(1.0, got[1].theta_ft) == -1.0


# The first overflows on both fills, which are checked before the row, so
# the row's NaN goes unreported; the second overflows on the second fill.
@pytest.mark.parametrize("prev, last, ft", [(-1e308, 1e308, "nan"),
                                            (0.0, 6e307, 0.0)])
def test_fill_that_overflows_is_rejected_after_the_rows_before(tmp_path, prev,
                                                               last, ft):
    rows = [[0.0, 0.0, prev, 0.0, 0.0], [10.0, 0.0, last, 0.0, 0.0],
            [40.0, ft, 0.0, 0.0, 0.0]]
    samples, error = assert_same_as_reference(write(tmp_path / "s.csv", rows))
    assert len(samples) == 2
    assert error == (SignalQualityError,
                     "replay line 4: non-finite kinematic input: inf")


# Finite angles or rates whose DF difference overflows: the row's angle,
# the row's rate, and the angle of the fill before the row.
@pytest.mark.parametrize("rows, line", [
    ([[0, -1e308, 1e308, 3, 4]], 2),
    ([[0, 1, 2, 3, 4], [10, 1, 2, -1e308, 1e308]], 3),
    ([[0, 0, 0, 0, 0], [10, -6e307, 6e307, 0, 0], [30, 0, 0, 0, 0]], 4),
], ids=["angle", "rate", "fill"])
def test_derived_df_that_overflows_is_one_error_line(tmp_path, capsys, rows,
                                                     line):
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path)
    assert len(samples) == line - 2
    assert error == (SignalQualityError,
                     f"replay line {line}: non-finite kinematic input: inf")
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"shankexo: error: {error[1]}\n"


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_timestamp_is_one_error_line(tmp_path, capsys, bad, first):
    rows = regular(4)
    rows[0 if first else 1][0] = bad
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path)
    line = 2 if first else 3
    assert len(samples) == (0 if first else 1)
    assert error == (SignalQualityError,
                     f"replay line {line}: non-finite timestamp t_ms={bad}")
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"shankexo: error: {error[1]}\n"


def test_infinite_step_is_a_gap(tmp_path):
    rows = [[-1.7e308, 0, 0, 0, 0], [1.7e308, 0, 0, 0, 0]]
    samples, error = assert_same_as_reference(write(tmp_path / "s.csv", rows))
    assert error == (SignalLossError,
                     "kinematic stream gap of inf samples at t=1.7e+308 ms")


def test_field_past_the_csv_size_limit_is_rejected(tmp_path, capsys):
    rows = regular(3)
    rows[1][1] = "0" * 131072 + "1"
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path, block_sizes=(1, 1024))
    assert len(samples) == 1
    assert error == (SignalQualityError, "replay line 3: field larger than "
                                         "field limit (131072)")
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"shankexo: error: {error[1]}\n"


def test_header_past_the_csv_size_limit_is_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x" * 131073 + "\n0,0,0,0,0\n")
    assert assert_same_as_reference(path) == ([], (
        SignalQualityError, "replay line 1: field larger than field limit "
                            "(131072)"))


def test_quoted_field_across_a_block_boundary(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(HEADER + '10,0,0,0,0\n"20\n",1,1,1,1\n30,2,2,2,2\n',
                    newline="")
    samples, error = assert_same_as_reference(path)
    assert error is None and len(samples) == 3


@pytest.mark.parametrize("open_quote", [False, True])
def test_undecodable_text_after_rows(tmp_path, open_quote):
    # A byte that is not UTF-8 reads as a lone surrogate, so its row is not
    # five numbers, after the rows before it. The second stream's last good
    # line opens a quoted field, which runs on over the bad byte to the
    # end of the file.
    text = HEADER + "".join(f"{10.0 * i},0,0,0,0\n" for i in range(1, 3000))
    if open_quote:
        text = text[:text.rindex("\n", 0, 8100) + 1]
        text += "9" * (8192 - len(text) - 4) + ',"1\n'
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode() + b"\xff\n10,0,0,0,0\n")
    samples, error = assert_same_as_reference(path, block_sizes=(7, 1024))
    line = text.count("\n") + (2 if open_quote else 1)   # where it ends
    assert samples and error[0] is SignalQualityError
    assert error[1].startswith(f"replay line {line}: not 5 numbers: ")
    assert "\\udcff" in error[1]


@pytest.mark.parametrize("where", ["header", "row"])
def test_latin_1_stream_is_one_error_line(tmp_path, capsys, where):
    path = tmp_path / "s.csv"
    head = HEADER.encode()
    if where == "header":
        head = head.replace(b"deg", b"\xb0", 1)
    path.write_bytes(head + b"0,1,2,3,4\n10,1,2,\xe9,4\n")
    samples, error = assert_same_as_reference(path)
    assert error[0] is SignalQualityError
    if where == "row":
        assert len(samples) == 1
        assert error[1] == ("replay line 3: not 5 numbers: "
                            "['10', '1', '2', '\\udce9', '4']")
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shankexo: error: ") and err.count("\n") == 1


def test_byte_order_mark_replays_as_the_stream(tmp_path, capsys):
    # A stream saved as "CSV UTF-8" starts with a UTF-8 byte-order mark.
    frames = GaitWorld(build_template("lw"), PlantConfig()).advance_block(
        0.01, 600).cols[Row.theta_ft:Row.free_length].T
    path = write(tmp_path / "s.csv", [
        [(k + 1) * 10.0, ft, sk, ft_rate, sk_rate]
        for k, (ft, sk, _, ft_rate, sk_rate, _) in enumerate(frames.tolist())])
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert assert_same_as_reference(marked) == outcome(read_replay_csv, path)
    outputs = []
    for p in (path, marked):
        assert main(["replay", str(p)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("stride 0: ")
    assert outputs[1] == outputs[0]


def test_nothing_opens_before_the_first_sample(tmp_path):
    path = tmp_path / "s.csv"
    samples = read_replay_csv(path)     # no file yet
    write(path, regular(3))
    assert len(list(samples)) == 3
    with pytest.raises(FileNotFoundError):
        next(read_replay_csv(tmp_path / "missing.csv"))


# -- the reader process ---------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked from here on; a read forks its
    reader at the end of its first block."""
    with reader_past(0):
        yield record_forks(monkeypatch)


@pytest.mark.parametrize("case", ["longer", "not longer", "one CPU",
                                  "no idle CPU", "another thread",
                                  "no process"])
def test_a_reader_process_reads_on_where_it_runs_beside_this_one(
        tmp_path, monkeypatch, case):
    # A stream longer than REPLAY_FORK_SAMPLES samples forks a reader
    # process, which reads the rest on a CPU of its own. Where it could not
    # run beside this process or cannot be forked, this process reads on.
    # Seen from a system of one CPU, this process makes that CPU busy.
    path = write(tmp_path / "s.csv", with_gap_at(regular(20), 9))
    monkeypatch.setattr(gait_signals, "REPLAY_BLOCK_LINES", 4)
    monkeypatch.setattr(gait_signals, "REPLAY_FORK_SAMPLES",
                        21 if case == "not longer" else 6)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if case == "one CPU" else {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count",
                        lambda: 1 if case == "no idle CPU" else 1 << 20)
    forks = record_forks(monkeypatch)
    if case == "no process":
        def failing():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        monkeypatch.setattr(os, "fork", failing)
    fds, stop = os.listdir("/proc/self/fd"), threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "another thread":
        thread.start()
    try:
        got = outcome(read_replay_csv, path)
    finally:
        stop.set()
    if case == "another thread":
        thread.join(10.0)
        assert not thread.is_alive()
    assert got == outcome(reference_read_replay_csv, path)
    assert len(got[0]) == 21
    assert_reaped(forks, int(case == "longer"))
    assert len(os.listdir("/proc/self/fd")) == len(fds)


@pytest.mark.parametrize("how", ["ends", "raises", "is abandoned",
                                 "is abandoned as it reads"])
def test_a_read_leaves_no_reader_process(tmp_path, monkeypatch, forks,
                                         how):
    # Abandoned after its first sample, a stream that fills the pipe twice
    # over leaves its reader waiting to write, and a reader that takes a
    # minute over its first block leaves it reading: either is killed at
    # once.
    rows = regular(40_000 if how == "is abandoned" else 50)
    if how == "raises":
        rows[30][1] = "nan"
    path = write(tmp_path / "s.csv", rows)
    monkeypatch.setattr(gait_signals, "REPLAY_BLOCK_LINES", 4)
    if how == "is abandoned as it reads":
        condition, caller = gait_signals._condition, os.getpid()

        def slow(*args):
            if os.getpid() != caller:
                time.sleep(60.0)
            return condition(*args)

        monkeypatch.setattr(gait_signals, "_condition", slow)
    if how.startswith("is abandoned"):
        samples = read_replay_csv(path)
        assert next(samples).t_ms == 10.0
        assert not exits_within(forks[0], 0.0)
        start = time.monotonic()
        del samples
        assert time.monotonic() - start < 30.0
    else:
        _, error = outcome(read_replay_csv, path)
        assert (error is None) == (how == "ends")
    assert_reaped(forks, 1)


@pytest.mark.parametrize("failure", ["killed", "OSError", "unpicklable"])
def test_a_reader_that_fails_raises_after_the_samples_it_sent(
        tmp_path, monkeypatch, forks, failure):
    # The caller's process reads the first block; the reader's, forked
    # then, fails on the second: its process is killed, it raises an
    # OSError, which reaches the caller with its type, errno and text, or
    # it raises an error it cannot report, which leaves its exit status.
    path = write(tmp_path / "s.csv", regular(12))
    condition, calls = gait_signals._condition, []
    eio = OSError(errno.EIO, os.strerror(errno.EIO), "s.csv")

    def failing(*args):
        calls.append(len(args[0]))
        if len(calls) == 2:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise unpicklable_error() if failure == "unpicklable" else eio
        return condition(*args)

    monkeypatch.setattr(gait_signals, "_condition", failing)
    monkeypatch.setattr(gait_signals, "REPLAY_BLOCK_LINES", 4)
    samples, error = outcome(read_replay_csv, path)
    assert samples == outcome(reference_read_replay_csv, path)[0][:4]
    assert error == (OSError, {
        "killed": "replay reader killed by SIGKILL", "OSError": str(eio),
        "unpicklable": "replay reader exited with 1"}[failure])
    assert calls == [4]       # the caller's process read the first block
    assert_reaped(forks, 1)


def test_an_error_from_the_reader_keeps_its_cause(tmp_path, monkeypatch,
                                                  forks):
    rows = regular(8)
    rows[6][2] = "x"
    path = write(tmp_path / "s.csv", rows)
    monkeypatch.setattr(gait_signals, "REPLAY_BLOCK_LINES", 4)
    with pytest.raises(SignalQualityError,
                       match="replay line 8: not 5 numbers") as info:
        list(read_replay_csv(path))
    assert type(info.value.__cause__) is ValueError
    if sys.version_info >= (3, 11):
        assert info.value.__notes__ == ["raised in the replay reader process"]
    assert_reaped(forks, 1)


def test_an_error_larger_than_a_pipe_holds_reaches_the_caller(
        tmp_path, monkeypatch):
    # The reader, forked past REPLAY_FORK_SAMPLES, meets a row with a
    # 100 KB field after sample 4096: its error's text outgrows a pipe of
    # the default 64 KiB, so the read returns only if the reader's data
    # pipe ends before it reports and the caller reads the whole report
    # before it waits for the reader.
    rows = regular(6000)
    rows[5000][1] = "x" * 100_000
    path = write(tmp_path / "s.csv", rows)
    forks = record_forks(monkeypatch)

    def timed_out(signum, frame):
        for pid in forks:
            os.kill(pid, signal.SIGKILL)
        raise TimeoutError("the read did not return")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        with reader_past(gait_signals.REPLAY_FORK_SAMPLES), pytest.raises(
                SignalQualityError,
                match="^replay line 5002: not 5 numbers: ") as info:
            for _ in read_replay_csv(path):
                pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(str(info.value)) > 100_000
    assert type(info.value.__cause__) is ValueError
    if sys.version_info >= (3, 11):
        assert info.value.__notes__ == ["raised in the replay reader process"]
    assert_reaped(forks, 1)


def settled_pipes(pid: int, n: int, seconds: float = 10.0) -> set:
    """The pipes of the child pid once it holds at most n of them, or
    after `seconds`: a child just forked still holds its parent's."""
    deadline = time.monotonic() + seconds
    while len(held := pipes(pid)) > n and time.monotonic() < deadline:
        time.sleep(0.01)
    return held


def test_reader_and_printer_hold_no_end_of_each_others_pipes(tmp_path,
                                                             forks):
    # A reader forked inside a live Artifacts block holds only its own
    # data and status pipes, and a printer forked during the read its own
    # rows and status pipes.
    # The stream's samples fill the pipe twice over, so the reader is still
    # there to look at.
    path = write(tmp_path / "s.csv", regular(40_000))
    pids = forks
    with artifacts.Artifacts(str(tmp_path / "first")):
        samples = read_replay_csv(path)
        next(samples)
        with artifacts.Artifacts(str(tmp_path / "second")):
            first, reader, second = pids
            own, printed = settled_pipes(reader, 2), settled_pipes(second, 2)
            apart = (len(own) == 2 and not own & settled_pipes(first, 2)
                     and len(printed) == 2 and not own & printed)
            if not apart:     # a printer that holds its pipe never ends
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
            assert apart, (own, printed)
        del samples
    assert_reaped(pids, 3)


# -- memory ----------------------------------------------------------------------

# Replays a stream in a fresh interpreter, its reader process forked at the
# end of the first block, and prints the peak RSS of its children (KiB):
# the reader's.
REPLAY = """\
import os, resource, sys
from shankexo import gait_signals
gait_signals.REPLAY_FORK_SAMPLES = 0
os.sched_getaffinity = lambda pid: {0, 1}
for _ in gait_signals.read_replay_csv(sys.argv[1]):
    pass
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_read_memory_does_not_grow_with_the_stream(tmp_path):
    peaks, paths = [], []
    for n in (5_000, 50_000):
        path = write(tmp_path / f"s{n}.csv",
                     [[10.0 * i, 1.25, -3.5, 40.125, -7.0] for i in range(n)])
        paths.append(str(path))
        tracemalloc.start()
        try:
            for _ in read_replay_csv(path):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Read whole, the longer stream peaks about 14 MB above the shorter.
    assert abs(peaks[1] - peaks[0]) < 200_000, peaks
    # tracemalloc sees this process only, not its reader process, and this
    # process's RUSAGE_CHILDREN peak holds every process it forked.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gait_signals.__file__)))
    rss = [int(subprocess.run([sys.executable, "-c", REPLAY, path], env=env,
                              check=True, capture_output=True,
                              text=True).stdout) for path in paths]
    assert rss[1] - rss[0] < 1024, rss
