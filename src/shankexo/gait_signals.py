"""IMU-derived gait kinematics: DF channel, event detection, stance buffering.

Sign conventions: foot pitch is positive with the forefoot higher than the
hindfoot, shank angle is zero upright and positive with knee flexion, and the
ankle dorsiflexion channel is the difference theta_sk - theta_ft (zero at
upright stand). Foot contact is marked by the foot-pitch maximum, foot-off by
the foot-pitch-rate minimum.

`EventDetector` and `WindowAssembler` work one `KinematicSample` at a
time. They are the reference that `profile.EstimationPath`, which runs the
same detector in the C kernel once per event over blocks of sample
columns, is held to, and the API the benchmark calls. `WindowAssembler`
keeps each stance in one buffer of samples, backfilled at foot contact
from its ring of the last RING_SAMPLES samples, from the extremum sample
on, and cut at foot-off to the samples at or before the extremum; a
`StanceWindow` is the immutable shank/DF pair of lists it hands out.

`read_replay_columns` reads a recorded stream a block of
REPLAY_BLOCK_LINES lines at a time, so its memory does not grow with the
stream, and `read_replay_csv` yields the blocks' samples. numpy parses
a block of plain numbers; csv.reader and float(), which define the accepted
format, parse any other. Each block is conditioned over columns: the gap
check, the DF channel and the extrapolated fill of up to MAX_GAP_SAMPLES - 1
missing samples, carried across blocks; a block without a gap makes no
fill. The angles pass through as recorded. A row that is not five numbers,
a non-finite timestamp, a non-increasing timestamp or a non-finite angle,
rate or derived DF angle or rate, of a row or a fill, raises
SignalQualityError (all but the non-increasing timestamp name the line; a
fill's is the row after the gap); a gap of more than MAX_GAP_SAMPLES - 1
samples raises SignalLossError. Either is raised after the samples of the
rows before it.

A stream longer than REPLAY_FORK_SAMPLES samples is read on in a reader
process, so the reading overlaps the caller's use of the samples: the
caller's process reads the blocks up to that many samples, forks the
reader (`forked.fork`) and closes its own copy of the file. The reader
keeps the stream and its end of a pipe of forked.PIPE_BYTES, which
bounds how far it runs ahead, and sends each block's (7, n) sample
columns as a `forked` block. At the pipe's end the caller reaps the
reader, which raises the error that ended the stream again, with its
type, message, errno and cause, or OSError naming the signal or exit
status of a reader that died, after the samples it sent, so a stream is
never silently shorter. An iterator dropped early kills and reaps the
reader. Where the system does not tell which CPUs the caller's process
may run on, it may run on one only, no CPU is idle, it runs another
thread, or the fork fails, the caller's process reads on itself; the
samples are the same either way.

IMU_PERIOD_MS, STANCE_CAPACITY, RING_SAMPLES and the DetectorConfig
defaults are defined here only: `harness` feeds the estimation path one
world tick per IMU period, ahead of each block's 1 kHz closed loop, and
`plant` validates gait templates against it and the detector's
thresholds.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import sys
import threading
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, islice, repeat
from math import inf
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import forked

log = logging.getLogger(__name__)

IMU_PERIOD_MS = 10.0  # 100 Hz sensor cadence
MAX_GAP_SAMPLES = 3
STANCE_CAPACITY = 300  # samples, >= 2 s of stance at 100 Hz
RING_SAMPLES = 120  # recent samples a foot contact's stance backfills from


class SignalQualityError(ValueError):
    """Non-finite or malformed kinematic input."""


class SignalLossError(RuntimeError):
    """Stream gap beyond the tolerated number of samples, or a run whose
    gait events stop before its last stride."""


class GaitEventKind(Enum):
    FOOT_CONTACT = "foot_contact"
    FOOT_OFF = "foot_off"


class GaitPhase(Enum):
    SWING = "swing"
    STANCE = "stance"


_SWING = GaitPhase.SWING   # a global reads faster than a member off its class


class KinematicSample(NamedTuple):
    """One kinematic frame. Angles in deg, rates in deg/s, time in ms."""

    t_ms: float
    theta_ft: float
    theta_sk: float
    theta_df: float
    theta_ft_rate: float
    theta_sk_rate: float
    theta_df_rate: float


@dataclass(frozen=True)
class GaitEvent:
    kind: GaitEventKind
    t_ms: float          # time of the extremum sample, not of confirmation
    gc_index: int


@dataclass
class DetectorConfig:
    """Hysteresis-band extremum seeker settings.

    Two guards keep the foot-off seeker off the early-stance foot-slap rate
    dip that real and synthetic pitch traces share: seeking opens only after
    a fraction of the previous measured stance duration has elapsed
    (cadence-adaptive, so it follows speed ramps), and the seeker arms only
    below a rate threshold that adapts to a fraction of the previous
    foot-off extremum.
    """

    delta_ang: float = 1.0        # deg below the running max to confirm foot contact
    delta_vel: float = 10.0       # deg/s above the running min to confirm foot-off
    refractory_ms: float = 200.0  # dead time after each confirmation
    fo_gate_fraction: float = 0.5  # of the previous stance duration
    fo_arm_init: float = -80.0    # deg/s, arming threshold before any foot-off seen
    fo_arm_fraction: float = 0.45
    fo_arm_cap: float = -40.0     # arming threshold never rises above this


class EventDetector:
    """Single-leg foot-contact / foot-off detector driven at the IMU rate.

    In Swing mode the detector tracks the running maximum of the foot pitch
    angle and confirms FootContact once the signal has dropped delta_ang below
    it. In Stance mode it tracks the running minimum of the foot pitch rate
    (after arming) and confirms FootOff once the rate has risen delta_vel
    above it. Emitted events carry the extremum sample time. `fc_t_ms` is
    the last foot contact's time, which stance follows; `fo_arm_threshold`
    the rate (deg/s) the seeker arms below. A sample whose channel the mode
    reads is not finite is skipped, as no extremum or threshold can use it,
    and so is a sample whose time is not finite.
    """

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()
        self.mode = GaitPhase.SWING
        self.gc_count = 0
        self._refractory_until = -sys.float_info.max   # below every finite t
        self.fo_arm_threshold = self.config.fo_arm_init
        self._armed = False
        self._ext_value: Optional[float] = None
        self._ext_t: float = 0.0
        self.fc_t_ms = 0.0
        self._stance_dur: Optional[float] = None
        self._fo_gate = -math.inf   # foot-off seeking opens at this time

    def update(self, sample: KinematicSample) -> Optional[GaitEvent]:
        t = sample.t_ms
        if not self._refractory_until <= t < inf:    # also NaN and +-inf
            return None
        if self.mode is _SWING:
            value = sample.theta_ft
            if value - value != 0.0:      # NaN for a NaN or an infinity
                return None
            ext = self._ext_value
            if ext is None or value > ext:
                self._ext_value = value
                self._ext_t = t
            elif ext - value >= self.config.delta_ang:
                event = GaitEvent(GaitEventKind.FOOT_CONTACT, self._ext_t,
                                  self.gc_count)
                self.gc_count += 1
                self.fc_t_ms = self._ext_t
                if self._stance_dur is not None:
                    self._fo_gate = (self.fc_t_ms
                                     + self.config.fo_gate_fraction
                                     * self._stance_dur)
                self._enter(GaitPhase.STANCE, t)
                return event
            return None
        if t < self._fo_gate:
            return None
        rate = sample.theta_ft_rate
        if rate - rate != 0.0:
            return None
        ext = self._ext_value
        if not self._armed:
            if rate < self.fo_arm_threshold:
                self._armed = True
                self._ext_value = rate
                self._ext_t = t
        elif rate < ext:
            self._ext_value = rate
            self._ext_t = t
        elif rate - ext >= self.config.delta_vel:
            cfg = self.config
            event = GaitEvent(GaitEventKind.FOOT_OFF, self._ext_t,
                              self.gc_count - 1)
            self.fo_arm_threshold = min(cfg.fo_arm_cap,
                                        cfg.fo_arm_fraction * ext)
            self._stance_dur = self._ext_t - self.fc_t_ms
            self._enter(GaitPhase.SWING, t)
            return event
        return None

    def _enter(self, mode: GaitPhase, confirm_t_ms: float) -> None:
        self.mode = mode
        self._refractory_until = confirm_t_ms + self.config.refractory_ms
        self._ext_value = None
        self._armed = False


@dataclass(frozen=True)
class StanceWindow:
    """Paired shank/DF angle lists covering one stance period."""

    theta_sk_buf: list
    theta_df_buf: list

    def __len__(self) -> int:
        return len(self.theta_sk_buf)


class WindowAssembler:
    """Builds per-stride stance windows aligned to the event extremum samples.

    Confirmation lags the extremum by the hysteresis crossing, so the
    assembler keeps a short ring of recent samples. On FootContact it
    backfills one stance buffer from the ring, from the extremum sample on;
    the buffer holds STANCE_CAPACITY samples and drops its oldest past that.
    On FootOff it hands out the window of the buffered samples at or before
    the extremum, with one warning if the stance dropped any.
    """

    def __init__(self):
        self._ring: deque = deque(maxlen=RING_SAMPLES)
        self._stance: Optional[deque] = None    # None in swing
        self._first: Optional[KinematicSample] = None   # the stance's first

    def process(self, sample: KinematicSample,
                event: Optional[GaitEvent]) -> Optional[StanceWindow]:
        """Feed one sample (and any event it confirmed); returns a completed
        stance window on FootOff."""
        self._ring.append(sample)
        if event is None:
            if self._stance is not None:
                self._stance.append(sample)
            return None
        if event.kind is GaitEventKind.FOOT_CONTACT:
            self._stance = deque((s for s in self._ring if s.t_ms >= event.t_ms),
                                 maxlen=STANCE_CAPACITY)
            self._first = self._stance[0] if self._stance else None
            return None
        stance, self._stance = self._stance or (), None
        if stance and stance[0] is not self._first:
            log.warning("stance window exceeded %d samples; dropped the oldest",
                        STANCE_CAPACITY)
        kept = [s for s in stance if s.t_ms <= event.t_ms]
        return StanceWindow([s.theta_sk for s in kept],
                            [s.theta_df for s in kept])


REPLAY_HEADER = ["t_ms", "theta_ft_deg", "theta_sk_deg",
                 "theta_ft_rate_dps", "theta_sk_rate_dps"]
REPLAY_BLOCK_LINES = 1024  # stream lines parsed and conditioned at a time
# Samples a replay reads in the caller's process before a reader process
# may read the rest (`read_replay_columns`). Forking and reaping the reader
# costs about what the overlap saves on this many samples (4-5 ms, against
# about 1.1 us a sample on 2 vCPUs): a stream no longer never forks, and
# one just longer loses at most that cost.
REPLAY_FORK_SAMPLES = 4096
# ASCII separators, which numpy strips around a number and float() does not.
SEPARATORS = "\x1c\x1d\x1e\x1f"


def read_replay_csv(path) -> Iterator[KinematicSample]:
    """Replay a recorded kinematic stream; the DF channel is derived, not read.

    Reads REPLAY_BLOCK_LINES lines at a time, so memory stays constant
    over the stream, and chains the blocks' samples; nothing is opened
    before the first sample is asked for. Past REPLAY_FORK_SAMPLES
    samples, a reader process may parse and condition the rest while the
    caller uses the samples (see the module docstring). A leading UTF-8
    byte-order mark is skipped. A row that is not five numbers (a byte
    that is not UTF-8 text, read as a lone surrogate, makes it so), a field
    past csv's size limit, or a timestamp, angle, rate or derived DF angle
    or rate that is not finite raises SignalQualityError naming its line.
    Any error is raised after the samples of the rows before it; a reader
    process that dies raises OSError after the samples it sent. Dropping
    the iterator early kills and reaps the reader.
    """
    return chain.from_iterable(map(kinematic_samples,
                                   read_replay_columns(path)))


def read_replay_columns(path):
    """The (7, n) sample columns of each block of the stream, as
    `read_replay_csv` reads it, then the error that ended the stream, if
    any.

    The blocks are read here until more than REPLAY_FORK_SAMPLES samples
    are read. A reader process, where one can be had (`_fork_reader`),
    reads the rest and sends their columns while the caller uses them.
    """
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        stream, read = _stream(fh), 0
        for cols in stream:
            before, read = read, read + cols.shape[1]
            if (before <= REPLAY_FORK_SAMPLES < read
                    and (reader := _fork_reader(fh, stream))):
                break
            yield cols
        else:
            return
    child, r = reader
    try:
        with open(r, "rb") as pipe:
            yield cols
            yield from forked.blocks(pipe, (7, -1))
        child.reap()
    finally:
        child.kill()            # dropped early; nothing once reaped


def kinematic_samples(cols):
    """The KinematicSamples of (7, n) sample columns: the time, then the
    channels in KinematicSample's order."""
    return map(tuple.__new__, repeat(KinematicSample), zip(*cols.tolist()))


def _stream(fh):
    """The sample columns of each block of the stream fh (`_read_block`,
    `_condition`); an error that ends the stream is raised after the
    blocks before it."""
    reader = csv.reader(fh)
    try:
        header = next(reader, [])     # [] for an empty file
    except csv.Error as exc:
        raise SignalQualityError(f"replay line {reader.line_num}: "
                                 f"{exc}") from None
    if [h.strip() for h in header] != REPLAY_HEADER:
        raise SignalQualityError(f"unexpected replay header: {header}")
    line, tail = reader.line_num, np.empty((0, 5))
    while True:
        rows, ends, failure = _read_block(fh, line)
        cols, tail, rejection = _condition(rows, ends, tail)
        yield cols
        if rejection is not None:
            raise rejection
        if failure is not None:
            raise failure
        if not ends:
            return
        line = ends[-1]


def _fork_reader(fh, stream):
    """A reader process that reads the rest of `stream` from fh and sends
    it (`_send_stream`): its `forked.Child` and the read end of its pipe.
    None, and this process reads on, where the reader could not run on a
    CPU of its own or could not be forked: this process may run on one CPU
    only (os.sched_getaffinity, which Linux has, tells), or no CPU is idle
    (`_idle_cpu`), as then the two processes would share one.

    Nor is a reader forked from a process that runs another thread: a
    child of a threaded process may find a lock held that no thread of
    its own will release.
    """
    if (not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() > 1 or not _idle_cpu()):
        return None
    r, w = forked.pipe()
    child = None
    try:
        child = forked.fork("replay reader", (w, fh.fileno()),
                            partial(_send_stream, stream, w))
    except OSError:             # no process to be had: read on here
        pass
    finally:
        os.close(w)
        if child is None:
            os.close(r)
    return (child, r) if child else None


def _idle_cpu() -> bool:
    """Whether a CPU is idle now: fewer tasks are runnable, this process
    included, than the system has CPUs (/proc/loadavg's fourth field)."""
    try:
        with open("/proc/loadavg") as fh:
            runnable = int(fh.read().split()[3].partition("/")[0])
    except OSError:
        return False
    return runnable < (os.cpu_count() or 1)


def _send_stream(stream, out: int) -> None:
    """The reader process's body: send each block's sample columns on the
    pipe `out`."""
    for cols in stream:
        forked.send_block(out, cols)


def _read_block(fh, line: int):
    """The next block of stream rows as an (n, 5) array, the line each row
    ends on, and the error that cut the block short, if any.

    numpy parses a block of plain numbers; csv.reader and float(), which
    define the accepted format, parse any block it cannot or may parse
    differently: one with quotes, blank lines, `1_0` digits, fields past
    csv's size limit, or the ASCII separators float() does not strip.
    """
    lines, failure = [], None
    try:
        lines.extend(islice(fh, REPLAY_BLOCK_LINES))
    except OSError as exc:      # the lines before stand
        failure = exc
    text = "".join(lines)
    if (failure is None and lines and not any(c in text for c in SEPARATORS)
            and max(map(len, lines)) <= csv.field_size_limit()):
        try:
            with warnings.catch_warnings():   # a block of blank lines warns
                warnings.simplefilter("ignore")
                rows = np.loadtxt(lines, delimiter=",", ndmin=2,
                                  comments=None)
        except ValueError:
            pass
        else:
            if rows.shape == (len(lines), 5):   # numpy skips blank lines
                return rows, range(line + 1, line + len(lines) + 1), None
    rest = fh if failure is None else _raising(failure)
    reader = csv.reader(chain(lines, rest))   # a quoted field may run on
    parsed, ends = [], []
    try:
        while reader.line_num < len(lines):
            row = next(reader)
            try:
                t, ft, sk, ft_r, sk_r = (float(x) for x in row)
            except ValueError as exc:
                raise SignalQualityError(f"replay line {line + reader.line_num}: "
                                         f"not 5 numbers: {row}") from exc
            parsed.append((t, ft, sk, ft_r, sk_r))
            ends.append(line + reader.line_num)
    except csv.Error as exc:    # raised after the rows
        failure = SignalQualityError(f"replay line {line + reader.line_num}: "
                                     f"{exc}")
    except (OSError, ValueError) as exc:
        failure = exc
    return np.array(parsed, dtype=float).reshape(-1, 5), ends, failure


def _raising(exc: Exception):
    """Lines that end in `exc`, as the file's did."""
    raise exc
    yield


def _condition(rows, ends, tail):
    """The sample columns (`_columns`) of `rows` (t, ft, sk, ft rate, sk
    rate) and their fills up to the first row that fails a check, the
    stream's last two rows for the next block, and that row's error, or
    None.

    A gap of up to MAX_GAP_SAMPLES - 1 samples is filled by linear
    extrapolation from the two rows before it, `tail` carrying them across
    blocks; the fills are made only in a block with a gap.
    """
    n, k = len(rows), len(tail)
    if not n:
        return np.empty((7, 0)), tail, None
    t = rows[:, 0]
    with np.errstate(all="ignore"):
        gap = np.rint(np.diff(t, prepend=tail[-1, 0] if k else t[0])
                      / IMU_PERIOD_MS)
        if not k:
            gap[0] = 1.0
        cols, fills = _columns(rows), ()
        bad = (~np.isfinite(cols).all(axis=0) | (gap < 1)
               | (gap > MAX_GAP_SAMPLES))
        gapped = gap > 1
        if gapped.any():
            fills = _fills(rows, tail)
            fine = [np.isfinite(_columns(f)[1:]).all(axis=0) for f in fills]
            bad |= (gap >= 2) & ~fine[0] | (gap >= 3) & ~fine[1]
        stop = int(np.argmax(bad)) if bad.any() else n
        if gapped[:stop].any():
            keep = np.stack((gap >= 2, gap >= 3, np.ones(n, bool)), axis=1)
            out = np.stack((*fills, rows), axis=1)[:stop][keep[:stop]]
            cols = _columns(out)
        else:
            cols = cols[:, :stop]
    if stop == n:
        return cols, np.concatenate((tail, rows))[-2:], None
    return cols, tail, _rejection(rows[stop].tolist(), float(gap[stop]),
                                  [f[stop].tolist() for f in fills],
                                  ends[stop])


def _columns(rows):
    """The sample columns of `rows`: t, ft, sk, DF, ft rate, sk rate and
    DF rate, DF being sk - ft."""
    t, ft, sk, ft_r, sk_r = rows.T
    return np.stack((t, ft, sk, sk - ft, ft_r, sk_r, sk_r - ft_r))


def _fills(rows, tail):
    """The rows one and two periods after each row's previous one, by
    linear extrapolation from the two rows before each row. Where the
    previous row is the stream's first, the fill repeats it."""
    n, k = len(rows), len(tail)
    seq = np.concatenate((rows[:1].repeat(2 - k, axis=0), tail, rows))
    last, prev = seq[1:n + 1], seq[:n]
    step = last - prev
    fills = [last + step, last + 2.0 * step]
    for h, f in enumerate(fills, 1):
        if k < 2 and 1 - k < n:   # the stream's second row
            f[1 - k] = last[1 - k]
        f[:, 0] = last[:, 0] + h * IMU_PERIOD_MS
    return fills


def _rejection(row: list, gap: float, fills: list, line: int) -> Exception:
    """The error of a stream row that failed a check: the first failed in
    the order timestamp, gap, then each fill and the row itself."""
    t = row[0]
    if not math.isfinite(t):
        return SignalQualityError(f"replay line {line}: non-finite timestamp "
                                  f"t_ms={t!r}")
    if gap < 1:
        return SignalQualityError(
            f"non-increasing stream timestamp at t={t} ms")
    if gap > MAX_GAP_SAMPLES:
        return SignalLossError(
            f"kinematic stream gap of {gap:.0f} samples at t={t} ms")
    for _, ft, sk, ft_r, sk_r in fills[:int(gap) - 1] + [row]:
        for v in (sk, ft, sk_r, ft_r, sk - ft, sk_r - ft_r):
            if not math.isfinite(v):
                return SignalQualityError(f"replay line {line}: non-finite "
                                          f"kinematic input: {v!r}")
    raise AssertionError("no check failed")
