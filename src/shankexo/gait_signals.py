"""IMU-derived gait kinematics: DF channel, event detection, stance buffering.

Sign conventions: foot pitch is positive with the forefoot higher than the
hindfoot, shank angle is zero upright and positive with knee flexion, and the
ankle dorsiflexion channel is the difference theta_sk - theta_ft (zero at
upright stand). Foot contact is marked by the foot-pitch maximum, foot-off by
the foot-pitch-rate minimum.

IMU_PERIOD_MS, STANCE_CAPACITY and the DetectorConfig defaults are defined
here only: `harness` decimates its 1 kHz loop by the IMU period, and `plant`
validates gait templates against it and the detector's thresholds.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple, Optional

log = logging.getLogger(__name__)

IMU_PERIOD_MS = 10.0  # 100 Hz sensor cadence
MAX_GAP_SAMPLES = 3
STANCE_CAPACITY = 300  # samples, >= 2 s of stance at 100 Hz


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


def derive_df(theta_sk: float, theta_ft: float,
              theta_sk_rate: float, theta_ft_rate: float) -> tuple[float, float]:
    """Derive the ankle DF angle and rate from shank and foot channels."""
    for v in (theta_sk, theta_ft, theta_sk_rate, theta_ft_rate):
        if not math.isfinite(v):
            raise SignalQualityError(f"non-finite kinematic input: {v!r}")
    return theta_sk - theta_ft, theta_sk_rate - theta_ft_rate


class KinematicSample(NamedTuple):
    """One kinematic frame. Angles in deg, rates in deg/s, time in ms."""

    t_ms: float
    theta_ft: float
    theta_sk: float
    theta_df: float
    theta_ft_rate: float
    theta_sk_rate: float
    theta_df_rate: float

    @classmethod
    def from_imu(cls, t_ms: float, theta_ft: float, theta_sk: float,
                 theta_ft_rate: float, theta_sk_rate: float) -> "KinematicSample":
        df, df_rate = derive_df(theta_sk, theta_ft, theta_sk_rate, theta_ft_rate)
        return cls(t_ms, theta_ft, theta_sk, df, theta_ft_rate, theta_sk_rate, df_rate)


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
    above it. Emitted events carry the extremum sample time.
    """

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()
        self.mode = GaitPhase.SWING
        self.gc_count = 0
        self._refractory_until = -math.inf
        self._fo_arm_threshold = self.config.fo_arm_init
        self._armed = False
        self._ext_value: Optional[float] = None
        self._ext_t: float = 0.0
        self._fc_t: Optional[float] = None
        self._stance_dur: Optional[float] = None

    def update(self, sample: KinematicSample) -> Optional[GaitEvent]:
        cfg = self.config
        if sample.t_ms < self._refractory_until:
            return None
        if self.mode is GaitPhase.SWING:
            value = sample.theta_ft
            if self._ext_value is None or value > self._ext_value:
                self._ext_value = value
                self._ext_t = sample.t_ms
            elif self._ext_value - value >= cfg.delta_ang:
                event = GaitEvent(GaitEventKind.FOOT_CONTACT, self._ext_t, self.gc_count)
                self.gc_count += 1
                self._fc_t = self._ext_t
                self._enter(GaitPhase.STANCE, sample.t_ms)
                return event
        else:
            if (self._stance_dur is not None and self._fc_t is not None
                    and sample.t_ms < self._fc_t
                    + cfg.fo_gate_fraction * self._stance_dur):
                return None
            rate = sample.theta_ft_rate
            if not self._armed:
                if rate < self._fo_arm_threshold:
                    self._armed = True
                    self._ext_value = rate
                    self._ext_t = sample.t_ms
                return None
            if rate < self._ext_value:
                self._ext_value = rate
                self._ext_t = sample.t_ms
            elif rate - self._ext_value >= cfg.delta_vel:
                event = GaitEvent(GaitEventKind.FOOT_OFF, self._ext_t, self.gc_count - 1)
                self._fo_arm_threshold = min(cfg.fo_arm_cap,
                                             cfg.fo_arm_fraction * self._ext_value)
                if self._fc_t is not None:
                    self._stance_dur = self._ext_t - self._fc_t
                self._enter(GaitPhase.SWING, sample.t_ms)
                return event
        return None

    def _enter(self, mode: GaitPhase, confirm_t_ms: float) -> None:
        self.mode = mode
        self._refractory_until = confirm_t_ms + self.config.refractory_ms
        self._ext_value = None
        self._armed = False


@dataclass
class StanceWindow:
    """Paired shank/DF angle buffers covering one stance period."""

    capacity: int = STANCE_CAPACITY
    theta_sk_buf: list = field(default_factory=list)
    theta_df_buf: list = field(default_factory=list)
    overflowed: bool = False

    def __len__(self) -> int:
        return len(self.theta_sk_buf)

    def append(self, theta_sk: float, theta_df: float) -> None:
        if len(self.theta_sk_buf) >= self.capacity:
            if not self.overflowed:
                log.warning("stance window exceeded %d samples; dropping oldest",
                            self.capacity)
            self.overflowed = True
            self.theta_sk_buf.pop(0)
            self.theta_df_buf.pop(0)
        self.theta_sk_buf.append(theta_sk)
        self.theta_df_buf.append(theta_df)

    def clear(self) -> None:
        self.theta_sk_buf.clear()
        self.theta_df_buf.clear()
        self.overflowed = False


class WindowAssembler:
    """Builds per-stride stance windows aligned to the event extremum samples.

    Confirmation lags the extremum by the hysteresis crossing, so the
    assembler keeps a short ring of recent samples: on FootContact it
    backfills from the extremum time, and on FootOff it trims samples past
    the extremum before handing the window out.
    """

    def __init__(self):
        self._ring: deque = deque(maxlen=120)   # recent samples
        self.window = StanceWindow()
        self._t_buf: list = []
        self.in_stance = False

    def process(self, sample: KinematicSample,
                event: Optional[GaitEvent]) -> Optional[StanceWindow]:
        """Feed one sample (and any event it confirmed); returns a completed
        stance window on FootOff."""
        self._ring.append(sample)
        if event is not None and event.kind is GaitEventKind.FOOT_CONTACT:
            self.window.clear()
            self._t_buf.clear()
            for s in self._ring:
                if s.t_ms >= event.t_ms:
                    self.window.append(s.theta_sk, s.theta_df)
                    self._t_buf.append(s.t_ms)
            self.in_stance = True
            return None
        if event is not None and event.kind is GaitEventKind.FOOT_OFF:
            self.in_stance = False
            keep = sum(1 for t in self._t_buf if t <= event.t_ms)
            done = StanceWindow(theta_sk_buf=self.window.theta_sk_buf[:keep],
                                theta_df_buf=self.window.theta_df_buf[:keep])
            self.window.clear()
            self._t_buf.clear()
            return done
        if self.in_stance:
            self.window.append(sample.theta_sk, sample.theta_df)
            self._t_buf.append(sample.t_ms)
        return None


class StreamConditioner:
    """Calibrates and gap-checks a raw 100 Hz kinematic stream.

    Subtracts the standing offsets captured at stream start, tolerates a
    single missing sample by linear extrapolation from the last two frames,
    and rejects gaps longer than MAX_GAP_SAMPLES with SignalLossError.
    """

    def __init__(self, standing_ft: float = 0.0, standing_sk: float = 0.0):
        self.standing_ft = standing_ft
        self.standing_sk = standing_sk
        self._last: Optional[KinematicSample] = None
        self._prev: Optional[KinematicSample] = None

    def feed(self, t_ms: float, theta_ft: float, theta_sk: float,
             theta_ft_rate: float, theta_sk_rate: float) -> list[KinematicSample]:
        """Returns the calibrated sample, preceded by any extrapolated fill."""
        out: list[KinematicSample] = []
        ft = theta_ft - self.standing_ft
        sk = theta_sk - self.standing_sk
        if self._last is not None:
            gap = round((t_ms - self._last.t_ms) / IMU_PERIOD_MS)
            if gap < 1:
                raise SignalQualityError(
                    f"non-increasing stream timestamp at t={t_ms} ms")
            if gap > MAX_GAP_SAMPLES:
                raise SignalLossError(
                    f"kinematic stream gap of {gap} samples at t={t_ms} ms")
            for k in range(1, gap):
                out.append(self._extrapolate(k))
        sample = KinematicSample.from_imu(t_ms, ft, sk, theta_ft_rate, theta_sk_rate)
        self._prev = self._last
        self._last = sample
        out.append(sample)
        return out

    def _extrapolate(self, steps_ahead: int) -> KinematicSample:
        last, prev = self._last, self._prev
        t = last.t_ms + steps_ahead * IMU_PERIOD_MS
        if prev is None:
            return KinematicSample.from_imu(t, last.theta_ft, last.theta_sk,
                                            last.theta_ft_rate, last.theta_sk_rate)
        h = steps_ahead
        ft = last.theta_ft + h * (last.theta_ft - prev.theta_ft)
        sk = last.theta_sk + h * (last.theta_sk - prev.theta_sk)
        ft_r = last.theta_ft_rate + h * (last.theta_ft_rate - prev.theta_ft_rate)
        sk_r = last.theta_sk_rate + h * (last.theta_sk_rate - prev.theta_sk_rate)
        return KinematicSample.from_imu(t, ft, sk, ft_r, sk_r)


REPLAY_HEADER = ["t_ms", "theta_ft_deg", "theta_sk_deg",
                 "theta_ft_rate_dps", "theta_sk_rate_dps"]


def read_replay_csv(path) -> Iterator[KinematicSample]:
    """Replay a recorded kinematic stream; the DF channel is derived, not read."""
    cond = StreamConditioner()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != REPLAY_HEADER:
            raise SignalQualityError(f"unexpected replay header: {header}")
        for row in reader:
            t, ft, sk, ft_r, sk_r = (float(x) for x in row)
            yield from cond.feed(t, ft, sk, ft_r, sk_r)
