"""Dual-Gaussian assistance profile and its per-stride parameter adaptation.

The desired force is a function of the shank angle alone: a rising Gaussian
branch (std sigma1) from the foot-contact angle up to the peak at mu, and a
falling branch (std sigma2) down to the foot-off angle. Outside the open
support (theta_fc, theta_fo) the profile is clamped to zero; the /4 rule in
the width targets keeps the endpoint tails near exp(-8) of the peak, so the
clamp is negligible.

`EstimationPath` is the 100 Hz estimation path of the scenario runner and
of `shankexo replay`, per block of sample columns: the event detector of
the C kernel (`kernel.detect`, a transcription of
`gait_signals.EventDetector.update`) once an event, the stance windows
that `gait_signals.WindowAssembler` would hand out, cut from carried
columns, and `ProfileEstimator`. The per-sample classes are its reference
and the benchmark's API.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import astuple, dataclass
from functools import partial
from typing import Optional

import numpy as np

from .gait_signals import (RING_SAMPLES, STANCE_CAPACITY, EventDetector,
                           GaitEvent, GaitEventKind, GaitPhase, StanceWindow)

log = logging.getLogger(__name__)

UPDATE_GAIN = 0.3
MIN_WINDOW_SAMPLES = 10

# Normality guard on one-stride parameter excursions.
MAX_DELTA_MU = 10.0     # deg
MAX_DELTA_SIGMA = 5.0   # deg
SIGMA_BOUNDS = (1.0, 30.0)

# Default initial profile parameters (deg); the amplitude is the caller's.
INITIAL_MU = 15.0
INITIAL_SIGMA1 = 10.0
INITIAL_SIGMA2 = 5.0
INITIAL_THETA_FC = -20.0
INITIAL_THETA_FO = 25.0


class ParameterError(ValueError):
    """Profile parameters violate their invariants."""


class EstimationSkipped(RuntimeError):
    """Stance window unusable; previous parameters retained."""


@dataclass(frozen=True)
class GaussianParams:
    """Profile state: peak force amp (N), peak location mu and branch widths
    sigma1/sigma2 (deg), and the support endpoints theta_fc/theta_fo (deg)."""

    amp: float
    mu: float
    sigma1: float
    sigma2: float
    theta_fc: float
    theta_fo: float

    def __post_init__(self):
        if not (self.amp > 0 and self.sigma1 > 0 and self.sigma2 > 0):
            raise ParameterError(f"non-positive amplitude or width: {self}")
        # eval_force_and_rate divides by sigma * sigma: at 0 that raises,
        # and a subnormal square overflows the quotient into a NaN rate.
        sigma = min(self.sigma1, self.sigma2)
        if sigma * sigma < sys.float_info.min:
            raise ParameterError(f"width squared underflows: {self}")
        if not (self.theta_fc < self.mu < self.theta_fo):
            raise ParameterError(
                f"peak must lie inside the support: fc={self.theta_fc} "
                f"mu={self.mu} fo={self.theta_fo}")
        # The rate's quotient (theta - mu) / (sigma * sigma) is largest at
        # the support ends; past the float range it is inf, and f = 0.0
        # times inf is a NaN rate.
        if not (math.isfinite((self.mu - self.theta_fc)
                              / (self.sigma1 * self.sigma1))
                and math.isfinite((self.theta_fo - self.mu)
                                  / (self.sigma2 * self.sigma2))):
            raise ParameterError(f"rate quotient overflows: {self}")


def eval_force_and_rate(p: GaussianParams, theta: float,
                        theta_rate: float) -> tuple[float, float]:
    """Desired force (N) at theta (deg) and its time derivative (N/s) along
    theta(t), from one exp: the scalar reference that the C profile of the
    loop kernel (`loop.c`) and the acceptance criteria are checked against,
    and the body of `eval_force` and `eval_force_rate`.

    The rate is f * (-(theta - mu) / sigma^2) * theta_rate; Python
    multiplies left to right, so reusing f gives the same bits as writing
    amp * exp(...) out in full. GaussianParams keeps sigma * sigma a normal
    float and the quotient finite, so the rate never raises.
    """
    if not (p.theta_fc < theta < p.theta_fo):
        return 0.0, 0.0
    sigma = p.sigma1 if theta <= p.mu else p.sigma2
    z = (theta - p.mu) / sigma
    f = p.amp * math.exp(-0.5 * z * z)
    return f, f * (-(theta - p.mu) / (sigma * sigma)) * theta_rate


def eval_force(p: GaussianParams, theta: float) -> float:
    """Desired assistive force (N) at shank angle theta (deg)."""
    return eval_force_and_rate(p, theta, 0.0)[0]


def eval_force_rate(p: GaussianParams, theta: float, theta_rate: float) -> float:
    """Time derivative of the desired force (N/s) along theta(t)."""
    return eval_force_and_rate(p, theta, theta_rate)[1]


@dataclass(frozen=True)
class RawStrideFeatures:
    """Per-stride kinematic landmarks: shank angle at foot contact, at the
    stride's maximum DF angle, and at foot-off (deg)."""

    theta_fc: float
    theta_mdf: float
    theta_fo: float

    @property
    def ordered(self) -> bool:
        return self.theta_fc < self.theta_mdf < self.theta_fo


def extract_raw(window: StanceWindow) -> RawStrideFeatures:
    """Landmarks from a completed stance window.

    theta_mdf is the shank angle at the index of the maximum buffered DF
    angle (first index on ties). Raises EstimationSkipped for windows shorter
    than MIN_WINDOW_SAMPLES.
    """
    n = len(window)
    if n < MIN_WINDOW_SAMPLES:
        raise EstimationSkipped(f"stance window too short ({n} samples)")
    df = window.theta_df_buf
    i_max = df.index(max(df))   # max keeps the first of equal values
    sk = window.theta_sk_buf
    return RawStrideFeatures(theta_fc=sk[0], theta_mdf=sk[i_max], theta_fo=sk[-1])


def feature_targets(raw: RawStrideFeatures) -> tuple[float, float, float]:
    """(sigma1*, sigma2*, mu*) implied by the landmarks; /4 smooths the ends."""
    return ((raw.theta_mdf - raw.theta_fc) / 4.0,
            (raw.theta_fo - raw.theta_mdf) / 4.0,
            raw.theta_mdf)


class ProfileEstimator:
    """Holds the current GaussianParams and applies the guarded gain-0.3 update.

    Each accepted stride moves (sigma1, sigma2, mu) 30 % of the way to the
    targets implied by the landmarks, so a stationary gait closes the gap by
    a factor of 0.7 per stride. Updates that fail the landmark ordering or
    the excursion guard leave the parameters untouched. `landmarks` holds
    the last ordered landmarks, whether or not the guards accepted them.
    """

    def __init__(self, initial: GaussianParams):
        self.params = initial
        self.landmarks: Optional[RawStrideFeatures] = None
        self.last_accepted = False

    def update(self, raw: RawStrideFeatures) -> GaussianParams:
        self.last_accepted = False
        cur = self.params
        if not raw.ordered:
            log.debug("estimate rejected: landmark ordering %s", raw)
            return cur
        self.landmarks = raw
        s1_t, s2_t, mu_t = feature_targets(raw)
        d_s1 = s1_t - cur.sigma1
        d_s2 = s2_t - cur.sigma2
        d_mu = mu_t - cur.mu
        if abs(d_mu) > MAX_DELTA_MU or abs(d_s1) > MAX_DELTA_SIGMA or abs(d_s2) > MAX_DELTA_SIGMA:
            log.debug("estimate rejected: excursion guard %s", raw)
            return cur
        g = UPDATE_GAIN
        s1 = cur.sigma1 + g * d_s1
        s2 = cur.sigma2 + g * d_s2
        mu = cur.mu + g * d_mu
        lo, hi = SIGMA_BOUNDS
        if not (lo <= s1 <= hi and lo <= s2 <= hi):
            log.debug("estimate rejected: sigma bounds %s", raw)
            return cur
        if not (raw.theta_fc < mu < raw.theta_fo):
            log.debug("estimate rejected: peak outside new support %s", raw)
            return cur
        self.params = GaussianParams(cur.amp, mu, s1, s2, raw.theta_fc,
                                     raw.theta_fo)
        self.last_accepted = True
        return self.params

    def update_from_window(self, window: StanceWindow) -> GaussianParams:
        try:
            raw = extract_raw(window)
        except EstimationSkipped as exc:
            log.debug("estimation skipped: %s", exc)
            self.last_accepted = False
            return self.params
        return self.update(raw)


class EstimationPath:
    """The 100 Hz estimation path over blocks of IMU sample columns,
    starting from the INITIAL_* profile at peak force amp (N). It reads IMU
    kinematics only, never cable state, so it can run ahead of the closed
    loop over a stream or a block of world ticks.

    `detector` is the kernel detector's vector d (`loop.c`), filled from
    a fresh EventDetector's config and state. Between calls the path
    carries the time and the foot, shank and DF angles of the last
    RING_SAMPLES samples and, in stance, of the newest STANCE_CAPACITY
    stance samples.
    """

    def __init__(self, amp: float):
        from . import kernel    # built at import, which cli.main reports
        det = EventDetector()
        self.detector = np.array((
            *astuple(det.config), det.mode is GaitPhase.STANCE, det.fc_t_ms,
            det.fo_arm_threshold, det.gc_count, det._ext_t,
            det._refractory_until, det._armed, det._ext_value,
            det._stance_dur, det._fo_gate), dtype=float)    # None as NaN
        self._state = self.detector[kernel.DETECTOR_STATE:]
        self._detect = partial(kernel.detect, self.detector.ctypes.data)
        self.estimator = ProfileEstimator(GaussianParams(
            amp, INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2,
            INITIAL_THETA_FC, INITIAL_THETA_FO))
        self._recent = np.empty((4, 0))
        self._stance: Optional[np.ndarray] = None     # None in swing
        self._held = 0      # samples the stance was given

    def detector_state(self) -> tuple[GaitPhase, float, float]:
        """EventDetector's mode, fc_t_ms and fo_arm_threshold."""
        mode, fc_t_ms, threshold = self._state[:3].tolist()
        return (GaitPhase.STANCE if mode else GaitPhase.SWING, fc_t_ms,
                threshold)

    def run(self, cols: np.ndarray, start: int,
            limit: int) -> Optional[tuple[int, GaitEvent]]:
        """Feed samples start to limit - 1 of the (7, n) float64 sample
        columns cols (the time, then KinematicSample's channels) up to
        the first that confirms an event: the index after it and the
        event, or None at limit. A foot-off's stance window has updated
        the estimator before this returns."""
        if cols.ndim != 2 or len(cols) != 7 or not (
                0 <= start <= limit <= cols.shape[1]):
            raise ValueError(f"cannot feed samples {start} to {limit} of "
                             f"columns {cols.shape}")
        cols = np.ascontiguousarray(cols, np.float64)
        at = self._detect(start, limit, cols.ctypes.data, cols.shape[1])
        fed = cols[:4, start:min(at + 1, limit)]    # t, ft, sk, df
        self._recent = np.concatenate((self._recent, fed),
                                      axis=1)[:, -RING_SAMPLES:]
        # WindowAssembler.process: each sample joins the ring, and, but
        # for the event's, the stance.
        if self._stance is not None:
            fed = fed[:, :at - start]
            self._held += fed.shape[1]
            self._stance = np.concatenate((self._stance, fed),
                                          axis=1)[:, -STANCE_CAPACITY:]
        if at == limit:
            return None
        mode, _, _, gc_count, t_ms = self._state[:5].tolist()
        event = GaitEvent(GaitEventKind.FOOT_CONTACT if mode
                          else GaitEventKind.FOOT_OFF, t_ms, int(gc_count) - 1)
        if mode:
            self._stance = self._recent[:, self._recent[0] >= t_ms]
            # WindowAssembler warns for a stance that backfilled no sample
            # as for one that dropped samples.
            self._held = self._stance.shape[1] or math.inf
            return at + 1, event
        stance, self._stance = self._stance, None
        if self._held > stance.shape[1] > 0:
            log.warning("stance window exceeded %d samples; dropped the "
                        "oldest", STANCE_CAPACITY)
        _, _, sk, df = stance[:, stance[0] <= t_ms]
        self.estimator.update_from_window(StanceWindow(sk.tolist(),
                                                       df.tolist()))
        return at + 1, event
