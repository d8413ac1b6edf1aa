"""Dual-Gaussian assistance profile and its per-stride parameter adaptation.

The desired force is a function of the shank angle alone: a rising Gaussian
branch (std sigma1) from the foot-contact angle up to the peak at mu, and a
falling branch (std sigma2) down to the foot-off angle. Outside the open
support (theta_fc, theta_fo) the profile is clamped to zero; the /4 rule in
the width targets keeps the endpoint tails near exp(-8) of the peak, so the
clamp is negligible.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .gait_signals import StanceWindow

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
        if not (self.theta_fc < self.mu < self.theta_fo):
            raise ParameterError(
                f"peak must lie inside the support: fc={self.theta_fc} "
                f"mu={self.mu} fo={self.theta_fo}")


def eval_force(p: GaussianParams, theta: float) -> float:
    """Desired assistive force (N) at shank angle theta (deg)."""
    if not (p.theta_fc < theta < p.theta_fo):
        return 0.0
    sigma = p.sigma1 if theta <= p.mu else p.sigma2
    z = (theta - p.mu) / sigma
    return p.amp * math.exp(-0.5 * z * z)


def eval_force_and_rate(p: GaussianParams, theta: float,
                        theta_rate: float) -> tuple[float, float]:
    """Desired force (N) at theta (deg) and its time derivative (N/s) along
    theta(t), from one exp: the controller's once-per-tick profile call.

    The force is eval_force's, bit for bit. The rate is
    f * (-(theta - mu) / sigma^2) * theta_rate; Python multiplies left to
    right, so reusing f gives the same bits as writing amp * exp(...) out
    in full. Where sigma * sigma underflows to 0 (sigma below about
    1.5e-162) the rate is 0.0.
    """
    if not (p.theta_fc < theta < p.theta_fo):
        return 0.0, 0.0
    sigma = p.sigma1 if theta <= p.mu else p.sigma2
    z = (theta - p.mu) / sigma
    f = p.amp * math.exp(-0.5 * z * z)
    try:
        return f, f * (-(theta - p.mu) / (sigma * sigma)) * theta_rate
    except ZeroDivisionError:
        return f, 0.0


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
    the excursion guard leave the parameters untouched.
    """

    def __init__(self, initial: GaussianParams):
        self.params = initial
        self.last_raw: Optional[RawStrideFeatures] = None
        self.last_accepted = False

    def update(self, raw: RawStrideFeatures) -> GaussianParams:
        self.last_raw = raw
        self.last_accepted = False
        cur = self.params
        if not raw.ordered:
            log.debug("estimate rejected: landmark ordering %s", raw)
            return cur
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
        self.params = replace(cur, mu=mu, sigma1=s1, sigma2=s2,
                              theta_fc=raw.theta_fc, theta_fo=raw.theta_fo)
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


class ShankByPercentGC:
    """Previous cycle's shank angle as a function of percent gait cycle.

    Backs the time-based comparator profile: linear interpolation over a
    uniform percent-GC grid recorded from the last unperturbed cycle.
    """

    def __init__(self, pct: Sequence[float], theta_sk: Sequence[float]):
        if len(pct) != len(theta_sk) or len(pct) < 2:
            raise ValueError("need matching pct/theta arrays with >= 2 points")
        self.pct = list(pct)
        self.theta = list(theta_sk)

    def lookup(self, pct_gc: float) -> float:
        pts, ths = self.pct, self.theta
        if pct_gc <= pts[0]:
            return ths[0]
        if pct_gc >= pts[-1]:
            return ths[-1]
        hi = bisect.bisect_right(pts, pct_gc)
        lo = hi - 1
        w = (pct_gc - pts[lo]) / (pts[hi] - pts[lo])
        return ths[lo] + w * (ths[hi] - ths[lo])


def eval_time_profile(p: GaussianParams, pct_gc: float,
                      prev_cycle: Optional[ShankByPercentGC]) -> float:
    """Time-based comparator: the same dual-Gaussian shape progressed by
    percent GC through the previous cycle's shank trajectory. Returns 0 when
    no previous cycle has been recorded."""
    if prev_cycle is None:
        return 0.0
    if not (0.0 <= pct_gc < 1.0):
        return 0.0
    return eval_force(p, prev_cycle.lookup(pct_gc))


def eval_time_profile_array(p: GaussianParams, pct_gc: np.ndarray,
                            prev_cycle: ShankByPercentGC) -> np.ndarray:
    """eval_time_profile over an array of percent-GC values, bit-equal to
    the scalar: the lookup repeats ShankByPercentGC.lookup's operation order
    (np.interp does not) and the Gaussian keeps math.exp (np.exp differs in
    the last bit)."""
    pts = np.asarray(prev_cycle.pct)
    ths = np.asarray(prev_cycle.theta)
    hi = np.clip(np.searchsorted(pts, pct_gc, side="right"), 1, len(pts) - 1)
    lo = hi - 1
    w = (pct_gc - pts[lo]) / (pts[hi] - pts[lo])
    theta = np.where(pct_gc <= pts[0], ths[0],
                     np.where(pct_gc >= pts[-1], ths[-1],
                              ths[lo] + w * (ths[hi] - ths[lo])))
    on = ((0.0 <= pct_gc) & (pct_gc < 1.0)
          & (p.theta_fc < theta) & (theta < p.theta_fo))
    th = theta[on]
    z = (th - p.mu) / np.where(th <= p.mu, p.sigma1, p.sigma2)
    out = np.zeros_like(pct_gc)
    out[on] = [p.amp * math.exp(e) for e in (-0.5 * z * z).tolist()]
    return out
