"""Run metrics: the metric primitives, the per-stride report and the
aggregates.

Each stride n is reported once foot contact n + 1 is detected
(`_StrideReport`). It reads only its log rows (artifacts.LOG_COLUMNS), from
foot contact n to foot contact n + 1, and the shank curve of the last clean
stride before it, so a report over the whole log would compute the same
bits. The aggregates and the convergence stride come at the end
(`_build_report`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .artifacts import LOG_COLUMNS
from .gait_signals import GaitEvent
from .profile import (GaussianParams, ShankByPercentGC,
                      eval_time_profile_array, feature_targets)

STANCE_GRID_POINTS = 101    # uniform grid the stance correlations resample to
_GRID_STEPS = np.arange(float(STANCE_GRID_POINTS))
_GRID_STEPS.flags.writeable = False
AGGREGATION_STRIDES = 10    # GCs averaged in the aggregates
# StrideMetrics fields whose mean and sd the aggregates report, in order
_AGGREGATED = ("rmse_pct", "pearson_shank", "pearson_time", "swing_max_force")

CONVERGENCE_SENTINEL = -1


class MetricsError(ValueError):
    """Metric inputs malformed."""


class UndefinedCorrelationError(MetricsError):
    """Pearson correlation undefined (zero variance)."""


# -- metric primitives --------------------------------------------------------

def _sum(x: np.ndarray) -> np.float64:
    """sum(x) as Python adds it: left to right from 0, so a sum of -0.0s is
    0.0 (np.sum adds pairwise, which changes the last bits)."""
    return np.add.accumulate(x)[-1] + 0.0


def rmse_pct(desired: Sequence[float], actual: Sequence[float],
             peak: float) -> float:
    """Root-mean-square tracking error as a fraction of the peak force.
    The squares (C pow, through np.float_power) add left to right."""
    if len(desired) == 0 or len(desired) != len(actual):
        raise MetricsError("series must be non-empty and equal length")
    if peak <= 0.0:
        raise MetricsError("peak force must be positive")
    d = np.asarray(desired, dtype=float) - np.asarray(actual, dtype=float)
    return math.sqrt(_sum(np.float_power(d, 2.0)) / len(d)) / peak


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient. Every sum adds left to right,
    and the squares are C pow (np.float_power).

    A series has zero variance when its deviations are all zero, not when
    sxx is: their squares can underflow. When sxx, syy or their product is
    not a normal float (deviations near 1e-160 underflow it, near 1e150
    overflow it), the sums are taken again over the deviations scaled by a
    power of two to a largest magnitude in [0.5, 1). That scaling is exact
    and r does not depend on it, and it keeps |r| within rounding of 1.
    """
    n = len(x)
    if n != len(y) or n < 3:
        raise MetricsError("series must be equal length >= 3")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - _sum(x) / n
    dy = y - _sum(y) / n
    if not dx.any() or not dy.any():
        raise UndefinedCorrelationError("zero variance series")
    sxx = float(_sum(np.float_power(dx, 2.0)))
    syy = float(_sum(np.float_power(dy, 2.0)))
    if not (min(sxx, syy, sxx * syy) >= sys.float_info.min
            and sxx * syy < math.inf):
        dx, dy = _unit_scaled(dx), _unit_scaled(dy)
        sxx = float(_sum(np.float_power(dx, 2.0)))
        syy = float(_sum(np.float_power(dy, 2.0)))
    return _sum(dx * dy) / math.sqrt(sxx * syy)


def _unit_scaled(d: np.ndarray) -> np.ndarray:
    """d times the power of two that brings max |d| into [0.5, 1)."""
    return np.ldexp(d, -math.frexp(np.abs(d).max())[1])


def stance_correlation(mechanical: Sequence[float],
                       biological: Sequence[float]) -> float:
    """Pearson correlation after normalizing each series by its own maximum."""
    if len(mechanical) != len(biological):
        raise MetricsError("stance series must share one sampling grid")
    m = np.asarray(mechanical, dtype=float)
    b = np.asarray(biological, dtype=float)
    m_max, b_max = m.max(), b.max()
    if m_max <= 0.0 or b_max <= 0.0:
        raise UndefinedCorrelationError("series without a positive peak")
    return pearson(m / m_max, b / b_max)


def convergence_stride(param_history: Sequence[GaussianParams],
                       targets: tuple[float, float, float],
                       tol: float) -> int:
    """First stride index after which mu, sigma1, sigma2 all stay within
    tol * |initial gap| of their targets; CONVERGENCE_SENTINEL if never."""
    if not param_history:
        raise MetricsError("empty parameter history")

    def gaps(p: GaussianParams) -> np.ndarray:
        return np.abs(np.array([p.mu, p.sigma1, p.sigma2]) - targets)

    bounds = tol * gaps(param_history[0]) + 1e-12
    n = i = len(param_history)
    while i > 0 and np.all(gaps(param_history[i - 1]) <= bounds):
        i -= 1
    return i if i < n else CONVERGENCE_SENTINEL


def stance_grid(t0: float, t1: float) -> np.ndarray:
    """np.linspace(t0, t1, STANCE_GRID_POINTS), by its own formula for a
    float step (k * ((t1 - t0) / (points - 1)) + t0, the last point t1)
    without its per-call overhead."""
    grid = _GRID_STEPS * ((t1 - t0) / (STANCE_GRID_POINTS - 1))
    grid += t0
    grid[-1] = t1
    return grid


# Percent GC of a clean stride's shank angle (ShankByPercentGC), read-only
_PCT_GRID = stance_grid(0.0, 1.0)
_PCT_GRID.flags.writeable = False


def time_comparator(params: GaussianParams, tt: np.ndarray, t_fc: float,
                    prev_duration: float, prev_clean: ShankByPercentGC,
                    grid: np.ndarray) -> np.ndarray:
    """The time-based comparator of the stance ticks tt (ms, ascending) at
    percent GC (tt - t_fc) / prev_duration, linearly resampled onto grid
    (within [tt[0], tt[-1]]): np.interp(grid, tt, eval_time_profile_array(
    ...)). np.interp reads, for each grid point, only the two ticks around
    it (the tick itself at a tick, or at the last one), so the comparator
    is evaluated at those ticks alone, and the result keeps the bits of the
    evaluation at every tick (`tests/scalar_reference.py`)."""
    after = np.searchsorted(tt, grid, side="right")
    read = np.zeros(len(tt), bool)
    read[after - 1] = True
    read[np.minimum(after, len(tt) - 1)] = True
    ts = tt[read]
    return np.interp(grid, ts, eval_time_profile_array(
        params, (ts - t_fc) / prev_duration, prev_clean))


# -- the report -------------------------------------------------------------------

@dataclass
class StrideMetrics:
    stride: int
    t_fc_ms: float
    stance_ratio: float
    rmse_pct: Optional[float]
    pearson_shank: Optional[float]
    pearson_time: Optional[float]
    swing_max_force: Optional[float]
    perturbed: int                    # 0 none, 1 forward, 2 backward
    mu: float
    sigma1: float
    sigma2: float
    theta_fc: float
    theta_fo: float


@dataclass
class MetricsReport:
    config: dict
    per_stride: list[StrideMetrics]
    aggregate: dict
    convergence_stride: int
    aborted: bool


class _StrideReport:
    """The per-stride metrics, stride by stride as the run passes them
    (see the module docstring)."""

    def __init__(self, n_strides: int):
        self.n_strides = n_strides
        self.reported = 0            # strides reported or skipped
        self.per_stride: list[StrideMetrics] = []
        self.prev_clean: Optional[ShankByPercentGC] = None
        self.prev_duration: Optional[float] = None

    def report(self, log: np.ndarray, contacts: Sequence[GaitEvent],
               foot_offs: dict[int, GaitEvent],
               adopted: Sequence[GaussianParams]) -> int:
        """Report each stride whose next foot contact is in `contacts`,
        from the log rows `log`, which start at or before the oldest
        unreported foot contact's row. Return the index in `log` of that
        row once the contact is known, else 0."""
        while self.reported < min(len(contacts) - 1, self.n_strides):
            n = self.reported
            self._add(n, log, contacts[n], foot_offs.get(n), contacts[n + 1],
                      adopted[n])
            self.reported += 1
        if self.reported < len(contacts):
            return int(np.searchsorted(log[:, 0],
                                       contacts[self.reported].t_ms))
        return 0

    def _add(self, n: int, log: np.ndarray, fc: GaitEvent,
             fo: Optional[GaitEvent], nxt: GaitEvent,
             params: GaussianParams) -> None:
        if fo is None or not (fc.t_ms < fo.t_ms < nxt.t_ms):
            return
        col = dict(zip(LOG_COLUMNS, log.T))
        t, sk, bio = col["t_ms"], col["theta_sk_deg"], col["bio"]
        f_des, f_meas, pk = col["f_des_n"], col["f_meas_n"], col["perturb_kind"]
        i0 = int(np.searchsorted(t, fc.t_ms))
        i1 = int(np.searchsorted(t, fo.t_ms, side="right"))
        i2 = int(np.searchsorted(t, nxt.t_ms))
        duration = nxt.t_ms - fc.t_ms
        ratio = (fo.t_ms - fc.t_ms) / duration
        kind = int(pk[i0:i2].max()) if i2 > i0 else 0

        des = f_des[i0:i1]
        mea = f_meas[i0:i1]
        peak = float(des.max()) if len(des) else 0.0
        stride_rmse = (rmse_pct(des, mea, peak) if peak > 1.0 else None)

        r_sk = r_tm = None
        bio_seg = bio[i0:i1]
        if peak > 1.0 and bio_seg.max() > 0.0:
            # The stance series, linearly resampled onto one uniform grid
            tt = t[i0:i1]
            grid = stance_grid(tt[0], tt[-1])
            bio_g = np.interp(grid, tt, bio_seg)
            try:
                r_sk = stance_correlation(np.interp(grid, tt, des), bio_g)
            except MetricsError:
                r_sk = None
            if self.prev_clean is not None and self.prev_duration:
                try:
                    r_tm = stance_correlation(time_comparator(
                        params, tt, fc.t_ms, self.prev_duration,
                        self.prev_clean, grid), bio_g)
                except MetricsError:
                    r_tm = None

        swing = f_meas[int(np.searchsorted(t, fo.t_ms)):i2]
        swing_max = float(swing.max()) if len(swing) else 0.0

        self.per_stride.append(StrideMetrics(
            stride=n, t_fc_ms=fc.t_ms, stance_ratio=ratio,
            rmse_pct=stride_rmse, pearson_shank=r_sk, pearson_time=r_tm,
            swing_max_force=swing_max, perturbed=kind,
            mu=params.mu, sigma1=params.sigma1, sigma2=params.sigma2,
            theta_fc=params.theta_fc, theta_fo=params.theta_fo))

        if kind == 0:
            pct = (t[i0:i2] - fc.t_ms) / duration
            self.prev_clean = ShankByPercentGC(
                _PCT_GRID, np.interp(_PCT_GRID, pct, sk[i0:i2]))
            self.prev_duration = duration


def _build_report(cfg, ctrl_cfg, tmpl, per_stride, adopted, landmarks,
                  analysis_start, aborted) -> MetricsReport:
    """The aggregates and the convergence stride over the reported strides,
    and the config echo; the targets come from `landmarks`, the
    estimator's last ordered landmarks, if any."""
    targets = None
    if landmarks is not None:
        s1_t, s2_t, mu_t = feature_targets(landmarks)
        targets = (mu_t, s1_t, s2_t)
    conv = CONVERGENCE_SENTINEL
    if targets is not None and adopted:
        conv = convergence_stride(adopted, targets, tol=0.05)

    window = [s for s in per_stride if s.stride >= analysis_start]
    block = window[:AGGREGATION_STRIDES]
    aggregate = {
        "analysis_start_stride": analysis_start,
        "n_strides_analyzed": len(window),
        "n_strides_aggregated": len(block),
        "target_mu": targets[0] if targets else None,
        "target_sigma1": targets[1] if targets else None,
        "target_sigma2": targets[2] if targets else None,
    }
    for name in _AGGREGATED:
        values = [getattr(s, name) for s in block]
        aggregate[f"{name}_mean"] = _mean(values)
        aggregate[f"{name}_sd"] = _sd(values)
    aggregate["stance_ratio_mean"] = _mean([s.stance_ratio for s in block])
    config_echo = {
        "activity": cfg.activity, "scenario": cfg.scenario,
        "n_strides": cfg.n_strides, "seed": cfg.seed,
        "amp_fraction": cfg.amp_fraction, "body_weight": cfg.body_weight,
        "silent_cycles": ctrl_cfg.silent_cycles,
        "template_period_s": tmpl.period,
        "template_stance_ratio": tmpl.stance_ratio,
    }
    return MetricsReport(config=config_echo, per_stride=per_stride,
                         aggregate=aggregate, convergence_stride=conv,
                         aborted=aborted)


def _mean(xs) -> Optional[float]:
    vals = [x for x in xs if x is not None]
    if not vals:
        return None
    total = sum(vals)
    if math.isfinite(total) or not all(map(math.isfinite, vals)):
        return total / len(vals)
    # Finite values whose sum passed the float range (values near 1e307):
    # sum them scaled by the power of two that brings the largest into
    # [0.5, 1), as `_sd` does its deviations, and scale the mean back.
    e = math.frexp(max(map(abs, vals)))[1]
    total = sum(math.ldexp(v, -e) for v in vals)
    return math.ldexp(total / len(vals), e - 1) * 2.0


def _sd(xs) -> Optional[float]:
    vals = [x for x in xs if x is not None]
    if len(vals) < 2:
        return None
    m = _mean(vals)
    dev = [v - m for v in vals]
    try:
        ss = sum(d ** 2 for d in dev)
    except OverflowError:
        ss = math.inf
    if ss != math.inf:
        return math.sqrt(ss / (len(dev) - 1))
    # A square or their sum passed the float range (deviations near
    # 1e154): square the deviations scaled by the power of two that brings
    # the largest into [0.5, 1), as `pearson` does, and scale the root
    # back, to inf past the float range.
    e = math.frexp(max(map(abs, dev)))[1]
    ss = sum(math.ldexp(d, -e) ** 2 for d in dev)
    return math.ldexp(math.sqrt(ss / (len(dev) - 1)), e - 1) * 2.0
