"""Run metrics: the per-stride report, the convergence stride and the
aggregates.

Each stride n is reported once foot contact n + 1 is detected
(`_StrideReport`), by one call of the loop kernel's report
(`shankexo_report` in loop.c): the tracking RMSE, the stance correlations
of the shank-angle profile and of the time-based comparator with the
biological torque, and the swing's peak force. It reads only its log rows
(artifacts.LOG_COLUMNS), from foot contact n to foot contact n + 1, and
the shank curve of the last clean stride before it, so a report over the
whole log would compute the same bits. The aggregates and the
convergence stride come at the end (`_build_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .artifacts import LOG_COLUMNS
from .gait_signals import GaitEvent
from .profile import GaussianParams, feature_targets

# The log columns the report reads, in the order of loop.c's COL_* slots
_REPORT_COLUMNS = ("t_ms", "theta_sk_deg", "f_des_n", "f_meas_n",
                   "perturb_kind", "bio")
AGGREGATION_STRIDES = 10    # GCs averaged in the aggregates
# StrideMetrics fields whose mean and sd the aggregates report, in order
_AGGREGATED = ("rmse_pct", "pearson_shank", "pearson_time", "swing_max_force")

CONVERGENCE_SENTINEL = -1


class MetricsError(ValueError):
    """Metric inputs malformed."""


# -- convergence --------------------------------------------------------------

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
    (see the module docstring): one call of the kernel's report
    (`shankexo_report` in loop.c) a stride."""

    def __init__(self, n_strides: int):
        self.n_strides = n_strides
        self.reported = 0            # strides reported or skipped
        self.per_stride: list[StrideMetrics] = []
        # loop.c's report vector v, from the log's layout on, and its
        # curves, whose first row and v's clean duration hold the time-based
        # comparator's state: the last clean stride's shank angle.
        self.v = np.zeros(kernel.REPORT_SLOTS)
        self.v[:kernel.REPORT_STRIDE] = (
            len(LOG_COLUMNS), *map(LOG_COLUMNS.index, _REPORT_COLUMNS))
        self.curves = np.zeros((4, kernel.GRID_POINTS))
        self._at = self.v.ctypes.data, self.curves.ctypes.data

    def report(self, log: np.ndarray, contacts: Sequence[GaitEvent],
               foot_offs: dict[int, GaitEvent],
               adopted: Sequence[GaussianParams]) -> int:
        """Report each stride whose next foot contact is in `contacts`,
        from the log rows `log`, which start at or before the oldest
        unreported foot contact's row. Return the index in `log` of that
        row once the contact is known, else 0."""
        log = np.ascontiguousarray(log, np.float64)
        if log.ndim != 2 or log.shape[1] != len(LOG_COLUMNS):
            raise ValueError(f"log rows must be (n, {len(LOG_COLUMNS)}), "
                             f"not {log.shape}")
        v = self.v
        while self.reported < min(len(contacts) - 1, self.n_strides):
            n = self.reported
            self.reported += 1
            fc, fo, nxt, p = (contacts[n], foot_offs.get(n), contacts[n + 1],
                              adopted[n])
            if fo is None or not (fc.t_ms < fo.t_ms < nxt.t_ms):
                continue
            v[kernel.REPORT_STRIDE:kernel.REPORT_STATE] = (
                fc.t_ms, fo.t_ms, nxt.t_ms, p.amp, p.mu, p.sigma1, p.sigma2,
                p.theta_fc, p.theta_fo)
            kernel.report(len(log), log.ctypes.data, *self._at)
            (kind, _, rmse, r_sk, r_tm, swing_max, has_rmse, has_r_sk,
             has_r_tm) = v[kernel.REPORT_OUT:].tolist()
            self.per_stride.append(StrideMetrics(
                stride=n, t_fc_ms=fc.t_ms,
                stance_ratio=(fo.t_ms - fc.t_ms) / (nxt.t_ms - fc.t_ms),
                rmse_pct=rmse if has_rmse else None,
                pearson_shank=r_sk if has_r_sk else None,
                pearson_time=r_tm if has_r_tm else None,
                swing_max_force=swing_max, perturbed=int(kind),
                mu=p.mu, sigma1=p.sigma1, sigma2=p.sigma2,
                theta_fc=p.theta_fc, theta_fo=p.theta_fo))
        if self.reported < len(contacts):
            return int(np.searchsorted(log[:, 0],
                                       contacts[self.reported].t_ms))
        return 0


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
