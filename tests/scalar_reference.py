"""Scalar references for the array code and the segment loop, one value or
one tick at a time.

`shankexo` computes the world clock, each gait curve and the biological
torque once, in the C kernel (`shankexo_advance`, `shankexo_world` and
`shankexo_stance` in `loop.c`). This module keeps the scalar forms they
were written from, as plain Python over floats, so the bit-equality tests
can compare the kernel against an independent evaluation.
They repeat these operation orders; a reordered product or sum in `src/`
shows up here as a last-bit difference.

The per-stride report is one call of the C kernel a stride
(`shankexo_report` in `loop.c`). `ReferenceStrideReport` is the numpy
report it replaced, over the per-element Python loops of its metric
primitives (`rmse_pct`, `pearson`, `stance_correlation`) and the
time-based comparator evaluated at every stance tick
(`full_time_comparator`).

`Controller.run` holds the controller state in locals across a stretch of
ticks and runs the cable in the same loop body, over open-loop columns.
`TickController` is the controller as it ran before, one `tick` call per
tick on `ControllerState`, within the motor envelope it is given;
`reference_cable_step` is the cable one tick at a time with builtin
max/min clamps; and `reference_run` is the loop that drove the two: the
per-tick reference of `run`.

`EventDetector.update` computes the foot-off gate once per stance;
`ReferenceDetector` is the detector as it ran before, computing it on each
stance sample.

`read_replay_csv` parses and conditions a recorded stream a block of rows
at a time, over numpy columns. `reference_read_replay_csv` reads it as
`shankexo replay` did before, one csv row at a time through
`StreamConditioner`: the per-row reference of the block reader.

Not a test module: pytest collects only test_*.py.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from shankexo.artifacts import LOG_COLUMNS
from shankexo.controller import (ABORT_CODE, ENGAGE_FORCE, PROBE_MARGIN_MM,
                                 PROBE_RATE, RELEASE_SLACK_MM, RESIDUAL_TICKS,
                                 TAIL_RELEASE_FORCE, TAIL_RELEASE_RATE,
                                 TIGHTEN_GAIN, ControlMode, Controller,
                                 ControllerConfig)
from shankexo.gait_signals import (IMU_PERIOD_MS, MAX_GAP_SAMPLES,
                                   REPLAY_HEADER, EventDetector, GaitEvent,
                                   GaitEventKind, GaitPhase, KinematicSample,
                                   SignalLossError, SignalQualityError)
from shankexo.metrics import MetricsError, StrideMetrics
from shankexo.plant import (INITIAL_SLACK_MM, MIG_MAX, MIG_STRIDE_TAU,
                            SWAY_DEG, SWAY_WINDOW_S, Cable, GaitTemplate,
                            GaitWorld, PerturbationKind, PerturbationSpec,
                            PlantConfig, PlantState, Row, bind_cable)
from shankexo.profile import GaussianParams, eval_force, eval_force_and_rate
from shankexo.tendon import TendonModel, estimate_migration, tendon_length

CODE = {None: 0, PerturbationKind.FORWARD: 1, PerturbationKind.BACKWARD: 2}
log = logging.getLogger(__name__)


# -- gait curves ---------------------------------------------------------------

def _s3(v: float) -> float:
    return v * v * (3.0 - 2.0 * v)


def _ds3(v: float) -> float:
    return 6.0 * v * (1.0 - v)


def swing_ease_gain(tmpl: GaitTemplate) -> float:
    """Foot-pitch angle shed while the plunge rate eases out in swing."""
    t_st = tmpl.period * tmpl.stance_ratio
    return 0.5 * (tmpl.plunge_rate_pu / t_st) * tmpl.swing_ease_s


def g(tmpl: GaitTemplate, u: float) -> tuple[float, float]:
    """Excess G(u) and dG/du over stance.

    The terminal plunge is a half cosine bump in rate, so the rate
    extremum lands exactly on stance end and the angle arrives there
    still steep; the swing ease-out finishes the bump in time.
    """
    if u <= tmpl.g_rise_end:
        v = u / tmpl.g_rise_end
        return tmpl.g_max * _s3(v), tmpl.g_max * _ds3(v) / tmpl.g_rise_end
    if u <= tmpl.g_fall_start:
        return tmpl.g_max, 0.0
    if u <= tmpl.g_fall_end:
        span = tmpl.g_fall_end - tmpl.g_fall_start
        v = (u - tmpl.g_fall_start) / span
        drop = tmpl.g_max - tmpl.g_dip
        return tmpl.g_max - drop * _s3(v), -drop * _ds3(v) / span
    if u <= tmpl.u_plunge:
        return tmpl.g_dip, 0.0
    span = 1.0 - tmpl.u_plunge
    xi = (u - tmpl.u_plunge) / span
    g = tmpl.g_dip + tmpl.g_plunge * (xi - math.sin(math.pi * xi) / math.pi)
    dg = tmpl.g_plunge * (1.0 - math.cos(math.pi * xi)) / span
    return g, dg


def stance_pose(tmpl: GaitTemplate,
                u: float) -> tuple[float, float, float, float]:
    """(theta_sk, theta_ft, dsk_du, dft_du) at stance fraction u."""
    sk0, sk1 = tmpl.theta_sk_span
    dsk = sk1 - sk0
    g_u, dg = g(tmpl, u)
    sk = sk0 + dsk * _s3(u)
    return sk, tmpl.ft_peak - g_u, dsk * _ds3(u), -dg


def swing_pose(tmpl: GaitTemplate,
               w: float) -> tuple[float, float, float, float]:
    """(theta_sk, theta_ft, dsk_dw, dft_dw) at swing fraction w."""
    sk0, sk1 = tmpl.theta_sk_span
    dsk = sk1 - sk0
    t_sw = tmpl.period * (1.0 - tmpl.stance_ratio)
    w_e = tmpl.swing_ease_s / t_sw
    w_h = w_e + tmpl.swing_hold
    ft_fo = tmpl.ft_peak - tmpl.g_end
    gain = swing_ease_gain(tmpl)
    if w <= w_e:
        # foot-pitch rate eases from the plunge extremum to zero
        rate_w = tmpl.plunge_rate_pu * (t_sw / (tmpl.period * tmpl.stance_ratio))
        xi = w / w_e
        ft = ft_fo - 0.5 * rate_w * w_e * (xi + math.sin(math.pi * xi) / math.pi)
        dft = -0.5 * rate_w * (1.0 + math.cos(math.pi * xi))
        return sk1, ft, 0.0, dft
    if w <= w_h:
        return sk1, ft_fo - gain, 0.0, 0.0
    v = (w - w_h) / (1.0 - w_h)
    c = 0.5 * (1.0 + math.cos(math.pi * v))
    dc = -0.5 * math.pi * math.sin(math.pi * v) / (1.0 - w_h)
    sk = sk0 + dsk * c
    ft = tmpl.ft_peak - (tmpl.g_end + gain) * c
    return sk, ft, dsk * dc, -(tmpl.g_end + gain) * dc


def gen_frame(tmpl: GaitTemplate, phase: float, speed_scale: float,
              t_ms: float = 0.0) -> KinematicSample:
    """Kinematic frame at a gait phase; speed_scale rescales rates only."""
    if not 0.0 <= phase < 1.0:
        phase = phase % 1.0
    rho = tmpl.stance_ratio
    cycle_rate = speed_scale / tmpl.period  # cycles/s
    if phase < rho:
        u = phase / rho
        sk, ft, dsk, dft = stance_pose(tmpl, u)
        mult = cycle_rate / rho
    else:
        w = (phase - rho) / (1.0 - rho)
        sk, ft, dsk, dft = swing_pose(tmpl, w)
        mult = cycle_rate / (1.0 - rho)
    sk_rate = dsk * mult
    ft_rate = dft * mult
    return KinematicSample(t_ms, ft, sk, sk - ft, ft_rate, sk_rate,
                           sk_rate - ft_rate)


def biological_torque(tmpl: GaitTemplate, phase: float) -> float:
    """Normalized single-crest ankle torque, peaking at the DF-peak phase."""
    rho = tmpl.stance_ratio
    if not 0.0 <= phase <= rho:
        return 0.0
    u = phase / rho
    u_pk = tmpl.df_peak[1]
    if u <= u_pk:
        base = 0.5 * (1.0 - math.cos(math.pi * u / u_pk))
    else:
        base = 0.5 * (1.0 + math.cos(math.pi * (u - u_pk) / (1.0 - u_pk)))
    return base ** tmpl.torque_sharpness


# -- the per-stride report -------------------------------------------------------

STANCE_GRID_POINTS = 101    # uniform grid the stance correlations resample to


class UndefinedCorrelationError(MetricsError):
    """Pearson correlation undefined (zero variance)."""


def stance_grid(t0: float, t1: float) -> np.ndarray:
    """np.linspace(t0, t1, STANCE_GRID_POINTS) by its own formula for a
    float step: k * ((t1 - t0) / (points - 1)) + t0, the last point t1."""
    grid = np.arange(float(STANCE_GRID_POINTS)) * (
        (t1 - t0) / (STANCE_GRID_POINTS - 1)) + t0
    grid[-1] = t1
    return grid


# The percent-GC grid of a clean stride's shank angle
PCT_GRID = stance_grid(0.0, 1.0)


@dataclass(frozen=True)
class ShankByPercentGC:
    """A clean stride's shank angle theta (deg) at ascending percent GC
    pct, which backs the time-based comparator."""

    pct: np.ndarray
    theta: np.ndarray


def lookup(prev_cycle: ShankByPercentGC, pct_gc: float) -> float:
    """The previous cycle's shank angle at pct_gc: linear interpolation,
    held at the first and last grid values outside the grid."""
    pts, ths = prev_cycle.pct, prev_cycle.theta
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
    return eval_force(p, lookup(prev_cycle, pct_gc))


def full_time_comparator(p: GaussianParams, tt: np.ndarray, t_fc: float,
                         prev_duration: float, prev_cycle: ShankByPercentGC,
                         grid: np.ndarray) -> np.ndarray:
    """The time-based comparator evaluated at every stance tick tt (ms),
    then linearly resampled onto grid."""
    return np.interp(grid, tt, [
        eval_time_profile(p, (t - t_fc) / prev_duration, prev_cycle)
        for t in tt.tolist()])


def array_max(xs):
    """ndarray.max as a loop: NaN where one value is NaN, else the first of
    the largest. (Of a tie of 0.0 and -0.0, ndarray.max returns the one its
    SIMD reduction order leaves, neither the first nor the last; the run's
    f_meas never holds -0.0.)"""
    m = xs[0]
    for x in xs[1:]:
        if m != m:
            break
        if not x <= m:
            m = x
    return m


def rmse_pct(desired, actual, peak: float) -> float:
    """Root-mean-square tracking error as a fraction of the peak force."""
    if len(desired) == 0 or len(desired) != len(actual):
        raise MetricsError("series must be non-empty and equal length")
    if peak <= 0.0:
        raise MetricsError("peak force must be positive")
    acc = 0.0
    for d, a in zip(desired, actual):
        acc += (d - a) ** 2
    return math.sqrt(acc / len(desired)) / peak


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient; out of the normal range, over
    the deviations scaled by a power of two to a largest magnitude in
    [0.5, 1)."""
    n = len(x)
    if n != len(y) or n < 3:
        raise MetricsError("series must be equal length >= 3")
    mx = sum(x) / n
    my = sum(y) / n
    dx = [a - mx for a in x]
    dy = [b - my for b in y]
    if not any(dx) or not any(dy):
        raise UndefinedCorrelationError("zero variance series")
    sxx = float(sum(d ** 2 for d in dx))
    syy = float(sum(d ** 2 for d in dy))
    if not (min(sxx, syy, sxx * syy) >= sys.float_info.min
            and sxx * syy < math.inf):
        ex = math.frexp(max(map(abs, dx)))[1]
        ey = math.frexp(max(map(abs, dy)))[1]
        dx = [math.ldexp(d, -ex) for d in dx]
        dy = [math.ldexp(d, -ey) for d in dy]
        sxx = sum(d ** 2 for d in dx)
        syy = sum(d ** 2 for d in dy)
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def stance_correlation(mechanical, biological) -> float:
    """Pearson correlation after normalizing each series by its own maximum
    (ndarray.max's: NaN where one value is NaN)."""
    if len(mechanical) != len(biological):
        raise MetricsError("stance series must share one sampling grid")
    m_max = array_max(mechanical)
    b_max = array_max(biological)
    if m_max <= 0.0 or b_max <= 0.0:
        raise UndefinedCorrelationError("series without a positive peak")
    return pearson([m / m_max for m in mechanical],
                   [b / b_max for b in biological])


class ReferenceStrideReport:
    """The per-stride report as numpy computed it before the C kernel did,
    over the loops above: `metrics._StrideReport` with the same interface
    and, per stride, `grids`, the stance's (f_des, bio, comparator) on its
    grid, NaN where the stride has none."""

    COLUMNS = ("t_ms", "theta_sk_deg", "bio", "f_des_n", "f_meas_n",
               "perturb_kind")

    def __init__(self, n_strides: int):
        self.n_strides = n_strides
        self.reported = 0
        self.per_stride: list[StrideMetrics] = []
        self.grids: list[np.ndarray] = []
        self.prev_clean: Optional[ShankByPercentGC] = None
        self.prev_duration: Optional[float] = None

    def report(self, log, contacts, foot_offs, adopted) -> int:
        while self.reported < min(len(contacts) - 1, self.n_strides):
            n = self.reported
            self._add(n, log, contacts[n], foot_offs.get(n), contacts[n + 1],
                      adopted[n])
            self.reported += 1
        if self.reported < len(contacts):
            return int(np.searchsorted(log[:, 0],
                                       contacts[self.reported].t_ms))
        return 0

    def _add(self, n, log, fc, fo, nxt, params) -> None:
        if fo is None or not (fc.t_ms < fo.t_ms < nxt.t_ms):
            return
        t, sk, bio, f_des, f_meas, pk = (
            log[:, LOG_COLUMNS.index(c)] for c in self.COLUMNS)
        i0 = int(np.searchsorted(t, fc.t_ms))
        i1 = int(np.searchsorted(t, fo.t_ms, side="right"))
        i2 = int(np.searchsorted(t, nxt.t_ms))
        duration = nxt.t_ms - fc.t_ms
        ratio = (fo.t_ms - fc.t_ms) / duration
        kind = int(array_max(pk[i0:i2])) if i2 > i0 else 0

        des = f_des[i0:i1]
        mea = f_meas[i0:i1]
        peak = float(array_max(des)) if len(des) else 0.0
        stride_rmse = (rmse_pct(des, mea, peak) if peak > 1.0 else None)

        r_sk = r_tm = None
        grids = np.full((3, STANCE_GRID_POINTS), math.nan)
        bio_seg = bio[i0:i1]
        if peak > 1.0 and array_max(bio_seg) > 0.0:
            # The stance series, linearly resampled onto one uniform grid
            tt = t[i0:i1]
            grid = stance_grid(tt[0], tt[-1])
            grids[0] = np.interp(grid, tt, des)
            grids[1] = bio_g = np.interp(grid, tt, bio_seg)
            try:
                r_sk = stance_correlation(grids[0], bio_g)
            except MetricsError:
                r_sk = None
            if self.prev_clean is not None and self.prev_duration:
                grids[2] = full_time_comparator(
                    params, tt, fc.t_ms, self.prev_duration, self.prev_clean,
                    grid)
                try:
                    r_tm = stance_correlation(grids[2], bio_g)
                except MetricsError:
                    r_tm = None
        self.grids.append(grids)

        swing = f_meas[int(np.searchsorted(t, fo.t_ms)):i2]
        swing_max = float(array_max(swing)) if len(swing) else 0.0

        self.per_stride.append(StrideMetrics(
            stride=n, t_fc_ms=fc.t_ms, stance_ratio=ratio,
            rmse_pct=stride_rmse, pearson_shank=r_sk, pearson_time=r_tm,
            swing_max_force=swing_max, perturbed=kind,
            mu=params.mu, sigma1=params.sigma1, sigma2=params.sigma2,
            theta_fc=params.theta_fc, theta_fo=params.theta_fo))

        # A stride with no row keeps the clean stride before it (np.interp
        # over no row raised ValueError before the kernel).
        if kind == 0 and i2 > i0:
            pct = (t[i0:i2] - fc.t_ms) / duration
            self.prev_clean = ShankByPercentGC(
                PCT_GRID, np.interp(PCT_GRID, pct, sk[i0:i2]))
            self.prev_duration = duration


# -- world clock -----------------------------------------------------------------

def multiplier(spec: PerturbationSpec, tau: float) -> float:
    """Phase-rate multiplier tau seconds after a perturbation's onset."""
    if tau < 0.0 or tau > 2.0 * spec.ramp_time:
        return 1.0
    tri = (tau / spec.ramp_time if tau <= spec.ramp_time
           else (2.0 * spec.ramp_time - tau) / spec.ramp_time)
    if spec.kind is PerturbationKind.FORWARD:
        return 1.0 + spec.magnitude * tri
    return 1.0 - spec.magnitude * tri


def reference_clock(world: GaitWorld, dt: float, n: int) -> dict:
    """The clock of n ticks from a world's state, one tick at a time, as the
    scalar loop computed it: the columns by name, and "sway", the (tick,
    sway, sway rate) rows of the backward sway windows. The world is left
    as it was."""
    tmpl, ramp = world.tmpl, world.ramp
    perturbations, done = dict(world.perturbations), set()
    sway_w, sway_a = SWAY_WINDOW_S, SWAY_DEG
    t_s, phase, scale = world.t_s, world.phase, world.scale
    ramp_scale, pert = world._ramp_scale, world._pert_active
    stride, migration = world.state.stride_index, world.state.migration
    cols = {k: [] for k in ("t_s", "walking", "phase", "scale", "stride",
                            "migration", "perturb_kind")}
    sway_rows = []
    for i in range(n):
        t_s += dt
        walking = t_s >= world.standing_s
        if walking:
            if ramp is not None and stride >= ramp.start_stride:
                target = (ramp.low_scale if stride < ramp.start_stride
                          + ramp.hold_strides else 1.0)
                if ramp_scale < target:
                    ramp_scale = min(target,
                                     ramp_scale + ramp.rate_per_s * dt)
                elif ramp_scale > target:
                    ramp_scale = max(target,
                                     ramp_scale - ramp.rate_per_s * dt)
            scale = ramp_scale
            if pert is not None:
                spec, t0 = pert
                window = 2.0 * spec.ramp_time
                if spec.kind is PerturbationKind.BACKWARD:
                    window = max(window, sway_w)
                if t_s - t0 > window:
                    pert = None
                else:
                    scale *= multiplier(spec, t_s - t0)
            phase += dt * scale / tmpl.period
            if phase >= 1.0:
                phase -= 1.0
                stride += 1
                migration = MIG_MAX * (
                    1.0 - math.exp(-stride / MIG_STRIDE_TAU))
            spec = perturbations.get(stride)
            if (spec is not None and pert is None and stride not in done
                    and phase >= spec.onset_pct_gc):
                pert = (spec, t_s)
                done.add(stride)
            if pert is not None and pert[0].kind is PerturbationKind.BACKWARD:
                tau = t_s - pert[1]
                if tau <= sway_w:
                    sway_rows.append((
                        i, -sway_a * math.sin(math.pi * tau / sway_w) ** 2,
                        -sway_a * math.pi / sway_w
                        * math.sin(2.0 * math.pi * tau / sway_w)))
        for name, value in zip(cols, (t_s, walking, phase, scale, stride,
                                      migration, CODE[pert and pert[0].kind])):
            cols[name].append(value)
    return dict(cols, sway=sway_rows)


def reference_frames(tmpl: GaitTemplate,
                     ref: dict) -> tuple[np.ndarray, np.ndarray]:
    """(frames, bio) of the reference clock from the scalar curves."""
    n = len(ref["t_s"])
    frames, bio = np.zeros((n, 6)), np.zeros(n)
    for i, (walking, phase, scale) in enumerate(zip(
            ref["walking"], ref["phase"], ref["scale"])):
        if walking:
            frames[i] = gen_frame(tmpl, phase, scale)[1:]
            bio[i] = biological_torque(tmpl, phase)
    for i, sway, rate in ref["sway"]:
        frames[i, 1:3] += sway
        frames[i, 4:6] += rate
    return frames, bio


# -- controller, one tick per call -----------------------------------------------

MODE_CODE = {m: i for i, m in enumerate(ControlMode)}


class TickController(Controller):
    """The controller one tick per call, every value read from and written
    to `ControllerState` on every tick: the per-tick bodies `Controller.run`
    replaced, whose only log message is the safety abort's line, tested in
    full on every tick. v_max is the motor envelope (mm/s)
    that clips its commands, as the cable's clips `run`'s. It holds the
    logged desired force of the last tick in f_des: the profile force on
    stance ticks with params, reset to 0 by the foot-off that leaves
    stance."""

    def __init__(self, config: ControllerConfig, tendon: TendonModel,
                 v_max: float = PlantConfig.v_max):
        super().__init__(config, tendon)
        self.v_max = v_max
        self.f_des = 0.0

    def on_event(self, event: GaitEvent,
                 new_params: Optional[GaussianParams] = None) -> None:
        swing = self.state.mode is ControlMode.SWING
        super().on_event(event, new_params)
        if not swing and self.state.mode is ControlMode.SWING:
            self.f_des = 0.0

    def tick(self, theta_sk: float, theta_df: float, theta_sk_rate: float,
             theta_df_rate: float, f_meas: float, l_meas: float,
             l_meas_rate: float, motor_pos: float, dt: float) -> float:
        st = self.state
        st.last_theta_df = theta_df
        was_aborted = st.aborted
        finite = math.isfinite(f_meas + l_meas + l_meas_rate + motor_pos
                               + theta_sk + theta_df + theta_sk_rate
                               + theta_df_rate)
        cfg, tendon = self.cfg, self.tendon
        if not was_aborted:
            # The load cell against the tendon model, in silent walking,
            # swing and a stance with params.
            model = max(0.0, tendon.k_all * (
                tendon.lever_arm_r * math.radians(theta_df)
                + (tendon.baseline_c - tendon.delta_l1) - l_meas))
            checked = (st.mode in (ControlMode.SILENT, ControlMode.SWING)
                       or (st.mode is ControlMode.STANCE
                           and st.active_params is not None))
            if checked and abs(model - f_meas) > cfg.load_cell_residual:
                st.residual_ticks += 1
            else:
                st.residual_ticks = 0
        lim = cfg.position_limit_mm
        limit = (f_meas > cfg.force_ceiling or motor_pos > lim
                 or motor_pos < -lim)
        if (was_aborted or not finite or limit
                or st.residual_ticks >= RESIDUAL_TICKS):
            st.aborted = True
            if was_aborted:
                pass
            elif not finite:
                log.error("safety abort: non-finite input (f, l, rate, "
                          "pos)=%r (sk, df, sk rate, df rate)=%r",
                          (f_meas, l_meas, l_meas_rate, motor_pos),
                          (theta_sk, theta_df, theta_sk_rate, theta_df_rate))
            elif limit:
                log.error("safety abort: f=%.1f N pos=%.1f mm", f_meas,
                          motor_pos)
            else:       # the load cell's residual
                log.error("safety abort: load cell f=%.1f N against the "
                          "tendon model's %.1f N for %d ticks", f_meas,
                          model, RESIDUAL_TICKS)
            if st.mode is ControlMode.STANCE and st.active_params:
                self.f_des = eval_force(st.active_params, theta_sk)
            return self._tick_abort(l_meas)
        mode = st.mode
        if mode is ControlMode.PRETIGHTEN:
            return self._tick_pretighten(theta_df, f_meas, l_meas)
        if mode is ControlMode.SILENT:
            return self._pi_toward(st.release_target, l_meas, l_meas_rate, dt)
        if mode is ControlMode.SWING:
            return self.tick_swing(l_meas, l_meas_rate, dt, f_meas)
        return self.tick_stance(theta_sk, theta_df, theta_sk_rate,
                                theta_df_rate, f_meas, l_meas, dt)

    def tick_swing(self, l_meas: float, l_meas_rate: float, dt: float,
                   f_meas: float = 0.0) -> float:
        st = self.state
        if f_meas > st.f_swing_max:
            st.f_swing_max = f_meas
        return self._pi_toward(st.l_swing, l_meas, l_meas_rate, dt)

    def tick_stance(self, theta_sk: float, theta_df: float,
                    theta_sk_rate: float, theta_df_rate: float, f_meas: float,
                    l_meas: float, dt: float) -> float:
        st = self.state
        cfg = self.cfg
        p = st.active_params
        if p is None:
            return 0.0
        f_des, f_rate = eval_force_and_rate(p, theta_sk, theta_sk_rate)
        self.f_des = f_des
        l_des = tendon_length(self.tendon, theta_df, f_des)
        if not st.engaged:
            if f_meas >= ENGAGE_FORCE:
                st.engaged = True
                estimate_migration(self.tendon, l_meas, theta_df, f_meas)
            else:
                gap = l_meas - l_des
                return max(PROBE_RATE,
                           min(TIGHTEN_GAIN * (gap - PROBE_MARGIN_MM)
                               + PROBE_RATE, self.v_max))
        v_fb = self._feedback_velocity(f_des - f_meas, dt)
        v_ff = (self.tendon.lever_arm_r * math.radians(theta_df_rate)
                - f_rate / self.tendon.k_all)
        v = v_fb - v_ff
        if theta_sk <= p.mu:
            if f_des < 0.25 * p.amp:
                v -= min(100.0, 25.0 * max(0.0, f_meas - f_des - 1.0))
        elif f_des < TAIL_RELEASE_FORCE and f_meas > 1.0:
            v -= TAIL_RELEASE_RATE
        return self._clamp(v)

    def _feedback_velocity(self, force_error: float, dt: float) -> float:
        """1/(M s + B) by backward Euler; M = 0 degenerates to 1/B."""
        cfg = self.cfg
        if cfg.map_m <= 0.0:
            self.state.v_fb_state = force_error / cfg.map_b
        else:
            self.state.v_fb_state = ((cfg.map_m * self.state.v_fb_state
                                      + dt * force_error)
                                     / (cfg.map_m + cfg.map_b * dt))
        return self.state.v_fb_state

    def _pi_toward(self, target_l: float, l_meas: float, l_meas_rate: float,
                   dt: float) -> float:
        st = self.state
        cfg = self.cfg
        e = target_l - l_meas
        ic = cfg.integral_clamp
        i = st.e_l_integral + e * dt
        i = i if i < ic else ic                      # min(ic, i)
        st.e_l_integral = i = i if i > -ic else -ic  # max(-ic, .)
        v = -(cfg.kp * e + cfg.ki * i - cfg.kd * l_meas_rate)
        return self._clamp(v)

    def _tick_pretighten(self, theta_df: float, f_meas: float,
                         l_meas: float) -> float:
        st = self.state
        cfg = self.cfg
        if f_meas < cfg.pretighten_force:
            return cfg.pretighten_rate
        self.tendon.baseline_c = (l_meas + f_meas / self.tendon.k_all
                                  - self.tendon.lever_arm_r
                                  * math.radians(theta_df))
        st.release_target = l_meas + RELEASE_SLACK_MM
        st.mode = ControlMode.SILENT
        return 0.0

    def _tick_abort(self, l_meas: float) -> float:
        if l_meas < self.state.release_target - 0.5:
            return -self.v_max
        return 0.0

    def _clamp(self, v: float) -> float:
        """The command envelope; NaN becomes a hold (zero)."""
        if v != v:
            return 0.0
        vm = self.v_max
        v = v if v < vm else vm
        return v if v > -vm else -vm


def reference_cable_step(state: PlantState, cmd_v: float, l_free: float,
                         z: Optional[float], config: PlantConfig,
                         tendon_truth: TendonModel, dt: float) -> tuple:
    """The cable one tick at a time with builtin max/min clamps: the
    reference of `Controller.run`'s cable lines. Advances state under the
    command at the tick's zero-force length l_free (mm), with the load-cell
    noise draw z (None: noiseless readings), and returns (f_truth, f_meas,
    l_cable, l_rate, motor_pos)."""
    v_target = max(-config.v_max, min(config.v_max, cmd_v))
    alpha = 1.0 - math.exp(-dt / config.motor_tau_s)
    state.motor_v += alpha * (v_target - state.motor_v)
    state.l_cable -= state.motor_v * dt
    force = max(0.0, tendon_truth.k_all * (l_free - state.l_cable))
    f_meas = force
    if z is not None and config.force_noise_sd > 0.0:
        f_meas = max(0.0, force + config.force_noise_sd * z)
    return (force, f_meas, state.l_cable, -state.motor_v,
            (config.baseline_c + INITIAL_SLACK_MM) - state.l_cable)


def reference_run(ctrl: TickController, ticks, step, reading, dt, log_row):
    """`Controller.run` one `tick` call per tick, with the cable a separate
    step: the loop the harness ran before the cable joined `run`. Each tick
    is (theta_sk, theta_df, theta_sk_rate, theta_df_rate, *cable_inputs),
    and step(v, *cable_inputs) returns (f_truth, f_meas, l_meas, l_rate,
    motor_pos)."""
    f_meas, l_meas, l_rate, pos = reading
    st = ctrl.state
    for sk, df, sk_rate, df_rate, *cable_inputs in ticks:
        v = ctrl.tick(sk, df, sk_rate, df_rate, f_meas, l_meas, l_rate, pos,
                      dt)
        f_truth, f_meas, l_meas, l_rate, pos = step(v, *cable_inputs)
        log_row((ABORT_CODE if st.aborted else MODE_CODE[st.mode],
                 ctrl.f_des, f_meas, f_truth, l_meas, v))
    return f_meas, l_meas, l_rate, pos


def loop_cable(state: PlantState, tendon_truth: TendonModel,
               config: PlantConfig, dt: float):
    """step(cmd_v, l_free, noise=0.0) -> (f_truth, f_meas, l_cable, l_rate,
    motor_pos, v): one tick of `Controller.run`'s cable lines at the
    zero-force length l_free (mm) with the load-cell noise (N) added, under
    the command v it logged. The command comes from a controller held in
    pretighten, which commands its pretighten_rate, cmd_v as given (NaN and
    infinities included), while the force stays below pretighten_force
    (inf) and no limit (inf) is crossed. A reading the cable state gives
    that is not finite trips the guard instead, and the tick runs under the
    abort's command; the next step starts unaborted. Not a reference: it
    runs the loop's cable alone, for tests of the cable."""
    cable = bind_cable(state, tendon_truth, config, dt)
    ctrl = Controller(ControllerConfig(pretighten_force=math.inf,
                                       force_ceiling=math.inf,
                                       position_limit_mm=math.inf),
                      replace(tendon_truth))

    def step(cmd_v: float, l_free: float, noise: float = 0.0) -> tuple:
        ctrl.cfg.pretighten_rate = cmd_v
        ctrl.state.aborted = False
        row = ctrl.run(block_cols(free_length=l_free, noise=noise),
                       cable)[0].tolist()
        return (row[3], *cable_reading(cable), row[5])
    return step


def block_cols(**rows) -> np.ndarray:
    """The (9, 1) columns (`plant.Row`) of one world-block tick whose named
    rows hold the given values, every other row 0.0: the open-loop inputs
    `Controller.run` takes."""
    cols = np.zeros((len(Row), 1))
    for name, values in rows.items():
        cols[Row[name]] = values
    return cols


def cable_reading(cable: Cable) -> tuple:
    """The reading the cable's state gives: (f_meas, l_meas, l_rate,
    motor_pos)."""
    state = cable.state
    return (state.f_meas, state.l_cable, -state.motor_v,
            cable.pos_ref - state.l_cable)


def tick_row(ctrl: Controller, theta_sk: float, theta_df: float,
             theta_sk_rate: float, theta_df_rate: float, f_meas: float,
             l_meas: float, l_meas_rate: float, motor_pos: float,
             dt: float, v_max: float = PlantConfig.v_max) -> list:
    """`Controller.run` over one tick, from its shank and DF angles (deg)
    and rates (deg/s) and the cable reading, under the motor envelope v_max
    (mm/s): the tick's log row (mode code, f_des, f_meas, f_truth, l_meas,
    v), the one row of the stretch's array as a list of floats, whose v,
    row[5], is the velocity command in mm/s (positive
    retracts). The reading is a cable's state: the load cell at f_meas,
    the length l_meas and the motor velocity -l_meas_rate, with the motor
    position's reference at l_meas + motor_pos, so the tick reads the
    position (l_meas + motor_pos) - l_meas, which is motor_pos wherever
    the sum is exact. The cable has no stiffness, its motor does not move,
    and nothing reads it. Not a reference: it shows tests a tick's command
    and logged desired force."""
    return ctrl.run(block_cols(theta_sk=theta_sk, theta_df=theta_df,
                               theta_sk_rate=theta_sk_rate,
                               theta_df_rate=theta_df_rate),
                    Cable(PlantState(l_meas, -l_meas_rate, f_meas), dt, 0.0,
                          v_max, 0.0, l_meas + motor_pos))[0].tolist()


# -- event detector --------------------------------------------------------------

class ReferenceDetector(EventDetector):
    """`EventDetector` with the per-sample update it had before: the
    foot-off gate fc_t_ms + fo_gate_fraction * stance duration is
    evaluated on every stance sample. A sample whose time, or whose channel
    the mode reads, is not finite is skipped."""

    def update(self, sample: KinematicSample) -> Optional[GaitEvent]:
        cfg = self.config
        if not self._refractory_until <= sample.t_ms < math.inf:
            return None
        if self.mode is GaitPhase.SWING:
            value = sample.theta_ft
            if not math.isfinite(value):
                return None
            if self._ext_value is None or value > self._ext_value:
                self._ext_value = value
                self._ext_t = sample.t_ms
            elif self._ext_value - value >= cfg.delta_ang:
                event = GaitEvent(GaitEventKind.FOOT_CONTACT, self._ext_t, self.gc_count)
                self.gc_count += 1
                self.fc_t_ms = self._ext_t
                self._enter(GaitPhase.STANCE, sample.t_ms)
                return event
        else:
            if (self._stance_dur is not None and sample.t_ms < self.fc_t_ms
                    + cfg.fo_gate_fraction * self._stance_dur):
                return None
            rate = sample.theta_ft_rate
            if not math.isfinite(rate):
                return None
            if not self._armed:
                if rate < self.fo_arm_threshold:
                    self._armed = True
                    self._ext_value = rate
                    self._ext_t = sample.t_ms
                return None
            if rate < self._ext_value:
                self._ext_value = rate
                self._ext_t = sample.t_ms
            elif rate - self._ext_value >= cfg.delta_vel:
                event = GaitEvent(GaitEventKind.FOOT_OFF, self._ext_t, self.gc_count - 1)
                self.fo_arm_threshold = min(cfg.fo_arm_cap,
                                            cfg.fo_arm_fraction * self._ext_value)
                self._stance_dur = self._ext_t - self.fc_t_ms
                self._enter(GaitPhase.SWING, sample.t_ms)
                return event
        return None


# -- replay stream reader --------------------------------------------------------

class NonFiniteInput(SignalQualityError):
    """A non-finite angle or rate; the reader names the row's line."""


def derive_df(theta_sk: float, theta_ft: float,
              theta_sk_rate: float, theta_ft_rate: float) -> tuple[float, float]:
    """The ankle DF angle and rate from the shank and foot channels; an
    input, or a difference that overflows, that is not finite raises."""
    df, df_rate = theta_sk - theta_ft, theta_sk_rate - theta_ft_rate
    for v in (theta_sk, theta_ft, theta_sk_rate, theta_ft_rate, df, df_rate):
        if not math.isfinite(v):
            raise NonFiniteInput(f"non-finite kinematic input: {v!r}")
    return df, df_rate


def from_imu(t_ms: float, theta_ft: float, theta_sk: float,
             theta_ft_rate: float, theta_sk_rate: float) -> KinematicSample:
    df, df_rate = derive_df(theta_sk, theta_ft, theta_sk_rate, theta_ft_rate)
    return KinematicSample(t_ms, theta_ft, theta_sk, df, theta_ft_rate,
                           theta_sk_rate, df_rate)


class StreamConditioner:
    """Gap-checks a raw 100 Hz kinematic stream, one row at a time.

    Tolerates up to MAX_GAP_SAMPLES - 1 missing samples by linear
    extrapolation from the last two rows, and rejects longer gaps with
    SignalLossError and non-increasing timestamps with SignalQualityError.
    """

    def __init__(self):
        self._last: Optional[KinematicSample] = None
        self._prev: Optional[KinematicSample] = None

    def feed(self, t_ms: float, theta_ft: float, theta_sk: float,
             theta_ft_rate: float, theta_sk_rate: float) -> list[KinematicSample]:
        """Returns the sample, preceded by any extrapolated fill."""
        out: list[KinematicSample] = []
        if self._last is not None:
            steps = (t_ms - self._last.t_ms) / IMU_PERIOD_MS
            # A step past the float range is a gap of inf samples, or -inf.
            gap = round(steps) if math.isfinite(steps) else steps
            if gap < 1:
                raise SignalQualityError(
                    f"non-increasing stream timestamp at t={t_ms} ms")
            if gap > MAX_GAP_SAMPLES:
                raise SignalLossError(
                    f"kinematic stream gap of {gap} samples at t={t_ms} ms")
            for k in range(1, gap):
                out.append(self._extrapolate(k))
        sample = from_imu(t_ms, theta_ft, theta_sk, theta_ft_rate, theta_sk_rate)
        self._prev = self._last
        self._last = sample
        out.append(sample)
        return out

    def _extrapolate(self, steps_ahead: int) -> KinematicSample:
        last, prev = self._last, self._prev
        t = last.t_ms + steps_ahead * IMU_PERIOD_MS
        if prev is None:
            return from_imu(t, last.theta_ft, last.theta_sk,
                            last.theta_ft_rate, last.theta_sk_rate)
        h = steps_ahead
        ft = last.theta_ft + h * (last.theta_ft - prev.theta_ft)
        sk = last.theta_sk + h * (last.theta_sk - prev.theta_sk)
        ft_r = last.theta_ft_rate + h * (last.theta_ft_rate - prev.theta_ft_rate)
        sk_r = last.theta_sk_rate + h * (last.theta_sk_rate - prev.theta_sk_rate)
        return from_imu(t, ft, sk, ft_r, sk_r)


def reference_read_replay_csv(path):
    """`read_replay_csv` one row at a time: csv.reader, float() and
    `StreamConditioner`; a csv error and a non-finite angle or rate are a
    SignalQualityError naming the line."""
    cond = StreamConditioner()
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            yield from _reference_rows(reader, cond)
        except csv.Error as exc:
            raise SignalQualityError(f"replay line {reader.line_num}: "
                                     f"{exc}") from None


def _reference_rows(reader, cond):
    """The samples of the rows after the checked header, row by row."""
    header = next(reader, [])     # [] for an empty file
    if [h.strip() for h in header] != REPLAY_HEADER:
        raise SignalQualityError(f"unexpected replay header: {header}")
    for row in reader:
        try:
            t, ft, sk, ft_r, sk_r = (float(x) for x in row)
        except ValueError as exc:
            raise SignalQualityError(f"replay line {reader.line_num}: "
                                     f"not 5 numbers: {row}") from exc
        if not math.isfinite(t):
            raise SignalQualityError(f"replay line {reader.line_num}: "
                                     f"non-finite timestamp t_ms={t!r}")
        try:
            samples = cond.feed(t, ft, sk, ft_r, sk_r)
        except NonFiniteInput as exc:    # the row's or a fill before it
            raise SignalQualityError(f"replay line {reader.line_num}: "
                                     f"{exc}") from None
        yield from samples
