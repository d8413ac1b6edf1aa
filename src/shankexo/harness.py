"""Scenario runner: deterministic two-rate loop, metrics, and artifacts.

The control path ticks at 1 kHz; one tick per gait_signals.IMU_PERIOD_MS
also runs the estimation path (event detection, stance windowing, per-stride
updates from profile.INITIAL_*). Parameters reach the controller only at
foot-contact ticks. Runs are fully determined by the scenario config and seed.

Only the controller and the cable form a closed loop; the gait world never
reads cable state. So the loop advances the world one block at a time
(plant.BLOCK_TICKS ticks, `GaitWorld.advance_block`) and then walks the
block's columns tick by tick: the 100 Hz estimation on the block's
kinematics, then `Controller.tick` -> `GaitWorld.step_cable`, whose reading
is the controller's input on the next tick. The block may run past the end
of the run; the extra ticks are never logged. A run ends 20 ticks after foot
contact n_strides is confirmed; if its tick bound comes first, it raises
SignalLossError rather than report fewer strides.

The run log is one float64 table with a row per control tick and the
columns of LOG_COLUMNS, written a block at a time into a mapping sized for
the run's tick bound; "block" marks the columns copied from the world
block, the others come from the closed loop:

    t_ms, stride       tick time (whole ms, block); gc_index of the last
                       detected foot contact, -1 before the first
    mode               index into MODES; "abort" once the safety abort latched
    theta_*_deg        truth shank, foot-pitch and DF angles (block)
    f_des_n            desired force (N), 0 outside assisted stance: the
                       controller's own ControllerState.f_des of that tick,
                       or eval_force on an aborted stance tick, where the
                       controller holds without evaluating the profile
    f_meas_n, f_truth_n, l_cable_mm, v_cmd_mm_s
                       plant reading and velocity command (positive retracts)
    belt_scale         phase-rate multiplier of ramps and perturbations (block)
    perturb_kind       0 none, 1 forward, 2 backward perturbation window (block)
    bio                normalized biological ankle torque, 0 while standing
                       (block)

The report slices its columns. timeseries.csv holds the first twelve, the
mode by name, and `perturbed` = (perturb_kind != 0).
"""

from __future__ import annotations

import json
import math
import mmap
import os
from array import array
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .controller import ControlMode, Controller, ControllerConfig
from .gait_signals import (IMU_PERIOD_MS, EventDetector, GaitEvent,
                           GaitEventKind, SignalLossError, WindowAssembler)
from .plant import (BLOCK_TICKS, Activity, GaitWorld, PerturbationKind,
                    PerturbationSpec, PlantConfig, RampSpec, build_template)
from .profile import (INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2,
                      INITIAL_THETA_FC, INITIAL_THETA_FO, GaussianParams,
                      ProfileEstimator, ShankByPercentGC, eval_force,
                      eval_time_profile_array, feature_targets)
from .tendon import TendonModel

LOG_COLUMNS = ("t_ms", "stride", "mode", "theta_sk_deg", "theta_ft_deg",
               "theta_df_deg", "f_des_n", "f_meas_n", "f_truth_n",
               "l_cable_mm", "v_cmd_mm_s", "belt_scale", "perturb_kind", "bio")
MODES = [m.value for m in ControlMode] + ["abort"]
_MODE_INDEX = {m: i for i, m in enumerate(ControlMode)}
_ABORT_INDEX = MODES.index("abort")
CSV_COLUMNS = [*LOG_COLUMNS[:12], "perturbed"]
_CSV_ROW = "%.1f,%d,%s" + ",%.6f" * 9 + ",%d\r\n"

STANCE_GRID_POINTS = 101    # uniform grid the stance correlations resample to
AGGREGATION_STRIDES = 10    # GCs averaged in the aggregates
N_PERTURBATIONS = 4

CONVERGENCE_SENTINEL = -1


class ConfigError(ValueError):
    """Scenario configuration rejected."""


class MetricsError(ValueError):
    """Metric inputs malformed."""


class UndefinedCorrelationError(MetricsError):
    """Pearson correlation undefined (zero variance)."""


class ScenarioKind(Enum):
    STEADY = "steady"
    PERTURB = "perturb"
    SPEED_RAMP = "speed-ramp"


# -- metric primitives --------------------------------------------------------

def rmse_pct(desired: Sequence[float], actual: Sequence[float],
             peak: float) -> float:
    """Root-mean-square tracking error as a fraction of the peak force."""
    if len(desired) == 0 or len(desired) != len(actual):
        raise MetricsError("series must be non-empty and equal length")
    if peak <= 0.0:
        raise MetricsError("peak force must be positive")
    acc = 0.0
    for d, a in zip(desired, actual):
        acc += (d - a) ** 2
    return math.sqrt(acc / len(desired)) / peak


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    n = len(x)
    if n != len(y) or n < 3:
        raise MetricsError("series must be equal length >= 3")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance series")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def stance_correlation(mechanical: Sequence[float],
                       biological: Sequence[float]) -> float:
    """Pearson correlation after normalizing each series by its own maximum."""
    if len(mechanical) != len(biological):
        raise MetricsError("stance series must share one sampling grid")
    m_max = max(mechanical)
    b_max = max(biological)
    if m_max <= 0.0 or b_max <= 0.0:
        raise UndefinedCorrelationError("series without a positive peak")
    return pearson([m / m_max for m in mechanical],
                   [b / b_max for b in biological])


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


def resample_uniform(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear resampling onto STANCE_GRID_POINTS points over [t[0], t[-1]]."""
    grid = np.linspace(t[0], t[-1], STANCE_GRID_POINTS)
    return np.interp(grid, t, y)


# -- scenario configuration ----------------------------------------------------

@dataclass
class ScenarioConfig:
    activity: str = "lw"
    scenario: str = "steady"
    n_strides: int = 60
    seed: int = 1
    amp_fraction: float = 0.15
    body_weight: float = 700.0          # N
    output_dir: Optional[str] = None
    controller: dict = field(default_factory=dict)
    plant: dict = field(default_factory=dict)
    template: dict = field(default_factory=dict)
    fault_spike_t_ms: Optional[float] = None
    fault_spike_n: float = 0.0

    def validate(self) -> None:
        if self.n_strides <= 0:
            raise ConfigError("n_strides must be positive")
        try:
            Activity(self.activity)
        except ValueError as exc:
            raise ConfigError(f"unknown activity {self.activity!r}") from exc
        try:
            ScenarioKind(self.scenario)
        except ValueError as exc:
            raise ConfigError(f"unknown scenario {self.scenario!r}") from exc
        if not 0.0 < self.amp_fraction <= 0.5:
            raise ConfigError("amp_fraction outside (0, 0.5]")
        if self.body_weight <= 0.0:
            raise ConfigError("body_weight must be positive")


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

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "per_stride": [asdict(s) for s in self.per_stride],
            "aggregate": self.aggregate,
            "convergence_stride": self.convergence_stride,
            "aborted": self.aborted,
        }


# -- scenario runner ------------------------------------------------------------

def _schedule_perturbations(rng: np.random.Generator, first: int,
                            last: int) -> list[PerturbationSpec]:
    """Non-consecutive strides, half forward / half backward, fixed onset."""
    if last - first < 2 * N_PERTURBATIONS:
        raise ConfigError("not enough strides for the perturbation protocol")
    while True:
        strides = sorted(rng.choice(np.arange(first, last),
                                    size=N_PERTURBATIONS, replace=False))
        if all(b - a >= 2 for a, b in zip(strides, strides[1:])):
            break
    kinds = [PerturbationKind.FORWARD] * (N_PERTURBATIONS // 2)
    kinds += [PerturbationKind.BACKWARD] * (N_PERTURBATIONS - len(kinds))
    order = rng.permutation(len(kinds))
    return [PerturbationSpec(kind=kinds[int(i)],
                             affected_cycles=frozenset({int(s)}))
            for i, s in zip(order, strides)]


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    cfg.validate()
    activity = Activity(cfg.activity)
    scenario = ScenarioKind(cfg.scenario)
    tmpl = build_template(activity, **cfg.template)
    plant_cfg = PlantConfig(**cfg.plant)
    ctrl_cfg = ControllerConfig(v_max=plant_cfg.v_max, **cfg.controller)
    silent = ctrl_cfg.silent_cycles
    # post-silent, post-convergence; clamped so short runs still report
    analysis_start = min(silent + 12,
                         max(cfg.n_strides - AGGREGATION_STRIDES, silent))

    rng = np.random.default_rng(cfg.seed)
    perturbations: list[PerturbationSpec] = []
    ramp: Optional[RampSpec] = None
    if scenario is ScenarioKind.PERTURB:
        perturbations = _schedule_perturbations(
            rng, first=analysis_start + 2, last=cfg.n_strides - 2)
    elif scenario is ScenarioKind.SPEED_RAMP:
        lo = analysis_start + 2
        hi = max(lo + 1, cfg.n_strides - 14)
        ramp = RampSpec(start_stride=int(rng.integers(lo, hi)))

    world = GaitWorld(tmpl, plant_cfg, seed=cfg.seed,
                      perturbations=perturbations, ramp=ramp)
    model_tendon = TendonModel(plant_cfg.lever_arm_r, plant_cfg.k_all,
                               plant_cfg.baseline_c, 0.0)
    ctrl = Controller(ctrl_cfg, model_tendon)
    amp = cfg.amp_fraction * cfg.body_weight
    estimator = ProfileEstimator(GaussianParams(
        amp, INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2,
        INITIAL_THETA_FC, INITIAL_THETA_FO))
    detector = EventDetector()
    assembler = WindowAssembler()

    dt = 0.001
    imu_every = round(IMU_PERIOD_MS / (dt * 1000.0))   # ticks per IMU sample
    events: list[GaitEvent] = []
    adopted: list[GaussianParams] = []     # params active per stride
    raws: list = []                        # last accepted features per stride
    # The reading of the previous tick is the controller's input.
    f_meas = l_rate = pos = 0.0
    l_meas = world.state.l_cable
    current_stride = -1
    bound = stop = int((world.standing_s + (cfg.n_strides + 6)
                        * tmpl.period * 2.2) * 1000)
    # The log table has room for `bound` rows in an anonymous mapping, filled
    # one block at a time: its pages become resident only as rows are
    # written, and it never moves. A growing array would be reallocated,
    # and copied (twice its size resident) whenever the heap left no room
    # to grow in place.
    width = len(LOG_COLUMNS)
    log = memoryview(mmap.mmap(-1, bound * width * 8)).cast("d")
    n_log = 0
    spike_tick = (None if cfg.fault_spike_t_ms is None
                  else int(round(cfg.fault_spike_t_ms)))
    stance = ControlMode.STANCE
    mode = None          # the mode whose log index is in mode_index
    mode_index = 0
    tick, step_cable = ctrl.tick, world.step_cable
    st = ctrl.state

    k = 0
    while k < stop:
        block = world.advance_block(dt, min(BLOCK_TICKS, stop - k))
        rows = array("d")
        log_row = rows.extend
        for t_ms, kin, walking, migration, scale, kind, bio in zip(
                block.t_ms, block.kin, block.walking, block.migration,
                block.scale, block.perturb_kind, block.bio):
            k += 1
            if k % imu_every == 0 and walking:
                ev = detector.update(kin)
                window = assembler.process(kin, ev)
                if window is not None:
                    estimator.update_from_window(window)
                if ev is not None:
                    events.append(ev)
                    if ev.kind is GaitEventKind.FOOT_CONTACT:
                        current_stride = ev.gc_index
                        adopted.append(estimator.params)
                        raws.append(estimator.last_raw)
                        ctrl.on_event(ev, new_params=estimator.params)
                        if ev.gc_index >= cfg.n_strides:
                            stop = min(stop, k + 20)
                    else:
                        ctrl.on_event(ev)
            f_for_ctrl = f_meas
            if spike_tick is not None and t_ms == spike_tick:
                f_for_ctrl += cfg.fault_spike_n
            v = tick(kin, f_for_ctrl, l_meas, l_rate, pos, dt)
            f_truth, f_meas, l_meas, l_rate, pos = step_cable(
                v, kin, dt, migration)
            if st.mode is not mode:   # Enum hashing is slow; modes change rarely
                mode = st.mode
                mode_index = _MODE_INDEX[mode]
            f_des = 0.0
            if mode is stance and st.active_params:
                # The stance tick left its desired force in st.f_des; an
                # aborted tick skipped the profile, so evaluate it here.
                f_des = (eval_force(st.active_params, kin.theta_sk)
                         if st.aborted else st.f_des)
            log_row((
                t_ms, current_stride,
                _ABORT_INDEX if st.aborted else mode_index,
                kin.theta_sk, kin.theta_ft, kin.theta_df, f_des, f_meas,
                f_truth, l_meas, v, scale, kind, bio))
            if k >= stop:
                break
        log[n_log:n_log + len(rows)] = rows
        n_log += len(rows)
    if current_stride < cfg.n_strides:
        raise SignalLossError(
            f"tick bound of {bound} reached with {len(adopted)} foot contacts "
            f"confirmed; the run needs {cfg.n_strides + 1}")

    table = np.frombuffer(log, count=n_log).reshape(-1, width)
    report = _build_report(cfg, ctrl_cfg, tmpl, table, events, adopted, raws,
                           analysis_start, ctrl.state.aborted)
    if cfg.output_dir:
        write_artifacts(cfg.output_dir, table, report)
    return report


def _build_report(cfg, ctrl_cfg, tmpl, log, events, adopted, raws,
                  analysis_start, aborted) -> MetricsReport:
    col = dict(zip(LOG_COLUMNS, log.T))
    t, sk, bio = col["t_ms"], col["theta_sk_deg"], col["bio"]
    f_des, f_meas, pk = col["f_des_n"], col["f_meas_n"], col["perturb_kind"]

    fcs = [e for e in events if e.kind is GaitEventKind.FOOT_CONTACT]
    fos = {e.gc_index: e for e in events if e.kind is GaitEventKind.FOOT_OFF}
    n_complete = min(len(fcs) - 1, cfg.n_strides)

    per_stride: list[StrideMetrics] = []
    prev_clean: Optional[ShankByPercentGC] = None
    prev_duration: Optional[float] = None
    for n in range(n_complete):
        fc, nxt = fcs[n], fcs[n + 1]
        fo = fos.get(n)
        if fo is None or not (fc.t_ms < fo.t_ms < nxt.t_ms):
            continue
        i0 = int(np.searchsorted(t, fc.t_ms))
        i1 = int(np.searchsorted(t, fo.t_ms, side="right"))
        i2 = int(np.searchsorted(t, nxt.t_ms))
        duration = nxt.t_ms - fc.t_ms
        ratio = (fo.t_ms - fc.t_ms) / duration
        params = adopted[n] if n < len(adopted) else adopted[-1]
        kind = int(pk[i0:i2].max()) if i2 > i0 else 0

        des = f_des[i0:i1]
        mea = f_meas[i0:i1]
        peak = float(des.max()) if len(des) else 0.0
        stride_rmse = (rmse_pct(des, mea, peak) if peak > 1.0 else None)

        r_sk = r_tm = None
        bio_seg = bio[i0:i1]
        if peak > 1.0 and bio_seg.max() > 0.0:
            tt = t[i0:i1]
            mech_g = resample_uniform(tt, des)
            bio_g = resample_uniform(tt, bio_seg)
            try:
                r_sk = stance_correlation(mech_g, bio_g)
            except MetricsError:
                r_sk = None
            if prev_clean is not None and prev_duration:
                ftime = eval_time_profile_array(
                    params, (tt - fc.t_ms) / prev_duration, prev_clean)
                ftime_g = resample_uniform(tt, ftime)
                try:
                    r_tm = stance_correlation(ftime_g, bio_g)
                except MetricsError:
                    r_tm = None

        swing_max = None
        if n + 1 < len(adopted):
            swing = f_meas[int(np.searchsorted(t, fo.t_ms)):i2]
            swing_max = float(swing.max()) if len(swing) else 0.0

        per_stride.append(StrideMetrics(
            stride=n, t_fc_ms=fc.t_ms, stance_ratio=ratio,
            rmse_pct=stride_rmse, pearson_shank=r_sk, pearson_time=r_tm,
            swing_max_force=swing_max, perturbed=kind,
            mu=params.mu, sigma1=params.sigma1, sigma2=params.sigma2,
            theta_fc=params.theta_fc, theta_fo=params.theta_fo))

        if kind == 0:
            pct = (t[i0:i2] - fc.t_ms) / duration
            grid = np.linspace(0.0, 1.0, STANCE_GRID_POINTS)
            prev_clean = ShankByPercentGC(
                list(grid), list(np.interp(grid, pct, sk[i0:i2])))
            prev_duration = duration

    targets = None
    for raw in reversed(raws):
        if raw is not None and raw.ordered:
            s1_t, s2_t, mu_t = feature_targets(raw)
            targets = (mu_t, s1_t, s2_t)
            break
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
        "rmse_pct_mean": _mean([s.rmse_pct for s in block]),
        "rmse_pct_sd": _sd([s.rmse_pct for s in block]),
        "pearson_shank_mean": _mean([s.pearson_shank for s in block]),
        "pearson_shank_sd": _sd([s.pearson_shank for s in block]),
        "pearson_time_mean": _mean([s.pearson_time for s in block]),
        "pearson_time_sd": _sd([s.pearson_time for s in block]),
        "swing_max_force_mean": _mean([s.swing_max_force for s in block]),
        "swing_max_force_sd": _sd([s.swing_max_force for s in block]),
        "stance_ratio_mean": _mean([s.stance_ratio for s in block]),
    }
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
    return sum(vals) / len(vals) if vals else None


def _sd(xs) -> Optional[float]:
    vals = [x for x in xs if x is not None]
    if len(vals) < 2:
        return None
    m = sum(vals) / len(vals)
    return math.sqrt(sum((v - m) ** 2 for v in vals) / (len(vals) - 1))


# -- artifacts -------------------------------------------------------------------

def write_artifacts(out_dir: str, log: np.ndarray,
                    report: MetricsReport) -> None:
    """timeseries.csv from the run log, one row at a time; summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "timeseries.csv"), "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for row in log:
            t, stride, mode, *values, kind, _bio = row.tolist()
            fh.write(_CSV_ROW % (t, stride, MODES[int(mode)], *values,
                                 kind != 0))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
