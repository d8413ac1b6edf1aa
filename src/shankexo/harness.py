"""Scenario runner: deterministic two-rate loop, metrics, and artifacts.

The control path ticks at 1 kHz; the estimation path (profile.EstimationPath:
event detection, stance windowing, per-stride updates from profile.INITIAL_*)
reads one tick per gait_signals.IMU_PERIOD_MS. Parameters reach the
controller only at foot-contact ticks. Runs are fully determined by the
scenario config and seed.

Only the controller and the cable form a closed loop; the gait world and
the estimation path never read cable state. So a run advances the world one
block at a time (plant.BLOCK_TICKS ticks, `GaitWorld.advance_block`), whose
clock is accumulated in bulk, the scalar clock body running only for wrap,
onset, ramp and perturbation ticks, and makes two passes over each block:

1. Open loop: the estimation path over the block's IMU ticks (every
   imu_every-th tick of the run while walking), the only ticks whose
   KinematicSample the block builds. It records a schedule of (tick
   offset, event, params adopted at foot contact). Foot contact n_strides
   lowers the run's stop tick to its confirmation + 20 ticks, and no IMU
   tick past the stop tick is fed.
   The fault spike, when its tick (fault_spike_t_ms rounded to whole ms)
   is among the block's ticks up to the stop tick, joins the schedule as
   an entry without an event.
2. Closed loop: the block's ticks up to the stop tick. Each schedule entry
   is applied before its tick's command: an event reaches
   `Controller.on_event`, and the spike adds fault_spike_n to the reading
   that tick's command sees, until its cable step takes the next reading.
   Each tick is only `Controller.tick`, the cable step bound once for the
   run (`GaitWorld.cable_step`) and the tick's log row; the cable's reading
   is the controller's input on the next tick. The tick's shank and DF
   angles and rates come from the block's `frames` columns, and its
   migration from the `migration` column, as floats.

The block may run past the end of the run; the extra ticks are never
logged. If the tick bound comes before foot contact n_strides, the run
raises SignalLossError rather than report fewer strides.

The run log is one float64 table with a row per control tick and the
columns of LOG_COLUMNS, in a mapping sized for the run's tick bound. Each
tick appends only the six values the closed loop makes (mode, f_des_n,
f_meas_n, f_truth_n, l_cable_mm, v_cmd_mm_s) to a row buffer; the stride
column is filled between scheduled events. After the block's ticks, numpy
copies move the buffer and the columns the world block already holds,
marked "block" below, into the table, cut to the ticks the loop ran:

    t_ms, stride       tick time (whole ms, block); gc_index of the last
                       detected foot contact, -1 before the first
    mode               index into MODES; "abort" once the safety abort latched
    theta_*_deg        truth shank, foot-pitch and DF angles (block)
    f_des_n            desired force (N), 0 outside assisted stance: the
                       controller's ControllerState.f_des after the tick
    f_meas_n, f_truth_n, l_cable_mm, v_cmd_mm_s
                       plant reading and velocity command (positive retracts)
    belt_scale         phase-rate multiplier of ramps and perturbations (block)
    perturb_kind       0 none, 1 forward, 2 backward perturbation window (block)
    bio                normalized biological ankle torque, 0 while standing
                       (block)

The report slices its columns. timeseries.csv holds the first twelve, the
mode by name, and `perturbed` = (perturb_kind != 0), in the format of
_CSV_ROW: t_ms as %.1f, stride as %d, the nine values as %.6f. The writer
prints plant.BLOCK_TICKS rows at a time with numpy array operations, to
the bytes one `_CSV_ROW %` per row gives (`_csv_rows`, the reference):

- A %.Nf field is n = rint(x * 10**N), printed as the integer part
  n // 10**N (leading zeros dropped) and N fraction digits. The digits come
  from a 10000-entry table of 4-digit ASCII groups, the sign from
  signbit(x), so -0.0 and negatives that round to zero print "-0.000000"
  as `%` does. stride (%d) and the mode index are whole numbers, printed
  as they are.
- `%` rounds the exact binary value of x, half to even. The product
  x * 10**N is off the exact one by at most half its ulp, so rint gives
  the same integer unless a .5 boundary lies within half an ulp of the
  product. Below the budget the ulp is at most 1/64, so every .5 boundary
  is a float on the product's grid: one that the product does not sit on
  lies at least one ulp away, twice the error. The guard takes the half
  ulp, np.spacing(|x * 10**N|) / 2, as the limit: a product that close to
  a .5 boundary, which here means a product that is one, is not printed
  this way.
- A block goes through `_csv_rows` when any of its rows has such a field,
  a non-finite value, a magnitude of 1e8 - 1 or more, a non-integer stride
  or a mode index outside MODES. Both paths give the same bytes; the
  fallback keeps the fast path's cases few enough to prove, and is no
  setting.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from array import array
from bisect import insort
from dataclasses import dataclass, field, fields, asdict, replace
from enum import Enum
from itertools import islice
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .controller import ControlMode, Controller, ControllerConfig
from .gait_signals import (IMU_PERIOD_MS, GaitEvent, GaitEventKind,
                           KinematicSample, SignalLossError)
from .plant import (BLOCK_TICKS, DERIVED_FIELDS, Activity, GaitTemplate,
                    GaitWorld, PerturbationKind, PerturbationSpec, PlantConfig,
                    RampSpec, build_template)
from .profile import (EstimationPath, GaussianParams, ShankByPercentGC,
                      eval_time_profile_array, feature_targets)

LOG_COLUMNS = ("t_ms", "stride", "mode", "theta_sk_deg", "theta_ft_deg",
               "theta_df_deg", "f_des_n", "f_meas_n", "f_truth_n",
               "l_cable_mm", "v_cmd_mm_s", "belt_scale", "perturb_kind", "bio")
MODES = [m.value for m in ControlMode] + ["abort"]
_MODE_INDEX = {m: i for i, m in enumerate(ControlMode)}
_ABORT_INDEX = MODES.index("abort")
CSV_COLUMNS = [*LOG_COLUMNS[:12], "perturbed"]
# Log columns the closed loop makes, in the order of a tick's log row, and
# those copied from the world block, in the order run_scenario copies them.
_STRIDE = LOG_COLUMNS.index("stride")
_LOOP_COLUMNS = [LOG_COLUMNS.index(c) for c in (
    "mode", "f_des_n", "f_meas_n", "f_truth_n", "l_cable_mm", "v_cmd_mm_s")]
_BLOCK_COLUMNS = [LOG_COLUMNS.index(c) for c in (
    "t_ms", "theta_sk_deg", "theta_ft_deg", "theta_df_deg", "belt_scale",
    "perturb_kind", "bio")]
# The columns of a world block's frames that Controller.tick reads, in the
# order of its arguments.
_TICK_FRAMES = [KinematicSample._fields[1:].index(c) for c in (
    "theta_sk", "theta_df", "theta_sk_rate", "theta_df_rate")]
_CSV_ROW = "%.1f,%d,%s" + ",%.6f" * 9 + ",%d\r\n"

# The block printer of timeseries.csv (see the module docstring). A row is
# 13 fields of 17 bytes: t_ms, stride, mode, the nine values, and
# ",<perturbed>\r\n". A numeric field is a separator, a sign, 8 integer
# digits, a decimal point and up to 6 fraction digits. Bytes the line does
# not hold are NUL and are dropped.
_CSV_BUDGET = 1e8 - 1    # |x| below this rounds to at most 8 integer digits
_CSV_SCALE = np.array([10, 1, 1] + [10**6] * 9)   # 10**decimals
# "0000" .. "9999" as four ASCII digits packed in one uint32 each, and the
# same with leading zeros as NUL ("0" keeps its last digit)
_NUMBERS = np.arange(10_000, dtype=np.uint16)[:, None]
_DIGITS = (_NUMBERS // np.array([1000, 100, 10, 1], np.uint16) % 10
           + ord("0")).astype(np.uint8)
_GROUPS = _DIGITS.view(np.uint32).ravel()
_GROUPS_STRIPPED = np.where(_NUMBERS < np.array([1000, 100, 10, 0], np.uint16),
                            np.uint8(0), _DIGITS).view(np.uint32).ravel()
_MODE_FIELDS = np.frombuffer(b"".join(
    ("," + m).encode().ljust(17, b"\0") for m in MODES),
    np.uint8).reshape(len(MODES), 17)
_CSV_TEMPLATE = np.zeros((13, 17), np.uint8)
_CSV_TEMPLATE[1:, 0] = ord(",")
_CSV_TEMPLATE[0, 10] = _CSV_TEMPLATE[3:12, 10] = ord(".")
_CSV_TEMPLATE[12, 2:4] = (ord("\r"), ord("\n"))

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
        if not 0.0 < self.body_weight < math.inf:      # NaN fails it too
            raise ConfigError("body_weight must be positive and finite")
        if not (self.fault_spike_t_ms is None
                or math.isfinite(self.fault_spike_t_ms)):
            raise ConfigError("fault_spike_t_ms must be finite")
        # An override names a field of its dataclass that the scenario does
        # not set itself.
        for group, owner, fixed in (
                ("controller", ControllerConfig, {"v_max": "plant.v_max"}),
                ("plant", PlantConfig, {}),
                ("template", GaitTemplate, {
                    "activity": "activity",
                    **dict.fromkeys(DERIVED_FIELDS, "the stance curves")})):
            known = {f.name for f in fields(owner)}
            for key in getattr(self, group):
                if key in fixed:
                    raise ConfigError(f"{group}.{key} is set from "
                                      f"{fixed[key]}, not overridden")
                if key not in known:
                    raise ConfigError(f"{group}.{key} is not a field of "
                                      f"{owner.__name__}")


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
    ctrl = Controller(ctrl_cfg, replace(world.truth_tendon))
    estimation = EstimationPath(cfg.amp_fraction * cfg.body_weight)
    estimator = estimation.estimator

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
    log = np.frombuffer(mmap.mmap(-1, bound * width * 8)).reshape(-1, width)
    n_log = 0            # ticks run so far; global tick n_log + 1 is next
    spike_tick = (None if cfg.fault_spike_t_ms is None
                  else int(round(cfg.fault_spike_t_ms)))
    foot_contact = GaitEventKind.FOOT_CONTACT
    mode = None          # the mode whose log index is in mode_index
    mode_index = 0
    tick, step_cable = ctrl.tick, world.cable_step(dt)
    st = ctrl.state

    while n_log < stop:
        block = world.advance_block(dt, min(BLOCK_TICKS, stop - n_log))
        n = len(block.kin)
        # Open loop: the estimation path over the block's IMU ticks, the
        # global ticks that are multiples of imu_every, while walking and
        # up to `stop`. Each event is scheduled at its tick's offset in the
        # block with the params a foot contact adopts; foot contact
        # n_strides ends the run 20 ticks after its confirmation.
        schedule = []
        for i in range(-(n_log + 1) % imu_every, n, imu_every):
            if n_log + i >= stop:
                break
            if not block.walking[i]:
                continue
            ev = estimation.feed(block.kin[i])
            if ev is None:
                continue
            events.append(ev)
            params = None
            if ev.kind is foot_contact:
                params = estimator.params
                adopted.append(params)
                raws.append(estimator.last_raw)
                if ev.gc_index >= cfg.n_strides:
                    stop = min(stop, n_log + i + 21)
            schedule.append((i, ev, params))

        m = min(n, stop - n_log)
        # The fault spike is an entry without an event: it adds to the
        # reading its tick's command sees, which that tick's cable step
        # overwrites.
        if spike_tick is not None:
            hit = np.flatnonzero(block.t_ms[:m] == spike_tick)
            if len(hit):
                insort(schedule, (int(hit[0]), None, None), key=itemgetter(0))

        # Closed loop: the block's ticks up to `stop`, each schedule entry
        # applied before its tick's command.
        part = log[n_log:n_log + m]
        rows = array("d")
        log_row = rows.extend
        ticks = zip(*block.frames[:m, _TICK_FRAMES].T.tolist(),
                    block.migration[:m].tolist())
        done = 0
        for at, ev, params in [*schedule, (m, None, None)]:
            for sk, df, sk_rate, df_rate, migration in islice(ticks, at - done):
                v = tick(sk, df, sk_rate, df_rate, f_meas, l_meas, l_rate, pos,
                         dt)
                f_truth, f_meas, l_meas, l_rate, pos = step_cable(
                    v, df, migration)
                if st.mode is not mode:   # Enum hashing is slow; modes change rarely
                    mode = st.mode
                    mode_index = _MODE_INDEX[mode]
                log_row((_ABORT_INDEX if st.aborted else mode_index,
                         st.f_des, f_meas, f_truth, l_meas, v))
            part[done:at, _STRIDE] = current_stride
            done = at
            if ev is not None:
                if ev.kind is foot_contact:
                    current_stride = ev.gc_index
                ctrl.on_event(ev, new_params=params)
            elif at < m:              # the spike; the entry at m ends the block
                f_meas += cfg.fault_spike_n
        # The block's own columns, cut to the ticks the loop ran.
        part[:, _LOOP_COLUMNS] = np.frombuffer(rows).reshape(m, -1)
        ft, sk, df = block.frames[:, :3].T
        for c, values in zip(_BLOCK_COLUMNS, (
                block.t_ms, sk, ft, df, block.scale, block.perturb_kind,
                block.bio)):
            part[:, c] = values[:m]
        n_log += m
    if current_stride < cfg.n_strides:
        raise SignalLossError(
            f"tick bound of {bound} reached with {len(adopted)} foot contacts "
            f"confirmed; the run needs {cfg.n_strides + 1}")

    table = log[:n_log]
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

def _csv_rows(rows: np.ndarray) -> bytes:
    """timeseries.csv lines of log rows, one `_CSV_ROW %` per row."""
    lines = []
    for t, stride, mode, *values, kind, _bio in rows.tolist():
        lines.append(_CSV_ROW % (t, stride, MODES[int(mode)], *values,
                                 kind != 0))
    return "".join(lines).encode()


def _csv_block(rows: np.ndarray) -> bytes:
    """The bytes _csv_rows(rows) returns, from numpy array operations when
    every field of the block can be printed exactly that way."""
    x = rows[:, :12]
    inside = np.abs(x) < _CSV_BUDGET          # False for NaN and infinities
    negative = np.signbit(x)
    negative[:, 1] = x[:, 1] < 0.0            # %d prints -0.0 as 0
    scaled = np.where(inside, x, 0.0)
    scaled *= _CSV_SCALE
    n = np.rint(scaled)
    mode = n[:, 2]
    if not (inside.all() and (scaled[:, 1:3] == n[:, 1:3]).all()
            and (mode >= 0).all() and (mode < len(MODES)).all()
            and (np.abs(np.abs(scaled - n) - 0.5)
                 > np.spacing(np.abs(scaled)) * 0.5).all()):
        return _csv_rows(rows)
    mode = mode.astype(np.intp)
    whole, frac = np.divmod(np.abs(n).astype(np.int64), _CSV_SCALE)
    del scaled, n    # two float blocks fewer at the peak, before the bytes
    hi, lo = np.divmod(whole, 10_000)
    big = hi > 0
    out = np.repeat(_CSV_TEMPLATE[None], len(rows), axis=0)
    out[:, :12, 1] = negative * np.uint8(ord("-"))
    # integer part: two 4-digit groups, leading zeros blank, "0" for 0
    out[:, :12, 2:6] = np.where(big, _GROUPS_STRIPPED[hi], 0)[
        ..., None].view(np.uint8)
    out[:, :12, 6:10] = np.where(big, _GROUPS[lo], _GROUPS_STRIPPED[lo])[
        ..., None].view(np.uint8)
    out[:, 0, 11] = frac[:, 0] + ord("0")     # t_ms: one fraction digit
    out[:, 2] = _MODE_FIELDS[mode]
    frac_hi, frac_lo = np.divmod(frac[:, 3:], 100)    # values: 4 + 2 digits
    out[:, 3:12, 11:15] = _GROUPS[frac_hi][..., None].view(np.uint8)
    out[:, 3:12, 15:17] = _GROUPS[frac_lo][..., None].view(np.uint8)[..., 2:]
    out[:, 12, 1] = np.where(rows[:, 12] != 0.0, ord("1"), ord("0"))
    return out[out != 0].tobytes()


def write_artifacts(out_dir: str, log: np.ndarray,
                    report: MetricsReport) -> None:
    """timeseries.csv from the run log, plant.BLOCK_TICKS rows at a time,
    and summary.json.

    A block's fields are printed from n = rint(x * 10**decimals) through
    4-digit ASCII group tables. The bytes equal one `_CSV_ROW %` per row:
    rint and `%` round alike wherever the product lies farther than half
    its ulp from a .5 boundary. A block holding a non-finite value, a
    magnitude of 1e8 - 1 or more, a non-integer stride or mode index, or a
    product that near a .5 boundary is printed by `_csv_rows` instead (see
    the module docstring).
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "timeseries.csv"), "wb") as fh:
        fh.write((",".join(CSV_COLUMNS) + "\r\n").encode())
        for i in range(0, len(log), BLOCK_TICKS):
            fh.write(_csv_block(log[i:i + BLOCK_TICKS]))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
