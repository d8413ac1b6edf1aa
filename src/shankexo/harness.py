"""Scenario runner: deterministic two-rate loop, metrics, and artifacts.

The control path ticks at 1 kHz; the estimation path (profile.EstimationPath:
event detection, stance windowing, per-stride updates from profile.INITIAL_*)
reads one tick per gait_signals.IMU_PERIOD_MS. Parameters reach the
controller only at foot-contact ticks. Runs are fully determined by the
scenario config and seed.

Only the controller and the cable form a closed loop; the gait world and
the estimation path never read cable state. So a run advances the world one
block at a time (plant.BLOCK_TICKS ticks, `GaitWorld.advance_block`), whose
clock is accumulated in bulk, and makes two passes over each block:

1. Open loop: the estimation path over the block's IMU ticks (every
   imu_every-th tick of the run while walking), whose KinematicSamples the
   pass builds from the block's `t_sample` and `frames` columns, one
   `tolist` per column. It records a schedule of (tick offset, event,
   params adopted at foot contact). Foot contact n_strides lowers the
   run's stop tick to its confirmation + 20 ticks, and no IMU tick past
   the stop tick is fed.
   The fault spike, when its tick (fault_spike_t_ms rounded to whole ms)
   is among the block's ticks up to the stop tick, joins the schedule as
   an entry without an event. The loop's open-loop columns are the
   block's shank and DF angles and rates (`frames`) and the cable's
   zero-force length and load-cell noise (`GaitWorld.cable_columns`).
2. Closed loop: the block's ticks up to the stop tick, one stretch between
   schedule entries at a time. Each entry is applied before its tick's
   command: an event reaches `Controller.on_event`, and the spike adds
   fault_spike_n to the reading that tick's command sees, until the
   tick's cable step takes the next reading. `Controller.run` runs each
   stretch over its columns: it adds the profile and feedforward columns
   of the stretch's params, and its loop body is the controller's
   recurrence and the cable's (over the constants `plant.bind_cable` binds
   once for the run, whose motor envelope is the command's too); the
   cable's reading is the controller's input on the next tick. It hands
   the stretch's loop rows to log_row as one (n, 6) float64 array.

The block may run past the end of the run; the extra ticks are never
logged. If the tick bound comes before foot contact n_strides, the run
raises SignalLossError rather than report fewer strides.

The run log has a row per control tick and the columns of LOG_COLUMNS, as
float64. The closed loop makes six of them (mode, f_des_n, f_meas_n,
f_truth_n, l_cable_mm, v_cmd_mm_s): `Controller.run` keeps the two only
its recurrence makes per tick and derives the others per stretch, each
float with the bits the loop fed back (-0.0 and NaN payloads included;
the integer mode code becomes its float). The block's list of stretch
arrays is concatenated into the log rows once, the stride column is
filled between scheduled events, and numpy copies the columns the world
block already holds, marked "block" below, cut to the ticks the loop ran.

    t_ms, stride       tick time (whole ms, block); gc_index of the last
                       detected foot contact, -1 before the first
    mode               index into MODES; "abort" once the safety abort latched
    theta_*_deg        truth shank, foot-pitch and DF angles (block)
    f_des_n            desired force (N), 0 outside assisted stance: the
                       controller's force column, the profile at the
                       tick's shank angle
    f_meas_n, f_truth_n, l_cable_mm, v_cmd_mm_s
                       plant reading and velocity command (positive retracts)
    belt_scale         phase-rate multiplier of ramps and perturbations (block)
    perturb_kind       0 none, 1 forward, 2 backward perturbation window (block)
    bio                normalized biological ankle torque, 0 while standing
                       (block)

The run never holds its whole log. One buffer, reused by every block, holds
the rows from the oldest foot contact whose stride is not yet reported (all
rows before the first contact is detected) and the block's rows after
them: at most a block and the rows from one foot contact to the
confirmation of the next. It has room for a block and a stride of the tick
bound's allowance and grows only when a stride outlasts that, so a run's
memory does not grow with its length. Once the block's rows are in the
buffer they are final:

- The printer process gets them through a pipe and prints them to
  timeseries.csv, _CSV_CHUNK rows at a time, while the run goes on.
- Each stride n whose foot contact n + 1 is detected is reported
  (`_StrideReport`). It reads only the rows from foot contact n to foot
  contact n + 1 and the shank curve of the last clean stride before it,
  so a report over the whole log would compute the same bits.
- The rows before the oldest unreported foot contact are dropped.

The aggregates and the convergence stride come at the end, from the
per-stride metrics and params (`_build_report`). The artifacts are written
under temporary names in output_dir and renamed into place once both are
complete. timeseries.csv is printed by a printer process that `Artifacts`
forks at the run's start (`os.fork`; the run starts no thread), so the
printing overlaps the run. write_artifacts writes summary.json while the
printer drains, reaps it and only then renames both files. A printer that
fails or is killed fails the run with OSError; a run that raises leaves
neither the files nor their temporaries, nor a process.

The report slices its columns. timeseries.csv holds the first twelve, the
mode by name, and `perturbed` = (perturb_kind != 0), in the format of
_CSV_ROW: t_ms as %.1f, stride as %d, the nine values as %.6f. The printer
process (`_printer`) prints _CSV_CHUNK rows at a time with numpy array
operations, to the bytes one `_CSV_ROW %` per row gives (`_csv_rows`, the
reference), so the bytes do not depend on where chunks are cut:

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
  lies at least one ulp away, twice the error. So the guard is an exact
  tie, |x * 10**N - n| == 0.5 (the difference is exact there): a product
  that is a .5 boundary is not printed this way.
- A chunk goes through `_csv_rows` when any of its rows has such a field,
  a non-finite value, a magnitude of 1e8 - 1 or more, a non-integer stride
  or a mode index outside MODES. Both paths give the same bytes; the
  fallback keeps the fast path's cases few enough to prove, and is no
  setting.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import insort
from contextlib import suppress
from dataclasses import dataclass, field, fields, asdict, replace
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .controller import MODES, Controller, ControllerConfig
from .gait_signals import (IMU_PERIOD_MS, GaitEvent, GaitEventKind,
                           KinematicSample, SignalLossError)
from .plant import (BLOCK_TICKS, DERIVED_FIELDS, Activity, GaitTemplate,
                    GaitWorld, PerturbationKind, PerturbationSpec, PlantConfig,
                    RampSpec, bind_cable, build_template)
from .profile import (EstimationPath, GaussianParams, ShankByPercentGC,
                      eval_time_profile_array, feature_targets)

LOG_COLUMNS = ("t_ms", "stride", "mode", "theta_sk_deg", "theta_ft_deg",
               "theta_df_deg", "f_des_n", "f_meas_n", "f_truth_n",
               "l_cable_mm", "v_cmd_mm_s", "belt_scale", "perturb_kind", "bio")
CSV_COLUMNS = [*LOG_COLUMNS[:12], "perturbed"]
# Log columns the closed loop makes, in the order of the columns of the
# rows Controller.run hands log_row, and those copied from the world block,
# in the order run_scenario copies them.
_STRIDE = LOG_COLUMNS.index("stride")
_LOOP_COLUMNS = [LOG_COLUMNS.index(c) for c in (
    "mode", "f_des_n", "f_meas_n", "f_truth_n", "l_cable_mm", "v_cmd_mm_s")]
_BLOCK_COLUMNS = [LOG_COLUMNS.index(c) for c in (
    "t_ms", "theta_sk_deg", "theta_ft_deg", "theta_df_deg", "belt_scale",
    "perturb_kind", "bio")]
# The columns of a world block's frames that Controller.run reads, in the
# order of a tick's values.
_TICK_FRAMES = [KinematicSample._fields[1:].index(c) for c in (
    "theta_sk", "theta_df", "theta_sk_rate", "theta_df_rate")]
_CSV_ROW = "%.1f,%d,%s" + ",%.6f" * 9 + ",%d\r\n"

# The block printer of timeseries.csv (see the module docstring). A row is
# 13 fields of 17 bytes: t_ms, stride, mode, the nine values, and
# ",<perturbed>\r\n". A numeric field is a separator, a sign, 8 integer
# digits, a decimal point and up to 6 fraction digits. Bytes the line does
# not hold are NUL and are dropped.
_CSV_BUDGET = 1e8 - 1    # |x| below this rounds to at most 8 integer digits
# Rows per printed block, apart from the world's BLOCK_TICKS: the printer's
# temporaries scale with it (4000-row blocks raised long-ramp-artifacts'
# peak RSS by 9 %), and 1000 rows already amortize its calls.
_CSV_CHUNK = 1000
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

# Template periods a stride may last: the allowance of the run's tick bound
# and of the log buffer.
_STRIDE_PERIODS = 2.2
STANCE_GRID_POINTS = 101    # uniform grid the stance correlations resample to
_GRID_STEPS = np.arange(float(STANCE_GRID_POINTS))
_GRID_STEPS.flags.writeable = False
# Percent GC of a clean stride's shank angle (ShankByPercentGC), read-only
_PCT_GRID = np.linspace(0.0, 1.0, STANCE_GRID_POINTS)
_PCT_GRID.flags.writeable = False
AGGREGATION_STRIDES = 10    # GCs averaged in the aggregates
# StrideMetrics fields whose mean and sd the aggregates report, in order
_AGGREGATED = ("rmse_pct", "pearson_shank", "pearson_time", "swing_max_force")
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


# -- scenario configuration ----------------------------------------------------

def _is_number(x) -> bool:
    """A finite int or float, not a bool (JSON reads NaN and Infinity)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _is_int(x) -> bool:
    return _is_number(x) and isinstance(x, int)


# The override value each annotation of an overridable field takes, as a
# description and a test; JSON gives a pair as a list.
_OVERRIDE_TYPES = {
    "float": ("a finite number", _is_number),
    "int": ("an integer", _is_int),
    "tuple[float, float]": ("a pair of finite numbers", lambda x: isinstance(
        x, (list, tuple)) and len(x) == 2 and all(map(_is_number, x))),
}

# The overrides that a value below zero breaks, each with whether zero
# itself is allowed:
# - The run divides by or scales with the tendon model's, the motor lag and
#   the force-to-velocity map gain: zero raises (in TendonModel, bind_cable
#   or mid-run). Zero leaves the motor envelope empty and the pretighten
#   rate still (pretighten never confirms), and a negative value inverts
#   them.
# - A pretighten force of zero or less confirms the tendon baseline on the
#   slack cable, whose reading of 0 is never below it.
# - A negative load-cell noise sd is read as no noise, a negative map
#   inertia as the static map; a negative integral clamp pins the swing
#   integral at the wrong sign, and a negative damping gain drives the
#   swing cable against the shank (a swing peak of 19 N at kd = -1.8).
#   A negative silent_cycles assists as zero does but starts the analysis
#   before the estimate has converged. Zero is each one's own setting: no
#   noise, no inertia, no integral, no damping, no silent strides.
_OVERRIDE_ZERO_ALLOWED = {
    **dict.fromkeys((
        "controller.map_b", "controller.pretighten_rate",
        "controller.pretighten_force", "plant.lever_arm_r", "plant.k_all",
        "plant.baseline_c", "plant.motor_tau_s", "plant.v_max"),
        False),
    **dict.fromkeys((
        "controller.kd", "controller.map_m", "controller.integral_clamp",
        "controller.silent_cycles", "plant.force_noise_sd"), True),
}


# How far below the controller's force_ceiling the profile peak must stay.
# The true cable force overshot the peak by at most 1.2 N in 24 runs per
# peak (4 activities x 3 scenarios x 2 seeds, peaks of 200-290 N against
# the 300 N ceiling); a peak of 299 N or more aborted at its first assisted
# stance. The margin covers that overshoot and the load cell's noise.
PEAK_MARGIN_N = 10.0


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
        for name, low in (("n_strides", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, not "
                                  f"{value!r}")
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
        # An override group is a mapping. An override names a field of its
        # dataclass that the scenario does not set itself, with a value of
        # the field's type.
        for group, owner, fixed in (
                ("controller", ControllerConfig, {}),
                ("plant", PlantConfig, {}),
                ("template", GaitTemplate, {
                    "activity": "activity",
                    **dict.fromkeys(DERIVED_FIELDS, "the stance curves")})):
            overrides = getattr(self, group)
            if not isinstance(overrides, dict):
                raise ConfigError(f"{group} overrides must be a mapping")
            kinds = {f.name: f.type for f in fields(owner)}
            for key, value in overrides.items():
                if key in fixed:
                    raise ConfigError(f"{group}.{key} is set from "
                                      f"{fixed[key]}, not overridden")
                if key not in kinds:
                    raise ConfigError(f"{group}.{key} is not a field of "
                                      f"{owner.__name__}")
                what, fits = _OVERRIDE_TYPES[kinds[key]]
                if not fits(value):
                    raise ConfigError(f"{group}.{key} must be {what}, not "
                                      f"{value!r}")
                zero = _OVERRIDE_ZERO_ALLOWED.get(f"{group}.{key}")
                if zero is not None and not (value >= 0 if zero else value > 0):
                    raise ConfigError(
                        f"{group}.{key} must "
                        f"{'not be negative' if zero else 'be positive'}, "
                        f"not {value!r}")
        peak = self.amp_fraction * self.body_weight
        ceiling = self.controller.get("force_ceiling",
                                      ControllerConfig.force_ceiling)
        if not peak < ceiling - PEAK_MARGIN_N:
            raise ConfigError(
                f"profile peak amp_fraction * body_weight = {peak:g} N is not "
                f"below the force ceiling of {ceiling:g} N minus "
                f"{PEAK_MARGIN_N:g} N")


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
    if not cfg.output_dir:
        return _run(cfg, None)
    with Artifacts(cfg.output_dir) as artifacts:
        report = _run(cfg, artifacts)
        write_artifacts(cfg.output_dir, artifacts, report)
    return report


def _run(cfg: ScenarioConfig, artifacts: Optional[Artifacts]) -> MetricsReport:
    activity = Activity(cfg.activity)
    scenario = ScenarioKind(cfg.scenario)
    tmpl = build_template(activity, **cfg.template)
    plant_cfg = PlantConfig(**cfg.plant)
    ctrl_cfg = ControllerConfig(**cfg.controller)
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
        if lo + RampSpec.hold_strides >= cfg.n_strides:
            raise ConfigError("not enough strides for the speed-ramp protocol")
        hi = max(lo + 1, cfg.n_strides - 14)
        ramp = RampSpec(start_stride=int(rng.integers(lo, hi)))
    if silent >= cfg.n_strides:
        raise ConfigError(f"not enough strides: n_strides = {cfg.n_strides} "
                          f"must exceed controller.silent_cycles = {silent}")

    world = GaitWorld(tmpl, plant_cfg, seed=cfg.seed,
                      perturbations=perturbations, ramp=ramp)
    ctrl = Controller(ctrl_cfg, replace(world.truth_tendon))
    estimation = EstimationPath(cfg.amp_fraction * cfg.body_weight)
    estimator = estimation.estimator

    dt = 0.001
    imu_every = round(IMU_PERIOD_MS / (dt * 1000.0))   # ticks per IMU sample
    contacts: list[GaitEvent] = []         # foot contacts, by gc_index
    foot_offs: dict[int, GaitEvent] = {}   # by gc_index
    adopted: list[GaussianParams] = []     # params active per stride
    strides = _StrideReport(cfg.n_strides)
    # The reading of the previous tick, (f_meas, l_meas, l_meas_rate,
    # motor_pos), is the controller's input.
    reading = (0.0, world.state.l_cable, 0.0, 0.0)
    current_stride = -1
    bound = stop = int((world.standing_s + (cfg.n_strides + 6)
                        * tmpl.period * _STRIDE_PERIODS) * 1000)
    # The log rows from the oldest unreported foot contact on, in one
    # buffer that every block reuses: room for a block and a stride, grown
    # only when a stride outlasts it.
    width = len(LOG_COLUMNS)
    log = np.empty((BLOCK_TICKS + int(tmpl.period * _STRIDE_PERIODS * 1000),
                    width))
    held = 0             # rows in the buffer
    n_log = 0            # ticks run so far; global tick n_log + 1 is next
    spike_tick = (None if cfg.fault_spike_t_ms is None
                  else int(round(cfg.fault_spike_t_ms)))
    foot_contact = GaitEventKind.FOOT_CONTACT
    cable = bind_cable(world.state, world.truth_tendon, plant_cfg, dt)

    while n_log < stop:
        block = world.advance_block(dt, min(BLOCK_TICKS, stop - n_log))
        n = len(block.t_ms)
        # Open loop: the estimation path over the block's IMU ticks, the
        # global ticks that are multiples of imu_every, while walking and
        # up to `stop`. Each event is scheduled at its tick's offset in the
        # block with the params a foot contact adopts; foot contact
        # n_strides ends the run 20 ticks after its confirmation.
        schedule = []
        imu = np.arange(-(n_log + 1) % imu_every, n, imu_every)
        imu = imu[block.walking[imu]]
        samples = map(tuple.__new__, repeat(KinematicSample), zip(
            block.t_sample[imu].tolist(), *block.frames[imu].T.tolist()))
        for i, sample in zip(imu.tolist(), samples):
            if n_log + i >= stop:
                break
            ev = estimation.feed(sample)
            if ev is None:
                continue
            params = None
            if ev.kind is foot_contact:
                params = estimator.params
                contacts.append(ev)
                adopted.append(params)
                if ev.gc_index >= cfg.n_strides:
                    stop = min(stop, n_log + i + 21)
            else:
                foot_offs[ev.gc_index] = ev
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
        if held + m > len(log):
            log = np.concatenate((log[:held], np.empty((held + m, width))))
        part = log[held:held + m]
        rows = []                 # each stretch's (n, 6) loop rows
        log_row = rows.append
        cols = np.concatenate((block.frames[:m, _TICK_FRAMES].T,
                               world.cable_columns(block, m)))
        done = 0
        for at, ev, params in [*schedule, (m, None, None)]:
            reading = ctrl.run(cols[:, done:at], cable, reading, log_row)
            part[done:at, _STRIDE] = current_stride
            done = at
            if ev is not None:
                if ev.kind is foot_contact:
                    current_stride = ev.gc_index
                ctrl.on_event(ev, new_params=params)
            elif at < m:              # the spike; the entry at m ends the block
                reading = (reading[0] + cfg.fault_spike_n, *reading[1:])
        # The block's own columns, cut to the ticks the loop ran.
        part[:, _LOOP_COLUMNS] = np.concatenate(rows)
        ft, sk, df = block.frames[:, :3].T
        for c, values in zip(_BLOCK_COLUMNS, (
                block.t_ms, sk, ft, df, block.scale, block.perturb_kind,
                block.bio)):
            part[:, c] = values[:m]
        n_log += m
        held += m
        # The block's rows are final: print them, report each stride whose
        # next foot contact is known, and keep the rows from the oldest
        # unreported foot contact on.
        if artifacts is not None:
            artifacts.print(part)
        keep = strides.report(log[:held], contacts, foot_offs, adopted)
        log[:held - keep] = log[keep:held]
        held -= keep
    if current_stride < cfg.n_strides:
        raise SignalLossError(
            f"tick bound of {bound} reached with {len(adopted)} foot contacts "
            f"confirmed; the run needs {cfg.n_strides + 1}")

    return _build_report(cfg, ctrl_cfg, tmpl, strides.per_stride, adopted,
                         estimator.landmarks, analysis_start,
                         ctrl.state.aborted)


class _StrideReport:
    """The per-stride metrics, stride by stride as the run passes them.
    Stride n reads only its own log rows, from foot contact n to foot
    contact n + 1, and the shank curve of the last clean stride before it."""

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


def stance_grid(t0: float, t1: float) -> np.ndarray:
    """np.linspace(t0, t1, STANCE_GRID_POINTS), by its own formula for a
    float step (k * ((t1 - t0) / (points - 1)) + t0, the last point t1)
    without its per-call overhead."""
    grid = _GRID_STEPS * ((t1 - t0) / (STANCE_GRID_POINTS - 1))
    grid += t0
    grid[-1] = t1
    return grid


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
            and (np.abs(scaled - n) != 0.5).all()):
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


# An artifact is written under its name plus this suffix and renamed into
# place once the run has finished.
_PARTIAL = ".partial"
_ARTIFACTS = ("timeseries.csv", "summary.json")


class Artifacts:
    """A run's artifact files in out_dir, under temporary names until
    write_artifacts renames them into place.

    timeseries.csv is printed by a printer process that the constructor
    forks, so the printing overlaps the run. The parent creates the
    temporary file first and the printer writes the header and the rows to
    the descriptor it inherits. `print` hands the printer log rows through
    a pipe: per call, the row count as 8 bytes, then the rows as they lie
    in memory, (m, 14) float64 in C order. EOF on the pipe ends the rows.
    The printer keeps only fds 0-2, its pipe end, its status pipe and the
    CSV, so a printer forked later holds no pipe end of this one, and it
    leaves only through os._exit. Its failure comes back as one message on
    the status pipe: a failed or killed printer makes the run raise
    OSError, at the next `print` or in write_artifacts.

    Leaving the `with` block reaps the printer and removes what is still
    under a temporary name, so a run that raises leaves no artifact, no
    temporary file and no process."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        path = os.path.join(out_dir, "timeseries.csv" + _PARTIAL)
        fds = [os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)]
        try:
            fds += os.pipe()
            fds += os.pipe()
            self._pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            os.remove(path)
            raise
        csv, rows_r, self._rows, self._status, status_w = fds
        if self._pid == 0:
            _printer(rows_r, status_w, csv)       # never returns
        for fd in (csv, rows_r, status_w):
            os.close(fd)
        # Room for two blocks in the pipe (Linux; the default is 64 KiB),
        # so a block's hand-over waits for the printer only when it is that
        # far behind.
        import fcntl
        with suppress(AttributeError, OSError):
            fcntl.fcntl(self._rows, fcntl.F_SETPIPE_SZ, 1 << 20)

    def print(self, rows: np.ndarray) -> None:
        """Hand the rows of the run log `rows` to the printer, which adds
        them to timeseries.csv _CSV_CHUNK rows at a time (`_csv_block`, see
        the module docstring)."""
        if not len(rows):
            return
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        try:
            _send(self._rows, len(rows).to_bytes(8, "little"))
            _send(self._rows, memoryview(rows).cast("B"))
        except BrokenPipeError:
            self.wait()        # raises the printer's failure
            raise

    def end_rows(self) -> None:
        """Close the printer's pipe: EOF ends its rows."""
        if self._rows >= 0:
            os.close(self._rows)
            self._rows = -1

    def wait(self) -> None:
        """End the rows and reap the printer; raise OSError if it failed
        or was killed."""
        self.end_rows()
        if not self._pid:
            return
        status = os.waitpid(self._pid, 0)[1]
        self._pid = 0
        with open(self._status, "rb") as fh:
            message = fh.read().decode()
        code = os.waitstatus_to_exitcode(status)
        if message:
            err, _, text = message.partition("\n")
            text = f"timeseries.csv printer: {text}"
            raise OSError(int(err), text) if int(err) else OSError(text)
        if code < 0:
            from signal import Signals
            raise OSError(f"timeseries.csv printer killed by "
                          f"{Signals(-code).name}")
        if code:
            raise OSError(f"timeseries.csv printer exited with {code}")

    def __enter__(self) -> Artifacts:
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            self.wait()
        except OSError:
            if exc_type is None:
                raise        # else the run's own exception goes on
        finally:
            for name in _ARTIFACTS:
                with suppress(FileNotFoundError):
                    os.remove(os.path.join(self.out_dir, name + _PARTIAL))


def _send(fd: int, data) -> None:
    """Write all of `data` to the pipe fd."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _printer(rows_fd: int, status_fd: int, csv_fd: int) -> None:
    """The printer process: print the rows read from rows_fd to csv_fd
    until EOF, report a failure on status_fd as its errno (0 for an error
    without one) and one line, and leave through os._exit."""
    code = 1
    try:
        keep = sorted((rows_fd, status_fd, csv_fd))
        for lo, hi in zip([2, *keep], [*keep, os.sysconf("SC_OPEN_MAX")]):
            os.closerange(lo + 1, hi)
        with open(rows_fd, "rb") as pipe, open(csv_fd, "wb") as csv:
            csv.write((",".join(CSV_COLUMNS) + "\r\n").encode())
            while head := pipe.read(8):
                rows = np.empty((int.from_bytes(head, "little"),
                                 len(LOG_COLUMNS)))
                if pipe.readinto(memoryview(rows).cast("B")) != rows.nbytes:
                    raise EOFError("the rows ended within a block")
                for i in range(0, len(rows), _CSV_CHUNK):
                    csv.write(_csv_block(rows[i:i + _CSV_CHUNK]))
        code = 0
    except BaseException as exc:    # the process ends below either way
        if isinstance(exc, OSError) and exc.errno:
            err, text = exc.errno, exc.strerror
        else:
            err, text = 0, f"{type(exc).__name__}: {exc}"
        with suppress(OSError):
            os.write(status_fd, f"{err}\n{' '.join(text.split())}".encode())
    finally:
        os._exit(code)


def write_artifacts(out_dir: str, artifacts: Artifacts,
                    report: MetricsReport) -> None:
    """Write summary.json while the printer finishes timeseries.csv; once
    it has, rename both into place in out_dir."""
    artifacts.end_rows()
    with open(os.path.join(out_dir, "summary.json" + _PARTIAL), "w") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
    artifacts.wait()
    for name in _ARTIFACTS:
        path = os.path.join(out_dir, name)
        os.replace(path + _PARTIAL, path)
