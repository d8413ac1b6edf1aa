"""Scenario runs: the scenario config and the deterministic two-rate run.

The control path ticks at 1 kHz; the estimation path (profile.EstimationPath:
event detection, stance windowing, per-stride updates from profile.INITIAL_*)
reads one tick per gait_signals.IMU_PERIOD_MS. Parameters reach the
controller only at foot-contact ticks. Runs are fully determined by the
scenario config and seed.

A config is checked before it runs: each field and override against the
interval its dataclass field declares (`plant.check_fields`), then across
fields: the profile peak against the force ceiling here, the template's in
`plant.build_template`, and the strides the scenario's protocol needs in
the run.

Only the controller and the cable form a closed loop; the gait world and
the estimation path never read cable state. So a run advances the world one
block at a time (plant.BLOCK_TICKS ticks, `GaitWorld.advance_block`), whose
clock is accumulated in bulk, and makes two passes over each block:

1. Open loop: the estimation path over the sample rows of the block's
   columns (`plant.WorldBlock.cols`) at its IMU ticks (every imu_every-th
   tick of the run while walking), taken in one copy, one call a gait
   event (`EstimationPath.run`). It records a schedule of (tick offset,
   event, params adopted at foot contact). Foot contact n_strides lowers
   the run's stop tick to its confirmation + 20 ticks, and no IMU tick at
   or past the stop tick is fed. The fault spike, when its tick
   (fault_spike_t_ms rounded to whole ms) is among the block's ticks up to
   the stop tick, joins the schedule as an entry without an event; a
   spike that no block held logs one warning at the end of the run.
2. Closed loop: the block's ticks up to the stop tick, one stretch between
   schedule entries at a time (`Controller.run`, which reads a view of the
   block's columns in place). Each entry is applied before its tick's
   command: an event reaches `Controller.on_event`, and the spike adds
   fault_spike_n to the load cell's reading in the cable's state
   (`PlantState.f_meas`), which that tick's command sees until the tick's
   cable step takes the next reading.

The block may run past the end of the run; the extra ticks are never
logged. If the tick bound comes before foot contact n_strides, the run
raises SignalLossError rather than report fewer strides.

The run log (artifacts.LOG_COLUMNS) takes the loop's columns from the rows
`Controller.run` returns, the others from the world block, cut to the
ticks the loop ran, and the stride column between scheduled events. The
run never holds its whole log. One buffer, reused by every block, holds
the rows from the oldest foot contact whose stride is not yet reported
(all rows before the first contact is detected) and the block's rows
after them. It grows only when a stride outlasts its room, a block and
the tick bound's allowance of a stride, so a run's memory does not grow
with its length.
Once the block's rows are in the buffer they are final:

- the printer process prints them to timeseries.csv (`Artifacts.print`);
- each stride whose next foot contact is detected is reported
  (`metrics._StrideReport`);
- the rows before the oldest unreported foot contact are dropped.

The aggregates come at the end (`metrics._build_report`), and
`write_artifacts` writes summary.json and puts both artifacts in place.
"""

from __future__ import annotations

import logging
from bisect import insort
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from operator import itemgetter
from typing import Optional

import numpy as np

from .artifacts import LOG_COLUMNS, Artifacts, write_artifacts
from .controller import Controller, ControllerConfig
from .gait_signals import (IMU_PERIOD_MS, GaitEvent, GaitEventKind,
                           SignalLossError)
from .metrics import (AGGREGATION_STRIDES, MetricsReport, _build_report,
                      _StrideReport)
from .plant import (BLOCK_TICKS, FINITE, FIXED_FIELDS, POSITIVE, Activity,
                    GaitTemplate, GaitWorld, PerturbationKind,
                    PerturbationSpec, PlantConfig, RampSpec, Row,
                    bind_cable, build_template, check_fields, within)
from .profile import EstimationPath, GaussianParams

logger = logging.getLogger(__name__)

# Log columns the closed loop makes, in the order of the columns of the
# rows Controller.run returns, and those copied from the world block,
# in the order _run copies them: the log's clock, the angle rows
# (`plant.Row`) and the clock columns.
_STRIDE = LOG_COLUMNS.index("stride")
_LOOP_COLUMNS = [LOG_COLUMNS.index(c) for c in (
    "mode", "f_des_n", "f_meas_n", "f_truth_n", "l_cable_mm", "v_cmd_mm_s")]
_BLOCK_COLUMNS = [LOG_COLUMNS.index(c) for c in (
    "t_ms", "theta_ft_deg", "theta_sk_deg", "theta_df_deg", "belt_scale",
    "perturb_kind", "bio")]

# Template periods a stride may last: the allowance of the run's tick bound
# and of the log buffer.
_STRIDE_PERIODS = 2.2
N_PERTURBATIONS = 4


class ConfigError(ValueError):
    """Scenario configuration rejected."""


class ScenarioKind(Enum):
    STEADY = "steady"
    PERTURB = "perturb"
    SPEED_RAMP = "speed-ramp"


# -- scenario configuration ----------------------------------------------------

# ScenarioConfig's override groups, the keys of a --config file: each
# group's dataclass and the fields of it that the scenario sets itself.
OVERRIDE_GROUPS = {
    "controller": (ControllerConfig, {}),
    "plant": (PlantConfig, {}),
    "template": (GaitTemplate, FIXED_FIELDS),
}


# How far below the controller's force_ceiling the profile peak must stay.
# The true cable force overshot the peak by at most 1.2 N in 24 runs per
# peak (4 activities x 3 scenarios x 2 seeds, peaks of 200-290 N against
# the 300 N ceiling); a peak of 299 N or more aborted at its first assisted
# stance. The margin covers that overshoot and the load cell's noise.
PEAK_MARGIN_N = 10.0


@dataclass
class ScenarioConfig:
    """A scenario run's settings. Each numeric field declares the values
    it admits (`plant.check_fields`), as do the fields of each override
    group's dataclass."""

    activity: str = "lw"
    scenario: str = "steady"
    n_strides: int = field(default=60, metadata=within(1, low_in=True,
                                                       count=True))
    seed: int = field(default=1, metadata=within(0, low_in=True, count=True))
    amp_fraction: float = field(default=0.15,
                                metadata=within(0.0, 0.5, high_in=True))
    body_weight: float = field(default=700.0, metadata=POSITIVE)     # N
    output_dir: Optional[str] = None
    controller: dict = field(default_factory=dict)
    plant: dict = field(default_factory=dict)
    template: dict = field(default_factory=dict)
    fault_spike_t_ms: Optional[float] = field(default=None, metadata=FINITE)
    # N, added to the load cell's reading; a NaN or infinite reading is a
    # fault to inject too
    fault_spike_n: float = field(default=0.0, metadata=within(finite=False))

    def validate(self) -> None:
        check_fields(ScenarioConfig, {f.name: getattr(self, f.name) for f in
                                      fields(self) if f.metadata}, ConfigError)
        try:
            Activity(self.activity)
        except ValueError as exc:
            raise ConfigError(f"unknown activity {self.activity!r}") from exc
        try:
            ScenarioKind(self.scenario)
        except ValueError as exc:
            raise ConfigError(f"unknown scenario {self.scenario!r}") from exc
        for group, (owner, fixed) in OVERRIDE_GROUPS.items():
            overrides = getattr(self, group)
            if not isinstance(overrides, dict):
                raise ConfigError(f"{group} overrides must be a mapping")
            check_fields(owner, overrides, ConfigError, f"{group}.", fixed)
        peak = self.amp_fraction * self.body_weight
        ceiling = self.controller.get("force_ceiling",
                                      ControllerConfig.force_ceiling)
        if not peak < ceiling - PEAK_MARGIN_N:
            raise ConfigError(
                f"profile peak amp_fraction * body_weight = {peak:g} N is not "
                f"below the force ceiling of {ceiling:g} N minus "
                f"{PEAK_MARGIN_N:g} N")


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
    scenario = ScenarioKind(cfg.scenario)
    tmpl = build_template(cfg.activity, **cfg.template)
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
    current_stride = -1
    bound = stop = int((world.standing_s + (cfg.n_strides + 6)
                        * tmpl.period * _STRIDE_PERIODS) * 1000)
    # The log buffer (see the module docstring).
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
        # Open loop: the IMU ticks are the global ticks that are multiples
        # of imu_every; each event is scheduled at its offset in the block,
        # and only the samples before `stop` are fed.
        schedule = []
        imu = np.arange(-(n_log + 1) % imu_every, n, imu_every)
        imu = imu[block.walking[imu]]
        samples = block.cols[:Row.free_length].take(imu, axis=1)   # C order
        at, limit = 0, int(np.searchsorted(imu, stop - n_log))
        while (hit := estimation.run(samples, at, limit)) is not None:
            at, ev = hit
            i = int(imu[at - 1])
            params = None
            if ev.kind is foot_contact:
                params = estimator.params
                contacts.append(ev)
                adopted.append(params)
                if ev.gc_index >= cfg.n_strides:
                    stop = min(stop, n_log + i + 21)
                    limit = int(np.searchsorted(imu, stop - n_log))
            else:
                foot_offs[ev.gc_index] = ev
            schedule.append((i, ev, params))

        m = min(n, stop - n_log)
        if spike_tick is not None:
            hit = np.flatnonzero(block.t_ms[:m] == spike_tick)
            if len(hit):
                insort(schedule, (int(hit[0]), None, None), key=itemgetter(0))
                spike_tick = None

        # Closed loop: the block's ticks up to `stop`.
        if held + m > len(log):
            log = np.concatenate((log[:held], np.empty((held + m, width))))
        part = log[held:held + m]
        done = 0
        for at, ev, params in [*schedule, (m, None, None)]:
            part[done:at, _LOOP_COLUMNS] = ctrl.run(block.cols[:, done:at],
                                                    cable)
            part[done:at, _STRIDE] = current_stride
            done = at
            if ev is not None:
                if ev.kind is foot_contact:
                    current_stride = ev.gc_index
                ctrl.on_event(ev, new_params=params)
            elif at < m:              # the spike; the entry at m ends the block
                world.state.f_meas += cfg.fault_spike_n
        # The block's own columns, cut to the ticks the loop ran.
        for c, values in zip(_BLOCK_COLUMNS, (
                block.t_ms, *block.cols[Row.theta_ft:Row.theta_ft_rate],
                block.scale, block.perturb_kind, block.bio)):
            part[:, c] = values[:m]
        n_log += m
        held += m
        # The block's rows are final.
        if artifacts is not None:
            artifacts.print(part)
        keep = strides.report(log[:held], contacts, foot_offs, adopted)
        log[:held - keep] = log[keep:held]
        held -= keep
    if spike_tick is not None:
        logger.warning("fault_spike_t_ms = %g misses the run's ticks, which "
                       "end at %d ms", cfg.fault_spike_t_ms, block.t_ms[m - 1])
    if current_stride < cfg.n_strides:
        raise SignalLossError(
            f"tick bound of {bound} reached with {len(adopted)} foot contacts "
            f"confirmed; the run needs {cfg.n_strides + 1}")

    return _build_report(cfg, ctrl_cfg, tmpl, strides.per_stride, adopted,
                         estimator.landmarks, analysis_start,
                         ctrl.state.aborted)
