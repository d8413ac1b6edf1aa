"""Stance/swing control state machine emitting 1 kHz cable velocity commands.

`Controller.run` runs the ticks between two gait events, and with them
the cable plant: the controller and the cable are the only closed loop.
What the loop does not feed back is columns, computed once per block from
the IMU kinematics: the shank and DF angles and rates, and the cable's
zero-force length and load-cell noise (`GaitWorld.cable_columns`). The
recurrence runs in one call per stretch to the loop kernel, `loop.c`,
which `kernel` builds with the system `cc` at import: the stride's
dual-Gaussian profile at each tick's shank angle, its rate and the
feedforward, the safety guard, the feedback filter, the PI, the overshoot
shed, the envelope, the motor lag, the cable length, the force clip and
the noise. Each tick's tier (engaged stance, PI, probe, abort, pretighten
or a stance without params) is derived once before the stretch; in the
kernel the abort, the engage tick and pretighten's confirmation each
change it. The loop's state is the controller's, the cable's
(`plant.PlantState`: its length, motor velocity and load-cell reading)
and the tendon model's rest length, which the engage tick's migration
estimate and the pretighten baseline set; the kernel reads it before the
stretch and writes it back after it, so `on_event` sees the state
tick-by-tick evaluation leaves. The kernel reports the tick of the
engagement, the confirmation and the abort, for the mode flags and the
log lines that `run` sets after the call. The motor envelope is the
cable's (`plant.Cable.v_max`), one value that clips the command, the probe
and the cable, and sets the abort's payout speed.

The safety abort latches on a non-finite input, on a reading past the
force ceiling or the position limit, and on a load cell that disagrees
with the tendon model: where the model's force,
max(0, k_all * (r * radians(df) + baseline_c - delta_l1 - l_meas)), and
the measured one differ by more than `load_cell_residual` for
RESIDUAL_TICKS ticks in a row. That check runs in silent walking, swing
and a stance with params, engaged or probing. The bound's default sits
above how far the model strays on a healthy run: until an engagement
estimates the suit migration, its rest length is off by the migration
(45-51 N in a first probe, after 5 to 11 silent strides), and a noisy
load cell (1 N sd) that engages a slack cable leaves an estimate as far
off (up to 55 N).

Velocity sign convention: positive command = cable retraction = artificial
tendon shortening. The stance command combines force-error feedback mapped
through 1/(M s + B) with a model feedforward equal to the tendon length rate
along the desired-force trajectory; the swing command is PI with damping
injection toward a per-cycle quasi-slack length.

Startup sequencing follows the hardware protocol: pretighten at standing to
confirm the tendon baseline, release, walk silently for the first strides,
then assist. Each assisted stance opens with a tightening sub-phase that
closes the slack gap left by swing and re-estimates suit migration at the
moment the cable first engages.

The desired force the run log shows for a tick is the profile force at
the tick's shank angle in a stance stretch with parameters (engaged,
probing or aborted alike), and 0.0 in any other.
Only `on_event`, between stretches, enters or leaves stance, so a stretch
is one or the other throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import kernel
from .gait_signals import GaitEvent, GaitEventKind
from .plant import FINITE, NOT_NEGATIVE, POSITIVE, Cable
from .profile import GaussianParams
from .tendon import MIGRATION_TOLERANCE_MM, TendonModel, tendon_length

log = logging.getLogger(__name__)


class ControlMode(Enum):
    PRETIGHTEN = "pretighten"
    SILENT = "silent"
    SWING = "swing"
    STANCE = "stance"


# The run log's mode code: the mode's index in ControlMode, and one past the
# last once the safety abort has latched; MODES names each code.
_MODE_CODE = {m: i for i, m in enumerate(ControlMode)}
ABORT_CODE = len(ControlMode)
MODES = [m.value for m in ControlMode] + ["abort"]

# The tiers of the loop body, in loop.c's order: _STANCE engaged stance
# with params, _PI swing or silent, _PROBE stance with params before
# engagement, _ABORT any mode once aborted, _PRETIGHTEN, and _IDLE stance
# without params. The first two are the laws the command envelope clips.
_STANCE, _PI, _PROBE, _ABORT, _PRETIGHTEN, _IDLE = range(6)
# The reasons of the safety abort, in loop.c's order: a non-finite input,
# a reading past the force ceiling or the position limit, and a load cell
# that disagrees with the tendon model.
_NON_FINITE, _LIMIT, _RESIDUAL = range(3)


# The swing target, the silent release, stance entry and the profile's tail:
# the tuned hardware values, fixed.
SWING_TARGET_FORCE = 3.0     # N, peak swing force the l_swing recurrence seeks
RELEASE_SLACK_MM = 20.0      # mm, payout past the baseline for silent walking
TIGHTEN_GAIN = 60.0          # 1/s, per-cycle slack take-up
PROBE_RATE = 80.0            # mm/s, slow retraction until tautness
PROBE_MARGIN_MM = 2.0        # mm, model gap where probing takes over
ENGAGE_FORCE = 2.0           # N, measured force confirming tautness
TAIL_RELEASE_FORCE = 0.5     # N, desired force ending the profile
TAIL_RELEASE_RATE = 40.0     # mm/s, extra payout after the profile ends
RESIDUAL_TICKS = 5           # ticks in a row past load_cell_residual


@dataclass
class ControllerConfig:
    """Control gains and safety limits: the controller values a run's
    config may override. Defaults follow the tuned hardware values; each
    field's metadata declares the values it admits, and where zero is
    admitted it is the field's own setting (no damping, the static map, no
    silent stride, no integral). The swing target, the silent release, the
    probe, the engagement and the tail release are the module constants
    above."""

    kp: float = field(default=23.0, metadata=FINITE)        # 1/s
    ki: float = field(default=1e-4, metadata=FINITE)        # 1/s^2
    # unitless damping injection; a negative gain drives the swing cable
    # against the shank (a swing peak of 19 N at -1.8)
    kd: float = field(default=1.8, metadata=NOT_NEGATIVE)
    # N*s/mm, force-to-velocity map inertia; a negative one reads as 0,
    # the static map
    map_m: float = field(default=0.0, metadata=NOT_NEGATIVE)
    # N/mm, force-to-velocity map gain, which the map divides by
    map_b: float = field(default=15.7, metadata=POSITIVE)
    # a negative count assists as 0 does, but starts the analysis before
    # the estimate has converged
    silent_cycles: int = field(default=5, metadata=NOT_NEGATIVE)
    force_ceiling: float = field(default=300.0, metadata=FINITE)   # N
    # mm, +/- about the pretighten reference; 0 or less aborts at once
    position_limit_mm: float = field(default=80.0, metadata=POSITIVE)
    # N, startup baseline confirmation; 0 or less confirms the baseline
    # on the slack cable, whose reading of 0 is never below it
    pretighten_force: float = field(default=5.0, metadata=POSITIVE)
    # mm/s during startup tightening; at 0 pretighten never confirms
    pretighten_rate: float = field(default=30.0, metadata=POSITIVE)
    # mm*s anti-windup bound; a negative one pins the swing integral at
    # the wrong sign
    integral_clamp: float = field(default=50.0, metadata=NOT_NEGATIVE)
    # N, |tendon model - f_meas| bound; 0 or less aborts on the load
    # cell's noise alone
    load_cell_residual: float = field(default=75.0, metadata=POSITIVE)


@dataclass
class ControllerState:
    mode: ControlMode = ControlMode.PRETIGHTEN
    l_swing: Optional[float] = None      # mm, per-cycle constant; None
                                         # before the first assisted foot-off
    e_l_integral: float = 0.0            # mm*s, resets each cycle
    f_swing_max: float = 0.0             # N, running max of the last swing
    active_params: Optional[GaussianParams] = None
    aborted: bool = False
    engaged: bool = False                # cable taut this stance
    release_target: float = 0.0          # mm, slack hold length
    last_theta_df: float = 0.0
    v_fb_state: float = 0.0              # filtered feedback velocity
    residual_ticks: int = 0              # ticks in a row past the residual


class Controller:
    """Single-leg controller driven by the 1 kHz ticker and gait events."""

    def __init__(self, config: ControllerConfig, tendon: TendonModel):
        self.cfg = config
        self.tendon = tendon
        self.state = ControllerState()
        # loop.c's vector s, refilled by each run, and its address
        self._s = np.zeros(kernel.SLOTS)
        self._s_at = self._s.ctypes.data

    # -- event interface ----------------------------------------------------

    def on_event(self, event: GaitEvent,
                 new_params: Optional[GaussianParams] = None) -> None:
        st = self.state
        if st.aborted:
            return
        if st.mode is ControlMode.PRETIGHTEN:
            log.warning("gait event during pretighten ignored: %s", event)
            return
        if event.kind is GaitEventKind.FOOT_CONTACT:
            if st.mode is ControlMode.STANCE:
                log.warning("out-of-order FootContact ignored (already in stance)")
                return
            if new_params is not None:
                st.active_params = new_params
            st.e_l_integral = 0.0
            st.engaged = False
            if event.gc_index < self.cfg.silent_cycles:
                st.mode = ControlMode.SILENT
            else:
                st.mode = ControlMode.STANCE
        else:  # FOOT_OFF
            if st.mode is ControlMode.SWING:
                log.warning("out-of-order FootOff ignored (already in swing)")
                return
            if st.mode is ControlMode.SILENT:
                return
            # Quasi-slack length recurrence from the previous swing's peak force.
            if st.l_swing is None:
                st.l_swing = tendon_length(self.tendon, st.last_theta_df,
                                           SWING_TARGET_FORCE)
            else:
                st.l_swing += ((st.f_swing_max - SWING_TARGET_FORCE)
                               / self.tendon.k_all)
            st.f_swing_max = 0.0
            st.e_l_integral = 0.0
            st.mode = ControlMode.SWING

    # -- per-tick interface --------------------------------------------------

    def run(self, cols: np.ndarray, cable: Cable) -> np.ndarray:
        """Run a stretch of ticks with no gait event inside: the controller
        and the cable, the only closed loop (see the module docstring).

        cols is a (6, n) array of the ticks' open-loop inputs: the shank
        and DF angles (deg) and rates (deg/s), the cable's zero-force
        length (mm) and its load-cell noise (N) (`GaitWorld.cable_columns`).
        The first tick reads the cable's state: the load cell's f_meas,
        l_meas = l_cable, its rate -motor_v and the motor position
        pos_ref - l_cable. Each tick computes the velocity command v (mm/s,
        positive retracts) and steps the cable (`plant.Cable`, whose v_max
        is the command envelope too) to the next tick's reading. Returns
        the log rows, one (n, 6) float64 array whose columns are (mode
        code, f_des, f_meas, f_truth, l_meas, v) per tick; the mode code is
        the mode's index in ControlMode, or ABORT_CODE once the abort has
        latched, and f_des is the tick's desired force (see the module
        docstring). The controller state, the tendon model and cable.state
        are read once before the stretch and written once after it, as
        tick-by-tick evaluation leaves them.
        """
        st, cfg, tendon = self.state, self.cfg, self.tendon
        plant, dt, alpha, vm, stiffness, pos_ref = cable
        if cols.ndim != 2 or len(cols) != 6:
            raise ValueError(f"cols must be (6, n), not {cols.shape}")
        if cols.dtype != np.float64 or cols.strides[1] != 8 or (
                cols.strides[0] % 8):
            cols = np.ascontiguousarray(cols, np.float64)
        n = cols.shape[1]
        mode, p = st.mode, st.active_params
        if mode is ControlMode.STANCE and p is not None:
            profile = p.amp, p.mu, p.sigma1, p.sigma2, p.theta_fc, p.theta_fo
            tier = _STANCE if st.engaged else _PROBE
        else:
            profile = (0.0,) * 6        # an empty support: f_des is 0.0
            tier = (_PRETIGHTEN if mode is ControlMode.PRETIGHTEN
                    else _IDLE if mode is ControlMode.STANCE else _PI)
        code = _MODE_CODE[mode]
        if st.aborted:
            tier, code = _ABORT, ABORT_CODE
        swing = mode is ControlMode.SWING
        # The slots of loop.c's vector s up to its decisions, in its order,
        # as float64 whatever their types.
        s = self._s
        s[:kernel.DECISIONS] = (
            tendon.lever_arm_r, tendon.k_all, cfg.kp, cfg.ki, cfg.kd,
            cfg.map_m, cfg.map_b, cfg.integral_clamp, cfg.force_ceiling,
            cfg.position_limit_mm, cfg.pretighten_force, cfg.pretighten_rate,
            dt, alpha, vm, stiffness, pos_ref, *profile,
            MIGRATION_TOLERANCE_MM, cfg.load_cell_residual, RESIDUAL_TICKS,
            st.l_swing if swing else st.release_target, swing,
            TIGHTEN_GAIN, PROBE_RATE, PROBE_MARGIN_MM, ENGAGE_FORCE,
            TAIL_RELEASE_FORCE, TAIL_RELEASE_RATE, RELEASE_SLACK_MM,
            _MODE_CODE[ControlMode.SILENT], ABORT_CODE, tier, code,
            plant.f_meas, st.last_theta_df, st.v_fb_state, st.e_l_integral,
            st.f_swing_max, st.release_target, plant.motor_v, plant.l_cable,
            st.residual_ticks, tendon.baseline_c, tendon.delta_l1)
        rows = np.empty((n, 6))
        kernel.loop(n, cols.ctypes.data, cols.strides[0] // 8,
                    rows.ctypes.data, self._s_at)
        (plant.f_meas, st.last_theta_df, st.v_fb_state, st.e_l_integral,
         st.f_swing_max, st.release_target, plant.motor_v, plant.l_cable,
         residual_ticks, tendon.baseline_c, tendon.delta_l1, engage_at,
         migration, confirm_at, abort_at, reason, *at_abort,
         model) = s[kernel.STATE:].tolist()
        st.residual_ticks = int(residual_ticks)
        # The stretch's log lines and state flags, in tick order.
        if engage_at >= 0:
            st.engaged = True
            if migration < -MIGRATION_TOLERANCE_MM:
                log.warning("migration estimate %.3f mm below zero; keeping "
                            "%.3f mm", migration, tendon.delta_l1)
        if confirm_at >= 0:
            st.mode = ControlMode.SILENT
        if tier == _IDLE and (idle := n if abort_at < 0 else int(abort_at)):
            log.warning("stance without profile parameters: held for %d "
                        "ticks", idle)
        if abort_at >= 0:
            st.aborted = True
            if reason == _LIMIT:
                log.error("safety abort: f=%.1f N pos=%.1f mm", at_abort[0],
                          at_abort[3])
            elif reason == _RESIDUAL:
                log.error("safety abort: load cell f=%.1f N against the "
                          "tendon model's %.1f N for %d ticks", at_abort[0],
                          model, RESIDUAL_TICKS)
            else:
                log.error("safety abort: non-finite input (f, l, rate, "
                          "pos)=%r (sk, df, sk rate, df rate)=%r",
                          tuple(at_abort),
                          tuple(cols[:4, int(abort_at)].tolist()))
        return rows
