"""Stance/swing control state machine emitting 1 kHz cable velocity commands.

`Controller.tick` returns the command as a plain float in mm/s; the run
log's mode column and abort marker record which branch acted.

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

`ControllerState.f_des` is the desired force the run log shows for the last
tick: the profile force at the tick's shank angle on stance ticks with
parameters, and 0.0 otherwise. A stance tick evaluates the profile once
(`eval_force_and_rate`: the desired force and its rate from one exp); an
aborted stance tick holds without it and evaluates the force alone
(`eval_force`). Leaving stance, which only foot-off does, resets it to 0.0.
The per-tick guards (the safety limits, the command envelope, the swing
anti-windup) are bare comparisons that return exactly what the min/max
forms they replace return, NaN and infinities included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .gait_signals import GaitEvent, GaitEventKind, KinematicSample
from .profile import GaussianParams, eval_force, eval_force_and_rate
from .tendon import TendonModel, estimate_migration, tendon_length

log = logging.getLogger(__name__)


class ControlMode(Enum):
    PRETIGHTEN = "pretighten"
    SILENT = "silent"
    SWING = "swing"
    STANCE = "stance"


@dataclass
class ControllerConfig:
    """Control gains and limits; defaults follow the tuned hardware values."""

    kp: float = 23.0                 # 1/s
    ki: float = 1e-4                 # 1/s^2
    kd: float = 1.8                  # unitless damping injection
    map_m: float = 0.0               # N*s/mm, force-to-velocity map inertia
    map_b: float = 15.7              # N/mm, force-to-velocity map gain
    swing_target_force: float = 3.0  # N
    silent_cycles: int = 5
    force_ceiling: float = 300.0     # N
    position_limit_mm: float = 80.0  # +/- about the pretighten reference
    v_max: float = 250.0             # mm/s command envelope
    pretighten_force: float = 5.0    # N, startup baseline confirmation
    pretighten_rate: float = 30.0    # mm/s during startup tightening
    release_slack_mm: float = 20.0   # payout past the baseline for silent walking
    integral_clamp: float = 50.0     # mm*s anti-windup bound
    tighten_gain: float = 60.0       # 1/s, per-cycle slack take-up
    probe_rate: float = 80.0         # mm/s, slow retraction until tautness
    probe_margin_mm: float = 2.0     # mm, model gap where probing takes over
    engage_force: float = 2.0        # N, measured force confirming tautness
    tail_release_force: float = 0.5  # N, desired force ending the profile
    tail_release_rate: float = 40.0  # mm/s extra payout after the profile ends


@dataclass
class ControllerState:
    mode: ControlMode = ControlMode.PRETIGHTEN
    l_swing: float = 0.0                 # mm, per-cycle constant
    e_l_integral: float = 0.0            # mm*s, resets each cycle
    f_swing_max: float = 0.0             # N, running max of the last swing
    active_params: Optional[GaussianParams] = None
    aborted: bool = False
    engaged: bool = False                # cable taut this stance
    have_swing_history: bool = False
    release_target: float = 0.0          # mm, slack hold length
    last_theta_df: float = 0.0
    v_fb_state: float = 0.0              # filtered feedback velocity
    f_des: float = 0.0                   # N, logged desired force of the last
                                         # tick: the profile's in stance, else 0


class Controller:
    """Single-leg controller driven by the 1 kHz ticker and gait events."""

    def __init__(self, config: ControllerConfig, tendon: TendonModel):
        self.cfg = config
        self.tendon = tendon
        self.state = ControllerState()

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
            if st.have_swing_history:
                st.l_swing += ((st.f_swing_max - self.cfg.swing_target_force)
                               / self.tendon.k_all)
            else:
                st.l_swing = tendon_length(self.tendon, st.last_theta_df,
                                           self.cfg.swing_target_force)
                st.have_swing_history = True
            st.f_swing_max = 0.0
            st.e_l_integral = 0.0
            st.f_des = 0.0
            st.mode = ControlMode.SWING

    # -- per-tick interface --------------------------------------------------

    def tick(self, kin: KinematicSample, f_meas: float, l_meas: float,
             l_meas_rate: float, motor_pos: float, dt: float) -> float:
        """The tick's velocity command in mm/s; positive retracts the cable."""
        st = self.state
        st.last_theta_df = kin.theta_df
        # One check covers all eight: a NaN or an infinity in any makes the
        # sum non-finite, and NaN slips through every comparison below.
        if not math.isfinite(f_meas + l_meas + l_meas_rate + motor_pos
                             + kin.theta_sk + kin.theta_df
                             + kin.theta_sk_rate + kin.theta_df_rate):
            if not st.aborted:
                log.error("safety abort: non-finite input (f, l, rate, pos)="
                          "%r %r", (f_meas, l_meas, l_meas_rate, motor_pos), kin)
            st.aborted = True
        # safety_check's conditions as bare comparisons, so a tick inside the
        # limits makes no call (abs(pos) > lim is pos > lim or pos < -lim).
        cfg = self.cfg
        lim = cfg.position_limit_mm
        if ((st.aborted or f_meas > cfg.force_ceiling
             or motor_pos > lim or motor_pos < -lim)
                and self.safety_check(f_meas, motor_pos)):
            if st.mode is ControlMode.STANCE and st.active_params:
                st.f_des = eval_force(st.active_params, kin.theta_sk)
            return self._tick_abort(l_meas)
        mode = st.mode
        if mode is ControlMode.PRETIGHTEN:
            return self._tick_pretighten(kin, f_meas, l_meas)
        if mode is ControlMode.SILENT:
            return self._pi_toward(st.release_target, l_meas, l_meas_rate, dt)
        if mode is ControlMode.SWING:
            return self.tick_swing(l_meas, l_meas_rate, dt, f_meas)
        return self.tick_stance(kin, f_meas, l_meas, dt)

    def safety_check(self, f_meas: float, motor_pos: float) -> bool:
        """Latch and log the abort when a limit is exceeded; True once
        aborted."""
        st, cfg = self.state, self.cfg
        if not st.aborted and (f_meas > cfg.force_ceiling
                               or abs(motor_pos) > cfg.position_limit_mm):
            log.error("safety abort: f=%.1f N pos=%.1f mm", f_meas, motor_pos)
            st.aborted = True
        return st.aborted

    def tick_swing(self, l_meas: float, l_meas_rate: float, dt: float,
                   f_meas: float = 0.0) -> float:
        st = self.state
        if f_meas > st.f_swing_max:
            st.f_swing_max = f_meas
        return self._pi_toward(st.l_swing, l_meas, l_meas_rate, dt)

    def tick_stance(self, kin: KinematicSample, f_meas: float, l_meas: float,
                    dt: float) -> float:
        st = self.state
        cfg = self.cfg
        p = st.active_params
        if p is None:
            log.warning("stance tick without profile parameters; holding")
            return 0.0
        f_des, f_rate = eval_force_and_rate(p, kin.theta_sk, kin.theta_sk_rate)
        st.f_des = f_des
        l_des = tendon_length(self.tendon, kin.theta_df, f_des)
        if not st.engaged:
            # Take up the swing slack, then probe until the cable is
            # physically taut: only a taut measurement identifies migration.
            if f_meas >= cfg.engage_force:
                st.engaged = True
                estimate_migration(self.tendon, l_meas, kin.theta_df, f_meas)
                l_des = tendon_length(self.tendon, kin.theta_df, f_des)
            else:
                gap = l_meas - l_des
                v = max(cfg.probe_rate,
                        min(cfg.tighten_gain * (gap - cfg.probe_margin_mm)
                            + cfg.probe_rate, cfg.v_max))
                return v
        v_fb = self._feedback_velocity(f_des - f_meas, dt)
        v_ff = (self.tendon.lever_arm_r * math.radians(kin.theta_df_rate)
                - f_rate / self.tendon.k_all)
        v = v_fb - v_ff
        if kin.theta_sk <= p.mu:
            # Engagement overshoot: the probe meets a taut length moving at
            # full gait speed, so contact lands a few newtons hard; shed the
            # excess quickly while the desired force is still near zero.
            if f_des < 0.25 * p.amp:
                v -= min(100.0, 25.0 * max(0.0, f_meas - f_des - 1.0))
        elif f_des < cfg.tail_release_force and f_meas > 1.0:
            # Profile finished on the falling branch: shed the residual
            # tension carried by the motor lag so the cable crosses
            # foot-off near-slack.
            v -= cfg.tail_release_rate
        return self._clamp(v)

    # -- helpers --------------------------------------------------------------

    def _feedback_velocity(self, force_error: float, dt: float) -> float:
        """Realize 1/(M s + B) by backward Euler; M = 0 degenerates to 1/B."""
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

    def _tick_pretighten(self, kin: KinematicSample, f_meas: float,
                         l_meas: float) -> float:
        st = self.state
        cfg = self.cfg
        if f_meas < cfg.pretighten_force:
            return cfg.pretighten_rate
        # Baseline confirmed: back out the zero-force length from this reading.
        self.tendon.baseline_c = (l_meas + f_meas / self.tendon.k_all
                                  - self.tendon.lever_arm_r
                                  * math.radians(kin.theta_df))
        st.release_target = l_meas + cfg.release_slack_mm
        st.mode = ControlMode.SILENT
        return 0.0

    def _tick_abort(self, l_meas: float) -> float:
        # Latched: pay the cable out to the slack reference, then zero the motor.
        if l_meas < self.state.release_target - 0.5:
            return -self.cfg.v_max
        return 0.0

    def _clamp(self, v: float) -> float:
        """Limit to the command envelope; NaN becomes a hold (zero), since
        min/max would turn it into full retraction. The comparisons are
        max(-vm, min(vm, v)) written out, equal to it for every float."""
        if v != v:
            return 0.0
        vm = self.cfg.v_max
        v = v if v < vm else vm
        return v if v > -vm else -vm
