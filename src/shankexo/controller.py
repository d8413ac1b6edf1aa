"""Stance/swing control state machine emitting 1 kHz cable velocity commands.

`Controller.run` runs the ticks between two gait events: per tick, the
command, the cable step the caller bound and the tick's log row, whose mode
code and abort marker record which branch acted. The controller state lives
in locals across the stretch; a tick that can change the mode, the
engagement, the abort or the tendon model (pretighten, the stance probe and
the engage tick, the abort and its non-finite and limit latches) runs on
`ControllerState` instead, with the locals written back before it and read
again after it, so `on_event` sees the state tick-by-tick evaluation leaves.
`Controller.tick` is the one-tick run and returns the command as a plain
float in mm/s.

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
parameters, and 0.0 otherwise. An engaged stance tick evaluates the profile
once (`eval_force_and_rate`: the desired force and its rate from one exp);
a probe tick, which needs no rate, and an aborted stance tick, which holds
without the profile, evaluate the force alone (`eval_force`). Leaving
stance, which only foot-off does, resets it to 0.0. The per-tick guards
(the safety limits, the command envelope, the swing anti-windup, the
overshoot shed) are bare comparisons that return exactly what the min/max
forms they replace return, NaN and infinities included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .gait_signals import GaitEvent, GaitEventKind
from .plant import CableStep, PlantConfig
from .profile import GaussianParams, eval_force, eval_force_and_rate
from .tendon import TendonModel, estimate_migration, tendon_length

log = logging.getLogger(__name__)


class ControlMode(Enum):
    PRETIGHTEN = "pretighten"
    SILENT = "silent"
    SWING = "swing"
    STANCE = "stance"


# The run log's mode code: the mode's index in ControlMode, and one past the
# last once the safety abort has latched.
_MODE_CODE = {m: i for i, m in enumerate(ControlMode)}
ABORT_CODE = len(ControlMode)


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
    v_max: float = PlantConfig.v_max  # mm/s command envelope
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

    def run(self, ticks: Iterable[tuple], step: CableStep, reading: tuple,
            dt: float, log_row: Callable[[tuple], object]) -> tuple:
        """Run a stretch of ticks with no gait event inside.

        ticks yields each tick's (theta_sk, theta_df, theta_sk_rate,
        theta_df_rate, migration): the shank and DF angles (deg) and rates
        (deg/s), and the suit migration (mm) the cable step takes. reading
        is (f_meas, l_meas, l_meas_rate, motor_pos), the cable's reading
        that the first tick's command sees. Each tick computes the velocity
        command v (mm/s, positive retracts), calls step(v, theta_df,
        migration) -> (f_truth, f_meas, l_meas, l_meas_rate, motor_pos),
        whose reading the next tick sees, and hands log_row the tuple
        (mode code, f_des, f_meas, f_truth, l_meas, v) of the state after
        the tick; the mode code is the mode's index in ControlMode, or
        ABORT_CODE once the abort has latched. Returns the last reading.

        A settled tick (swing, silent, or engaged stance with params; no
        abort latched, finite inputs, readings inside the limits) runs here
        on locals. Any other tick (pretighten, probe or engage, abort, a
        non-finite input or a limit crossing) is `_unsettled_tick` on the
        state, with the locals written back before it and read again after
        it. The state after the stretch is the one tick-by-tick evaluation
        leaves.
        """
        st, cfg = self.state, self.cfg
        r, k_all = self.tendon.lever_arm_r, self.tendon.k_all
        kp, ki, kd, map_m, map_b = cfg.kp, cfg.ki, cfg.kd, cfg.map_m, cfg.map_b
        static_map = map_m <= 0.0           # 1/(M s + B) with M = 0 is 1/B
        ic, vm = cfg.integral_clamp, cfg.v_max
        ceiling, lim = cfg.force_ceiling, cfg.position_limit_mm
        inf, radians = math.inf, math.radians
        f_meas, l_meas, l_rate, pos = reading
        df = st.last_theta_df
        (settled, stance, swing, p, target, code, f_des, v_fb, e_int,
         f_swing_max) = self._settled_locals()
        for sk, df, sk_rate, df_rate, migration in ticks:
            v = None
            # NaN fails every comparison and makes the sum NaN, and an
            # infinity in any input makes it non-finite.
            if (not settled or f_meas > ceiling or pos > lim or pos < -lim
                    or not -inf < (f_meas + l_meas + l_rate + pos + sk + df
                                   + sk_rate + df_rate) < inf):
                st.f_des, st.v_fb_state = f_des, v_fb
                st.e_l_integral, st.f_swing_max = e_int, f_swing_max
                v = self._unsettled_tick(sk, df, sk_rate, df_rate, f_meas,
                                         l_meas, l_rate, pos)
                (settled, stance, swing, p, target, code, f_des, v_fb, e_int,
                 f_swing_max) = self._settled_locals()
            if v is None:
                if stance:
                    f_des, f_rate = eval_force_and_rate(p, sk, sk_rate)
                    # 1/(M s + B) by backward Euler
                    err = f_des - f_meas
                    v_fb = (err / map_b if static_map else
                            (map_m * v_fb + dt * err) / (map_m + map_b * dt))
                    # feedback minus the feedforward: the tendon length rate
                    # along the desired-force trajectory
                    v = v_fb - (r * radians(df_rate) - f_rate / k_all)
                    if sk <= p.mu:
                        # Engagement overshoot: the probe meets a taut length
                        # moving at full gait speed, so contact lands a few
                        # newtons hard; shed the excess quickly while the
                        # desired force is still near zero.
                        if f_des < 0.25 * p.amp:
                            v -= min(100.0,
                                     25.0 * max(0.0, f_meas - f_des - 1.0))
                    elif f_des < cfg.tail_release_force and f_meas > 1.0:
                        # Profile finished on the falling branch: shed the
                        # residual tension carried by the motor lag so the
                        # cable crosses foot-off near-slack.
                        v -= cfg.tail_release_rate
                else:
                    # PI with damping injection toward the swing's
                    # quasi-slack length, or the release target when silent
                    if swing and f_meas > f_swing_max:
                        f_swing_max = f_meas
                    e = target - l_meas
                    i = e_int + e * dt
                    i = i if i < ic else ic                    # min(ic, i)
                    e_int = i = i if i > -ic else -ic          # max(-ic, .)
                    v = -(kp * e + ki * i - kd * l_rate)
                # The command envelope, max(-vm, min(vm, v)) written out;
                # NaN becomes a hold (zero), where min/max would retract.
                if v != v:
                    v = 0.0
                else:
                    v = v if v < vm else vm
                    v = v if v > -vm else -vm
            f_truth, f_meas, l_meas, l_rate, pos = step(v, df, migration)
            log_row((code, f_des, f_meas, f_truth, l_meas, v))
        st.last_theta_df = df
        st.f_des, st.v_fb_state = f_des, v_fb
        st.e_l_integral, st.f_swing_max = e_int, f_swing_max
        return f_meas, l_meas, l_rate, pos

    def tick(self, theta_sk: float, theta_df: float, theta_sk_rate: float,
             theta_df_rate: float, f_meas: float, l_meas: float,
             l_meas_rate: float, motor_pos: float, dt: float) -> float:
        """One tick's velocity command in mm/s (positive retracts the cable)
        from its shank and DF angles (deg) and rates (deg/s) and the cable
        reading: `run` over one tick, with a cable step whose reading
        nothing reads."""
        row = []
        self.run(((theta_sk, theta_df, theta_sk_rate, theta_df_rate, 0.0),),
                 lambda *_: (0.0,) * 5,
                 (f_meas, l_meas, l_meas_rate, motor_pos), dt, row.extend)
        return row[5]

    # -- helpers --------------------------------------------------------------

    def _settled_locals(self) -> tuple:
        """What `run` holds in locals, read from the state: whether the next
        tick is settled, whether the mode is stance or swing, the params, the
        PI target, the log's mode code, and f_des, v_fb_state, e_l_integral
        and f_swing_max."""
        st = self.state
        mode, p = st.mode, st.active_params
        stance, swing = mode is ControlMode.STANCE, mode is ControlMode.SWING
        settled = not st.aborted and (swing or mode is ControlMode.SILENT or (
            stance and st.engaged and p is not None))
        return (settled, stance, swing, p,
                st.l_swing if swing else st.release_target,
                ABORT_CODE if st.aborted else _MODE_CODE[mode],
                st.f_des, st.v_fb_state, st.e_l_integral, st.f_swing_max)

    def _unsettled_tick(self, theta_sk: float, theta_df: float,
                        theta_sk_rate: float, theta_df_rate: float,
                        f_meas: float, l_meas: float, l_meas_rate: float,
                        motor_pos: float) -> Optional[float]:
        """A tick that may change the mode, the engagement, the abort or the
        tendon model, on the state: the non-finite and limit checks, the
        abort hold, pretighten, and the stance probe up to engagement.
        Returns its command, or None when the tick goes on as a settled one
        (the engage tick continues as an engaged stance tick)."""
        st, cfg, tendon = self.state, self.cfg, self.tendon
        st.last_theta_df = theta_df
        # The safety abort latches, with one log line, on a non-finite input
        # or on a reading past the force ceiling or the position limit.
        if not st.aborted:
            if not math.isfinite(f_meas + l_meas + l_meas_rate + motor_pos
                                 + theta_sk + theta_df + theta_sk_rate
                                 + theta_df_rate):
                log.error("safety abort: non-finite input (f, l, rate, pos)="
                          "%r (sk, df, sk rate, df rate)=%r",
                          (f_meas, l_meas, l_meas_rate, motor_pos),
                          (theta_sk, theta_df, theta_sk_rate, theta_df_rate))
                st.aborted = True
            elif (f_meas > cfg.force_ceiling
                  or abs(motor_pos) > cfg.position_limit_mm):
                log.error("safety abort: f=%.1f N pos=%.1f mm", f_meas,
                          motor_pos)
                st.aborted = True
        mode, p = st.mode, st.active_params
        if st.aborted:
            # An aborted stance tick holds without the profile; the log
            # still shows the profile force of its shank angle.
            if mode is ControlMode.STANCE and p is not None:
                st.f_des = eval_force(p, theta_sk)
            # Latched: pay the cable out to the slack reference, then zero
            # the motor.
            return -cfg.v_max if l_meas < st.release_target - 0.5 else 0.0
        if mode is ControlMode.PRETIGHTEN:
            if f_meas < cfg.pretighten_force:
                return cfg.pretighten_rate
            # Baseline confirmed: back out the zero-force length from this
            # reading.
            tendon.baseline_c = (l_meas + f_meas / tendon.k_all
                                 - tendon.lever_arm_r * math.radians(theta_df))
            st.release_target = l_meas + cfg.release_slack_mm
            st.mode = ControlMode.SILENT
            return 0.0
        if mode is not ControlMode.STANCE or (st.engaged and p is not None):
            return None
        if p is None:
            log.warning("stance tick without profile parameters; holding")
            return 0.0
        if f_meas >= cfg.engage_force:
            # Taut: only a taut measurement identifies migration.
            st.engaged = True
            estimate_migration(tendon, l_meas, theta_df, f_meas)
            return None
        # Take up the swing slack, then probe until the cable is physically
        # taut.
        st.f_des = f_des = eval_force(p, theta_sk)
        gap = l_meas - tendon_length(tendon, theta_df, f_des)
        return max(cfg.probe_rate,
                   min(cfg.tighten_gain * (gap - cfg.probe_margin_mm)
                       + cfg.probe_rate, cfg.v_max))
