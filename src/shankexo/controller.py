"""Stance/swing control state machine emitting 1 kHz cable velocity commands.

`Controller.run` runs the ticks between two gait events, and with them
the cable plant: the controller and the cable are the only closed loop.
What the loop does not feed back is columns, computed once per stretch
from the IMU kinematics and the stride's params: the profile force and
its rate at each tick's shank angle (`eval_force_and_rate_array`), the
feedforward, and the cable's zero-force length and load-cell noise
(`GaitWorld.cable_columns`). The loop body keeps the recurrence: the
feedback filter, the PI, the overshoot shed, the envelope, the motor lag,
the cable length, the force clip, the noise and the tick's log row, whose
mode code and abort marker record which branch acted. The controller
state lives in locals across the stretch, read before it and written
back after it, so `on_event` sees the state tick-by-tick evaluation
leaves. The mode, the engagement, the abort and the release target are
locals too: each tick's tier (engaged stance, PI, probe, abort,
pretighten or a stance without params) is derived once before the
stretch, and the abort, the engage tick and pretighten's confirmation
each change it in one branch of the loop body. Only the tendon model's
own updates (the engage tick's migration estimate, the pretighten
baseline) write outside the loop's locals. The motor envelope is the
cable's (`plant.Cable.v_max`), one value that clips the command, the
probe and the cable, and sets the abort's payout speed.

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

The desired force the run log shows for a tick is the force column: the
profile force at the tick's shank angle in a stance stretch with
parameters (engaged, probing or aborted alike), and 0.0 in any other.
Only `on_event`, between stretches, enters or leaves stance, so a stretch
is one or the other throughout.

The per-tick guards (the safety limits, the command envelope, the swing
anti-windup, the overshoot shed, the cable's clamps) are bare comparisons
that return exactly what the min/max forms they replace return, NaN and
infinities included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .gait_signals import GaitEvent, GaitEventKind
from .plant import Cable
from .profile import GaussianParams, eval_force_and_rate_array
from .tendon import TendonModel, estimate_migration, tendon_length

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

# The tiers of `Controller.run`'s loop body: _STANCE engaged stance with
# params, _PI swing or silent, _PROBE stance with params before engagement,
# _ABORT any mode once aborted, _PRETIGHTEN, and _IDLE stance without
# params. The first two are the laws the command envelope clips.
_STANCE, _PI, _PROBE, _ABORT, _PRETIGHTEN, _IDLE = range(6)


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


@dataclass
class ControllerConfig:
    """Control gains and safety limits: the controller values a run's
    config may override. Defaults follow the tuned hardware values. The
    swing target, the silent release, the probe, the engagement and the
    tail release are the module constants above."""

    kp: float = 23.0                 # 1/s
    ki: float = 1e-4                 # 1/s^2
    kd: float = 1.8                  # unitless damping injection
    map_m: float = 0.0               # N*s/mm, force-to-velocity map inertia
    map_b: float = 15.7              # N/mm, force-to-velocity map gain
    silent_cycles: int = 5
    force_ceiling: float = 300.0     # N
    position_limit_mm: float = 80.0  # +/- about the pretighten reference
    pretighten_force: float = 5.0    # N, startup baseline confirmation
    pretighten_rate: float = 30.0    # mm/s during startup tightening
    integral_clamp: float = 50.0     # mm*s anti-windup bound


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

    def run(self, cols: np.ndarray, cable: Cable, reading: tuple,
            log_row: Callable[[tuple], object]) -> tuple:
        """Run a stretch of ticks with no gait event inside: the controller
        and the cable, the only closed loop (see the module docstring).

        cols is a (6, n) array of the ticks' open-loop inputs: the shank and
        DF angles (deg) and rates (deg/s), the cable's zero-force length
        (mm) and its load-cell noise (N) (`GaitWorld.cable_columns`).
        reading is (f_meas, l_meas, l_meas_rate, motor_pos), which the
        first tick's command sees. Each tick computes the velocity command
        v (mm/s, positive retracts), steps the cable (`plant.Cable`, whose
        v_max is the command envelope too) to the next tick's reading and
        hands log_row (mode code, f_des, f_meas, f_truth, l_meas, v); the
        mode code is the mode's index in ControlMode, or ABORT_CODE once
        the abort has latched, and f_des is the tick's force column value
        (see the module docstring). Returns the last reading; cable.state
        holds the motor velocity and the cable length. The state is read
        once before the stretch and written once after it, as tick-by-tick
        evaluation leaves it.
        """
        st, cfg, tendon = self.state, self.cfg, self.tendon
        r, k_all = tendon.lever_arm_r, tendon.k_all
        kp, ki, kd, map_m, map_b = cfg.kp, cfg.ki, cfg.kd, cfg.map_m, cfg.map_b
        static_map = map_m <= 0.0           # 1/(M s + B) with M = 0 is 1/B
        ic = cfg.integral_clamp
        ceiling, lim = cfg.force_ceiling, cfg.position_limit_mm
        plant, dt, alpha, vm, stiffness, pos_ref = cable
        motor_v, l_cable = plant.motor_v, plant.l_cable
        inf, radians = math.inf, math.radians
        f_meas, l_meas, l_rate, pos = reading
        df = st.last_theta_df
        mode, engaged, release = st.mode, st.engaged, st.release_target
        p = st.active_params
        if mode is ControlMode.STANCE and p is not None:
            f_col, rate_col = eval_force_and_rate_array(p, cols[0], cols[2])
            with np.errstate(all="ignore"):    # inf - inf is NaN, silently
                v_ff = r * np.radians(cols[3]) - rate_col / k_all
            profile = f_col.tolist(), v_ff.tolist()
            mu, shed_below = p.mu, 0.25 * p.amp
            tier = _STANCE if engaged else _PROBE
        else:
            profile = repeat(0.0), repeat(0.0)
            tier = (_PRETIGHTEN if mode is ControlMode.PRETIGHTEN
                    else _IDLE if mode is ControlMode.STANCE else _PI)
        code = _MODE_CODE[mode]
        if st.aborted:
            tier, code = _ABORT, ABORT_CODE
        swing = mode is ControlMode.SWING
        target = st.l_swing if swing else release
        l_rest = tendon.baseline_c - tendon.delta_l1
        v_fb, e_int = st.v_fb_state, st.e_l_integral
        f_swing_max = st.f_swing_max
        for sk, df, sk_rate, df_rate, l_free, noise, f_des, v_ff in zip(
                *cols.tolist(), *profile):
            # The safety abort latches, with one log line, on a non-finite
            # input or on a reading past the force ceiling or the position
            # limit. NaN fails every comparison and makes the sum NaN, and
            # an infinity in any input makes it non-finite.
            if tier != _ABORT and (
                    not -inf < (total := f_meas + l_meas + l_rate + pos + sk
                                + df + sk_rate + df_rate) < inf
                    or f_meas > ceiling or pos > lim or pos < -lim):
                if -inf < total < inf:
                    log.error("safety abort: f=%.1f N pos=%.1f mm", f_meas,
                              pos)
                else:
                    log.error("safety abort: non-finite input (f, l, rate, "
                              "pos)=%r (sk, df, sk rate, df rate)=%r",
                              (f_meas, l_meas, l_rate, pos),
                              (sk, df, sk_rate, df_rate))
                tier, code = _ABORT, ABORT_CODE
            elif tier == _PROBE and f_meas >= ENGAGE_FORCE:
                # The engage tick: taut, and only a taut measurement
                # identifies migration. It goes on as an engaged stance tick.
                engaged, tier = True, _STANCE
                estimate_migration(tendon, l_meas, df, f_meas)
            if tier < _PROBE:
                if tier == _STANCE:
                    # 1/(M s + B) by backward Euler
                    err = f_des - f_meas
                    v_fb = (err / map_b if static_map else
                            (map_m * v_fb + dt * err) / (map_m + map_b * dt))
                    v = v_fb - v_ff
                    if sk <= mu:
                        # Engagement overshoot: the probe meets a taut length
                        # moving at full gait speed, so contact lands a few
                        # newtons hard; shed the excess quickly while the
                        # desired force is still near zero.
                        # min(100, 25 * max(0, excess)) written out
                        excess = f_meas - f_des - 1.0
                        if f_des < shed_below and excess > 0.0:
                            excess *= 25.0
                            v -= excess if excess < 100.0 else 100.0
                    elif f_des < TAIL_RELEASE_FORCE and f_meas > 1.0:
                        # Profile finished on the falling branch: shed the
                        # residual tension carried by the motor lag so the
                        # cable crosses foot-off near-slack.
                        v -= TAIL_RELEASE_RATE
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
            elif tier == _PROBE:
                # Take up the swing slack, then probe until the cable is
                # physically taut: the gap to the model tendon's length
                # (`tendon_length`) at the desired force.
                gap = l_meas - (r * radians(df) - f_des / k_all + l_rest)
                v = TIGHTEN_GAIN * (gap - PROBE_MARGIN_MM) + PROBE_RATE
                v = vm if vm < v else v                  # min(v, vm)
                v = v if v > PROBE_RATE else PROBE_RATE  # max(PROBE_RATE, .)
            elif tier == _ABORT:
                # Latched: pay the cable out to the slack reference, then
                # zero the motor.
                v = -vm if l_meas < release - 0.5 else 0.0
            elif tier == _PRETIGHTEN:
                if f_meas < cfg.pretighten_force:
                    v = cfg.pretighten_rate
                else:
                    # Baseline confirmed: back out the zero-force length
                    # from this reading, then walk silently.
                    tendon.baseline_c = (l_meas + f_meas / k_all
                                         - r * radians(df))
                    target = release = l_meas + RELEASE_SLACK_MM
                    mode = ControlMode.SILENT
                    tier, code = _PI, _MODE_CODE[mode]
                    v = 0.0
            else:
                log.warning("stance tick without profile parameters; holding")
                v = 0.0
            # The cable: the motor envelope (a NaN command drives at +vm),
            # the motor lag, the cable length, and the force and its
            # reading clipped at 0 (NaN reads 0).
            v_cable = v if v < vm else vm
            v_cable = v_cable if v_cable > -vm else -vm
            motor_v += alpha * (v_cable - motor_v)
            l_cable -= motor_v * dt
            f_truth = stiffness * (l_free - l_cable)
            f_truth = f_truth if f_truth > 0.0 else 0.0
            f_meas = f_truth + noise
            f_meas = f_meas if f_meas > 0.0 else 0.0
            l_meas, l_rate, pos = l_cable, -motor_v, pos_ref - l_cable
            log_row((code, f_des, f_meas, f_truth, l_meas, v))
        plant.motor_v, plant.l_cable = motor_v, l_cable
        st.last_theta_df = df
        st.mode, st.release_target = mode, release
        st.aborted, st.engaged = tier == _ABORT, engaged
        st.v_fb_state, st.e_l_integral = v_fb, e_int
        st.f_swing_max = f_swing_max
        return f_meas, l_meas, l_rate, pos
