"""Stance/swing control state machine emitting 1 kHz cable velocity commands.

`Controller.run` runs the ticks between two gait events, and with them
the cable plant: the controller and the cable are the only closed loop.
What the loop does not feed back is columns, computed once per stretch
from the IMU kinematics and the stride's params: the profile force and
its rate at each tick's shank angle (`eval_force_and_rate_array`), the
feedforward, and the cable's zero-force length and load-cell noise
(`GaitWorld.cable_columns`). The loop body keeps the recurrence: the
feedback filter, the PI, the overshoot shed, the envelope, the motor lag,
the cable length, the force clip and the noise, and keeps per tick only
the two values nothing else makes, the cable length and the command. The
stretch's log rows come from those after the loop; their mode code and
abort marker record which branch acted. The controller
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
            log_row: Callable[[np.ndarray], object]) -> tuple:
        """Run a stretch of ticks with no gait event inside: the controller
        and the cable, the only closed loop (see the module docstring).

        cols is a (6, n) array of the ticks' open-loop inputs: the shank and
        DF angles (deg) and rates (deg/s), the cable's zero-force length
        (mm) and its load-cell noise (N) (`GaitWorld.cable_columns`).
        reading is (f_meas, l_meas, l_meas_rate, motor_pos), which the
        first tick's command sees. Each tick computes the velocity command
        v (mm/s, positive retracts), steps the cable (`plant.Cable`, whose
        v_max is the command envelope too) to the next tick's reading and
        keeps the two values only the recurrence makes: the cable length
        and v. After the stretch log_row gets its log rows, one (n, 6)
        float64 array whose columns are (mode code, f_des, f_meas, f_truth,
        l_meas, v) per tick; the mode code is the mode's index in
        ControlMode, or ABORT_CODE once the abort has latched, and f_des is
        the tick's force column value (see the module docstring). numpy
        makes the other four columns after the loop (`_loop_rows`), by the
        loop's own float operations, so each value has the bits the loop
        fed back. Returns the last reading; cable.state holds the motor
        velocity and the cable length. The state is read once before the
        stretch and written once after it, as tick-by-tick evaluation
        leaves it.
        """
        st, cfg, tendon = self.state, self.cfg, self.tendon
        r, k_all = tendon.lever_arm_r, tendon.k_all
        kp, ki, kd, map_m, map_b = cfg.kp, cfg.ki, cfg.kd, cfg.map_m, cfg.map_b
        static_map = map_m <= 0.0           # 1/(M s + B) with M = 0 is 1/B
        ic = cfg.integral_clamp
        ceiling, lim = cfg.force_ceiling, cfg.position_limit_mm
        plant, dt, alpha, vm, stiffness, pos_ref = cable
        neg_ic, neg_lim, neg_vm = -ic, -lim, -vm      # negated once, exactly
        motor_v, l_cable = plant.motor_v, plant.l_cable
        radians = math.radians
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
            f_col = None
            profile = repeat(0.0), repeat(0.0)
            tier = (_PRETIGHTEN if mode is ControlMode.PRETIGHTEN
                    else _IDLE if mode is ControlMode.STANCE else _PI)
        code = _MODE_CODE[mode]
        if st.aborted:
            tier, code = _ABORT, ABORT_CODE
        codes = [(0, code)]      # (first tick, mode code) of each change
        swing = mode is ControlMode.SWING
        target = st.l_swing if swing else release
        l_rest = tendon.baseline_c - tendon.delta_l1
        v_fb, e_int = st.v_fb_state, st.e_l_integral
        f_swing_max = st.f_swing_max
        # The cable's envelope of a zero command: 0.0 for any v_max > 0.
        still = 0.0 if 0.0 < vm else vm
        still = still if still > neg_vm else neg_vm
        # The ticks whose reading the guard tests in full (see below).
        flagged = _flagged(cols, (vm, ceiling, lim, pos_ref, motor_v))
        rows = []                # (l_cable, v) per tick, flat
        keep = rows.extend
        for sk, df, l_free, noise, flag, f_des, v_ff in zip(
                *cols[:2].tolist(), *cols[4:].tolist(), flagged, *profile):
            # The safety abort latches, with one log line, on a non-finite
            # input or on a reading past the force ceiling or the position
            # limit (`_trips_the_guard`). That full test runs only on a
            # flagged tick (`_flagged`), or on a reading past a limit or
            # whose position is NaN; no other tick can trip it. Such a tick
            # reads what the loop made of its own last tick, and its angles
            # and rates, the limits, the envelope, pos_ref and the motor
            # velocity at the start all lie below 1e300 in magnitude:
            # - the motor velocity stays within its start and the envelope,
            #   up to rounding: alpha (in [0, 1], from bind_cable) mixes it
            #   with a command inside the envelope;
            # - the position is not NaN and lies within the limit, so the
            #   cable length is finite and within the limit of pos_ref;
            # - f_meas, clipped to [0, inf], is at most the ceiling (inf is
            #   past it).
            # So each of the eight terms of the sum is below about 2e300,
            # and the sum is finite.
            if tier != _ABORT and (flag or f_meas > ceiling
                                   or not neg_lim <= pos <= lim) and (
                    _trips_the_guard(
                        (f_meas, l_meas, l_rate, pos),
                        (sk, df, *cols[2:4, len(rows) >> 1].tolist()),
                        ceiling, lim)):
                tier, code = _ABORT, ABORT_CODE
                codes.append((len(rows) >> 1, code))
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
                    e_int = i = i if i > neg_ic else neg_ic  # max(-ic, .)
                    v = -(kp * e + ki * i - kd * l_rate)
                # The command envelope, max(-vm, min(vm, v)) written out;
                # NaN becomes a hold (zero), where min/max would retract.
                # The cable's envelope leaves its result as it is.
                if v != v:
                    u = v = 0.0
                else:
                    v = v if v < vm else vm
                    u = v = v if v > neg_vm else neg_vm
            elif tier == _PROBE:
                # Take up the swing slack, then probe until the cable is
                # physically taut: the gap to the model tendon's length
                # (`tendon_length`) at the desired force.
                gap = l_meas - (r * radians(df) - f_des / k_all + l_rest)
                v = TIGHTEN_GAIN * (gap - PROBE_MARGIN_MM) + PROBE_RATE
                v = vm if vm < v else v                  # min(v, vm)
                v = v if v > PROBE_RATE else PROBE_RATE  # max(PROBE_RATE, .)
                # The cable's envelope: a v_max below PROBE_RATE clips it.
                u = v if v < vm else vm
                u = u if u > neg_vm else neg_vm
            elif tier == _ABORT:
                # Latched: pay the cable out to the slack reference, then
                # zero the motor.
                if l_meas < release - 0.5:
                    u = v = neg_vm
                else:
                    v, u = 0.0, still
            elif tier == _PRETIGHTEN:
                if f_meas < cfg.pretighten_force:
                    # The cable's envelope, a NaN rate driving at +vm.
                    v = cfg.pretighten_rate
                    u = v if v < vm else vm
                    u = u if u > neg_vm else neg_vm
                else:
                    # Baseline confirmed: back out the zero-force length
                    # from this reading, then walk silently.
                    tendon.baseline_c = (l_meas + f_meas / k_all
                                         - r * radians(df))
                    target = release = l_meas + RELEASE_SLACK_MM
                    mode = ControlMode.SILENT
                    tier, code = _PI, _MODE_CODE[mode]
                    codes.append((len(rows) >> 1, code))
                    v, u = 0.0, still
            else:
                log.warning("stance tick without profile parameters; holding")
                v, u = 0.0, still
            # The cable: u is the command inside the motor envelope (the
            # cable's max(-vm, min(vm, v)), where a NaN command drives at
            # +vm); the motor lag, the cable length, and the force and its
            # reading clipped at 0 (NaN reads 0).
            motor_v += alpha * (u - motor_v)
            l_cable -= motor_v * dt
            f_truth = stiffness * (l_free - l_cable)
            f_truth = f_truth if f_truth > 0.0 else 0.0
            f_meas = f_truth + noise
            f_meas = f_meas if f_meas > 0.0 else 0.0
            l_meas, l_rate, pos = l_cable, -motor_v, pos_ref - l_cable
            keep((l_cable, v))
        log_row(_loop_rows(rows, codes, f_col, cols[4:], stiffness))
        plant.motor_v, plant.l_cable = motor_v, l_cable
        st.last_theta_df = df
        st.mode, st.release_target = mode, release
        st.aborted, st.engaged = tier == _ABORT, engaged
        st.v_fb_state, st.e_l_integral = v_fb, e_int
        st.f_swing_max = f_swing_max
        return f_meas, l_meas, l_rate, pos


# The magnitude from which the guard tests a tick in full (`_flagged`):
# below it, the eight terms of the guard's sum cannot overflow.
_HUGE = 1e300


def _flagged(cols: np.ndarray, scalars: tuple) -> list:
    """Per tick of a stretch, whether `Controller.run` tests its reading in
    full: the first tick, whose reading comes from outside the stretch (a
    fault spike can make it anything); each tick whose shank or DF angle or
    rate is NaN or of magnitude 1e300 or more; and every tick when one of
    scalars (the envelope, the limits, the motor-position reference, the
    motor velocity at the start) is."""
    if not all(abs(x) < _HUGE for x in scalars):
        return [True] * cols.shape[1]
    size = np.abs(cols[:4])
    if size.max(initial=0.0) < _HUGE:        # NaN fails it too
        return [True] + [False] * (cols.shape[1] - 1)
    flagged = ~(size < _HUGE).all(axis=0)
    flagged[0] = True
    return flagged.tolist()


def _trips_the_guard(reading: tuple, angles: tuple, ceiling: float,
                     lim: float) -> bool:
    """Whether the reading (f_meas, l_meas, l_meas_rate, motor_pos) and the
    tick's (shank, DF, shank rate, DF rate) latch the safety abort: a
    non-finite input, or a reading past the force ceiling or the position
    limit. NaN fails every comparison and makes the sum NaN, and an infinity
    in any input makes it non-finite. Logs the abort's one line."""
    f_meas, l_meas, l_rate, pos = reading
    sk, df, sk_rate, df_rate = angles
    if not -math.inf < (f_meas + l_meas + l_rate + pos + sk + df + sk_rate
                        + df_rate) < math.inf:
        log.error("safety abort: non-finite input (f, l, rate, pos)=%r "
                  "(sk, df, sk rate, df rate)=%r", reading, angles)
        return True
    if f_meas > ceiling or pos > lim or pos < -lim:
        log.error("safety abort: f=%.1f N pos=%.1f mm", f_meas, pos)
        return True
    return False


def _loop_rows(kept: list, codes: list, f_col: Optional[np.ndarray],
               cable_cols: np.ndarray, stiffness: float) -> np.ndarray:
    """A stretch's log rows, (n, 6) float64 (see `Controller.run`), from
    what its loop kept: (l_cable, v) per tick, flat, and the (first tick,
    mode code) of each code. f_des is the force column f_col, or zeros
    outside a stance with params. f_truth = stiffness * (l_free - l_cable)
    and f_meas = f_truth + noise, each clipped at 0, are the loop's own
    float operations element by element, so each has the bits the loop fed
    back (NaN and -0.0 clip to 0.0). The rows are a transposed (6, n)
    array, whose columns numpy fills one call each."""
    n = len(kept) >> 1
    rows = np.empty((6, n))
    mode, f_des, f_meas, f_truth = rows[:4]
    for at, code in codes:
        mode[at:] = code
    f_des[:] = 0.0 if f_col is None else f_col
    rows[4:] = np.fromiter(kept, float, 2 * n).reshape(n, 2).T
    l_free, noise = cable_cols
    with np.errstate(all="ignore"):     # inf - inf is NaN, silently
        np.multiply(stiffness, np.subtract(l_free, rows[4], out=f_truth),
                    out=f_truth)
        f_truth[~(f_truth > 0.0)] = 0.0
        np.add(f_truth, noise, out=f_meas)
    f_meas[~(f_meas > 0.0)] = 0.0
    return rows.T
