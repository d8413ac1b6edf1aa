"""Stance/swing control state machine emitting 1 kHz cable velocity commands.

`Controller.run` runs the ticks between two gait events, and with them
the cable plant: the controller and the cable are the only closed loop.
What the loop does not feed back is columns, computed once per stretch
from the IMU kinematics and the stride's params: the profile force and
its rate at each tick's shank angle (`eval_force_and_rate_array`), the
feedforward, and the cable's zero-force length and load-cell noise
(`GaitWorld.cable_columns`). The recurrence runs in one call per stretch
to the loop kernel, `loop.c`, which this module builds with the system
`cc` at import (`_load_loop`): the safety guard, the feedback filter, the
PI, the overshoot shed, the envelope, the motor lag, the cable length,
the force clip and the noise. Each tick's tier (engaged stance, PI,
probe, abort, pretighten or a stance without params) is derived once
before the stretch; in the kernel the abort, the engage tick and
pretighten's confirmation each change it, and the kernel reports the
tick of each. The tendon model's own updates (the engage tick's
migration estimate, the pretighten baseline) and the log lines are
applied after the call, in tick order, so `on_event` sees the state
tick-by-tick evaluation leaves. The motor envelope is the cable's
(`plant.Cable.v_max`), one value that clips the command, the probe and
the cable, and sets the abort's payout speed.

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
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import os
import sysconfig
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
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

# The tiers of the loop body, in loop.c's order: _STANCE engaged stance
# with params, _PI swing or silent, _PROBE stance with params before
# engagement, _ABORT any mode once aborted, _PRETIGHTEN, and _IDLE stance
# without params. The first two are the laws the command envelope clips.
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

        cols is a (6, n) float64 array of the ticks' open-loop inputs: the
        shank and DF angles (deg) and rates (deg/s), the cable's zero-force
        length (mm) and its load-cell noise (N) (`GaitWorld.cable_columns`).
        reading is (f_meas, l_meas, l_meas_rate, motor_pos), which the
        first tick's command sees. Each tick computes the velocity command
        v (mm/s, positive retracts) and steps the cable (`plant.Cable`,
        whose v_max is the command envelope too) to the next tick's
        reading. After the stretch log_row gets its log rows, one (n, 6)
        float64 array whose columns are (mode code, f_des, f_meas, f_truth,
        l_meas, v) per tick; the mode code is the mode's index in
        ControlMode, or ABORT_CODE once the abort has latched, and f_des is
        the tick's force column value (see the module docstring). Returns
        the last reading; cable.state holds the motor velocity and the
        cable length. The state is read once before the stretch and written
        once after it, as tick-by-tick evaluation leaves it.
        """
        st, cfg, tendon = self.state, self.cfg, self.tendon
        r, k_all = tendon.lever_arm_r, tendon.k_all
        plant, dt, alpha, vm, stiffness, pos_ref = cable
        if cols.ndim != 2 or len(cols) != 6:
            raise ValueError(f"cols must be (6, n), not {cols.shape}")
        if cols.dtype != np.float64 or cols.strides[1] != 8 or (
                cols.strides[0] % 8):
            cols = np.ascontiguousarray(cols, np.float64)
        n = cols.shape[1]
        mode, p = st.mode, st.active_params
        if mode is ControlMode.STANCE and p is not None:
            f_col, rate_col = eval_force_and_rate_array(p, cols[0], cols[2])
            with np.errstate(all="ignore"):    # inf - inf is NaN, silently
                v_ff = r * np.radians(cols[3]) - rate_col / k_all
            profile = f_col.ctypes.data, v_ff.ctypes.data
            mu, shed_below = p.mu, 0.25 * p.amp
            tier = _STANCE if st.engaged else _PROBE
        else:
            profile = None, None
            mu = shed_below = 0.0
            tier = (_PRETIGHTEN if mode is ControlMode.PRETIGHTEN
                    else _IDLE if mode is ControlMode.STANCE else _PI)
        code = _MODE_CODE[mode]
        if st.aborted:
            tier, code = _ABORT, ABORT_CODE
        swing = mode is ControlMode.SWING
        # The slots of loop.c's vector s, in its order, as float64 whatever
        # their types.
        s = np.array((
            r, k_all, cfg.kp, cfg.ki, cfg.kd, cfg.map_m, cfg.map_b,
            cfg.integral_clamp, cfg.force_ceiling, cfg.position_limit_mm,
            cfg.pretighten_force, cfg.pretighten_rate, dt, alpha, vm,
            stiffness, pos_ref, _RADIAN, mu, shed_below,
            tendon.baseline_c - tendon.delta_l1,
            st.l_swing if swing else st.release_target, swing,
            TIGHTEN_GAIN, PROBE_RATE, PROBE_MARGIN_MM, ENGAGE_FORCE,
            TAIL_RELEASE_FORCE, TAIL_RELEASE_RATE, RELEASE_SLACK_MM,
            _MODE_CODE[ControlMode.SILENT], ABORT_CODE, tier, code,
            *reading, st.last_theta_df, st.v_fb_state,
            st.e_l_integral, st.f_swing_max, st.release_target,
            plant.motor_v, plant.l_cable, *_DECISIONS), np.float64)
        rows = np.empty((n, 6))
        _loop(n, cols.ctypes.data, cols.strides[0] // 8, *profile,
              rows.ctypes.data, s.ctypes.data)
        (f_meas, l_meas, l_rate, pos, st.last_theta_df,
         st.v_fb_state, st.e_l_integral, st.f_swing_max, st.release_target,
         plant.motor_v, plant.l_cable, engage_at, engage_f, engage_l,
         confirm_at, baseline, abort_at, limit, *at_abort) = (
             s[_STATE:].tolist())
        # The stretch's decisions, in tick order.
        if engage_at >= 0:
            # Only a taut measurement identifies migration. No later tick
            # of the stretch reads delta_l1: only the probe does.
            st.engaged = True
            estimate_migration(tendon, engage_l,
                               cols[1, int(engage_at)].item(), engage_f)
        if confirm_at >= 0:
            tendon.baseline_c = baseline
            st.mode = ControlMode.SILENT
        if tier == _IDLE and (idle := n if abort_at < 0 else int(abort_at)):
            log.warning("stance without profile parameters: held for %d "
                        "ticks", idle)
        if abort_at >= 0:
            st.aborted = True
            if limit:
                log.error("safety abort: f=%.1f N pos=%.1f mm", at_abort[0],
                          at_abort[3])
            else:
                log.error("safety abort: non-finite input (f, l, rate, "
                          "pos)=%r (sk, df, sk rate, df rate)=%r",
                          tuple(at_abort),
                          tuple(cols[:4, int(abort_at)].tolist()))
        log_row(rows)
        return f_meas, l_meas, l_rate, pos


# The kernel's flags: no option that lets the compiler reorder, contract or
# approximate a double operation (such as -ffast-math) may join them.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_RADIAN = math.radians(1.0)    # math.radians(x) is x * this, exactly
# Where loop.c's vector s holds the loop state, and the slots of the
# decisions, which the kernel writes.
_STATE = 34
_DECISIONS = (0.0,) * 11


def _compile(source: Path, out_dir: str) -> str:
    """The shared library built from source by the system `cc` in
    out_dir. ImportError, on one line, when `cc` cannot run or fails."""
    import subprocess               # only a build pays for the import
    out = os.path.join(out_dir, "loop.so")
    try:
        done = subprocess.run(["cc", *_CFLAGS, "-o", out, str(source)],
                              capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"shankexo needs the C compiler `cc` to build "
                          f"{source}: {exc.strerror}") from None
    if done.returncode:
        raise ImportError(f"`cc` failed to build {source}: "
                          f"{' '.join(done.stderr.split())}")
    return out


def _load_loop() -> Callable:
    """The loop kernel's shankexo_loop(n, cols, stride, f_col, v_ff, rows,
    s): loop.c built by the system `cc` into a shared library named by the
    SHA-256 of its source, the flags and the platform, so no edit of any of
    them loads a stale library. The library is kept in `__pycache__` beside
    the source, built in a private directory there and renamed into place,
    so a process loads only a whole library, whichever of several building
    at once renames last. Where `__pycache__` cannot be written, or its
    library cannot be loaded, the process builds its own in a temporary
    directory, removed once the library is loaded."""
    source = Path(__file__).with_name("loop.c")
    key = b"\0".join((source.read_bytes(), " ".join(_CFLAGS).encode(),
                      sysconfig.get_platform().encode()))
    lib = (source.parent / "__pycache__"
           / f"loop-{hashlib.sha256(key).hexdigest()}.so")
    try:
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
                os.replace(_compile(source, tmp), lib)
        fn = ctypes.CDLL(str(lib)).shankexo_loop
    except OSError:
        with tempfile.TemporaryDirectory() as tmp:
            fn = ctypes.CDLL(_compile(source, tmp)).shankexo_loop
    size, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    fn.argtypes = (size, ptr, size, ptr, ptr, ptr, ptr)
    fn.restype = None
    return fn


_loop = _load_loop()
