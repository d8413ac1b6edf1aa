"""Deterministic simulated world: parametric gait kinematics and cable plant.

Curve construction. Over stance (u in [0,1]) the shank angle sweeps its span
through a smoothstep and the foot pitch is ft_peak - G(u), where the excess
G is a piecewise smoothstep/cosine profile: zero at foot contact (so the
foot-pitch maximum sits exactly at stance onset), a mid-stance hump, and a
terminal plunge whose rate minimum lands exactly on stance end (the
detector's foot-off feature). The DF channel is derived, theta_df = theta_sk - theta_ft,
and the construction is validated numerically so its single crest falls at a
configurable interior phase. Swing returns every channel to its contact pose
through half-cosines, C1 across both boundaries.

Speed perturbations and ramps warp the phase rate only, never the curve
shapes; a backward perturbation additionally injects a brief shank sway so
the stance shank angle regresses, which is the non-steady condition the
shank-based profile is meant to survive.

Blocks. GaitWorld advances in blocks of ticks (BLOCK_TICKS, one simulated
second at 1 kHz). The clock (time, ramp, perturbation window, phase wrap,
stride, migration and sway) is accumulated in bulk: time is one
`np.add.accumulate` of dt from the carried value, and a plain stretch of
walking ticks (no perturbation window, no ramp change) is one accumulation
of its constant phase increment, ended at the wrap or a pending onset. The
scalar clock body runs only for the wrap, onset, ramp-change and
perturbation-window ticks. numpy then evaluates the gait curves and the
biological torque of the whole block, and a tick's KinematicSample is
built only when the estimation pass reads it. `advance(dt)` is the one
tick of the scalar body and the scalar `gen_frame` and
`biological_torque`: the same bits without numpy's per-call overhead.
Nothing in the world reads cable state, so a block may run ahead of the
closed loop; the world's scalar attributes (`t_s`, `phase`, `scale`,
`state.stride_index`, `state.migration`) then hold end-of-block values. The
block's columns (`WorldBlock`) carry each tick's own values of what the
closed loop reads; a tick's phase and stride are the scalar attributes of a
world advanced one tick at a time.

Bit-equality. The block columns equal the scalar `gen_frame` and
`biological_torque` (kept as the references the tests compare against) bit
for bit, for any block size. That holds because the array code repeats the
scalar operation order and uses only operations where numpy matches `math`
exactly here: arithmetic, `sin`, `cos`, `radians`, `rint`, and
`np.add.accumulate`, which adds strictly in sequence as `+=` does. Where it
does not (`exp`, `**`/`power`, `round(x, ndigits)`) the scalar Python
operation stays: `math.exp` for migration and Python `**` for the torque
sharpness and the sway. The sample time is `round(t * 1000.0, 6)`. Within
4e-7 ms of a whole ms that is the whole ms exactly, so when every tick of a
block is that close the block takes it from the one `np.rint` that also
makes the log's clock; a clock that has drifted further is rounded tick by
tick.

Cable. The plant equations live once, in `bind_cable`: it binds what a run
holds fixed (the motor lag alpha = 1 - exp(-dt / motor_tau_s), the
envelope, the truth tendon, the noise level, the motor-position reference)
and returns the one-tick step the closed loop calls, (cmd_v, theta_df,
migration) -> a plain (f_truth, f_meas, l_cable, l_rate, motor_pos) tuple.
It is the cable's only step: `GaitWorld.cable_step(dt)` binds the world's
cable with it once per run. Its clamps are bare comparisons that return
what the `max`/`min` forms return, NaN included. The force noise comes from
the world's Generator in blocks of BLOCK_TICKS draws, which equal the same
number of scalar `standard_normal()` draws; every step bound to a world
reads that one stream.

Template validation reads the numbers of the parts that run on a template
from the modules that own them: the detector thresholds and the IMU period
from `gait_signals`, the initial profile and the update guard from `profile`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .gait_signals import IMU_PERIOD_MS, DetectorConfig, KinematicSample
from .profile import (INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2, MAX_DELTA_MU,
                      MAX_DELTA_SIGMA, SIGMA_BOUNDS, RawStrideFeatures,
                      feature_targets)
from .tendon import TendonModel

BLOCK_TICKS = 1000   # world ticks per block: one simulated second at 1 kHz


class TemplateError(ValueError):
    """Template parameters violate the event-feature or landmark contracts."""


class Activity(Enum):
    LW = "lw"
    LR = "lr"
    RA = "ra"
    RD = "rd"


class PerturbationKind(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def _s3(v: float) -> float:
    return v * v * (3.0 - 2.0 * v)


def _ds3(v: float) -> float:
    return 6.0 * v * (1.0 - v)


@dataclass(frozen=True)
class GaitTemplate:
    """Closed-form gait curves for one activity.

    Geometry knobs: the shank span, the excess-profile knots (g_rise_end,
    fall window, plunge window) and magnitudes (g_max, g_dip, g_plunge).
    Landmark fields (df_peak, ft_peak, nominal sigma targets) are derived at
    build time and frozen alongside.
    """

    activity: Activity
    period: float               # s
    stance_ratio: float
    theta_sk_span: tuple[float, float]
    ft_peak: float              # deg, foot pitch at the contact extremum
    g_max: float                # deg, mid-stance excess hump
    g_rise_end: float           # u, end of the excess rise
    g_fall_start: float         # u
    g_fall_end: float           # u
    u_plunge: float             # u, start of the terminal plunge
    g_dip: float                # deg, excess floor before the plunge
    g_plunge: float             # deg, excess gained across the plunge
    swing_ease_s: float = 0.0015  # s, rate ease-out after foot-off
    swing_hold: float = 0.30     # swing fraction held at the foot-off pose
    torque_sharpness: float = 1.0
    df_peak: tuple[float, float] = (0.0, 0.0)   # (value deg, phase-of-stance)
    landmarks: tuple[float, float, float] = (0.0, 0.0, 0.0)  # nominal fc/mdf/fo

    # -- excess profile ----------------------------------------------------

    def _g(self, u: float) -> tuple[float, float]:
        """Excess G(u) and dG/du over stance.

        The terminal plunge is a half cosine bump in rate, so the rate
        extremum lands exactly on stance end and the angle arrives there
        still steep; the swing ease-out finishes the bump in time.
        """
        if u <= self.g_rise_end:
            v = u / self.g_rise_end
            return self.g_max * _s3(v), self.g_max * _ds3(v) / self.g_rise_end
        if u <= self.g_fall_start:
            return self.g_max, 0.0
        if u <= self.g_fall_end:
            span = self.g_fall_end - self.g_fall_start
            v = (u - self.g_fall_start) / span
            drop = self.g_max - self.g_dip
            return self.g_max - drop * _s3(v), -drop * _ds3(v) / span
        if u <= self.u_plunge:
            return self.g_dip, 0.0
        span = 1.0 - self.u_plunge
        xi = (u - self.u_plunge) / span
        g = self.g_dip + self.g_plunge * (xi - math.sin(math.pi * xi) / math.pi)
        dg = self.g_plunge * (1.0 - math.cos(math.pi * xi)) / span
        return g, dg

    @property
    def g_end(self) -> float:
        return self.g_dip + self.g_plunge

    @property
    def plunge_rate_pu(self) -> float:
        """Peak excess slope across the terminal plunge (deg per unit u)."""
        return 2.0 * self.g_plunge / (1.0 - self.u_plunge)

    def _swing_ease_gain(self) -> float:
        """Foot-pitch angle shed while the plunge rate eases out in swing."""
        t_st = self.period * self.stance_ratio
        return 0.5 * (self.plunge_rate_pu / t_st) * self.swing_ease_s

    # -- poses ---------------------------------------------------------------

    def stance_pose(self, u: float) -> tuple[float, float, float, float]:
        """(theta_sk, theta_ft, dsk_du, dft_du) at stance fraction u."""
        sk0, sk1 = self.theta_sk_span
        dsk = sk1 - sk0
        g, dg = self._g(u)
        sk = sk0 + dsk * _s3(u)
        return sk, self.ft_peak - g, dsk * _ds3(u), -dg

    def swing_pose(self, w: float) -> tuple[float, float, float, float]:
        """(theta_sk, theta_ft, dsk_dw, dft_dw) at swing fraction w."""
        sk0, sk1 = self.theta_sk_span
        dsk = sk1 - sk0
        t_sw = self.period * (1.0 - self.stance_ratio)
        w_e = self.swing_ease_s / t_sw
        w_h = w_e + self.swing_hold
        ft_fo = self.ft_peak - self.g_end
        gain = self._swing_ease_gain()
        if w <= w_e:
            # foot-pitch rate eases from the plunge extremum to zero
            rate_w = self.plunge_rate_pu * (t_sw / (self.period * self.stance_ratio))
            xi = w / w_e
            ft = ft_fo - 0.5 * rate_w * w_e * (xi + math.sin(math.pi * xi) / math.pi)
            dft = -0.5 * rate_w * (1.0 + math.cos(math.pi * xi))
            return sk1, ft, 0.0, dft
        if w <= w_h:
            return sk1, ft_fo - gain, 0.0, 0.0
        v = (w - w_h) / (1.0 - w_h)
        c = 0.5 * (1.0 + math.cos(math.pi * v))
        dc = -0.5 * math.pi * math.sin(math.pi * v) / (1.0 - w_h)
        sk = sk0 + dsk * c
        ft = self.ft_peak - (self.g_end + gain) * c
        return sk, ft, dsk * dc, -(self.g_end + gain) * dc


def gen_frame(tmpl: GaitTemplate, phase: float, speed_scale: float,
              t_ms: float = 0.0) -> KinematicSample:
    """Kinematic frame at a gait phase; speed_scale rescales rates only."""
    if not 0.0 <= phase < 1.0:
        phase = phase % 1.0
    rho = tmpl.stance_ratio
    cycle_rate = speed_scale / tmpl.period  # cycles/s
    if phase < rho:
        u = phase / rho
        sk, ft, dsk, dft = tmpl.stance_pose(u)
        mult = cycle_rate / rho
    else:
        w = (phase - rho) / (1.0 - rho)
        sk, ft, dsk, dft = tmpl.swing_pose(w)
        mult = cycle_rate / (1.0 - rho)
    sk_rate = dsk * mult
    ft_rate = dft * mult
    return KinematicSample(t_ms, ft, sk, sk - ft, ft_rate, sk_rate,
                           sk_rate - ft_rate)


def biological_torque(tmpl: GaitTemplate, phase: float) -> float:
    """Normalized single-crest ankle torque, peaking at the DF-peak phase."""
    rho = tmpl.stance_ratio
    if not 0.0 <= phase <= rho:
        return 0.0
    u = phase / rho
    u_pk = tmpl.df_peak[1]
    if u <= u_pk:
        base = 0.5 * (1.0 - math.cos(math.pi * u / u_pk))
    else:
        base = 0.5 * (1.0 + math.cos(math.pi * (u - u_pk) / (1.0 - u_pk)))
    return base ** tmpl.torque_sharpness


def _piecewise(x: np.ndarray, knots: tuple, pieces: tuple,
               side: str = "left") -> list[np.ndarray]:
    """Evaluate each piece only on the x it covers.

    With side="left", pieces[i] covers knots[i-1] < x <= knots[i] (the
    `if x <= knot` chains of the scalar curves); with side="right",
    knots[i-1] <= x < knots[i]. The last piece covers the rest. Every piece
    returns the same number of columns, arrays or scalars.
    """
    seg = np.searchsorted(knots, x, side=side)
    cols: list[np.ndarray] = []
    for i in sorted(set(seg.tolist())):
        at = seg == i
        vals = pieces[i](x[at])
        if not cols:
            cols = [np.empty_like(x) for _ in vals]
        for col, v in zip(cols, vals):
            col[at] = v
    return cols


def _g_array(tmpl: GaitTemplate, u: np.ndarray) -> list[np.ndarray]:
    """GaitTemplate._g over an array of stance fractions: [G, dG/du]."""
    def rise(u):
        v = u / tmpl.g_rise_end
        return (tmpl.g_max * _s3(v),
                tmpl.g_max * _ds3(v) / tmpl.g_rise_end)

    def fall(u):
        span = tmpl.g_fall_end - tmpl.g_fall_start
        v = (u - tmpl.g_fall_start) / span
        drop = tmpl.g_max - tmpl.g_dip
        return tmpl.g_max - drop * _s3(v), -drop * _ds3(v) / span

    def plunge(u):
        span = 1.0 - tmpl.u_plunge
        xi = (u - tmpl.u_plunge) / span
        return (tmpl.g_dip + tmpl.g_plunge * (xi - np.sin(np.pi * xi) / np.pi),
                tmpl.g_plunge * (1.0 - np.cos(np.pi * xi)) / span)

    return _piecewise(
        u, (tmpl.g_rise_end, tmpl.g_fall_start, tmpl.g_fall_end,
            tmpl.u_plunge),
        (rise, lambda u: (tmpl.g_max, 0.0), fall, lambda u: (tmpl.g_dip, 0.0),
         plunge))


def _stance_poses(tmpl: GaitTemplate, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """GaitTemplate.stance_pose over an array of stance fractions."""
    sk0, sk1 = tmpl.theta_sk_span
    dsk = sk1 - sk0
    g, dg = _g_array(tmpl, u)
    return sk0 + dsk * _s3(u), tmpl.ft_peak - g, dsk * _ds3(u), -dg


def _swing_poses(tmpl: GaitTemplate, w: np.ndarray) -> list[np.ndarray]:
    """GaitTemplate.swing_pose over an array of swing fractions."""
    sk0, sk1 = tmpl.theta_sk_span
    dsk = sk1 - sk0
    t_sw = tmpl.period * (1.0 - tmpl.stance_ratio)
    w_e = tmpl.swing_ease_s / t_sw
    w_h = w_e + tmpl.swing_hold
    ft_fo = tmpl.ft_peak - tmpl.g_end
    gain = tmpl._swing_ease_gain()

    def ease(w):
        rate_w = tmpl.plunge_rate_pu * (t_sw / (tmpl.period * tmpl.stance_ratio))
        xi = w / w_e
        return (sk1,
                ft_fo - 0.5 * rate_w * w_e * (xi + np.sin(np.pi * xi) / np.pi),
                0.0, -0.5 * rate_w * (1.0 + np.cos(np.pi * xi)))

    def ret(w):
        v = (w - w_h) / (1.0 - w_h)
        c = 0.5 * (1.0 + np.cos(np.pi * v))
        dc = -0.5 * np.pi * np.sin(np.pi * v) / (1.0 - w_h)
        return (sk0 + dsk * c, tmpl.ft_peak - (tmpl.g_end + gain) * c,
                dsk * dc, -(tmpl.g_end + gain) * dc)

    return _piecewise(w, (w_e, w_h),
                      (ease, lambda w: (sk1, ft_fo - gain, 0.0, 0.0), ret))


def gen_frames(tmpl: GaitTemplate, phase: np.ndarray,
               speed_scale: np.ndarray) -> tuple[np.ndarray, ...]:
    """gen_frame over arrays of phases in [0, 1) and speed scales:
    (theta_ft, theta_sk, theta_df, theta_ft_rate, theta_sk_rate,
    theta_df_rate), bit-equal to the scalar frames."""
    rho = tmpl.stance_ratio
    cycle_rate = speed_scale / tmpl.period
    sk, ft, dsk, dft = _piecewise(
        phase, (rho,),
        (lambda p: _stance_poses(tmpl, p / rho),
         lambda p: _swing_poses(tmpl, (p - rho) / (1.0 - rho))), side="right")
    mult = np.where(phase < rho, cycle_rate / rho, cycle_rate / (1.0 - rho))
    sk_rate = dsk * mult
    ft_rate = dft * mult
    return ft, sk, sk - ft, ft_rate, sk_rate, sk_rate - ft_rate


def biological_torques(tmpl: GaitTemplate, phase: np.ndarray) -> np.ndarray:
    """biological_torque over an array of phases, bit-equal to the scalar."""
    rho = tmpl.stance_ratio
    out = np.zeros_like(phase)
    stance = (0.0 <= phase) & (phase <= rho)
    u = phase[stance] / rho
    u_pk = tmpl.df_peak[1]
    base = np.where(u <= u_pk,
                    0.5 * (1.0 - np.cos(np.pi * u / u_pk)),
                    0.5 * (1.0 + np.cos(np.pi * (u - u_pk) / (1.0 - u_pk))))
    # Python ** (C pow) and numpy power differ in the last bit.
    out[stance] = [b ** tmpl.torque_sharpness for b in base.tolist()]
    return out


# -- template construction and validation -----------------------------------

_GRID_N = 4000

ACTIVITY_DEFAULTS: dict[Activity, dict] = {
    Activity.LW: dict(period=1.13, stance_ratio=0.674, theta_sk_span=(-14.0, 18.0),
                      g_max=18.0, g_rise_end=0.25, g_fall_start=0.62,
                      g_fall_end=0.90, u_plunge=0.91, g_dip=1.5,
                      g_plunge=5.3, torque_sharpness=3.0),
    Activity.LR: dict(period=0.72, stance_ratio=0.514, theta_sk_span=(-13.0, 17.0),
                      g_max=18.0, g_rise_end=0.27, g_fall_start=0.62,
                      g_fall_end=0.87, u_plunge=0.88, g_dip=1.5,
                      g_plunge=6.3, torque_sharpness=3.0),
    Activity.RA: dict(period=1.13, stance_ratio=0.683, theta_sk_span=(-12.0, 20.0),
                      g_max=18.0, g_rise_end=0.25, g_fall_start=0.62,
                      g_fall_end=0.90, u_plunge=0.91, g_dip=1.5,
                      g_plunge=5.3, torque_sharpness=3.0),
    Activity.RD: dict(period=1.03, stance_ratio=0.691, theta_sk_span=(-15.0, 17.0),
                      g_max=18.0, g_rise_end=0.25, g_fall_start=0.62,
                      g_fall_end=0.90, u_plunge=0.91, g_dip=1.5,
                      g_plunge=5.3, torque_sharpness=3.0),
}

_SAMPLE_ATTENUATION = 0.85   # worst-case sampled plunge extremum vs true peak
# GaitTemplate fields that build_template derives (`_finalize`)
DERIVED_FIELDS = frozenset({"df_peak", "landmarks"})


def build_template(activity: Activity | str, **overrides) -> GaitTemplate:
    """Construct and validate the gait template for an activity."""
    act = Activity(activity) if not isinstance(activity, Activity) else activity
    derived = DERIVED_FIELDS & overrides.keys()
    if derived:
        raise TemplateError(f"{', '.join(sorted(derived))}: derived from the "
                            "stance curves, not overridden")
    params = dict(ACTIVITY_DEFAULTS[act])
    params.update(overrides)
    params.setdefault("ft_peak", params["g_dip"] + params["g_plunge"] + 1.5)
    tmpl = GaitTemplate(activity=act, **params)
    grid = _sample_stance(tmpl)
    tmpl = _finalize(tmpl, grid)
    _validate(tmpl, grid)
    return tmpl


def _sample_stance(tmpl: GaitTemplate) -> tuple[np.ndarray, ...]:
    """(u, theta_sk, theta_ft, dft/du, G, dG/du) on the uniform stance grid."""
    us = np.linspace(0.0, 1.0, _GRID_N + 1)
    sk, ft, _, dft = _stance_poses(tmpl, us)
    return (us, sk, ft, dft, *_g_array(tmpl, us))


def _finalize(tmpl: GaitTemplate, grid: tuple[np.ndarray, ...]) -> GaitTemplate:
    """Locate the DF crest numerically and freeze the landmark fields."""
    us, sk, ft = grid[:3]
    df = sk - ft
    i_pk = int(np.argmax(df))
    u_pk = float(us[i_pk])
    sk_fo = tmpl.stance_pose(1.0)[0]   # FO: the pitch-rate minimum, at u = 1
    return replace(tmpl,
                   df_peak=(float(df[i_pk]), u_pk),
                   landmarks=(tmpl.theta_sk_span[0], float(sk[i_pk]), float(sk_fo)))


def _validate(tmpl: GaitTemplate, grid: tuple[np.ndarray, ...]) -> None:
    if not 0.0 < tmpl.period < math.inf:       # NaN fails it too
        raise TemplateError(f"period must be positive and finite, got "
                            f"{tmpl.period!r}")
    sk0, sk1 = tmpl.theta_sk_span
    if not (0.0 < tmpl.stance_ratio < 1.0):
        raise TemplateError("stance ratio outside (0, 1)")
    for key in ("torque_sharpness", "swing_ease_s"):
        value = getattr(tmpl, key)
        if not 0.0 < value < math.inf:             # NaN fails it too
            raise TemplateError(f"{key} must be positive and finite, got "
                                f"{value!r}")
    # The swing ease and hold must leave a window for the return to the
    # contact pose (w_h < 1 in `swing_pose`).
    w_e = tmpl.swing_ease_s / (tmpl.period * (1.0 - tmpl.stance_ratio))
    if not (tmpl.swing_hold >= 0.0 and w_e + tmpl.swing_hold < 1.0):
        raise TemplateError(f"swing_hold must be non-negative and leave a "
                            f"return window after the {w_e:.4f} swing ease, "
                            f"got {tmpl.swing_hold!r}")
    if not sk0 < sk1:
        raise TemplateError("shank span must increase across stance")
    if not (0.0 < tmpl.g_rise_end <= tmpl.g_fall_start < tmpl.g_fall_end
            <= tmpl.u_plunge < 1.0):
        raise TemplateError("excess-profile knots out of order")
    if min(tmpl.g_max, tmpl.g_dip, tmpl.g_plunge) <= 0:
        raise TemplateError("excess magnitudes must be positive")

    t_st = tmpl.period * tmpl.stance_ratio
    us, sk, ft, dft, g0, g1 = grid
    df = sk - ft

    # Foot-pitch maximum exactly at stance onset, unique over the cycle:
    # the excess is strictly positive away from contact and keeps a margin
    # once the initial descent is underway.
    if ft[0] != tmpl.ft_peak or np.min(g0[1:]) <= 0.0:
        raise TemplateError("foot pitch must peak uniquely at stance onset")
    if float(np.min(g0[us >= 0.08])) < 1.0:
        raise TemplateError("foot-pitch uniqueness margin under 1 deg in stance")
    if tmpl.ft_peak - tmpl.g_end < 0.2:
        raise TemplateError("swing foot pitch dips below the standing level")

    # Foot-pitch-rate minimum exactly at stance end, dominating the early
    # dip, and detectable by the armed seeker: once the refractory expires
    # (at any tolerated speed scale) the residual pitch-rate dip must stay
    # clearly above the worst-case adapted arming threshold.
    i_rate_min = int(np.argmin(dft))
    if us[i_rate_min] < 0.999:
        raise TemplateError("foot-pitch-rate minimum must sit at stance end")
    dip_peak = float(np.max(g1[us <= tmpl.u_plunge]))
    if tmpl.plunge_rate_pu < 1.05 * dip_peak:
        raise TemplateError("terminal plunge must dominate the early rate dip")
    # The foot-off seeker opens at half the previous stance duration, which
    # under the steepest tolerated speed transient still covers the first
    # 28 % of the current stance. The first stride has no history and relies
    # on the fixed refractory at nominal speed.
    if tmpl.g_rise_end > 0.27:
        raise TemplateError("excess rise must finish within 27 % of stance")
    det = DetectorConfig()
    imu_dt = IMU_PERIOD_MS / 1000.0
    arm_worst_pu = (det.fo_arm_fraction * _SAMPLE_ATTENUATION
                    * tmpl.plunge_rate_pu)
    conf_idx = int(np.searchsorted(np.maximum.accumulate(g0), det.delta_ang))
    t_conf = float(us[min(conf_idx, _GRID_N)]) * t_st
    u_first = (t_conf + det.refractory_ms / 1000.0 + imu_dt) / t_st
    for u_visible in (u_first, 0.28):
        mask = (us >= u_visible) & (us <= tmpl.u_plunge)
        if np.any(mask):
            danger_pu = float(np.max(np.maximum(g1[mask], 0.0)))
            if danger_pu > 0.72 * arm_worst_pu:
                raise TemplateError(
                    f"pitch-rate dip {danger_pu:.1f} deg/u visible from "
                    f"u={u_visible:.2f} too close to the arming threshold "
                    f"{arm_worst_pu:.1f} deg/u")
    if (1.0 - tmpl.u_plunge) * t_st < 4 * imu_dt:
        raise TemplateError("plunge window under four IMU samples")

    # DF single crest at an interior phase, separated from the plateau and
    # from the tail rise driven by the terminal plunge.
    i_pk = int(np.argmax(df))
    if not 0.3 < us[i_pk] < 0.9:
        raise TemplateError("DF crest must be interior to stance")
    guard = int(0.08 * _GRID_N)
    outside = np.concatenate([df[:max(i_pk - guard, 0)], df[i_pk + guard:]])
    if df[i_pk] - np.max(outside) < 0.3:
        raise TemplateError("DF crest not separated from the rest of stance")
    if df[i_pk] - np.max(df[us >= tmpl.u_plunge]) < 0.5:
        raise TemplateError("DF tail rise approaches the crest too closely")

    # Landmark targets must be reachable from the default initial profile
    # parameters through the guarded update.
    s1, s2, mu = feature_targets(RawStrideFeatures(*tmpl.landmarks))
    (s1_lo, s1_hi), (s2_lo, s2_hi), (mu_lo, mu_hi) = _landmark_window()
    if not (s1_lo <= s1 <= s1_hi and s2_lo <= s2 <= s2_hi
            and mu_lo <= mu <= mu_hi):
        raise TemplateError(
            f"landmark targets (s1={s1:.2f}, s2={s2:.2f}, mu={mu:.2f}) "
            "incompatible with the default initial parameters and guard")


def _landmark_window() -> tuple[tuple[float, float], ...]:
    """(lo, hi) of the sigma1, sigma2, mu targets the first guarded update
    accepts from the initial profile, clipped to SIGMA_BOUNDS, less margins."""
    lo, hi = SIGMA_BOUNDS
    return (*((max(lo, s - MAX_DELTA_SIGMA) + 0.1,
               min(hi, s + MAX_DELTA_SIGMA) - 0.1)
              for s in (INITIAL_SIGMA1, INITIAL_SIGMA2)),
            (INITIAL_MU - MAX_DELTA_MU + 0.2, INITIAL_MU + MAX_DELTA_MU - 0.2))


# -- perturbations and speed ramps -------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """One belt-speed perturbation: a triangular rate warp at a fixed onset."""

    kind: PerturbationKind
    onset_pct_gc: float = 0.15
    magnitude: float = 0.8        # fraction of belt speed
    ramp_time: float = 0.1        # s, each of the two ramps
    affected_cycles: frozenset = field(default_factory=frozenset)

    def multiplier(self, tau: float) -> float:
        """Phase-rate multiplier tau seconds after onset."""
        if tau < 0.0 or tau > 2.0 * self.ramp_time:
            return 1.0
        tri = (tau / self.ramp_time if tau <= self.ramp_time
               else (2.0 * self.ramp_time - tau) / self.ramp_time)
        if self.kind is PerturbationKind.FORWARD:
            return 1.0 + self.magnitude * tri
        return 1.0 - self.magnitude * tri


@dataclass(frozen=True)
class RampSpec:
    """Slow treadmill speed change: down to a fraction, hold, back up."""

    start_stride: int
    hold_strides: int = 6
    low_scale: float = 0.5
    rate_per_s: float = 0.376   # scale/s, a 0.5 m/s^2 ramp on a 1.33 m/s belt


# -- cable/motor/load-cell plant ---------------------------------------------

@dataclass
class PlantConfig:
    lever_arm_r: float = 50.0     # mm
    k_all: float = 12.5           # N/mm
    baseline_c: float = 300.0     # mm
    initial_slack_mm: float = 15.0
    v_max: float = 250.0          # mm/s motor envelope
    motor_tau_s: float = 0.001    # velocity-loop lag
    force_noise_sd: float = 0.2   # N, measurement only
    mig_max: float = 4.0          # mm
    mig_stride_tau: float = 3.0   # strides
    sway_deg: float = 1.75        # backward-perturbation shank sway
    sway_window_s: float = 0.25


@dataclass
class PlantState:
    l_cable: float                # mm, current cable/tendon length
    motor_v: float = 0.0          # mm/s, lagged actual velocity (retraction +)
    migration: float = 0.0        # mm
    stride_index: int = 0


CableStep = Callable[[float, float, float], tuple[float, ...]]


def bind_cable(state: PlantState, tendon_truth: TendonModel,
               config: PlantConfig, dt: float,
               noise: Optional[Iterator[float]] = None) -> CableStep:
    """The cable plant under ticks of dt, with what a run holds fixed bound
    once: the motor lag alpha = 1 - exp(-dt / motor_tau_s), the envelope, the
    truth tendon, the noise level and the motor-position reference.

    Returns step(cmd_v, theta_df, migration) -> (f_truth, f_meas, l_cable,
    l_rate, motor_pos), which advances `state` one tick under a velocity
    command at the tick's DF angle and suit migration (mm). It writes
    state.motor_v and state.l_cable and reads them back on the next tick.
    noise yields the standard-normal draws of the load-cell noise, one per
    tick while force_noise_sd > 0 (None: noiseless readings).

    The clamps are the comparisons max(lo, min(hi, x)) performs, so they
    keep its NaN semantics: a NaN command drives at +v_max, and a NaN
    force reads 0.
    """
    vm = config.v_max
    alpha = 1.0 - math.exp(-dt / config.motor_tau_s)
    r, k_all, c = (tendon_truth.lever_arm_r, tendon_truth.k_all,
                   tendon_truth.baseline_c)
    noise_sd = config.force_noise_sd
    noisy = noise is not None and noise_sd > 0.0
    pos_ref = config.baseline_c + config.initial_slack_mm
    radians = math.radians

    def step(cmd_v: float, theta_df: float,
             migration: float) -> tuple[float, ...]:
        v_target = cmd_v if cmd_v < vm else vm               # min(vm, cmd_v)
        v_target = v_target if v_target > -vm else -vm       # max(-vm, .)
        motor_v = state.motor_v
        motor_v += alpha * (v_target - motor_v)
        l_cable = state.l_cable - motor_v * dt
        state.motor_v = motor_v
        state.l_cable = l_cable
        force = k_all * (r * radians(theta_df) + c - migration - l_cable)
        force = force if force > 0.0 else 0.0                # max(0.0, force)
        f_meas = force
        if noisy:
            f_meas = force + noise_sd * next(noise)
            f_meas = f_meas if f_meas > 0.0 else 0.0
        return force, f_meas, l_cable, -motor_v, pos_ref - l_cable
    return step


def _normal_draws(rng: np.random.Generator) -> Iterator[float]:
    """Endless standard normals drawn BLOCK_TICKS at a time: the values of
    one scalar rng.standard_normal() per draw."""
    blocks = iter(lambda: rng.standard_normal(BLOCK_TICKS).tolist(), None)
    return itertools.chain.from_iterable(blocks)


def _sample_clock(t_s) -> tuple[np.ndarray, np.ndarray]:
    """(log clock, sample time) of tick times in s: np.rint(t * 1000.0), the
    whole ms, and round(t * 1000.0, 6), the KinematicSample time.

    Within 4e-7 ms of a whole ms, round(x, 6) is that whole ms exactly (the
    exact binary value rounds to it at six decimals, and a whole number is a
    float), so when every tick is that close the rint column serves as both.
    A clock that has drifted further rounds tick by tick.
    """
    ms = np.asarray(t_s) * 1000.0
    t_ms = np.rint(ms)
    if abs(ms - t_ms).max() <= 4e-7:    # NaN fails it too
        return t_ms, t_ms
    return t_ms, np.array([round(x, 6) for x in ms.tolist()])


def _first(mask: np.ndarray) -> int:
    """Index of the first True of mask, len(mask) when there is none."""
    k = int(mask.argmax())
    return k if mask[k] else len(mask)


def _positive_dt(dt: float) -> None:
    if not dt > 0.0:     # NaN too
        raise ValueError(f"dt must be positive, got {dt!r}")


class _Samples(Sequence):
    """WorldBlock.kin: each tick's KinematicSample, built only when read,
    from the block's sample clock and its frames."""

    __slots__ = ("_t", "_frames")

    def __init__(self, t_sample: np.ndarray, frames: np.ndarray):
        self._t, self._frames = t_sample, frames

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i: int) -> KinematicSample:
        return KinematicSample(float(self._t[i]), *self._frames[i].tolist())


class WorldBlock(NamedTuple):
    """Per-tick columns of one block of world ticks: what the estimation
    pass, the closed loop and the log read. Every column is an array but
    `kin`, which builds a tick's KinematicSample when it is read (a one-tick
    block holds its one sample in a list). `frames` holds kin's angles and
    rates, which the closed loop and the log read from it.

    The clock columns are accumulated in bulk over plain stretches of
    walking ticks, ended at a wrap or a pending onset; only the wrap, onset,
    ramp-change and perturbation-window ticks run the scalar clock body
    (see "Blocks" in the module docstring)."""

    t_ms: np.ndarray          # tick time rounded to whole ms (the log's clock)
    kin: Sequence[KinematicSample]   # its t_ms rounded to 1e-6 ms
    walking: np.ndarray       # bool, False while standing
    scale: np.ndarray         # phase-rate multiplier of ramps and perturbations
    migration: np.ndarray     # mm
    perturb_kind: np.ndarray  # 0 none, 1 forward, 2 backward perturbation window
    bio: np.ndarray           # normalized biological torque, 0 while standing
    frames: np.ndarray        # (n, 6) floats: kin's values after t_ms, by tick


class _Clock(NamedTuple):
    """Per-tick clock columns of one block (`GaitWorld._clock`)."""

    t_s: np.ndarray
    walking: np.ndarray
    phase: np.ndarray
    scale: np.ndarray
    migration: np.ndarray
    perturb_kind: np.ndarray
    sway: list        # (tick, sway, sway rate) in backward sway windows


_PERTURB_CODE = {None: 0, PerturbationKind.FORWARD: 1,
                 PerturbationKind.BACKWARD: 2}


class GaitWorld:
    """Phase clock, kinematics, perturbation/ramp warping, and the cable.

    Drives a standing segment first (all angles zero) so the controller can
    pretighten, then runs the gait from swing onset. Stride count follows
    the phase wrap; suit migration steps once per stride. The open-loop
    part advances in blocks (`advance_block`); the closed loop steps the
    cable one tick at a time through the step `cable_step` binds.
    """

    def __init__(self, tmpl: GaitTemplate, config: PlantConfig, seed: int = 0,
                 standing_s: float = 1.0,
                 perturbations: Optional[list[PerturbationSpec]] = None,
                 ramp: Optional[RampSpec] = None):
        self.tmpl = tmpl
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.standing_s = standing_s
        self.perturbations = {s: p for p in (perturbations or [])
                              for s in p.affected_cycles}
        self.ramp = ramp
        self.truth_tendon = TendonModel(config.lever_arm_r, config.k_all,
                                        config.baseline_c, 0.0)
        self.state = PlantState(
            l_cable=config.baseline_c + config.initial_slack_mm)
        self.phase = tmpl.stance_ratio  # gait begins at swing onset
        self.t_s = 0.0
        self.scale = 1.0
        self._ramp_scale = 1.0
        self._pert_active: Optional[tuple[PerturbationSpec, float]] = None
        self._pert_done: set[int] = set()
        self._noise = _normal_draws(self.rng)

    def advance(self, dt: float) -> KinematicSample:
        """Advance time by dt and return the truth kinematics at the new
        time: the sample of the block of one tick."""
        return self._one_tick(dt)[1]

    def advance_block(self, dt: float, n: int) -> WorldBlock:
        """Advance n ticks of dt and return each tick's world values."""
        _positive_dt(dt)
        if n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        if n == 1:
            t_ms, kin, walking, bio = self._one_tick(dt)
            return WorldBlock(
                np.array([t_ms]), [kin], np.array([walking]),
                np.array([self.scale]), np.array([self.state.migration]),
                np.array([self._perturb_code()]), np.array([bio]),
                np.array([kin[1:]]))
        tmpl = self.tmpl
        clock = self._clock(dt, n)
        # Walking never stops once started: ticks w0.. walk, the rest stand
        # with every angle and rate zero. frames holds the six
        # KinematicSample channels after t_ms, one row per tick.
        w0 = _first(clock.walking)
        frames = np.zeros((n, 6))
        bio = np.zeros(n)
        if w0 < n:
            walk_phase = clock.phase[w0:]
            frames.T[:, w0:] = gen_frames(tmpl, walk_phase, clock.scale[w0:])
            bio[w0:] = biological_torques(tmpl, walk_phase)
        if clock.sway:
            at, sway, sway_rate = map(np.array, zip(*clock.sway))
            frames[at, 1:3] += sway[:, None]        # theta_sk, theta_df
            frames[at, 4:6] += sway_rate[:, None]   # and their rates
        t_ms, t_sample = _sample_clock(clock.t_s)
        return WorldBlock(t_ms, _Samples(t_sample, frames), clock.walking,
                          clock.scale, clock.migration, clock.perturb_kind,
                          bio, frames)

    def _one_tick(self, dt: float) -> tuple[float, KinematicSample, bool,
                                            float]:
        """One tick through the scalar clock body and the scalar curves:
        (t_ms, sample, walking, bio), the same bits as a block's tick without
        numpy's per-call overhead. round(x) rounds half to even, as np.rint
        does, and round(x, 6) defines the sample time."""
        _positive_dt(dt)
        self.t_s = t_s = self.t_s + dt
        ms = t_s * 1000.0
        walking = t_s >= self.standing_s
        if not walking:
            return (float(round(ms)),
                    KinematicSample(round(ms, 6), *(0.0,) * 6), walking, 0.0)
        sway = self._walk_tick(t_s, dt)
        tmpl, phase = self.tmpl, self.phase
        kin = gen_frame(tmpl, phase, self.scale, round(ms, 6))
        if sway is not None:
            s, rate = sway
            kin = kin._replace(theta_sk=kin.theta_sk + s,
                               theta_df=kin.theta_df + s,
                               theta_sk_rate=kin.theta_sk_rate + rate,
                               theta_df_rate=kin.theta_df_rate + rate)
        return float(round(ms)), kin, walking, biological_torque(tmpl, phase)

    def _clock(self, dt: float, n: int) -> _Clock:
        """The clock columns of the next n ticks of dt. Time is one
        accumulation from the carried t_s; walking ticks go in bulk
        stretches, each ended by a tick of the scalar body (see WorldBlock)."""
        t = np.full(n + 1, dt)
        t[0] = self.t_s
        t = np.add.accumulate(t)[1:]
        walking = t >= self.standing_s
        phase, scale, migration = np.empty(n), np.empty(n), np.empty(n)
        kind = np.zeros(n, dtype=np.int64)   # no window opens while standing
        sway = []
        period = self.tmpl.period
        i = _first(walking)     # the standing ticks keep the carried clock
        phase[:i], scale[:i] = self.phase, self.scale
        migration[:i] = self.state.migration
        while i < n:
            stop = self._stretch_stop()
            if stop is not None:
                # phase += dt * scale / period, tick by tick, up to the tick
                # that wraps or reaches a pending onset
                ramp_scale = self._ramp_scale
                step = np.full(n - i + 1, dt * ramp_scale / period)
                step[0] = self.phase
                stretch = np.add.accumulate(step)[1:]
                j = i + _first(stretch >= stop)
                if j > i:
                    phase[i:j] = stretch[:j - i]
                    scale[i:j] = ramp_scale
                    migration[i:j] = self.state.migration
                    self.phase, self.scale = phase[j - 1].item(), ramp_scale
                    i = j
                    if i == n:
                        break
            row = self._walk_tick(t[i].item(), dt)
            if row is not None:
                sway.append((i, *row))
            phase[i], scale[i] = self.phase, self.scale
            migration[i], kind[i] = self.state.migration, self._perturb_code()
            i += 1
        self.t_s = t[-1].item()
        return _Clock(t, walking, phase, scale, migration, kind, sway)

    def _walk_tick(self, t_s: float, dt: float) -> Optional[tuple[float,
                                                                  float]]:
        """The scalar clock body of one walking tick at time t_s: the ramp,
        the perturbation window, the phase step and wrap (stride and
        migration), then a pending perturbation onset. Returns the tick's
        backward sway (angle, rate), or None outside a sway window."""
        cfg, st = self.config, self.state
        stride = st.stride_index
        ramp_scale = self._ramp_scale
        target = self._ramp_target()
        if target is not None:
            rate = self.ramp.rate_per_s
            if ramp_scale < target:
                ramp_scale = min(target, ramp_scale + rate * dt)
            elif ramp_scale > target:
                ramp_scale = max(target, ramp_scale - rate * dt)
            self._ramp_scale = ramp_scale
        scale = ramp_scale
        pert = self._pert_active
        if pert is not None:
            spec, t0 = pert
            window = 2.0 * spec.ramp_time
            if spec.kind is PerturbationKind.BACKWARD:
                window = max(window, cfg.sway_window_s)
            if t_s - t0 > window:
                pert = None
            else:
                scale *= spec.multiplier(t_s - t0)
        phase = self.phase + dt * scale / self.tmpl.period
        if phase >= 1.0:
            phase -= 1.0
            st.stride_index = stride = stride + 1
            st.migration = cfg.mig_max * (
                1.0 - math.exp(-stride / cfg.mig_stride_tau))
        spec = self.perturbations.get(stride)
        if (spec is not None and pert is None and stride not in self._pert_done
                and phase >= spec.onset_pct_gc):
            pert = (spec, t_s)
            self._pert_done.add(stride)
        self.phase, self.scale, self._pert_active = phase, scale, pert
        if pert is None or pert[0].kind is not PerturbationKind.BACKWARD:
            return None
        tau = t_s - pert[1]
        sway_w, sway_a = cfg.sway_window_s, cfg.sway_deg
        if tau > sway_w:
            return None
        return (-sway_a * math.sin(math.pi * tau / sway_w) ** 2,
                -sway_a * math.pi / sway_w
                * math.sin(2.0 * math.pi * tau / sway_w))

    def _ramp_target(self) -> Optional[float]:
        """The scale the ramp drives toward in the current stride; None
        before the ramp starts or without one."""
        ramp, stride = self.ramp, self.state.stride_index
        if ramp is None or stride < ramp.start_stride:
            return None
        return (ramp.low_scale if stride < ramp.start_stride
                + ramp.hold_strides else 1.0)

    def _stretch_stop(self) -> Optional[float]:
        """The phase at which a plain stretch from here ends: the onset of
        the stride's pending perturbation, else the wrap at 1.0. None when
        the next walking tick's clock body would do more than step the
        phase: a perturbation window is open, or the ramp scale changes."""
        target = self._ramp_target()
        if self._pert_active is not None or target is not None and (
                self._ramp_scale < target or self._ramp_scale > target):
            return None
        stride = self.state.stride_index
        spec = self.perturbations.get(stride)
        if (spec is not None and stride not in self._pert_done
                and spec.onset_pct_gc < 1.0):
            return spec.onset_pct_gc
        return 1.0

    def _perturb_code(self) -> int:
        pert = self._pert_active
        return _PERTURB_CODE[None if pert is None else pert[0].kind]

    def cable_step(self, dt: float) -> CableStep:
        """This world's cable bound for ticks of dt (see `bind_cable`):
        step(cmd_v, theta_df, migration) -> (f_truth, f_meas, l_cable,
        l_rate, motor_pos). Every step of a world draws its force noise from
        the world's one stream."""
        return bind_cable(self.state, self.truth_tendon, self.config, dt,
                          self._noise)
