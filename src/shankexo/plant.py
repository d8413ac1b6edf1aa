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

Blocks. GaitWorld advances in blocks of ticks (BLOCK_TICKS, four simulated
seconds at 1 kHz, so a 60-stride run pays the fixed numpy cost of a block
about 16 times, not 62). The clock (time, ramp, perturbation window, phase
wrap, stride, migration and sway) is accumulated in bulk: time is one
`np.add.accumulate` of dt from the carried value, and the walking ticks go
in stretches. A stretch accumulates the ramp scale, multiplies it by the
open window's multiplier and accumulates the phase increment, up to the
first wrap, pending onset or window close. Scalar code runs once per such
event: the wrap's stride and migration, and the onset that opens a window.
numpy then evaluates the gait curves and the biological torque of the
whole block, and the block hands them over as columns only. This is the
world's only path: `advance(dt)` is the sample of a block of one tick,
built from its columns. Nothing in the world reads cable state, so a
block may run ahead of the closed loop; the world's scalar attributes
(`t_s`, `phase`, `scale`, `state.stride_index`, `state.migration`) then
hold end-of-block values. The block's columns
(`WorldBlock`) carry each tick's own values of what the closed loop reads;
a tick's phase and stride are the scalar attributes of a world advanced
one tick at a time.

Bit-equality. Each curve is written once, over arrays. Its scalar form, one
value at a time in plain Python, is kept in the tests
(`tests/scalar_reference.py`), and the block columns equal it bit for bit,
for any block size. That holds because the array code repeats the scalar
operation order and uses only operations where numpy matches `math`
exactly here: arithmetic, `sin`, `cos`, `radians`, `rint`,
`np.add.accumulate`, which adds strictly in sequence as `+=` does, and
`np.float_power`, which is C `pow` as Python `**` is (the torque
sharpness and the sway). Where it does not (`exp`, `np.power`,
`round(x, ndigits)`) the scalar Python operation stays: `math.exp` for
migration. The ramp's clamped steps are an accumulation clipped at the
target, and the window's triangle is `np.minimum` of its two sides. The
sample time is `round(t * 1000.0, 6)`, which `_sample_clock` computes as
np.rint(x * 1e6) / 1e6 and leaves to `round` only at the exact ties of
x * 1e6 and where |x * 1e6| >= 2**52.

Cable. Only the cable's velocity state and length form a loop with the
controller, so the plant splits in two. The open-loop part is columns
(`GaitWorld.cable_columns`): the zero-force length r * radians(df) + c -
migration of each tick (`free_length`) and the load-cell noise, drawn from
the world's Generator a block at a time; n draws equal n scalar
`standard_normal()` draws, so every column of a world reads one stream.
The loop part is a few lines that live once, in `Controller.run`'s loop
body, over the constants `bind_cable` returns (`Cable`: the motor lag
alpha = 1 - exp(-dt / motor_tau_s), the envelope, the stiffness, the
motor-position reference). The envelope is the run's one: the controller
clips its commands to it too. The clamps are bare comparisons that return
what the `max`/`min` forms return, NaN included.

Settable values. Each numeric field of the configs a run may set
(`PlantConfig`, `GaitTemplate`, and `controller.ControllerConfig` and
`harness.ScenarioConfig`, which import this module) declares the values it
admits once, as an `Interval` in its `dataclasses.field` metadata, beside
its unit and the reason for the bound; `check_fields` reads them.

Template validation. `build_template` checks each field alone
(`check_fields`), then the fields together: the knot order, the shank
span, the swing return window, and the numbers of the parts that run on a
template, read from the modules that own them: the detector thresholds and
the IMU period from `gait_signals`, the initial profile and the update
guard from `profile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .gait_signals import IMU_PERIOD_MS, DetectorConfig, KinematicSample
from .profile import (INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2, MAX_DELTA_MU,
                      MAX_DELTA_SIGMA, SIGMA_BOUNDS, RawStrideFeatures,
                      feature_targets)
from .tendon import TendonModel

BLOCK_TICKS = 4000   # world ticks per block: four simulated seconds at 1 kHz


class TemplateError(ValueError):
    """Template parameters violate the event-feature or landmark contracts."""


# -- settable values ----------------------------------------------------------

def _is_number(x) -> bool:
    """A finite int or float, not a bool (JSON reads NaN and Infinity)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


# The value each annotation of a settable field takes, as a description and
# a test; JSON gives a pair as a list.
_VALUE_TYPES = {
    "float": ("a finite number", _is_number),
    "int": ("an integer", lambda x: _is_number(x) and isinstance(x, int)),
    "Optional[float]": ("a finite number or None",
                        lambda x: x is None or _is_number(x)),
    "tuple[float, float]": ("a pair of finite numbers", lambda x: isinstance(
        x, (list, tuple)) and len(x) == 2 and all(map(_is_number, x))),
}

# The value of a field whose Interval is not finite: NaN and the infinities
# are floats.
_ANY_NUMBER = ("a number", lambda x: _is_number(x) or isinstance(x, float))


class Interval(NamedTuple):
    """The values a numeric field admits, from low to high, each end
    admitted when its flag is set. A count is an integer from low on, and
    its type and its bound have one wording. A field that is not finite
    admits any int or float, NaN and the infinities too."""

    low: float = -math.inf
    high: float = math.inf
    low_in: bool = False
    high_in: bool = False
    count: bool = False
    finite: bool = True

    def admits(self, x) -> bool:
        return ((x >= self.low if self.low_in else x > self.low)
                and (x <= self.high if self.high_in else x < self.high))

    def rule(self) -> str:
        """What a value must be, in the words of its error."""
        if self.count:
            return f"be an integer >= {self.low}"
        if (self.low, self.high) == (0.0, math.inf):
            return "not be negative" if self.low_in else "be positive"
        return (f"be in {'(['[self.low_in]}{self.low:g}, "
                f"{self.high:g}{')]'[self.high_in]}")


def within(*args, **kwargs) -> dict:
    """The `dataclasses.field` metadata that declares a field's Interval."""
    return {"interval": Interval(*args, **kwargs)}


FINITE = within()
POSITIVE = within(0.0)
NOT_NEGATIVE = within(0.0, low_in=True)


def check_fields(owner, values: dict, error: type, prefix: str = "",
                 fixed: Optional[dict] = None) -> None:
    """Raise error for the first of values (field name -> value) that is
    not a field of the dataclass owner, is one that fixed maps to what
    sets it, is not of its field's type, or is outside the Interval its
    field declares. The message names the field as prefix + name."""
    declared = {f.name: f for f in fields(owner)}
    for name, value in values.items():
        if fixed and name in fixed:
            raise error(f"{prefix}{name} is set from {fixed[name]}, not "
                        "overridden")
        if name not in declared:
            raise error(f"{prefix}{name} is not a field of {owner.__name__}")
        what, fits = _VALUE_TYPES[declared[name].type]
        bound = declared[name].metadata.get("interval")
        if bound and not bound.finite:
            (what, fits), bound = _ANY_NUMBER, None
        if not fits(value):
            rule = bound.rule() if bound and bound.count else f"be {what}"
        elif bound and value is not None and not bound.admits(value):
            rule = bound.rule()
        else:
            continue
        raise error(f"{prefix}{name} must {rule}, not {value!r}")


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
    period: float = field(metadata=POSITIVE)         # s
    stance_ratio: float = field(metadata=within(0.0, 1.0))
    theta_sk_span: tuple[float, float]
    ft_peak: float = field(metadata=FINITE)      # deg, contact foot-pitch peak
    g_max: float = field(metadata=POSITIVE)      # deg, mid-stance excess hump
    g_rise_end: float = field(metadata=FINITE)   # u, end of the excess rise
    g_fall_start: float = field(metadata=FINITE)  # u
    g_fall_end: float = field(metadata=FINITE)   # u
    u_plunge: float = field(metadata=FINITE)     # u, start of the plunge
    g_dip: float = field(metadata=POSITIVE)      # deg, floor before the plunge
    g_plunge: float = field(metadata=POSITIVE)   # deg, gained in the plunge
    # s, rate ease-out after foot-off
    swing_ease_s: float = field(default=0.0015, metadata=POSITIVE)
    # swing fraction held at the foot-off pose
    swing_hold: float = field(default=0.30, metadata=NOT_NEGATIVE)
    torque_sharpness: float = field(default=1.0, metadata=POSITIVE)
    df_peak: tuple[float, float] = (0.0, 0.0)   # (value deg, phase-of-stance)
    landmarks: tuple[float, float, float] = (0.0, 0.0, 0.0)  # nominal fc/mdf/fo

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
        return tuple(c.item() for c in _stance_poses(self, np.array([u])))


def _piecewise(x: np.ndarray, knots: tuple, pieces: tuple,
               side: str = "left") -> list[np.ndarray]:
    """Evaluate each piece only on the x it covers.

    With side="left", pieces[i] covers knots[i-1] < x <= knots[i] (an
    `if x <= knot` chain, as in the scalar references); with side="right",
    knots[i-1] <= x < knots[i]. The last piece covers the rest. Every piece
    returns the same number of columns, arrays or scalars.
    """
    seg = np.searchsorted(knots, x, side=side)
    cols: list[np.ndarray] = []
    for i in np.flatnonzero(np.bincount(seg)).tolist():
        at = seg == i
        vals = pieces[i](x[at])
        if not cols:
            cols = [np.empty_like(x) for _ in vals]
        for col, v in zip(cols, vals):
            col[at] = v
    return cols


def _g_array(tmpl: GaitTemplate, u: np.ndarray) -> list[np.ndarray]:
    """The excess G and dG/du over an array of stance fractions.

    The terminal plunge is a half cosine bump in rate, so the rate
    extremum lands exactly on stance end and the angle arrives there
    still steep; the swing ease-out finishes the bump in time.
    """
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
    """(theta_sk, theta_ft, dsk_du, dft_du) over an array of stance
    fractions."""
    sk0, sk1 = tmpl.theta_sk_span
    dsk = sk1 - sk0
    g, dg = _g_array(tmpl, u)
    return sk0 + dsk * _s3(u), tmpl.ft_peak - g, dsk * _ds3(u), -dg


def _swing_curves(tmpl: GaitTemplate, w: np.ndarray) -> list[np.ndarray]:
    """(theta_sk, theta_ft, dsk_dw, dft_dw) over an array of swing fractions:
    the foot-pitch rate eases out from the plunge, the pose holds at foot-off,
    then half-cosines return every channel to its contact pose."""
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
    """Kinematic frames at arrays of gait phases in [0, 1) and speed scales,
    which rescale rates only: (theta_ft, theta_sk, theta_df, theta_ft_rate,
    theta_sk_rate, theta_df_rate)."""
    rho = tmpl.stance_ratio
    cycle_rate = speed_scale / tmpl.period
    sk, ft, dsk, dft = _piecewise(
        phase, (rho,),
        (lambda p: _stance_poses(tmpl, p / rho),
         lambda p: _swing_curves(tmpl, (p - rho) / (1.0 - rho))), side="right")
    mult = np.where(phase < rho, cycle_rate / rho, cycle_rate / (1.0 - rho))
    sk_rate = dsk * mult
    ft_rate = dft * mult
    return ft, sk, sk - ft, ft_rate, sk_rate, sk_rate - ft_rate


def biological_torques(tmpl: GaitTemplate, phase: np.ndarray) -> np.ndarray:
    """Normalized single-crest ankle torque at an array of phases, peaking
    at the DF-peak phase and zero outside stance."""
    rho = tmpl.stance_ratio
    out = np.zeros_like(phase)
    stance = (0.0 <= phase) & (phase <= rho)
    u = phase[stance] / rho
    u_pk = tmpl.df_peak[1]
    base = np.where(u <= u_pk,
                    0.5 * (1.0 - np.cos(np.pi * u / u_pk)),
                    0.5 * (1.0 + np.cos(np.pi * (u - u_pk) / (1.0 - u_pk))))
    # Python ** is C pow. np.power (and ** on arrays) differs from it in the
    # last bit; np.float_power calls C pow on each element, so it is the
    # bit-equal array form (tests/test_artifacts.py pins that).
    out[stance] = np.float_power(base, tmpl.torque_sharpness)
    return out


# -- template construction and validation -----------------------------------

_GRID_N = 4000

# The excess profile and torque sharpness the activities share; LR, the
# shortest stance, changes four of them.
_SHAPE = dict(g_max=18.0, g_rise_end=0.25, g_fall_start=0.62, g_fall_end=0.90,
              u_plunge=0.91, g_dip=1.5, g_plunge=5.3, torque_sharpness=3.0)
ACTIVITY_DEFAULTS: dict[Activity, dict] = {
    Activity.LW: dict(_SHAPE, period=1.13, stance_ratio=0.674,
                      theta_sk_span=(-14.0, 18.0)),
    Activity.LR: dict(_SHAPE, period=0.72, stance_ratio=0.514,
                      theta_sk_span=(-13.0, 17.0), g_rise_end=0.27,
                      g_fall_end=0.87, u_plunge=0.88, g_plunge=6.3),
    Activity.RA: dict(_SHAPE, period=1.13, stance_ratio=0.683,
                      theta_sk_span=(-12.0, 20.0)),
    Activity.RD: dict(_SHAPE, period=1.03, stance_ratio=0.691,
                      theta_sk_span=(-15.0, 17.0)),
}

_SAMPLE_ATTENUATION = 0.85   # worst-case sampled plunge extremum vs true peak
# The GaitTemplate fields that no override sets, each with what sets it:
# build_template's activity, and the stance curves (`_finalize`).
FIXED_FIELDS = {"activity": "activity",
                **dict.fromkeys(("df_peak", "landmarks"), "the stance curves")}


def build_template(activity: Activity | str, **overrides) -> GaitTemplate:
    """Construct and validate the gait template for an activity."""
    act = Activity(activity) if not isinstance(activity, Activity) else activity
    params = dict(ACTIVITY_DEFAULTS[act])
    params.update(overrides)
    check_fields(GaitTemplate, params, TemplateError, fixed=FIXED_FIELDS)
    params.setdefault("ft_peak", params["g_dip"] + params["g_plunge"] + 1.5)
    tmpl = GaitTemplate(activity=act, **params)
    _validate_knots(tmpl)
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
    # FO: the pitch-rate minimum, at u = 1, the grid's last point
    return replace(tmpl,
                   df_peak=(float(df[i_pk]), u_pk),
                   landmarks=(tmpl.theta_sk_span[0], float(sk[i_pk]), float(sk[-1])))


def _validate_knots(tmpl: GaitTemplate) -> None:
    """The checks across fields that need no curve, made before the
    curves divide by the knot spans; `check_fields` has checked each
    field alone."""
    # The swing ease and hold must leave a window for the return to the
    # contact pose (w_h < 1 in `_swing_curves`).
    w_e = tmpl.swing_ease_s / (tmpl.period * (1.0 - tmpl.stance_ratio))
    if not w_e + tmpl.swing_hold < 1.0:
        raise TemplateError(f"swing_hold must leave a return window after the "
                            f"{w_e:.4f} swing ease, got {tmpl.swing_hold!r}")
    sk0, sk1 = tmpl.theta_sk_span
    if not sk0 < sk1:
        raise TemplateError("shank span must increase across stance")
    if not (0.0 < tmpl.g_rise_end <= tmpl.g_fall_start < tmpl.g_fall_end
            <= tmpl.u_plunge < 1.0):
        raise TemplateError("excess-profile knots out of order")


def _validate(tmpl: GaitTemplate, grid: tuple[np.ndarray, ...]) -> None:
    """The checks of the sampled stance curves."""
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

    def multiplier(self, tau):
        """Phase-rate multiplier tau seconds after onset, of a float or an
        array: 1 +- magnitude * tri, where tri rises from 0 to 1 over
        ramp_time and falls back over the next; 1 outside the window."""
        rt = self.ramp_time
        mag = (self.magnitude if self.kind is PerturbationKind.FORWARD
               else -self.magnitude)
        tri = np.minimum(tau, 2.0 * rt - tau) / rt
        return np.where((tau < 0.0) | (tau > 2.0 * rt), 1.0, 1.0 + mag * tri)


@dataclass(frozen=True)
class RampSpec:
    """Slow treadmill speed change: down to a fraction, hold, back up."""

    start_stride: int
    hold_strides: int = 6
    low_scale: float = 0.5
    rate_per_s: float = 0.376   # scale/s, a 0.5 m/s^2 ramp on a 1.33 m/s belt


# -- cable/motor/load-cell plant ---------------------------------------------

# The simulated world around the cable, fixed: the slack the cable starts
# with, the suit migration MIG_MAX * (1 - exp(-stride / MIG_STRIDE_TAU)),
# and the backward perturbation's shank sway.
INITIAL_SLACK_MM = 15.0   # mm, cable length past the baseline at the start
MIG_MAX = 4.0             # mm
MIG_STRIDE_TAU = 3.0      # strides
SWAY_DEG = 1.75           # deg, peak shank sway
SWAY_WINDOW_S = 0.25      # s, sway duration from the perturbation's onset


@dataclass
class PlantConfig:
    """The cable plant: the truth tendon, the motor and the load cell, the
    plant values a run's config may override. The world around the cable
    (initial slack, suit migration, sway) is the module constants above."""

    # The run divides by the tendon model's values and the motor lag (zero
    # raises in TendonModel or bind_cable), a zero envelope stalls the
    # motor, and a negative value of any of them inverts the plant.
    lever_arm_r: float = field(default=50.0, metadata=POSITIVE)    # mm
    k_all: float = field(default=12.5, metadata=POSITIVE)          # N/mm
    baseline_c: float = field(default=300.0, metadata=POSITIVE)    # mm
    v_max: float = field(default=250.0, metadata=POSITIVE)   # mm/s envelope
    motor_tau_s: float = field(default=0.001, metadata=POSITIVE)   # s, lag
    # N, measurement only; a negative sd reads as no noise
    force_noise_sd: float = field(default=0.2, metadata=NOT_NEGATIVE)


@dataclass
class PlantState:
    """The cable's state, which the closed loop (`Controller.run`) reads
    before a stretch and writes after it, and the world's suit migration
    and stride. The cable's reading is f_meas, l_cable, its rate -motor_v
    and the motor position `Cable.pos_ref` - l_cable."""

    l_cable: float                # mm, current cable/tendon length
    motor_v: float = 0.0          # mm/s, lagged actual velocity (retraction +)
    f_meas: float = 0.0           # N, the load cell's last reading
    migration: float = 0.0        # mm
    stride_index: int = 0


class Cable(NamedTuple):
    """What the closed loop's cable lines (`Controller.run`) hold fixed
    under ticks of dt, and the state they advance: `state.motor_v`,
    `state.l_cable` and `state.f_meas`."""

    state: PlantState
    dt: float
    alpha: float     # motor lag, 1 - exp(-dt / motor_tau_s)
    v_max: float     # motor envelope
    k_all: float     # truth tendon stiffness
    pos_ref: float   # motor position 0 at this cable length


def bind_cable(state: PlantState, tendon_truth: TendonModel,
               config: PlantConfig, dt: float) -> Cable:
    """The cable plant's constants under ticks of dt. Per tick the loop
    clamps the command to the envelope, lags the motor velocity by alpha,
    shortens the cable by motor_v * dt, and reads the force
    k_all * (l_free - l_cable) clipped at 0, plus the load-cell noise
    clipped at 0. l_free and the noise are the open-loop columns of
    `GaitWorld.cable_columns`. The clamps are the comparisons
    max(lo, min(hi, x)) performs, so a NaN command drives at +v_max, and
    a NaN force reads 0."""
    return Cable(state, dt, 1.0 - math.exp(-dt / config.motor_tau_s),
                 config.v_max, tendon_truth.k_all,
                 config.baseline_c + INITIAL_SLACK_MM)


def free_length(tendon_truth: TendonModel, theta_df, migration):
    """The cable's zero-force length (mm) at DF angles theta_df (deg) and
    suit migrations (mm): r * radians(theta_df) + c - migration, in that
    order, over arrays, with no warning where one is not a number."""
    with np.errstate(all="ignore"):
        return (tendon_truth.lever_arm_r * np.radians(theta_df)
                + tendon_truth.baseline_c - migration)


def _sample_clock(t_s) -> tuple[np.ndarray, np.ndarray]:
    """(log clock, sample time) of tick times in s: np.rint(t * 1000.0), the
    whole ms, and round(t * 1000.0, 6), the KinematicSample time.

    `round` rounds the exact binary value of x = t * 1000.0 at six decimals,
    half to even. The product p = x * 1e6 is off the exact one by at most
    half its ulp, and below 2**52 every .5 boundary is a float on p's grid,
    so a p that is not one rounds by rint as the exact value does; the
    integer n = rint(p) is exact, and n / 1e6 is the correctly rounded float
    that `round` returns. Only the finite ticks whose p is an exact tie or
    has |p| >= 2**52 round by `round`; a non-finite x is its own n / 1e6.
    """
    ms = np.asarray(t_s) * 1000.0
    # p overflows past 1.8e302 ms, and p - n is inf - inf at an infinity
    with np.errstate(over="ignore", invalid="ignore"):
        p = ms * 1e6
        n = np.rint(p)
        odd = np.flatnonzero(((np.abs(p - n) == 0.5) | (np.abs(p) >= 2.0**52))
                             & np.isfinite(ms))
    t_sample = n / 1e6
    if len(odd):
        t_sample[odd] = [round(x, 6) for x in ms[odd].tolist()]
    return np.rint(ms), t_sample


def _first(mask: np.ndarray) -> int:
    """Index of the first True of mask, len(mask) when there is none."""
    k = int(mask.argmax())
    return k if mask[k] else len(mask)


def _positive_dt(dt: float) -> None:
    if not dt > 0.0:     # NaN too
        raise ValueError(f"dt must be positive, got {dt!r}")


class WorldBlock(NamedTuple):
    """Per-tick columns of one block of world ticks: what the estimation
    pass, the closed loop and the log read. A tick's KinematicSample is its
    `t_sample` and its `frames` row; the estimation pass reads its IMU
    ticks' columns. A block of one tick is the same columns of
    length one: `GaitWorld.advance` returns its sample. The clock columns
    are accumulated in bulk (see "Blocks" in the module docstring)."""

    t_ms: np.ndarray          # tick time rounded to whole ms (the log's clock)
    t_sample: np.ndarray      # tick time rounded to 1e-6 ms (the sample's)
    walking: np.ndarray       # bool, False while standing
    scale: np.ndarray         # phase-rate multiplier of ramps and perturbations
    migration: np.ndarray     # mm
    perturb_kind: np.ndarray  # 0 none, 1 forward, 2 backward perturbation window
    bio: np.ndarray           # normalized biological torque, 0 while standing
    frames: np.ndarray        # (n, 6) floats: a sample's values after t_ms


class _Clock(NamedTuple):
    """Per-tick clock columns of one block (`GaitWorld._clock`)."""

    t_s: np.ndarray
    walking: np.ndarray
    phase: np.ndarray
    scale: np.ndarray
    migration: np.ndarray
    perturb_kind: np.ndarray
    sway: tuple       # (ticks, sway, sway rate) of backward sway windows,
                      # () without one


_PERTURB_CODE = {PerturbationKind.FORWARD: 1, PerturbationKind.BACKWARD: 2}


class GaitWorld:
    """Phase clock, kinematics, perturbation/ramp warping, and the cable.

    Drives a standing segment first (all angles zero) so the controller can
    pretighten, then runs the gait from swing onset. Stride count follows
    the phase wrap; suit migration steps once per stride. The open-loop
    part advances in blocks (`advance_block`, with the cable's columns
    from `cable_columns`); the closed loop steps the cable one tick at a
    time over the constants `cable` binds.
    """

    def __init__(self, tmpl: GaitTemplate, config: PlantConfig, seed: int = 0,
                 standing_s: float = 1.0,
                 perturbations: Optional[list[PerturbationSpec]] = None,
                 ramp: Optional[RampSpec] = None):
        self.tmpl = tmpl
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.standing_s = standing_s
        # The specs of the strides whose perturbation has not begun
        self.perturbations = {s: p for p in (perturbations or [])
                              for s in p.affected_cycles}
        self.ramp = ramp
        self.truth_tendon = TendonModel(config.lever_arm_r, config.k_all,
                                        config.baseline_c, 0.0)
        self.state = PlantState(
            l_cable=config.baseline_c + INITIAL_SLACK_MM)
        self.phase = tmpl.stance_ratio  # gait begins at swing onset
        self.t_s = 0.0
        self.scale = 1.0
        self._ramp_scale = 1.0
        self._pert_active: Optional[tuple[PerturbationSpec, float]] = None

    def advance(self, dt: float) -> KinematicSample:
        """Advance time by dt and return the truth kinematics at the new
        time: the sample of the block of one tick."""
        block = self.advance_block(dt, 1)
        return KinematicSample(block.t_sample.item(), *block.frames[0].tolist())

    def advance_block(self, dt: float, n: int) -> WorldBlock:
        """Advance n ticks of dt and return each tick's world values."""
        _positive_dt(dt)
        if n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
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
            at, sway, sway_rate = clock.sway
            frames[at, 1:3] += sway[:, None]        # theta_sk, theta_df
            frames[at, 4:6] += sway_rate[:, None]   # and their rates
        return WorldBlock(*_sample_clock(clock.t_s), clock.walking,
                          clock.scale, clock.migration, clock.perturb_kind,
                          bio, frames)

    def _clock(self, dt: float, n: int) -> _Clock:
        """The clock columns of the next n ticks of dt. Time is one
        accumulation from the carried t_s. The walking ticks go in
        stretches, each one accumulation of the ramp scale and one of the
        phase, ended at the first wrap, pending onset or window close; the
        scalar code runs once per such event."""
        t = np.full(n + 1, dt)
        t[0] = self.t_s
        t = np.add.accumulate(t)[1:]
        walking = t >= self.standing_s
        phase, scale, migration = np.empty(n), np.empty(n), np.empty(n)
        kind = np.zeros(n, dtype=np.int64)   # no window opens while standing
        tau = np.zeros(n)    # s since a window's onset, set only inside one
        st, period = self.state, self.tmpl.period
        i = _first(walking)     # the standing ticks keep the carried clock
        phase[:i], scale[:i] = self.phase, self.scale
        migration[:i] = st.migration
        while i < n:
            # A stretch writes its columns up to the block's end; the next
            # stretch overwrites them from its own first tick on.
            ramp, pert = self._ramp(dt, n - i), self._pert_active
            s, end, stop = ramp, n - i, 1.0
            if pert is None:
                stop = min(stop, self._onset())
            else:
                spec, t0 = pert
                window = 2.0 * spec.ramp_time
                if spec.kind is PerturbationKind.BACKWARD:
                    window = max(window, SWAY_WINDOW_S)
                since = t[i:] - t0
                end = _first(since > window)   # its close tick has no window
                s = ramp * spec.multiplier(since)
            steps = np.empty(n - i + 1)
            steps[0] = self.phase
            steps[1:] = dt * s / period
            phase[i:] = np.add.accumulate(steps)[1:]
            scale[i:], migration[i:] = s, st.migration
            e = _first(phase[i:i + end] >= stop) if end else 0
            j = i + min(e + 1, end)     # the stretch is ticks i..j-1
            if j > i:
                self.phase = phase[j - 1].item()
                self.scale = scale[j - 1].item()
                if isinstance(ramp, np.ndarray):
                    self._ramp_scale = ramp[j - i - 1].item()
                if pert is not None:
                    kind[i:j] = _PERTURB_CODE[pert[0].kind]
                    tau[i:j] = since[:j - i]
            if e < end:     # tick j - 1 wraps, then may reach a pending onset
                if self.phase >= 1.0:
                    self.phase -= 1.0
                    st.stride_index += 1
                    st.migration = MIG_MAX * (
                        1.0 - math.exp(-st.stride_index / MIG_STRIDE_TAU))
                    phase[j - 1], migration[j - 1] = self.phase, st.migration
                if pert is None and self.phase >= self._onset():
                    spec = self.perturbations.pop(st.stride_index)
                    self._pert_active = (spec, t[j - 1].item())
                    kind[j - 1], tau[j - 1] = _PERTURB_CODE[spec.kind], 0.0
            elif end < n - i:
                self._pert_active = None
            i = j
        self.t_s = t[-1].item()
        sway = ()
        if np.count_nonzero(kind):
            w, a = SWAY_WINDOW_S, SWAY_DEG
            at = np.flatnonzero(
                (kind == _PERTURB_CODE[PerturbationKind.BACKWARD]) & (tau <= w))
            # the scalar operand order; np.float_power is C pow, as ** is
            tau = tau[at]
            sway = (at, -a * np.float_power(np.sin(np.pi * tau / w), 2.0),
                    -a * np.pi / w * np.sin(2.0 * np.pi * tau / w))
        return _Clock(t, walking, phase, scale, migration, kind, sway)

    def _onset(self) -> float:
        """The onset phase of the current stride's perturbation; inf when
        no spec is left for the stride (a spec leaves `perturbations` when
        its perturbation begins)."""
        spec = self.perturbations.get(self.state.stride_index)
        return math.inf if spec is None else spec.onset_pct_gc

    def _ramp(self, dt: float, n: int):
        """The ramp scale over the next n walking ticks in the current
        stride: the held float, or one accumulation of rate_per_s * dt
        toward the stride's target from _ramp_scale, clipped at the target.
        Once the accumulation reaches the target every later value clips to
        it, so it equals the tick-by-tick min(target, x + rate * dt) (going
        down, max(target, x - rate * dt): x + -c is x - c exactly)."""
        ramp, x, stride = self.ramp, self._ramp_scale, self.state.stride_index
        if ramp is None or stride < ramp.start_stride:
            return x
        target = (ramp.low_scale if stride < ramp.start_stride
                  + ramp.hold_strides else 1.0)
        if x == target:
            return x
        steps = np.full(n + 1, math.copysign(ramp.rate_per_s * dt, target - x))
        steps[0] = x
        clip = np.minimum if x < target else np.maximum
        return clip(np.add.accumulate(steps)[1:], target)

    def cable_columns(self, block: WorldBlock, m: int) -> np.ndarray:
        """The cable's open-loop columns over the block's first m ticks, a
        (2, m) array: the zero-force length (`free_length`) at each tick's
        DF angle and migration, and the load-cell noise force_noise_sd * z.
        The draws z are the next m of the world's one stream, the values of
        m scalar rng.standard_normal() draws; noiseless readings
        (force_noise_sd not above 0) draw none and read zeros."""
        cols = np.zeros((2, m))
        cols[0] = free_length(self.truth_tendon, block.frames[:m, 2],
                              block.migration[:m])
        sd = self.config.force_noise_sd
        if sd > 0.0:
            cols[1] = sd * self.rng.standard_normal(m)
        return cols
