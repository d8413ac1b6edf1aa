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
The C kernel (`loop.c`'s `shankexo_world`, one call a block) then evaluates
the gait curves and the biological torque at each walking tick's phase and
scale, from the template's vector of curve values (`_template_vector`,
built once per world), and numpy adds the sway. The block hands them over
as columns only: the clock columns the log reads, and one (9, n) array,
`WorldBlock.cols`, whose rows (`Row`) are the replay stream's sample
columns, then the cable's open-loop columns. This is the world's only path:
`advance(dt)` is the sample of a block of one tick, its first seven rows.
Nothing in the world reads cable state, so a block may run ahead of the
closed loop; the world's scalar attributes (`t_s`, `phase`, `scale`,
`state.stride_index`, `state.migration`) then hold end-of-block values. The
block's columns carry each tick's own values of what the closed loop reads;
a tick's phase and stride are the scalar attributes of a world advanced one
tick at a time.

Bit-equality. Each curve is written once: the gait curves and the torque in
`loop.c` (`shankexo_world` for a block, `shankexo_stance` for the
template's stance grid and `GaitTemplate.stance_pose`), the clock and the
sway over numpy arrays here. Their scalar forms, one value at a time in
plain Python, are kept in the tests (`tests/scalar_reference.py`), and the
block columns equal them bit for bit, for any block size. That holds
because the kernel and the array code repeat the scalar operation order and
use only operations that match `math` exactly here: the kernel's arithmetic
and libm's `sin`, `cos` and `pow`, which `math` and Python `**` call; and
numpy's arithmetic, `sin`, `radians`, `rint`, `np.add.accumulate`, which
adds strictly in sequence as `+=` does, and `np.float_power`, which is C
`pow` as `**` is (the sway). Where numpy does not (`exp`, `np.power`,
`round(x, ndigits)`) the scalar Python operation stays: `math.exp` for
migration. The ramp's clamped steps are an accumulation clipped at the
target, and the window's triangle is `np.minimum` of its two sides. The
sample time is `round(t * 1000.0, 6)`, which `_sample_clock` computes as
np.rint(x * 1e6) / 1e6 and leaves to `round` only at the exact ties of
x * 1e6 and where |x * 1e6| >= 2**52.

Cable. Only the cable's velocity state and length form a loop with the
controller, so the plant splits in two. The open-loop part is the block's
last two rows: the zero-force length r * radians(df) + c - migration of
each tick (`free_length`) and the load-cell noise, drawn from the world's
Generator a block at a time; n draws equal n scalar `standard_normal()`
draws, so every block of a world reads one stream.
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
from enum import Enum, IntEnum
from functools import partial
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

    def stance_pose(self, u: float) -> tuple[float, float, float, float]:
        """(theta_sk, theta_ft, dsk_du, dft_du) at stance fraction u."""
        return tuple(_stance_curves(self, [u])[:4, 0].tolist())


def _template_vector(tmpl: GaitTemplate) -> np.ndarray:
    """loop.c's template vector of tmpl: in each slot the value that
    `kernel.TEMPLATE_SLOTS` names, a GaitTemplate field, sk0 or sk1, the
    ends of theta_sk_span, or u_pk, the phase of df_peak."""
    from . import kernel    # built at import, which cli.main reports
    sk0, sk1 = tmpl.theta_sk_span
    named = dict(vars(tmpl), sk0=sk0, sk1=sk1, u_pk=tmpl.df_peak[1])
    return np.array([named[slot] for slot in kernel.TEMPLATE_SLOTS],
                    dtype=np.float64)


def _stance_curves(tmpl: GaitTemplate, u) -> np.ndarray:
    """(theta_sk, theta_ft, dsk_du, dft_du, G, dG/du) of tmpl at the n
    stance fractions u, a (6, n) array (loop.c's `shankexo_stance`)."""
    from . import kernel
    vector = _template_vector(tmpl)
    u = np.ascontiguousarray(u, dtype=np.float64)
    out = np.empty((6, len(u)))
    kernel.stance(vector.ctypes.data, len(u), u.ctypes.data, out.ctypes.data)
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
    sk, ft, _, dft, g, dg = _stance_curves(tmpl, us)
    return us, sk, ft, dft, g, dg


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
    # contact pose (w_h < 1 in loop.c's `swing_pose`).
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
    clipped at 0. l_free and the noise are the cable's rows of a world
    block (`Row`). The clamps are the comparisons
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


# The rows of a world block's columns (`WorldBlock.cols`): the replay
# stream's sample columns (the time, then KinematicSample's channels, in
# their order), then the cable's open-loop columns, its zero-force length
# (`free_length`) and its load-cell noise. loop.c's ROW_* enum declares the
# same rows.
Row = IntEnum("Row", [*KinematicSample._fields, "free_length", "noise"],
              start=0)


class WorldBlock(NamedTuple):
    """Per-tick columns of one block of world ticks: what the estimation
    pass, the closed loop and the log read. `cols` is one C-order (9, n)
    float64 array whose rows are `Row`: a tick's KinematicSample is its
    first seven rows, which the estimation pass reads at its IMU ticks,
    and the closed loop reads views of it in place. A block of one tick is
    the same columns of length one: `GaitWorld.advance` returns its
    sample. The clock columns are accumulated in bulk (see "Blocks" in the
    module docstring)."""

    t_ms: np.ndarray          # tick time rounded to whole ms (the log's clock)
    walking: np.ndarray       # bool, False while standing
    scale: np.ndarray         # phase-rate multiplier of ramps and perturbations
    migration: np.ndarray     # mm
    perturb_kind: np.ndarray  # 0 none, 1 forward, 2 backward perturbation window
    bio: np.ndarray           # normalized biological torque, 0 while standing
    cols: np.ndarray          # (9, n) floats, one row per Row


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
    part advances in blocks (`advance_block`), the cable's open-loop
    columns included; the closed loop steps the cable one tick at a time
    over the constants `bind_cable` binds.
    """

    def __init__(self, tmpl: GaitTemplate, config: PlantConfig, seed: int = 0,
                 standing_s: float = 1.0,
                 perturbations: Optional[list[PerturbationSpec]] = None,
                 ramp: Optional[RampSpec] = None):
        from . import kernel    # built at import, which cli.main reports
        self.tmpl = tmpl
        # loop.c's template vector, kept alive for the world entry
        self._template = _template_vector(tmpl)
        self._world = partial(kernel.world, self._template.ctypes.data)
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
        return KinematicSample(
            *self.advance_block(dt, 1).cols[:Row.free_length, 0].tolist())

    def advance_block(self, dt: float, n: int) -> WorldBlock:
        """Advance n ticks of dt and return each tick's world values. The
        cable's rows are the zero-force length (`free_length`) at each
        tick's DF angle and migration, and the load-cell noise
        force_noise_sd * z, whose draws z are the next n of the world's one
        stream, the values of n scalar rng.standard_normal() draws;
        noiseless readings (force_noise_sd not above 0) draw none and read
        zeros."""
        _positive_dt(dt)
        if n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        clock = self._clock(dt, n)
        cols = np.zeros((len(Row), n))
        t_ms, cols[Row.t_ms] = _sample_clock(clock.t_s)
        bio = np.zeros(n)
        # Walking never stops once started: ticks w0.. walk, the rest stand
        # with every angle and rate zero.
        self._world(_first(clock.walking), n, clock.phase.ctypes.data,
                    clock.scale.ctypes.data, cols.ctypes.data, n,
                    bio.ctypes.data)
        if clock.sway:
            at, sway, sway_rate = clock.sway
            cols[Row.theta_sk:Row.theta_df + 1, at] += sway
            cols[Row.theta_sk_rate:Row.theta_df_rate + 1, at] += sway_rate
        cols[Row.free_length] = free_length(
            self.truth_tendon, cols[Row.theta_df], clock.migration)
        sd = self.config.force_noise_sd
        if sd > 0.0:
            cols[Row.noise] = sd * self.rng.standard_normal(n)
        return WorldBlock(t_ms, clock.walking, clock.scale, clock.migration,
                          clock.perturb_kind, bio, cols)

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
