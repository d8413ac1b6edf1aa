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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .gait_signals import KinematicSample
from .tendon import TendonModel

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

# Detector-facing margins used by the build-time validation.
_DELTA_ANG = 1.0
_REFRACTORY_S = 0.200
_ARM_FRACTION = 0.45
_SAMPLE_ATTENUATION = 0.85   # worst-case sampled plunge extremum vs true peak
_IMU_DT = 0.010


def build_template(activity: Activity | str, **overrides) -> GaitTemplate:
    """Construct and validate the gait template for an activity."""
    act = Activity(activity) if not isinstance(activity, Activity) else activity
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
    rows = np.fromiter((tmpl.stance_pose(u) + tmpl._g(u) for u in us.tolist()),
                       dtype=(float, 6), count=len(us))
    sk, ft, _, dft, g0, g1 = rows.T
    return us, sk, ft, dft, g0, g1


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
    sk0, sk1 = tmpl.theta_sk_span
    if not (0.0 < tmpl.stance_ratio < 1.0):
        raise TemplateError("stance ratio outside (0, 1)")
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
    arm_worst_pu = _ARM_FRACTION * _SAMPLE_ATTENUATION * tmpl.plunge_rate_pu
    conf_idx = int(np.searchsorted(np.maximum.accumulate(g0), _DELTA_ANG))
    t_conf = float(us[min(conf_idx, _GRID_N)]) * t_st
    u_first = (t_conf + _REFRACTORY_S + _IMU_DT) / t_st
    for u_visible in (u_first, 0.28):
        mask = (us >= u_visible) & (us <= tmpl.u_plunge)
        if np.any(mask):
            danger_pu = float(np.max(np.maximum(g1[mask], 0.0)))
            if danger_pu > 0.72 * arm_worst_pu:
                raise TemplateError(
                    f"pitch-rate dip {danger_pu:.1f} deg/u visible from "
                    f"u={u_visible:.2f} too close to the arming threshold "
                    f"{arm_worst_pu:.1f} deg/u")
    if (1.0 - tmpl.u_plunge) * t_st < 0.040:
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
    fc, mdf, fo = tmpl.landmarks
    s1, s2, mu = (mdf - fc) / 4.0, (fo - mdf) / 4.0, mdf
    if not (5.1 <= s1 <= 14.9 and 1.1 <= s2 <= 9.9 and 5.2 <= mu <= 24.8):
        raise TemplateError(
            f"landmark targets (s1={s1:.2f}, s2={s2:.2f}, mu={mu:.2f}) "
            "incompatible with the default initial parameters and guard")


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


def phase_advance(phase: float, dt: float, tmpl: GaitTemplate,
                  speed_scale: float = 1.0) -> float:
    """Advance the gait phase by dt at the instantaneous speed scale."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return phase + dt * speed_scale / tmpl.period


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
    force: float = 0.0            # N, truth
    migration: float = 0.0        # mm
    stride_index: int = 0


@dataclass(frozen=True)
class PlantReading:
    f_truth: float
    f_meas: float
    l_meas: float
    l_meas_rate: float   # mm/s, dl/dt (positive = lengthening)
    motor_pos: float     # mm, retraction-positive displacement from startup


def step_plant(state: PlantState, cmd_v: float, kin: KinematicSample,
               tendon_truth: TendonModel, dt: float, config: PlantConfig,
               rng: Optional[np.random.Generator] = None) -> PlantReading:
    """Advance the cable plant one control tick under a velocity command."""
    v_target = max(-config.v_max, min(config.v_max, cmd_v))
    alpha = 1.0 - math.exp(-dt / config.motor_tau_s)
    state.motor_v += alpha * (v_target - state.motor_v)
    state.l_cable -= state.motor_v * dt
    l_taut = (tendon_truth.lever_arm_r * math.radians(kin.theta_df)
              + tendon_truth.baseline_c - state.migration)
    force = max(0.0, tendon_truth.k_all * (l_taut - state.l_cable))
    state.force = force
    f_meas = force
    if rng is not None and config.force_noise_sd > 0.0:
        f_meas = max(0.0, force + config.force_noise_sd * rng.standard_normal())
    return PlantReading(
        f_truth=force,
        f_meas=f_meas,
        l_meas=state.l_cable,
        l_meas_rate=-state.motor_v,
        motor_pos=(config.baseline_c + config.initial_slack_mm) - state.l_cable,
    )


class GaitWorld:
    """Phase clock, kinematics, perturbation/ramp warping, and the cable.

    Drives a standing segment first (all angles zero) so the controller can
    pretighten, then runs the gait from swing onset. Stride count follows
    the phase wrap; suit migration steps once per stride.
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
        self._sway = 0.0
        self._sway_rate = 0.0

    @property
    def walking(self) -> bool:
        return self.t_s >= self.standing_s

    def perturbation_kind(self) -> int:
        """0 when unperturbed, 1 during forward, 2 during backward windows."""
        if self._pert_active is None:
            return 0
        return 1 if self._pert_active[0].kind is PerturbationKind.FORWARD else 2

    def advance(self, dt: float) -> KinematicSample:
        """Advance time by dt and return the truth kinematics at the new time."""
        self.t_s += dt
        t_ms = round(self.t_s * 1000.0, 6)
        if not self.walking:
            return KinematicSample(t_ms, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self._update_ramp(dt)
        scale = self._ramp_scale
        scale *= self._perturbation_multiplier()
        self.scale = scale
        self.phase = phase_advance(self.phase, dt, self.tmpl, scale)
        if self.phase >= 1.0:
            self.phase -= 1.0
            self.state.stride_index += 1
            cfg = self.config
            self.state.migration = cfg.mig_max * (
                1.0 - math.exp(-self.state.stride_index / cfg.mig_stride_tau))
            self.truth_tendon.delta_l1 = self.state.migration
        self._maybe_start_perturbation()
        kin = gen_frame(self.tmpl, self.phase, scale, t_ms)
        if self._update_sway(dt):
            kin = KinematicSample(
                kin.t_ms, kin.theta_ft, kin.theta_sk + self._sway,
                kin.theta_df + self._sway, kin.theta_ft_rate,
                kin.theta_sk_rate + self._sway_rate,
                kin.theta_df_rate + self._sway_rate)
        return kin

    def step_cable(self, cmd_v: float, kin: KinematicSample,
                   dt: float) -> PlantReading:
        return step_plant(self.state, cmd_v, kin, self.truth_tendon, dt,
                          self.config, self.rng)

    # -- internal -------------------------------------------------------------

    def _maybe_start_perturbation(self) -> None:
        stride = self.state.stride_index
        spec = self.perturbations.get(stride)
        if spec is None or stride in self._pert_done:
            return
        if self.phase >= spec.onset_pct_gc and self._pert_active is None:
            self._pert_active = (spec, self.t_s)
            self._pert_done.add(stride)

    def _perturbation_multiplier(self) -> float:
        if self._pert_active is None:
            return 1.0
        spec, t0 = self._pert_active
        tau = self.t_s - t0
        window = 2.0 * spec.ramp_time
        if spec.kind is PerturbationKind.BACKWARD:
            window = max(window, self.config.sway_window_s)
        if tau > window:
            self._pert_active = None
            return 1.0
        return spec.multiplier(tau)

    def _update_sway(self, dt: float) -> bool:
        """Shank sway transient during backward perturbations."""
        if self._pert_active is None:
            self._sway = 0.0
            self._sway_rate = 0.0
            return False
        spec, t0 = self._pert_active
        if spec.kind is not PerturbationKind.BACKWARD:
            self._sway = 0.0
            self._sway_rate = 0.0
            return False
        w = self.config.sway_window_s
        tau = self.t_s - t0
        if tau > w:
            self._sway = 0.0
            self._sway_rate = 0.0
            return False
        a = self.config.sway_deg
        self._sway = -a * math.sin(math.pi * tau / w) ** 2
        self._sway_rate = -a * math.pi / w * math.sin(2.0 * math.pi * tau / w)
        return True

    def _update_ramp(self, dt: float) -> None:
        ramp = self.ramp
        if ramp is None:
            return
        stride = self.state.stride_index
        if stride < ramp.start_stride:
            return
        if stride < ramp.start_stride + ramp.hold_strides:
            target = ramp.low_scale
        else:
            target = 1.0
        if self._ramp_scale < target:
            self._ramp_scale = min(target, self._ramp_scale + ramp.rate_per_s * dt)
        elif self._ramp_scale > target:
            self._ramp_scale = max(target, self._ramp_scale - ramp.rate_per_s * dt)
