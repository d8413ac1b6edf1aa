import math

import numpy as np
import pytest

from shankexo.controller import (RELEASE_SLACK_MM, ControlMode, Controller,
                                 ControllerConfig)
from shankexo.gait_signals import GaitEvent, GaitEventKind, KinematicSample
from shankexo.plant import PlantConfig, PlantState, build_template
from shankexo.profile import GaussianParams, eval_force
from shankexo.tendon import TendonModel, tendon_length
from scalar_reference import TickController, gen_frame, loop_cable, tick_row

PARAMS = GaussianParams(105.0, 9.0, 6.0, 2.2, -14.0, 18.0)


def kin(theta_sk=0.0, theta_ft=0.0, sk_rate=0.0, ft_rate=0.0, t_ms=0.0):
    return KinematicSample(t_ms, theta_ft, theta_sk, theta_sk - theta_ft,
                           ft_rate, sk_rate, sk_rate - ft_rate)

def angles(k):
    """A sample's shank and DF angles and rates: the kinematic arguments of
    tick_row."""
    return k.theta_sk, k.theta_df, k.theta_sk_rate, k.theta_df_rate


def swing_tick(ctrl, l_meas, l_meas_rate, dt, f_meas=0.0):
    """A swing-mode tick's command, with the kinematics and the motor
    position at zero."""
    return tick_row(ctrl, 0.0, 0.0, 0.0, 0.0, f_meas, l_meas, l_meas_rate,
                    0.0, dt)[5]


def stance_tick(ctrl, theta_sk, theta_df, theta_sk_rate, theta_df_rate,
                f_meas, l_meas, dt, v_max=PlantConfig.v_max):
    """A stance-mode tick's command under the envelope v_max, with the cable
    rate and the motor position at zero."""
    return tick_row(ctrl, theta_sk, theta_df, theta_sk_rate, theta_df_rate,
                    f_meas, l_meas, 0.0, 0.0, dt, v_max)[5]


def make_controller(mode=ControlMode.STANCE, engaged=True, cls=Controller,
                    **cfg_kw):
    """A controller in `mode` with PARAMS; cls=TickController gives the
    per-tick reference."""
    cfg = ControllerConfig(**cfg_kw)
    ctrl = cls(cfg, TendonModel(50.0, 12.5, 300.0))
    ctrl.state.mode = mode
    ctrl.state.engaged = engaged
    ctrl.state.active_params = PARAMS
    ctrl.state.l_swing = 0.0
    return ctrl


def fc(gc, t=0.0):
    return GaitEvent(GaitEventKind.FOOT_CONTACT, t, gc)


def fo(gc, t=0.0):
    return GaitEvent(GaitEventKind.FOOT_OFF, t, gc)


class TestEvents:
    def test_silent_during_first_cycles(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        ctrl.state.release_target = 322.0
        ctrl.on_event(fc(2), new_params=PARAMS)
        assert ctrl.state.mode is ControlMode.SILENT
        cmd = tick_row(ctrl, *angles(kin()), 0.0, 320.0, 0.0, 0.0, 0.001)[5]
        # silent walking holds the slack: PI toward the release target
        twin = make_controller(mode=ControlMode.SWING, cls=TickController)
        twin.state.l_swing = 322.0
        assert cmd == twin.tick_swing(320.0, 0.0, 0.001)
        assert cmd < 0.0

    def test_assist_after_silent_cycles(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        ctrl.on_event(fc(5), new_params=PARAMS)
        assert ctrl.state.mode is ControlMode.STANCE

    def test_swing_length_fixed_point(self):
        ctrl = make_controller()
        ctrl.state.l_swing = 100.0
        ctrl.state.f_swing_max = 3.0
        ctrl.on_event(fo(6))
        assert ctrl.state.l_swing == 100.0
        assert ctrl.state.mode is ControlMode.SWING

    def test_swing_length_recurrence(self):
        ctrl = make_controller()
        ctrl.state.l_swing = 100.0
        ctrl.state.f_swing_max = 28.0
        ctrl.on_event(fo(6))
        assert ctrl.state.l_swing == pytest.approx(102.0)
        assert ctrl.state.f_swing_max == 0.0

    def test_integrator_resets_at_contact(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        ctrl.state.e_l_integral = 5.0
        ctrl.on_event(fc(8))
        assert ctrl.state.e_l_integral == 0.0

    def test_out_of_order_events_ignored(self):
        ctrl = make_controller(mode=ControlMode.STANCE)
        newp = GaussianParams(105.0, 10.0, 6.5, 2.4, -14.0, 18.0)
        ctrl.on_event(fc(9), new_params=newp)
        assert ctrl.state.mode is ControlMode.STANCE
        assert ctrl.state.active_params is PARAMS
        assert ctrl.state.engaged
        ctrl2 = make_controller(mode=ControlMode.SWING)
        l0 = ctrl2.state.l_swing
        ctrl2.on_event(fo(9))
        assert ctrl2.state.mode is ControlMode.SWING
        assert ctrl2.state.l_swing == l0

    def test_params_adopted_at_contact_only(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        newp = GaussianParams(105.0, 10.0, 6.5, 2.4, -14.0, 18.0)
        ctrl.on_event(fc(7), new_params=newp)
        assert ctrl.state.active_params is newp


class TestSwingTick:
    def test_proportional_toward_target(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        ctrl.state.l_swing = 102.0
        cmd = swing_tick(ctrl, l_meas=100.0, l_meas_rate=0.0, dt=0.001)
        # e_L = +2 mm: the tendon must lengthen, i.e. pay out cable
        assert abs(cmd) == pytest.approx(46.0, rel=1e-6)
        assert cmd < 0.0
        cfg = ctrl.cfg
        assert cmd == -(cfg.kp * 2.0 + cfg.ki * (2.0 * 0.001) - cfg.kd * 0.0)

    def test_equilibrium(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        ctrl.state.l_swing = 100.0
        cmd = swing_tick(ctrl, 100.0, 0.0, 0.001)
        assert cmd == pytest.approx(0.0, abs=1e-9)

    def test_damping_opposes_motion(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        ctrl.state.l_swing = 100.0
        cmd = swing_tick(ctrl, 100.0, 10.0, 0.001)
        # cable lengthening at 10 mm/s; damping commands 18 mm/s of retraction
        assert cmd == pytest.approx(18.0, rel=1e-9)

    def test_swing_monitors_peak_force(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        tick_row(ctrl, *angles(kin()), 2.5, 100.0, 0.0, 0.0, 0.001)
        tick_row(ctrl, *angles(kin()), 4.0, 100.0, 0.0, 0.0, 0.001)
        tick_row(ctrl, *angles(kin()), 1.0, 100.0, 0.0, 0.0, 0.001)
        assert ctrl.state.f_swing_max == 4.0

    def test_integral_clamped(self):
        ctrl = make_controller(mode=ControlMode.SWING, integral_clamp=50.0)
        ctrl.state.l_swing = 200.0
        for _ in range(2000):
            swing_tick(ctrl, 0.0, 0.0, 1.0)
        assert abs(ctrl.state.e_l_integral) <= 50.0


class TestStanceTick:
    def test_feedback_gain_mapping(self):
        ctrl = make_controller()
        theta = PARAMS.mu
        f_des = eval_force(PARAMS, theta)
        row = tick_row(ctrl, *angles(kin(theta_sk=theta)), f_des - 15.7,
                       320.0, 0.0, 0.0, 0.001)
        assert row[5] == pytest.approx(1.0, rel=1e-9)     # the command
        assert row[1] == f_des                            # the logged f_des

    def test_feedforward_vanishes_at_stationary_peak(self):
        ctrl = make_controller()
        theta = PARAMS.mu
        f_des = eval_force(PARAMS, theta)
        cmd = stance_tick(ctrl, *angles(kin(theta_sk=theta, sk_rate=80.0,
                                            ft_rate=80.0)),
                          f_des, 320.0, 0.001)
        # profile-rate term zero at the peak, DF stationary: feedback only
        assert cmd == pytest.approx(0.0, abs=1e-9)

    def test_missing_params_holds(self):
        ctrl = make_controller()
        ctrl.state.active_params = None
        cmd = stance_tick(ctrl, *angles(kin()), 0.0, 320.0, 0.001)
        assert cmd == 0.0 and math.copysign(1.0, cmd) == 1.0

    def test_ideal_plant_reproduces_profile(self):
        # with exact force measurement the command equals -V_FF; integrating
        # it through the exact tendon reproduces the desired profile
        tmpl = build_template("lw")
        fc_a, mdf, fo_a = tmpl.landmarks
        p = GaussianParams(105.0, mdf, (mdf - fc_a) / 4.0, (fo_a - mdf) / 4.0,
                           fc_a, fo_a)
        ctrl = make_controller()
        ctrl.state.active_params = p
        tendon = ctrl.tendon
        dt = 0.001
        t_st = tmpl.period * tmpl.stance_ratio
        ticks = int(t_st / dt)
        k0 = gen_frame(tmpl, 0.0, 1.0)
        l = tendon_length(tendon, k0.theta_df, eval_force(p, k0.theta_sk))
        worst = 0.0
        for i in range(ticks - 1):
            phase_mid = (i + 0.5) * dt / tmpl.period
            km = gen_frame(tmpl, phase_mid, 1.0)
            f_des_mid = eval_force(p, km.theta_sk)
            cmd = stance_tick(ctrl, *angles(km), f_des_mid, l, dt)
            l -= cmd * dt
            phase_next = (i + 1) * dt / tmpl.period
            kn = gen_frame(tmpl, phase_next, 1.0)
            l_taut = (tendon.lever_arm_r * math.radians(kn.theta_df)
                      + tendon.baseline_c)
            force = max(0.0, tendon.k_all * (l_taut - l))
            worst = max(worst, abs(force - eval_force(p, kn.theta_sk)))
        assert worst < 0.5

    def test_velocity_commands_clamped(self):
        ctrl = make_controller()
        cmd = stance_tick(ctrl, *angles(kin(theta_sk=PARAMS.mu,
                                            ft_rate=-4000.0)),
                          eval_force(PARAMS, PARAMS.mu), 320.0, 0.001,
                          v_max=250.0)
        assert abs(cmd) <= 250.0

    def test_force_map_with_inertia_filters(self):
        # with M > 0 the feedback velocity approaches dF/B as a first-order
        # lag; the readings are no cable's, so no residual check
        ctrl = make_controller(map_m=0.05, map_b=15.7,
                               load_cell_residual=math.inf)
        theta = PARAMS.mu
        f_des = eval_force(PARAMS, theta)
        first = stance_tick(ctrl, *angles(kin(theta_sk=theta)), f_des - 15.7,
                            320.0, 0.001)
        assert 0.0 < first < 1.0
        for _ in range(2000):
            last = stance_tick(ctrl, *angles(kin(theta_sk=theta)),
                               f_des - 15.7, 320.0, 0.001)
        assert last == pytest.approx(1.0, rel=1e-3)


def reading_tick(ctrl, f_meas, motor_pos, l_meas=300.0):
    """A tick's command with the kinematics and the cable rate at zero,
    reading force f_meas and motor position motor_pos."""
    return tick_row(ctrl, *angles(kin()), f_meas, l_meas, 0.0, motor_pos,
                    0.001)[5]


class TestSafety:
    def test_ok_below_limits(self):
        ctrl = make_controller()
        reading_tick(ctrl, 100.0, 0.0)
        assert not ctrl.state.aborted

    def test_force_ceiling_aborts_and_latches(self):
        ctrl = make_controller(force_ceiling=300.0)
        reading_tick(ctrl, 301.0, 0.0)
        assert ctrl.state.aborted
        reading_tick(ctrl, 0.0, 0.0)
        assert ctrl.state.aborted

    def test_position_limit_aborts(self):
        ctrl = make_controller(position_limit_mm=80.0)
        reading_tick(ctrl, 0.0, 81.0)
        assert ctrl.state.aborted

    def test_release_then_zero(self):
        ctrl = make_controller()
        ctrl.state.release_target = 320.0
        reading_tick(ctrl, 400.0, 0.0)
        cmd = tick_row(ctrl, *angles(kin()), 0.0, 300.0, 0.0, 0.0, 0.001)[5]
        assert ctrl.state.aborted
        assert cmd == -PlantConfig.v_max
        cmd = tick_row(ctrl, *angles(kin()), 0.0, 320.0, 0.0, 0.0, 0.001)[5]
        assert cmd == 0.0 and math.copysign(1.0, cmd) == 1.0


class TestSignAndModeSafety:
    def test_retraction_never_drops_force_on_taut_plant(self):
        # positive command = retraction = higher tension within the tick
        cfg = PlantConfig(force_noise_sd=0.0, motor_tau_s=1e-6)
        truth = TendonModel(cfg.lever_arm_r, cfg.k_all, cfg.baseline_c, 0.0)
        rng = np.random.default_rng(6)
        for _ in range(200):
            state = PlantState(l_cable=cfg.baseline_c - float(rng.uniform(0.5, 6.0)))
            before = cfg.k_all * (cfg.baseline_c - state.l_cable)
            step = loop_cable(state, truth, cfg, 0.001)
            f_truth = step(float(rng.uniform(0.0, 200.0)), cfg.baseline_c)[0]
            assert f_truth >= before - 1e-9

    def test_command_follows_mode(self):
        ctrl = make_controller(mode=ControlMode.SWING)
        twin = make_controller(mode=ControlMode.SWING, cls=TickController)
        assert tick_row(ctrl, *angles(kin()), 0.0, 320.0, 0.0, 0.0,
                        0.001)[5] == twin.tick_swing(320.0, 0.0, 0.001)
        ctrl = make_controller(mode=ControlMode.STANCE)
        twin = make_controller(mode=ControlMode.STANCE, cls=TickController)
        sample, f = kin(theta_sk=PARAMS.mu, ft_rate=-30.0), 20.0
        assert tick_row(ctrl, *angles(sample), f, 320.0, 0.0, 0.0,
                        0.001)[5] == twin.tick_stance(*angles(sample), f,
                                                      320.0, 0.001)


class TestPretighten:
    def test_retracts_until_threshold_then_confirms_baseline(self):
        cfg = ControllerConfig()
        ctrl = Controller(cfg, TendonModel(50.0, 12.5, 250.0))
        cmd = tick_row(ctrl, *angles(kin()), 0.0, 315.0, 0.0, 0.0, 0.001)[5]
        assert cmd == cfg.pretighten_rate
        assert ctrl.state.mode is ControlMode.PRETIGHTEN
        cmd = tick_row(ctrl, *angles(kin()), 5.2, 299.6, 0.0, 0.0, 0.001)[5]
        assert ctrl.state.mode is ControlMode.SILENT
        assert ctrl.tendon.baseline_c == pytest.approx(299.6 + 5.2 / 12.5)
        assert ctrl.state.release_target == pytest.approx(
            299.6 + RELEASE_SLACK_MM)


NAN_INPUTS = ("f_meas", "l_meas", "l_meas_rate", "motor_pos",
              "theta_sk", "theta_df", "theta_sk_rate", "theta_df_rate")
FINITE_INPUTS = dict(f_meas=20.0, l_meas=310.0, l_meas_rate=0.0, motor_pos=0.0,
                     theta_sk=PARAMS.mu, theta_df=PARAMS.mu, theta_sk_rate=0.0,
                     theta_df_rate=0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", NAN_INPUTS)
    @pytest.mark.parametrize("mode,engaged", [
        (ControlMode.PRETIGHTEN, False), (ControlMode.SILENT, False),
        (ControlMode.SWING, False), (ControlMode.STANCE, False),
        (ControlMode.STANCE, True)])
    def test_non_finite_input_aborts_without_retraction(self, mode, engaged,
                                                        field, bad):
        ctrl = make_controller(mode=mode, engaged=engaged)
        ctrl.state.release_target = 320.0
        inputs = dict(FINITE_INPUTS, **{field: bad})
        sample = kin(theta_sk=PARAMS.mu)._replace(
            **{f: inputs[f] for f in NAN_INPUTS[4:]})
        cmd = tick_row(ctrl, *angles(sample), inputs["f_meas"],
                       inputs["l_meas"], inputs["l_meas_rate"],
                       inputs["motor_pos"], 0.001)[5]
        assert ctrl.state.aborted
        assert cmd <= 0.0
        for l_meas in np.linspace(300.0, 330.0, 50):
            cmd = tick_row(ctrl, *angles(kin(theta_sk=PARAMS.mu)), 20.0,
                           float(l_meas), 0.0, 0.0, 0.001)[5]
            assert ctrl.state.aborted
            assert cmd <= 0.0

    def test_nan_command_is_not_clamped_to_the_envelope(self):
        # A NaN kinematic rate reaches the stance feedforward; the clamp
        # must not turn the NaN command into full retraction.
        ctrl = make_controller()
        cmd = tick_row(ctrl, *angles(kin(theta_sk=PARAMS.mu,
                                         sk_rate=math.nan)),
                       eval_force(PARAMS, PARAMS.mu), 310.0, 0.0, 0.0,
                       0.001)[5]
        assert cmd == 0.0
