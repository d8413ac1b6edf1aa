import math

import numpy as np
import pytest

from shankexo.plant import (ACTIVITY_DEFAULTS, INITIAL_SLACK_MM, Activity,
                            GaitWorld, PerturbationKind, PerturbationSpec,
                            PlantConfig, PlantState, RampSpec, Row,
                            TemplateError, build_template)
from shankexo.tendon import TendonModel
from scalar_reference import (biological_torque, gen_frame, loop_cable,
                              reference_clock)

ACTIVITIES = ["lw", "lr", "ra", "rd"]


@pytest.fixture(scope="module", params=ACTIVITIES)
def tmpl(request):
    return build_template(request.param)


def cycle_grid(tmpl, n=4000):
    phases = np.arange(n) / n
    return phases, [gen_frame(tmpl, float(p), 1.0) for p in phases]


class TestTemplateFeatures:
    def test_foot_pitch_max_at_stance_onset(self, tmpl):
        phases, frames = cycle_grid(tmpl)
        ft = np.array([f.theta_ft for f in frames])
        assert int(np.argmax(ft)) == 0
        assert ft[0] == tmpl.ft_peak

    def test_foot_pitch_rate_min_at_stance_end(self, tmpl):
        phases, frames = cycle_grid(tmpl)
        rates = np.array([f.theta_ft_rate for f in frames])
        i = int(np.argmin(rates))
        assert phases[i] == pytest.approx(tmpl.stance_ratio, abs=2e-3)

    def test_df_single_crest_at_declared_phase(self, tmpl):
        phases, frames = cycle_grid(tmpl)
        df = np.array([f.theta_df for f in frames])
        i = int(np.argmax(df))
        assert phases[i] / tmpl.stance_ratio == pytest.approx(
            tmpl.df_peak[1], abs=5e-3)
        assert df[i] == pytest.approx(tmpl.df_peak[0], abs=1e-2)

    def test_df_identity(self, tmpl):
        _, frames = cycle_grid(tmpl, 500)
        for f in frames:
            assert abs(f.theta_df - (f.theta_sk - f.theta_ft)) < 1e-9
            assert abs(f.theta_df_rate
                       - (f.theta_sk_rate - f.theta_ft_rate)) < 1e-9

    def test_rates_match_finite_differences(self, tmpl):
        h = 1e-6
        for phase in np.linspace(0.01, 0.99, 97):
            if abs(phase - tmpl.stance_ratio) < 0.01:
                continue
            a = gen_frame(tmpl, float(phase - h), 1.0)
            b = gen_frame(tmpl, float(phase + h), 1.0)
            mid = gen_frame(tmpl, float(phase), 1.0)
            fd_sk = (b.theta_sk - a.theta_sk) / (2 * h) / tmpl.period
            assert fd_sk == pytest.approx(mid.theta_sk_rate, abs=1e-3)
            fd_ft = (b.theta_ft - a.theta_ft) / (2 * h) / tmpl.period
            assert fd_ft == pytest.approx(mid.theta_ft_rate, abs=1e-3)

    def test_speed_scale_rescales_rates_not_shapes(self, tmpl):
        for phase in (0.1, 0.45, 0.8):
            a = gen_frame(tmpl, phase, 1.0)
            b = gen_frame(tmpl, phase, 1.8)
            assert b.theta_sk == a.theta_sk
            assert b.theta_ft == a.theta_ft
            assert b.theta_sk_rate == pytest.approx(1.8 * a.theta_sk_rate)

    def test_shank_monotone_across_stance(self, tmpl):
        us = np.linspace(0.0, 1.0, 800)
        sk = [tmpl.stance_pose(float(u))[0] for u in us]
        assert all(b >= a for a, b in zip(sk, sk[1:]))

    def test_stance_ratio_defaults_match_reference(self):
        expected = {"lw": 0.674, "lr": 0.514, "ra": 0.683, "rd": 0.691}
        for act, ratio in expected.items():
            assert build_template(act).stance_ratio == ratio

    def test_bad_templates_rejected(self):
        with pytest.raises(TemplateError):
            build_template("lw", stance_ratio=1.2)
        with pytest.raises(TemplateError):
            build_template("lw", g_plunge=0.5)  # plunge no longer dominates


class TestBiologicalTorque:
    def test_peak_at_df_peak_phase(self, tmpl):
        u_pk = tmpl.df_peak[1]
        assert biological_torque(tmpl, u_pk * tmpl.stance_ratio) == pytest.approx(1.0)

    def test_zero_at_boundaries(self, tmpl):
        assert biological_torque(tmpl, 0.0) == 0.0
        assert biological_torque(tmpl, tmpl.stance_ratio) == pytest.approx(0.0, abs=1e-12)
        assert biological_torque(tmpl, 0.9) == 0.0 or tmpl.stance_ratio > 0.9

    def test_argmax_coincides_with_df_argmax(self, tmpl):
        us = np.linspace(0.0, tmpl.stance_ratio, 2000)
        tq = [biological_torque(tmpl, float(p)) for p in us]
        df = [gen_frame(tmpl, float(p), 1.0).theta_df for p in us]
        assert abs(int(np.argmax(tq)) - int(np.argmax(df))) <= 3


class TestPhaseAdvance:
    def test_full_period_advances_one_cycle(self, tmpl):
        world = GaitWorld(tmpl, PlantConfig(), standing_s=0.0)
        world.advance_block(tmpl.period / 1000, 1000)
        assert world.state.stride_index == 1
        assert world.phase == pytest.approx(tmpl.stance_ratio)

    def test_forward_perturbation_integral(self):
        spec = PerturbationSpec(kind=PerturbationKind.FORWARD, magnitude=0.8,
                                ramp_time=0.1)
        dt = 1e-4
        extra = 0.0
        t = 0.0
        while t < 0.2:
            extra += (spec.multiplier(t + dt / 2) - 1.0) * dt
            t += dt
        assert extra == pytest.approx(0.8 * 0.1, rel=1e-4)

    def test_backward_floor(self):
        spec = PerturbationSpec(kind=PerturbationKind.BACKWARD, magnitude=0.8,
                                ramp_time=0.1)
        assert spec.multiplier(0.1) == pytest.approx(0.2)
        assert spec.multiplier(-0.01) == 1.0
        assert spec.multiplier(0.25) == 1.0

    def test_backward_stride_shank_regresses(self):
        tmpl = build_template("lw")
        spec = PerturbationSpec(kind=PerturbationKind.BACKWARD,
                                affected_cycles=frozenset({1}))
        world = GaitWorld(tmpl, PlantConfig(force_noise_sd=0.0), seed=0,
                          perturbations=[spec])
        strides = np.array(reference_clock(world, 0.001, 4000)["stride"])
        sk = world.advance_block(0.001, 4000).cols[Row.theta_sk]
        seg = sk[strides == 1]
        stance_len = int(tmpl.stance_ratio * len(seg) * 0.9)
        diffs = np.diff(seg[:stance_len])
        assert diffs.min() < -1e-4  # the stance shank angle runs backward

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
    def test_dt_must_be_positive(self, tmpl, dt):
        world = GaitWorld(tmpl, PlantConfig(), standing_s=0.0)
        with pytest.raises(ValueError):
            world.advance_block(dt, 5)
        with pytest.raises(ValueError):
            world.advance(dt)
        assert world.t_s == 0.0

    @pytest.mark.parametrize("n", [0, -3])
    def test_block_length_must_be_positive(self, tmpl, n):
        world = GaitWorld(tmpl, PlantConfig(), standing_s=0.0)
        with pytest.raises(ValueError, match="n must be positive"):
            world.advance_block(0.001, n)
        assert world.t_s == 0.0


class TestCablePlant:
    """The cable lines of `Controller.run` under chosen commands
    (`scalar_reference.loop_cable`), noiseless."""

    def make(self, dt=0.001):
        cfg = PlantConfig(force_noise_sd=0.0)
        truth = TendonModel(cfg.lever_arm_r, cfg.k_all, cfg.baseline_c, 0.0)
        state = PlantState(l_cable=cfg.baseline_c + INITIAL_SLACK_MM)
        step = loop_cable(state, truth, cfg, dt)
        # step(cmd_v, theta_df): the zero-force length at theta_df, no
        # migration
        return cfg, state, lambda v, df: step(
            v, truth.lever_arm_r * math.radians(df) + truth.baseline_c)

    def test_slack_cable_carries_no_force(self):
        _, _, step = self.make()
        f_truth = step(0.0, 0.0)[0]
        assert f_truth == 0.0

    def test_quasi_static_stiffness(self):
        cfg, _, step = self.make()
        # retract 1 mm past taut quasi-statically
        total = INITIAL_SLACK_MM + 1.0
        for _ in range(int(total / 0.01)):
            f_truth = step(10.0, 0.0)[0]
        assert f_truth == pytest.approx(12.5, abs=0.3)

    def test_force_nonnegative_always(self):
        _, _, step = self.make()
        rng = np.random.default_rng(0)
        for _ in range(2000):
            v = float(rng.uniform(-300, 300))
            f_truth = step(v, float(rng.uniform(-20, 20)))[0]
            assert f_truth >= 0.0

    def test_static_world_constant_force(self):
        cfg, state, step = self.make()
        state.l_cable = cfg.baseline_c - 2.0  # taut
        forces = set()
        for _ in range(50):
            forces.add(round(step(0.0, 0.0)[0], 9))
        assert len(forces) == 1

    def test_motor_saturation(self):
        cfg, state, step = self.make(dt=1.0)
        step(10_000.0, 0.0)
        assert abs(state.motor_v) <= cfg.v_max + 1e-9

    def test_migration_schedule(self):
        tmpl = build_template("lw")
        world = GaitWorld(tmpl, PlantConfig(), seed=0)
        while world.state.stride_index < 10:   # a block wraps at most once
            world.advance_block(0.001, 1000)
        assert world.state.stride_index == 10
        expected = 4.0 * (1.0 - math.exp(-10.0 / 3.0))
        assert world.state.migration == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(3.857, abs=2e-3)
        assert expected > 0.95 * 4.0  # within 5 % of the plateau

    def test_world_streams_deterministic(self):
        tmpl = build_template("ra")
        outs = []
        for _ in range(2):
            world = GaitWorld(tmpl, PlantConfig(), seed=42)
            step = loop_cable(world.state, world.truth_tendon, world.config,
                              0.001)
            block = world.advance_block(0.001, 3000)
            acc = []
            for ft, sk, l_free, noise in block.cols[
                    [Row.theta_ft, Row.theta_sk, Row.free_length,
                     Row.noise]].T.tolist():
                _, f_meas, l_meas, *_ = step(5.0, l_free, noise)
                acc.append((sk, ft, f_meas, l_meas))
            outs.append(acc)
        assert outs[0] == outs[1]


class TestRamp:
    def test_ramp_scale_trapezoid(self):
        tmpl = build_template("lw")
        world = GaitWorld(tmpl, PlantConfig(), seed=0,
                          ramp=RampSpec(start_stride=2, hold_strides=3))
        scales = world.advance_block(
            0.001, int((1.0 + 12 * tmpl.period) * 1000)).scale
        assert scales.min() == pytest.approx(0.5, abs=1e-6)
        assert scales[-1] == pytest.approx(1.0)
