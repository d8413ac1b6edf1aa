"""The per-tick closed-loop path against the forms it replaced.

The fused profile call and the loop kernel's profile, the comparison-only
clamps, the safety pre-check, the loop's cable lines and their open-loop
columns, the kernel's sample clock and the controller's logged desired
force must return what the min/max, two-call, scalar, per-tick-round and
harness-side forms return, bit for bit, for every float (NaN and
infinities included). Those forms are kept here and in `scalar_reference`
as the references.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from shankexo.artifacts import LOG_COLUMNS, Artifacts
from shankexo.controller import (MODES, ControlMode, Controller,
                                 ControllerConfig)
from shankexo.gait_signals import GaitEvent, GaitEventKind, KinematicSample
from shankexo.harness import ScenarioConfig, run_scenario
from shankexo.plant import (BLOCK_TICKS, INITIAL_SLACK_MM, GaitWorld,
                            PlantConfig, PlantState, Row, build_template)
from shankexo.profile import (GaussianParams, ParameterError, eval_force,
                              eval_force_and_rate, eval_force_rate)
from shankexo.tendon import TendonModel
from scalar_reference import (TickController, loop_cable,
                              reference_cable_step, tick_row)

any_float = hs.floats(allow_nan=True, allow_infinity=True)
LW = build_template("lw")
finite = hs.floats(-1e6, 1e6)


def bits(x: float) -> int:
    """Float64 bit pattern, so -0.0 and 0.0 (and NaN payloads) differ."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def same(a: float, b: float) -> bool:
    return bits(a) == bits(b) or (math.isnan(a) and math.isnan(b))


# -- one Gaussian per stance tick -----------------------------------------------

def reference_force_rate(p: GaussianParams, theta: float,
                      theta_rate: float) -> float:
    """The force rate written out with its own exp: the fused call's reference."""
    if not (p.theta_fc < theta < p.theta_fo):
        return 0.0
    sigma = p.sigma1 if theta <= p.mu else p.sigma2
    z = (theta - p.mu) / sigma
    return (p.amp * math.exp(-0.5 * z * z) * (-(theta - p.mu) / (sigma * sigma))
            * theta_rate)


@hs.composite
def gaussian_params(draw):
    fc = draw(hs.floats(-60.0, 20.0))
    fo = fc + draw(hs.floats(1e-3, 80.0))
    mu = draw(hs.floats(fc, fo).filter(lambda m: fc < m < fo))
    width = hs.floats(1e-3, 1e3)
    return GaussianParams(draw(hs.floats(1e-3, 1e4)), mu, draw(width),
                          draw(width), fc, fo)


@hs.composite
def angle_near(draw, p: GaussianParams):
    return draw(hs.one_of(
        hs.sampled_from([p.theta_fc, p.mu, p.theta_fo, math.nan, math.inf,
                         -math.inf]),
        hs.floats(p.theta_fc - 5.0, p.theta_fo + 5.0),
        any_float))


@settings(max_examples=200, deadline=None)
@given(data=hs.data(), p=gaussian_params(),
       rate=hs.one_of(finite, any_float))
def test_fused_profile_equals_the_two_calls(data, p, rate):
    theta = data.draw(angle_near(p))
    f, f_rate = eval_force_and_rate(p, theta, rate)
    assert same(f, eval_force(p, theta))
    assert same(f_rate, reference_force_rate(p, theta, rate))
    assert same(eval_force_rate(p, theta, rate), f_rate)


@settings(max_examples=200, deadline=None)
@given(data=hs.data(), p=gaussian_params())
def test_kernel_profile_equals_the_scalar_profile(data, p):
    # The support edges, the peak, NaN and the infinities, angles near the
    # support and any float, at rates finite or not.
    theta = data.draw(hs.lists(angle_near(p), min_size=1, max_size=20))
    rate = data.draw(hs.lists(hs.one_of(finite, any_float),
                              min_size=len(theta), max_size=len(theta)))
    # and the peak at infinite rates, where the rate is 0.0 * inf, NaN
    theta += [p.theta_fc, p.mu, p.mu, p.theta_fo, math.nan, math.inf,
              -math.inf]
    rate += [1.0, math.inf, -math.inf, 1.0, 1.0, 1.0, 1.0]
    # Each a tick of engaged stance under an envelope that clips no
    # finite command: the kernel logs the scalar force as f_des, and its
    # command is the reference's, whose feedforward reads the scalar rate.
    # A non-finite angle or rate aborts its tick.
    vm = 1e300
    for th, rt in zip(theta, rate):
        ctrl = make_controller()
        twin = make_controller(cls=TickController)
        twin.v_max = vm
        ctrl.state.active_params = twin.state.active_params = p
        row = tick_row(ctrl, th, 5.0, rt, 40.0, 2.5, 320.0, 0.0, 0.0, 0.001,
                       vm)
        assert same(row[1], eval_force_and_rate(p, th, rt)[0])
        assert same(row[5], twin.tick(th, 5.0, rt, 40.0, 2.5, 320.0, 0.0,
                                      0.0, 0.001))


@pytest.mark.parametrize("sigma", [1e-170, 1e-160])
@pytest.mark.parametrize("branch", ["sigma1", "sigma2"])
def test_width_whose_square_underflows_is_rejected(sigma, branch):
    # sigma * sigma is 0.0 at 1e-170 and subnormal at 1e-160, where the
    # rate would raise or be NaN (0.0 * inf at theta 0.5).
    widths = {"sigma1": 1.0, "sigma2": 1.0, branch: sigma}
    with pytest.raises(ParameterError, match="underflows"):
        GaussianParams(100.0, 0.0, theta_fc=-1.0, theta_fo=1.0, **widths)


@pytest.mark.parametrize("sigma1, sigma2", [(2e-154, 2e-154), (2e-154, 1.0),
                                            (1.0, 2e-154)])
def test_width_whose_rate_quotient_overflows_is_rejected(sigma1, sigma2):
    # sigma * sigma is normal here, but at theta 10 the quotient
    # -(theta - mu) / (sigma * sigma) is -inf while the force is 0.0, so the
    # rate would be NaN.
    with pytest.raises(ParameterError, match="rate quotient"):
        GaussianParams(100.0, 0.0, sigma1, sigma2, -20.0, 20.0)
    # On a support narrow enough for the quotient, every rate is a number.
    p = GaussianParams(100.0, 0.0, sigma1, sigma2, -1e-300, 1e-300)
    for theta in (-5e-301, 5e-301):
        assert not math.isnan(eval_force_and_rate(p, theta, 1.0)[1])


PARAMS = GaussianParams(105.0, 9.0, 6.0, 2.2, -14.0, 18.0)

def angles(k):
    """A sample's shank and DF angles and rates: the kinematic arguments of
    tick_row."""
    return k.theta_sk, k.theta_df, k.theta_sk_rate, k.theta_df_rate


def make_controller(mode=ControlMode.STANCE, cls=Controller,
                    **cfg_kw) -> Controller:
    """An engaged controller in `mode` with PARAMS; cls=TickController gives
    the per-tick reference."""
    ctrl = cls(ControllerConfig(**cfg_kw), TendonModel(50.0, 12.5, 300.0))
    ctrl.state.mode = mode
    ctrl.state.engaged = True
    ctrl.state.active_params = PARAMS
    ctrl.state.l_swing = 0.0
    ctrl.state.release_target = 320.0
    return ctrl


@settings(max_examples=200, deadline=None)
@given(theta=hs.floats(-20.0, 24.0), rate=hs.floats(-400.0, 400.0),
       engaged=hs.booleans())
def test_stance_tick_leaves_its_desired_force(theta, rate, engaged):
    ctrl = make_controller()
    ctrl.state.engaged = engaged
    sample = KinematicSample(0.0, 0.0, theta, theta, 0.0, rate, rate)
    row = tick_row(ctrl, *angles(sample), 0.5, 320.0, 0.0, 0.0, 0.001)
    assert same(row[1], eval_force(PARAMS, theta))


# -- comparison-only clamps -------------------------------------------------------

def swing_tick(ctrl, l_meas, l_meas_rate, dt, f_meas=0.0,
               v_max=PlantConfig.v_max):
    """A swing-mode tick's command under the envelope v_max, with the
    kinematics and the motor position at zero."""
    return tick_row(ctrl, 0.0, 0.0, 0.0, 0.0, f_meas, l_meas, l_meas_rate,
                    0.0, dt, v_max)[5]


@settings(max_examples=300, deadline=None)
@given(kp=any_float, kd=any_float, rate=finite, l_swing=finite,
       vm=hs.one_of(hs.just(250.0), hs.just(0.0), any_float))
@example(kp=math.inf, kd=0.0, rate=0.0, l_swing=320.0, vm=250.0)   # NaN
@example(kp=0.0, kd=1e308, rate=10.0, l_swing=320.0, vm=250.0)     # inf
@example(kp=0.0, kd=1e308, rate=-10.0, l_swing=320.0, vm=250.0)    # -inf
@example(kp=0.0, kd=0.0, rate=0.0, l_swing=320.0, vm=0.0)          # -0.0
@example(kp=0.0, kd=0.0, rate=0.0, l_swing=319.0, vm=0.0)          # 0.0
def test_clamp_equals_the_min_max_form(kp, kd, rate, l_swing, vm):
    # The swing PI without the integral term brings any command to the
    # envelope: NaN from inf * 0, the infinities from an overflowing
    # product, from finite inputs.
    ctrl = make_controller(mode=ControlMode.SWING, kp=kp, ki=0.0, kd=kd)
    ctrl.state.l_swing = l_swing
    e = l_swing - 320.0
    i = max(-50.0, min(50.0, e * 0.001))
    v = -(kp * e + 0.0 * i - kd * rate)
    want = 0.0 if math.isnan(v) else max(-vm, min(vm, v))
    assert same(swing_tick(ctrl, 320.0, rate, 0.001, v_max=vm), want)


def test_clamp_maps_nan_to_a_hold():
    # kp * e is inf * 0, a NaN command
    ctrl = make_controller(mode=ControlMode.SWING, kp=math.inf)
    ctrl.state.l_swing = 320.0
    assert bits(swing_tick(ctrl, 320.0, 0.0, 0.001)) == bits(0.0)


@settings(max_examples=150, deadline=None)
@given(l_swing=any_float, l_meas=finite, rate=finite, integral=any_float,
       clamp=hs.one_of(hs.just(50.0), any_float),
       dt=hs.sampled_from([0.001, 1.0, 1e300]))
def test_swing_anti_windup_equals_the_min_max_form(l_swing, l_meas, rate,
                                                    integral, clamp, dt):
    ctrl = make_controller(mode=ControlMode.SWING, integral_clamp=clamp)
    ctrl.state.l_swing = l_swing
    ctrl.state.e_l_integral = integral
    cfg, vm = ctrl.cfg, PlantConfig.v_max
    e = l_swing - l_meas
    i = max(-clamp, min(clamp, integral + e * dt))
    v = -(cfg.kp * e + cfg.ki * i - cfg.kd * rate)
    want_v = 0.0 if math.isnan(v) else max(-vm, min(vm, v))
    cmd = swing_tick(ctrl, l_meas, rate, dt)
    assert same(ctrl.state.e_l_integral, i)
    assert same(cmd, want_v)


@settings(max_examples=150, deadline=None)
@given(f_meas=any_float, motor_pos=any_float,
       ceiling=hs.one_of(hs.just(300.0), any_float),
       limit=hs.one_of(hs.just(80.0), any_float))
@example(f_meas=0.0, motor_pos=-81.0, ceiling=300.0, limit=80.0)
@example(f_meas=0.0, motor_pos=81.0, ceiling=300.0, limit=80.0)
@example(f_meas=301.0, motor_pos=0.0, ceiling=300.0, limit=80.0)
@example(f_meas=300.0, motor_pos=-80.0, ceiling=300.0, limit=80.0)
def test_tick_aborts_exactly_when_a_limit_is_crossed(f_meas, motor_pos,
                                                     ceiling, limit):
    kw = dict(force_ceiling=ceiling, position_limit_mm=limit)
    ctrl = make_controller(mode=ControlMode.SWING, **kw)
    # The non-finite latch, or the force ceiling or the position limit
    # crossed, at the motor position the cable of tick_row reads.
    pos = (310.0 + motor_pos) - 310.0
    want = (not math.isfinite(f_meas + pos) or f_meas > ceiling
            or abs(pos) > limit)
    cmd = tick_row(ctrl, *angles(KinematicSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                                 0.0)),
                   f_meas, 310.0, 0.0, motor_pos, 0.001)[5]
    assert ctrl.state.aborted is want
    if want:     # 310 mm is short of the 320 mm release target: pay out
        assert bits(cmd) == bits(-PlantConfig.v_max)
    else:        # the swing PI, as a twin in swing computes it
        twin = make_controller(mode=ControlMode.SWING, cls=TickController,
                               **kw)
        assert same(cmd, twin.tick_swing(310.0, 0.0, 0.001, f_meas))


def test_cable_keeps_its_nan_semantics():
    # A NaN command drives at +v_max, as min/max would; a NaN force, or a
    # NaN noise draw, reads 0.
    cfg = PlantConfig(motor_tau_s=1e-9)
    state = PlantState(l_cable=300.0)
    truth = TendonModel(cfg.lever_arm_r, cfg.k_all, cfg.baseline_c, 0.0)
    step = loop_cable(state, truth, cfg, 0.001)
    step(math.nan, cfg.baseline_c)
    assert state.motor_v == cfg.v_max
    f_truth, f_meas, *_ = step(0.0, math.nan)
    assert bits(f_truth) == bits(0.0) and bits(f_meas) == bits(0.0)
    state = PlantState(l_cable=cfg.baseline_c - 2.0)      # taut
    step = loop_cable(state, truth, cfg, 0.001)
    f_truth, f_meas, *_ = step(0.0, cfg.baseline_c, math.nan)
    assert f_truth > 0.0 and bits(f_meas) == bits(0.0)


# -- the loop's cable ---------------------------------------------------------------

cable_tick = hs.tuples(
    hs.one_of(hs.floats(-300.0, 300.0), any_float),     # cmd_v
    hs.one_of(hs.floats(290.0, 320.0), any_float),      # zero-force length
    hs.one_of(finite, any_float))                       # noise draw


@settings(max_examples=200, deadline=None)
@given(ticks=hs.lists(cable_tick, min_size=1, max_size=30),
       v_max=hs.one_of(hs.just(250.0), any_float),
       l_cable=hs.one_of(hs.floats(290.0, 320.0), any_float),
       motor_v=hs.one_of(finite, any_float),
       noise_sd=hs.sampled_from([0.0, 0.2]), noisy=hs.booleans(),
       dt=hs.sampled_from([0.001, 0.01]))
@example(ticks=[(math.nan, 300.0, 0.0), (0.0, math.nan, 0.0),
                (math.inf, math.inf, math.nan), (-math.inf, 300.0, 0.0)],
         v_max=250.0, l_cable=300.0, motor_v=0.0, noise_sd=0.2, noisy=True,
         dt=0.001)
# A force of -0.0 (k_all * (-0.0 - 0.0)), which the clip reads as 0.0.
@example(ticks=[(0.0, -0.0, 0.0)], v_max=250.0, l_cable=0.0, motor_v=0.0,
         noise_sd=0.0, noisy=False, dt=0.001)
def test_loop_cable_equals_the_min_max_form(ticks, v_max, l_cable, motor_v,
                                            noise_sd, noisy, dt):
    # State carries from tick to tick: the loop's cable lines against the
    # reference on twin states, one noise draw per tick when the reading is
    # noisy (the column is force_noise_sd * z, zeros when noiseless).
    cfg = PlantConfig(v_max=v_max, force_noise_sd=noise_sd)
    truth = TendonModel(cfg.lever_arm_r, cfg.k_all, cfg.baseline_c, 0.0)
    got_state = PlantState(l_cable=l_cable, motor_v=motor_v)
    want_state = PlantState(l_cable=l_cable, motor_v=motor_v)
    step = loop_cable(got_state, truth, cfg, dt)
    reading = (0.0, l_cable, -motor_v, cfg.baseline_c + INITIAL_SLACK_MM
               - l_cable)
    for cmd_v, l_free, z in ticks:
        noise = noise_sd * z if noisy and noise_sd > 0.0 else 0.0
        *got, v = step(cmd_v, l_free, noise)
        # The command passes as given where the reading the tick starts
        # from is finite; otherwise the guard's abort commands.
        if math.isfinite(sum(reading)):
            assert same(v, cmd_v)
        want = reference_cable_step(want_state, v, l_free,
                                    z if noisy else None, cfg, truth, dt)
        assert all(same(a, b) for a, b in zip(got, want)), (got, want)
        reading = got[1:]
        assert same(got_state.motor_v, want_state.motor_v)
        assert same(got_state.l_cable, want_state.l_cable)


@settings(max_examples=100, deadline=None)
@given(phase=hs.one_of(hs.floats(0.0, 1.0), any_float),
       migration=hs.one_of(hs.floats(0.0, 4.0), any_float))
def test_free_length_column_equals_the_scalar_length(phase, migration):
    # The kernel's zero-force length of each tick, from any phase (a
    # phase that is not a number makes every angle NaN) and any carried
    # migration (a wrap sets the next).
    world = GaitWorld(LW, PlantConfig(), standing_s=0.0)
    world.phase, world.state.migration = phase, migration
    block = world.advance_block(0.001, 20)
    truth = world.truth_tendon
    want = [truth.lever_arm_r * math.radians(df) + truth.baseline_c - mig
            for df, mig in zip(block.cols[Row.theta_df].tolist(),
                               block.migration.tolist())]
    assert all(same(a, b) for a, b in zip(
        block.cols[Row.free_length].tolist(), want))


@pytest.mark.parametrize("seed", [0, 3])
def test_noise_row_draws_the_world_noise_in_blocks(seed):
    # Across two boundaries of BLOCK_TICKS draws, in blocks of other
    # lengths: the noise row reads one stream, the draws of
    # standard_normal(BLOCK_TICKS) calls, times force_noise_sd.
    cfg = PlantConfig()
    world = GaitWorld(build_template("lw"), cfg, seed=seed)
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.standard_normal(BLOCK_TICKS)
                            for _ in range(3)]).tolist()
    got = []
    for m in (7, BLOCK_TICKS, 1, BLOCK_TICKS - 3, 5):
        got.extend(world.advance_block(0.001, m).cols[Row.noise].tolist())
    want = [cfg.force_noise_sd * z for z in draws[:len(got)]]
    assert [bits(x) for x in got] == [bits(x) for x in want]


# -- the sample clock ---------------------------------------------------------------

# Tick times in s near whole ms, off them by up to +-1e-6 ms, or any.
TICK_TIMES = hs.lists(hs.one_of(
    hs.builds(lambda k, d: (k + d) / 1000.0, hs.integers(0, 10**9),
              hs.floats(-1e-6, 1e-6)),
    hs.floats(0.0, 1e6)), min_size=1, max_size=40)


def sample_clock(t_s: list) -> tuple[list, list]:
    """(log clock, sample time) of the ticks at times t_s, as a world
    block gives them: each a block of one standing tick of dt = -0.0
    from the time t, which keeps the time t (x + -0.0 is x for every x)."""
    world = GaitWorld(LW, PlantConfig(force_noise_sd=0.0),
                      standing_s=math.inf)
    t_ms, t_sample = [], []
    for t in t_s:
        world.t_s = t
        block = world._block(-0.0, 1)
        t_ms.append(block.t_ms[0].item())
        t_sample.append(block.cols[Row.t_ms, 0].item())
    return t_ms, t_sample


def assert_clock_equals_per_tick_round(t_s: list) -> None:
    t_ms, t_sample = sample_clock(t_s)
    assert [bits(x) for x in t_ms] == [
        bits(x) for x in np.rint(np.array(t_s) * 1000.0).tolist()]
    assert [bits(x) for x in t_sample] == [bits(round(t * 1000.0, 6))
                                           for t in t_s]


@settings(max_examples=150, deadline=None)
@given(t_s=TICK_TIMES)
# exact ties of x * 1e6 at 1e-6 ms, and products that miss their tie
@example(t_s=[(k + 0.5) / 1e9 for k in range(12)] + [1234567.5 / 1e9])
# |x * 1e6| of 2**52 or more
@example(t_s=[2.0**52 / 1e9, -2.0**52 / 1e9, 3 * 2.0**52 / 1e9, 1e300])
@example(t_s=[math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-12])
def test_sample_clock_equals_per_tick_round(t_s):
    assert_clock_equals_per_tick_round(t_s)


@pytest.mark.parametrize("offset_ms", [3.9e-7, 4e-7, 4.1e-7, 4.99e-7, 5e-7,
                                       5.01e-7, 5.5e-7, 9e-7])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sample_clock_near_whole_ms(offset_ms, sign):
    """Ticks 3.9e-7 to 9e-7 ms either side of a whole ms, where the
    sample time rounds to the whole ms or to the 1e-6 ms beside it,
    round as round(t * 1000.0, 6) does."""
    for whole in (7, 1234, 987654):
        assert_clock_equals_per_tick_round(
            [(whole + sign * offset_ms) / 1000.0])


def test_whole_ms_ticks_share_the_log_clock():
    t_s = [k / 1000.0 for k in range(1, 5000, 7)]
    t_ms, t_sample = sample_clock(t_s)
    assert [bits(x) for x in t_sample] == [bits(x) for x in t_ms]


@pytest.mark.parametrize("n", [1, 5, 1000])
def test_a_drifted_clock_rounds_tick_by_tick(n):
    world = GaitWorld(LW, PlantConfig(), seed=1, standing_s=0.002)
    world.t_s = 0.37e-6          # 3.7e-4 ms off every whole ms
    t, want = world.t_s, []
    for _ in range(n):
        t += 0.001
        want.append(round(t * 1000.0, 6))
    block = world.advance_block(0.001, n)
    got = block.cols[Row.t_ms].tolist()
    assert [bits(x) for x in got] == [bits(x) for x in want]
    assert all(g != w for g, w in zip(got, block.t_ms))   # not whole ms


# -- the harness log ----------------------------------------------------------------

def test_log_records_the_profile_force_on_aborted_stance_ticks(tmp_path,
                                                              monkeypatch):
    """A force spike in stance latches the abort; the controller then holds
    without evaluating the profile and, ignoring gait events, stays in
    stance. The log's f_des_n must still be the profile force of each tick:
    the log is the rows each block hands the printer."""
    from shankexo import harness
    blocks, ctrls = [], []
    print_rows = Artifacts.print
    monkeypatch.setattr(Artifacts, "print", lambda self, rows: (
        blocks.append(rows.copy()), print_rows(self, rows)))
    monkeypatch.setattr(harness, "Controller",
                        lambda *a: ctrls.append(Controller(*a)) or ctrls[-1])
    run_scenario(ScenarioConfig(activity="lw", scenario="steady",
                                n_strides=10, seed=1, output_dir=str(tmp_path),
                                fault_spike_t_ms=8600.0, fault_spike_n=400.0))
    st = ctrls[0].state
    assert st.aborted and st.mode is ControlMode.STANCE
    col = dict(zip(LOG_COLUMNS, np.concatenate(blocks).T))
    aborted = col["mode"] == MODES.index("abort")
    assert col["t_ms"][aborted][0] == 8600.0
    want = [eval_force(st.active_params, th)
            for th in col["theta_sk_deg"][aborted].tolist()]
    got = col["f_des_n"][aborted].tolist()
    assert [bits(x) for x in got] == [bits(x) for x in want]
    assert sum(x > 0.0 for x in got) > 100


def logged_force(st, kin: KinematicSample) -> float:
    """The reference for the log's f_des_n, from the state after a tick:
    the profile force in stance with params, else 0."""
    p = st.active_params
    return (eval_force(p, kin.theta_sk)
            if st.mode is ControlMode.STANCE and p else 0.0)


OTHER_PARAMS = GaussianParams(80.0, 4.0, 3.0, 5.0, -10.0, 15.0)


@hs.composite
def controller_calls(draw):
    """on_event and tick calls from a new controller. About one tick in ten
    reads a force or a motor position past the limits, or a NaN force,
    which latches the abort."""
    calls = []
    for _ in range(draw(hs.integers(1, 40))):
        if draw(hs.integers(0, 3)) == 0:
            event = GaitEvent(draw(hs.sampled_from(list(GaitEventKind))), 0.0,
                              draw(hs.integers(0, 3)))
            calls.append((event, draw(hs.sampled_from(
                [None, PARAMS, OTHER_PARAMS]))))
            continue
        theta = draw(hs.one_of(hs.floats(-20.0, 24.0), any_float))
        rate = draw(hs.floats(-400.0, 400.0))
        f_meas, pos = draw(hs.floats(0.0, 20.0)), 0.0
        if draw(hs.integers(0, 9)) == 0:
            f_meas, pos = draw(hs.sampled_from(
                [(400.0, 0.0), (math.nan, 0.0), (5.0, 100.0)]))
        calls.append((KinematicSample(0.0, 0.0, theta, theta, 0.0, rate, rate),
                      f_meas, pos))
    return calls


FC = GaitEventKind.FOOT_CONTACT
FO = GaitEventKind.FOOT_OFF
STANCE_KIN = KinematicSample(0.0, 0.0, 5.0, 5.0, 0.0, 60.0, 60.0)


@settings(max_examples=200, deadline=None)
@given(calls=controller_calls())
# pretighten, stance, abort in stance, a foot-off the abort ignores
@example(calls=[(STANCE_KIN, 10.0, 0.0), (GaitEvent(FC, 0.0, 1), PARAMS),
                (STANCE_KIN, 3.0, 0.0), (STANCE_KIN, 400.0, 0.0),
                (GaitEvent(FO, 0.0, 1), None), (STANCE_KIN, 3.0, 0.0)])
# stance, then swing after foot-off
@example(calls=[(STANCE_KIN, 10.0, 0.0), (GaitEvent(FC, 0.0, 1), PARAMS),
                (STANCE_KIN, 3.0, 0.0), (GaitEvent(FO, 0.0, 1), None),
                (STANCE_KIN, 3.0, 0.0)])
def test_controller_holds_the_logged_desired_force(calls):
    ctrl = Controller(ControllerConfig(silent_cycles=1),
                      TendonModel(50.0, 12.5, 300.0))
    st = ctrl.state
    for call in calls:
        if isinstance(call[0], GaitEvent):
            ctrl.on_event(call[0], new_params=call[1])
            continue
        kin, f_meas, pos = call
        row = tick_row(ctrl, *angles(kin), f_meas, 320.0, 0.0, pos, 0.001)
        assert same(row[1], logged_force(st, kin))
