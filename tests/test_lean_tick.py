"""The per-tick closed-loop path against the forms it replaced.

The fused profile call, the comparison-only clamps, the safety pre-check,
the bound cable step, the vectorized sample clock and the controller's
logged desired force must return what the min/max, two-call, per-tick-round
and harness-side forms return, bit for bit, for every float (NaN and
infinities included). Those forms are kept here as the references.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from shankexo.controller import ControlMode, Controller, ControllerConfig
from shankexo.gait_signals import GaitEvent, GaitEventKind, KinematicSample
from shankexo.harness import LOG_COLUMNS, ScenarioConfig, run_scenario
from shankexo.plant import (BLOCK_TICKS, GaitWorld, PlantConfig, PlantState,
                            _sample_clock, bind_cable, build_template)
from shankexo.profile import (GaussianParams, ParameterError, eval_force,
                              eval_force_and_rate, eval_force_rate)
from shankexo.tendon import TendonModel

any_float = hs.floats(allow_nan=True, allow_infinity=True)
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
    Controller.tick and tick_stance."""
    return k.theta_sk, k.theta_df, k.theta_sk_rate, k.theta_df_rate


def make_controller(mode=ControlMode.STANCE, **cfg_kw) -> Controller:
    ctrl = Controller(ControllerConfig(**cfg_kw), TendonModel(50.0, 12.5, 300.0))
    ctrl.state.mode = mode
    ctrl.state.engaged = True
    ctrl.state.active_params = PARAMS
    ctrl.state.have_swing_history = True
    ctrl.state.release_target = 320.0
    return ctrl


@settings(max_examples=200, deadline=None)
@given(theta=hs.floats(-20.0, 24.0), rate=hs.floats(-400.0, 400.0),
       engaged=hs.booleans())
def test_stance_tick_leaves_its_desired_force(theta, rate, engaged):
    ctrl = make_controller()
    ctrl.state.engaged = engaged
    sample = KinematicSample(0.0, 0.0, theta, theta, 0.0, rate, rate)
    ctrl.tick(*angles(sample), 0.5, 320.0, 0.0, 0.0, 0.001)
    assert same(ctrl.state.f_des, eval_force(PARAMS, theta))


# -- comparison-only clamps -------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(v=any_float, vm=hs.one_of(hs.just(250.0), hs.just(0.0), any_float))
@example(v=math.nan, vm=250.0)
@example(v=math.inf, vm=250.0)
@example(v=-math.inf, vm=250.0)
@example(v=0.0, vm=0.0)
@example(v=-0.0, vm=0.0)
def test_clamp_equals_the_min_max_form(v, vm):
    ctrl = make_controller(v_max=vm)
    want = 0.0 if math.isnan(v) else max(-vm, min(vm, v))
    assert same(ctrl._clamp(v), want)


def test_clamp_maps_nan_to_a_hold():
    assert bits(make_controller()._clamp(math.nan)) == bits(0.0)


@settings(max_examples=150, deadline=None)
@given(l_swing=any_float, l_meas=finite, rate=finite, integral=any_float,
       clamp=hs.one_of(hs.just(50.0), any_float),
       dt=hs.sampled_from([0.001, 1.0, 1e300]))
def test_swing_anti_windup_equals_the_min_max_form(l_swing, l_meas, rate,
                                                    integral, clamp, dt):
    ctrl = make_controller(mode=ControlMode.SWING, integral_clamp=clamp)
    ctrl.state.l_swing = l_swing
    ctrl.state.e_l_integral = integral
    cfg = ctrl.cfg
    e = l_swing - l_meas
    i = max(-clamp, min(clamp, integral + e * dt))
    v = -(cfg.kp * e + cfg.ki * i - cfg.kd * rate)
    want_v = 0.0 if math.isnan(v) else max(-cfg.v_max, min(cfg.v_max, v))
    cmd = ctrl.tick_swing(l_meas, rate, dt)
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
def test_tick_aborts_exactly_when_safety_check_does(f_meas, motor_pos,
                                                     ceiling, limit):
    kw = dict(force_ceiling=ceiling, position_limit_mm=limit)
    ctrl = make_controller(mode=ControlMode.SWING, **kw)
    ref = make_controller(mode=ControlMode.SWING, **kw)
    if not math.isfinite(f_meas + motor_pos):
        ref.state.aborted = True       # tick's non-finite latch
    want = ref.safety_check(f_meas, motor_pos)
    cmd = ctrl.tick(*angles(KinematicSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
                    f_meas, 310.0, 0.0, motor_pos, 0.001)
    assert ctrl.state.aborted is want
    if want:     # 310 mm is short of the 320 mm release target: pay out
        assert bits(cmd) == bits(-ctrl.cfg.v_max)
    else:        # the swing PI, as a twin in swing computes it
        twin = make_controller(mode=ControlMode.SWING, **kw)
        assert same(cmd, twin.tick_swing(310.0, 0.0, 0.001, f_meas))


def reference_cable_step(state, cmd_v, kin, tendon_truth, dt, config, z,
                         migration):
    """The cable step with builtin max/min clamps: the comparison form's
    reference."""
    v_target = max(-config.v_max, min(config.v_max, cmd_v))
    alpha = 1.0 - math.exp(-dt / config.motor_tau_s)
    state.motor_v += alpha * (v_target - state.motor_v)
    state.l_cable -= state.motor_v * dt
    l_taut = (tendon_truth.lever_arm_r * math.radians(kin.theta_df)
              + tendon_truth.baseline_c - migration)
    force = max(0.0, tendon_truth.k_all * (l_taut - state.l_cable))
    f_meas = force
    if z is not None and config.force_noise_sd > 0.0:
        f_meas = max(0.0, force + config.force_noise_sd * z)
    return (force, f_meas, state.l_cable, -state.motor_v,
            (config.baseline_c + config.initial_slack_mm) - state.l_cable)


def test_cable_step_keeps_its_nan_semantics():
    # A NaN command drives at +v_max, as min/max would; a NaN force, or a
    # NaN noise draw, reads 0.
    cfg = PlantConfig(motor_tau_s=1e-9)
    state = PlantState(l_cable=300.0)
    truth = TendonModel(cfg.lever_arm_r, cfg.k_all, cfg.baseline_c, 0.0)
    step = bind_cable(state, truth, cfg, 0.001)
    step(math.nan, 0.0, 0.0)
    assert state.motor_v == cfg.v_max
    f_truth, f_meas, *_ = step(0.0, math.nan, 0.0)
    assert bits(f_truth) == bits(0.0) and bits(f_meas) == bits(0.0)
    state = PlantState(l_cable=cfg.baseline_c - 2.0)      # taut
    step = bind_cable(state, truth, cfg, 0.001, iter([math.nan]))
    f_truth, f_meas, *_ = step(0.0, 0.0, 0.0)
    assert f_truth > 0.0 and bits(f_meas) == bits(0.0)


# -- the bound cable step ----------------------------------------------------------

cable_tick = hs.tuples(
    hs.one_of(hs.floats(-300.0, 300.0), any_float),     # cmd_v
    hs.one_of(hs.floats(-30.0, 30.0), any_float),       # theta_df
    hs.one_of(hs.floats(0.0, 4.0), any_float),          # migration
    hs.one_of(finite, any_float))                       # noise draw


@settings(max_examples=200, deadline=None)
@given(ticks=hs.lists(cable_tick, min_size=1, max_size=30),
       v_max=hs.one_of(hs.just(250.0), any_float),
       l_cable=hs.one_of(hs.floats(290.0, 320.0), any_float),
       motor_v=hs.one_of(finite, any_float),
       noise_sd=hs.sampled_from([0.0, 0.2]), noisy=hs.booleans(),
       dt=hs.sampled_from([0.001, 0.01]))
@example(ticks=[(math.nan, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0, 0.0),
                (math.inf, 0.0, math.inf, math.nan), (-math.inf, 0.0, 0.0, 0.0)],
         v_max=250.0, l_cable=300.0, motor_v=0.0, noise_sd=0.2, noisy=True,
         dt=0.001)
def test_bound_cable_step_equals_the_min_max_form(ticks, v_max, l_cable,
                                                  motor_v, noise_sd, noisy, dt):
    # State carries from tick to tick: the bound step against the reference
    # on twin states, one noise draw per tick when the reading is noisy.
    cfg = PlantConfig(v_max=v_max, force_noise_sd=noise_sd)
    truth = TendonModel(cfg.lever_arm_r, cfg.k_all, cfg.baseline_c, 0.0)
    got_state = PlantState(l_cable=l_cable, motor_v=motor_v)
    want_state = PlantState(l_cable=l_cable, motor_v=motor_v)
    noise = iter([z for *_, z in ticks]) if noisy else None
    step = bind_cable(got_state, truth, cfg, dt, noise)
    for cmd_v, theta_df, migration, z in ticks:
        kin = KinematicSample(0.0, 0.0, theta_df, theta_df, 0.0, 0.0, 0.0)
        got = step(cmd_v, theta_df, migration)
        want = reference_cable_step(want_state, cmd_v, kin, truth, dt, cfg,
                                    z if noisy else None, migration)
        assert type(got) is tuple
        assert all(same(a, b) for a, b in zip(got, want)), (got, want)
        assert same(got_state.motor_v, want_state.motor_v)
        assert same(got_state.l_cable, want_state.l_cable)


@pytest.mark.parametrize("seed", [0, 3])
def test_bound_cable_step_draws_the_world_noise_in_blocks(seed):
    # Across two block boundaries, with a second step bound to the same world
    # interleaved: every step of a world reads one stream, the draws of
    # standard_normal(BLOCK_TICKS).
    cfg = PlantConfig()
    world = GaitWorld(build_template("lw"), cfg, seed=seed)
    world.state.l_cable = cfg.baseline_c - 2.0     # taut: noise not clipped
    twin = PlantState(l_cable=world.state.l_cable)
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.standard_normal(BLOCK_TICKS)
                            for _ in range(3)]).tolist()
    step, other = world.cable_step(0.001), world.cable_step(0.001)
    still = KinematicSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for i in range(2 * BLOCK_TICKS + 3):
        got = (other if i % 7 == 3 else step)(0.0, 0.0, 0.0)
        want = reference_cable_step(twin, 0.0, still, world.truth_tendon,
                                    0.001, cfg, draws[i], 0.0)
        assert [bits(x) for x in got] == [bits(x) for x in want], i
        assert got[1] != got[0]


# -- vectorized sample clock ------------------------------------------------------

def tick_times(data) -> list:
    """Tick times in s near whole ms, off them by up to +-1e-6 ms, or any."""
    near = hs.builds(lambda k, d: (k + d) / 1000.0,
                     hs.integers(0, 10**9), hs.floats(-1e-6, 1e-6))
    return data.draw(hs.lists(hs.one_of(near, hs.floats(0.0, 1e6)),
                              min_size=1, max_size=40))


def assert_clock_equals_per_tick_round(t_s: list) -> None:
    t_ms, t_sample = _sample_clock(t_s)
    assert [bits(x) for x in t_ms] == [
        bits(x) for x in np.rint(np.array(t_s) * 1000.0).tolist()]
    assert [bits(x) for x in t_sample] == [bits(round(t * 1000.0, 6))
                                           for t in t_s]


@settings(max_examples=150, deadline=None)
@given(data=hs.data())
def test_sample_clock_equals_per_tick_round(data):
    assert_clock_equals_per_tick_round(tick_times(data))


@pytest.mark.parametrize("offset_ms", [3.9e-7, 4e-7, 4.1e-7, 4.99e-7, 5e-7,
                                       5.01e-7, 5.5e-7, 9e-7])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sample_clock_around_its_threshold(offset_ms, sign):
    for whole in (7, 1234, 987654):
        assert_clock_equals_per_tick_round(
            [(whole + sign * offset_ms) / 1000.0])


def test_whole_ms_ticks_share_the_log_clock():
    t_s = [k / 1000.0 for k in range(1, 5000, 7)]
    t_ms, t_sample = _sample_clock(t_s)
    assert t_sample is t_ms


@pytest.mark.parametrize("n", [1, 5, 1000])
def test_a_drifted_clock_rounds_tick_by_tick(n):
    world = GaitWorld(build_template("lw"), PlantConfig(), seed=1,
                      standing_s=0.002)
    world.t_s = 0.37e-6          # 3.7e-4 ms off every whole ms
    t, want = world.t_s, []
    for _ in range(n):
        t += 0.001
        want.append(round(t * 1000.0, 6))
    block = world.advance_block(0.001, n)
    got = [k.t_ms for k in block.kin]
    assert [bits(x) for x in got] == [bits(x) for x in want]
    assert all(g != w for g, w in zip(got, block.t_ms))   # not whole ms


# -- the harness log ----------------------------------------------------------------

def test_log_records_the_profile_force_on_aborted_stance_ticks(monkeypatch):
    """A force spike in stance latches the abort; the controller then holds
    without evaluating the profile and, ignoring gait events, stays in
    stance. The log's f_des_n must still be the profile force of each tick."""
    from shankexo import harness
    tables, ctrls = [], []
    monkeypatch.setattr(harness, "_build_report",
                        lambda cfg, c, t, table, *a: tables.append(table))
    monkeypatch.setattr(harness, "Controller",
                        lambda *a: ctrls.append(Controller(*a)) or ctrls[-1])
    run_scenario(ScenarioConfig(activity="lw", scenario="steady",
                                n_strides=10, seed=1,
                                fault_spike_t_ms=8600.0, fault_spike_n=400.0))
    st = ctrls[0].state
    assert st.aborted and st.mode is ControlMode.STANCE
    col = dict(zip(LOG_COLUMNS, tables[0].T))
    aborted = col["mode"] == harness.MODES.index("abort")
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
        ctrl.tick(*angles(kin), f_meas, 320.0, 0.0, pos, 0.001)
        assert same(st.f_des, logged_force(st, kin))
