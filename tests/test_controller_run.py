"""`Controller.run` against the per-tick reference, bit for bit.

`Controller.run` holds the controller state in locals across a stretch of
ticks and steps the cable in the same loop body, over open-loop columns
(the profile, the feedforward, the cable's zero-force length and its
load-cell noise). `scalar_reference.TickController` reads and writes
`ControllerState` on every tick, and `scalar_reference.reference_run`
drives it with `reference_cable_step`, the cable one tick at a time. Given
the same gait events and the same columns, the two must give the same log
rows, readings, controller state (the tendon model included) and cable
state after every stretch, and the same safety abort log line; and `run`
must give the same rows however a stretch is cut.

`run` tests the reading in full only on the ticks it flags, or where the
reading passes a limit; the scripts put every kind of angle or rate fault
on the first, a middle and the last tick of a stretch, and an envelope of
1.1e300 flags every tick.
"""

import dataclasses
import logging
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from shankexo import controller
from shankexo.controller import ControlMode, Controller, ControllerConfig
from shankexo.gait_signals import GaitEvent, GaitEventKind
from shankexo.plant import (INITIAL_SLACK_MM, PlantConfig, PlantState,
                            bind_cable)
from shankexo.profile import GaussianParams
from shankexo.tendon import TendonModel
from scalar_reference import (TickController, reference_cable_step,
                              reference_run)

PARAMS = GaussianParams(105.0, 9.0, 6.0, 2.2, -14.0, 18.0)
OTHER_PARAMS = GaussianParams(80.0, 4.0, 3.0, 5.0, -10.0, 15.0)
FC, FO = GaitEventKind.FOOT_CONTACT, GaitEventKind.FOOT_OFF
TRUTH = TendonModel(50.0, 12.5, 300.0)
DT = 0.001
# The cable starts at the motor-position reference, 315 mm: slack.
L_START = PlantConfig.baseline_c + INITIAL_SLACK_MM


def key(x):
    """x compared bit for bit: a float by its bit pattern (every NaN
    alike), anything else as it is."""
    if isinstance(x, float):
        return "nan" if x != x else struct.pack("<d", x)
    return x


def keys(xs):
    return [key(x) for x in xs]


def snapshot(ctrl: Controller, plant: PlantState) -> list:
    """Every ControllerState field, the model tendon's two estimates and
    the cable's motor velocity and length."""
    st, tendon = ctrl.state, ctrl.tendon
    return keys([getattr(st, f.name) for f in dataclasses.fields(st)]
                + [tendon.baseline_c, tendon.delta_l1, plant.motor_v,
                   plant.l_cable])


# -- scripts: gait events and stretches of ticks --------------------------------

# An angle or rate that fires the guard (NaN, an infinity), one just below
# the magnitude from which `run` flags its tick (9.9e299), and one just
# past it (1.1e300); the channels of the four.
CHANNEL_FAULTS = (math.nan, math.inf, -math.inf, 9.9e299, 1.1e300)
CHANNELS = ("sk", "df", "sk_rate", "df_rate")
# Inputs that fire a guard or border on `run`'s flags: each channel fault in
# each channel, finite angles and rates whose sum overflows in the guard's
# order (and in no order that pairs them off), a zero-force length that is
# non-finite or far past the force ceiling (inf reads an infinite force;
# NaN and -inf read 0), a non-finite noise draw.
FAULTS = (*({c: x} for c in CHANNELS for x in CHANNEL_FAULTS),
          dict(sk=1e308, df=1e308, sk_rate=-1e308, df_rate=-1e308),
          dict(l_free=math.inf),
          dict(l_free=-math.inf), dict(l_free=math.nan), dict(l_free=400.0),
          dict(z=math.nan), dict(z=math.inf), dict(z=-math.inf))


def tick(sk, l_free, df=5.0, sk_rate=60.0, df_rate=40.0, z=0.5):
    """One tick's open-loop inputs: the angles and rates, the cable's
    zero-force length and the load-cell noise draw."""
    return (sk, df, sk_rate, df_rate, l_free, z)


@hs.composite
def ticks(draw):
    kw = dict(sk=draw(hs.floats(-20.0, 24.0)),
              # slack to about 250 N on the cable near its start
              l_free=draw(hs.floats(L_START - 10.0, L_START + 20.0)),
              df=draw(hs.floats(-30.0, 30.0)),
              sk_rate=draw(hs.floats(-400.0, 400.0)),
              df_rate=draw(hs.floats(-400.0, 400.0)),
              z=draw(hs.floats(-4.0, 4.0)))
    if draw(hs.integers(0, 24)) == 0:
        kw.update(draw(hs.sampled_from(FAULTS)))
    return tick(**kw)


events = hs.builds(lambda kind, gc, params: ("event", GaitEvent(kind, 0.0, gc),
                                             params),
                   hs.sampled_from([FC, FO]), hs.integers(0, 4),
                   hs.sampled_from([None, PARAMS, OTHER_PARAMS]))
stretches = hs.builds(lambda s: ("ticks", s), hs.lists(ticks(), max_size=25))
# A fault spike added to the force reading the next stretch's first tick
# sees, as the harness adds fault_spike_n.
spikes = hs.builds(lambda x: ("spike", x), hs.sampled_from(
    [400.0, -50.0, math.nan, math.inf, -math.inf]))
scripts = hs.lists(hs.one_of(events, stretches, stretches, spikes),
                   min_size=1, max_size=12)
# The cable's start: at rest at the reference, or off it, past the position
# limit (+-80 mm about the reference) or not a number.
starts = hs.tuples(
    hs.one_of(hs.floats(L_START - 5.0, L_START + 5.0),
              hs.sampled_from([L_START, L_START - 81.0, L_START + 81.0,
                               math.nan])),
    hs.one_of(hs.just(0.0), hs.floats(-250.0, 250.0)))


def event(kind, gc, params=None):
    return ("event", GaitEvent(kind, 0.0, gc), params)


def hold(n, l_free, sk=0.0, **kw):
    return [tick(sk, l_free, **kw)] * n


# pretighten retracts until the slack is taken up and confirms the
# baseline; silent walking; a silent foot-off; assisted stance: the probe,
# the engage tick, the overshoot shed, the tail release; swing with its
# peak force; a new stance with new params and a spike that aborts it; the
# abort pays out, then holds; a foot-off the abort ignores.
NOMINAL = [
    ("ticks", hold(40, L_START + 0.5)),
    event(FC, 0, PARAMS),
    ("ticks", hold(3, L_START - 20.0, sk=-10.0)),
    event(FO, 0),
    event(FC, 2, PARAMS),
    ("ticks", [tick(-13.0, L_START - 30.0), tick(-12.0, L_START - 25.0),
               *hold(30, L_START - 10.0, sk=-11.0),
               *hold(4, L_START + 3.0, sk=-10.0),
               tick(5.0, L_START + 6.0), tick(12.0, L_START + 4.0),
               tick(17.5, L_START + 0.5), tick(17.9, L_START)]),
    event(FO, 2),
    ("ticks", [tick(0.0, L_START + 1.0, df=2.0), tick(0.0, L_START, df=1.0),
               tick(0.0, L_START - 2.0, df=-3.0)]),
    event(FC, 3, OTHER_PARAMS),
    ("ticks", [tick(-9.0, L_START - 10.0), tick(-8.0, L_START - 5.0),
               tick(-7.0, math.inf), tick(-6.0, L_START - 10.0),
               tick(-5.0, L_START - 40.0)]),
    event(FO, 3),
    ("ticks", hold(100, L_START - 40.0)),
]
# pretighten, then stance: probe and engage
START = [("ticks", hold(40, L_START + 0.5)),
         event(FC, 2, PARAMS),
         ("ticks", [*hold(3, L_START - 5.0, sk=-11.0),
                    *hold(3, L_START + 3.0, sk=-10.0)])]
# a NaN shank angle in engaged stance
NAN_IN_STANCE = START + [
    ("ticks", [tick(math.nan, L_START), tick(6.0, L_START)])]
# finite angles and rates whose sum overflows in engaged stance, then
# infinite rates whose profile rate (0.0 * inf at the peak) and
# feedforward (inf - inf) are NaN
OVERFLOW_IN_STANCE = START + [("ticks", [
    tick(1e308, L_START, df=1e308, sk_rate=-1e308, df_rate=-1e308),
    tick(PARAMS.mu, L_START, sk_rate=math.inf),
    tick(5.0, L_START, sk_rate=math.inf, df_rate=math.inf)])]
# a force past the ceiling in swing
CEILING_IN_SWING = START + [
    event(FO, 2), ("ticks", [tick(0.0, 400.0), tick(0.0, L_START)])]
# in one stretch: pretighten takes up the slack and confirms the baseline,
# then a force past the ceiling aborts the silent walking
CONFIRM_THEN_CEILING = [("ticks", [*hold(40, L_START - 0.2),
                                   tick(0.0, 400.0), *hold(3, L_START)])]
# a NaN spike on the reading an engaged stance stretch starts from
SPIKE_IN_STANCE = START + [("spike", math.nan), ("ticks", hold(3, L_START))]


class ErrorLines(logging.Handler):
    """The messages of the error records the root logger passes on."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def run_script(ctrl, script, loop, plant_cfg, start, noisy, cuts=()):
    """Apply the script's events and run its stretches with `loop` (the
    loop under test, or the reference), each cut before the tick offsets in
    `cuts`. Returns the rows, the reading and state after each stretch,
    and the error lines logged (the safety abort's)."""
    l_cable, motor_v = start
    plant = PlantState(l_cable=l_cable, motor_v=motor_v)
    reading = (0.0, l_cable, -motor_v, L_START - l_cable)
    rows, after = [], []
    errors = ErrorLines()
    logging.getLogger().addHandler(errors)
    try:
        for item in script:
            if item[0] == "event":
                ctrl.on_event(item[1], new_params=item[2])
                continue
            if item[0] == "spike":
                reading = (reading[0] + item[1], *reading[1:])
                continue
            stretch = item[1]
            bounds = [0, *sorted({c for c in cuts if 0 < c < len(stretch)}),
                      len(stretch)]
            for lo, hi in zip(bounds, bounds[1:]):
                reading = loop(ctrl, stretch[lo:hi], plant, plant_cfg,
                               reading, noisy, rows.extend)
            after.append(keys(reading) + snapshot(ctrl, plant))
    finally:
        logging.getLogger().removeHandler(errors)
    return keys(rows), after, errors.lines


def new_loop(ctrl, stretch, plant, plant_cfg, reading, noisy, log_row):
    """`Controller.run` over the stretch's columns; the noise column is
    force_noise_sd times the draws when the reading is noisy, else 0. The
    stretch's (n, 6) float64 rows reach log_row one tick at a time, as the
    reference logs them: the mode code, a whole number, as an int."""
    cols = np.array(stretch, dtype=float).reshape(-1, 6).T
    sd = plant_cfg.force_noise_sd
    cols[5] = sd * cols[5] if noisy and sd > 0.0 else 0.0

    def flatten(rows):
        assert rows.dtype == np.float64 and rows.shape == (len(stretch), 6)
        for code, *values in rows.tolist():
            assert code.is_integer()
            log_row((int(code), *values))
    return ctrl.run(cols, bind_cable(plant, TRUTH, plant_cfg, DT), reading,
                    flatten)


def per_tick_loop(ctrl, stretch, plant, plant_cfg, reading, noisy, log_row):
    """`reference_run` over the stretch, with `reference_cable_step`."""
    def step(v, l_free, z):
        return reference_cable_step(plant, v, l_free, z if noisy else None,
                                    plant_cfg, TRUTH, DT)
    return reference_run(ctrl, stretch, step, reading, DT, log_row)


def make(cls, map_m, *envelope):
    """A controller of class cls; TickController takes the motor envelope
    that `run` takes from the cable."""
    return cls(ControllerConfig(silent_cycles=2, map_m=map_m),
               TendonModel(50.0, 12.5, 300.0), *envelope)


# The motor envelope: the default, one between, two below the probe and
# pretighten rates, whose commands only the cable clips, and one from which
# `run` tests every tick in full.
@settings(max_examples=200, deadline=None)
@given(script=scripts, map_m=hs.sampled_from([0.0, 0.05]),
       plant_cfg=hs.builds(PlantConfig,
                           v_max=hs.sampled_from([250.0, 120.0, 60.0, 20.0,
                                                  1.1e300]),
                           force_noise_sd=hs.sampled_from([0.0, 0.2])),
       start=starts, noisy=hs.booleans(),
       cuts=hs.lists(hs.integers(1, 24), max_size=4))
@example(script=NOMINAL, map_m=0.0, plant_cfg=PlantConfig(),
         start=(L_START, 0.0), noisy=True, cuts=[])
@example(script=NOMINAL, map_m=0.05, plant_cfg=PlantConfig(v_max=60.0),
         start=(L_START, 0.0), noisy=False, cuts=[1, 3, 4, 7, 33])
@example(script=NAN_IN_STANCE, map_m=0.05, plant_cfg=PlantConfig(),
         start=(L_START, 0.0), noisy=True, cuts=[1])
@example(script=OVERFLOW_IN_STANCE, map_m=0.0, plant_cfg=PlantConfig(),
         start=(L_START, 0.0), noisy=False, cuts=[])
@example(script=CEILING_IN_SWING, map_m=0.0, plant_cfg=PlantConfig(),
         start=(L_START, 0.0), noisy=True, cuts=[1])
@example(script=START, map_m=0.0, plant_cfg=PlantConfig(),
         start=(L_START + 81.0, 0.0), noisy=True, cuts=[])
@example(script=CONFIRM_THEN_CEILING, map_m=0.0,
         plant_cfg=PlantConfig(v_max=20.0), start=(L_START, 0.0), noisy=True,
         cuts=[])
@example(script=NOMINAL, map_m=0.0, plant_cfg=PlantConfig(v_max=1.1e300),
         start=(L_START, 0.0), noisy=True, cuts=[2, 5])
@example(script=SPIKE_IN_STANCE, map_m=0.0, plant_cfg=PlantConfig(),
         start=(L_START, 0.0), noisy=True, cuts=[1])
# Envelopes no config admits, where the cable's envelope of a zero command
# is not zero.
@example(script=NOMINAL, map_m=0.0, plant_cfg=PlantConfig(v_max=0.0),
         start=(L_START, 0.0), noisy=True, cuts=[])
@example(script=NOMINAL, map_m=0.0, plant_cfg=PlantConfig(v_max=-5.0),
         start=(L_START, 0.0), noisy=True, cuts=[])
@example(script=NOMINAL, map_m=0.0, plant_cfg=PlantConfig(v_max=math.nan),
         start=(L_START, 0.0), noisy=True, cuts=[])
def test_run_equals_the_per_tick_reference(script, map_m, plant_cfg, start,
                                           noisy, cuts):
    want = run_script(make(TickController, map_m, plant_cfg.v_max), script,
                      per_tick_loop, plant_cfg, start, noisy)
    assert run_script(make(Controller, map_m), script, new_loop, plant_cfg,
                      start, noisy) == want
    assert run_script(make(Controller, map_m), script, new_loop, plant_cfg,
                      start, noisy, cuts) == want


def channel_fault_script(lead, channel, value, at):
    """START, then a stretch of 7 ticks in engaged stance (lead "stance")
    or in swing (lead "swing") whose tick `at` holds value in channel."""
    stretch = []
    for k in range(7):
        kw = dict(sk=-9.0 + k, l_free=L_START + 3.0)
        if k == at:
            kw[channel] = value
        stretch.append(tick(**kw))
    return START + ([event(FO, 2)] if lead == "swing" else []) + [
        ("ticks", stretch)]


@pytest.mark.parametrize("lead, v_max", [("stance", 250.0), ("swing", 250.0),
                                         ("stance", 1.1e300)])
@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("value", CHANNEL_FAULTS)
@pytest.mark.parametrize("channel", CHANNELS)
def test_a_channel_fault_aborts_as_the_reference(channel, value, at, lead,
                                                 v_max, caplog):
    # The first tick of a stretch is flagged, the others only by their own
    # angles and rates (or, at an envelope of 1.1e300, all of them).
    script = channel_fault_script(lead, channel, value, at)
    plant_cfg = PlantConfig(v_max=v_max)
    want = run_script(make(TickController, 0.0, v_max), script,
                      per_tick_loop, plant_cfg, (L_START, 0.0), True)
    caplog.clear()
    assert run_script(make(Controller, 0.0), script, new_loop, plant_cfg,
                      (L_START, 0.0), True) == want
    aborts = [r.getMessage() for r in caplog.records
              if r.name == controller.__name__ and r.levelno == logging.ERROR]
    assert aborts == want[2]
    if v_max == 250.0:      # only a non-finite value aborts, on its tick
        assert len(aborts) == (not math.isfinite(value))


def test_a_limit_of_1e300_or_more_tests_every_tick():
    # Pretighten pays out at an envelope near the float range with a
    # position limit of 1e308: the cable length and its rate, both within
    # the limits, overflow the guard's sum, which only the full test sees.
    cfg = dict(pretighten_force=math.inf, pretighten_rate=-1.5e308,
               position_limit_mm=1e308)
    plant_cfg = PlantConfig(v_max=1.5e308)
    script = [("ticks", hold(400, L_START))]
    want = run_script(TickController(ControllerConfig(**cfg),
                                     TendonModel(50.0, 12.5, 300.0),
                                     plant_cfg.v_max),
                      script, per_tick_loop, plant_cfg, (L_START, 0.0), True)
    assert want[2] and "non-finite" in want[2][0]
    assert run_script(Controller(ControllerConfig(**cfg),
                                 TendonModel(50.0, 12.5, 300.0)),
                      script, new_loop, plant_cfg, (L_START, 0.0),
                      True) == want


def test_the_scripts_reach_every_mode():
    codes = set()
    for script in (NOMINAL, NAN_IN_STANCE, OVERFLOW_IN_STANCE,
                   CEILING_IN_SWING):
        ctrl = make(Controller, 0.0)
        rows = run_script(ctrl, script, new_loop, PlantConfig(),
                          (L_START, 0.0), True)[0]
        codes.update(rows[0::6])
        assert ctrl.state.aborted
    assert codes == set(range(len(ControlMode) + 1))


def test_the_nominal_script_probes_then_engages(monkeypatch):
    # The stances probe while the cable is slack; the tick that reads it
    # taut, in the assisted stance before the abort, engages once.
    ctrl = make(Controller, 0.0)
    engages = []
    real = controller.estimate_migration

    def watch(tendon, l_meas, theta_df, f_meas):
        engages.append((ctrl.state.active_params,
                        f_meas >= controller.ENGAGE_FORCE))
        return real(tendon, l_meas, theta_df, f_meas)
    monkeypatch.setattr(controller, "estimate_migration", watch)
    rows = run_script(ctrl, NOMINAL, new_loop, PlantConfig(), (L_START, 0.0),
                      True)[0]
    assert engages == [(PARAMS, True)] and ctrl.state.aborted
    stance_code = list(ControlMode).index(ControlMode.STANCE)
    assert sum(code == stance_code and v == key(controller.PROBE_RATE)
               for code, v in zip(rows[0::6], rows[5::6])) > 10


@pytest.mark.parametrize("script", [[], START, START + [event(FO, 2)],
                                    CONFIRM_THEN_CEILING])
def test_a_zero_tick_stretch_returns_the_reading_unchanged(script):
    # A stretch of no ticks, as `_run` runs between two events on one tick
    # (`done == at`), changes nothing and logs no row.
    ctrl = make(Controller, 0.0)
    run_script(ctrl, script, new_loop, PlantConfig(), (L_START, 0.0), True)
    plant = PlantState(l_cable=L_START - 1.0, motor_v=-0.0)
    before = snapshot(ctrl, plant)
    reading = (2.5, L_START - 1.0, -0.0, math.nan)
    rows = []
    got = ctrl.run(np.empty((6, 0)), bind_cable(plant, TRUTH, PlantConfig(),
                                                DT), reading, rows.append)
    assert keys(got) == keys(reading)
    assert [r.shape for r in rows] == [(0, 6)]
    assert snapshot(ctrl, plant) == before


def test_a_stance_without_params_logs_one_warning_per_stretch(caplog):
    # Pretighten, then a foot contact that brings no params: each stance
    # stretch holds, with one warning giving its ticks, up to the abort.
    script = [("ticks", hold(40, L_START + 0.5)), event(FC, 2),
              ("ticks", hold(7, L_START)), ("ticks", hold(3, L_START)),
              ("ticks", [tick(0.0, L_START), tick(0.0, 400.0),
                         tick(0.0, L_START)]),
              ("ticks", hold(2, L_START))]
    want = run_script(make(TickController, 0.0, PlantConfig.v_max), script,
                      per_tick_loop, PlantConfig(), (L_START, 0.0), True)
    caplog.clear()
    caplog.set_level(logging.WARNING, controller.__name__)
    assert run_script(make(Controller, 0.0), script, new_loop, PlantConfig(),
                      (L_START, 0.0), True) == want
    lines = [(r.levelno, r.getMessage()) for r in caplog.records
             if r.name == controller.__name__]
    held = "stance without profile parameters: held for %d ticks"
    assert lines == [(logging.WARNING, held % 7), (logging.WARNING, held % 3),
                     (logging.WARNING, held % 2), (logging.ERROR, want[2][0])]
