"""`Controller.run` against the per-tick reference, bit for bit.

`Controller.run` holds the controller state in locals across a stretch of
ticks; `scalar_reference.TickController` reads and writes `ControllerState`
on every tick, driven by `scalar_reference.reference_run`. Given the same
gait events and the same cable readings, the two must give the same
commands, log rows and state (the tendon model included) after every
stretch, and `run` must give the same rows however a stretch is cut.
"""

import dataclasses
import math
import struct

from hypothesis import example, given, settings, strategies as hs

from shankexo.controller import ControlMode, Controller, ControllerConfig
from shankexo.gait_signals import GaitEvent, GaitEventKind
from shankexo.profile import GaussianParams
from shankexo.tendon import TendonModel
from scalar_reference import TickController, reference_run

PARAMS = GaussianParams(105.0, 9.0, 6.0, 2.2, -14.0, 18.0)
OTHER_PARAMS = GaussianParams(80.0, 4.0, 3.0, 5.0, -10.0, 15.0)
FIRST_READING = (0.0, 315.0, 0.0, 0.0)   # (f_meas, l_meas, l_rate, pos)
FC, FO = GaitEventKind.FOOT_CONTACT, GaitEventKind.FOOT_OFF


def key(x):
    """x compared bit for bit: a float by its bit pattern (every NaN
    alike), anything else as it is."""
    if isinstance(x, float):
        return "nan" if x != x else struct.pack("<d", x)
    return x


def keys(xs):
    return [key(x) for x in xs]


def snapshot(ctrl: Controller) -> list:
    """Every ControllerState field and the model tendon's two estimates."""
    st, tendon = ctrl.state, ctrl.tendon
    return keys([getattr(st, f.name) for f in dataclasses.fields(st)]
                + [tendon.baseline_c, tendon.delta_l1])


class ScriptedCable:
    """A cable step that records each command and returns the next scripted
    reading, (f_truth, f_meas, l_meas, l_rate, motor_pos)."""

    def __init__(self, readings):
        self.readings = iter(readings)
        self.commands = []

    def __call__(self, cmd_v, theta_df, migration):
        self.commands.append(cmd_v)
        return next(self.readings)


# -- scripts: gait events and stretches of (tick, reading) ---------------------

FAULTS = (dict(f_meas=400.0), dict(f_meas=-400.0), dict(f_meas=math.nan),
          dict(pos=100.0), dict(pos=-100.0), dict(sk=math.nan),
          dict(df_rate=math.inf))


def step(sk, f_meas, l_meas=320.0, pos=0.0, df=5.0, sk_rate=60.0,
         df_rate=40.0, migration=1.0, l_rate=-3.0):
    """One scripted tick: its kinematics and the reading its cable step
    returns."""
    return ((sk, df, sk_rate, df_rate, migration),
            (f_meas + 0.5, f_meas, l_meas, l_rate, pos))


@hs.composite
def steps(draw):
    kw = dict(sk=draw(hs.floats(-20.0, 24.0)),
              # below the engage force, or anywhere up to past pretighten's
              f_meas=draw(hs.one_of(hs.floats(0.0, 1.9), hs.floats(0.0, 40.0))),
              l_meas=draw(hs.floats(290.0, 345.0)),
              df=draw(hs.floats(-30.0, 30.0)),
              sk_rate=draw(hs.floats(-400.0, 400.0)),
              df_rate=draw(hs.floats(-400.0, 400.0)),
              migration=draw(hs.floats(0.0, 4.0)))
    if draw(hs.integers(0, 19)) == 0:
        kw.update(draw(hs.sampled_from(FAULTS)))
    return step(**kw)


events = hs.builds(lambda kind, gc, params: ("event", GaitEvent(kind, 0.0, gc),
                                             params),
                   hs.sampled_from([FC, FO]), hs.integers(0, 4),
                   hs.sampled_from([None, PARAMS, OTHER_PARAMS]))
stretches = hs.builds(lambda s: ("ticks", s), hs.lists(steps(), max_size=25))
scripts = hs.lists(hs.one_of(events, stretches, stretches), min_size=1,
                   max_size=12)


def event(kind, gc, params=None):
    return ("event", GaitEvent(kind, 0.0, gc), params)


# pretighten retracts, confirms the baseline; silent walking; a silent
# foot-off; assisted stance: probe, engage, the overshoot shed, the tail
# release; swing with its peak force; a new stance and a spike that aborts
# it; the abort pays out, then holds; a foot-off the abort ignores.
NOMINAL = [
    ("ticks", [step(0.0, 0.0, 330.0), step(0.0, 6.0, 300.0),
               step(0.0, 0.0, 318.0)]),
    event(FC, 0, PARAMS),
    ("ticks", [step(-10.0, 0.0, 318.0), step(-8.0, 0.0, 322.0)]),
    event(FO, 0),
    event(FC, 2, PARAMS),
    ("ticks", [step(-13.0, 0.5, 330.0), step(-12.0, 0.5, 320.0),
               step(-11.0, 3.0, 318.0), step(-10.0, 30.0, 318.0),
               step(5.0, 60.0, 317.0), step(12.0, 40.0, 317.0),
               step(17.5, 3.0, 318.0), step(17.9, 0.5, 319.0)]),
    event(FO, 2),
    ("ticks", [step(0.0, 2.0, 322.0, df=2.0), step(0.0, 4.0, 323.0, df=1.0),
               step(0.0, 1.0, 324.0, df=-3.0)]),
    event(FC, 3, OTHER_PARAMS),
    ("ticks", [step(-9.0, 0.0, 326.0), step(-8.0, 2.5, 322.0),
               step(-7.0, 400.0, 300.0), step(-6.0, 0.0, 330.0),
               step(-5.0, 0.0, 340.0)]),
    event(FO, 3),
    ("ticks", [step(0.0, 0.0, 300.0)]),
]
# pretighten, then stance, engaged two ticks later
START = [("ticks", [step(0.0, 6.0, 300.0), step(0.0, 0.0, 318.0)]),
         event(FC, 2, PARAMS),
         ("ticks", [step(-11.0, 3.0, 318.0), step(-10.0, 30.0, 318.0)])]
# a NaN force reading in engaged stance
NAN_IN_STANCE = START + [
    ("ticks", [step(5.0, math.nan, 317.0), step(6.0, 40.0, 317.0)])]
# a motor position past the limit in swing
LIMIT_IN_SWING = START + [
    event(FO, 2),
    ("ticks", [step(0.0, 3.0, 322.0, pos=81.0), step(0.0, 3.0, 322.0)])]


def run_script(ctrl, script, run, cuts=()):
    """Apply the script's events and run its stretches with `run`, each
    cut before the tick offsets in `cuts`. Returns the commands, the rows,
    and the returned reading and state after each stretch."""
    reading, rows, after, commands = FIRST_READING, [], [], []
    for item in script:
        if item[0] == "event":
            ctrl.on_event(item[1], new_params=item[2])
            continue
        ticks = [t for t, _ in item[1]]
        cable = ScriptedCable([r for _, r in item[1]])
        bounds = [0, *sorted({c for c in cuts if 0 < c < len(ticks)}),
                  len(ticks)]
        for lo, hi in zip(bounds, bounds[1:]):
            reading = run(ctrl, ticks[lo:hi], cable, reading, 0.001,
                          rows.extend)
        commands.extend(cable.commands)
        after.append(keys(reading) + snapshot(ctrl))
    return keys(commands), keys(rows), after


def make(cls, map_m):
    return cls(ControllerConfig(silent_cycles=2, map_m=map_m),
               TendonModel(50.0, 12.5, 300.0))


@settings(max_examples=200, deadline=None)
@given(script=scripts, map_m=hs.sampled_from([0.0, 0.05]),
       cuts=hs.lists(hs.integers(1, 24), max_size=4))
@example(script=NOMINAL, map_m=0.0, cuts=[])
@example(script=NOMINAL, map_m=0.05, cuts=[1, 3, 4, 7])
@example(script=NAN_IN_STANCE, map_m=0.05, cuts=[1])
@example(script=LIMIT_IN_SWING, map_m=0.0, cuts=[1])
def test_run_equals_the_per_tick_reference(script, map_m, cuts):
    want = run_script(make(TickController, map_m), script, reference_run)
    assert run_script(make(Controller, map_m), script,
                      Controller.run) == want
    assert run_script(make(Controller, map_m), script, Controller.run,
                      cuts) == want


def test_the_scripts_reach_every_mode():
    codes = set()
    for script in (NOMINAL, NAN_IN_STANCE, LIMIT_IN_SWING):
        ctrl = make(Controller, 0.0)
        rows = run_script(ctrl, script, Controller.run)[1]
        codes.update(rows[0::6])
        assert ctrl.state.aborted
    assert codes == set(range(len(ControlMode) + 1))
