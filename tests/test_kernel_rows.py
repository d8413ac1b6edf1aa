"""Each entry point of the loop kernel reads its rows of a world block, and
only those.

A world block's columns (`plant.WorldBlock.cols`) are one (9, n) array
whose rows, `plant.Row`, are KinematicSample's fields and then the cable's
two open-loop rows; `loop.c` declares the same rows once, in its ROW_*
enum. The closed loop (`Controller.run`) reads the shank and DF angles and
rates and the cable's rows, over views of the block as the harness hands
them; the estimation pass (`EstimationPath.run`) reads the time, the three
angles and the foot-pitch rate. A NaN row that an entry point does not
read leaves its output bit for bit, and one that it reads changes it, so a
row enum that drifts from `Row` fails here.

The world's curve entry (`shankexo_world`) writes the six kinematic rows of
the walking ticks and the torque column, and nothing else; it reads the
template's values from the slots `loop.c` names (`kernel.TEMPLATE_SLOTS`),
which `plant._template_vector` fills by those names.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest

from shankexo import kernel
from shankexo.controller import Controller, ControllerConfig
from shankexo.gait_signals import GaitEvent, GaitEventKind
from shankexo.plant import (GaitWorld, PlantConfig, Row, _template_vector,
                            bind_cable, build_template)
from shankexo.profile import EstimationPath, GaussianParams

PARAMS = GaussianParams(105.0, 9.0, 6.0, 2.2, -14.0, 18.0)
FC, FO = GaitEventKind.FOOT_CONTACT, GaitEventKind.FOOT_OFF
# The rows each entry point reads.
LOOP_ROWS = {Row.theta_sk, Row.theta_df, Row.theta_sk_rate, Row.theta_df_rate,
             Row.free_length, Row.noise}
ESTIMATION_ROWS = {Row.t_ms, Row.theta_ft, Row.theta_sk, Row.theta_df,
                   Row.theta_ft_rate}
SAMPLE_ROWS = list(Row)[:Row.free_length]
# The closed loop's script over a block: the stretches' first ticks, each
# after the gait event it names. Pretighten confirms its baseline while
# standing; two assisted strides follow.
SCRIPT = [(0, None), (1200, GaitEvent(FC, 1200.0, 0)),
          (1800, GaitEvent(FO, 1800.0, 0)), (2500, GaitEvent(FC, 2500.0, 1)),
          (3200, GaitEvent(FO, 3200.0, 1))]


def key(x):
    """x compared bit for bit: a float by its bit pattern, anything else as
    it is."""
    return struct.pack("<d", x) if isinstance(x, float) else x


def world_block(n: int):
    return GaitWorld(build_template("lw"), PlantConfig(), seed=1).advance_block(
        0.001, n)


@pytest.fixture(scope="module")
def block():
    return world_block(4000)


def closed_loop(cols: np.ndarray) -> list:
    """`Controller.run` over the views of cols between SCRIPT's events:
    the rows, then the controller's, the tendon model's and the cable's
    state."""
    world = GaitWorld(build_template("lw"), PlantConfig())
    ctrl = Controller(ControllerConfig(silent_cycles=0),
                      replace(world.truth_tendon))
    cable = bind_cable(world.state, world.truth_tendon, world.config, 0.001)
    rows = []
    bounds = [at for at, _ in SCRIPT[1:]] + [cols.shape[1]]
    for (at, event), end in zip(SCRIPT, bounds):
        if event is not None:
            ctrl.on_event(event, new_params=PARAMS)
        view = cols[:, at:end]
        assert not view.flags.c_contiguous    # read in place, rows apart
        rows.append(ctrl.run(view, cable))
    st = ctrl.state
    return [np.concatenate(rows).tobytes(),
            *map(key, (*vars(st).values(), ctrl.tendon.baseline_c,
                       ctrl.tendon.delta_l1, *vars(world.state).values()))]


def estimation_pass(samples: np.ndarray) -> list:
    """`EstimationPath.run` over every sample: each event with the index
    after it and the params then, and each stance window's angles."""
    path = EstimationPath(105.0)
    windows = []
    update = path.estimator.update_from_window

    def recording(window):
        windows.append([*map(key, window.theta_sk_buf),
                        *map(key, window.theta_df_buf)])
        return update(window)
    path.estimator.update_from_window = recording
    events, at = [], 0
    while (hit := path.run(samples, at, samples.shape[1])) is not None:
        at, ev = hit
        events.append((at, ev.kind, key(ev.t_ms), ev.gc_index,
                       *map(key, vars(path.estimator.params).values())))
    return [events, windows]


def with_nan(cols: np.ndarray, rows) -> np.ndarray:
    cols = cols.copy()
    cols[list(rows)] = np.nan
    return cols


def test_the_loop_runs_the_script(block):
    # Pretighten confirms its baseline and both stances assist: the rows
    # below compare runs that exercise every tier but the abort.
    ctrl_rows = np.frombuffer(closed_loop(block.cols)[0]).reshape(-1, 6)
    assert ctrl_rows.shape == (4000, 6)
    assert ctrl_rows[:, 1].max() > 50.0 and ctrl_rows[:, 2].max() > 5.0


def test_the_loop_reads_none_of_the_rows_it_does_not_use(block):
    unread = set(Row) - LOOP_ROWS
    assert unread == {Row.t_ms, Row.theta_ft, Row.theta_ft_rate}
    assert closed_loop(with_nan(block.cols, unread)) == closed_loop(block.cols)


@pytest.mark.parametrize("row", sorted(LOOP_ROWS), ids=lambda r: r.name)
def test_the_loop_reads_each_of_its_rows(block, row):
    assert closed_loop(with_nan(block.cols, [row])) != closed_loop(block.cols)


@pytest.fixture(scope="module")
def samples():
    """12 s of lw walking at seed 1, every 10th tick: the (7, n) sample
    rows of a world block, as the harness takes them."""
    block = world_block(13000)
    imu = np.flatnonzero(block.walking)[::10]
    return block.cols[:Row.free_length].take(imu, axis=1)


def test_the_estimation_pass_detects_strides(samples):
    events, windows = estimation_pass(samples)
    assert len(events) >= 20 and len(windows) >= 9


def test_the_estimation_pass_reads_none_of_the_rows_it_does_not_use(samples):
    unread = set(SAMPLE_ROWS) - ESTIMATION_ROWS
    assert unread == {Row.theta_sk_rate, Row.theta_df_rate}
    assert estimation_pass(with_nan(samples, unread)) == estimation_pass(
        samples)


@pytest.mark.parametrize("row", sorted(ESTIMATION_ROWS), ids=lambda r: r.name)
def test_the_estimation_pass_reads_each_of_its_rows(samples, row):
    assert estimation_pass(with_nan(samples, [row])) != estimation_pass(
        samples)


# -- the world's curve entry ---------------------------------------------------

LW = build_template("lw")
# The rows the world entry writes.
WORLD_ROWS = list(Row)[Row.theta_ft:Row.free_length]
SENTINEL = np.array([0x7FF8DEADBEEF0001], dtype=np.int64).view(np.float64)[0]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def world_rows(vector: np.ndarray, start: int = 0):
    """The world entry over 3 s of lw phases (every stance and swing
    piece) from tick start on, into columns that are a view of a wider
    array and a torque column, all filled with the NaN payload SENTINEL
    first: (the wider array, the torque column)."""
    n = 3000
    phase = np.arange(n) * (0.001 / LW.period) % 1.0
    scale = np.linspace(0.5, 1.5, n)
    wide, bio = np.full((len(Row), n + 5), SENTINEL), np.full(n, SENTINEL)
    kernel.world(vector.ctypes.data, start, n, phase.ctypes.data,
                 scale.ctypes.data, wide.ctypes.data, wide.shape[1],
                 bio.ctypes.data)
    return wide, bio


def test_the_template_vector_holds_the_value_each_slot_names():
    sk0, sk1 = LW.theta_sk_span
    named = {"period": LW.period, "stance_ratio": LW.stance_ratio,
             "sk0": sk0, "sk1": sk1, "ft_peak": LW.ft_peak,
             "g_max": LW.g_max, "g_rise_end": LW.g_rise_end,
             "g_fall_start": LW.g_fall_start, "g_fall_end": LW.g_fall_end,
             "u_plunge": LW.u_plunge, "g_dip": LW.g_dip,
             "g_plunge": LW.g_plunge, "swing_ease_s": LW.swing_ease_s,
             "swing_hold": LW.swing_hold,
             "torque_sharpness": LW.torque_sharpness, "u_pk": LW.df_peak[1]}
    assert kernel.TEMPLATE_SLOTS == tuple(named)    # loop.c's order
    assert bits(_template_vector(LW)).tolist() == bits(
        list(named.values())).tolist()


@pytest.mark.parametrize("slot", kernel.TEMPLATE_SLOTS)
def test_the_world_reads_each_template_slot(slot):
    vector = _template_vector(LW)
    clean = world_rows(vector)
    vector[kernel.TEMPLATE_SLOTS.index(slot)] = np.nan
    wide, bio = world_rows(vector)
    assert bits(wide).tolist() != bits(clean[0]).tolist() or bits(
        bio).tolist() != bits(clean[1]).tolist()


@pytest.mark.parametrize("start", [0, 1, 1234])
def test_the_world_writes_only_its_rows_of_the_walking_ticks(start):
    wide, bio = world_rows(_template_vector(LW), start)
    n = len(bio)
    kept = np.full(wide.shape, True)
    kept[WORLD_ROWS, start:n] = False
    assert (bits(wide)[kept] == bits(SENTINEL)).all()
    assert (bits(bio[:start]) == bits(SENTINEL)).all()
    assert not (bits(wide[WORLD_ROWS, start:n]) == bits(SENTINEL)).any()
    assert not (bits(bio[start:]) == bits(SENTINEL)).any()
    assert np.isfinite(wide[WORLD_ROWS, start:n]).all()
