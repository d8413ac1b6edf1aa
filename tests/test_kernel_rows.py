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
"""

import struct
from dataclasses import replace

import numpy as np
import pytest

from shankexo.controller import Controller, ControllerConfig
from shankexo.gait_signals import GaitEvent, GaitEventKind
from shankexo.plant import (GaitWorld, PlantConfig, Row, bind_cable,
                            build_template)
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
