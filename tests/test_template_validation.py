"""The template validator against the numbers of the modules it checks for.

plant._validate reads the detector's thresholds (DetectorConfig), the IMU
period (gait_signals.IMU_PERIOD_MS) and the estimator's reach (the initial
profile and the update guard in profile). The derived bounds must equal the
literals they replaced bit for bit, so every template validates as before;
the stance grid the validator samples must equal the scalar curves bit for
bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from shankexo import plant
from shankexo.gait_signals import IMU_PERIOD_MS, DetectorConfig
from shankexo.plant import TemplateError, build_template
from scalar_reference import g, stance_pose

TEMPLATES = {a: build_template(a) for a in ("lw", "lr", "ra", "rd")}


def bits(values) -> np.ndarray:
    """Float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_landmark_window_equals_the_replaced_literals():
    window = plant._landmark_window()
    literals = ((5.1, 14.9), (1.1, 9.9), (5.2, 24.8))
    np.testing.assert_array_equal(bits(window), bits(literals))


def test_detector_margins_equal_the_replaced_literals():
    det = DetectorConfig()
    imu_dt = IMU_PERIOD_MS / 1000.0
    got = (det.delta_ang, det.refractory_ms / 1000.0, det.fo_arm_fraction,
           imu_dt, 4 * imu_dt)
    np.testing.assert_array_equal(bits(got),
                                  bits((1.0, 0.200, 0.45, 0.010, 0.040)))


def test_landmark_targets_outside_the_window_rejected():
    # A short shank span puts mu* near 3 deg, below the window's 5.2.
    with pytest.raises(TemplateError, match="landmark targets"):
        build_template("lw", theta_sk_span=(-14.0, 10.0))


def test_plunge_window_follows_the_imu_period(monkeypatch):
    build_template("lw")
    # At 25 Hz four samples span 160 ms, longer than any plunge window.
    monkeypatch.setattr(plant, "IMU_PERIOD_MS", 40.0)
    with pytest.raises(TemplateError, match="four IMU samples"):
        build_template("lw")


@pytest.mark.parametrize("activity", sorted(TEMPLATES))
@pytest.mark.parametrize("tie", [False, True], ids=["knots", "tied-knots"])
def test_stance_grid_equals_the_scalar_curves(activity, tie):
    tmpl = TEMPLATES[activity]
    if tie:   # equal knots: the scalar `u <= knot` chain picks the first piece
        tmpl = replace(tmpl, g_fall_start=tmpl.g_rise_end,
                       u_plunge=tmpl.g_fall_end)
    us, sk, ft, dft, g0, g1 = plant._sample_stance(tmpl)
    ref = np.array([stance_pose(tmpl, u) + g(tmpl, u) for u in us.tolist()])
    np.testing.assert_array_equal(bits(np.stack([sk, ft, dft, g0, g1])),
                                  bits(ref[:, [0, 1, 3, 4, 5]].T))


@pytest.mark.parametrize("activity", sorted(TEMPLATES))
def test_stance_pose_equals_the_scalar_pose(activity):
    # GaitTemplate.stance_pose is the kernel's stance curve at one point
    # (`shankexo_stance`, as the grid above); it returns the scalar pose's
    # floats at the knots, just past them, between them and at the stance
    # ends. The foot-off landmark is its value at u = 1.
    tmpl = TEMPLATES[activity]
    knots = [tmpl.g_rise_end, tmpl.g_fall_start, tmpl.g_fall_end,
             tmpl.u_plunge]
    us = [0.0, *knots, *(float(np.nextafter(k, 1.0)) for k in knots),
          0.1, 0.5, 0.77, 0.905, 0.95, float(np.nextafter(1.0, 0.0)), 1.0]
    for u in us:
        got = tmpl.stance_pose(u)
        assert [type(v) for v in got] == [float] * 4
        assert bits(got).tolist() == bits(stance_pose(tmpl, u)).tolist(), u
    assert bits(tmpl.landmarks[2]) == bits(stance_pose(tmpl, 1.0)[0])


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_period_must_be_positive_and_finite(period):
    # At 0 it divided by zero, at -1 it failed a later check with a
    # misleading message, and NaN or inf built a template.
    with pytest.raises(TemplateError, match="period"):
        build_template("lw", period=period)


@pytest.mark.parametrize("key, value", [
    ("torque_sharpness", 0.0), ("torque_sharpness", -1.0),
    ("torque_sharpness", math.nan), ("torque_sharpness", math.inf),
    ("swing_ease_s", 0.0), ("swing_ease_s", -0.001),
    ("swing_ease_s", math.nan), ("swing_ease_s", math.inf),
    ("swing_hold", math.nan), ("swing_hold", -0.1), ("swing_hold", 1.0),
    ("swing_hold", math.inf),
    # the hold that leaves no return window after the lw swing ease
    ("swing_hold", 1.0 - 0.0015 / (1.13 * (1.0 - 0.674))),
])
def test_swing_and_torque_values_rejected(key, value):
    # Before, torque_sharpness -1 raised ZeroDivisionError in a run, inf
    # swing_ease_s ran until SignalLossError, and the others completed runs.
    with pytest.raises(TemplateError, match=key):
        build_template("lw", **{key: value})


@pytest.mark.parametrize("key, value", [
    ("swing_hold", 0.0), ("swing_hold", 0.5), ("swing_ease_s", 0.003),
    ("torque_sharpness", 1.0)])
def test_swing_and_torque_values_inside_the_bounds_build(key, value):
    assert getattr(build_template("lw", **{key: value}), key) == value


@pytest.mark.filterwarnings("error")
def test_knots_out_of_order_rejected_before_the_curves_divide():
    # The excess rise divides by g_rise_end; sampled first, a rise ending
    # at 0 also printed numpy's 0/0 warning, so the command's error was
    # not one line.
    with pytest.raises(TemplateError, match="knots out of order"):
        build_template("lw", g_rise_end=0.0)


@pytest.mark.parametrize("key", ["df_peak", "landmarks"])
def test_derived_fields_cannot_be_overridden(key):
    # _finalize derives them, and used to overwrite an override silently.
    with pytest.raises(TemplateError, match=key):
        build_template("lw", **{key: getattr(TEMPLATES["lw"], key)})
