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
    ref = np.array([tmpl.stance_pose(u) + tmpl._g(u) for u in us.tolist()])
    np.testing.assert_array_equal(bits(np.stack([sk, ft, dft, g0, g1])),
                                  bits(ref[:, [0, 1, 3, 4, 5]].T))


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_period_must_be_positive_and_finite(period):
    # At 0 it divided by zero, at -1 it failed a later check with a
    # misleading message, and NaN or inf built a template.
    with pytest.raises(TemplateError, match="period"):
        build_template("lw", period=period)
