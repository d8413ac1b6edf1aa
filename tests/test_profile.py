import math

import numpy as np
import pytest

from shankexo.gait_signals import StanceWindow
from shankexo.profile import (EstimationSkipped, GaussianParams, ParameterError,
                              ProfileEstimator, RawStrideFeatures, eval_force,
                              eval_force_rate, extract_raw, feature_targets)
from shankexo.metrics import MetricsError
from hypothesis import example, given, settings, strategies as hs
from scalar_reference import (PCT_GRID, STANCE_GRID_POINTS, ShankByPercentGC,
                              eval_time_profile, full_time_comparator,
                              stance_correlation, stance_grid)
from strides import DES_G, TIME_G, out, report_stride, stride_log

TABLE_PARAMS = GaussianParams(amp=150.0, mu=15.0, sigma1=10.0, sigma2=5.0,
                              theta_fc=-25.0, theta_fo=40.0)


class TestEvalForce:
    def test_peak_is_amplitude_exactly(self):
        assert eval_force(TABLE_PARAMS, 15.0) == 150.0

    def test_two_sigma_point(self):
        # theta = mu - 2*sigma1 on the rising branch
        f = eval_force(TABLE_PARAMS, -5.0)
        assert abs(f - 150.0 * math.exp(-2.0)) <= 1e-12 * 150.0
        assert f == pytest.approx(20.300292, abs=1e-5)

    def test_outside_support_clamped(self):
        assert eval_force(TABLE_PARAMS, TABLE_PARAMS.theta_fo + 5.0) == 0.0
        assert eval_force(TABLE_PARAMS, TABLE_PARAMS.theta_fc) == 0.0

    def test_range_and_branch_selection(self):
        for theta in np.linspace(-24.9, 39.9, 400):
            f = eval_force(TABLE_PARAMS, float(theta))
            assert 0.0 <= f <= 150.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            GaussianParams(100.0, 15.0, -1.0, 5.0, -20.0, 25.0)
        with pytest.raises(ParameterError):
            GaussianParams(100.0, 30.0, 10.0, 5.0, -20.0, 25.0)

    def test_continuity_at_peak(self):
        eps = 1e-7
        lo = eval_force(TABLE_PARAMS, 15.0 - eps)
        hi = eval_force(TABLE_PARAMS, 15.0 + eps)
        assert abs(lo - hi) <= 150.0 * eps

    def test_monotone_on_branches(self):
        thetas = np.linspace(-24.5, 14.99, 300)
        vals = [eval_force(TABLE_PARAMS, float(t)) for t in thetas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        thetas = np.linspace(15.01, 39.5, 300)
        vals = [eval_force(TABLE_PARAMS, float(t)) for t in thetas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_time_independence_under_reversal(self):
        rng = np.random.default_rng(11)
        traj = list(rng.uniform(-24.0, 39.0, 500))
        fwd = {(th, eval_force(TABLE_PARAMS, th)) for th in traj}
        rev = {(th, eval_force(TABLE_PARAMS, th)) for th in reversed(traj)}
        assert fwd == rev


class TestEvalForceRate:
    def test_zero_slope_at_peak(self):
        assert eval_force_rate(TABLE_PARAMS, 15.0, 500.0) == 0.0

    def test_hand_value(self):
        out = eval_force_rate(TABLE_PARAMS, 5.0, 100.0)
        expected = 150.0 * math.exp(-0.5) * (10.0 / 100.0) * 100.0
        assert out == pytest.approx(expected, rel=1e-12)
        assert out == pytest.approx(909.80, abs=0.01)

    def test_matches_central_difference(self):
        # finite-difference refinement oracle along theta(t)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(300):
            theta = float(rng.uniform(-24.0, 39.0))
            if abs(theta - TABLE_PARAMS.mu) < 0.01:
                continue
            rate = float(rng.uniform(-200.0, 200.0))
            analytic = eval_force_rate(TABLE_PARAMS, theta, rate)
            fd = (eval_force(TABLE_PARAMS, theta + h)
                  - eval_force(TABLE_PARAMS, theta - h)) / (2.0 * h) * rate
            assert abs(analytic - fd) / max(1.0, abs(analytic)) < 1e-6


def linear_window(n=45):
    sk = np.linspace(-20.0, 24.0, n)
    df = -((sk - 8.0) ** 2)
    return StanceWindow(sk.tolist(), df.tolist())


class TestExtractRaw:
    def test_landmarks_from_linear_sweep(self):
        raw = extract_raw(linear_window())
        assert raw.theta_fc == -20.0
        assert raw.theta_fo == 24.0
        assert raw.theta_mdf == pytest.approx(8.0)
        # brute-force oracle over the buffer
        w = linear_window()
        i = int(np.argmax(w.theta_df_buf))
        assert raw.theta_mdf == w.theta_sk_buf[i]

    def test_tie_breaks_to_first_index(self):
        w = StanceWindow([float(i) for i in range(12)], [1.0] * 12)
        raw = extract_raw(w)
        assert raw.theta_mdf == 0.0

    def test_short_window_skipped(self):
        w = StanceWindow([float(i) for i in range(5)],
                         [float(i) for i in range(5)])
        with pytest.raises(EstimationSkipped):
            extract_raw(w)


class TestUpdateParams:
    def initial(self):
        return GaussianParams(150.0, 15.0, 10.0, 5.0, -20.0, 25.0)

    def test_gain_arithmetic(self):
        est = ProfileEstimator(self.initial())
        p = est.update(RawStrideFeatures(-20.0, 8.0, 24.0))
        assert p.sigma1 == pytest.approx(9.1, abs=1e-12)
        assert p.sigma2 == pytest.approx(4.7, abs=1e-12)
        assert p.mu == pytest.approx(12.9, abs=1e-12)
        assert p.theta_fc == -20.0
        assert p.theta_fo == 24.0

    def test_fixed_point(self):
        est = ProfileEstimator(self.initial())
        raw = RawStrideFeatures(-25.0, 15.0, 35.0)
        s1, s2, mu = feature_targets(raw)
        assert (s1, s2, mu) == (10.0, 5.0, 15.0)
        p = est.update(raw)
        assert (p.sigma1, p.sigma2, p.mu) == (10.0, 5.0, 15.0)

    def test_geometric_convergence_rate(self):
        est = ProfileEstimator(self.initial())
        raw = RawStrideFeatures(-20.0, 8.0, 24.0)
        gap0 = abs(15.0 - 8.0)
        n_within = None
        for n in range(1, 20):
            est.update(raw)
            if abs(est.params.mu - 8.0) <= 0.05 * gap0 and n_within is None:
                n_within = n
        assert n_within in (9, 10, 11)

    def test_exact_ratio_before_guard(self):
        est = ProfileEstimator(self.initial())
        raw = RawStrideFeatures(-20.0, 8.0, 24.0)
        prev = abs(est.params.mu - 8.0)
        for _ in range(12):
            est.update(raw)
            cur = abs(est.params.mu - 8.0)
            assert cur / prev == pytest.approx(0.7, abs=1e-12)
            prev = cur

    def test_ordering_violation_rejected(self):
        est = ProfileEstimator(self.initial())
        before = est.params
        est.update(RawStrideFeatures(8.0, -20.0, 24.0))
        assert est.params is before
        assert not est.last_accepted

    def test_excursion_guard_rejects_large_jumps(self):
        est = ProfileEstimator(self.initial())
        before = est.params
        est.update(RawStrideFeatures(-20.0, 27.0, 80.0))  # |d_mu| = 12 > 10
        assert est.params is before

    def test_invariants_hold_under_adversarial_raws(self):
        rng = np.random.default_rng(23)
        est = ProfileEstimator(self.initial())
        for _ in range(500):
            vals = sorted(rng.uniform(-60.0, 60.0, 3))
            if rng.random() < 0.3:
                vals = vals[::-1]
            est.update(RawStrideFeatures(*vals))
            p = est.params
            assert p.sigma1 > 0 and p.sigma2 > 0
            assert p.theta_fc < p.mu < p.theta_fo

    def test_window_too_short_retains_params(self):
        est = ProfileEstimator(self.initial())
        w = StanceWindow([0.0], [0.0])
        before = est.params
        est.update_from_window(w)
        assert est.params is before

    def test_landmarks_are_the_last_ordered_raw(self):
        # The report's targets: an unordered raw or a window too short to
        # estimate from leaves them; an ordered raw the guard rejects
        # replaces them.
        est = ProfileEstimator(self.initial())
        unordered = RawStrideFeatures(8.0, -20.0, 24.0)
        est.update(unordered)
        assert est.landmarks is None
        ordered = RawStrideFeatures(-20.0, 8.0, 24.0)
        est.update(ordered)
        est.update(unordered)
        est.update_from_window(StanceWindow([0.0], [0.0]))
        assert est.landmarks is ordered
        guarded = RawStrideFeatures(-20.0, 27.0, 80.0)   # |d_mu| > 10
        est.update(guarded)
        assert not est.last_accepted and est.landmarks is guarded


class TestTimeProfile:
    def make_map(self):
        pct = np.linspace(0.0, 1.0, 101)
        sk = -20.0 + 44.0 * np.clip(pct / 0.674, 0.0, 1.0)
        return ShankByPercentGC(pct, sk)

    def test_no_history_returns_zero(self):
        p = GaussianParams(150.0, 8.0, 7.0, 4.0, -20.0, 24.0)
        assert eval_time_profile(p, 0.3, None) == 0.0

    def test_steady_peak_matches_amplitude(self):
        p = GaussianParams(150.0, 8.0, 7.0, 4.0, -20.0, 24.0)
        # pct at which the previous cycle crossed the peak angle
        pct_at_mu = 0.674 * (8.0 + 20.0) / 44.0
        f = eval_time_profile(p, pct_at_mu, self.make_map())
        assert f == pytest.approx(150.0, rel=1e-6)

    def test_divergence_when_theta_freezes(self):
        p = GaussianParams(150.0, 8.0, 7.0, 4.0, -20.0, 24.0)
        prev = self.make_map()
        frozen_theta = 0.0
        pct = 0.674 * (8.0 + 20.0) / 44.0  # time profile sits at its peak
        f_time = eval_time_profile(p, pct, prev)
        f_shank = eval_force(p, frozen_theta)
        assert f_time == pytest.approx(150.0, rel=1e-6)
        assert f_shank < f_time * 0.6


def outcome(f, *args):
    """f(*args) by its bits, or the MetricsError type it raised."""
    try:
        return np.float64(f(*args)).view(np.int64)
    except MetricsError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), n=hs.integers(2, 400),
       t_fc=hs.floats(1000.0, 200_000.0), lag=hs.floats(0.0, 1.0),
       ratio=hs.floats(0.25, 2.5))
@example(seed=0, n=300, t_fc=1000.0, lag=0.0, ratio=0.5)   # a tick at pct 1
@example(seed=0, n=37, t_fc=1234.5678, lag=0.3, ratio=1.0)
def test_report_time_comparator_equals_the_full_one(seed, n, t_fc, lag,
                                                    ratio):
    """The report's comparator, which the kernel evaluates only at the
    ticks np.interp reads, gives the bits of the one evaluated at every
    stance tick by the scalar eval_time_profile, and so the same
    pearson_time. The stance's ticks are whole ms apart from up to a tick
    after foot contact; the previous clean stride lasted ratio times the
    stance, so a stance longer than it reads 0 past pct 1, and its first
    tick reads pct 0 where lag is 0."""
    rng = np.random.default_rng(seed)
    tt = t_fc + lag + np.arange(float(n))
    prev_duration = ratio * n
    clean = np.cumsum(rng.uniform(-1.0, 3.0, STANCE_GRID_POINTS)) - 15.0
    mu = float(rng.uniform(-5.0, 20.0))
    p = GaussianParams(float(rng.uniform(50.0, 150.0)), mu,
                       float(rng.uniform(1.0, 15.0)),
                       float(rng.uniform(1.0, 10.0)),
                       mu - float(rng.uniform(1.0, 30.0)),
                       mu + float(rng.uniform(1.0, 30.0)))
    bio = np.sin(np.linspace(0.0, np.pi, n + 2)[1:-1]) ** 2
    log = stride_log(np.append(tt, tt[-1] + 1.0), bio=np.append(bio, 0.0),
                     f_des_n=np.append(100.0 * bio + 2.0, 0.0))
    rep = report_stride(log, t_fc, tt[-1], tt[-1] + 2.0, p, clean,
                        prev_duration)
    grid = stance_grid(tt[0], tt[-1])
    want_grid = np.linspace(tt[0], tt[-1], STANCE_GRID_POINTS)
    np.testing.assert_array_equal(grid.view(np.int64),
                                  want_grid.view(np.int64))
    want = full_time_comparator(p, tt, t_fc, prev_duration,
                                ShankByPercentGC(PCT_GRID, clean), grid)
    np.testing.assert_array_equal(rep.curves[TIME_G].view(np.int64),
                                  want.view(np.int64))
    np.testing.assert_array_equal(rep.curves[DES_G].view(np.int64), np.interp(
        grid, tt, 100.0 * bio + 2.0).view(np.int64))
    r, want_r = out(rep), outcome(stance_correlation, want,
                                  np.interp(grid, tt, bio))
    assert (np.float64(r["r_time"]).view(np.int64) if r["has_r_time"]
            else None) == (None if isinstance(want_r, type) else want_r)
