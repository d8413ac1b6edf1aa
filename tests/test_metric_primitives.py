"""The report's metric primitives, the tracking RMSE and the stance
correlation, against their per-element Python loops
(`tests/scalar_reference.py`), bit for bit.

The loop kernel's report (`shankexo_report` in `loop.c`) computes both, in
C: each square is C pow, as `**` on a numpy float is, and each sum adds
left to right from its first term, as `sum` and `+=` do. The series are
numpy arrays, so the loops do their scalar arithmetic on numpy floats,
whose overflow is inf (numpy's warnings are silenced). A stance of
`STANCE_GRID` ticks a ms apart has its grid at the ticks, so the report
correlates the drawn series themselves. Each series' maximum is
ndarray.max's, NaN where one value is NaN (`scalar_reference.array_max`).
Where sxx, syy or their product is not a normal float, both correlations
take the sums again over deviations scaled by a power of two, and the
range test holds |r| to 1.

A NaN result compares as NaN. Which NaN a sum of two NaNs returns depends
on the operand order of the add instruction, and summary.json prints every
NaN alike.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as hs

import scalar_reference as ref
from strides import BIO_G, DES_G, STANCE_GRID, out, stance_report
from shankexo import metrics

# Values the arithmetic treats apart: signed zeros, subnormals, the least
# normal, and magnitudes near 1e150, whose squares and their sums over 2000
# elements stay finite while sxx * syy may overflow.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e-160, 1e150, -1e150, 9.999999999999999e149]
FINITE = hs.one_of(hs.sampled_from(SPECIAL),
                   hs.floats(-1e150, 1e150, allow_subnormal=True))
ANY = hs.one_of(FINITE, hs.floats(allow_nan=True, allow_infinity=True))


@hs.composite
def series(draw, n, elements):
    """n values: a seeded draw of a drawn shape and scale, with up to 20
    drawn elements written over it at drawn places."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    scale = draw(hs.sampled_from([1e-310, 1e-160, 1e-3, 1.0, 300.0, 1e150]))
    shape = draw(hs.sampled_from(["normal", "positive", "nonpositive",
                                  "constant"]))
    x = {"normal": lambda: rng.standard_normal(n),
         "positive": lambda: rng.uniform(0.0, 1.0, n),
         "nonpositive": lambda: -rng.uniform(0.0, 1.0, n),
         "constant": lambda: np.full(n, rng.uniform(-1.0, 1.0))}[shape]()
    x *= scale
    if n:
        for i, v in draw(hs.lists(hs.tuples(hs.integers(0, n - 1), elements),
                                  max_size=20)):
            x[i] = v
    return x


@hs.composite
def pairs(draw, elements, n=None):
    """Two series of one length, n or drawn in 1-2000."""
    n = draw(hs.integers(1, 2000)) if n is None else n
    return draw(series(n, elements)), draw(series(n, elements))


def outcome(f, *args):
    """f's value, or None where it raised MetricsError (the report's
    undefined metric), with numpy's warnings silenced."""
    with np.errstate(all="ignore"):
        try:
            return f(*args)
        except metrics.MetricsError:
            return None


def assert_same(got, want):
    if got is None or want is None:
        assert got is want
    elif math.isnan(want):
        assert math.isnan(got)
    else:
        assert (np.float64(got).view(np.int64)
                == np.float64(want).view(np.int64)), (got, want)


def rmse(des, mea):
    """The report's RMSE of a stance of f_des des and f_meas mea."""
    rep = out(stance_report(des, np.zeros(len(des)), mea))
    return rep["rmse"] if rep["has_rmse"] else None


def r_shank(des, bio):
    """The report's stance correlation of f_des des with bio, over a
    STANCE_GRID-tick stance; its resampled series are des and bio."""
    rep = stance_report(des, bio)
    curves = rep.curves[[DES_G, BIO_G]]
    if ref.array_max(des) > 1.0 and ref.array_max(bio) > 0.0:
        assert np.array_equal(curves.view(np.int64),
                              np.stack((des, bio)).view(np.int64))
    else:
        assert np.isnan(curves).all()
    rep = out(rep)
    return rep["r_shank"] if rep["has_r_shank"] else None


def want_r_shank(des, bio):
    """The loops' stance correlation, where the report takes one: f_des
    peaks above 1 N and bio above 0."""
    if not (ref.array_max(des) > 1.0 and ref.array_max(bio) > 0.0):
        return None
    return outcome(ref.stance_correlation, des, bio)


@settings(max_examples=150, deadline=None)
@given(xy=pairs(ANY))
def test_rmse_pct_equals_the_loop(xy):
    """The RMSE takes NaN and infinities (f_meas is NaN after a NaN force
    reading), against the peak f_des, where it is above 1 N."""
    desired, actual = xy
    peak = ref.array_max(desired)
    assert_same(rmse(desired, actual),
                outcome(ref.rmse_pct, desired, actual, peak)
                if peak > 1.0 else None)


@settings(max_examples=150, deadline=None)
@given(xy=pairs(ANY, STANCE_GRID))
def test_stance_correlation_equals_the_loop(xy):
    des, bio = xy
    assert_same(r_shank(des, bio), want_r_shank(des, bio))


def test_a_sum_of_negative_zeros_is_zero():
    """sum starts from 0, so products that are all -0.0 add to 0.0; a plain
    left-to-right sum from the first product would give -0.0, and so a
    correlation of -0.0."""
    des = np.full(STANCE_GRID, -0.0)    # normalized: mean 0.0
    des[:4] = 2.0, -2.0, -0.0, 0.0
    bio = np.zeros(STANCE_GRID)         # normalized: mean 0.0
    bio[:4] = -0.0, 0.0, 2.0, -2.0
    x, y = des / 2.0, bio / 2.0
    assert np.signbit(np.add.accumulate(x * y)).all()
    for r in (r_shank(des, bio), ref.stance_correlation(des, bio)):
        assert r == 0.0 and not np.signbit(r)


def test_squares_are_c_pow_not_products():
    """x * x and C pow differ in the last bit for about one normal draw in
    1,300. Short sums keep that bit where long sums wash it out; the
    square root of a single square is |x| either way, so the RMSE gets
    further terms. The differences reach the reported bits for some of
    these draws, in the RMSE and in the correlation alike."""
    draws = np.random.default_rng(0).standard_normal(100_000).tolist()
    hard = [v for v in draws if v ** 2 != v * v and abs(v) < 1.0]
    assert len(hard) > 40
    bio = np.linspace(0.0, 1.0, STANCE_GRID) ** 2
    changed = set()
    for h in hard:
        # d = des - mea = (0.0, h, 0.25) against a peak of 10 N
        des, mea = np.array([10.0, 0.0, 0.0]), np.array([10.0, -h, -0.25])
        got = rmse(des, mea)
        assert_same(got, ref.rmse_pct(des, mea, 10.0))
        if got != math.sqrt((0.0 + h * h + 0.0625) / 3) / 10.0:
            changed.add("rmse")
        # normalized by its peak 2, des holds h with mean 0.0
        des = np.zeros(STANCE_GRID)
        des[:4] = 2.0, -2.0, 2.0 * h, -2.0 * h
        got = r_shank(des, bio)
        assert_same(got, ref.stance_correlation(des, bio))
        dy = bio - sum(bio) / STANCE_GRID
        x = des / 2.0
        if got != (sum(x * dy) + 0.0) / math.sqrt(
                sum(v * v for v in x) * sum(v * v for v in dy)):
            changed.add("r")
    assert changed == {"rmse", "r"}


# -- range of the correlation -------------------------------------------------

def test_correlation_where_the_squares_overflow():
    """Normalized by a peak of 2, values near -1e155 leave deviations near
    5e154, whose squares pass the float range though the deviations are
    finite: the sums are taken again over the deviations scaled by a power
    of two, and r stays within rounding of 1."""
    for big in (1e155, 1e300, 1.7e308):
        des = np.zeros(STANCE_GRID)
        des[:3] = 2.0, -big, -big / 3.0
        bio = des.copy()
        assert r_shank(des, bio) == outcome(ref.stance_correlation, des, bio)
        assert abs(r_shank(des, bio) - 1.0) <= 2e-16
        bio[3] = 1.0
        assert_same(r_shank(des, bio),
                    outcome(ref.stance_correlation, des, bio))


def test_sd_where_the_squared_deviations_overflow():
    """Per-stride values whose deviations pass about 1.3e154 square past
    the float range, and ten near 7e153 sum past it. The aggregate sd then
    squares the deviations scaled by a power of two, and scales the root
    back. The values here have few significant bits, so every square and
    sum is exact and the sd of the values scaled by 2**k is the sd scaled
    by 2**k, bit for bit; past the float range it is inf."""
    series = [[0.5, 1.75, -2.25, 5.0], [1.0, 3.0, None, 5.0], [-1.0, 1.0],
              [1.0, -1.0] * 5]
    for vals in series:
        want = metrics._sd(vals)
        for k in (500, 511, 600, 1020):
            big = [None if v is None else math.ldexp(v, k) for v in vals]
            assert metrics._sd(big) == math.ldexp(want, k)
    assert metrics._sd([1.5e308, -1.5e308]) == math.inf


def test_mean_where_the_sum_overflows():
    """Per-stride values near 1e308 sum past the float range. The aggregate
    mean then sums the values scaled by a power of two and scales the mean
    back, so the mean (and the sd taken about it) of the values scaled by
    2**k is the mean (and the sd) scaled by 2**k, bit for bit; a non-finite
    value still gives a non-finite mean."""
    series = [[0.5, 1.75, 1.5, 0.75], [1.0, 1.0, None, 1.0, 1.0],
              [1.0, -0.25, 1.5, 1.0, 1.0], [1.5] * 10]
    for vals in series:
        want_mean, want_sd = metrics._mean(vals), metrics._sd(vals)
        for k in (1022, 1023):
            big = [None if v is None else math.ldexp(v, k) for v in vals]
            assert sum(v for v in big if v is not None) == math.inf
            assert metrics._mean(big) == math.ldexp(want_mean, k)
            assert metrics._sd(big) == math.ldexp(want_sd, k)
    assert metrics._mean([1.5e308, 1.5e308, math.inf]) == math.inf
    assert math.isnan(metrics._mean([1.5e308, 1.5e308, math.nan]))


@settings(max_examples=150, deadline=None)
@given(xy=pairs(FINITE, STANCE_GRID))
def test_correlation_stays_in_range(xy):
    """Left-to-right sums drift by a few ulps, so the bound is not 1. A
    series normalized by a peak near 1e-310 can overflow to inf, and r is
    then NaN."""
    r = r_shank(*xy)
    assume(r is not None)
    assert not abs(r) > 1.0 + 1e-12, r
