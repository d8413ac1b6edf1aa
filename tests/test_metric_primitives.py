"""The report's metric primitives against their per-element Python loops
(`tests/scalar_reference.py`), bit for bit.

The numpy forms square with np.float_power, which is C pow as `**` on a
float is, and add with np.add.accumulate, left to right as `sum` and `+=`
do. The series are numpy arrays, as `_build_report` hands them, so both
sides do their scalar arithmetic on numpy floats. numpy's floating-point
warnings are silenced on both sides: an overflow of the squares is then inf
on both, and the property compares the values. Where sxx, syy or their
product is not a normal float, both correlations take the sums again over
deviations scaled by a power of two, and the range test holds |r| to 1.

A NaN result compares as NaN. Which NaN a sum of two NaNs returns depends
on the operand order of the add instruction, and summary.json prints every
NaN alike.
"""

import math
import warnings

import numpy as np
from hypothesis import assume, given, settings, strategies as hs

import scalar_reference as ref
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
def pairs(draw, elements):
    """Two series, mostly of one length in 0-2000."""
    n = draw(hs.integers(0, 2000))
    m = draw(hs.one_of(hs.just(n), hs.just(n), hs.integers(0, 2000)))
    return draw(series(n, elements)), draw(series(m, elements))


def outcome(f, *args):
    """f's value, or the class of what it raised, with numpy's warnings
    silenced."""
    with np.errstate(all="ignore"):
        try:
            return f(*args)
        except Exception as exc:
            return type(exc)


def assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    elif math.isnan(want):
        assert math.isnan(got)
    else:
        assert (np.float64(got).view(np.int64)
                == np.float64(want).view(np.int64)), (got, want)


@settings(max_examples=150, deadline=None)
@given(xy=pairs(ANY), peak=hs.one_of(hs.floats(), hs.sampled_from(SPECIAL)))
def test_rmse_pct_equals_the_loop(xy, peak):
    """rmse_pct takes NaN and infinities: f_meas is NaN after a NaN force
    reading."""
    desired, actual = xy
    assert_same(outcome(metrics.rmse_pct, desired, actual, peak),
                outcome(ref.rmse_pct, desired, actual, peak))


# The correlations get finite series only. The report cannot hand them a
# NaN: they see f_des, which is the profile's force or 0, the comparator's
# force and bio, all finite. And the builtin max the loops use and
# ndarray.max differ once a NaN is present.

@settings(max_examples=150, deadline=None)
@given(xy=pairs(FINITE))
def test_pearson_equals_the_loop(xy):
    x, y = xy
    assert_same(outcome(metrics.pearson, x, y), outcome(ref.pearson, x, y))


@settings(max_examples=150, deadline=None)
@given(xy=pairs(FINITE))
def test_stance_correlation_equals_the_loop(xy):
    m, b = xy
    assert_same(outcome(metrics.stance_correlation, m, b),
                outcome(ref.stance_correlation, m, b))


def test_a_sum_of_negative_zeros_is_zero():
    """sum starts from 0, so products that are all -0.0 add to 0.0; a plain
    np.add.accumulate would give -0.0, and so a correlation of -0.0."""
    x = np.array([1.0, -1.0, -0.0, 0.0])    # mean 0.0
    y = np.array([-0.0, 0.0, 1.0, -1.0])    # mean 0.0
    assert np.signbit(np.add.accumulate(x * y)).all()
    for f in (metrics.pearson, ref.pearson):
        r = f(x, y)
        assert r == 0.0 and not np.signbit(r)


def test_squares_are_c_pow_not_products():
    """x * x and C pow differ in the last bit for about one normal draw in
    1,300. Short series keep that bit where long sums wash it out; the
    square root of a single square is |x| either way, so rmse_pct gets a
    second term."""
    draws = np.random.default_rng(0).standard_normal(100_000).tolist()
    hard = [v for v in draws if v ** 2 != v * v]
    assert len(hard) > 40
    for h in hard:
        d = np.array([h, 0.3])
        assert_same(metrics.rmse_pct(d, np.zeros(2), 1.0),
                    ref.rmse_pct(d, np.zeros(2), 1.0))
        x = np.array([h, -h, 0.0])
        y = np.array([1.0, 2.0, 4.0])
        assert_same(metrics.pearson(x, y), ref.pearson(x, y))
        assert_same(metrics.pearson(y, x), ref.pearson(y, x))


# -- range of the correlation -------------------------------------------------

def test_pearson_where_sxx_syy_or_their_product_is_not_normal():
    """sxx * syy underflows to 0.0 for deviations near 1e-160 and overflows
    to inf near 1e150, though both sums are non-zero and finite. Near 1e-161
    syy itself is subnormal, with few significant bits, so taking the two
    square roots apart is not enough: that gave |r| up to 1.67."""
    cases = [([1e-160, -1e-160, 0.0],) * 2, ([1e150, -1e150, 0.0],) * 2,
             ([0.0, 1.0, 1.0], [0.0, 3e-161, 3e-161])]
    for x, y in cases:
        x, y = np.array(x), np.array(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.pearson(x, y) == 1.0
            assert metrics.pearson(x, -y) == -1.0


def test_pearson_where_the_squared_deviations_all_underflow():
    """Deviations near 1e-170 square to 0.0, so sxx is 0.0 though the series
    is not constant; the scaled sums give the correlation."""
    x = np.array([1e-170, -1e-170, 0.0])
    for f in (metrics.pearson, ref.pearson):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(x, x) == 1.0
            assert abs(f(x, -x) + 1.0) <= 1e-15


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
@given(xy=pairs(FINITE))
def test_pearson_stays_in_range(xy):
    """Left-to-right sums of up to 2000 terms drift by a few hundred ulps,
    so the bound is not a few ulps."""
    r = outcome(metrics.pearson, *xy)
    assume(not isinstance(r, type))
    assert abs(r) <= 1.0 + 1e-12, r
