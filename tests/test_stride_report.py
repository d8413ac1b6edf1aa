"""The per-stride report (`metrics._StrideReport`, one call of the loop
kernel's `shankexo_report` a stride) against the numpy report it replaced
(`scalar_reference.ReferenceStrideReport`), bit for bit.

The log buffers and event sets are drawn as a run streams them: rows
ascending in whole ms, foot contacts and foot-offs at or between ticks,
each call of `report` over a drawn cut of the buffer with the contacts
known so far. Both reports get the same calls. Every per-stride float
compares by its bits, a NaN as NaN, and None as None; so do the stance's
resampled series, the clean stride that the time-based comparator reads,
and the index `report` returns.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as hs

import scalar_reference as ref
from strides import BIO_G, CLEAN, DES_G, TIME_G
from shankexo import kernel, metrics
from shankexo.artifacts import LOG_COLUMNS
from shankexo.gait_signals import GaitEvent, GaitEventKind
from shankexo.profile import GaussianParams

# Values the arithmetic treats apart: NaN, the infinities, signed zeros,
# subnormals, deviations near 1e-160 and 1e155 (whose squares underflow and
# overflow), and a value whose C pow square is not its product.
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           1e-160, -1e-160, 1e155, -1e155, 2.0, -0.9261120045793674]
SCALES = [1e-160, 1e-3, 1.0, 300.0, 300.0, 1e155]
PARAMS = [GaussianParams(100.0, 10.0, 8.0, 5.0, -20.0, 25.0),
          GaussianParams(150.0, 0.0, 1.0, 1.0, -1e300, 1e300),
          GaussianParams(2.0, 30.0, 20.0, 2.0, -25.0, 40.0)]


def column(draw, rng, n):
    """n values of a drawn shape and scale, with drawn special values
    written over them at drawn rows."""
    shape = draw(hs.sampled_from(["bump", "bump", "normal", "nonpositive",
                                  "constant", "zeros"]))
    x = {"bump": lambda: np.sin(np.linspace(0.0, rng.uniform(1.0, 9.0), n))
         ** 2,
         "normal": lambda: rng.standard_normal(n),
         "nonpositive": lambda: -rng.uniform(0.0, 1.0, n),
         "constant": lambda: np.full(n, rng.uniform(-1.0, 2.0)),
         "zeros": lambda: np.where(rng.random(n) < 0.5, -0.0, 0.0)}[shape]()
    x *= draw(hs.sampled_from(SCALES))
    for i, v in draw(hs.lists(hs.tuples(hs.integers(0, n - 1),
                                        hs.sampled_from(SPECIAL)),
                              max_size=6)):
        x[i] = v
    return x


@hs.composite
def runs(draw):
    """A log buffer, its gait events and the calls of `report` over it."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    n = draw(hs.integers(1, 400))
    gaps = rng.choice([1.0, 1.0, 1.0, 7.0], n)
    t = 1000.0 + np.cumsum(gaps) - gaps[0]
    log = np.zeros((n, len(LOG_COLUMNS)))
    log[:, LOG_COLUMNS.index("t_ms")] = t
    for name in ("f_des_n", "f_meas_n", "bio", "theta_sk_deg"):
        log[:, LOG_COLUMNS.index(name)] = column(draw, rng, n)
    if draw(hs.booleans()):     # the shank angle rises through the supports
        log[:, LOG_COLUMNS.index("theta_sk_deg")] = -30.0 + 70.0 * (
            np.arange(n) / rng.uniform(50.0, 400.0) % 1.0)
    # perturbation windows: runs of kind 1 or 2 (or 0.5, which int() makes
    # 0) over rows of kind 0
    kind = log[:, LOG_COLUMNS.index("perturb_kind")]
    windows = hs.lists(hs.tuples(hs.integers(0, n - 1), hs.integers(1, 40),
                                 hs.sampled_from([1.0, 2.0, 0.5])), max_size=2)
    for lo, length, k in draw(hs.one_of(hs.just([]), hs.just([]), windows)):
        kind[lo:lo + length] = k

    # foot contacts in time order at or between ticks, and each stride's
    # foot-off: within it, just after its contact (a stance of one or two
    # ticks), at any tick, or missing
    offsets = hs.sampled_from([-0.5, 0.0, 0.0, 0.25])
    strides = draw(hs.integers(1, 5))
    rows = (np.linspace(0, n - 1, strides + 1).astype(int)
            if draw(hs.booleans()) else rng.integers(0, n, strides + 1))
    contact_t = sorted(t[i] + draw(offsets) for i in rows)
    contacts = [GaitEvent(GaitEventKind.FOOT_CONTACT, c, i)
                for i, c in enumerate(contact_t)]
    foot_offs = {}
    for i, (c, nxt) in enumerate(zip(contact_t, contact_t[1:])):
        how = draw(hs.sampled_from(["within"] * 3 + ["after", "any",
                                                     "none"]))
        if how == "within":
            at = min(np.searchsorted(t, c + rng.uniform(0.2, 0.9)
                                     * (nxt - c)), n - 1)
            fo = t[at] + draw(offsets)
        elif how == "after":
            fo = c + draw(hs.sampled_from([0.25, 0.5, 1.0, 2.0]))
        elif how == "any":
            fo = t[rng.integers(0, n)] + draw(offsets)
        if how != "none":
            foot_offs[i] = GaitEvent(GaitEventKind.FOOT_OFF, fo, i)
    adopted = [draw(hs.sampled_from(PARAMS)) for _ in contacts]
    # each call: the contacts known, and the rows the buffer holds
    calls = []
    for _ in range(draw(hs.integers(1, strides + 1))):
        known = draw(hs.integers(0, len(contacts)))
        start = draw(hs.integers(0, n))
        calls.append((known, start, draw(hs.integers(start, n))))
    calls.append((len(contacts), 0, n))
    return log, contacts, foot_offs, adopted, sorted(calls)


def same(got, want) -> bool:
    if got is None or want is None:
        return got is want
    if isinstance(want, int):
        return type(got) is int and got == want
    return (np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
            or (math.isnan(got) and math.isnan(want)))


def same_array(got, want) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and bool((
        (got.view(np.int64) == want.view(np.int64))
        | (np.isnan(got) & np.isnan(want))).all())


def assert_same_report(got: metrics._StrideReport,
                       want: ref.ReferenceStrideReport):
    assert len(got.per_stride) == len(want.per_stride)
    for g, w in zip(got.per_stride, want.per_stride):
        for name, value in vars(w).items():
            assert same(getattr(g, name), value), (name, g, w)
    if want.grids:
        assert same_array(got.curves[[DES_G, BIO_G, TIME_G]], want.grids[-1])
    duration = got.v[kernel.REPORT_STATE]
    if want.prev_clean is None:
        assert duration == 0.0
    else:
        assert same(float(duration), want.prev_duration)
        assert same_array(got.curves[CLEAN], want.prev_clean.theta)


def nominal_run(kind=0.0):
    """Three strides of 300 ticks over a sine stance, no cut; the second
    has perturbation kind `kind` over ten ticks."""
    t = 1000.0 + np.arange(900.0)
    phase = np.linspace(0.0, 3.0, 900) % 1.0
    log = np.zeros((900, len(LOG_COLUMNS)))
    for name, values in (("t_ms", t), ("theta_sk_deg", 40.0 * phase - 20.0),
                         ("f_des_n", 90.0 * np.sin(np.pi * phase / 0.6) ** 2
                          * (phase < 0.6)),
                         ("f_meas_n", 85.0 * np.sin(np.pi * phase / 0.6) ** 2
                          * (phase < 0.6) + 0.5),
                         ("bio", np.sin(np.pi * phase / 0.6) * (phase < 0.6))):
        log[:, LOG_COLUMNS.index(name)] = values
    log[350:360, LOG_COLUMNS.index("perturb_kind")] = kind
    contacts = [GaitEvent(GaitEventKind.FOOT_CONTACT, 1000.0 + 300.0 * i, i)
                for i in range(4)]
    foot_offs = {i: GaitEvent(GaitEventKind.FOOT_OFF, 1180.0 + 300.0 * i, i)
                 for i in range(3)}
    return log, contacts, foot_offs, PARAMS[:1] * 4, [(4, 0, 900)]


@settings(max_examples=150, deadline=None)
@given(run=runs())
@example(run=nominal_run())
@example(run=nominal_run(0.5))      # int(0.5) is 0: a clean stride
@example(run=nominal_run(2.0))
def test_report_equals_the_numpy_report(run):
    log, contacts, foot_offs, adopted, calls = run
    got = metrics._StrideReport(len(contacts))
    want = ref.ReferenceStrideReport(len(contacts))
    with np.errstate(all="ignore"):
        for known, start, end in calls:
            args = log[start:end], contacts[:known], foot_offs, adopted
            assert got.report(*args) == want.report(*args)
            assert_same_report(got, want)


def test_the_nominal_run_is_reported_in_full():
    # The @example's strides: each is reported with both correlations
    # after the first, whose comparator has no clean stride yet.
    log, contacts, foot_offs, adopted, _ = nominal_run()
    rep = metrics._StrideReport(3)
    assert rep.report(log, contacts, foot_offs, adopted) == 900
    assert [s.pearson_time is None for s in rep.per_stride] == [
        True, False, False]
    for s in rep.per_stride:
        assert 0.0 < s.rmse_pct < 0.1 and s.pearson_shank > 0.9
        assert s.swing_max_force == 0.5
