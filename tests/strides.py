"""Hand-built strides for the tests of the per-stride report: log rows
with chosen columns, and one stride reported from them by
`metrics._StrideReport`, the loop kernel's report (`shankexo_report` in
`loop.c`).

Not a test module: pytest collects only test_*.py.
"""

import numpy as np

from shankexo import kernel, metrics
from shankexo.artifacts import LOG_COLUMNS
from shankexo.gait_signals import GaitEvent, GaitEventKind
from shankexo.profile import GaussianParams

PARAMS = GaussianParams(100.0, 10.0, 8.0, 5.0, -20.0, 25.0)
# The report's slots, in loop.c's order
OUT = ("kind", "peak", "rmse", "r_shank", "r_time", "swing_max", "has_rmse",
       "has_r_shank", "has_r_time")
# The rows of its curves
CLEAN, DES_G, BIO_G, TIME_G = range(4)
STANCE_GRID = kernel.GRID_POINTS


def stride_log(t, **columns) -> np.ndarray:
    """Log rows at the times t (ms), the named columns of LOG_COLUMNS set
    (a value or one per row), every other column 0.0."""
    log = np.zeros((len(t), len(LOG_COLUMNS)))
    log[:, 0] = t
    for name, values in columns.items():
        log[:, LOG_COLUMNS.index(name)] = values
    return log


def events(fc: float, fo: float, nxt: float, gc: int = 0):
    """The foot contacts and the foot-offs of the stride gc from fc to nxt
    (ms) with foot-off fo, as `_StrideReport.report` takes them."""
    contact = GaitEventKind.FOOT_CONTACT
    return ([GaitEvent(contact, fc, gc), GaitEvent(contact, nxt, gc + 1)],
            {gc: GaitEvent(GaitEventKind.FOOT_OFF, fo, gc)})


def report_stride(log, fc, fo, nxt, params=PARAMS, clean=None,
                  clean_duration=0.0) -> metrics._StrideReport:
    """The report of the one stride from fc to nxt with foot-off fo over
    log, after a clean stride of clean_duration ms whose shank angle at
    the percent-GC grid is clean (none where clean is None)."""
    rep = metrics._StrideReport(1)
    if clean is not None:
        rep.curves[CLEAN] = clean
        rep.v[kernel.REPORT_STATE] = clean_duration
    contacts, foot_offs = events(fc, fo, nxt)
    rep.report(log, contacts, foot_offs, [params])
    return rep


def out(rep: metrics._StrideReport) -> dict:
    """The report's slots, by name."""
    return dict(zip(OUT, rep.v[kernel.REPORT_OUT:].tolist()))


def stance_report(des, bio, mea=None, params=PARAMS):
    """The report of a stride whose stance has one tick a ms, 1000 ms on
    (its foot contact half a ms before),
    with f_des des, bio bio and f_meas mea (0.0 where None), and a
    one-tick swing. Where the stance has STANCE_GRID ticks its grid is
    the ticks themselves, so its resampled series are des and bio, bit for
    bit."""
    n = len(des)
    t = 1000.0 + np.arange(n + 1.0)
    log = stride_log(t, f_des_n=np.append(des, 0.0), bio=np.append(bio, 0.0),
                     f_meas_n=np.append(np.zeros(n) if mea is None else mea,
                                        0.0))
    rep = report_stride(log, t[0] - 0.5, t[n - 1], t[n] + 1.0, params)
    assert len(rep.per_stride) == 1
    return rep
