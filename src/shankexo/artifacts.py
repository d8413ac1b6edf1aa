"""Run artifacts: the run log's columns, timeseries.csv and summary.json.

The run log has a row per control tick and the columns of LOG_COLUMNS, as
float64:

    t_ms, stride       tick time (whole ms); gc_index of the last detected
                       foot contact, -1 before the first
    mode               index into MODES; "abort" once the safety abort latched
    theta_*_deg        truth shank, foot-pitch and DF angles
    f_des_n            desired force (N), 0 outside assisted stance: the
                       profile at the tick's shank angle
    f_meas_n, f_truth_n, l_cable_mm, v_cmd_mm_s
                       plant reading and velocity command (positive retracts)
    belt_scale         phase-rate multiplier of ramps and perturbations
    perturb_kind       0 none, 1 forward, 2 backward perturbation window
    bio                normalized biological ankle torque, 0 while standing

The artifacts are written under temporary names (_PARTIAL) in out_dir.
timeseries.csv is printed by a printer process that `Artifacts` forks at
the run's start, so the printing overlaps the run; the process and its
protocol (the fork, the fds it keeps, the blocks on its pipe, its failure
report and the reap) are `forked`'s. The printer writes the header and
the rows to the temporary file, which the parent creates first.
`Artifacts.print` hands it log rows, (m, 14) float64, as one block; EOF
ends the rows. The printer keeps its pipe end and the CSV. write_artifacts
writes summary.json while the printer drains, reaps it, and only then
renames both files into place. A printer that fails, its OSError named
"timeseries.csv printer", or is killed fails the run at the next `print`
or in write_artifacts.
Leaving the `Artifacts` block reaps the printer and removes what is still
under a temporary name, so a run that raises leaves neither the files nor
their temporaries, nor a process.

timeseries.csv holds the first twelve columns, the mode by name, and
`perturbed` = (perturb_kind != 0), in the format of _CSV_ROW: t_ms as %.1f,
stride as %d, the nine values as %.6f. The printer (`_printer`) prints
_CSV_CHUNK rows at a time with numpy array operations (`_csv_block`), to
the bytes one `_CSV_ROW %` per row gives (`_csv_rows`, the reference), so
the bytes do not depend on where chunks are cut:

- A %.Nf field is n = rint(x * 10**N), printed as the integer part
  n // 10**N (leading zeros dropped) and N fraction digits. The digits come
  from a 10000-entry table of 4-digit ASCII groups, the sign from
  signbit(x), so -0.0 and negatives that round to zero print "-0.000000"
  as `%` does. stride (%d) and the mode index are whole numbers, printed
  as they are.
- `%` rounds the exact binary value of x, half to even. The product
  x * 10**N is off the exact one by at most half its ulp, so rint gives
  the same integer unless a .5 boundary lies within half an ulp of the
  product. Below the budget the ulp is at most 1/64, so every .5 boundary
  is a float on the product's grid: one that the product does not sit on
  lies at least one ulp away, twice the error. So the guard is an exact
  tie, |x * 10**N - n| == 0.5 (the difference is exact there): a product
  that is a .5 boundary is not printed this way.
- A chunk goes through `_csv_rows` when any of its rows has such a field,
  a non-finite value, a magnitude of 1e8 - 1 or more, a non-integer stride
  or a mode index outside MODES. Both paths give the same bytes; the
  fallback keeps the fast path's cases few enough to prove, and is no
  setting.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import asdict
from functools import partial

import numpy as np

from . import forked
from .controller import MODES

LOG_COLUMNS = ("t_ms", "stride", "mode", "theta_sk_deg", "theta_ft_deg",
               "theta_df_deg", "f_des_n", "f_meas_n", "f_truth_n",
               "l_cable_mm", "v_cmd_mm_s", "belt_scale", "perturb_kind", "bio")
CSV_COLUMNS = [*LOG_COLUMNS[:12], "perturbed"]
_CSV_ROW = "%.1f,%d,%s" + ",%.6f" * 9 + ",%d\r\n"

# The block printer of timeseries.csv. A row is 13 fields of 17 bytes:
# t_ms, stride, mode, the nine values, and ",<perturbed>\r\n". A numeric
# field is a separator, a sign, 8 integer digits, a decimal point and up to
# 6 fraction digits. Bytes the line does not hold are NUL and are dropped.
_CSV_BUDGET = 1e8 - 1    # |x| below this rounds to at most 8 integer digits
# Rows per printed block, apart from the world's BLOCK_TICKS: the printer's
# temporaries scale with it (4000-row blocks raised long-ramp-artifacts'
# peak RSS by 9 %), and 1000 rows already amortize its calls.
_CSV_CHUNK = 1000
_CSV_SCALE = np.array([10, 1, 1] + [10**6] * 9)   # 10**decimals
# "0000" .. "9999" as four ASCII digits packed in one uint32 each, and the
# same with leading zeros as NUL ("0" keeps its last digit)
_NUMBERS = np.arange(10_000, dtype=np.uint16)[:, None]
_DIGITS = (_NUMBERS // np.array([1000, 100, 10, 1], np.uint16) % 10
           + ord("0")).astype(np.uint8)
_GROUPS = _DIGITS.view(np.uint32).ravel()
_GROUPS_STRIPPED = np.where(_NUMBERS < np.array([1000, 100, 10, 0], np.uint16),
                            np.uint8(0), _DIGITS).view(np.uint32).ravel()
_MODE_FIELDS = np.frombuffer(b"".join(
    ("," + m).encode().ljust(17, b"\0") for m in MODES),
    np.uint8).reshape(len(MODES), 17)
_CSV_TEMPLATE = np.zeros((13, 17), np.uint8)
_CSV_TEMPLATE[1:, 0] = ord(",")
_CSV_TEMPLATE[0, 10] = _CSV_TEMPLATE[3:12, 10] = ord(".")
_CSV_TEMPLATE[12, 2:4] = (ord("\r"), ord("\n"))

_PARTIAL = ".partial"    # an artifact's suffix until both are complete
_ARTIFACTS = ("timeseries.csv", "summary.json")


def _csv_rows(rows: np.ndarray) -> bytes:
    """timeseries.csv lines of log rows, one `_CSV_ROW %` per row."""
    lines = []
    for t, stride, mode, *values, kind, _bio in rows.tolist():
        lines.append(_CSV_ROW % (t, stride, MODES[int(mode)], *values,
                                 kind != 0))
    return "".join(lines).encode()


def _csv_block(rows: np.ndarray) -> bytes:
    """The bytes _csv_rows(rows) returns, from numpy array operations when
    every field of the block can be printed exactly that way."""
    x = rows[:, :12]
    inside = np.abs(x) < _CSV_BUDGET          # False for NaN and infinities
    negative = np.signbit(x)
    negative[:, 1] = x[:, 1] < 0.0            # %d prints -0.0 as 0
    scaled = np.where(inside, x, 0.0)
    scaled *= _CSV_SCALE
    n = np.rint(scaled)
    mode = n[:, 2]
    if not (inside.all() and (scaled[:, 1:3] == n[:, 1:3]).all()
            and (mode >= 0).all() and (mode < len(MODES)).all()
            and (np.abs(scaled - n) != 0.5).all()):
        return _csv_rows(rows)
    mode = mode.astype(np.intp)
    whole, frac = np.divmod(np.abs(n).astype(np.int64), _CSV_SCALE)
    del scaled, n    # two float blocks fewer at the peak, before the bytes
    hi, lo = np.divmod(whole, 10_000)
    big = hi > 0
    out = np.repeat(_CSV_TEMPLATE[None], len(rows), axis=0)
    out[:, :12, 1] = negative * np.uint8(ord("-"))
    # integer part: two 4-digit groups, leading zeros blank, "0" for 0
    out[:, :12, 2:6] = np.where(big, _GROUPS_STRIPPED[hi], 0)[
        ..., None].view(np.uint8)
    out[:, :12, 6:10] = np.where(big, _GROUPS[lo], _GROUPS_STRIPPED[lo])[
        ..., None].view(np.uint8)
    out[:, 0, 11] = frac[:, 0] + ord("0")     # t_ms: one fraction digit
    out[:, 2] = _MODE_FIELDS[mode]
    frac_hi, frac_lo = np.divmod(frac[:, 3:], 100)    # values: 4 + 2 digits
    out[:, 3:12, 11:15] = _GROUPS[frac_hi][..., None].view(np.uint8)
    out[:, 3:12, 15:17] = _GROUPS[frac_lo][..., None].view(np.uint8)[..., 2:]
    out[:, 12, 1] = np.where(rows[:, 12] != 0.0, ord("1"), ord("0"))
    return out[out != 0].tobytes()


class Artifacts:
    """A run's artifact files in out_dir and the printer process of
    timeseries.csv (see the module docstring), as a `with` block."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        path = os.path.join(out_dir, "timeseries.csv" + _PARTIAL)
        fds = [os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)]
        try:
            fds += forked.pipe()
            csv, rows_r, self._rows = fds
            self._printer = forked.fork("timeseries.csv printer",
                                        (rows_r, csv),
                                        partial(_printer, rows_r, csv))
        except BaseException:
            for fd in fds:
                os.close(fd)
            os.remove(path)
            raise
        os.close(csv)
        os.close(rows_r)

    def print(self, rows: np.ndarray) -> None:
        """Hand the rows of the run log `rows` to the printer."""
        try:
            forked.send_block(self._rows, rows)
        except BrokenPipeError:
            self.wait()        # raises the printer's failure
            raise

    def end_rows(self) -> None:
        """Close the printer's pipe: EOF ends its rows."""
        if self._rows >= 0:
            os.close(self._rows)
            self._rows = -1

    def wait(self) -> None:
        """End the rows and reap the printer; raise its failure."""
        self.end_rows()
        self._printer.reap()

    def __enter__(self) -> Artifacts:
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            self.wait()
        except Exception:
            if exc_type is None:
                raise        # else the run's own exception goes on
        finally:
            for name in _ARTIFACTS:
                with suppress(FileNotFoundError):
                    os.remove(os.path.join(self.out_dir, name + _PARTIAL))


def _printer(rows_fd: int, csv_fd: int) -> None:
    """The printer process's body: print the rows read from rows_fd to
    csv_fd until EOF. An OSError names the printer, as the run reports
    it."""
    try:
        with open(rows_fd, "rb") as pipe, open(csv_fd, "wb") as csv:
            csv.write((",".join(CSV_COLUMNS) + "\r\n").encode())
            for rows in forked.blocks(pipe, (-1, len(LOG_COLUMNS))):
                for i in range(0, len(rows), _CSV_CHUNK):
                    csv.write(_csv_block(rows[i:i + _CSV_CHUNK]))
    except OSError as exc:
        raise OSError(exc.errno,
                      f"timeseries.csv printer: {exc.strerror}") from None


def write_artifacts(out_dir: str, artifacts: Artifacts, report) -> None:
    """Write summary.json, `report` (a `metrics.MetricsReport`) as JSON,
    and put both artifacts in place (see the module docstring)."""
    artifacts.end_rows()
    with open(os.path.join(out_dir, "summary.json" + _PARTIAL), "w") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
    artifacts.wait()
    for name in _ARTIFACTS:
        path = os.path.join(out_dir, name)
        os.replace(path + _PARTIAL, path)
