"""Human-exoskeleton coupled kinematics and stiffness: the artificial tendon.

The actuation cable between the sheath end and the heel anchor behaves like a
series-elastic tendon: its length grows with ankle dorsiflexion through the
lever arm, shortens with tension through the coupled stiffness, and rides on
a baseline that drifts once per cycle as the suit migrates.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Sequence

log = logging.getLogger(__name__)

MIGRATION_TOLERANCE_MM = 0.5


class IdentificationError(ValueError):
    """Stiffness fit impossible on this data."""


@dataclass
class TendonModel:
    """lever_arm_r in mm, k_all in N/mm, baseline_c and delta_l1 in mm."""

    lever_arm_r: float
    k_all: float
    baseline_c: float
    delta_l1: float = 0.0

    def __post_init__(self):
        if not (self.lever_arm_r > 0 and self.k_all > 0 and self.baseline_c > 0):
            raise ValueError(f"invalid tendon model: {self}")
        if self.delta_l1 < 0:
            raise ValueError("suit migration cannot be negative")


def tendon_length(m: TendonModel, theta_df: float, force: float) -> float:
    """Overall artificial tendon length (mm) at DF angle theta_df (deg) and
    cable tension force (N). Arc-length products use radians."""
    if force < 0:
        raise ValueError("cable tension cannot be negative")
    return (m.lever_arm_r * math.radians(theta_df)
            - force / m.k_all
            + (m.baseline_c - m.delta_l1))


def estimate_migration(m: TendonModel, l_meas: float, theta_df: float,
                       f_meas: float) -> float:
    """Re-estimate suit migration from a measured tendon length.

    Migration is the shortfall of the measurement against the zero-migration
    length prediction; it is clamped at zero and stored on the model for the
    rest of the cycle. A raw estimate below -0.5 mm indicates inconsistent
    measurements and leaves the stored value unchanged.
    """
    predicted = (m.baseline_c + m.lever_arm_r * math.radians(theta_df)
                 - f_meas / m.k_all)
    raw = predicted - l_meas
    if raw < -MIGRATION_TOLERANCE_MM:
        log.warning("migration estimate %.3f mm below zero; keeping %.3f mm",
                    raw, m.delta_l1)
        return m.delta_l1
    m.delta_l1 = max(0.0, raw)
    return m.delta_l1


@dataclass(frozen=True)
class StiffnessFit:
    k_all: float       # N/mm
    r_squared: float


def identify_stiffness(samples: Sequence[tuple[float, float]]) -> StiffnessFit:
    """Ordinary least squares of force = k_all * deflection + b.

    Calibration runs should span >= 10 samples over >= 50 N (force loading
    and unloading loops); the fit itself only requires two points with
    non-degenerate deflections. Values so large that a sum, a square or a
    quotient of the fit leaves the float range, and distinct deflections
    whose squared deviations underflow to a zero sum, raise
    IdentificationError.
    """
    n = len(samples)
    if n < 2:
        raise IdentificationError("need at least two samples")
    xs = [d for _, d in samples]
    ys = [f for f, _ in samples]
    overflow = "calibration values overflow the least-squares fit"
    try:        # a float ** 2 past the range raises; a sum or product is inf
        x_mean = sum(xs) / n
        y_mean = sum(ys) / n
        sxx = sum((x - x_mean) ** 2 for x in xs)
        if sxx == 0.0:
            raise IdentificationError(
                "deflection has zero variance" if min(xs) == max(xs) else
                "calibration deflections underflow the least-squares fit")
        sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
        ss_tot = sum((y - y_mean) ** 2 for y in ys)
        ss_res = sum((y - (slope * x + intercept)) ** 2
                     for x, y in zip(xs, ys))
    except OverflowError as exc:
        raise IdentificationError(overflow) from exc
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if not all(map(math.isfinite, (x_mean, y_mean, sxx, sxy, slope,
                                   intercept, ss_tot, ss_res, r2))):
        raise IdentificationError(overflow)
    return StiffnessFit(k_all=slope, r_squared=r2)


CALIBRATION_HEADER = ["force_n", "deflection_mm"]


def load_calibration_csv(path) -> list[tuple[float, float]]:
    """Read (force N, deflection mm) pairs for offline stiffness workflows.
    A row that is not two finite numbers (a byte that is not UTF-8 text,
    read as a lone surrogate, makes it so), and a field longer than csv's
    limit, raise IdentificationError naming the line. A leading UTF-8
    byte-order mark is skipped."""
    out: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])     # [] for an empty file
            if [h.strip() for h in header] != CALIBRATION_HEADER:
                raise IdentificationError(
                    f"unexpected calibration header: {header}")
            for row in reader:
                try:
                    force, deflection = (float(x) for x in row)
                except ValueError as exc:
                    raise IdentificationError(
                        f"calibration line {reader.line_num}: not 2 numbers: "
                        f"{row}") from exc
                if not (math.isfinite(force) and math.isfinite(deflection)):
                    raise IdentificationError(
                        f"calibration line {reader.line_num}: non-finite "
                        f"value: {row}")
                out.append((force, deflection))
        except csv.Error as exc:
            raise IdentificationError(
                f"calibration line {reader.line_num}: {exc}") from None
    return out
