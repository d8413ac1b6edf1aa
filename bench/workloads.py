"""Workload inputs, run execution and the output-correctness gate.

Every workload is a list of units (one closed-loop scenario run or one
replayed kinematic stream) generated from the workload seed. Seeds pick
their per-unit scenario seeds from a fixed pool, so the stored reference
covers the inputs of every workload seed.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from shankexo import harness, plant
from shankexo import gait_signals, profile

WORKLOADS = ("closed-loop-60", "long-ramp-artifacts", "replay-stream")
ACTIVITIES = ("lw", "lr", "ra", "rd")
SCENARIO_POOL = tuple(range(1, 9))

# Strides per unit at each size; "tiny" exists for the self-test.
STRIDES = {
    "full": {"closed-loop-60": 60, "long-ramp-artifacts": 150,
             "replay-stream": 200},
    "tiny": {"closed-loop-60": 30, "long-ramp-artifacts": 30,
             "replay-stream": 30},
}

# Replay stream: 100 Hz samples with seeded sensor noise.
REPLAY_DT_S = 0.010
REPLAY_NOISE_DEG = 0.05
REPLAY_NOISE_DPS = 1.0
# Initial profile of the `shankexo replay` pipeline (amp in N, angles in deg).
REPLAY_INITIAL = (105.0, 15.0, 10.0, 5.0, -20.0, 25.0)

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Unit:
    key: str                     # reference key
    scenario: Optional[dict]     # ScenarioConfig fields, or None for replay
    stream: Optional[dict] = None  # activity, pool seed, strides for replay
    path: Optional[Path] = None  # generated replay CSV
    samples: int = 0             # replay samples in the stream


def make_unit(workload: str, size: str, activity: str, scenario: str,
              seed: int) -> Unit:
    """One unit: a scenario run, or a replayed speed-ramp stream."""
    n = STRIDES[size][workload]
    key = f"{workload}/{size}/{activity}/{scenario}/{seed}"
    if workload == "replay-stream":
        return Unit(key=key, scenario=None,
                    stream=dict(activity=activity, seed=seed, strides=n))
    return Unit(key=key, scenario=dict(activity=activity, scenario=scenario,
                                       n_strides=n, seed=seed))


def unit_kinds(workload: str) -> list[tuple[str, str]]:
    """(activity, scenario) of each unit in one pass of the workload."""
    if workload == "closed-loop-60":
        return [(a, s) for a in ACTIVITIES for s in ("steady", "perturb")]
    if workload == "long-ramp-artifacts":
        return [("lw", "speed-ramp")]
    if workload == "replay-stream":
        return [(a, "speed-ramp") for a in ACTIVITIES]
    raise ValueError(f"unknown workload {workload!r}")


def units_for(workload: str, seed: int, size: str = "full") -> list[Unit]:
    """The units one pass of the workload runs, in order; the workload seed
    draws each unit's scenario seed from SCENARIO_POOL."""
    kinds = unit_kinds(workload)
    picks = np.random.default_rng(seed).integers(len(SCENARIO_POOL),
                                                 size=len(kinds))
    return [make_unit(workload, size, act, scen, SCENARIO_POOL[int(i)])
            for (act, scen), i in zip(kinds, picks)]


# -- replay streams --------------------------------------------------------------

def write_stream(unit: Unit, out_dir: Path) -> None:
    """Generate the unit's 100 Hz kinematic CSV from the simulated world.

    The world walks with one slow speed ramp; the ramp onset and the sensor
    noise follow the unit's pool seed.
    """
    spec = unit.stream
    rng = np.random.default_rng(1000 + spec["seed"])
    n = spec["strides"]
    start = int(rng.integers(8, max(9, n - 14)))
    world = plant.GaitWorld(plant.build_template(spec["activity"]),
                            plant.PlantConfig(), seed=spec["seed"],
                            ramp=plant.RampSpec(start_stride=start))
    path = out_dir / f"{unit.key.replace('/', '_')}.csv"
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(gait_signals.REPLAY_HEADER)
        while world.state.stride_index < n:
            kin = world.advance(REPLAY_DT_S)
            ft_n, sk_n = rng.normal(0.0, REPLAY_NOISE_DEG, 2)
            ftr_n, skr_n = rng.normal(0.0, REPLAY_NOISE_DPS, 2)
            w.writerow([f"{(rows + 1) * REPLAY_DT_S * 1000.0:.1f}",
                        f"{kin.theta_ft + ft_n:.6f}",
                        f"{kin.theta_sk + sk_n:.6f}",
                        f"{kin.theta_ft_rate + ftr_n:.6f}",
                        f"{kin.theta_sk_rate + skr_n:.6f}"])
            rows += 1
    unit.path = path
    unit.samples = rows


def replay(path: Path) -> dict:
    """The `shankexo replay` pipeline over one stream; returns its outputs."""
    detector = gait_signals.EventDetector()
    assembler = gait_signals.WindowAssembler()
    estimator = profile.ProfileEstimator(
        profile.GaussianParams(*REPLAY_INITIAL))
    strides = accepted = samples = 0
    for sample in gait_signals.read_replay_csv(path):
        samples += 1
        ev = detector.update(sample)
        window = assembler.process(sample, ev)
        if window is not None:
            estimator.update_from_window(window)
            strides += 1
            accepted += bool(estimator.last_accepted)
    p = estimator.params
    return {"samples": samples, "strides": strides, "accepted": accepted,
            "params": [p.amp, p.mu, p.sigma1, p.sigma2, p.theta_fc,
                       p.theta_fo]}


# -- running one unit ------------------------------------------------------------

def scenario_outputs(report, n_strides: int,
                     out_dir: Optional[Path] = None) -> dict:
    out = {"strides_reported": len(report.per_stride),
           "strides_asked": n_strides,
           "aborted": bool(report.aborted),
           "convergence_stride": report.convergence_stride,
           "aggregate": dict(report.aggregate)}
    if out_dir is not None:
        with open(out_dir / "timeseries.csv", "rb") as fh:
            out["timeseries_rows"] = sum(1 for _ in fh) - 1
        with open(out_dir / "summary.json") as fh:
            out["summary_aggregate"] = json.load(fh)["aggregate"]
    return out


def run_unit(unit: Unit, tmp_dir: Path, artifacts: bool,
             call: Callable = lambda fn, *a: fn(*a)) -> tuple[float, dict]:
    """Run one unit; returns (wall seconds, outputs). Only the call into the
    program is timed; `call` lets the tracer open a root span around it."""
    if unit.scenario is None:
        t0 = time.perf_counter()
        out = call(replay, unit.path)
        return time.perf_counter() - t0, out
    out_dir = None
    cfg = harness.ScenarioConfig(**unit.scenario)
    if artifacts:
        out_dir = tmp_dir / "artifacts"
        cfg.output_dir = str(out_dir)
    t0 = time.perf_counter()
    report = call(harness.run_scenario, cfg)
    wall = time.perf_counter() - t0
    out = scenario_outputs(report, cfg.n_strides, out_dir)
    if out_dir is not None:
        shutil.rmtree(out_dir)
    return wall, out


# -- output-correctness gate -----------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _same(got, want, where: str, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ")
            return
        for k in want:
            _same(got[k], want[k], f"{where}.{k}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]", problems)
    elif isinstance(want, float):
        if not (isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{where}: {got!r} != {want!r}")


def check(unit: Unit, out: dict, reference: dict) -> list[str]:
    """Mismatches of one unit's outputs against the stored reference:
    within REL_TOL relative for floats, exact for counts and flags."""
    want = reference.get(unit.key)
    if want is None:
        return [f"{unit.key}: no reference"]
    problems: list[str] = []
    _same(out, want["outputs"], unit.key, problems)
    if unit.scenario is not None and (
            out["aborted"] or out["strides_reported"] < out["strides_asked"]):
        problems.append(f"{unit.key}: aborted or fewer strides than asked")
    return problems


def sim_seconds(unit: Unit, reference: dict) -> float:
    """Simulated seconds the unit covers (deterministic for its inputs)."""
    if unit.scenario is None:
        return unit.samples * REPLAY_DT_S
    return reference[unit.key]["sim_s"]
