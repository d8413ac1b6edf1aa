"""Run artifacts: pinned bytes, and agreement between the report and the CSV."""

import csv
import hashlib

import numpy as np
import pytest

from shankexo.harness import ScenarioConfig, run_scenario

# SHA-256 of (timeseries.csv, summary.json). A change to either digest means
# the simulated behaviour or the artifact format moved; regenerate only when
# that is intended. The digests hold for IEEE-754 doubles with the same libm
# results as the platform they were recorded on (x86-64 Linux, numpy 2).
GOLDEN = {
    "criterion8": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=9),
        "ac1c9e1f828f93a62e7683f9b485d1d182e01d8cb52e16466eb2549ae44b5577",
        "cc4b9c043482a98983ebe6b2246b8aef95eba7e2c07c922bacf62c9a2c66c8a6"),
    "perturb": (
        dict(activity="lr", scenario="perturb", n_strides=30, seed=2),
        "e0ffd7147bad6adc99fab0a21e0bb5cb98c2e542749a05cf4109b30b626f696e",
        "96917a46ad4c191d51c8f84b8e8f907196ecfbb24c2e3db75c79867c1b2abcdf"),
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    runs = {}
    for name, (cfg, _, _) in GOLDEN.items():
        out = tmp_path_factory.mktemp(name)
        report = run_scenario(ScenarioConfig(output_dir=str(out), **cfg))
        runs[name] = report, out
    return runs


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(golden_runs, name):
    _, out = golden_runs[name]
    _, csv_digest, summary_digest = GOLDEN[name]
    assert _sha256(out / "timeseries.csv") == csv_digest
    assert _sha256(out / "summary.json") == summary_digest


def _read_csv(out):
    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t_ms"]) for r in rows])
    f_meas = np.array([float(r["f_meas_n"]) for r in rows])
    perturbed = np.array([int(r["perturbed"]) for r in rows])
    return t, f_meas, perturbed


def test_swing_max_force_is_csv_max_over_swing(golden_runs):
    report, out = golden_runs["perturb"]
    t, f_meas, _ = _read_csv(out)
    checked = 0
    for s, nxt in zip(report.per_stride, report.per_stride[1:]):
        if s.swing_max_force is None or nxt.stride != s.stride + 1:
            continue
        t_fo = round(s.t_fc_ms + s.stance_ratio * (nxt.t_fc_ms - s.t_fc_ms))
        swing = f_meas[(t >= t_fo) & (t < nxt.t_fc_ms)]
        assert float(f"{s.swing_max_force:.6f}") == swing.max()
        checked += 1
    assert checked >= len(report.per_stride) - 2


def test_perturbed_column_marks_exactly_the_perturbed_strides(golden_runs):
    report, out = golden_runs["perturb"]
    t, _, perturbed = _read_csv(out)
    t_fc = np.array([s.t_fc_ms for s in report.per_stride])
    assert set(np.unique(perturbed)) == {0, 1}
    rows = np.searchsorted(t_fc, t[perturbed == 1], side="right") - 1
    assert rows.min() >= 0
    marked = {report.per_stride[i].stride for i in np.unique(rows)}
    want = {s.stride for s in report.per_stride if s.perturbed}
    assert len(want) == 4
    assert marked == want
