"""Run artifacts: pinned bytes, agreement between the report and the CSV,
and the block CSV printer against the one-row-at-a-time `%` format."""

import csv
import hashlib
import logging
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from shankexo import artifacts, harness, kernel
from shankexo.artifacts import CSV_COLUMNS, LOG_COLUMNS, write_artifacts
from shankexo.controller import MODES
from shankexo.harness import ScenarioConfig, run_scenario
from shankexo.metrics import MetricsReport
from shankexo.plant import Activity, build_template
from shankexo.profile import GaussianParams

from strides import TIME_G, report_stride, stance_report, stride_log

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
    # The clock passes 100,000 ms (the run ends at 103,120 ms), so t_ms
    # prints six integer digits.
    "clock-past-1e5": (
        dict(activity="lw", scenario="steady", n_strides=90, seed=1),
        "07828bca3c585089d656d56f5bcb75a68f56d0f1c804629547587905dafa1b98",
        "ae59fa9014fe859db329296fbdf961e4fda3183bc585b34ced33e0d4d4ccba31"),
    # A 400 N spike aborts the run in stance: the aborted ticks log the
    # profile force of their shank angle.
    "spike-abort": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=1,
             fault_spike_n=400.0, fault_spike_t_ms=8600.0),
        "25e72fea7c9a8007be84f93d51891469fcb57dff33700c4154ceb8b09766d3ee",
        "ecd475e962b643fc289cd35f56293baac532e2be4721224f29841c9f47182e4e"),
    # Spikes at a standing (pretighten) tick and at 1001 ms, the first tick
    # of the second world block when blocks are 1000 ticks (the block-size
    # test below runs it so); both abort the run.
    "spike-standing": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=1,
             fault_spike_n=400.0, fault_spike_t_ms=500.0),
        "a7da2af4803c904b97535b83b4c230f76ae9099b47fdfd114603e1ecddc3cecc",
        "c70b73475bde4233d1950761f40c6b6402d7482f7fcc9be6d90834ff34375a3d"),
    "spike-block-start": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=1,
             fault_spike_n=400.0, fault_spike_t_ms=1001.0),
        "7f46f30f746f7982461993fda3a459994e08185433a9a0af74863e481639346d",
        "2b3eafab2146aa211f1fb24b4ae7962dd19e224da6a523b61514c89c5165af8e"),
    # Foot contact 6 is confirmed, and applied, before the 8180 ms tick: the
    # spike shares its tick with an event and changes the run without
    # aborting it.
    "spike-at-event": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=1,
             fault_spike_n=250.0, fault_spike_t_ms=8180.0),
        "6d7576a221326dae19666a134fc3c395f201dbd9d8feb3b9f9a00576697d3718",
        "ceacbba7db371e40dbf6759bfe7339293ca237a7f39bf3392b5d880d52aad227"),
    # The belt-speed ramp moves the belt_scale column.
    "speed-ramp": (
        dict(activity="lw", scenario="speed-ramp", n_strides=30, seed=2),
        "d9060c9ffcecc55dc02dec81ab545cbcad3ec86126cc638f129844e070c36bf8",
        "fcb4d414778840b6662983c02a14395c4920c2b37cfb35db9d25c2e0c9f41369"),
    # NaN and infinite spikes abort on spike-abort's tick, by the
    # non-finite test where 400 N passes the ceiling. The log's f_meas is
    # the next reading, which no spike reaches, so the bytes are the same.
    "spike-nan": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=1,
             fault_spike_n=math.nan, fault_spike_t_ms=8600.0),
        "25e72fea7c9a8007be84f93d51891469fcb57dff33700c4154ceb8b09766d3ee",
        "ecd475e962b643fc289cd35f56293baac532e2be4721224f29841c9f47182e4e"),
    "spike-inf": (
        dict(activity="lw", scenario="steady", n_strides=12, seed=1,
             fault_spike_n=math.inf, fault_spike_t_ms=8600.0),
        "25e72fea7c9a8007be84f93d51891469fcb57dff33700c4154ceb8b09766d3ee",
        "ecd475e962b643fc289cd35f56293baac532e2be4721224f29841c9f47182e4e"),
    # A spike that lowers the reading, without an abort.
    "spike-negative": (
        dict(activity="rd", scenario="steady", n_strides=20, seed=2,
             fault_spike_n=-50.0, fault_spike_t_ms=7000.0),
        "b46c4fb524375f97b812679ace8ddc55e4b61a4e9832a6552a7443ff91bb7c1a",
        "bf13f7a06f116573045381fd5986c87f5d9408259ba63ed15185a964628e36a5"),
    # An envelope below the probe rate, which the cable alone clips.
    "v-max-20": (
        dict(activity="lw", scenario="steady", n_strides=30, seed=1,
             plant={"v_max": 20.0}),
        "0e436b9b25918e724d90d5470a977e70b29c9c8fbe764abc98b7b832fe2123c5",
        "a96b66ada9f58fc3176b3570108fe8956897f791054b8fcdf5ad12129b5f5fef"),
    # The force-to-velocity map with inertia, under perturbations.
    "map-m": (
        dict(activity="lw", scenario="perturb", n_strides=30, seed=1,
             controller={"map_m": 0.05}),
        "3c291dad62ef3dfcec7db8985449a6d67722a1214bdcb6b82b338330146a6cee",
        "cfc2d35cf1edf58b91b8e5d14cb407f071cffa3b52b4a5d1b5d6bc474c6d6f60"),
    # A noiseless load cell: the noise column is zeros.
    "noiseless": (
        dict(activity="lw", scenario="steady", n_strides=30, seed=1,
             plant={"force_noise_sd": 0.0}),
        "ebd6bcfc73a5be44bd1655620099be686115cea15f00b07c45d553125b876e2f",
        "9e406492879da5357c510b9f6bbe6b5f65b608c55423133e322e6c005d2fc4e4"),
    # The 12 activity x scenario configs at 30 strides, seed 1.
    "lw-steady-30": (
        dict(activity="lw", scenario="steady", n_strides=30, seed=1),
        "a276fed31c9770ce2e55eb75500c7389066d3571637578c3aa79e4f66c0c9f0f",
        "899b068507325ff912d55e0819cc2bd8bf98d42caa1c91d3880464165a508d97"),
    "lw-perturb-30": (
        dict(activity="lw", scenario="perturb", n_strides=30, seed=1),
        "ad9598c9b24f48b82766271e676c35ad0391688982c802dbd7adcc9ee900107e",
        "34ae213038d1aab3d6eb995c41869b72cab5474055e209a3b7e78b8bff15fbea"),
    "lw-speed-ramp-30": (
        dict(activity="lw", scenario="speed-ramp", n_strides=30, seed=1),
        "2f898c022f159cf1ecfe6d4634364a61ddfcfb98b196b71f0298cde89408648e",
        "7b5ce0eed2963a43c6999a1ad3202ed069e5bee0c4e7c41323685dfb91fbb773"),
    "lr-steady-30": (
        dict(activity="lr", scenario="steady", n_strides=30, seed=1),
        "67d866458659e06b0e0b34dde7ff9f6f91f9cc3f70e2195fed849023e4430d66",
        "66dbe49bb474a3e66506ca103620d5316f4728fb16ad33cc6a7f69d6f63b0b31"),
    "lr-perturb-30": (
        dict(activity="lr", scenario="perturb", n_strides=30, seed=1),
        "4bcd6f9aed11706b13153ea358f7e3000946685d8479bc4da4c9b90507d9043d",
        "bab18d5728ab51a787e6abd52a437cdeb02a50b0598c58161841c4d9bdafdcc4"),
    "lr-speed-ramp-30": (
        dict(activity="lr", scenario="speed-ramp", n_strides=30, seed=1),
        "8b5cf783c1852cf753a4889ec74003196fb284650edf974312651722a318a135",
        "54c2a16aded44e4838789c40816d592b5203755d73257f8f0b2fbffe51e030db"),
    "ra-steady-30": (
        dict(activity="ra", scenario="steady", n_strides=30, seed=1),
        "0679f27ee654d75395b925ce9177037dd21e591af2b919cb911fd1996505b996",
        "b5aadb07ba3305e52451ae14c8edd3b9f489758ab2884b54e53f8c9ec014a3bb"),
    "ra-perturb-30": (
        dict(activity="ra", scenario="perturb", n_strides=30, seed=1),
        "d0a5286283551991637f7ee96dfb3d9221a2a6f6013ffd656085a45f9791f983",
        "1bfd5ba950d9764c7edb880c16a2223e9ff454624d9d08660e188b921cb2f55d"),
    "ra-speed-ramp-30": (
        dict(activity="ra", scenario="speed-ramp", n_strides=30, seed=1),
        "62ca3b8a66d864fdcea6ddcbd7b524db2980d1d518592f54220bc2d617669c61",
        "0b1b5d1975adfe1ff89cc41bf9b9444f2ba81e45b963c0dd085b43f2c5f7d469"),
    "rd-steady-30": (
        dict(activity="rd", scenario="steady", n_strides=30, seed=1),
        "201a375f4bf60208154c0623926d48c0fd4d715a5b233b316c860646571890af",
        "1e71852a41f672e2ab1927a612dda5ba79066be068b5fb502cf5321a82e730a7"),
    "rd-perturb-30": (
        dict(activity="rd", scenario="perturb", n_strides=30, seed=1),
        "31f55c03edad1e4dc5359ae45f4c4c904ec58feaf4339dc7da11c10ff07ef35c",
        "ed2162c97bae0732a25fbfa55557889280734b1888da698b4a53277373e0e9c0"),
    "rd-speed-ramp-30": (
        dict(activity="rd", scenario="speed-ramp", n_strides=30, seed=1),
        "d116ffdb114e4f07e0200aafaae43241c5ec81b3c68260b60453491b6f46806f",
        "8bbb4e92c4011ede812d14cb44734568490761ae927b3e335a91f0393043aa3c"),
    # A long speed-ramp run: many world blocks, printer chunks and reports.
    "lw-speed-ramp-150": (
        dict(activity="lw", scenario="speed-ramp", n_strides=150, seed=3),
        "f690d15efa1959bb076b5030c7a1febbf2e2a08faca63b300346ef2f538dd5ee",
        "f936b4510def0d336668307ada7219fde0aa5452ecba7bdb3426a8c022c5c7f8"),
    # A 400 N spike in a longer run, and one under the speed ramp.
    "spike-9000": (
        dict(activity="lw", scenario="steady", n_strides=20, seed=1,
             fault_spike_n=400.0, fault_spike_t_ms=9000.0),
        "e315784271b322d8671ecbd59a94a5253ad1eb6ba6832cf90cfe6218263e1601",
        "45d8fb547f061f5457e111c448e0fa54addc6a517811641edaa6398b66f50fae"),
    "speed-ramp-spike": (
        dict(activity="lr", scenario="speed-ramp", n_strides=40, seed=3,
             fault_spike_n=400.0, fault_spike_t_ms=8600.0),
        "042203bcedc968eff19d1f9c299036b9278a3c98fe14b37bc1d7ed1ba42cafd8",
        "ac7a00f783c36142dddf60bd662d43aafd8a0adfb4eef96bc03ea8f069c35c4b"),
    # A slow motor envelope and a fast pretighten rate.
    "v-max-60-pretighten-100": (
        dict(activity="lw", scenario="steady", n_strides=30, seed=1,
             plant={"v_max": 60.0}, controller={"pretighten_rate": 100.0}),
        "a7472cb7feff3ce5a3d6662fca19705500bcc09cf3fa73b57e764186b5c0123c",
        "bf71b2ad4178bf5934240ea449eee132de42bb7cfd3e93ab4da828db5746b18e"),
}


class Warnings(logging.Handler):
    """The messages of the warnings a logger passes on."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Each golden config's report, output directory and the warnings the
    harness logged."""
    runs = {}
    for name, (cfg, _, _) in GOLDEN.items():
        out = tmp_path_factory.mktemp(name)
        warnings = Warnings()
        harness.logger.addHandler(warnings)
        try:
            report = run_scenario(ScenarioConfig(output_dir=str(out), **cfg))
        finally:
            harness.logger.removeHandler(warnings)
        runs[name] = report, out, warnings.lines
    return runs


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(golden_runs, name):
    _, out, _ = golden_runs[name]
    _, csv_digest, summary_digest = GOLDEN[name]
    assert _sha256(out / "timeseries.csv") == csv_digest
    assert _sha256(out / "summary.json") == summary_digest


@pytest.mark.parametrize("name", sorted(
    name for name, (cfg, _, _) in GOLDEN.items() if "fault_spike_t_ms" in cfg))
def test_golden_spikes_reach_the_load_cell(golden_runs, name):
    # Each golden spike falls on a tick of its run, so none warns that it
    # never reached the load cell.
    assert golden_runs[name][2] == []


@pytest.mark.parametrize("block_ticks", [7, 997, 1000, 1003, 4001])
@pytest.mark.parametrize("name", ["criterion8", "spike-abort", "spike-standing",
                                  "spike-block-start", "spike-at-event"])
def test_artifacts_do_not_depend_on_the_block_size(tmp_path, monkeypatch,
                                                   name, block_ticks):
    # Block edges fall at other ticks: the event ticks, the IMU phase and
    # the stop tick must come out the same.
    monkeypatch.setattr(harness, "BLOCK_TICKS", block_ticks)
    cfg, csv_digest, summary_digest = GOLDEN[name]
    run_scenario(ScenarioConfig(output_dir=str(tmp_path), **cfg))
    assert _sha256(tmp_path / "timeseries.csv") == csv_digest
    assert _sha256(tmp_path / "summary.json") == summary_digest


@settings(max_examples=40, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1),
       unit=hs.lists(hs.floats(0.0, 1.0), max_size=50),
       sharpness=hs.floats(0.01, 10.0))
def test_float_power_is_c_pow(seed, unit, sharpness):
    """The digests rest on np.float_power calling C pow on each element, as
    Python ** does: the clock's shank sway squares a sine with it, and is
    what still rests on np.float_power (the biological torque calls C pow
    in the loop kernel). The draws raise [0, 1] to each activity's
    torque_sharpness and to any sharpness. A numpy whose float_power is
    vectorized fails here, by its version."""
    rng = np.random.default_rng(seed)
    u = np.concatenate([unit, rng.uniform(0.0, 1.0, 2000)])
    cases = [(u, build_template(a).torque_sharpness) for a in Activity]
    cases += [(u, sharpness)]
    for base, e in cases:
        got = np.float_power(base, e)
        want = np.array([b ** e for b in base.tolist()])
        same = (got.view(np.int64) == want.view(np.int64)) | (
            np.isnan(got) & np.isnan(want))
        assert same.all(), (
            f"numpy {np.__version__}: np.float_power(x, {e}) differs from "
            f"x ** {e} at x = {base[~same][:5].tolist()}")


def report_rmse(d):
    """The report's RMSE of a stance whose f_des - f_meas is (0.0, d,
    0.25), against a peak f_des of 10 N."""
    rep = stance_report(np.array([10.0, 0.0, 0.0]), np.zeros(3),
                        np.array([10.0, -d, -0.25]))
    return rep.per_stride[0].rmse_pct


@settings(max_examples=40, deadline=None)
@given(signed=hs.lists(hs.one_of(hs.floats(-1e150, 1e150),
                                 hs.sampled_from([math.inf, -math.inf,
                                                  math.nan])), max_size=50))
def test_report_squares_are_c_pow(signed):
    """The digests rest on the kernel's report squaring with C pow, as
    Python ** does (finite squares: Python ** raises where C pow
    overflows), which `kernel` keeps gcc from folding into d * d
    (-fno-builtin-pow)."""
    for d in signed:
        got = report_rmse(d)
        want = math.sqrt((0.0 + d ** 2 + 0.25 ** 2) / 3) / 10.0
        assert got == want or (math.isnan(got) and math.isnan(want)), d


def test_report_squares_are_not_products():
    """A square that C pow and d * d round apart, in a sum of two, moves
    the RMSE's last bit."""
    d = -0.9261120045793674
    assert (d ** 2, d * d) == (0.8576834450260141, 0.8576834450260142)
    assert math.sqrt((0.0 + d * d + 0.0625) / 3) / 10.0 == 0.05538301319074933
    assert report_rmse(d) == 0.05538301319074932


def report_exp(z):
    """The loop kernel's exp(-z * z / 2) at the values z, read off the
    report's time-based comparator: a profile of amp 1, mu 0 and both
    widths 1 on a clean stride whose shank angle holds each z over two
    percent-GC points, and a stance whose grid is its 101 ticks, tick k
    at percent GC (k + 0.25) / 50, between the two points of the kth z."""
    params = GaussianParams(1.0, 0.0, 1.0, 1.0, -1e300, 1e300)
    t = 1000.0 + np.arange(102.0)
    log = stride_log(t, f_des_n=2.0, bio=1.0)
    out = []
    for at in range(0, len(z), 50):
        chunk = z[at:at + 50]
        clean = np.zeros(kernel.GRID_POINTS)
        clean[:2 * len(chunk)] = np.repeat(chunk, 2)
        rep = report_stride(log, 999.75, 1100.0, 1102.0, params, clean, 50.0)
        out.extend(rep.curves[TIME_G, :len(chunk)].tolist())
    return np.array(out)


def assert_exp(z):
    got = report_exp(z)
    want = np.array([math.exp(-0.5 * x * x) for x in z])
    same = got.view(np.int64) == want.view(np.int64)
    assert same.all(), (
        f"the kernel's exp(-z*z/2) differs from math.exp at z = "
        f"{np.array(z)[~same][:5].tolist()}")
    return want


@settings(max_examples=40, deadline=None)
@given(z=hs.lists(hs.floats(-40.0, 40.0), max_size=50))
def test_kernel_exp_is_math_exp(z):
    """The digests rest on the loop kernel's profile calling the exp that
    math.exp calls: with amp 1, mu 0 and both widths 1, the profile at z
    is math.exp(-0.5 * z * z), bit for bit, subnormal results (|z| past
    about 37.64) and results that underflow to 0.0 (past about 38.6)
    included. A libm whose exp differs from Python's fails here."""
    assert_exp(z + [0.0, -0.0, 5e-324, 1.0, 37.64, 38.6])


def test_kernel_exp_is_math_exp_over_a_sweep():
    want = assert_exp(np.linspace(-39.0, 39.0, 7801).tolist())
    assert ((0.0 < want) & (want < sys.float_info.min)).any()
    assert (want == 0.0).any()


def test_a_spike_past_the_stop_tick_changes_nothing(tmp_path):
    # The run stops 20 ticks after foot contact 12 confirms, at 14980 ms.
    cfg = GOLDEN["spike-abort"][0]
    digests = []
    for spike_t in (None, 60000.0):
        out = tmp_path / str(spike_t)
        report = run_scenario(ScenarioConfig(
            output_dir=str(out), **{**cfg, "fault_spike_t_ms": spike_t}))
        assert not report.aborted
        digests.append((_sha256(out / "timeseries.csv"),
                        _sha256(out / "summary.json")))
    assert digests[0] == digests[1]


def _read_csv(out):
    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t_ms"]) for r in rows])
    f_meas = np.array([float(r["f_meas_n"]) for r in rows])
    perturbed = np.array([int(r["perturbed"]) for r in rows])
    return t, f_meas, perturbed


def test_swing_max_force_is_csv_max_over_swing(golden_runs):
    report, out, _ = golden_runs["perturb"]
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
    report, out, _ = golden_runs["perturb"]
    t, _, perturbed = _read_csv(out)
    t_fc = np.array([s.t_fc_ms for s in report.per_stride])
    assert set(np.unique(perturbed)) == {0, 1}
    rows = np.searchsorted(t_fc, t[perturbed == 1], side="right") - 1
    assert rows.min() >= 0
    marked = {report.per_stride[i].stride for i in np.unique(rows)}
    want = {s.stride for s in report.per_stride if s.perturbed}
    assert len(want) == 4
    assert marked == want


# -- the block printer against the row format ------------------------------------

ROW_FORMAT = "%.1f,%d,%s" + ",%.6f" * 9 + ",%d\r\n"
REPORT = MetricsReport(config={}, per_stride=[], aggregate={},
                       convergence_stride=-1, aborted=False)


def reference_csv(log: np.ndarray) -> bytes:
    """timeseries.csv as one `%` per row prints it: the reference."""
    lines = [",".join(CSV_COLUMNS) + "\r\n"]
    for row in log:
        t, stride, mode, *values, kind, _bio = row.tolist()
        lines.append(ROW_FORMAT % (t, stride, MODES[int(mode)], *values,
                                   kind != 0))
    return "".join(lines).encode()


def written_csv(log: np.ndarray) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        with artifacts.Artifacts(out) as files:
            files.print(log)
            write_artifacts(out, files, REPORT)
        return (Path(out) / "timeseries.csv").read_bytes()


# Values the array path must print as `%` does, or leave to the `%` path:
# non-finite, signed zeros, subnormals, exact ties, products that round
# the other way from the exact value, and both sides of the digit budget.
VALUE_CASES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, -1e-9, 4e-7, -5e-7, 0.0078125, -0.0078125,
    2.5e-06, 0.4731885, -0.6285085, 40.9735235, -850.6242255,
    6.5692114999997, 1.0000005, 123.456789, -0.999999, 0.9999995,
    12345678.123456, -99999998.9999995,
    99999998.99999999,      # the largest value below the budget
    99999999.0, -99999999.0,
    99999999.99999999,      # rounds to a ninth integer digit
    1e8, 1e15, -1e300]
T_CASES = [0.0, -0.0, 0.25, 0.05, 0.35, 99999.0, 99999.95, 100000.0,
           100000.05, 999999.0, 1000000.0, 1234567.85, 99999998.0,
           99999998.99999999, 99999999.0, 99999999.99999999, 1e12, math.nan,
           math.inf]
STRIDE_CASES = [-1.0, 0.0, -0.0, 9.0, 10.0, 89.0, 99999998.0, 99999999.0,
                1e8, 2.5, -1.5, 2.7, -2.7, 1e17]
MODE_CASES = [float(i) for i in range(len(MODES))] + [-0.0, 0.5, 1.7, -1.0]
KIND_CASES = [0.0, -0.0, 1.0, 2.0, 0.5, math.nan]
COLUMN_CASES = {0: T_CASES, 1: STRIDE_CASES, 2: MODE_CASES, 12: KIND_CASES,
                13: VALUE_CASES, **{c: VALUE_CASES for c in range(3, 12)}}
COLUMN_GROUPS = {"t_ms": [0], "stride": [1], "mode": [2],
                 "values": list(range(3, 12)), "perturb_kind": [12],
                 "bio": [13]}


def typical_log(n_rows: int, seed: int, t0: float = 1.0) -> np.ndarray:
    """Rows such as a run logs: whole-ms clock, stride from -1 up, valid
    mode indices, values of mixed sign over many magnitudes."""
    rng = np.random.default_rng(seed)
    log = np.empty((n_rows, len(LOG_COLUMNS)))
    log[:, 0] = t0 + np.arange(n_rows)
    log[:, 1] = np.cumsum(rng.random(n_rows) < 0.002) - 1
    log[:, 2] = rng.integers(0, len(MODES), n_rows)
    log[:, 3:12] = (rng.standard_normal((n_rows, 9))
                    * 10.0 ** rng.uniform(-9, 3, (n_rows, 9)))
    log[:, 12] = rng.integers(0, 3, n_rows)
    log[:, 13] = rng.random(n_rows)
    return log


# Rows the writer prints at a time: each case below sits in its own chunk.
CHUNK = artifacts._CSV_CHUNK
OFFSETS = [0, CHUNK // 2, CHUNK - 1]


def case_table(group: str, offset: int):
    """A typical table with one block per case of the column group, and the
    group's columns and cases."""
    columns = COLUMN_GROUPS[group]
    cases = COLUMN_CASES[columns[0]]
    return (typical_log(len(cases) * CHUNK, seed=offset, t0=99_000.0),
            columns, cases)


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("group", sorted(COLUMN_GROUPS))
def test_block_printer_equals_the_row_format_on_each_case(group, offset):
    # One case per block, at its start, middle or end, so each case that
    # the array path can print is printed by it. A value case goes into all
    # nine value columns of its row.
    log, columns, cases = case_table(group, offset)
    log[offset::CHUNK, columns] = np.array(cases)[:, None]
    assert written_csv(log) == reference_csv(log)


@hs.composite
def log_tables(draw):
    n_rows = draw(hs.integers(1, 3 * CHUNK + 1))
    log = typical_log(n_rows, draw(hs.integers(0, 2**32 - 1)),
                      draw(hs.sampled_from([0.0, 1.0, 99_000.0, 999_000.0])))
    edges = [0, 1, CHUNK // 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1,
             2 * CHUNK, n_rows - 1]
    row = hs.one_of(hs.sampled_from([r for r in edges if r < n_rows]),
                    hs.integers(0, n_rows - 1))
    for _ in range(draw(hs.integers(0, 6))):
        column = draw(hs.sampled_from(sorted(COLUMN_CASES)))
        value = draw(hs.sampled_from(COLUMN_CASES[column])
                     if column in (1, 2) else
                     hs.one_of(hs.sampled_from(COLUMN_CASES[column]),
                               hs.floats(allow_nan=True,
                                         allow_infinity=True)))
        log[draw(row), column] = value
    return log


@settings(max_examples=60, deadline=None)
@given(log=log_tables())
def test_block_printer_equals_the_row_format(log):
    assert written_csv(log) == reference_csv(log)


def no_fallback(rows):
    raise AssertionError(f"a block of {len(rows)} rows fell back")


def test_case_tables_take_the_array_path_without_their_cases(monkeypatch):
    # So in the per-case tests each block takes the path its case selects.
    monkeypatch.setattr(artifacts, "_csv_rows", no_fallback)
    for group in COLUMN_GROUPS:
        for offset in OFFSETS:
            written_csv(case_table(group, offset)[0])


def near_tie_values(n: int, seed: int) -> np.ndarray:
    """Values near 1e7 whose products x * 1e6 lie a few ulps from a .5
    boundary, never on one: exact ties of the product are the `%` path's."""
    rng = np.random.default_rng(seed)
    x = (np.floor(rng.uniform(0.9e13, 1.1e13, n)) + 0.5) / 1e6
    steps = rng.integers(1, 5, n) * rng.choice([-1, 1], n)
    while steps.any():
        x = np.where(steps == 0, x,
                     np.nextafter(x, np.where(steps > 0, np.inf, -np.inf)))
        steps -= np.sign(steps)
    while True:
        scaled = x * 1e6
        tie = np.abs(scaled - np.rint(scaled)) == 0.5
        if not tie.any():
            return x * rng.choice([-1.0, 1.0], n)
        x = np.where(tie, np.nextafter(x, np.inf), x)


def test_values_near_1e7_take_the_array_path(monkeypatch):
    # The tie guard is an exact tie, so products one to four ulps (1/512
    # to 1/128 at 1e13) from a .5 boundary print from rint. A guard of
    # |x * 1e6| * 2**-50 (0.008 to 0.01 there) caught every one of them.
    log = typical_log(2 * CHUNK, seed=7)
    log[:, 3:12] = near_tie_values(log[:, 3:12].size, seed=7).reshape(-1, 9)
    scaled = log[:, 3:12] * 1e6
    wide_guard = (np.abs(np.abs(scaled - np.rint(scaled)) - 0.5)
                  <= np.abs(scaled) * 2.0 ** -50)
    assert wide_guard.all()
    monkeypatch.setattr(artifacts, "_csv_rows", no_fallback)
    assert written_csv(log) == reference_csv(log)


def test_run_log_takes_the_array_path(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts, "_csv_rows", no_fallback)
    run_scenario(ScenarioConfig(activity="lw", scenario="steady", n_strides=12,
                                seed=9, output_dir=str(tmp_path)))
