import errno
import json
import logging
import math
import os
import re
import signal
import struct
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hs

from processes import (assert_reaped, exits_within, record_forks,
                       unpicklable_error)
from strides import out, report_stride, stance_report, stride_log

from shankexo import artifacts, harness, metrics
from shankexo.artifacts import CSV_COLUMNS, LOG_COLUMNS, write_artifacts
from shankexo.cli import main as cli_main
from shankexo.controller import ABORT_CODE, MODES, Controller, ControllerConfig
from shankexo.gait_signals import EventDetector, GaitEventKind, SignalLossError
from shankexo.harness import (PEAK_MARGIN_N, ConfigError, ScenarioConfig,
                              run_scenario)
from shankexo.metrics import (CONVERGENCE_SENTINEL, MetricsError,
                              MetricsReport, convergence_stride)
from shankexo.plant import (BLOCK_TICKS, GaitTemplate, GaitWorld, Interval,
                            PlantConfig, RampSpec, build_template)
from shankexo.profile import (MAX_DELTA_MU, MAX_DELTA_SIGMA, SIGMA_BOUNDS,
                              UPDATE_GAIN, EstimationPath, GaussianParams,
                              eval_force)

CEILING = ControllerConfig.force_ceiling


class TestRmsePct:
    """The report's tracking RMSE over a stance, against its peak f_des."""

    @staticmethod
    def rmse(des, mea):
        rep = out(stance_report(des, np.zeros(len(des)), mea))
        return rep["rmse"] if rep["has_rmse"] else None

    def test_identical_series(self):
        assert self.rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert self.rmse([100.0, 100.0], [90.0, 110.0]) == pytest.approx(0.10)

    def test_constant_offset(self):
        assert self.rmse([50.0] * 10, [53.0] * 10) == pytest.approx(3.0 / 50.0)

    def test_errors(self):
        # Undefined without a peak f_des above 1 N
        assert self.rmse([1.0, 0.5], [1.0, 2.0]) is None
        assert self.rmse([math.nan, 5.0], [1.0, 2.0]) is None
        # or without a stance tick: foot-off before the first
        rep = report_stride(stride_log([1000.0, 1001.0], f_des_n=5.0),
                            999.0, 999.5, 1002.0)
        assert rep.per_stride[0].rmse_pct is None


def r_shank(des, bio):
    """The report's correlation of f_des with bio over a stance, each
    normalized by its peak."""
    rep = out(stance_report(np.asarray(des, float), np.asarray(bio, float)))
    return rep["r_shank"] if rep["has_r_shank"] else None


class TestPearson:
    RAMP = np.arange(1.0, 102.0)

    def test_perfect_correlation(self):
        assert r_shank(self.RAMP, self.RAMP) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert r_shank(self.RAMP, self.RAMP[::-1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        x = np.tile([1.0, 2.0, 3.0], 34)[:101]
        y = np.tile([1.0, 2.0, 4.0], 34)[:101]
        assert r_shank(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_errors(self):
        # zero variance
        assert r_shank(np.full(101, 5.0), self.RAMP) is None


class TestStanceCorrelation:
    def test_scale_invariance(self):
        bio = np.sin(np.linspace(0.0, np.pi, 101)) ** 2
        assert r_shank(bio * 73.0, bio) == pytest.approx(1.0)

    def test_no_positive_peak(self):
        bio = np.sin(np.linspace(0.0, np.pi, 101))
        assert r_shank(bio * 73.0, np.zeros(101)) is None
        assert r_shank(bio, bio) is None        # f_des peaks at 1 N


def params_at(mu, s1, s2):
    return GaussianParams(100.0, mu, s1, s2, -30.0, 40.0)


GAP_VALUES = hs.sampled_from([7.0, 7.9, 8.0, 8.05, 9.0])   # targets at 8


class TestConvergenceStride:
    def test_already_at_targets(self):
        hist = [params_at(8.0, 7.0, 4.0)] * 5
        assert convergence_stride(hist, (8.0, 7.0, 4.0), 0.05) == 0

    def test_geometric_decay_converges_at_nine(self):
        hist = []
        mu_t, s1_t, s2_t = 8.0, 7.0, 4.0
        g_mu, g_s1, g_s2 = 7.0, 3.0, 1.0
        for n in range(20):
            r = 0.7 ** n
            hist.append(params_at(mu_t + g_mu * r, s1_t + g_s1 * r,
                                  s2_t + g_s2 * r))
        out = convergence_stride(hist, (mu_t, s1_t, s2_t), 0.05)
        assert out in (9, 10)

    def test_oscillation_returns_sentinel(self):
        hist = [params_at(8.0 + (-1.0) ** n * 2.0, 7.0, 4.0) for n in range(12)]
        assert convergence_stride(hist, (8.0, 7.0, 4.0), 0.05) == CONVERGENCE_SENTINEL

    def test_empty_history_rejected(self):
        with pytest.raises(MetricsError):
            convergence_stride([], (0.0, 0.0, 0.0), 0.05)

    @settings(max_examples=200, deadline=None)
    @given(hist=hs.lists(hs.tuples(*[GAP_VALUES] * 3), min_size=1,
                         max_size=12),
           tol=hs.sampled_from([0.0, 0.05, 0.5]))
    def test_matches_the_brute_force_definition(self, hist, tol):
        targets = (8.0, 8.0, 8.0)
        params = [params_at(*h) for h in hist]
        bounds = [tol * abs(g - 8.0) + 1e-12 for g in hist[0]]

        def within(h):
            return all(abs(v - 8.0) <= b for v, b in zip(h, bounds))

        want = next((i for i in range(len(hist))
                     if all(within(h) for h in hist[i:])),
                    CONVERGENCE_SENTINEL)
        assert convergence_stride(params, targets, tol) == want


class TestScenarioConfig:
    def test_zero_strides_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_strides=0).validate()

    def test_unknown_activity_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(activity="hop").validate()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="moonwalk").validate()

    @pytest.mark.parametrize("value, field", [
        *((v, f) for v in (math.nan, math.inf, -math.inf, True, "0.1")
          for f in ("body_weight", "fault_spike_t_ms", "amp_fraction")),
        # a load-cell fault may read NaN or inf, but is a number
        (True, "fault_spike_n"), ("0.1", "fault_spike_n")])
    def test_non_finite_input_rejected(self, value, field):
        with pytest.raises(ConfigError,
                           match=f"^{field} must be a (finite )?number"):
            ScenarioConfig(**{field: value}).validate()

    @pytest.mark.parametrize("group, key", [
        ("controller", "kp_typo"), ("plant", "k_al"), ("template", "perod"),
        ("controller", "v_max"),      # the motor's: plant.v_max
        ("template", "activity"),     # set from the scenario's activity
        ("template", "df_peak"),      # derived from the stance curves
        ("template", "landmarks"),
        # module constants of the controller and of the simulated world
        ("controller", "swing_target_force"),
        ("controller", "release_slack_mm"), ("controller", "tighten_gain"),
        ("controller", "probe_rate"), ("controller", "probe_margin_mm"),
        ("controller", "engage_force"), ("controller", "tail_release_force"),
        ("controller", "tail_release_rate"),
        ("plant", "initial_slack_mm"), ("plant", "mig_max"),
        ("plant", "mig_stride_tau"), ("plant", "sway_deg"),
        ("plant", "sway_window_s"),
    ])
    @pytest.mark.parametrize("value", [1.0, 0])
    def test_override_outside_the_settable_fields_rejected(self, group, key,
                                                           value):
        cfg = ScenarioConfig(n_strides=2, **{group: {key: value}})
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            cfg.validate()
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            run_scenario(cfg)

    @pytest.mark.parametrize("group, key, value, what", [
        ("plant", "k_all", "x", "a finite number"),
        ("controller", "kp", True, "a finite number"),
        ("template", "period", None, "a finite number"),
        ("controller", "silent_cycles", 2.0, "an integer"),
        ("controller", "silent_cycles", False, "an integer"),
        ("template", "theta_sk_span", [-14.0], "a pair of finite numbers"),
        ("template", "theta_sk_span", [-14.0, "18"], "a pair of finite numbers"),
        ("template", "theta_sk_span", 18.0, "a pair of finite numbers"),
    ], ids=["string", "bool", "null", "float-count", "bool-count",
            "short-pair", "string-in-pair", "number-for-pair"])
    def test_override_of_the_wrong_type_rejected(self, group, key, value,
                                                 what):
        cfg = ScenarioConfig(n_strides=2, **{group: {key: value}})
        with pytest.raises(ConfigError, match=f"{group}.{key} must be {what}"):
            cfg.validate()

    @pytest.mark.parametrize("name, value, low", [
        ("seed", -1, 0), ("seed", 1.5, 0), ("seed", True, 0),
        ("seed", "1", 0), ("n_strides", 0, 1), ("n_strides", 2.5, 1),
        ("n_strides", True, 1), ("n_strides", 3.0, 1), ("seed", math.nan, 0),
        ("n_strides", None, 1)])
    def test_count_that_is_not_an_integer_in_range_rejected(self, name,
                                                            value, low):
        with pytest.raises(ConfigError, match=(
                rf"{name} must be an integer >= {low}, not {value!r}")):
            ScenarioConfig(**{name: value}).validate()

    @pytest.mark.parametrize("group, key, value", [
        ("controller", "kp", math.nan), ("plant", "k_all", math.inf),
        ("controller", "force_ceiling", math.nan),
        ("template", "period", -math.inf),
        ("template", "theta_sk_span", [-14.0, math.nan])])
    def test_non_finite_override_rejected(self, group, key, value):
        cfg = ScenarioConfig(**{group: {key: value}})
        with pytest.raises(ConfigError,
                           match=f"{group}.{key} must be a .*finite number"):
            cfg.validate()

    @pytest.mark.parametrize("group, key", [
        ("controller", "map_b"), ("controller", "pretighten_rate"),
        ("controller", "pretighten_force"), ("controller", "load_cell_residual"),
        ("controller", "position_limit_mm"),
        ("plant", "lever_arm_r"), ("plant", "k_all"), ("plant", "baseline_c"),
        ("plant", "motor_tau_s"), ("plant", "v_max")])
    @pytest.mark.parametrize("value", [0, -0.0, -1.0])
    def test_scale_that_is_not_positive_rejected(self, group, key, value):
        cfg = ScenarioConfig(**{group: {key: value}})
        with pytest.raises(ConfigError,
                           match=f"{group}.{key} must be positive"):
            cfg.validate()

    @pytest.mark.parametrize("group, key", [
        ("plant", "force_noise_sd"), ("controller", "integral_clamp"),
        ("controller", "kd"), ("controller", "map_m")])
    @pytest.mark.parametrize("value", [-1e-300, -1, -50.0])
    def test_override_that_is_negative_rejected(self, group, key, value):
        cfg = ScenarioConfig(**{group: {key: value}})
        with pytest.raises(ConfigError, match=(
                rf"{group}.{key} must not be negative, not {value!r}")):
            cfg.validate()

    @pytest.mark.parametrize("value", [-1, -5])
    def test_negative_silent_cycles_rejected(self, value):
        cfg = ScenarioConfig(n_strides=20, controller={"silent_cycles": value})
        with pytest.raises(ConfigError, match=(
                f"controller.silent_cycles must not be negative, not "
                f"{value}")):
            cfg.validate()

    @pytest.mark.parametrize("value", [12, 40])
    def test_silent_cycles_that_leave_no_stride_rejected(self, value):
        # Every stride would be silent: no stride analysed, every
        # aggregate None.
        with pytest.raises(ConfigError, match=(
                f"not enough strides: n_strides = 12 must exceed "
                f"controller.silent_cycles = {value}")):
            run_scenario(ScenarioConfig(n_strides=12,
                                        controller={"silent_cycles": value}))

    def test_silent_cycles_below_the_strides_leave_one_analysed(self):
        report = run_scenario(ScenarioConfig(n_strides=12,
                                             controller={"silent_cycles": 11}))
        assert report.aggregate["analysis_start_stride"] == 11
        assert report.aggregate["n_strides_analyzed"] == 1

    @pytest.mark.parametrize("n_strides", [5, 12, 13])
    def test_too_few_strides_for_the_speed_ramp_rejected(self, n_strides):
        # The ramp starts at stride 7 at the earliest (the analysis start,
        # 5 in a short run, + 2) and holds its low speed for 6 strides.
        with pytest.raises(ConfigError, match="not enough strides for the "
                                              "speed-ramp protocol"):
            run_scenario(ScenarioConfig(scenario="speed-ramp",
                                        n_strides=n_strides))

    def test_the_shortest_speed_ramp_slows_and_recovers(self, monkeypatch):
        blocks, _ = record_rows(monkeypatch)
        run_scenario(ScenarioConfig(scenario="speed-ramp", n_strides=14))
        belt = np.concatenate(blocks)[:, LOG_COLUMNS.index("belt_scale")]
        assert belt.min() == RampSpec.low_scale and belt[-1] == 1.0

    @pytest.mark.parametrize("group, key, value", [
        ("plant", "k_all", 12), ("controller", "silent_cycles", 3),
        ("template", "theta_sk_span", [-14, 18.0]),
        ("template", "theta_sk_span", (-14.0, 18.0)),
        # zero is their own setting: no noise, no integral, no damping, the
        # static map
        ("plant", "force_noise_sd", 0), ("controller", "integral_clamp", 0.0),
        ("controller", "kd", -0.0), ("controller", "map_m", 0),
    ])
    def test_override_of_the_field_type_accepted(self, group, key, value):
        ScenarioConfig(**{group: {key: value}}).validate()

    @pytest.mark.parametrize("amp, bw, controller", [
        (0.5, 700.0, {}), (0.29, 1000.0, {}), (0.3, 1000.0, {}),
        (0.15, 700.0, {"force_ceiling": 20.0}),
        (0.15, 700.0, {"force_ceiling": 105.0 + PEAK_MARGIN_N})])
    def test_a_peak_the_force_ceiling_cannot_carry_rejected(self, amp, bw,
                                                            controller):
        cfg = ScenarioConfig(amp_fraction=amp, body_weight=bw,
                             controller=controller)
        ceiling = controller.get("force_ceiling", CEILING)
        with pytest.raises(ConfigError, match=(
                rf"= {amp * bw:g} N is not below the force ceiling of "
                rf"{ceiling:g} N")):
            cfg.validate()

    @pytest.mark.parametrize("amp, bw, controller", [
        (0.2899, 1000.0, {}), (0.5, 579.0, {}),
        (0.5, 700.0, {"force_ceiling": 400.0})])
    def test_a_peak_below_the_force_ceiling_accepted(self, amp, bw,
                                                     controller):
        ScenarioConfig(amp_fraction=amp, body_weight=bw,
                       controller=controller).validate()

    def test_every_field_takes_its_own_value(self):
        # Each settable field accepts the value it holds, so the type check
        # knows every annotation an override can meet.
        for group, owner in (("controller", ControllerConfig()),
                             ("plant", PlantConfig()),
                             ("template", build_template("lw"))):
            for f in fields(owner):
                cfg = ScenarioConfig(**{group: {f.name: getattr(owner,
                                                                f.name)}})
                try:
                    cfg.validate()
                except ConfigError as exc:
                    assert "not overridden" in str(exc)

    @pytest.mark.parametrize("group", ["controller", "plant", "template"])
    def test_override_group_that_is_not_a_mapping_rejected(self, group):
        with pytest.raises(ConfigError, match=f"{group} overrides must be"):
            ScenarioConfig(**{group: [1.0]}).validate()

    @pytest.mark.parametrize("group, key", [("controller", "v_max"),
                                            ("plant", "k_al")])
    def test_override_rejected_through_the_config_file(self, tmp_path,
                                                       capsys, group, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({group: {key: 100.0}}))
        rc = cli_main(["run", "--strides", "2", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("shankexo: error: ") and f"{group}.{key}" in err
        assert "is not a field of" in err and err.count("\n") == 1


# Every settable numeric field, as (prefix of its name, field): the
# scenario's own and each override group's.
SETTABLE = [("", f) for f in fields(ScenarioConfig) if f.metadata] + [
    (f"{group}.", f) for group, (owner, _) in harness.OVERRIDE_GROUPS.items()
    for f in fields(owner) if f.metadata]


def admitted(f, inside: bool):
    """Values of field f's type inside the Interval it declares, or outside
    it; None when every value of its type is inside."""
    iv = f.metadata["interval"]
    if f.type == "int":     # every int field is bounded below only
        assert iv.high == math.inf and iv.low_in
        return (hs.integers(min_value=iv.low) if inside
                else hs.integers(max_value=iv.low - 1))
    floats = partial(hs.floats, allow_nan=not iv.finite,
                     allow_infinity=not iv.finite)
    low = None if iv.low == -math.inf else iv.low
    high = None if iv.high == math.inf else iv.high
    if inside:
        values = floats(low, high,
                        exclude_min=low is not None and not iv.low_in,
                        exclude_max=high is not None and not iv.high_in)
        return (hs.one_of(hs.none(), values) if f.type == "Optional[float]"
                else values)
    outside = [*([floats(max_value=low, exclude_max=iv.low_in)]
                 if low is not None else []),
               *([floats(min_value=high, exclude_min=iv.high_in)]
                 if high is not None else [])]
    return hs.one_of(outside) if outside else None


@pytest.mark.parametrize("owner", [ScenarioConfig, ControllerConfig,
                                   PlantConfig, GaitTemplate])
def test_every_numeric_field_declares_an_interval(owner):
    numeric = [f for f in fields(owner) if f.type in ("int", "float",
                                                      "Optional[float]")]
    assert numeric and [f.name for f in numeric
                        if not isinstance(f.metadata.get("interval"),
                                          Interval)] == []


@pytest.mark.parametrize("prefix, f", SETTABLE,
                         ids=[p + f.name for p, f in SETTABLE])
@settings(max_examples=20, deadline=None)
@given(data=hs.data())
def test_a_value_is_checked_against_its_declared_interval(prefix, f, data):
    """Inside its interval a value passes validate, but for the peak
    against the force ceiling, which amp_fraction, body_weight and
    controller.force_ceiling reach; outside it, validate raises one error
    that names the field."""
    def validate(value):
        group = prefix.rstrip(".")
        (ScenarioConfig(**{group: {f.name: value}}) if group
         else ScenarioConfig(**{f.name: value})).validate()

    try:
        validate(data.draw(admitted(f, inside=True)))
    except ConfigError as exc:
        assert str(exc).startswith("profile peak amp_fraction * body_weight")
    outside = admitted(f, inside=False)
    if outside is not None:
        with pytest.raises(ConfigError, match=(
                "^" + re.escape(f"{prefix}{f.name} must "))):
            validate(data.draw(outside))


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ScenarioConfig(activity="lw", scenario="steady", n_strides=20,
                         seed=5, output_dir=str(out))
    report = run_scenario(cfg)
    return report, out


class TestRunScenario:
    def test_report_completeness(self, short_run):
        report, _ = short_run
        strides = [s.stride for s in report.per_stride]
        assert strides == list(range(20))

    def test_rate_contract_in_csv(self, short_run):
        _, out = short_run
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        # 1 kHz rows: consecutive t_ms differ by exactly 1 ms
        t0 = float(lines[1].split(",")[0])
        t1 = float(lines[2].split(",")[0])
        assert t1 - t0 == 1.0

    def test_summary_round_trips(self, short_run):
        report, out = short_run
        data = json.loads((out / "summary.json").read_text())
        assert data["convergence_stride"] == report.convergence_stride
        assert len(data["per_stride"]) == len(report.per_stride)
        assert data["aborted"] is False

    def test_summary_serializes_full_precision(self, short_run):
        _, out = short_run
        data = json.loads((out / "summary.json").read_text())
        mu = data["per_stride"][3]["mu"]
        # full repr round-trip, at least 12 significant digits
        assert repr(mu) in (out / "summary.json").read_text()

    def test_silent_strides_issue_no_force_commands(self, short_run):
        _, out = short_run
        for row in (out / "timeseries.csv").read_text().splitlines()[1:]:
            cols = row.split(",")
            stride, mode, f_des = int(cols[1]), cols[2], float(cols[6])
            if 0 <= stride < 5:
                assert mode in ("silent", "pretighten")
                assert f_des == 0.0

    def test_events_on_the_estimation_grid(self, short_run):
        report, _ = short_run
        # extremum timestamps land on 10 ms IMU samples: the estimation path
        # runs exactly once per ten control ticks
        for s in report.per_stride:
            assert s.t_fc_ms % 10.0 == pytest.approx(0.0, abs=1e-9)

    def test_config_file_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"controller": {"silent_cycles": 3},
             "plant": {"force_noise_sd": 0.0}}))
        rc = cli_main(["run", "--activity", "lw", "--strides", "8",
                       "--seed", "2", "--out", str(tmp_path / "o"),
                       "--config", str(cfg_file)])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert data["config"]["silent_cycles"] == 3

    def test_per_stride_values_near_the_float_range_aggregate_finite(
            self, tmp_path):
        # Load-cell noise near 1e307 aborts the run at its first reading
        # past the ceiling, and makes every swing's peak force finite but
        # their sum overflow; summary.json must stay strict JSON.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"plant": {"force_noise_sd": 1e307}}))
        assert cli_main(["run", "--scenario", "perturb", "--strides", "30",
                         "--out", str(tmp_path / "o"),
                         "--config", str(cfg_file)]) == 1

        def reject(name):
            raise ValueError(f"summary.json holds {name}")
        data = json.loads((tmp_path / "o" / "summary.json").read_text(),
                          parse_constant=reject)
        peaks = [s["swing_max_force"] for s in data["per_stride"]
                 if s["swing_max_force"] is not None]
        assert sum(peaks) == math.inf
        mean = data["aggregate"]["swing_max_force_mean"]
        assert min(peaks) <= mean <= max(peaks)
        assert 0.0 < data["aggregate"]["swing_max_force_sd"] < math.inf

    def test_stalled_detection_raises_instead_of_a_short_run(self,
                                                            monkeypatch):
        # Events stop at 6 s: contact 8 never comes, so the loop runs to its
        # tick bound; the run must not come back with fewer strides.
        contacts = stalling_detector(monkeypatch, 6000.0)
        with pytest.raises(SignalLossError) as err:
            run_scenario(ScenarioConfig(activity="lw", n_strides=8, seed=1))
        assert 0 < len(contacts) < 9
        assert (f"{len(contacts)} foot contacts confirmed; the run needs 9"
                in str(err.value))
        assert "tick bound of " in str(err.value)

    def test_log_table_holds_the_loop_rows_bit_for_bit(self, tmp_path,
                                                       monkeypatch):
        # A 3-stride run is two world blocks. A recording Controller.run
        # returns each stretch's rows with f_truth -0.0
        # now and then in the first block, and in the second block one NaN
        # f_meas with a NaN f_truth of another payload, on the tick whose
        # zero-force length is made infinite (its infinite reading aborts
        # the run). The table is the rows each block hands the printer.
        payload_nan = struct.unpack("<d", struct.pack("<Q",
                                                      0x7FF8_0000_DEAD_BEEF))[0]
        nan_tick = BLOCK_TICKS + 300
        rows, stretches, blocks, n_row = [], [], [], [0]
        run, print_rows = Controller.run, artifacts.Artifacts.print

        def recording_run(self, cols, cable):
            at = nan_tick - 1 - n_row[0]
            if 0 <= at < cols.shape[1]:
                cols = cols.copy()
                cols[4, at] = math.inf
            loop = run(self, cols, cable)
            stretches.append(loop)
            tick = np.arange(n_row[0] + 1, n_row[0] + 1 + len(loop))
            n_row[0] += len(loop)
            loop = loop.copy()
            loop[tick % 500 == 0, 3] = -0.0
            loop[tick == nan_tick, 2:4] = (math.nan, payload_nan)
            rows.extend(loop.tolist())
            return loop

        def keep_rows(self, block):
            blocks.append(block.copy())
            print_rows(self, block)

        monkeypatch.setattr(Controller, "run", recording_run)
        monkeypatch.setattr(artifacts.Artifacts, "print", keep_rows)
        report = run_scenario(ScenarioConfig(
            activity="lw", n_strides=3, seed=1, output_dir=str(tmp_path),
            controller={"silent_cycles": 2}))
        table = np.concatenate(blocks)
        assert report.aborted and BLOCK_TICKS < len(table) < 2 * BLOCK_TICKS
        assert len(rows) == len(table)
        assert all(loop.dtype == np.float64 and loop.shape[1:] == (6,)
                   for loop in stretches)
        assert all(row[0].is_integer() for row in rows)
        assert {row[0] for row in rows} >= {0, ABORT_CODE}
        want = np.array([[struct.pack("<d", v) for v in row] for row in rows])
        loop = table[:, [LOG_COLUMNS.index(c) for c in (
            "mode", "f_des_n", "f_meas_n", "f_truth_n", "l_cable_mm",
            "v_cmd_mm_s")]]
        got = np.array([[struct.pack("<d", v) for v in row]
                        for row in loop.tolist()])
        assert (got == want).all()
        f_truth = loop[:, 3]
        assert np.signbit(f_truth[f_truth == 0.0]).sum() >= 7
        assert struct.pack("<d", f_truth[nan_tick - 1]) == struct.pack(
            "<d", payload_nan)
        assert math.isnan(loop[nan_tick - 1, 2])


def stalling_detector(monkeypatch, start_ms, end_ms=math.inf):
    """Freeze the event detector from start_ms to end_ms: the foot pitch
    and its rate read NaN there, so the detector skips every sample there
    as if it had not seen it, and confirms no event there."""
    run = EstimationPath.run
    contacts = []

    def stalling(self, cols, start, limit):
        stalled = (start_ms <= cols[0]) & (cols[0] < end_ms)
        if stalled.any():
            cols = cols.copy()
            cols[1, stalled] = cols[4, stalled] = math.nan
        hit = run(self, cols, start, limit)
        if hit is not None and hit[1].kind is GaitEventKind.FOOT_CONTACT:
            contacts.append(hit[1])
        return hit

    monkeypatch.setattr(EstimationPath, "run", stalling)
    return contacts


def record_reports(monkeypatch):
    """The arguments of each block's call of the stride reporter."""
    calls = []
    report = metrics._StrideReport.report

    def recording(self, log, contacts, foot_offs, adopted):
        calls.append((log, contacts, foot_offs, adopted))
        return report(self, log, contacts, foot_offs, adopted)

    monkeypatch.setattr(metrics._StrideReport, "report", recording)
    return calls


def record_rows(monkeypatch):
    """Copies of the rows each block adds to the log, as the stride
    reporter first sees them (the log it sees is a view of a buffer that
    later blocks overwrite), and the run's foot contacts, foot-offs and
    adopted params, filled in as the run goes."""
    blocks, events = [], []
    report = metrics._StrideReport.report

    def recording(self, log, contacts, foot_offs, adopted):
        seen = blocks[-1][-1, 0] if blocks else -math.inf
        blocks.append(log[log[:, 0] > seen].copy())
        events[:] = contacts, foot_offs, adopted
        return report(self, log, contacts, foot_offs, adopted)

    monkeypatch.setattr(metrics._StrideReport, "report", recording)
    return blocks, events


class TestStreamedRun:
    """A run holds only the log rows from the oldest unreported foot contact
    on, reports each stride once the next foot contact is known, and prints
    rows as they become final."""

    @pytest.mark.parametrize("n_strides", [30, 120])
    def test_rows_held_stay_within_a_block_and_a_stride(self, monkeypatch,
                                                        n_strides):
        # Each block's call of the reporter sees every row held: a block
        # and the rows from the oldest unreported foot contact on. The
        # bound is the same at both run lengths, the ramp's slowest stride.
        calls = record_reports(monkeypatch)
        run_scenario(ScenarioConfig(activity="lw", scenario="speed-ramp",
                                    n_strides=n_strides, seed=1))
        contacts = calls[-1][1]
        assert len(contacts) == n_strides + 1
        longest = max(np.diff([c.t_ms for c in contacts]))
        assert longest == 2260.0
        assert max(len(log) for log, *_ in calls) <= BLOCK_TICKS + longest

    @pytest.mark.parametrize("stall_ms", [None, (9000.0, 16500.0)])
    def test_streamed_report_equals_the_report_over_the_whole_log(
            self, tmp_path, monkeypatch, stall_ms):
        # A 7.5 s detector stall makes assisted stride 6 outlast the buffer,
        # which grows twice; without it the buffer keeps its size.
        if stall_ms:
            stalling_detector(monkeypatch, *stall_ms)
        calls = record_reports(monkeypatch)
        blocks = []
        print_rows = artifacts.Artifacts.print
        monkeypatch.setattr(artifacts.Artifacts, "print", lambda self, rows: (
            blocks.append(rows.copy()), print_rows(self, rows)))
        report = run_scenario(ScenarioConfig(
            activity="lw", scenario="perturb", n_strides=30, seed=3,
            output_dir=str(tmp_path)))
        sizes = {len(log.base) for log, *_ in calls}
        assert (len(sizes) > 1) == bool(stall_ms)
        whole = metrics._StrideReport(30)
        whole.report(np.concatenate(blocks), *calls[-1][1:])
        assert len(report.per_stride) >= 28
        assert repr(whole.per_stride) == repr(report.per_stride)

    def test_a_run_that_raises_leaves_no_file(self, tmp_path, monkeypatch):
        # Artifacts of an earlier run stay as they were; an empty directory
        # gets no file.
        earlier, empty = tmp_path / "earlier", tmp_path / "empty"
        run_scenario(ScenarioConfig(activity="lw", n_strides=3, seed=2,
                                    output_dir=str(earlier),
                                    controller={"silent_cycles": 2}))
        before = {p.name: p.read_bytes() for p in earlier.iterdir()}
        assert sorted(before) == ["summary.json", "timeseries.csv"]
        stalling_detector(monkeypatch, 6000.0)
        printers = record_forks(monkeypatch)
        for out in (earlier, empty):
            with pytest.raises(SignalLossError):
                run_scenario(ScenarioConfig(activity="lw", n_strides=8,
                                            seed=1, output_dir=str(out)))
        assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before
        assert list(empty.iterdir()) == []
        assert_reaped(printers, 2)


REPORT = MetricsReport(config={}, per_stride=[], aggregate={},
                       convergence_stride=-1, aborted=False)
HEADER = (",".join(CSV_COLUMNS) + "\r\n").encode()


def zero_rows(n: int) -> np.ndarray:
    """n log rows of zeros on a whole-ms clock."""
    rows = np.zeros((n, len(LOG_COLUMNS)))
    rows[:, 0] = np.arange(n)
    return rows


class TestPrinter:
    """timeseries.csv is printed by a forked printer process. A run reaps
    it on every path, and its failure fails the run."""

    @pytest.mark.parametrize("failure", ["ENOSPC", "unpicklable"])
    def test_a_printer_failure_fails_the_run(self, tmp_path, monkeypatch,
                                             capsys, failure):
        # The printer inherits the patch; its third chunk fails, with an
        # OSError that names the printer, or with an error it cannot
        # report, which leaves its exit status.
        block, calls = artifacts._csv_block, []

        def failing(rows):
            calls.append(len(rows))
            if len(calls) == 3:
                if failure == "unpicklable":
                    raise unpicklable_error()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return block(rows)

        monkeypatch.setattr(artifacts, "_csv_block", failing)
        printers = record_forks(monkeypatch)
        with pytest.raises(OSError) as err:
            run_scenario(ScenarioConfig(activity="lw", n_strides=8, seed=1,
                                        output_dir=str(tmp_path / "run")))
        if failure == "ENOSPC":
            assert err.value.errno == errno.ENOSPC
            text = "[Errno 28] timeseries.csv printer: No space left on device"
        else:
            text = "timeseries.csv printer exited with 1"
        assert str(err.value) == text
        assert cli_main(["run", "--strides", "8",
                         "--out", str(tmp_path / "cli")]) == 2
        assert capsys.readouterr().err == f"shankexo: error: {text}\n"
        assert calls == []       # the parent prints nothing itself
        assert [list(d.iterdir()) for d in tmp_path.iterdir()] == [[], []]
        assert_reaped(printers, 2)

    @pytest.mark.parametrize("after", ["the second block", "the last"])
    def test_a_killed_printer_fails_the_run(self, tmp_path, monkeypatch,
                                            after):
        # Killed once the last block is handed over, the printer fails the
        # run through its exit status alone.
        printers = record_forks(monkeypatch)
        print_rows, blocks = artifacts.Artifacts.print, []
        write = harness.write_artifacts

        def killing(self, rows):
            print_rows(self, rows)
            blocks.append(len(rows))
            if len(blocks) == 2 and after == "the second block":
                os.kill(printers[-1], signal.SIGKILL)

        def killing_write(*args):
            if after == "the last":
                os.kill(printers[-1], signal.SIGKILL)
            write(*args)

        monkeypatch.setattr(artifacts.Artifacts, "print", killing)
        monkeypatch.setattr(harness, "write_artifacts", killing_write)
        with pytest.raises(OSError, match="printer killed by SIGKILL"):
            run_scenario(ScenarioConfig(activity="lw", n_strides=8, seed=1,
                                        output_dir=str(tmp_path)))
        assert len(blocks) >= 2 and list(tmp_path.iterdir()) == []
        assert_reaped(printers, 1)

    def test_two_printers_at_once(self, tmp_path, monkeypatch):
        # The second printer holds no end of the first one's pipe, so the
        # first sees EOF while the second still runs.
        printers = record_forks(monkeypatch)
        rows = zero_rows(2500)
        first, second = tmp_path / "first", tmp_path / "second"
        with artifacts.Artifacts(str(first)) as a:
            with artifacts.Artifacts(str(second)) as b:
                a.print(rows[:1000])
                b.print(rows)
                a.print(rows[1000:])
                a.end_rows()
                ended = exits_within(printers[0], 10.0)
                if not ended:         # a printer that waits for EOF
                    for pid in printers:
                        os.kill(pid, signal.SIGKILL)
                assert ended
                write_artifacts(str(first), a, REPORT)
                assert_reaped(printers[:1], 1)
                b.print(rows)
                write_artifacts(str(second), b, REPORT)
        want = HEADER + artifacts._csv_rows(rows)
        assert (first / "timeseries.csv").read_bytes() == want
        assert (second / "timeseries.csv").read_bytes() == (
            want + artifacts._csv_rows(rows))
        assert_reaped(printers, 2)

    def test_a_failed_fork_leaves_nothing(self, tmp_path, monkeypatch):
        def failing():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing)
        fds = sorted(os.listdir("/dev/fd"))
        with pytest.raises(BlockingIOError):
            run_scenario(ScenarioConfig(activity="lw", n_strides=3, seed=1,
                                        output_dir=str(tmp_path),
                                        controller={"silent_cycles": 2}))
        assert list(tmp_path.iterdir()) == []
        assert sorted(os.listdir("/dev/fd")) == fds

    @pytest.mark.parametrize("sizes", [[0], [0, 3, 0, 1, 0]])
    def test_a_print_of_no_rows(self, tmp_path, monkeypatch, sizes):
        printers = record_forks(monkeypatch)
        rows = zero_rows(sum(sizes))
        with artifacts.Artifacts(str(tmp_path)) as files:
            at = 0
            for n in sizes:
                files.print(rows[at:at + n])
                at += n
            write_artifacts(str(tmp_path), files, REPORT)
        assert (tmp_path / "timeseries.csv").read_bytes() == (
            HEADER + artifacts._csv_rows(rows))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "summary.json", "timeseries.csv"]
        assert_reaped(printers, 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(activity=hs.sampled_from(["lw", "lr", "ra", "rd"]),
       scenario=hs.sampled_from(["steady", "perturb", "speed-ramp"]),
       seed=hs.integers(0, 2**16),
       peak=hs.floats(20.0, CEILING - PEAK_MARGIN_N, exclude_max=True),
       body_weight=hs.floats(400.0, 1100.0))
@example(activity="lr", scenario="perturb", seed=1,
         peak=CEILING - PEAK_MARGIN_N - 0.1, body_weight=1000.0)
def test_an_accepted_peak_runs_without_abort_below_the_ceiling(
        activity, scenario, seed, peak, body_weight):
    """Over the scenario space: a config that validate accepts, with its
    peak up to just below the force ceiling minus the margin, neither aborts
    nor takes the true cable force to the ceiling. Its log, its gait events
    and its adopted params keep the run's invariants."""
    cfg = ScenarioConfig(activity=activity, scenario=scenario, n_strides=30,
                         seed=seed, amp_fraction=peak / body_weight,
                         body_weight=body_weight)
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        blocks, events = record_rows(mp)
        report = run_scenario(cfg)
    log = dict(zip(LOG_COLUMNS, np.concatenate(blocks).T))
    contacts, foot_offs, adopted = events
    assert not report.aborted
    assert log["f_truth_n"].max() < CEILING
    # The desired force is the profile's only in stance and once aborted.
    profiled = np.isin(log["mode"], (MODES.index("stance"), ABORT_CODE))
    assert not log["f_des_n"][~profiled].any()
    # A stance tick logs the profile force at its shank angle, with the
    # params its stride adopted, bit for bit.
    stance = log["mode"] == MODES.index("stance")
    want = list(map(eval_force, [adopted[s] for s in
                                 log["stride"][stance].astype(int).tolist()],
                    log["theta_sk_deg"][stance].tolist()))
    assert log["f_des_n"][stance].tobytes() == np.array(want).tobytes()
    assert stance.any()
    # Foot contacts count up from 0, each foot-off lies between its foot
    # contact and the next, and the stride column never falls.
    assert [fc.gc_index for fc in contacts] == list(range(len(contacts)))
    for n, fo in foot_offs.items():
        nxt = contacts[n + 1].t_ms if n + 1 < len(contacts) else math.inf
        assert contacts[n].t_ms < fo.t_ms < nxt
    assert (np.diff(log["stride"]) >= 0).all()
    # Each adopted param set keeps the sigma bounds and moves at most the
    # gain times the excursion guard from the last, up to rounding.
    lo, hi = SIGMA_BOUNDS
    step_mu = UPDATE_GAIN * MAX_DELTA_MU + 1e-12
    step_sigma = UPDATE_GAIN * MAX_DELTA_SIGMA + 1e-12
    assert all(lo <= p.sigma1 <= hi and lo <= p.sigma2 <= hi for p in adopted)
    for last, p in zip(adopted, adopted[1:]):
        assert abs(p.mu - last.mu) <= step_mu
        assert abs(p.sigma1 - last.sigma1) <= step_sigma
        assert abs(p.sigma2 - last.sigma2) <= step_sigma


@pytest.mark.parametrize("dead_from_ms", [2000.0, 10000.0])
def test_a_dead_load_cell_aborts_before_the_true_force_reaches_the_ceiling(
        monkeypatch, caplog, dead_from_ms):
    """The load cell reads 0 (its noise column is -1e9) from before the
    first assisted stance, or from t = 10 s, so the force ceiling, which
    reads it, cannot see the cable. The tendon model can: the load cell's
    residual against it aborts the run before the true force reaches the
    ceiling. Without the check, the next stance's probe, which never saw
    the cable engage, took the true force to 943.5 N (from 10 s on)."""
    columns = GaitWorld.cable_columns

    def dead_load_cell(self, block, m):
        cols = columns(self, block, m)
        cols[1, block.t_ms[:m] >= dead_from_ms] = -1e9
        return cols
    monkeypatch.setattr(GaitWorld, "cable_columns", dead_load_cell)
    blocks, _ = record_rows(monkeypatch)
    report = run_scenario(ScenarioConfig(activity="lw", n_strides=20, seed=1))
    log = dict(zip(LOG_COLUMNS, np.concatenate(blocks).T))
    assert report.aborted
    at = int(np.argmax(log["mode"] == ABORT_CODE))
    assert log["t_ms"][at] > dead_from_ms
    assert log["f_truth_n"].max() < CEILING
    (error,) = [r.getMessage() for r in caplog.records
                if r.levelno == logging.ERROR]
    assert error.startswith("safety abort: load cell f=0.0 N against the "
                            "tendon model's ")


@pytest.mark.parametrize("activity", ["lw", "rd"])
def test_a_noisy_load_cell_runs_without_the_residual_abort(activity):
    # With 1 N of load-cell noise a noise draw engages the probe on a slack
    # cable now and then, and the migration estimate at that reading is
    # off by up to the suit's migration: the model strays from the load
    # cell by up to about 55 N, which the residual bound must allow.
    report = run_scenario(ScenarioConfig(activity=activity, n_strides=30,
                                         seed=1,
                                         plant={"force_noise_sd": 1.0}))
    assert not report.aborted


class TestPerturbProtocol:
    def test_four_nonadjacent_perturbations(self):
        report = run_scenario(ScenarioConfig(activity="lw", scenario="perturb",
                                             n_strides=60, seed=2))
        perturbed = [s.stride for s in report.per_stride if s.perturbed]
        assert len(perturbed) == 4
        assert all(b - a >= 2 for a, b in zip(perturbed, perturbed[1:]))
        kinds = sorted(s.perturbed for s in report.per_stride if s.perturbed)
        assert kinds == [1, 1, 2, 2]


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = cli_main(["run", "--activity", "lw", "--strides", "8",
                       "--seed", "3", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "summary.json").exists()
        assert "convergence_stride" in capsys.readouterr().out

    def test_fit_stiffness_subcommand(self, tmp_path, capsys):
        p = tmp_path / "cal.csv"
        rows = ["force_n,deflection_mm"]
        for f in np.linspace(5, 180, 15):
            rows.append(f"{f},{f / 12.5}")
        p.write_text("\n".join(rows) + "\n")
        assert cli_main(["fit-stiffness", str(p)]) == 0
        out = capsys.readouterr().out
        assert out == "k_all=12.500000 N/mm  r_squared=1.000000\n"

    def test_replay_subcommand(self, tmp_path, capsys):
        from shankexo.gait_signals import WindowAssembler, read_replay_csv
        from scalar_reference import gen_frame
        from shankexo.profile import (INITIAL_MU, INITIAL_SIGMA1,
                                      INITIAL_SIGMA2, INITIAL_THETA_FC,
                                      INITIAL_THETA_FO, ProfileEstimator)
        tmpl = build_template("lw")
        rows = ["t_ms,theta_ft_deg,theta_sk_deg,theta_ft_rate_dps,theta_sk_rate_dps"]
        t = 0.0
        for k in range(1, 400):
            phase = (tmpl.stance_ratio + k * 0.01 / tmpl.period) % 1.0
            f = gen_frame(tmpl, phase, 1.0, t_ms=k * 10.0)
            rows.append(f"{k*10.0},{f.theta_ft},{f.theta_sk},"
                        f"{f.theta_ft_rate},{f.theta_sk_rate}")
        p = tmp_path / "stream.csv"
        p.write_text("\n".join(rows) + "\n")
        assert cli_main(["replay", str(p), "--amp-n", "90"]) == 0
        out = capsys.readouterr().out.splitlines()

        # The estimation path wired by hand: one line per stance window.
        detector, assembler = EventDetector(), WindowAssembler()
        estimator = ProfileEstimator(GaussianParams(
            90.0, INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2,
            INITIAL_THETA_FC, INITIAL_THETA_FO))
        want = []
        for sample in read_replay_csv(p):
            window = assembler.process(sample, detector.update(sample))
            if window is not None:
                q = estimator.update_from_window(window)
                want.append(
                    f"stride {len(want)}: mu={q.mu:.3f} sigma1={q.sigma1:.3f} "
                    f"sigma2={q.sigma2:.3f} fc={q.theta_fc:.3f} "
                    f"fo={q.theta_fo:.3f}")
        assert len(want) >= 3
        assert out == want + [f"{len(want)} strides estimated"]

    def test_stream_gap_is_one_error_line(self, tmp_path, capsys):
        # A simulated lw stream at 100 Hz with 500 ms cut out after 6 s:
        # the strides before the gap print, then one line names the gap.
        world = GaitWorld(build_template("lw"), PlantConfig())
        frames = world.advance_block(0.01, 900).frames
        rows = ["t_ms,theta_ft_deg,theta_sk_deg,theta_ft_rate_dps,"
                "theta_sk_rate_dps"]
        for k, (ft, sk, _, ft_rate, sk_rate, _) in enumerate(frames.tolist()):
            if not 600 <= k < 650:
                rows.append(f"{(k + 1) * 10.0},{ft},{sk},{ft_rate},{sk_rate}")
        p = tmp_path / "gap.csv"
        p.write_text("\n".join(rows) + "\n")
        assert cli_main(["replay", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("stride 0: ")
        assert err == ("shankexo: error: kinematic stream gap of 51 samples "
                       "at t=6510.0 ms\n")

    @pytest.mark.parametrize("activity", ["lw", "ra"])
    def test_stance_that_never_ends_is_one_error_line(self, tmp_path, capsys,
                                                      activity):
        # At half speed the foot-pitch rate of the first stance stays above
        # the initial arming threshold, so the detector never leaves stance.
        tmpl = build_template(activity)
        world = GaitWorld(tmpl, PlantConfig(), seed=3, ramp=RampSpec(
            start_stride=0, hold_strides=100, low_scale=0.5))
        frames = world.advance_block(0.01, 3264).frames
        rows = ["t_ms,theta_ft_deg,theta_sk_deg,theta_ft_rate_dps,"
                "theta_sk_rate_dps"]
        for k, (ft, sk, _, ft_rate, sk_rate, _) in enumerate(frames.tolist()):
            rows.append(f"{(k + 1) * 10.0},{ft},{sk},{ft_rate},{sk_rate}")
        p = tmp_path / "slow.csv"
        p.write_text("\n".join(rows) + "\n")
        assert cli_main(["replay", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("shankexo: error: no foot-off within 3000 ms "
                              "of the foot contact at t=")
        assert err.endswith("arming threshold of -80 deg/s\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["run", "--strides", "0"], "n_strides must be an integer >= 1"),
        (["run", "--config", "{bad_json}"], "Expecting property name"),
        (["run", "--config", "{missing}"], "No such file or directory"),
        (["fit-stiffness", "{missing}"], "No such file or directory"),
        (["fit-stiffness", "{stream}"], "unexpected calibration header"),
        (["replay", "{missing}"], "No such file or directory"),
        (["replay", "{calibration}"], "unexpected replay header"),
        (["replay", "{bad_row}"], "replay line 3: not 5 numbers"),
        (["replay", "{short_row}"], "replay line 2: not 5 numbers"),
        (["fit-stiffness", "{short_calibration}"],
         "calibration line 3: not 2 numbers"),
        (["fit-stiffness", "{bad_calibration}"],
         "calibration line 2: not 2 numbers"),
        (["run", "--config", "{list_config}"], "not a JSON object"),
        (["run", "--config", "{unknown_key}"], "unknown key(s) ctrl"),
        (["run", "--config", "{group_list}"], "plant overrides must be"),
        (["run", "--config", "{string_value}"], "plant.k_all must be a finite number"),
        (["run", "--config", "{nan_value}"],
         "controller.kp must be a finite number, not nan"),
        (["run", "--config", "{zero_lag}"], "plant.motor_tau_s must be positive"),
        (["run", "--config", "{negative_noise}"],
         "plant.force_noise_sd must not be negative, not -1"),
        (["run", "--scenario", "perturb", "--strides", "30", "--config",
          "{zero_map_b}"], "controller.map_b must be positive"),
        (["run", "--scenario", "speed-ramp", "--strides", "5"],
         "not enough strides for the speed-ramp protocol"),
        (["run", "--seed", "-1"], "seed must be an integer >= 0, not -1"),
        (["run", "--strides", "20", "--config", "{negative_silent}"],
         "controller.silent_cycles must not be negative, not -5"),
        (["run", "--strides", "12", "--config", "{all_silent}"],
         "not enough strides: n_strides = 12 must exceed "
         "controller.silent_cycles = 12"),
        (["run", "--strides", "5"],
         "not enough strides: n_strides = 5 must exceed "
         "controller.silent_cycles = 5"),
        (["run", "--strides", "12", "--config", "{negative_swing_target}"],
         "controller.swing_target_force is not a field of ControllerConfig"),
        (["fit-stiffness", "{long_calibration}"],
         "calibration line 2: field larger than field limit (131072)"),
        (["run", "--amp", "0.6"], "amp_fraction must be in (0, 0.5], not 0.6"),
        (["run", "--config", "{zero_position_limit}"],
         "controller.position_limit_mm must be positive, not 0"),
        (["run", "--config", "{whole_stance}"],
         "template.stance_ratio must be in (0, 1), not 1.0"),
    ], ids=["zero-strides", "bad-config", "missing-config",
            "missing-calibration", "calibration-header", "missing-stream",
            "stream-header", "stream-non-numeric-field", "stream-short-row",
            "calibration-short-row", "calibration-non-numeric-field",
            "config-not-an-object", "config-unknown-key",
            "config-group-not-an-object", "config-value-of-the-wrong-type",
            "config-value-not-finite", "config-value-not-positive",
            "config-value-negative",
            "config-gain-not-positive", "speed-ramp-too-short",
            "negative-seed", "negative-silent-cycles", "all-strides-silent",
            "steady-run-too-short",
            "config-constant-overridden",
            "calibration-field-too-long", "amp-out-of-range",
            "config-position-limit-not-positive",
            "config-stance-ratio-out-of-range"])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv,
                                         message):
        stream_header = ("t_ms,theta_ft_deg,theta_sk_deg,theta_ft_rate_dps,"
                         "theta_sk_rate_dps\n")
        files = {"missing": None,
                 "bad_json": "{plant: {}}",
                 "stream": stream_header,
                 "calibration": "force_n,deflection_mm\n",
                 "bad_row": stream_header + "0,1,2,3,4\n10,1,2,3,abc\n",
                 "short_row": stream_header + "10,1,2,3\n",
                 "short_calibration": "force_n,deflection_mm\n5,0.4\n1\n",
                 "bad_calibration": "force_n,deflection_mm\nfive,0.4\n",
                 "list_config": "[1, 2]",
                 "unknown_key": '{"plant": {}, "ctrl": {}}',
                 "group_list": '{"plant": [1]}',
                 "string_value": '{"plant": {"k_all": "x"}}',
                 "nan_value": '{"controller": {"kp": NaN}}',
                 "zero_lag": '{"plant": {"motor_tau_s": 0}}',
                 "negative_noise": '{"plant": {"force_noise_sd": -1}}',
                 "zero_map_b": '{"controller": {"map_b": 0}}',
                 "negative_silent": '{"controller": {"silent_cycles": -5}}',
                 "all_silent": '{"controller": {"silent_cycles": 12}}',
                 "negative_swing_target":
                     '{"controller": {"swing_target_force": -1}}',
                 "zero_position_limit":
                     '{"controller": {"position_limit_mm": 0}}',
                 "whole_stance": '{"template": {"stance_ratio": 1.0}}',
                 "long_calibration":
                     "force_n,deflection_mm\n1," + "1" * 131073 + "\n"}
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        for name, text in files.items():
            if text is not None:
                paths[name].write_text(text)
        argv = [a.format(**paths) for a in argv]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("shankexo: error: ") and message in err
        assert err.count("\n") == 1

    def test_aborted_run_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"controller":
                                        {"position_limit_mm": 5.0}}))
        rc = cli_main(["run", "--strides", "8", "--config", str(cfg_file)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "SAFETY ABORT" in out and "error" not in err

    def test_defaults_come_from_the_scenario_config(self, monkeypatch):
        from shankexo import cli
        seen = []
        monkeypatch.setattr(cli, "_run", lambda args: seen.append(args) or 0)
        monkeypatch.setattr(cli, "_replay", lambda args: seen.append(args) or 0)
        assert cli_main(["run"]) == 0 and cli_main(["replay", "x.csv"]) == 0
        run, replay = seen
        defaults = ScenarioConfig()
        assert run.amp == defaults.amp_fraction
        assert run.bw_n == defaults.body_weight
        assert replay.amp_n == defaults.amp_fraction * defaults.body_weight
