import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from shankexo.cli import main as cli_main
from shankexo.gait_signals import EventDetector, GaitEventKind, SignalLossError
from shankexo.harness import (CONVERGENCE_SENTINEL, CSV_COLUMNS, ConfigError,
                              MetricsError, ScenarioConfig,
                              UndefinedCorrelationError, convergence_stride,
                              pearson, rmse_pct, run_scenario,
                              stance_correlation)
from shankexo.profile import GaussianParams


class TestRmsePct:
    def test_identical_series(self):
        assert rmse_pct([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 3.0) == 0.0

    def test_hand_value(self):
        assert rmse_pct([100.0, 100.0], [90.0, 110.0], 100.0) == pytest.approx(0.10)

    def test_constant_offset(self):
        d = [50.0] * 10
        a = [50.0 + 3.0] * 10
        assert rmse_pct(d, a, 60.0) == pytest.approx(3.0 / 60.0)

    def test_errors(self):
        with pytest.raises(MetricsError):
            rmse_pct([1.0], [1.0, 2.0], 1.0)
        with pytest.raises(MetricsError):
            rmse_pct([], [], 1.0)
        with pytest.raises(MetricsError):
            rmse_pct([1.0], [1.0], 0.0)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # cov = 3, sd product = sqrt(2 * 42/9)
        expected = 3.0 / math.sqrt(2.0 * 42.0 / 9.0)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_errors(self):
        with pytest.raises(MetricsError):
            pearson([1, 2], [1, 2])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])


class TestStanceCorrelation:
    def test_scale_invariance(self):
        bio = [0.0, 0.4, 1.0, 0.6, 0.1]
        mech = [sc * 73.0 for sc in bio]
        assert stance_correlation(mech, bio) == pytest.approx(1.0)

    def test_grid_mismatch(self):
        with pytest.raises(MetricsError):
            stance_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_no_positive_peak(self):
        with pytest.raises(UndefinedCorrelationError):
            stance_correlation([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])


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

    @pytest.mark.parametrize("field", ["body_weight", "fault_spike_t_ms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value}).validate()

    @pytest.mark.parametrize("group, key", [
        ("controller", "kp_typo"), ("plant", "k_al"), ("template", "perod"),
        ("controller", "v_max"),      # set from plant.v_max
        ("template", "activity"),     # set from the scenario's activity
        ("template", "df_peak"),      # derived from the stance curves
        ("template", "landmarks"),
    ])
    def test_override_outside_the_settable_fields_rejected(self, group, key):
        cfg = ScenarioConfig(n_strides=2, **{group: {key: 1.0}})
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            cfg.validate()
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            run_scenario(cfg)

    @pytest.mark.parametrize("group, key", [("controller", "v_max"),
                                            ("plant", "k_al")])
    def test_override_rejected_through_the_config_file(self, tmp_path,
                                                       group, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({group: {key: 100.0}}))
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            cli_main(["run", "--strides", "2", "--config", str(cfg_file)])


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

    def test_stalled_detection_raises_instead_of_a_short_run(self,
                                                            monkeypatch):
        # Events stop at 6 s: contact 8 never comes, so the loop runs to its
        # tick bound; the run must not come back with fewer strides.
        update = EventDetector.update
        contacts = []

        def stalling(self, sample):
            ev = update(self, sample) if sample.t_ms < 6000.0 else None
            if ev is not None and ev.kind is GaitEventKind.FOOT_CONTACT:
                contacts.append(ev)
            return ev

        monkeypatch.setattr(EventDetector, "update", stalling)
        with pytest.raises(SignalLossError) as err:
            run_scenario(ScenarioConfig(activity="lw", n_strides=8, seed=1))
        assert 0 < len(contacts) < 9
        assert (f"{len(contacts)} foot contacts confirmed; the run needs 9"
                in str(err.value))
        assert "tick bound of " in str(err.value)


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
        assert "k_all=12.5" in out

    def test_replay_subcommand(self, tmp_path, capsys):
        from shankexo.gait_signals import WindowAssembler, read_replay_csv
        from shankexo.plant import build_template, gen_frame
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
