import math

import numpy as np
import pytest

from shankexo.cli import main as cli_main
from shankexo.tendon import (IdentificationError, StiffnessFit, TendonModel,
                             estimate_migration, identify_stiffness,
                             load_calibration_csv, tendon_length)


def model(**kw):
    base = dict(lever_arm_r=100.0, k_all=12.5, baseline_c=300.0, delta_l1=0.0)
    base.update(kw)
    return TendonModel(**base)


class TestTendonLength:
    def test_arc_minus_stretch_plus_baseline(self):
        m = model()
        theta = math.degrees(0.2)  # 11.4592 deg
        assert tendon_length(m, theta, 125.0) == pytest.approx(310.0, abs=1e-9)

    def test_rest_length(self):
        m = model(delta_l1=4.0)
        assert tendon_length(m, 0.0, 0.0) == 296.0

    def test_linear_stiffness(self):
        m = model()
        base = tendon_length(m, 5.0, 50.0)
        assert tendon_length(m, 5.0, 50.0 + 12.5) == pytest.approx(base - 1.0)

    def test_affine_partials(self):
        m = model()
        d_theta = (tendon_length(m, 11.0, 40.0) - tendon_length(m, 10.0, 40.0))
        assert d_theta == pytest.approx(100.0 * math.pi / 180.0, rel=1e-12)
        d_force = (tendon_length(m, 10.0, 41.0) - tendon_length(m, 10.0, 40.0))
        assert d_force == pytest.approx(-1.0 / 12.5, rel=1e-12)

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            tendon_length(model(), 0.0, -1.0)


class TestEstimateMigration:
    def test_consistent_measurement_gives_zero(self):
        m = model()
        l = tendon_length(m, 7.0, 30.0)
        assert estimate_migration(m, l, 7.0, 30.0) == pytest.approx(0.0, abs=1e-12)

    def test_shortfall_becomes_migration(self):
        m = model()
        l = tendon_length(m, 7.0, 30.0) - 2.0
        assert estimate_migration(m, l, 7.0, 30.0) == pytest.approx(2.0, abs=1e-12)
        assert m.delta_l1 == pytest.approx(2.0, abs=1e-12)

    def test_negative_raw_estimate_keeps_previous(self):
        m = model(delta_l1=1.5)
        l_pred_zero_mig = 300.0 + 100.0 * math.radians(7.0) - 30.0 / 12.5
        est = estimate_migration(m, l_pred_zero_mig + 1.0, 7.0, 30.0)
        assert est == 1.5
        assert m.delta_l1 == 1.5

    def test_round_trip_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = model(delta_l1=float(rng.uniform(0.0, 6.0)))
            theta = float(rng.uniform(-30.0, 40.0))
            force = float(rng.uniform(0.0, 180.0))
            truth = m.delta_l1
            l = tendon_length(m, theta, force)
            est = estimate_migration(m, l, theta, force)
            assert abs(est - truth) < 1e-9


def loading_loops(k=12.5, cycles=10, hysteresis=1.4, noise_sd=0.15, seed=4,
                  drift_per_cycle=0.06):
    """Synthetic force/deflection loops, 5 N -> 180 N -> 5 N per cycle."""
    rng = np.random.default_rng(seed)
    samples = []
    for c in range(cycles):
        up = np.linspace(5.0, 180.0, 60)
        down = np.linspace(180.0, 5.0, 60)
        for f in up:
            x = f / k + hysteresis * 0.5 + c * drift_per_cycle
            samples.append((float(f), float(x + rng.normal(0, noise_sd))))
        for f in down:
            x = f / k - hysteresis * 0.5 + c * drift_per_cycle
            samples.append((float(f), float(x + rng.normal(0, noise_sd))))
    return samples


class TestIdentifyStiffness:
    def test_exact_line(self):
        pts = [(12.5 * x, x) for x in np.linspace(0.0, 14.0, 20)]
        fit = identify_stiffness(pts)
        assert fit.k_all == pytest.approx(12.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_collinear_points(self):
        fit = identify_stiffness([(0.0, 0.0), (25.0, 2.0)])
        assert fit.k_all == pytest.approx(12.5)
        assert fit.r_squared == 1.0

    def test_zero_variance_deflection(self):
        with pytest.raises(IdentificationError, match="zero variance"):
            identify_stiffness([(1.0, 2.0), (3.0, 2.0), (5.0, 2.0)])

    def test_noiseless_recovery(self):
        m = model()
        pts = []
        for f in np.linspace(5.0, 180.0, 40):
            deflection = -(tendon_length(m, 0.0, float(f))
                           - tendon_length(m, 0.0, 0.0))
            pts.append((float(f), deflection))
        fit = identify_stiffness(pts)
        assert abs(fit.k_all - 12.5) / 12.5 < 1e-9

    def test_noisy_recovery_within_two_percent(self):
        rng = np.random.default_rng(8)
        pts = [(float(f), f / 12.5 + float(rng.normal(0, 0.5 / 12.5)))
               for f in np.linspace(5.0, 180.0, 120)]
        # 0.5 N of force noise expressed on the deflection axis
        fit = identify_stiffness(pts)
        assert abs(fit.k_all - 12.5) / 12.5 < 0.02

    def test_loading_loop_regime(self):
        fit = identify_stiffness(loading_loops())
        assert 0.9 < fit.r_squared < 1.0
        assert fit.k_all == pytest.approx(12.5, rel=0.05)


class TestCalibrationCsv:
    def test_load(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("force_n,deflection_mm\n5.0,0.4\n180.0,14.4\n")
        pts = load_calibration_csv(p)
        assert pts == [(5.0, 0.4), (180.0, 14.4)]
        fit = identify_stiffness(pts)
        assert isinstance(fit, StiffnessFit)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("f,d\n1,2\n")
        with pytest.raises(IdentificationError):
            load_calibration_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("")
        with pytest.raises(IdentificationError, match="header"):
            load_calibration_csv(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_value_is_one_error_line(self, tmp_path, capsys,
                                                column, value):
        row = ["20.0", "1.6"]
        row[column] = value
        p = tmp_path / "cal.csv"
        p.write_text("force_n,deflection_mm\n5.0,0.4\n" + ",".join(row) + "\n")
        want = f"calibration line 3: non-finite value: {row}"
        with pytest.raises(IdentificationError) as exc:
            load_calibration_csv(p)
        assert str(exc.value) == want
        assert cli_main(["fit-stiffness", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shankexo: error: {want}\n"

    @pytest.mark.parametrize("rows", [
        "1e200,1e200\n3e200,2e200\n",            # a square raises
        "1,1e308\n2,1.7e308\n3,-1e308\n",       # the sum is inf: NaN fit
    ])
    def test_fit_overflow_is_one_error_line(self, tmp_path, capsys, rows):
        p = tmp_path / "cal.csv"
        p.write_text("force_n,deflection_mm\n" + rows)
        with pytest.raises(IdentificationError, match="overflow"):
            identify_stiffness(load_calibration_csv(p))
        assert cli_main(["fit-stiffness", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("shankexo: error: calibration values "
                                "overflow the least-squares fit\n")

    @pytest.mark.parametrize("exponent, code, out, err", [
        # distinct deflections whose squared deviations underflow to 0.0
        (-170, 2, "", "shankexo: error: calibration deflections "
                      "underflow the least-squares fit\n"),
        # deviations whose squares are subnormal but not zero still fit
        (-155, 0, f"k_all={1.0000000000000029e+155:.6f} N/mm  "
                  "r_squared=1.000000\n", ""),
    ])
    def test_tiny_deflections_through_the_cli(self, tmp_path, capsys,
                                              exponent, code, out, err):
        p = tmp_path / "cal.csv"
        p.write_text("force_n,deflection_mm\n" + "".join(
            f"{i},{i}e{exponent}\n" for i in (1, 2, 3)))
        assert cli_main(["fit-stiffness", str(p)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("text, line", [
        ("force_n," + "1" * 131073 + "\n5.0,0.4\n", 1),
        ("force_n,deflection_mm\n5.0,0.4\n1," + "1" * 131073 + "\n", 3),
    ], ids=["header", "row"])
    def test_field_past_the_csv_limit_is_one_error_line(self, tmp_path,
                                                         capsys, text, line):
        p = tmp_path / "cal.csv"
        p.write_text(text)
        want = (f"calibration line {line}: field larger than field limit "
                f"(131072)")
        with pytest.raises(IdentificationError) as exc:
            load_calibration_csv(p)
        assert str(exc.value) == want
        assert cli_main(["fit-stiffness", str(p)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("",
                                                f"shankexo: error: {want}\n")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_bytes(b"\xef\xbb\xbfforce_n,deflection_mm\n5.0,0.4\n180,14.4\n")
        assert load_calibration_csv(p) == [(5.0, 0.4), (180.0, 14.4)]

    def test_latin_1_value_is_not_a_number(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_bytes(b"force_n,deflection_mm\n5.0,0.4\n\xe9,14.4\n")
        with pytest.raises(IdentificationError,
                           match="calibration line 3: not 2 numbers"):
            load_calibration_csv(p)
