import math

import numpy as np
import pytest

from shankexo.gait_signals import (DetectorConfig, EventDetector, GaitEventKind,
                                   GaitPhase, KinematicSample, SignalLossError,
                                   SignalQualityError, StanceWindow,
                                   StreamConditioner, WindowAssembler,
                                   derive_df, read_replay_csv)


def make_stream(theta_ft, theta_ft_rate=None, dt_ms=10.0):
    """KinematicSamples from a foot-pitch trace (other channels zeroed)."""
    n = len(theta_ft)
    if theta_ft_rate is None:
        theta_ft_rate = np.gradient(theta_ft, dt_ms / 1000.0)
    return [KinematicSample(i * dt_ms, float(theta_ft[i]), 0.0,
                            -float(theta_ft[i]), float(theta_ft_rate[i]),
                            0.0, -float(theta_ft_rate[i]))
            for i in range(n)]


class TestDeriveDf:
    def test_equal_segments(self):
        assert derive_df(10.0, 10.0, 0.0, 0.0) == (0.0, 0.0)

    def test_direct_subtraction(self):
        assert derive_df(8.0, -12.0, 50.0, -30.0) == (20.0, 80.0)

    def test_upright_stand(self):
        assert derive_df(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SignalQualityError):
            derive_df(bad, 0.0, 0.0, 0.0)

    def test_exact_subtraction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sk, ft, skr, ftr = rng.uniform(-90, 90, 4)
            df, dfr = derive_df(sk, ft, skr, ftr)
            assert abs(df - (sk - ft)) < 1e-9
            assert abs(dfr - (skr - ftr)) < 1e-9


class TestEventDetector:
    def test_constant_stream_no_event(self):
        det = EventDetector()
        for s in make_stream(np.full(300, 5.0), np.zeros(300)):
            assert det.update(s) is None

    def test_foot_contact_at_brute_force_argmax(self):
        # single triangular peak; detected extremum must equal argmax
        ft = np.concatenate([np.linspace(-10, 12, 40),
                             np.linspace(12, -10, 40)[1:]])
        det = EventDetector(DetectorConfig(delta_ang=1.0))
        events = [det.update(s) for s in make_stream(ft)]
        fc = [e for e in events if e and e.kind is GaitEventKind.FOOT_CONTACT]
        assert len(fc) == 1
        k = int(np.argmax(ft))
        assert fc[0].t_ms == k * 10.0

    def test_foot_off_at_brute_force_argmin(self):
        # V-shaped rate minimum during stance
        rate = np.concatenate([np.linspace(0, -200, 30),
                               np.linspace(-200, 0, 30)[1:]])
        det = EventDetector(DetectorConfig(delta_vel=10.0, refractory_ms=0.0))
        det.mode = GaitPhase.STANCE
        det.gc_count = 1
        events = [det.update(s) for s in make_stream(np.zeros(len(rate)), rate)]
        fo = [e for e in events if e and e.kind is GaitEventKind.FOOT_OFF]
        assert len(fo) == 1
        m = int(np.argmin(rate))
        assert fo[0].t_ms == m * 10.0

    def test_confirmation_latency_is_hysteresis_crossing(self):
        # descending ramp of 0.5 deg/sample after the peak: confirmation on
        # the first sample at least delta_ang below the extremum
        up = np.linspace(-10, 10, 30)
        down = 10.0 - 0.5 * np.arange(1, 20)
        ft = np.concatenate([up, down])
        det = EventDetector(DetectorConfig(delta_ang=1.0))
        confirm_idx = None
        for i, s in enumerate(make_stream(ft)):
            if det.update(s) is not None:
                confirm_idx = i
                break
        peak = int(np.argmax(ft))
        drops = np.nonzero(ft[peak:] <= ft[peak] - 1.0)[0]
        assert confirm_idx == peak + drops[0]

    def test_event_alternation_any_stream(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            ft = np.cumsum(rng.normal(0, 8.0, 600))
            rate = np.gradient(ft, 0.01)
            det = EventDetector(DetectorConfig(refractory_ms=0.0,
                                               fo_arm_init=-1.0,
                                               fo_gate_fraction=0.0))
            kinds = []
            for s in make_stream(ft, rate):
                ev = det.update(s)
                if ev:
                    kinds.append(ev.kind)
            for a, b in zip(kinds, kinds[1:]):
                assert a is not b

    def test_gc_index_increments_at_each_contact(self):
        t = np.arange(1200) * 0.01
        ft = 10.0 * np.sin(2 * np.pi * t / 1.2)
        det = EventDetector(DetectorConfig(refractory_ms=0.0, fo_arm_init=-1.0,
                                           fo_gate_fraction=0.0))
        fcs = []
        for s in make_stream(ft):
            ev = det.update(s)
            if ev and ev.kind is GaitEventKind.FOOT_CONTACT:
                fcs.append(ev.gc_index)
        assert fcs == list(range(len(fcs)))
        assert len(fcs) >= 3


class TestStanceWindow:
    def test_stance_appends_in_order(self):
        w = StanceWindow(capacity=10)
        for i in range(3):
            w.append(float(i), -float(i))
        assert w.theta_sk_buf == [0.0, 1.0, 2.0]
        assert w.theta_df_buf == [0.0, -1.0, -2.0]
        assert len(w) == 3 and not w.overflowed

    def test_capacity_ring_semantics(self):
        w = StanceWindow(capacity=200)
        for i in range(250):
            w.append(float(i), float(i))
        assert len(w) == 200
        assert w.theta_sk_buf[0] == 50.0
        assert w.overflowed


class TestWindowAssembler:
    def test_backfill_and_trim_to_extrema(self):
        asm = WindowAssembler()
        samples = make_stream(np.arange(40.0))
        for s in samples[:10]:
            assert asm.process(s, None) is None
        from shankexo.gait_signals import GaitEvent
        fc = GaitEvent(GaitEventKind.FOOT_CONTACT, samples[8].t_ms, 0)
        asm.process(samples[10], fc)
        for s in samples[11:20]:
            asm.process(s, None)
        fo = GaitEvent(GaitEventKind.FOOT_OFF, samples[18].t_ms, 0)
        done = asm.process(samples[20], fo)
        assert done is not None
        # window spans the FC extremum sample through the FO extremum sample
        assert len(done) == 18 - 8 + 1
        assert done.theta_sk_buf[0] == 0.0  # sk channel is zero in make_stream


class TestStreamConditioner:
    def test_standing_offsets_subtracted(self):
        cond = StreamConditioner(standing_ft=2.0, standing_sk=-1.0)
        out = cond.feed(0.0, 3.0, 4.0, 0.0, 0.0)
        assert out[-1].theta_ft == 1.0
        assert out[-1].theta_sk == 5.0

    def test_single_gap_extrapolated(self):
        cond = StreamConditioner()
        cond.feed(0.0, 0.0, 0.0, 0.0, 0.0)
        cond.feed(10.0, 1.0, 2.0, 0.0, 0.0)
        out = cond.feed(30.0, 3.0, 6.0, 0.0, 0.0)
        assert len(out) == 2
        assert out[0].t_ms == 20.0
        assert out[0].theta_ft == pytest.approx(2.0)
        assert out[0].theta_sk == pytest.approx(4.0)

    def test_long_gap_rejected(self):
        cond = StreamConditioner()
        cond.feed(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(SignalLossError):
            cond.feed(50.0, 0.0, 0.0, 0.0, 0.0)

    def test_non_increasing_time_rejected(self):
        cond = StreamConditioner()
        cond.feed(10.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(SignalQualityError):
            cond.feed(10.0, 0.0, 0.0, 0.0, 0.0)


class TestReplayCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.csv"
        rows = ["t_ms,theta_ft_deg,theta_sk_deg,theta_ft_rate_dps,theta_sk_rate_dps"]
        for i in range(5):
            rows.append(f"{i*10},{i*0.5},{i*1.0},{0.5/0.01},{1.0/0.01}")
        path.write_text("\n".join(rows) + "\n")
        samples = list(read_replay_csv(path))
        assert len(samples) == 5
        assert samples[2].theta_df == pytest.approx(2.0 - 1.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,ft\n0,1\n")
        with pytest.raises(SignalQualityError):
            list(read_replay_csv(path))
