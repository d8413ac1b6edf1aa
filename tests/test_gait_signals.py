import dataclasses
import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import ReferenceDetector
from shankexo.cli import main
from shankexo.gait_signals import (REPLAY_HEADER, STANCE_CAPACITY,
                                   DetectorConfig, EventDetector, GaitEvent,
                                   GaitEventKind, GaitPhase, KinematicSample,
                                   SignalLossError, SignalQualityError,
                                   WindowAssembler, read_replay_csv)
from shankexo.plant import GaitWorld, PlantConfig, build_template


def make_stream(theta_ft, theta_ft_rate=None, dt_ms=10.0):
    """KinematicSamples from a foot-pitch trace (other channels zeroed)."""
    n = len(theta_ft)
    if theta_ft_rate is None:
        theta_ft_rate = np.gradient(theta_ft, dt_ms / 1000.0)
    return [KinematicSample(i * dt_ms, float(theta_ft[i]), 0.0,
                            -float(theta_ft[i]), float(theta_ft_rate[i]),
                            0.0, -float(theta_ft_rate[i]))
            for i in range(n)]


def replay(tmp_path, rows):
    """The samples `read_replay_csv` reads from a stream of these rows."""
    path = tmp_path / "stream.csv"
    path.write_text("\n".join([",".join(REPLAY_HEADER)]
                              + [",".join(map(repr, r)) for r in rows]) + "\n")
    return list(read_replay_csv(path))


class TestDeriveDf:
    """The replay reader derives the DF channel as shank minus foot."""

    def df(self, tmp_path, sk, ft, skr, ftr):
        (s,) = replay(tmp_path, [(0.0, ft, sk, ftr, skr)])
        return s.theta_df, s.theta_df_rate

    def test_equal_segments(self, tmp_path):
        assert self.df(tmp_path, 10.0, 10.0, 0.0, 0.0) == (0.0, 0.0)

    def test_direct_subtraction(self, tmp_path):
        assert self.df(tmp_path, 8.0, -12.0, 50.0, -30.0) == (20.0, 80.0)

    def test_upright_stand(self, tmp_path):
        assert self.df(tmp_path, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        with pytest.raises(SignalQualityError):
            self.df(tmp_path, bad, 0.0, 0.0, 0.0)

    def test_exact_subtraction_random(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [(10.0 * i, *rng.uniform(-90, 90, 4).tolist()) for i in range(200)]
        for (_, ft, sk, ftr, skr), s in zip(rows, replay(tmp_path, rows)):
            assert s.theta_df == sk - ft
            assert s.theta_df_rate == skr - ftr


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


@functools.lru_cache(maxsize=None)
def gait_frames(activity):
    """Foot pitch (deg) and pitch rate (deg/s) of 6 s of simulated gait,
    100 Hz."""
    frames = GaitWorld(build_template(activity), PlantConfig()).advance_block(
        0.01, 600).frames
    return frames[:, 0], frames[:, 3]


# A stretch of simulated gait with drawn sensor noise, which moves the
# extrema a sample or two from stride to stride, rounded or not (to whole
# degrees and tens of deg/s, so extrema repeat). A few drawn samples are
# made NaN or infinite, in a channel or in time, or moved in time (a step
# of 0 or 1 ms lands in the refractory window). The refractory time and the foot-off gate are drawn
# too: a gate of 1.0 stance opens at the previous foot-off extremum, one of
# 1.5 after most of the stance.
@st.composite
def detector_streams(draw):
    ft, rate = gait_frames(draw(st.sampled_from(["lw", "lr", "ra", "rd"])))
    start, n = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    t = (10.0 * np.arange(start, start + n)).tolist()
    noise = draw(st.sampled_from([0.0, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ft = (ft[start:start + n] + rng.normal(0.0, noise, n)).tolist()
    rate = (rate[start:start + n] + rng.normal(0.0, 20.0 * noise, n)).tolist()
    if draw(st.booleans()):
        ft = [float(round(v)) for v in ft]
        rate = [float(round(v, -1)) for v in rate]
    columns = (t, ft, rate)
    for i, col, v in draw(st.lists(st.tuples(
            st.integers(0, max(n - 1, 0)), st.integers(0, 2),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0,
                             250.0])), max_size=6)):
        if i >= n:
            continue
        if col == 0 and i:      # a time step of v from the sample before
            v += t[i - 1]
        columns[col][i] = v
    config = DetectorConfig(
        refractory_ms=draw(st.sampled_from([200.0, 0.0, 50.0])),
        fo_gate_fraction=draw(st.sampled_from([0.5, 0.0, 0.9, 1.0, 1.5])))
    return config, [KinematicSample(ts, f, 0.0, 0.0, r, 0.0, 0.0)
                    for ts, f, r in zip(t, ft, rate)]


def detector_state(det, event):
    """What the detector hands out and leaves: the event and its state."""
    return ((event.kind, event.t_ms.hex(), event.gc_index) if event else None,
            det.mode, det.fc_t_ms.hex(), det.fo_arm_threshold.hex())


@settings(max_examples=200, deadline=None)
@given(stream=detector_streams())
def test_detector_equals_the_per_sample_gate_reference(stream):
    config, samples = stream
    det, ref = EventDetector(config), ReferenceDetector(config)
    for sample in samples:
        assert (detector_state(det, det.update(sample))
                == detector_state(ref, ref.update(sample)))


def detected(samples):
    det = EventDetector()
    return [ev for ev in map(det.update, samples) if ev is not None]


def lw_probe():
    """12 s of lw walking at seed 1, every 10th tick: 21 events."""
    block = GaitWorld(build_template("lw"), PlantConfig(),
                      seed=1).advance_block(0.001, 13000)
    walking = np.flatnonzero(block.walking)[::10]
    return [KinematicSample(t, *f) for t, f in zip(
        block.t_sample[walking].tolist(), block.frames[walking].tolist())]


@pytest.mark.parametrize("channel, value", [("theta_ft", math.nan),
                                            ("theta_ft_rate", -math.inf)])
def test_a_non_finite_sample_is_skipped(channel, value):
    # A NaN foot pitch at the first swing sample used to become the running
    # maximum (0 events), and a -inf rate in a gated stance the foot-off
    # extremum, which set fo_arm_threshold to -inf (7 events).
    samples = lw_probe()
    want = detected(samples)
    assert len(want) == 21
    if channel == "theta_ft":
        at = 0
    else:   # the first sample past the foot-off gate of the third stance
        _, _, fc1, fo1, fc2 = want[:5]
        gate = fc2.t_ms + DetectorConfig().fo_gate_fraction * (fo1.t_ms
                                                              - fc1.t_ms)
        at = next(i for i, s in enumerate(samples) if s.t_ms >= gate)
    samples[at] = samples[at]._replace(**{channel: value})
    assert detected(samples) == want


@pytest.mark.parametrize("t_ms", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 50])
def test_a_sample_at_a_non_finite_time_is_skipped(t_ms, at):
    # The probe gives the events of the stream without that sample. An
    # infinite time at sample 50 used to set the refractory end to inf (3
    # events), and a NaN one passed the refractory check and became the
    # foot-contact extremum's time (22 events).
    samples = lw_probe()
    want = detected(samples[:at] + samples[at + 1:])
    samples[at] = samples[at]._replace(t_ms=t_ms)
    assert detected(samples) == want


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            done.theta_sk_buf = []

    @pytest.mark.parametrize("fo_lag", [1, 3])
    @pytest.mark.parametrize("fc_lag", [1, 3, 10])
    @pytest.mark.parametrize("n_stance", [100, 298, 299, 300, 310, 400])
    def test_window_ends_at_the_foot_off_extremum(self, caplog, n_stance,
                                                  fc_lag, fo_lag):
        # Two strides, each 20 swing samples, a foot contact at the next
        # sample confirmed fc_lag samples later, and a foot-off at the
        # stance's n_stance-th sample confirmed fo_lag samples after it;
        # theta_sk is the sample index. The stance buffer holds the
        # n_stance - 1 + fo_lag samples before the foot-off confirmation:
        # up to 298 stance samples and a lag of 3 it is full, past that it
        # drops its oldest, and each window that lost samples warns once.
        length = 20 + n_stance + fo_lag
        starts = [20, 20 + length]
        events = {}
        for b in starts:
            events[b + fc_lag] = GaitEvent(GaitEventKind.FOOT_CONTACT,
                                           10.0 * b, 0)
            events[b + n_stance - 1 + fo_lag] = GaitEvent(
                GaitEventKind.FOOT_OFF, 10.0 * (b + n_stance - 1), 0)
        asm = WindowAssembler()
        caplog.set_level(logging.WARNING, logger="shankexo.gait_signals")
        windows = []
        for i in range(starts[-1] + length):
            sample = KinematicSample(10.0 * i, 0.0, float(i), 0.0, 0.0, 0.0,
                                     0.0)
            done = asm.process(sample, events.get(i))
            if done is not None:
                windows.append(done)
        dropped = max(0, n_stance - 1 + fo_lag - STANCE_CAPACITY)
        assert [w.theta_sk_buf for w in windows] == [
            [float(i) for i in range(b + dropped, b + n_stance)]
            for b in starts]
        assert len(caplog.records) == (2 if dropped else 0)
        if n_stance <= 298:
            assert not caplog.records


class TestStreamConditioning:
    def test_single_gap_extrapolated(self, tmp_path):
        out = replay(tmp_path, [(0.0, 0.0, 0.0, 0.0, 0.0),
                                (10.0, 1.0, 2.0, 0.0, 0.0),
                                (30.0, 3.0, 6.0, 0.0, 0.0)])
        assert len(out) == 4
        assert out[2].t_ms == 20.0
        assert out[2].theta_ft == pytest.approx(2.0)
        assert out[2].theta_sk == pytest.approx(4.0)

    def test_long_gap_rejected(self, tmp_path):
        with pytest.raises(SignalLossError):
            replay(tmp_path, [(0.0, 0.0, 0.0, 0.0, 0.0),
                              (50.0, 0.0, 0.0, 0.0, 0.0)])

    def test_non_increasing_time_rejected(self, tmp_path):
        with pytest.raises(SignalQualityError):
            replay(tmp_path, [(10.0, 0.0, 0.0, 0.0, 0.0),
                              (10.0, 0.0, 0.0, 0.0, 0.0)])


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

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SignalQualityError, match="header"):
            list(read_replay_csv(path))
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == (
            "shankexo: error: unexpected replay header: []\n")
