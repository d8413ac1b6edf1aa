import dataclasses
import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import ReferenceDetector
from shankexo import kernel
from shankexo.cli import main
from shankexo.gait_signals import (REPLAY_HEADER, STANCE_CAPACITY,
                                   DetectorConfig, EventDetector, GaitEvent,
                                   GaitEventKind, GaitPhase, KinematicSample,
                                   SignalLossError, SignalQualityError,
                                   WindowAssembler, read_replay_csv)
from shankexo.plant import GaitWorld, PlantConfig, RampSpec, build_template
from shankexo.profile import (INITIAL_MU, INITIAL_SIGMA1, INITIAL_SIGMA2,
                              INITIAL_THETA_FC, INITIAL_THETA_FO,
                              EstimationPath, GaussianParams,
                              ProfileEstimator)


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
    """Foot pitch (deg), pitch rate (deg/s), shank and DF angle (deg) of
    6 s of simulated gait, 100 Hz."""
    frames = GaitWorld(build_template(activity), PlantConfig()).advance_block(
        0.01, 600).frames
    return frames[:, 0], frames[:, 3], frames[:, 1], frames[:, 2]


# A stretch of simulated gait with drawn sensor noise, which moves the
# extrema a sample or two from stride to stride, rounded or not (to whole
# degrees and tens of deg/s, so extrema repeat), and its noiseless shank
# and DF angles. A few drawn samples are
# made NaN or infinite, in a channel or in time, or moved in time (a step
# of 0 or 1 ms lands in the refractory window). The refractory time and the foot-off gate are drawn
# too: a gate of 1.0 stance opens at the previous foot-off extremum, one of
# 1.5 after most of the stance.
@st.composite
def detector_streams(draw):
    ft, rate, sk, df = gait_frames(draw(st.sampled_from(["lw", "lr", "ra",
                                                         "rd"])))
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
    sk, df = sk[start:start + n].tolist(), df[start:start + n].tolist()
    return config, [KinematicSample(*s, 0.0, 0.0)
                    for s in zip(t, ft, sk, df, rate)]


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


def long_stances(n_stance, hold=0, peak_t_ms=None):
    """Two strides whose stance windows hold n_stance samples; theta_sk is
    the sample index. The foot pitch peaks at 10 deg, is held 0.5 deg
    below for `hold` samples, then drops 2 deg (the foot contact); the
    pitch rate stays 0 until it dips to -85 deg/s, which arms the foot-off
    seeker and caps its next threshold at -40 deg/s, at the stance's last
    sample (the foot-off). The first peak's time may be peak_t_ms."""
    rows = []

    def stride(hold):
        rows.extend((float(v), 0.0) for v in range(-10, 10))
        rows.extend([(10.0, 0.0)] + [(9.5, 0.0)] * hold + [(8.0, 0.0)])
        rows.extend([(0.0, 0.0)] * (n_stance - 3 - hold)
                    + [(0.0, -85.0), (0.0, 0.0)])
    stride(hold)
    stride(0)
    rows.extend([(-10.0, 0.0)] * 30)
    t = [10.0 * i for i in range(len(rows))]
    if peak_t_ms is not None:
        t[20] = peak_t_ms
    return DetectorConfig(), [
        KinematicSample(ts, ft, float(i), float(-i), rate, 0.0, 0.0)
        for i, (ts, (ft, rate)) in enumerate(zip(t, rows))]


class Warnings(logging.Handler):
    """The warnings shankexo logs while installed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def __enter__(self):
        logging.getLogger("shankexo").addHandler(self)
        return self.records

    def __exit__(self, *exc):
        logging.getLogger("shankexo").removeHandler(self)


def hexes(values):
    return [v.hex() for v in values]


def path_outputs(events, windows, estimator, state, warnings):
    return ([(e.kind, e.t_ms.hex(), e.gc_index) for e in events],
            [(hexes(w.theta_sk_buf), hexes(w.theta_df_buf)) for w in windows],
            repr(estimator.params), repr(estimator.landmarks), hexes(state),
            [r.getMessage() for r in warnings])


def per_sample_path(config, samples):
    """EventDetector, WindowAssembler and ProfileEstimator, sample by
    sample."""
    det, asm = EventDetector(config), WindowAssembler()
    est = ProfileEstimator(GaussianParams(105.0, INITIAL_MU, INITIAL_SIGMA1,
                                          INITIAL_SIGMA2, INITIAL_THETA_FC,
                                          INITIAL_THETA_FO))
    events, windows = [], []
    with Warnings() as warnings:
        for sample in samples:
            ev = det.update(sample)
            window = asm.process(sample, ev)
            if window is not None:
                windows.append(window)
                est.update_from_window(window)
            if ev is not None:
                events.append(ev)
    # The detector's state in the order of the kernel detector's vector
    # from its state on, None as NaN.
    state = [float(det.mode is GaitPhase.STANCE), det.fc_t_ms,
             det.fo_arm_threshold, float(det.gc_count), det._ext_t,
             det._refractory_until, float(det._armed),
             math.nan if det._ext_value is None else det._ext_value,
             math.nan if det._stance_dur is None else det._stance_dur,
             det._fo_gate]
    return path_outputs(events, windows, est, state, warnings)


def block_path(config, samples, cuts):
    """EstimationPath over the samples' columns cut into blocks at cuts,
    with config's fields in its detector's vector (the drawn fields leave
    the arming threshold's start as it is)."""
    path = EstimationPath(105.0)
    path.detector[:kernel.DETECTOR_STATE] = dataclasses.astuple(config)
    windows, update = [], path.estimator.update_from_window
    path.estimator.update_from_window = lambda w: (windows.append(w),
                                                   update(w))[1]
    cols = np.array(samples, dtype=float).reshape(-1, 7).T
    events = []
    with Warnings() as warnings:
        for a, b in zip([0, *cuts], [*cuts, len(samples)]):
            block, at = cols[:, a:b], 0
            while (hit := path.run(block, at, b - a)) is not None:
                at, ev = hit
                events.append(ev)
    state = path.detector[kernel.DETECTOR_STATE:].tolist()
    return path_outputs(events, windows, path.estimator, state, warnings)


@settings(max_examples=200, deadline=None)
@given(stream=detector_streams(),
       cuts=st.one_of(st.just("each"), st.just(()),
                      st.lists(st.integers(0, 300), max_size=8)))
@example(stream=long_stances(298), cuts=())
@example(stream=long_stances(299), cuts="each")
@example(stream=long_stances(300), cuts=(150, 500))
@example(stream=long_stances(301), cuts=())
@example(stream=long_stances(310), cuts=(333, 334))
@example(stream=long_stances(298, hold=118), cuts=())
@example(stream=long_stances(298, hold=119), cuts=(140,))
@example(stream=long_stances(298, hold=130, peak_t_ms=10200.0), cuts=())
@example(stream=long_stances(298, peak_t_ms=math.inf), cuts=(21,))
def test_block_path_equals_the_per_sample_path(stream, cuts):
    # The events, the stance windows the estimator was given, its params
    # and landmarks, the detector's state and the stance warnings.
    config, samples = stream
    n = len(samples)
    cuts = range(1, n) if cuts == "each" else sorted(min(c, n) for c in cuts)
    assert block_path(config, samples, cuts) == per_sample_path(config,
                                                                samples)


@pytest.mark.parametrize("n_stance", [298, 299, 300, 301, 310])
def test_long_stances_reach_the_stance_capacity(n_stance):
    # Each stance holds n_stance samples; past STANCE_CAPACITY it drops
    # its oldest and warns once.
    events, windows, *_, warned = per_sample_path(*long_stances(n_stance))
    assert len(events) == 4
    assert [len(sk) for sk, _ in windows] == [min(n_stance,
                                                  STANCE_CAPACITY)] * 2
    assert warned == [f"stance window exceeded {STANCE_CAPACITY} samples; "
                      "dropped the oldest"] * (2 * (n_stance > STANCE_CAPACITY))


@pytest.mark.parametrize("hold, first", [(118, 20), (119, 21), (130, 32)])
def test_a_stance_backfills_from_its_ring(hold, first):
    # The ring holds the 120 samples up to the foot contact's confirmation,
    # `hold` + 1 samples after its extremum (sample 20); the first window
    # starts at the ring's oldest sample that is not before the extremum.
    events, windows, *_, warned = per_sample_path(*long_stances(298, hold))
    assert len(events) == 4 and not warned
    assert float.fromhex(windows[0][0][0]) == first
    assert [len(sk) for sk, _ in windows] == [298 - first + 20, 298]


def test_a_stance_with_no_backfill_warns():
    # The extremum's time is 10 s past the samples after it, and the ring
    # no longer holds it at confirmation: the stance backfills no sample,
    # starts after the confirmation, and warns that it backfilled none.
    events, windows, *_, warned = per_sample_path(*long_stances(
        298, hold=130, peak_t_ms=10200.0))
    assert len(events) == 4 and warned == [
        "foot contact at t=10200.0 ms backfilled no sample from the ring; "
        "its stance window starts after the confirmation"]
    assert float.fromhex(windows[0][0][0]) == 20 + 132


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


def per_sample_replay(path):
    """The stdout and stderr of `shankexo replay path` by the per-sample
    classes: a line per foot-off, then the stride count, or the error
    line."""
    det, asm = EventDetector(), WindowAssembler()
    est = ProfileEstimator(GaussianParams(105.0, INITIAL_MU, INITIAL_SIGMA1,
                                          INITIAL_SIGMA2, INITIAL_THETA_FC,
                                          INITIAL_THETA_FO))
    out, err = [], ""
    try:
        for sample in read_replay_csv(path):
            window = asm.process(sample, det.update(sample))
            if window is not None:
                p = est.update_from_window(window)
                out.append(f"stride {len(out)}: mu={p.mu:.3f} "
                           f"sigma1={p.sigma1:.3f} sigma2={p.sigma2:.3f} "
                           f"fc={p.theta_fc:.3f} fo={p.theta_fo:.3f}")
        if (det.mode is GaitPhase.STANCE
                and sample.t_ms - det.fc_t_ms > 3000.0):
            err = (f"shankexo: error: no foot-off within 3000 ms of the foot "
                   f"contact at t={det.fc_t_ms} ms: the foot-pitch rate "
                   f"never fell below the arming threshold of "
                   f"{det.fo_arm_threshold:g} deg/s\n")
        else:
            out.append(f"{len(out)} strides estimated")
    except SignalQualityError as exc:
        err = f"shankexo: error: {exc}\n"
    return "".join(line + "\n" for line in out), err


@pytest.mark.parametrize("stream", ["lw", "slow", "nan_t"])
def test_replay_prints_what_the_per_sample_pipeline_prints(tmp_path, capsys,
                                                          stream):
    # 60 s of lw gait at seed 1, every 10th world tick (6000 samples, so
    # the reader may fork); the same with a NaN time at sample 3000, whose
    # error comes after the strides before it; and a half-speed lw stream
    # whose first stance never ends.
    if stream == "slow":
        world = GaitWorld(build_template("lw"), PlantConfig(), seed=3,
                          ramp=RampSpec(start_stride=0, hold_strides=100,
                                        low_scale=0.5))
        frames = world.advance_block(0.01, 3264).frames
        t = 10.0 * np.arange(1, len(frames) + 1)
    else:
        block = GaitWorld(build_template("lw"), PlantConfig(),
                          seed=1).advance_block(0.001, 60000)
        frames, t = block.frames[::10], block.t_sample[::10].copy()
        if stream == "nan_t":
            t[3000] = math.nan
    ft, sk, _, ft_rate, sk_rate, _ = frames.T
    path = tmp_path / "stream.csv"
    np.savetxt(path, np.column_stack((t, ft, sk, ft_rate, sk_rate)),
               fmt="%.17g", delimiter=",", header=",".join(REPLAY_HEADER),
               comments="")
    code = main(["replay", str(path)])
    out, err = capsys.readouterr()
    assert (out, err) == per_sample_replay(path)
    assert code == (2 if err else 0)
    strides = out.count("stride ")
    assert {"lw": strides >= 50, "nan_t": 20 <= strides < 30 and
            "replay line 3002: non-finite timestamp" in err,
            "slow": (out, err.count("\n")) == ("", 1)}[stream]
