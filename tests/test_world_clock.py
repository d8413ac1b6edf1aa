"""The world block's clock against the per-tick clock recurrence.

`GaitWorld.advance_block` steps the clock one tick at a time in the C
kernel (`shankexo_advance` in `loop.c`), which transcribes
`scalar_reference.reference_clock`, the per-tick recurrence. Every column
of the blocks must equal it bit for bit, for any block sizes: the time
rows, walking, scale, migration, perturbation kind, the frames and torque
built from the phase and scale with the sway added, and the zero-force
length; and the world's time, phase and stride at each block's end.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from shankexo.plant import (BLOCK_TICKS, SWAY_WINDOW_S, GaitWorld,
                            PerturbationKind, PerturbationSpec, PlantConfig,
                            RampSpec, Row, WorldBlock, build_template)
from scalar_reference import reference_clock, reference_frames

TEMPLATES = {a: build_template(a) for a in ("lw", "lr", "ra", "rd")}
STANDING_S = 0.05
STRIDES = 3          # strides walked by the ticks a case runs


def bits(values) -> np.ndarray:
    """Float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def make_world(activity: str, scenario: str, seed: int,
               standing_s: float = STANDING_S, onsets=None,
               low_scale=None) -> GaitWorld:
    """A world whose special ticks fall in its first STRIDES strides:
    perturbations in strides 1 and 2, a ramp down in stride 1 and back up
    in stride 2, or both. Both draw a ramp of 1 to 1.6 s, so the ramp scale
    still changes in most perturbation windows."""
    rng = np.random.default_rng(seed)
    perturbations, ramp = [], None
    if scenario == "both" and low_scale is None:
        low_scale = float(rng.uniform(0.4, 0.62))
    if scenario in ("perturb", "both"):
        kinds = rng.permutation([PerturbationKind.FORWARD,
                                 PerturbationKind.BACKWARD])
        if onsets is None:
            onsets = rng.uniform(0.0, 0.9, 2).tolist()
        perturbations = [
            PerturbationSpec(kind=k, onset_pct_gc=onset,
                             affected_cycles=frozenset({stride}))
            for stride, k, onset in zip((1, 2), kinds, onsets)]
    if scenario in ("ramp", "both"):
        if low_scale is None:
            low_scale = float(rng.uniform(0.4, 0.95))
        ramp = RampSpec(start_stride=1, hold_strides=1, low_scale=low_scale)
    return GaitWorld(TEMPLATES[activity], PlantConfig(), seed=seed,
                     standing_s=standing_s, perturbations=perturbations,
                     ramp=ramp)


def ticks_for(world: GaitWorld, dt: float) -> int:
    return int((world.standing_s + (STRIDES + 0.5) * world.tmpl.period
                * 1.5) / dt)


def check_blocks(make, dt: float, sizes: list[int]) -> dict:
    """Run make()'s world in blocks of sizes, then of BLOCK_TICKS until
    the reference's ticks are done, and compare every column with the
    reference; returns the reference."""
    n = ticks_for(make(), dt)
    ref = reference_clock(make(), dt, n)
    world = make()
    r, c = world.truth_tendon.lever_arm_r, world.truth_tendon.baseline_c
    blocks = []
    done = k = 0
    while done < n:
        size = min(sizes[k] if k < len(sizes) else BLOCK_TICKS, n - done)
        k += 1
        blocks.append(world.advance_block(dt, size))
        done += size
        assert world.state.stride_index == ref["stride"][done - 1]
        assert bits(world.phase) == bits(ref["phase"][done - 1])
        assert bits(world.t_s) == bits(ref["t_s"][done - 1])
    got = {name: np.concatenate([getattr(b, name) for b in blocks], axis=-1)
           for name in WorldBlock._fields}
    assert got["walking"].tolist() == ref["walking"]
    assert got["perturb_kind"].tolist() == ref["perturb_kind"]
    for name in ("scale", "migration"):
        np.testing.assert_array_equal(bits(got[name]), bits(ref[name]),
                                      err_msg=name)
    ms = [t * 1000.0 for t in ref["t_s"]]
    np.testing.assert_array_equal(bits(got["t_ms"]), bits(np.rint(ms)))
    np.testing.assert_array_equal(bits(got["cols"][Row.t_ms]),
                                  bits([round(x, 6) for x in ms]))
    want_frames, want_bio = reference_frames(make().tmpl, ref)
    np.testing.assert_array_equal(
        bits(got["cols"][Row.theta_ft:Row.free_length].T), bits(want_frames))
    np.testing.assert_array_equal(bits(got["bio"]), bits(want_bio))
    np.testing.assert_array_equal(
        bits(got["cols"][Row.free_length]),
        bits([r * math.radians(df) + c - mig
              for df, mig in zip(want_frames[:, 2].tolist(),
                                 ref["migration"])]))
    assert ref["stride"][-1] >= STRIDES
    return ref


def drifted(make, t_s: float):
    """make, with its world's clock started at t_s."""
    def make_drifted():
        world = make()
        world.t_s = t_s
        return world
    return make_drifted


# Clock starts off the whole ms: (k + 0.5) ns puts ticks on exact ties of
# round(t * 1000.0, 6), which the kernel leaves to Python's round.
DRIFTS = hs.one_of(hs.just(0.0),
                   hs.builds(lambda k: (k + 0.5) / 1e9, hs.integers(0, 2000)),
                   hs.floats(0.0, 1e-6))


@settings(max_examples=25, deadline=None)
@given(activity=hs.sampled_from(sorted(TEMPLATES)),
       scenario=hs.sampled_from(["steady", "perturb", "ramp", "both"]),
       seed=hs.integers(0, 2**16), dt=hs.sampled_from([0.001, 0.0023]),
       sizes=hs.lists(hs.integers(1, 1500), min_size=1, max_size=6),
       drift=DRIFTS)
def test_clock_equals_the_per_tick_recurrence(activity, scenario, seed, dt,
                                              sizes, drift):
    check_blocks(drifted(lambda: make_world(activity, scenario, seed), drift),
                 dt, sizes)


@settings(max_examples=10, deadline=None)
@given(activity=hs.sampled_from(sorted(TEMPLATES)),
       scenario=hs.sampled_from(["perturb", "both"]),
       seed=hs.integers(0, 2**16), data=hs.data())
def test_a_window_spans_a_block_boundary(activity, scenario, seed, data):
    # A block ends inside a perturbation window and the next one carries
    # the window on: its spec, onset time and sway.
    make = lambda: make_world(activity, scenario, seed)
    ref = reference_clock(make(), 0.001, ticks_for(make(), 0.001))
    kind = np.array(ref["perturb_kind"])
    inside = np.flatnonzero((kind[1:] != 0) & (kind[:-1] != 0)) + 1
    cut = int(data.draw(hs.sampled_from(inside.tolist())))
    check_blocks(make, 0.001, [cut, data.draw(hs.integers(1, 1500))])


def test_drifted_clock_rounds_its_ties_in_python():
    # At a drift of 0.5 ns, some lw ticks fall on exact ties of the sample
    # clock, where rint(p) / 1e6 would differ from round.
    make = drifted(lambda: make_world("lw", "steady", 0), 0.5e-9)
    ref = check_blocks(make, 0.001, [])
    ms = [t * 1000.0 for t in ref["t_s"]]
    assert any(round(x, 6) != np.rint(x * 1e6) / 1e6 for x in ms)


@pytest.mark.parametrize("activity", sorted(TEMPLATES))
def test_onset_at_zero_falls_on_the_wrap_tick(activity):
    ref = check_blocks(
        lambda: make_world(activity, "perturb", 5, onsets=[0.0, 0.0]),
        0.001, [])
    stride = np.array(ref["stride"])
    wraps = np.flatnonzero(np.diff(stride)) + 1
    kind = np.array(ref["perturb_kind"])
    for wrap in wraps[:2]:
        assert kind[wrap] != 0 and kind[wrap - 1] == 0


@pytest.mark.parametrize("side", [0, 1],
                         ids=["ends-on-wrap", "starts-on-wrap"])
def test_block_boundary_on_a_wrap_tick(side):
    make = lambda: make_world("lr", "steady", 0)
    ref = reference_clock(make(), 0.001, ticks_for(make(), 0.001))
    wraps = np.flatnonzero(np.diff(ref["stride"])) + 1
    first, second = int(wraps[0]), int(wraps[1])
    # blocks ending on the wrap tick, or starting on it
    sizes = [first + 1 - side, second - first]
    check_blocks(make, 0.001, sizes)


@pytest.mark.parametrize("standing_s", [0.0505, 0.1234, 0.999])
def test_walking_starts_mid_block(standing_s):
    check_blocks(lambda: make_world("ra", "perturb", 2,
                                    standing_s=standing_s), 0.001,
                 [100, 997, 7, 1000, 997])


def test_ramp_reaches_low_scale_mid_stride():
    make = lambda: make_world("lw", "ramp", 1, low_scale=0.8)
    ref = check_blocks(make, 0.001, [])
    scale = np.array(ref["scale"])
    stride = np.array(ref["stride"])
    low = np.flatnonzero(scale == 0.8)
    # the ramp settles inside stride 1, and plain ticks follow in it
    assert stride[low[0]] == 1 and stride[low[0] + 100] == 1


def test_perturbations_in_consecutive_strides():
    # A late onset in stride 1 keeps its window open across the wrap, so
    # stride 2's early onset waits until that window has closed.
    ref = check_blocks(lambda: make_world("rd", "perturb", 3,
                                          onsets=[0.95, 0.01]),
                       0.001, [333])
    kind = np.array(ref["perturb_kind"])
    stride = np.array(ref["stride"])
    opened = np.flatnonzero((np.diff(kind) != 0) & (kind[1:] != 0)) + 1
    assert [int(stride[i]) for i in opened] == [1, 2]
    assert kind[opened[1] - 1] != 0     # opened on the tick the first closed


def test_held_ramp_scale_steps_the_phase_in_the_clock_body_order():
    # A plain stretch under a held ramp scale steps the phase by
    # dt * scale / period, the clock body's order. At lw and 0.9 the other
    # order, dt / period * scale, differs in the last bit, and from phase
    # 0.0 the first tick's phase is the step itself.
    tmpl = TEMPLATES["lw"]
    assert 0.001 * 0.9 / tmpl.period != 0.001 / tmpl.period * 0.9

    def make():
        world = GaitWorld(tmpl, PlantConfig(), standing_s=0.0,
                          ramp=RampSpec(start_stride=0, low_scale=0.9))
        world.phase = 0.0
        world.scale = world._ramp_scale = 0.9
        return world

    ref = check_blocks(make, 0.001, [1, 500])
    assert set(ref["scale"]) == {0.9}
    assert ref["phase"][0] == 0.001 * 0.9 / tmpl.period


def test_a_dyadic_clock_meets_each_threshold_exactly():
    # With a dyadic period, dt, ramp and perturbations every sum of the
    # clock is exact, so the phase lands on 1.0 and on the onset phase, a
    # window's time on its close and on the sway's end, and the ramp scale
    # on its target: each comparison of the clock at its tie, where its
    # strict and non-strict forms part.
    tmpl = replace(TEMPLATES["lw"], stance_ratio=0.5, period=1.0)
    specs = [PerturbationSpec(kind, onset_pct_gc=0.75, magnitude=0.5,
                              ramp_time=2**-4,
                              affected_cycles=frozenset({stride}))
             for stride, kind in ((1, PerturbationKind.FORWARD),
                                  (2, PerturbationKind.BACKWARD))]
    ramp = RampSpec(start_stride=3, hold_strides=1, rate_per_s=2**-1)
    ref = check_blocks(lambda: GaitWorld(tmpl, PlantConfig(),
                                         standing_s=2**-3,
                                         perturbations=specs, ramp=ramp),
                       2**-10, [700, 129, 1000])
    phase, kind = np.array(ref["phase"]), np.array(ref["perturb_kind"])
    first_wrap = np.flatnonzero(np.diff(ref["stride"]))[0] + 1
    assert phase[first_wrap] == 0.0                 # from exactly 1.0
    assert phase[np.flatnonzero(kind)[0]] == 0.75   # onset at its phase
    # each window holds the tick at which it has run exactly its span
    assert np.count_nonzero(kind == 1) == 2**-3 / 2**-10 + 1
    assert np.count_nonzero(kind == 2) == SWAY_WINDOW_S / 2**-10 + 1
    assert 0.5 in ref["scale"]
