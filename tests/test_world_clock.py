"""The world block's clock against the per-tick clock recurrence.

`GaitWorld._clock` covers each stretch of walking ticks up to a wrap,
onset or window close with one accumulation of the ramp scale and one of
the phase, and runs scalar code once per such event.
`scalar_reference.reference_clock` is the per-tick recurrence it
replaced. Every column must equal it bit for bit, for any block sizes:
time, phase, scale, migration, perturbation kind, the sway rows, the
stride at each block's end, and the frames and torque built from them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from shankexo.plant import (BLOCK_TICKS, GaitWorld, PerturbationKind,
                            PerturbationSpec, PlantConfig, RampSpec, Row,
                            build_template)
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
    clocks, blocks = make(), make()
    cols: dict[str, list] = {}
    frames, bio, sway = [], [], []
    done = k = 0
    while done < n:
        size = min(sizes[k] if k < len(sizes) else BLOCK_TICKS, n - done)
        k += 1
        clock = clocks._clock(dt, size)
        block = blocks.advance_block(dt, size)
        for name in ("t_s", "walking", "phase", "scale", "migration",
                     "perturb_kind"):
            cols.setdefault(name, []).extend(getattr(clock, name).tolist())
        sway.extend((i + done, s, r) for i, s, r in zip(*clock.sway))
        frames.append(block.cols[Row.theta_ft:Row.free_length].T)
        bio.append(block.bio)
        for name in ("walking", "scale", "migration", "perturb_kind"):
            np.testing.assert_array_equal(getattr(block, name),
                                          getattr(clock, name), err_msg=name)
        done += size
        for world in (clocks, blocks):
            assert world.state.stride_index == ref["stride"][done - 1]
            assert bits(world.phase) == bits(ref["phase"][done - 1])
            assert bits(world.t_s) == bits(ref["t_s"][done - 1])
    assert cols["walking"] == ref["walking"]
    assert cols["perturb_kind"] == ref["perturb_kind"]
    for name in ("t_s", "phase", "scale", "migration"):
        np.testing.assert_array_equal(bits(cols[name]), bits(ref[name]),
                                      err_msg=name)
    assert [(i, *bits([s, r])) for i, s, r in sway] == [
        (i, *bits([s, r])) for i, s, r in ref["sway"]]
    want_frames, want_bio = reference_frames(make().tmpl, ref)
    np.testing.assert_array_equal(bits(np.concatenate(frames)),
                                  bits(want_frames))
    np.testing.assert_array_equal(bits(np.concatenate(bio)), bits(want_bio))
    assert ref["stride"][-1] >= STRIDES
    return ref


@settings(max_examples=25, deadline=None)
@given(activity=hs.sampled_from(sorted(TEMPLATES)),
       scenario=hs.sampled_from(["steady", "perturb", "ramp", "both"]),
       seed=hs.integers(0, 2**16), dt=hs.sampled_from([0.001, 0.0023]),
       sizes=hs.lists(hs.integers(1, 1500), min_size=1, max_size=6))
def test_clock_equals_the_per_tick_recurrence(activity, scenario, seed, dt,
                                              sizes):
    check_blocks(lambda: make_world(activity, scenario, seed), dt, sizes)


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
