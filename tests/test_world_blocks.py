"""The block-advanced world against its one-tick case and the scalar curves.

Block columns must not depend on the block size, must equal the scalar
reference curves (gen_frame, biological_torque) bit for bit, and the cable's
block-drawn force noise must equal scalar draws. A tick's phase, scale and
stride, which the block does not carry, come from a twin world advanced one
tick at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from shankexo.gait_signals import KinematicSample
from shankexo.plant import (BLOCK_TICKS, GaitWorld, PerturbationKind,
                            PerturbationSpec, PlantConfig, PlantReading,
                            PlantState, RampSpec, biological_torque,
                            build_template, gen_frame, step_plant)

TEMPLATES = {a: build_template(a) for a in ("lw", "lr", "ra", "rd")}
N_TICKS = 2500      # 0.05 s standing, then strides 0-2 at every activity
STANDING_S = 0.05
BLOCK_SIZES = (1, 7, 10, 997, BLOCK_TICKS)


def bits(values) -> np.ndarray:
    """Float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def make_world(activity: str, scenario: str, seed: int) -> GaitWorld:
    rng = np.random.default_rng(seed)
    perturbations, ramp = [], None
    if scenario == "perturb":
        kinds = rng.permutation([PerturbationKind.FORWARD,
                                 PerturbationKind.BACKWARD])
        perturbations = [
            PerturbationSpec(kind=k, onset_pct_gc=float(rng.uniform(0.0, 0.6)),
                             affected_cycles=frozenset({stride}))
            for stride, k in zip((1, 2), kinds)]
    elif scenario == "ramp":
        ramp = RampSpec(start_stride=1, hold_strides=1,
                        low_scale=float(rng.uniform(0.4, 0.9)))
    return GaitWorld(TEMPLATES[activity], PlantConfig(), seed=seed,
                     standing_s=STANDING_S, perturbations=perturbations,
                     ramp=ramp)


def run_blocks(world: GaitWorld, size: int) -> dict:
    cols: dict[str, list] = {}
    done = 0
    while done < N_TICKS:
        block = world.advance_block(0.001, min(size, N_TICKS - done))
        for name, col in block._asdict().items():
            cols.setdefault(name, []).extend(col)
        done += len(block.kin)
    return cols


def run_ticks(world: GaitWorld) -> dict:
    """Each tick's phase, scale and stride from one-tick advances."""
    cols = {"phase": [], "scale": [], "stride": []}
    for _ in range(N_TICKS):
        world.advance(0.001)
        cols["phase"].append(world.phase)
        cols["scale"].append(world.scale)
        cols["stride"].append(world.state.stride_index)
    return cols


world_cases = dict(activity=hs.sampled_from(sorted(TEMPLATES)),
                   scenario=hs.sampled_from(["steady", "perturb", "ramp"]),
                   seed=hs.integers(0, 2**16))


@settings(max_examples=8, deadline=None)
@given(size=hs.sampled_from(BLOCK_SIZES[:-1]), **world_cases)
def test_columns_do_not_depend_on_block_size(activity, scenario, seed, size):
    ref = run_blocks(make_world(activity, scenario, seed), BLOCK_TICKS)
    got = run_blocks(make_world(activity, scenario, seed), size)
    assert got.keys() == ref.keys()
    for name in ref:
        if name == "walking":
            assert got[name] == ref[name]
        else:
            np.testing.assert_array_equal(bits(got[name]), bits(ref[name]),
                                          err_msg=name)


def test_one_tick_advance_is_the_block_of_one():
    a = make_world("lw", "perturb", 3)
    b = make_world("lw", "perturb", 3)
    ref = run_blocks(b, BLOCK_TICKS)
    kins = [a.advance(0.001) for _ in range(N_TICKS)]
    np.testing.assert_array_equal(bits(kins), bits(ref["kin"]))
    assert (a.t_s, a.phase, a.scale, a.state.stride_index,
            a.state.migration) == (b.t_s, b.phase, b.scale,
                                   b.state.stride_index, b.state.migration)


@settings(max_examples=8, deadline=None)
@given(**world_cases)
def test_columns_equal_the_scalar_curves(activity, scenario, seed):
    tmpl = TEMPLATES[activity]
    cols = run_blocks(make_world(activity, scenario, seed), BLOCK_TICKS)
    twin = run_ticks(make_world(activity, scenario, seed))
    np.testing.assert_array_equal(bits(cols["scale"]), bits(twin["scale"]))
    assert max(twin["stride"]) >= 2
    if scenario == "perturb":
        assert set(cols["perturb_kind"]) == {0, 1, 2}
    for kin, walking, phase, scale, kind, bio in zip(
            cols["kin"], cols["walking"], twin["phase"], twin["scale"],
            cols["perturb_kind"], cols["bio"]):
        if not walking:
            assert kin[1:] == (0.0,) * 6 and bio == 0.0
            continue
        ref = gen_frame(tmpl, phase, scale, kin.t_ms)
        if kind == 2:   # backward window: the shank sway shifts sk and df
            ref = ref[:2] + kin[2:4] + ref[4:5] + kin[5:]
        np.testing.assert_array_equal(bits(kin), bits(ref))
        assert bits(bio) == bits(biological_torque(tmpl, phase))


def test_stride_and_migration_follow_the_phase_wrap():
    world = make_world("lr", "steady", 0)
    cols = run_blocks(world, 997)
    twin = run_ticks(make_world("lr", "steady", 0))
    stride = np.array(twin["stride"])
    wraps = np.flatnonzero(np.diff(stride)) + 1
    assert len(wraps) >= 2
    for i in wraps:
        assert twin["phase"][i] < twin["phase"][i - 1]
    mig = np.array(cols["migration"])
    assert np.all(np.diff(mig)[np.diff(stride) == 0] == 0.0)
    assert world.state.migration == mig[-1]


@settings(max_examples=5, deadline=None)
@given(seed=hs.integers(0, 2**16))
def test_block_noise_equals_scalar_draws(seed):
    cfg = PlantConfig()
    world = GaitWorld(TEMPLATES["lw"], cfg, seed=seed)
    world.state.l_cable = cfg.baseline_c - 2.0     # taut: noise not clipped
    twin = PlantState(l_cable=world.state.l_cable)
    rng = np.random.default_rng(seed)
    still = KinematicSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for _ in range(2 * BLOCK_TICKS + 3):
        got = world.step_cable(0.0, still, 0.001)
        want = step_plant(twin, 0.0, still, world.truth_tendon, 0.001, cfg,
                          rng.standard_normal())
        assert got == want
    assert got.f_meas != got.f_truth


@pytest.mark.parametrize("record", [
    KinematicSample(1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0),
    PlantReading(1.0, 1.0, 300.0, 0.0, 0.0),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
