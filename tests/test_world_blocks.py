"""The block-advanced world against its one-tick case and the scalar curves.

Block columns must not depend on the block size, must equal the scalar
reference curves (gen_frame, biological_torque, through
`scalar_reference.reference_frames`) bit for bit, and the cable's rows
must be the zero-force length at each tick's DF angle and migration and
the load-cell noise, drawn a block at a time, equal to scalar draws. A
tick's phase, scale and stride, which the block does not carry, come from
the per-tick clock recurrence (`scalar_reference.reference_clock`).

The kernel's curve entries (`shankexo_world`, `shankexo_stance`) equal the
scalar curves bit for bit at any phase, scale and template: at the knots
of each piece and one ulp either side, NaN and the infinities included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as hs

from shankexo import kernel
from shankexo.gait_signals import KinematicSample
from shankexo.plant import (BLOCK_TICKS, GaitWorld, PerturbationKind,
                            PerturbationSpec, PlantConfig, RampSpec, Row,
                            TemplateError, _stance_curves, _template_vector,
                            build_template, free_length)
from scalar_reference import (biological_torque, g, gen_frame,
                              reference_clock, reference_frames, stance_pose)

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
    """Each column of the world's blocks of size ticks, over N_TICKS;
    "cols" is the (9, N_TICKS) rows."""
    cols: dict[str, list] = {}
    done = 0
    while done < N_TICKS:
        block = world.advance_block(0.001, min(size, N_TICKS - done))
        for name, col in block._asdict().items():
            cols.setdefault(name, []).append(col)
        done += len(block.t_ms)
    return {name: np.concatenate(col, axis=-1) for name, col in cols.items()}


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
            np.testing.assert_array_equal(got[name], ref[name])
        else:
            np.testing.assert_array_equal(bits(got[name]), bits(ref[name]),
                                          err_msg=name)


def test_one_tick_advance_is_the_block_of_one():
    a = make_world("lw", "perturb", 3)
    b = make_world("lw", "perturb", 3)
    ref = run_blocks(b, BLOCK_TICKS)
    kins = [a.advance(0.001) for _ in range(N_TICKS)]
    np.testing.assert_array_equal(bits(kins),
                                  bits(ref["cols"][:Row.free_length].T))
    assert (a.t_s, a.phase, a.scale, a.state.stride_index,
            a.state.migration) == (b.t_s, b.phase, b.scale,
                                   b.state.stride_index, b.state.migration)


@settings(max_examples=8, deadline=None)
@given(**world_cases)
def test_columns_equal_the_scalar_curves(activity, scenario, seed):
    tmpl = TEMPLATES[activity]
    cols = run_blocks(make_world(activity, scenario, seed), BLOCK_TICKS)
    twin = reference_clock(make_world(activity, scenario, seed), 0.001,
                           N_TICKS)
    np.testing.assert_array_equal(bits(cols["scale"]), bits(twin["scale"]))
    assert max(twin["stride"]) >= 2
    if scenario == "perturb":
        assert set(cols["perturb_kind"]) == {0, 1, 2}
    # standing ticks are all zeros; walking ticks are gen_frame at the
    # tick's phase and scale, plus the sway in backward windows
    assert cols["walking"].tolist() == twin["walking"]
    frames, bio = reference_frames(tmpl, twin)
    np.testing.assert_array_equal(
        bits(cols["cols"][Row.theta_ft:Row.free_length].T), bits(frames))
    np.testing.assert_array_equal(bits(cols["bio"]), bits(bio))


def test_stride_and_migration_follow_the_phase_wrap():
    world = make_world("lr", "steady", 0)
    cols = run_blocks(world, 997)
    twin = reference_clock(make_world("lr", "steady", 0), 0.001, N_TICKS)
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
    rng = np.random.default_rng(seed)
    got = []
    for m in (BLOCK_TICKS, 3, BLOCK_TICKS, 1):
        got.extend(world.advance_block(0.001, m).cols[Row.noise].tolist())
    assert got == [cfg.force_noise_sd * rng.standard_normal()
                   for _ in range(len(got))]


def test_free_length_row_is_the_df_row_less_migration():
    world = make_world("lw", "perturb", 5)
    cols = run_blocks(world, 997)
    want = free_length(world.truth_tendon, cols["cols"][Row.theta_df],
                       cols["migration"])
    np.testing.assert_array_equal(bits(cols["cols"][Row.free_length]),
                                  bits(want))
    assert cols["migration"][-1] > 0.0


def test_noiseless_readings_draw_no_noise():
    world = GaitWorld(TEMPLATES["lw"], PlantConfig(force_noise_sd=0.0), seed=1)
    block = world.advance_block(0.001, 50)
    assert bits(block.cols[Row.noise]).tolist() == [0] * 50
    assert world.rng.standard_normal() == np.random.default_rng(
        1).standard_normal()


def neighbours(x: float) -> list[float]:
    """x and the floats one ulp below and above it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Phases outside [0, 1) reduce as Python's % does, -1.0 to +0.0.
SPECIAL = [0.0, -0.0, math.nextafter(1.0, 0.0), 1.0, math.nan, -math.nan,
           math.inf, -math.inf, -1.0, -0.25, 1.5]


@hs.composite
def templates(draw):
    """A template from build_template's override space, or, with tied
    knots, one that the scalar `u <= knot` chain reads as its first
    piece. A dyadic template's knot phases map exactly onto its knots:
    with a stance ratio of 0.5, a period of 1 s and a swing ease of a
    whole number of 2**-53 s, u = p / 0.5 and w = (p - 0.5) / 0.5 are
    exact, so the pieces meet at the drawn phases themselves."""
    activity = draw(hs.sampled_from(sorted(TEMPLATES)))
    overrides = draw(hs.fixed_dictionaries({}, optional={
        "period": hs.floats(0.9, 1.3),
        "torque_sharpness": hs.floats(0.5, 4.0),
        "swing_ease_s": hs.floats(0.0005, 0.004),
        "swing_hold": hs.floats(0.0, 0.5),
        "ft_peak": hs.floats(8.5, 20.0),
        "g_fall_start": hs.floats(0.61, 0.66),
        "g_dip": hs.floats(1.0, 2.0),
    }))
    try:
        tmpl = build_template(activity, **overrides)
    except TemplateError:
        reject()
    if draw(hs.booleans()):
        tmpl = replace(tmpl, g_fall_start=tmpl.g_rise_end,
                       u_plunge=tmpl.g_fall_end)
    if draw(hs.booleans()):
        tmpl = replace(tmpl, stance_ratio=0.5, period=1.0, swing_hold=0.25,
                       swing_ease_s=round(0.0015 * 2**53) / 2**53)
    return tmpl


def knot_phases(tmpl) -> list[float]:
    """0, each G knot times rho, rho, the swing knots w_e and w_h mapped
    to phase, each with its neighbours, 1 - ulp, NaN and the infinities."""
    rho = tmpl.stance_ratio
    w_e = tmpl.swing_ease_s / (tmpl.period * (1.0 - rho))
    knots = [tmpl.g_rise_end * rho, tmpl.g_fall_start * rho,
             tmpl.g_fall_end * rho, tmpl.u_plunge * rho, rho,
             rho + w_e * (1.0 - rho),
             rho + (w_e + tmpl.swing_hold) * (1.0 - rho)]
    return SPECIAL + [p for k in knots for p in neighbours(k)]


@settings(max_examples=8, deadline=None)
@given(tmpl=templates(), data=hs.data())
def test_world_entry_equals_the_scalar_curves(tmpl, data):
    phases = knot_phases(tmpl) + data.draw(hs.lists(
        hs.floats(0.0, 1.0, exclude_max=True), max_size=40))
    n = len(phases)
    scales = data.draw(hs.lists(hs.floats(0.3, 2.0), min_size=n, max_size=n))
    start = data.draw(hs.integers(0, 3))
    phase, scale = np.array(phases), np.array(scales)
    cols, bio = np.zeros((len(Row), n)), np.zeros(n)
    vector = _template_vector(tmpl)
    kernel.world(vector.ctypes.data, start, n, phase.ctypes.data,
                 scale.ctypes.data, cols.ctypes.data, n, bio.ctypes.data)
    want = [gen_frame(tmpl, p, s)[Row.theta_ft:] for p, s in zip(phases,
                                                                   scales)]
    np.testing.assert_array_equal(
        bits(cols[Row.theta_ft:Row.free_length, start:].T),
        bits(want[start:]))
    np.testing.assert_array_equal(
        bits(bio[start:]),
        bits([biological_torque(tmpl, p) for p in phases[start:]]))


@settings(max_examples=8, deadline=None)
@given(tmpl=templates(), extra=hs.lists(hs.floats(0.0, 1.0), max_size=40))
def test_stance_entry_equals_the_scalar_curves(tmpl, extra):
    knots = [tmpl.g_rise_end, tmpl.g_fall_start, tmpl.g_fall_end,
             tmpl.u_plunge]
    # math.sin raises at +inf, the plunge's end, where libm returns NaN
    us = [u for u in SPECIAL if u != math.inf] + [
        u for k in knots for u in neighbours(k)] + extra
    want = [stance_pose(tmpl, u) + g(tmpl, u) for u in us]
    np.testing.assert_array_equal(bits(_stance_curves(tmpl, us).T),
                                  bits(want))


@pytest.mark.parametrize("record", [
    KinematicSample(1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
