import hashlib
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from momflow import (
    DensityHistogram,
    EnsembleSpec,
    Grid1D,
    IntegratorConfig,
    MomentumField,
    SeedSpec,
    UnitSystem,
    compare_density_to_born,
    density_histogram,
    energy_at,
    evolve,
    evolve_ensemble,
    field_from_grid,
    field_from_wavefunction,
    gaussian_distribution,
    harmonic_potential,
    product_field,
    qho_analytic_position,
    qho_field,
    sample_initial,
    separable_potential,
    solve_schrodinger_1d,
    uniform_distribution,
)
from momflow import core, ensemble
from momflow.core import _STATE_BATCH, NATURAL_UNITS, substream_rng
from momflow.dynamics import COMPLETED, NEAR_NODE, STEP_UNDERFLOW, _integrate
from momflow.ensemble import _BLOCK_BYTES, _MIN_WORKER_BLOCK, REASON_LABELS, _blocks
from momflow.errors import EmptyRegion, RegionOverlapsSingularity, TimeOutOfRange, ZeroMass
from momflow.fields import _energy

FIELD = qho_field(1)
POT = harmonic_potential()


def make_spec(count=200, region=(0.8, 1.2), seed=101, t_end=1.0, dt=1e-3,
              distribution=None, first_stream=0, scheme="rk4", snapshots=201):
    return EnsembleSpec(
        count=count, region=region,
        distribution=distribution or uniform_distribution(),
        seed=SeedSpec(seed),
        integrator=IntegratorConfig(t_end=t_end, dt=dt, scheme=scheme),
        first_stream=first_stream, snapshots=snapshots)


# -- sampling -----------------------------------------------------------------------


def test_sampling_is_deterministic():
    spec = make_spec(count=5)
    assert np.array_equal(sample_initial(spec), sample_initial(spec))


def test_uniform_sample_mean():
    spec = make_spec(count=10_000, region=(0.5, 2.5))
    pts = sample_initial(spec)
    standard_error = (2.0 / np.sqrt(12.0)) / np.sqrt(10_000)
    assert abs(pts.mean() - 1.5) < 3.0 * standard_error


def test_gaussian_sample_width():
    spec = make_spec(count=10_000, region=(0.2, 1.8),
                     distribution=gaussian_distribution(1.0, 0.2))
    pts = sample_initial(spec)
    assert abs(pts.std() - 0.2) / 0.2 < 0.03


def reference_sample(spec):
    """Per-member sampling with one numpy Generator built per substream."""
    box = spec.box
    d = len(box)
    out = np.empty((spec.count, d))
    dist = spec.distribution
    for i in range(spec.count):
        rng = substream_rng(spec.seed, spec.first_stream + i)
        if dist.kind == "uniform":
            u = rng.random(d)
            for k, (lo, hi) in enumerate(box):
                out[i, k] = lo + (hi - lo) * u[k]
        else:
            for k, (lo, hi) in enumerate(box):
                for _attempt in range(10_000):
                    draw = rng.normal(dist.mean, dist.sigma)
                    if lo <= draw <= hi:
                        out[i, k] = draw
                        break
    return out


BOX_3D = ((0.8, 1.2), (-2.0, 3.0), (5.0, 9.0))


@pytest.mark.parametrize("count, region, distribution, seed, first_stream", [
    (1, (0.8, 1.2), None, 0, 0),
    (1000, (0.8, 1.2), None, 2**64 - 1, 0),
    (1000, BOX_3D, None, 5, 10**12),
    (1, (1.25, 3.5), gaussian_distribution(2.0, 0.5), 2**32, 0),
    (1000, (1.25, 3.5), gaussian_distribution(2.0, 0.5), 2**32 - 1, -7),
    (1000, BOX_3D, gaussian_distribution(1.0, 2.0), 9, 3),
    # Accepts ~7% of draws: ~15 normal draws per member.
    (1000, (1.5, 3.0), gaussian_distribution(0.0, 1.0), 12, 2**64 - 500),
    # Uniform draws are made a batch of states at a time: cross two batch
    # boundaries, and let the stream index wrap past 2**64.
    (2 * _STATE_BATCH + 3, BOX_3D, None, 3, 2**64 - _STATE_BATCH - 7),
    # Gaussian draws too are made a batch at a time, and the ziggurat's slow
    # words (the idx-0 tail and the wedges) are handed to numpy: axis 0 is
    # wide enough to accept tail draws, axis 1 rejects some of them.
    (2 * _STATE_BATCH + 5, ((-8.0, 8.0), (-1.0, 2.5)), gaussian_distribution(0.0, 1.0), 21,
     2**63),
    # Accepts ~0.13% of draws, so thousands of slow words go to numpy and
    # most of numpy's draws miss: each such stream reads on next round.
    (300, (3.0, 4.0), gaussian_distribution(0.0, 1.0), 31, 5),
])
def test_sampling_equals_per_member_generators(count, region, distribution, seed, first_stream,
                                               monkeypatch):
    handed = []
    slow_normal = core._slow_normal

    def spy(rng, state, inc):
        draw, after = slow_normal(rng, state, inc)
        handed.append(draw)
        return draw, after

    monkeypatch.setattr(core, "_slow_normal", spy)
    spec = make_spec(count=count, region=region, distribution=distribution, seed=seed,
                     first_stream=first_stream)
    sample = sample_initial(spec)
    assert sample.tobytes() == reference_sample(spec).tobytes()
    if distribution is not None and count > _STATE_BATCH:
        # Only the idx-0 tail gives |z| beyond the ziggurat's base r, so
        # the hand-off ran for tail draws, and for wedge draws inside r.
        r = 3.6541528853610088
        assert np.abs(sample[:, 0]).max() > r
        assert any(abs(z) < r for z in handed)


@pytest.mark.parametrize("count, region, sigma", [
    # the CLI's EmptyRegion case, sampled directly
    (10, (5.0, 6.0), 0.3),
    # little mass: member 0 would first land inside on its 34 726th draw
    (10, (3.9, 4.5), 1.0),
    # more members than one batch of states
    (_STATE_BATCH + 1, (5.0, 6.0), 0.3),
])
def test_region_without_gaussian_mass_is_a_bounded_error(count, region, sigma):
    # Each member misses 10 000 times at most before the error is raised.
    spec = make_spec(count=count, region=region, seed=3,
                     distribution=gaussian_distribution(0.0, sigma))
    start = time.perf_counter()
    with pytest.raises(EmptyRegion):
        sample_initial(spec)
    assert time.perf_counter() - start < 5.0


def test_region_overlapping_a_node_is_rejected():
    spec = make_spec(region=(-0.5, 0.5))  # contains the pole at x = 0
    with pytest.raises(RegionOverlapsSingularity):
        sample_initial(spec, poles=FIELD.poles)


# -- evolution ----------------------------------------------------------------------


def test_ensemble_from_rest_point_never_moves():
    spec = make_spec(count=50, region=(1.0 - 1e-12, 1.0 + 1e-12), t_end=2.0)
    result = evolve_ensemble(FIELD, POT, spec)
    assert result.completion_fraction == 1.0
    assert np.max(np.abs(result.positions - 1.0)) < 1e-9


def test_ensemble_energy_stays_constant():
    spec = make_spec(count=1000, region=(0.8, 1.2), t_end=5.0)
    result = evolve_ensemble(FIELD, POT, spec)
    assert result.completion_fraction == 1.0
    assert result.max_energy_drift() < 1e-8


def test_ensemble_matches_analytic_map():
    spec = make_spec(count=300, region=(0.8, 1.2), t_end=2.0)
    result = evolve_ensemble(FIELD, POT, spec)
    x0 = sample_initial(spec)[:, 0]
    expected = np.array([qho_analytic_position(x, 2.0) for x in x0])
    assert np.max(np.abs(result.positions[-1, :, 0] - expected)) < 1e-8


def test_members_near_branch_point_terminate():
    # tracks through x0 ~ sqrt(2) dive into the pole at the origin
    spec = make_spec(count=500, region=(1.40, 1.43), t_end=2.0, seed=7)
    result = evolve_ensemble(FIELD, POT, spec)
    terminated = int((~result.completed).sum())
    assert 0 < terminated < 150
    assert 0.7 < result.completion_fraction < 1.0
    assert np.all(np.isfinite(result.termination_time[~result.completed]))


def test_energy_drift_skips_retired_members(monkeypatch):
    # Level 2 from (0.75, 2.0): members retire near the node at t = 0 and
    # near t = 1.25, after which their energies are not counted.
    monkeypatch.setattr(ensemble, "_WORKERS", 1)  # the patched _energy runs in this process
    field = qho_field(2)
    spec = EnsembleSpec(count=100, region=(0.75, 2.0), distribution=uniform_distribution(),
                        seed=SeedSpec(11), integrator=IntegratorConfig(t_end=2.0, dt=1e-2),
                        snapshots=21)
    result = evolve_ensemble(field, POT, spec)
    retired = result.termination_time[~result.completed]
    assert np.any(retired == 0.0) and np.any(retired > 1.0)
    assert len(_blocks(spec.count, 1)) == 1  # so the nth _energy call is snapshot n
    energies = np.stack([energy_at(field, POT, pts) for pts in result.positions])
    alive = np.stack([result.alive_at(s) for s in range(spec.snapshots)])
    drift = np.where(alive, np.abs(energies - energies[0]), 0.0)
    assert np.array_equal(result.energy_drift, drift.max(axis=1))
    expected = float(drift.max())
    assert result.max_energy_drift() == expected

    def nan_energy(snapshot, member):
        calls = []

        def energy(*args):
            momenta, values = _energy(*args)
            if len(calls) == snapshot:
                values[member] = np.nan
            calls.append(None)
            return momenta, values
        monkeypatch.setattr(ensemble, "_energy", energy)
        return evolve_ensemble(field, POT, spec)

    # a member's energy after it retired never counts, even when it is nan
    late = nan_energy(spec.snapshots - 1, np.flatnonzero(result.termination_time > 1.0)[0])
    assert np.array_equal(late.energy_drift, result.energy_drift)
    assert late.max_energy_drift() == expected
    # a live member's nan drift is the answer, as in the whole-array max
    mid = spec.snapshots // 2
    live = nan_energy(mid, np.flatnonzero(result.completed)[0])
    assert np.isnan(live.energy_drift[mid]) and np.isnan(live.max_energy_drift())
    assert np.array_equal(np.delete(live.energy_drift, mid), np.delete(result.energy_drift, mid))


@pytest.mark.parametrize("kind", ["grid", "wavefunction"])
def test_evolution_refuses_a_field_not_evaluable_off_the_real_axis(kind):
    if kind == "grid":
        grid = Grid1D(-8.0, 8.0, 2000)
        field = field_from_grid(solve_schrodinger_1d(POT, grid, 2)[1], grid)
    else:
        field = field_from_wavefunction(lambda x: x * np.exp(-0.5 * x * x), nodes=[0.0])
    spec = make_spec(count=5, region=(1.0, 2.0), t_end=0.5, dt=1e-3, snapshots=3)
    with pytest.raises(ValueError, match="complex positions"):
        evolve_ensemble(field, POT, spec)
    with pytest.raises(ValueError, match="complex positions"):
        evolve(field, POT, 1.5, spec.integrator)


def test_identical_specs_give_identical_histograms():
    spec = make_spec(count=400, t_end=2.0)
    h1 = density_histogram(evolve_ensemble(FIELD, POT, spec), 2.0, 30)
    h2 = density_histogram(evolve_ensemble(FIELD, POT, spec), 2.0, 30)
    assert np.array_equal(h1.counts, h2.counts)
    assert np.array_equal(h1.edges, h2.edges)


def test_merging_disjoint_streams_equals_one_ensemble():
    whole = sample_initial(make_spec(count=300))
    first = sample_initial(make_spec(count=200))
    second = sample_initial(make_spec(count=100, first_stream=200))
    assert np.array_equal(whole, np.vstack([first, second]))


def test_merging_disjoint_rk4_shards_equals_one_ensemble():
    # Level 2, node at 0.707: some members retire at the first step, some
    # near t = 1.25, in both shards, so the working set shrinks in each.
    field = qho_field(2)

    def run(count, first_stream=0):
        spec = EnsembleSpec(count=count, region=(0.75, 2.0),
                            distribution=uniform_distribution(), seed=SeedSpec(11),
                            integrator=IntegratorConfig(t_end=2.0, dt=1e-2),
                            first_stream=first_stream, snapshots=21)
        return evolve_ensemble(field, POT, spec)

    whole, first, second = run(300), run(200), run(100, first_stream=200)
    for part in (first, second):
        retired = part.termination_time[~part.completed]
        assert np.any(retired == 0.0) and np.any(retired > 1.0)
    assert np.array_equal(whole.times, first.times)
    assert np.array_equal(whole.times, second.times)
    assert np.array_equal(whole.positions, np.concatenate([first.positions, second.positions], axis=1))
    assert np.array_equal(whole.termination_time,
                          np.concatenate([first.termination_time, second.termination_time]),
                          equal_nan=True)
    assert np.array_equal(whole.termination_reason,
                          np.concatenate([first.termination_reason, second.termination_reason]))


def test_merging_disjoint_rkf45_shards_equals_one_ensemble():
    # Each member controls its own step size, so a member's steps do not
    # depend on its shard.  Some members retire near the node at the first
    # step, others by step underflow near t = 1.25, with dt_min = 1e-3.
    field = qho_field(2)

    def run(count, first_stream=0):
        spec = EnsembleSpec(count=count, region=(0.75, 2.0),
                            distribution=uniform_distribution(), seed=SeedSpec(11),
                            integrator=IntegratorConfig(t_end=2.0, dt=1e-2, scheme="rkf45",
                                                        dt_min=1e-3),
                            first_stream=first_stream, snapshots=21)
        return evolve_ensemble(field, POT, spec)

    whole, first, second = run(300), run(200), run(100, first_stream=200)
    for part in (first, second):
        assert np.any(part.termination_time == 0.0)
    assert set(REASON_LABELS[r] for r in whole.termination_reason) == set(REASON_LABELS)
    assert np.array_equal(whole.times, first.times)
    assert np.array_equal(whole.times, second.times)
    assert np.array_equal(whole.positions, np.concatenate([first.positions, second.positions], axis=1))
    assert np.array_equal(whole.termination_time,
                          np.concatenate([first.termination_time, second.termination_time]),
                          equal_nan=True)
    assert np.array_equal(whole.termination_reason,
                          np.concatenate([first.termination_reason, second.termination_reason]))


def test_rkf45_members_step_alike_alone_and_together():
    # Level 2, node at 0.707: four members retire near the node at t = 0,
    # four by step underflow near t = 1.25 (dt_min = 1e-3), four complete;
    # they are interleaved so that each retirement compacts the middle of
    # the working set.
    field = qho_field(2)
    x0 = np.array([0.9, 0.7075, 1.925, 1.3, 0.715, 1.923, 1.6, 0.73, 1.927, 1.92, 0.74, 1.93],
                  dtype=complex)[:, None]
    config = IntegratorConfig(t_end=2.0, dt=1e-2, scheme="rkf45", dt_min=1e-3)
    times = np.linspace(0.0, 2.0, 21)

    def run(rows):
        snaps = np.full((len(times),) + rows.shape, np.nan, dtype=complex)
        snaps[0] = rows
        steps = np.zeros(len(rows), dtype=int)

        def land(k, ids, states):
            snaps[k, ids] = states

        def accepted(t, ids, states, h):
            steps[ids] += 1

        last, term_time, reason, most = _integrate(field, rows, config, times, NATURAL_UNITS,
                                                   land, accepted)
        assert most == steps.max()
        return snaps, last, term_time, reason, steps

    snaps, last, term_time, reason, steps = run(x0)
    assert list(reason) == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    assert np.all(term_time[reason == 1] == 0.0)
    assert np.all((term_time[reason == 2] > 1.2) & (term_time[reason == 2] < 1.3))
    for i in range(len(x0)):
        a_snaps, a_last, a_time, a_reason, a_steps = run(x0[i:i + 1])
        assert np.array_equal(snaps[:, i], a_snaps[:, 0], equal_nan=True), i
        assert np.array_equal(last[i], a_last[0]), i
        assert np.array_equal(term_time[i], a_time[0], equal_nan=True), i
        assert reason[i] == a_reason[0] and steps[i] == a_steps[0], i


@pytest.mark.parametrize("scheme, dt, snapshots", [("rk4", 3e-3, 7), ("rkf45", 1e-3, 201)])
def test_snapshots_land_exactly_on_the_requested_times(scheme, dt, snapshots):
    spec = make_spec(count=50, dt=dt, scheme=scheme, snapshots=snapshots)
    result = evolve_ensemble(FIELD, POT, spec, record_energy=False)
    assert np.array_equal(result.times, np.linspace(0.0, 1.0, snapshots))
    assert result.positions.shape == (snapshots, 50, 1)
    x0 = sample_initial(spec)[:, 0]
    expected = np.stack([qho_analytic_position(x, result.times) for x in x0], axis=1)
    assert np.max(np.abs(result.positions[:, :, 0] - expected)) < 1e-6


def read_only_counting_field(inner, sizes):
    """``inner`` with read-only value arrays, recording each value call's size."""
    def value(pts):
        sizes.append(pts.shape[0])
        out = inner._value_at(pts, check=False)
        out.setflags(write=False)
        return out

    return MomentumField(1, value, poles=inner.poles, holomorphic=True)


@pytest.mark.parametrize("mass", [1.0, 2.0])
def test_rk4_stepper_only_reads_field_outputs(mass):
    sizes = []
    field = read_only_counting_field(FIELD, sizes)
    spec = make_spec(count=50, t_end=0.2, dt=1e-2, snapshots=21)
    result = evolve_ensemble(field, POT, spec, units=UnitSystem(mass=mass), record_energy=False)
    assert result.completion_fraction == 1.0
    assert result.steps == 20
    assert sizes == [50] * (4 * result.steps)


def test_rkf45_stepper_makes_six_calls_per_attempt():
    sizes = []
    field = read_only_counting_field(FIELD, sizes)
    spec = make_spec(count=50, t_end=1.0, scheme="rkf45")
    result = evolve_ensemble(field, POT, spec, record_energy=False)
    assert result.completion_fraction == 1.0
    assert max(sizes) <= 50
    assert len(sizes) % 6 == 0 and len(sizes) // 6 >= result.steps


@pytest.mark.parametrize("scheme", ["rk4", "rkf45"])
def test_stepper_survives_a_field_returning_its_argument(scheme):
    # p = x, so dx/dt = x: a value function may hand back its input array,
    # which the stepper's stage buffers must not then overwrite.
    aliasing = MomentumField(1, lambda pts: pts, holomorphic=True)
    copying = MomentumField(1, lambda pts: pts.copy(), holomorphic=True)
    spec = make_spec(count=20, t_end=0.5, dt=1e-2, scheme=scheme)
    a = evolve_ensemble(aliasing, POT, spec, record_energy=False)
    b = evolve_ensemble(copying, POT, spec, record_energy=False)
    assert np.array_equal(a.positions, b.positions)
    x0 = sample_initial(spec)[:, 0]
    assert np.max(np.abs(a.positions[-1, :, 0] - x0 * np.exp(a.times[-1]))) < 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme, reason, stop", [("rk4", NEAR_NODE, 0.4),
                                                  ("rkf45", STEP_UNDERFLOW, 0.405)])
def test_a_non_finite_update_retires_the_member_without_a_warning(scheme, reason, stop):
    # p is +inf left of Re x = 1.15, which the member from 1.2 reaches near t = 0.4:
    # rk4 retires it on its non-finite update, and rkf45 rejects its nan
    # error estimate until the step underflows.
    def value(pts):
        return np.where(pts.real < 1.15, np.inf, FIELD._value_at(pts, check=False))

    field = MomentumField(1, value, poles=FIELD.poles, holomorphic=True)
    last, term_time, term_reason, _ = _integrate(
        field, np.array([[1.29], [1.2], [1.5]], dtype=complex),
        IntegratorConfig(t_end=0.5, scheme=scheme, dt=1e-2), np.linspace(0.0, 0.5, 6),
        NATURAL_UNITS)
    assert term_reason.tolist() == [COMPLETED, reason, COMPLETED]
    assert term_time[1] == pytest.approx(stop, abs=1e-3)
    assert np.isnan(term_time[[0, 2]]).all() and np.isfinite(last).all()


def test_aggregates_ignore_member_order():
    spec = make_spec(count=400, t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    xs = result.positions[-1, :, 0].real
    edges = np.linspace(xs.min(), xs.max(), 21)
    direct, _ = np.histogram(xs, edges)
    permuted, _ = np.histogram(np.random.default_rng(3).permutation(xs), edges)
    assert np.array_equal(direct, permuted)


@pytest.mark.parametrize("scheme, digest", [
    ("rk4", "1326e82a9362cbee5981cf057d0543d029935e5cd97f3cfa023073612aae4e16"),
    ("rkf45", "dc64e29d731df6cd5024aa46bc7d2ea3f17c50b52da51b3da56da13b76b8ee6d"),
])
def test_two_component_ensemble_is_pinned_bit_for_bit(scheme, digest):
    # No benchmark steps a field with more than one component, so the
    # per-component arithmetic (the guard's 1-norm, the rkf45 error
    # ratio's maximum) is pinned here: the sha256 of every snapshot
    # position and termination reason.  19 (rk4) and 16 (rkf45) of the
    # members retire near the level-2 node at 0.707.
    field = product_field([qho_field(1), qho_field(2)])
    potential = separable_potential([harmonic_potential(), harmonic_potential()])
    extra = {"dt_min": 1e-3} if scheme == "rkf45" else {}
    spec = EnsembleSpec(count=200, region=((0.5, 1.5), (0.8, 1.6)),
                        distribution=uniform_distribution(), seed=SeedSpec(29), snapshots=21,
                        integrator=IntegratorConfig(t_end=2.0, dt=1e-2, scheme=scheme, **extra))
    result = evolve_ensemble(field, potential, spec, record_energy=False)
    assert np.count_nonzero(result.termination_reason == NEAR_NODE) == (19 if scheme == "rk4" else 16)
    data = result.positions.tobytes() + result.termination_reason.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def level2_spec(count, scheme, dt=1e-2, t_end=2.0, snapshots=21, region=(0.75, 2.0)):
    extra = {"dt_min": 1e-3} if scheme == "rkf45" else {}
    return EnsembleSpec(count=count, region=region, distribution=uniform_distribution(),
                        seed=SeedSpec(11), snapshots=snapshots,
                        integrator=IntegratorConfig(t_end=t_end, dt=dt, scheme=scheme, **extra))


@pytest.mark.parametrize("level, spec, cap, retire, lands", [
    # level 2, node at 0.707: members retire near it at the first step and
    # near t = 1.25 (rkf45: by step underflow), in blocks of 61 and a last of 57
    (2, level2_spec(301, "rk4"), 64, (NEAR_NODE,), False),
    (2, level2_spec(301, "rkf45"), 64, (NEAR_NODE, STEP_UNDERFLOW), False),
    # snapshots closer than dt: each rkf45 round lands every member, and a
    # member that lags one snapshot behind lands in the same round as the rest
    (2, level2_spec(301, "rkf45", dt=0.1, snapshots=401, region=(0.8, 2.0)), 64, (), True),
    (1, make_spec(count=_BLOCK_BYTES // 16 + 37, t_end=0.05, dt=1e-2, snapshots=3), None, (),
     False),
], ids=["rk4", "rkf45", "rkf45-landing", "rk4-real-cap"])
def test_blocked_evolution_equals_whole_batch(monkeypatch, level, spec, cap, retire, lands):
    monkeypatch.setattr(ensemble, "_WORKERS", 1)  # the spy cannot see into forked workers
    field = qho_field(level)
    if cap is not None:
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", cap * 16)
    blocks = _blocks(spec.count, 1)
    assert len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]
    landings = []  # whole blocks landing in one round on different snapshots

    def integrate(field, x0, config, times, units, land):
        def spy(k, ids, rows):
            if len(ids) == len(x0) and len(np.unique(k)) > 1:
                landings.append(len(ids))
            land(k, ids, rows)
        return _integrate(field, x0, config, times, units, spy)

    monkeypatch.setattr(ensemble, "_integrate", integrate)
    blocked = evolve_ensemble(field, POT, spec)
    assert landings or not lands
    for reason in retire:
        hit = [np.any(blocked.termination_reason[lo:hi] == reason) for lo, hi in blocks]
        assert sum(hit) > 1, REASON_LABELS[reason]
    if retire:
        assert not np.all(blocked.completed[blocks[-1][0]:])

    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 16 * spec.count)
    whole = evolve_ensemble(field, POT, spec)
    for name in ("positions", "energy_drift", "termination_time", "termination_reason", "steps"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name), equal_nan=True), name


def test_evolution_memory_is_bounded_by_the_block(monkeypatch):
    # numpy reports its allocations to tracemalloc, which sees neither
    # forked workers nor the shared memory that holds the snapshots and
    # drift rows.  A run of 4 blocks of members peaks at about 12.7 blocks'
    # worth while it steps one block (drawing a block's starts peaks at 5.0);
    # stepping the whole batch at once peaked at over 30.
    monkeypatch.setattr(ensemble, "_WORKERS", 1)
    block = _BLOCK_BYTES
    spec = make_spec(count=4 * block // 16, t_end=0.05, dt=1e-2, snapshots=2)
    evolve_ensemble(FIELD, POT, spec)  # warm up lazily built tables
    tracemalloc.start()
    try:
        result = evolve_ensemble(FIELD, POT, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.completion_fraction == 1.0
    assert peak < 16 * block


@pytest.mark.parametrize("record_energy", [True, False])
def test_shared_memory_holds_positions_outcomes_and_drift_rows(monkeypatch, record_energy):
    # Beside the snapshots, shared memory holds each member's termination
    # time and reason (9 bytes), each block's drift row and step count, and
    # each worker's stepping time: no array of snapshots x members besides
    # the positions.
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 64 * 16)
    spec = level2_spec(301, "rkf45")
    shared, allocate = [], ensemble._shared

    def spy(shape, dtype):
        array = allocate(shape, dtype)
        shared.append(array.nbytes)
        return array

    monkeypatch.setattr(ensemble, "_shared", spy)
    result = evolve_ensemble(qho_field(2), POT, spec, record_energy=record_energy)
    blocks = len(_blocks(spec.count, 1))
    assert blocks > 1 and (result.energy_drift is None) != record_energy
    rows = blocks * spec.snapshots if record_energy else 0
    bound = result.positions.nbytes + 9 * spec.count + 8 * (rows + blocks + ensemble._WORKERS)
    assert sum(shared) <= bound


def test_blocks_give_every_worker_an_equal_share(monkeypatch):
    monkeypatch.setattr(ensemble, "_WORKERS", 2)
    assert _blocks(2 * _MIN_WORKER_BLOCK - 1, 1) == [(0, 2 * _MIN_WORKER_BLOCK - 1)]
    assert _blocks(2 * _MIN_WORKER_BLOCK + 1, 1) == [(0, _MIN_WORKER_BLOCK + 1),
                                                     (_MIN_WORKER_BLOCK + 1, 2 * _MIN_WORKER_BLOCK + 1)]
    # 7 blocks under the cache cap become 8, four for each worker
    assert [hi - lo for lo, hi in _blocks(100_000, 1)] == [12_500] * 8
    monkeypatch.setattr(ensemble, "_WORKERS", 1)
    assert len(_blocks(100_000, 1)) == 7


def forks_counted(monkeypatch):
    """Patch os.fork to count its calls; returns the list of calls."""
    calls, fork = [], os.fork

    def counting_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


RESULT_FIELDS = ("positions", "energy_drift", "termination_time", "termination_reason",
                 "steps")


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("level, spec, cap, retire", [
    # 5 blocks under the cap, made a multiple of the workers, with
    # retirements in the forked workers' shares
    (2, level2_spec(301, "rk4"), 64, (NEAR_NODE,)),
    (2, level2_spec(301, "rkf45"), 64, (NEAR_NODE, STEP_UNDERFLOW)),
    (1, make_spec(count=2 * _MIN_WORKER_BLOCK + 1, t_end=0.05, dt=1e-2, snapshots=3), None, ()),
], ids=["rk4", "rkf45", "rk4-real-cap"])
def test_forked_workers_equal_one_process(monkeypatch, level, spec, cap, retire, workers):
    field = qho_field(level)
    if cap is not None:
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", cap * 16)
    monkeypatch.setattr(ensemble, "_WORKERS", workers)
    forks = forks_counted(monkeypatch)
    forked = evolve_ensemble(field, POT, spec)
    blocks = _blocks(spec.count, 1)
    assert len(forks) == min(workers, len(blocks)) - 1 > 0
    forked_members = np.ones(spec.count, dtype=bool)
    for lo, hi in blocks[::workers]:  # the caller's share
        forked_members[lo:hi] = False
    for reason in retire:
        retired = forked.termination_reason == reason
        assert np.any(retired & forked_members), REASON_LABELS[reason]
    assert forked.wall_time > 0.0

    monkeypatch.setattr(ensemble, "_WORKERS", 1)
    alone = evolve_ensemble(field, POT, spec)
    assert len(forks) == min(workers, len(blocks)) - 1
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(forked, name), getattr(alone, name), equal_nan=True), name


@pytest.mark.parametrize("raiser, error, expected, message", [
    ("worker", ZeroDivisionError, ZeroDivisionError, "^no field here$"),
    ("caller", ZeroDivisionError, ZeroDivisionError, "^no field here$"),
    ("worker", type("Local", (Exception,), {}), RuntimeError, r"Local\('no field here'\)"),
    ("worker", lambda message: os._exit(3), RuntimeError, "exit code 3$"),
], ids=["worker", "caller", "unpicklable", "exit"])
def test_a_failing_block_raises_in_the_caller_and_leaves_no_child(monkeypatch, raiser, error,
                                                                  expected, message):
    caller = os.getpid()

    def value(pts):
        if (os.getpid() == caller) == (raiser == "caller"):
            raise error("no field here")
        return FIELD._value_at(pts, check=False)

    field = MomentumField(1, value, jacobian_fn=lambda pts: FIELD._jacobian_at(pts, check=False),
                          poles=FIELD.poles, holomorphic=True, tolerance=FIELD.tolerance)
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 64 * 16)
    monkeypatch.setattr(ensemble, "_WORKERS", 2)
    with pytest.raises(expected, match=message):
        evolve_ensemble(field, POT, make_spec(count=200, t_end=0.5, dt=1e-2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_leaves_its_share_to_the_caller(monkeypatch):
    spec = level2_spec(301, "rk4")
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 64 * 16)
    monkeypatch.setattr(ensemble, "_WORKERS", 1)
    alone = evolve_ensemble(qho_field(2), POT, spec)
    fork, forks = os.fork, []

    def second_fork_fails():  # one worker forks, the next finds no process to spare
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(ensemble, "_WORKERS", 3)
    strained = evolve_ensemble(qho_field(2), POT, spec)
    assert len(forks) == 2
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(strained, name), getattr(alone, name), equal_nan=True), name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_to_fork():
    raise AssertionError("forked while another thread runs")


def test_no_fork_while_another_thread_runs(monkeypatch):
    spec = level2_spec(301, "rk4")
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 64 * 16)
    monkeypatch.setattr(ensemble, "_WORKERS", 1)
    alone = evolve_ensemble(qho_field(2), POT, spec)
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    monkeypatch.setattr(ensemble, "_WORKERS", 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        threaded = evolve_ensemble(qho_field(2), POT, spec)
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(threaded, name), getattr(alone, name), equal_nan=True), name


@pytest.mark.parametrize("region, distribution, first_stream", [
    ((0.8, 1.2), None, 7),
    # the substream indices wrap past 2**64 inside a forked worker's share
    ((0.2, 1.8), gaussian_distribution(1.0, 0.3), 2**64 - _MIN_WORKER_BLOCK - 17),
], ids=["uniform", "gaussian"])
def test_starts_drawn_by_each_block_equal_the_whole_batch(monkeypatch, region, distribution,
                                                          first_stream):
    # Each block draws its own starts in the process that evolves it: six
    # blocks, three of them in the forked worker, and then all in the caller.
    spec = make_spec(count=2 * _MIN_WORKER_BLOCK + 1, region=region, distribution=distribution,
                     first_stream=first_stream, t_end=0.01, dt=1e-2, snapshots=2)
    expected = sample_initial(spec).tobytes()
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 400 * 16)
    monkeypatch.setattr(ensemble, "_WORKERS", 2)
    assert len(_blocks(spec.count, 1)) == 6
    forks = forks_counted(monkeypatch)
    forked = evolve_ensemble(FIELD, POT, spec, record_energy=False)
    assert len(forks) == 1
    assert forked.positions[0].real.tobytes() == expected
    assert not np.any(forked.positions[0].imag)

    monkeypatch.setattr(os, "fork", refuse_to_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        threaded = evolve_ensemble(FIELD, POT, spec, record_energy=False)
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert threaded.positions[0].real.tobytes() == expected


@pytest.mark.parametrize("region, sigma, seed, caller_draws", [
    ((5.0, 6.0), 0.3, 3, False),
    # ~0.07% of draws land inside: at seed 1 every member of 0..999 lands
    # within 10 000 draws and one of 1000..1999 does not, so only the forked
    # worker raises
    ((3.2, 4.0), 1.0, 1, True),
], ids=["empty", "worker-only"])
def test_a_region_without_gaussian_mass_fails_the_evolution(monkeypatch, region, sigma, seed,
                                                            caller_draws):
    spec = make_spec(count=2 * _MIN_WORKER_BLOCK, region=region, seed=seed, t_end=0.01, dt=1e-2,
                     distribution=gaussian_distribution(0.0, sigma), snapshots=2)
    with pytest.raises(EmptyRegion) as drawn:
        sample_initial(spec)
    monkeypatch.setattr(ensemble, "_WORKERS", 2)
    assert _blocks(spec.count, 1) == [(0, _MIN_WORKER_BLOCK), (_MIN_WORKER_BLOCK, spec.count)]
    if caller_draws:
        sample_initial(replace(spec, count=_MIN_WORKER_BLOCK))
    forks = forks_counted(monkeypatch)
    with pytest.raises(EmptyRegion) as evolved:
        evolve_ensemble(FIELD, POT, spec)
    assert len(forks) == 1
    assert str(evolved.value) == str(drawn.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_region_overlapping_a_node_fails_before_any_block_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("the evolution started")

    for name in ("_shared", "_in_workers"):  # every block runs, and every fork is made, there
        monkeypatch.setattr(ensemble, name, refuse)
    spec = make_spec(count=2 * _MIN_WORKER_BLOCK, region=(-0.5, 0.5))
    with pytest.raises(RegionOverlapsSingularity, match="overlaps the node-guard"):
        evolve_ensemble(FIELD, POT, spec)


def test_shared_step_rkf45_runs_a_small_ensemble():
    spec = make_spec(count=50, t_end=1.0, scheme="rkf45")
    result = evolve_ensemble(FIELD, POT, spec)
    assert result.completion_fraction == 1.0
    x0 = sample_initial(spec)[:, 0]
    expected = np.array([qho_analytic_position(x, result.times[-1]) for x in x0])
    assert np.max(np.abs(result.positions[-1, :, 0] - expected)) < 1e-6


# -- histograms ----------------------------------------------------------------------


def test_rest_point_ensemble_occupies_single_bin():
    spec = make_spec(count=80, region=(1.0 - 1e-12, 1.0 + 1e-12), t_end=1.0)
    hist = density_histogram(evolve_ensemble(FIELD, POT, spec), 1.0, 15)
    assert np.count_nonzero(hist.counts) == 1
    assert hist.counts.sum() == 80


def test_initial_uniform_histogram_is_flat_within_multinomial_bands():
    spec = make_spec(count=4000, region=(0.8, 1.2), t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    edges = np.linspace(0.8, 1.2, 11)
    hist = density_histogram(result, 0.0, edges)
    n, k = 4000, 10
    expected = n / k
    band = 3.0 * np.sqrt(n * (1.0 / k) * (1.0 - 1.0 / k))
    assert np.all(np.abs(hist.counts - expected) < band)


def test_population_concentrates_toward_rest_point():
    spec = make_spec(count=4000, region=(0.8, 1.2), t_end=5.0, seed=42)
    result = evolve_ensemble(FIELD, POT, spec)
    edges = np.linspace(0.75, 1.25, 26)
    h0 = density_histogram(result, 0.0, edges)
    h5 = density_histogram(result, 5.0, edges)
    center = np.searchsorted(edges, 1.0) - 1
    assert h5.counts[center] > h0.counts[center]
    x0 = result.positions[0, :, 0].real
    x5 = result.positions[result.snapshot_index(5.0), :, 0].real
    assert x5.max() - x5.min() < x0.max() - x0.min()


def test_off_axis_mass_is_disclosed():
    spec = make_spec(count=500, region=(0.8, 1.2), t_end=5.0)
    result = evolve_ensemble(FIELD, POT, spec)
    hist = density_histogram(result, 5.0, 20)
    assert hist.off_axis_count > 0.5 * 500  # most members left the axis
    assert hist.counts.sum() + hist.outside_count == 500 - hist.terminated_count


def test_histogram_counts_account_for_terminations():
    spec = make_spec(count=500, region=(1.40, 1.43), t_end=2.0, seed=7)
    result = evolve_ensemble(FIELD, POT, spec)
    hist = density_histogram(result, 2.0, 25)
    assert hist.terminated_count == int((~result.completed).sum())
    assert hist.counts.sum() + hist.outside_count == 500 - hist.terminated_count


def test_time_out_of_range():
    spec = make_spec(count=10, t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    with pytest.raises(TimeOutOfRange):
        density_histogram(result, 5.0, 10)
    # a nan time compares false with every bound, so it must not pick t = 0
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(TimeOutOfRange):
            result.snapshot_index(t)
    with pytest.raises(TimeOutOfRange):
        density_histogram(result, np.nan, 10)


def test_nonuniform_bins_rejected():
    spec = make_spec(count=10, t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    with pytest.raises(ValueError):
        density_histogram(result, 1.0, np.array([0.0, 0.5, 2.0]))


@pytest.mark.parametrize("bins", [0, -2])
def test_bin_count_must_be_positive(bins):
    result = evolve_ensemble(FIELD, POT, make_spec(count=10, t_end=0.1))
    with pytest.raises(ValueError):
        density_histogram(result, 0.1, bins)


# -- Born comparison -----------------------------------------------------------------


def _manual_hist(edges, counts):
    counts = np.asarray(counts, dtype=float)
    return DensityHistogram(time=0.0, edges=np.asarray(edges, float), counts=counts,
                            terminated_count=0, off_axis_count=0, outside_count=0)


def test_matching_density_has_zero_distance():
    edges = np.linspace(0.5, 3.5, 13)
    mids = 0.5 * (edges[:-1] + edges[1:])
    weights = np.abs(mids * np.exp(-mids * mids / 2.0)) ** 2
    # build counts exactly proportional to the per-bin reference masses
    from momflow.ensemble import _GL_NODES, _GL_WEIGHTS
    half = 0.5 * (edges[1] - edges[0])
    xs = mids[:, None] + half * _GL_NODES[None, :]
    dens = np.abs(xs * np.exp(-xs * xs / 2.0)) ** 2
    masses = (dens * _GL_WEIGHTS[None, :]).sum(axis=1) * half
    hist = _manual_hist(edges, 1e6 * masses / masses.sum())
    comparison = compare_density_to_born(hist, lambda x: x * np.exp(-x * x / 2.0))
    assert comparison.l1_distance == pytest.approx(0.0, abs=1e-12)
    assert comparison.js_divergence == pytest.approx(0.0, abs=1e-12)


def test_disjoint_supports_saturate_the_metrics():
    edges = np.linspace(0.0, 1.0, 6)
    # counts live in the first two bins, the reference in the last two
    hist = _manual_hist(edges, [25, 25, 0, 0, 0])
    comparison = compare_density_to_born(hist, lambda x: np.where(x >= 0.6, 1.0, 0.0))
    assert comparison.l1_distance == pytest.approx(2.0, abs=1e-12)
    assert comparison.js_divergence == pytest.approx(np.log(2.0), abs=1e-12)


def test_run_metrics_are_reported_without_thresholds():
    spec = make_spec(count=2000, region=(0.8, 1.2), t_end=5.0)
    result = evolve_ensemble(FIELD, POT, spec)
    hist = density_histogram(result, 5.0, 30)
    comparison = compare_density_to_born(hist, lambda x: x * np.exp(-x * x / 2.0))
    assert 0.0 <= comparison.l1_distance <= 2.0
    assert 0.0 <= comparison.js_divergence <= np.log(2.0)


def test_zero_mass_is_rejected():
    hist = _manual_hist(np.linspace(0, 1, 4), [0, 0, 0])
    with pytest.raises(ZeroMass):
        compare_density_to_born(hist, lambda x: np.ones_like(x))
