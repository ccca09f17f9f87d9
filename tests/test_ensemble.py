import numpy as np
import pytest

from momflow import (
    DensityHistogram,
    EnsembleSpec,
    IntegratorConfig,
    MomentumField,
    SeedSpec,
    UnitSystem,
    compare_density_to_born,
    density_histogram,
    draw_measurement,
    evolve_ensemble,
    gaussian_distribution,
    harmonic_potential,
    qho_analytic_position,
    qho_field,
    sample_initial,
    uniform_distribution,
)
from momflow.ensemble import REASON_LABELS
from momflow.errors import RegionOverlapsSingularity, TimeOutOfRange, ZeroMass

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


def test_aggregates_ignore_member_order():
    spec = make_spec(count=400, t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    xs = result.positions[-1, :, 0].real
    edges = np.linspace(xs.min(), xs.max(), 21)
    direct, _ = np.histogram(xs, edges)
    permuted, _ = np.histogram(np.random.default_rng(3).permutation(xs), edges)
    assert np.array_equal(direct, permuted)


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


def test_nonuniform_bins_rejected():
    spec = make_spec(count=10, t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    with pytest.raises(ValueError):
        density_histogram(result, 1.0, np.array([0.0, 0.5, 2.0]))


# -- Born comparison -----------------------------------------------------------------


def _manual_hist(edges, counts):
    counts = np.asarray(counts, dtype=float)
    return DensityHistogram(time=0.0, edges=np.asarray(edges, float), counts=counts,
                            sample_count=int(counts.sum()), terminated_count=0,
                            off_axis_count=0, outside_count=0)


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


def test_measurement_picks_a_live_member():
    spec = make_spec(count=100, t_end=1.0)
    result = evolve_ensemble(FIELD, POT, spec)
    rng = np.random.default_rng(5)
    value = draw_measurement(result, 1.0, rng)
    assert np.any(np.isclose(result.positions[-1, :, 0], value))
