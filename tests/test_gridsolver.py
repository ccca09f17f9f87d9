import numpy as np
import pytest

from momflow import (
    Grid1D,
    classify_fixed_points,
    energy_constancy_scan,
    field_from_grid,
    harmonic_potential,
    polynomial_potential,
    qho_field,
    solve_schrodinger_1d,
    zero_potential,
)
from momflow.errors import NodeEvaluation, OffAxisEvaluation

GRID = Grid1D(-8.0, 8.0, 2000)
ANHARMONIC = polynomial_potential([0.0, 0.0, 0.5, 0.0, 0.1])


@pytest.fixture(scope="module")
def oscillator_pairs():
    return solve_schrodinger_1d(harmonic_potential(), GRID, 3)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.0, 128)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 32)


def test_oscillator_energies(oscillator_pairs):
    energies = [p.energy for p in oscillator_pairs]
    assert abs(energies[0] - 0.5) < 1e-4
    assert abs(energies[1] - 1.5) < 1e-4
    assert abs(energies[2] - 2.5) < 1e-4


def test_oscillator_parity(oscillator_pairs):
    xs = GRID.xs
    for pair, parity in zip(oscillator_pairs, (+1, -1, +1)):
        flipped = np.interp(-xs, xs, pair.psi)
        assert np.max(np.abs(pair.psi - parity * flipped)) < 1e-8


def test_eigenvectors_are_normalized_and_sign_fixed(oscillator_pairs):
    h = GRID.spacing
    for pair in oscillator_pairs:
        assert np.sum(pair.psi ** 2) * h == pytest.approx(1.0)
        first = np.argmax(np.abs(pair.psi) > 1e-8 * np.abs(pair.psi).max())
        assert pair.psi[first] > 0


def test_box_energies_match_closed_form():
    grid = Grid1D(0.0, 1.0, 2000)
    pairs = solve_schrodinger_1d(zero_potential(), grid, 3)
    for n, pair in enumerate(pairs, start=1):
        exact = (n * np.pi) ** 2 / 2.0
        assert abs(pair.energy - exact) / exact < 1e-3


def test_box_ground_state_field_matches_log_derivative():
    grid = Grid1D(0.0, 1.0, 2000)
    pairs = solve_schrodinger_1d(zero_potential(), grid, 1)
    field = field_from_grid(pairs[0], grid)
    for x in (0.2, 0.3, 0.7):
        expected = -1j * np.pi / np.tan(np.pi * x)
        assert abs(field.value(x) - expected) < 1e-3 * (1.0 + abs(expected))


def test_state_count_limit():
    with pytest.raises(ValueError):
        solve_schrodinger_1d(harmonic_potential(), Grid1D(-5, 5, 64), 17)


def test_complex_potential_rejected():
    with pytest.raises(ValueError):
        solve_schrodinger_1d(lambda x: 1j * x, GRID, 1)


def test_eigenvalue_error_is_second_order():
    errors = []
    for m in (500, 1000):
        pairs = solve_schrodinger_1d(harmonic_potential(), Grid1D(-8, 8, m), 1)
        errors.append(abs(pairs[0].energy - 0.5))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_grid_field_reference_point(oscillator_pairs):
    field = field_from_grid(oscillator_pairs[1], GRID)
    assert abs(field.value(2.0) - 1.5j) < 1e-3


def test_grid_fields_match_closed_forms(oscillator_pairs):
    test_points = {
        0: np.array([-3.0, -1.0, 0.5, 2.0]),
        1: np.array([-3.0, -2.0, -0.6, 0.6, 2.0, 3.0]),
        2: np.array([-3.0, -1.5, -0.2, 0.2, 1.5, 3.0]),
    }
    for level, xs in test_points.items():
        grid_field = field_from_grid(oscillator_pairs[level], GRID)
        closed = qho_field(level)
        a = closed.value(xs.astype(complex))
        b = grid_field.value(xs)
        assert np.all(np.abs(a - b) <= 1e-3 * (1.0 + np.abs(a)))


def test_grid_field_detects_nodes(oscillator_pairs):
    field = field_from_grid(oscillator_pairs[1], GRID)
    assert any(abs(loc) < 1e-2 for _axis, loc in field.poles)
    with pytest.raises(NodeEvaluation):
        field.value(field.poles[0][1])


def test_grid_field_refuses_complex_positions(oscillator_pairs):
    field = field_from_grid(oscillator_pairs[1], GRID)
    with pytest.raises(OffAxisEvaluation):
        field.value(np.array([1.0 + 0.1j]))


def test_grid_field_refuses_points_outside_interior(oscillator_pairs):
    field = field_from_grid(oscillator_pairs[0], GRID)
    with pytest.raises(ValueError):
        field.value(9.5)


def test_grid_field_energy_scan_oscillator(oscillator_pairs):
    field = field_from_grid(oscillator_pairs[0], GRID)
    report = energy_constancy_scan(field, harmonic_potential(), (-2.5, 2.5),
                                   samples=400, tol=1e-4)
    assert report.passed
    assert report.mean_energy.real == pytest.approx(0.5, abs=1e-4)


def test_anharmonic_ground_state_energy_scan():
    pairs = solve_schrodinger_1d(ANHARMONIC, GRID, 1)
    field = field_from_grid(pairs[0], GRID)
    report = energy_constancy_scan(field, ANHARMONIC, (-2.0, 2.0),
                                   samples=400, tol=1e-4)
    assert report.passed
    assert report.mean_energy.real == pytest.approx(pairs[0].energy, abs=1e-6)


def test_fixed_points_cross_check_against_grid(oscillator_pairs):
    closed_roots = classify_fixed_points(qho_field(2), harmonic_potential(), (0.05, 4.0))
    grid_field = field_from_grid(oscillator_pairs[2], GRID)
    grid_roots = classify_fixed_points(grid_field, harmonic_potential(), (0.05, 4.0),
                                       momentum_tol=1e-4)
    assert len(closed_roots) == len(grid_roots) == 1
    assert abs(closed_roots[0][0] - grid_roots[0][0]) < 1e-3


# -- the tridiagonal eigensolver against scipy's LAPACK one -------------------------

DOUBLE_WELL = polynomial_potential([16.0, 0.0, -8.0, 0.0, 1.0])  # (x**2 - 4)**2
CONFINING = {"harmonic": harmonic_potential(), "anharmonic": ANHARMONIC,
             "double well": DOUBLE_WELL}


def tridiagonal(potential, grid):
    """(diagonal, off-diagonal) of the discretized Hamiltonian, natural units."""
    kin = 1.0 / (2.0 * grid.spacing ** 2)
    u = np.asarray(potential.value(grid.xs[1:-1].astype(complex))).real
    return 2.0 * kin + u, np.full(grid.points - 3, -kin)


def unit_vectors(pairs):
    """The interior of each psi as a unit column."""
    v = np.array([pair.psi[1:-1] for pair in pairs]).T
    return v / np.linalg.norm(v, axis=0)


@pytest.mark.parametrize("name", CONFINING)
@pytest.mark.parametrize("grid, states", [
    (Grid1D(-8.0, 8.0, 64), 16), (Grid1D(-5.0, 5.0, 64), 16), (Grid1D(-8.0, 8.0, 257), 8),
    (Grid1D(-8.0, 8.0, 2000), 6), (Grid1D(-10.0, 10.0, 4000), 4),
])
def test_solver_matches_scipy(name, grid, states):
    from scipy.linalg import eigh_tridiagonal

    potential = CONFINING[name]
    pairs = solve_schrodinger_1d(potential, grid, states)
    energies, vectors = eigh_tridiagonal(*tridiagonal(potential, grid), select="i",
                                         select_range=(0, states))
    assert np.max(np.abs([p.energy for p in pairs] - energies[:states])) <= 1e-9
    ours = unit_vectors(pairs)
    ours *= np.sign(np.sum(ours * vectors[:, :states], axis=0))
    gaps = np.diff(np.concatenate([[-np.inf], energies]))
    resolved = np.minimum(gaps[:-1], gaps[1:]) >= 1e-3
    assert resolved.any()
    assert np.max(np.abs(ours - vectors[:, :states])[:, resolved]) <= 1e-8


def test_near_degenerate_double_well_pairs_are_orthogonal_with_small_residuals():
    grid = Grid1D(-8.0, 8.0, 3000)
    pairs = solve_schrodinger_1d(DOUBLE_WELL, grid, 6)
    assert pairs[1].energy - pairs[0].energy < 1e-4
    diag, off = tridiagonal(DOUBLE_WELL, grid)
    v = unit_vectors(pairs)
    assert np.max(np.abs(v.T @ v - np.eye(6))) <= 1e-10
    norm = np.max(np.abs(diag) + np.r_[0.0, np.abs(off)] + np.r_[np.abs(off), 0.0])
    tv = diag[:, None] * v
    tv[1:] += off[:, None] * v[:-1]
    tv[:-1] += off[:, None] * v[1:]
    residuals = np.linalg.norm(tv - v * [p.energy for p in pairs], axis=0)
    assert np.max(residuals) <= 100 * np.finfo(float).eps * norm


@pytest.mark.parametrize("name", CONFINING)
@pytest.mark.parametrize("grid", [Grid1D(-10.0, 10.0, 4000), Grid1D(-8.0, 8.0, 2000)])
def test_state_j_reports_j_poles(name, grid):
    # sign flips of the underflowed tails are no nodes
    for pair in solve_schrodinger_1d(CONFINING[name], grid, 6):
        assert len(field_from_grid(pair, grid).poles) == pair.level


@pytest.mark.parametrize("potential", [lambda x: 1.0 / x,
                                       lambda x: np.where(x > 0.5, np.nan, x * x)],
                         ids=["inf", "nan"])
def test_a_potential_not_finite_on_the_grid_is_refused(potential):
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="not finite on the grid"):
        solve_schrodinger_1d(potential, Grid1D(-1.0, 1.0, 65), 1)


def test_an_infinite_potential_on_the_walls_is_allowed():
    # the Dirichlet walls carry no unknown, so their potential never enters
    with np.errstate(divide="ignore"):
        pairs = solve_schrodinger_1d(lambda x: 1.0 / (1.0 - x * x), Grid1D(-1.0, 1.0, 65), 1)
    assert np.isfinite(pairs[0].energy)
