import numpy as np
import pytest

from momflow import (
    MomentumField,
    UnitSystem,
    curl_residual,
    energy_at,
    energy_constancy_scan,
    field_from_wavefunction,
    harmonic_potential,
    polynomial_potential,
    product_field,
    qho_field,
    reconstruct_wavefunction,
    wavefunction_interpolant,
    zero_potential,
)
from momflow.errors import (
    DimensionTooLow,
    EmptyRegion,
    NodeEvaluation,
    OffAxisEvaluation,
    PathThroughNode,
    UnsupportedLevel,
)

RNG = np.random.default_rng(20260809)


def psi_level1(x):
    return x * np.exp(-x * x / 2.0)


# -- construction ---------------------------------------------------------------


def test_level1_field_values():
    field = qho_field(1)
    assert field.value(1.0) == pytest.approx(0.0)
    assert field.value(2.0) == pytest.approx(1.5j)
    assert field.value(0.5) == pytest.approx(-1.5j)


def test_level_above_table_rejected():
    with pytest.raises(UnsupportedLevel):
        qho_field(11)


def test_evaluation_inside_node_guard_raises():
    field = qho_field(1)  # pole at x = 0
    with pytest.raises(NodeEvaluation):
        field.value(1e-8)


def test_field_scales_with_units():
    units = UnitSystem(hbar=2.0, mass=0.5, omega=3.0)
    field = qho_field(1, units)
    x = 1.7
    expected = -1j * units.hbar * (1.0 / x) + 1j * units.mass * units.omega * x
    assert field.value(x) == pytest.approx(expected)
    # the rest point sits at the characteristic length
    assert abs(field.value(units.characteristic_length)) < 1e-12


def test_plane_wave_field_is_constant():
    k = 2.0
    field = field_from_wavefunction(lambda x: np.exp(1j * k * x))
    for x in (0.0, 0.7, -3.1):
        assert field.value(np.array([x]))[0] == pytest.approx(k, abs=1e-8)


def test_decaying_exponential_gives_imaginary_momentum():
    # bound-state profile: p comes out purely imaginary
    field = field_from_wavefunction(lambda x: np.exp(-x))
    assert field.value(np.array([3.0]))[0] == pytest.approx(1j, abs=1e-8)


def test_cross_construction_matches_closed_form():
    closed = qho_field(1)
    numeric = field_from_wavefunction(psi_level1, nodes=[0.0])
    xs = RNG.uniform(0.3, 4.0, size=100)
    a = closed.value(xs.astype(complex))
    b = numeric.value(xs)
    # relative agreement with an absolute floor where p itself crosses zero
    assert np.all(np.abs(a - b) <= 1e-9 * (1.0 + np.abs(a)))


def test_numeric_field_refuses_complex_positions():
    numeric = field_from_wavefunction(psi_level1, nodes=[0.0])
    with pytest.raises(OffAxisEvaluation):
        numeric.value(np.array([1.0 + 0.5j]))


# Sympy oracle for the closed-form oscillator fields.  p, p' and p'' are
# derived symbolically from psi_n = H_n(sqrt(a) x) exp(-a x**2/2) and
# evaluated at 40 digits.  Off-axis points are included because the
# ensemble evolves in the complex plane.  The bound is relative to |p^(k)|,
# with a floor of hbar*a**((k+1)/2), the natural size of p^(k), where
# p^(k) itself vanishes (p'' of level 0).  Observed errors stay below
# 3e-14, so 1e-12 leaves a margin for other platforms' libm.
ORACLE_REL_TOL = 1e-12
ORACLE_POINTS = np.array([0.37, 1.9, -2.6, 3.3, 0.8 + 0.45j, -1.3 + 0.9j,
                          2.2 - 0.6j, 0.05 + 1.5j, -0.6 - 2.1j])
ORACLE_UNITS = (UnitSystem(), UnitSystem(hbar=2.0, mass=0.5, omega=3.0),
                UnitSystem(hbar=0.7, mass=1.3, omega=0.4))


@pytest.mark.parametrize("level", range(11))
def test_qho_field_matches_sympy_oracle(level):
    sp = pytest.importorskip("sympy")
    mp = pytest.importorskip("mpmath")
    x, a, hbar = sp.symbols("x"), *sp.symbols("a hbar", positive=True)
    psi = sp.hermite(level, sp.sqrt(a) * x) * sp.exp(-a * x ** 2 / 2)
    p = -sp.I * hbar * sp.diff(psi, x) / psi
    exact = [sp.lambdify((x, a, hbar), sp.diff(p, x, k), "mpmath") for k in range(3)]
    for units in ORACLE_UNITS:
        field = qho_field(level, units)
        a_num = units.mass * units.omega / units.hbar
        pts = (ORACLE_POINTS * units.characteristic_length).reshape(-1, 1)
        got = (field._value_at(pts)[:, 0], field._jacobian_at(pts)[:, 0, 0],
               field._laplacian_at(pts)[:, 0])
        for k in range(3):
            floor = units.hbar * a_num ** ((k + 1) / 2)
            with mp.workdps(40):
                ref = np.array([complex(exact[k](mp.mpc(z.real, z.imag), mp.mpf(a_num),
                                                 mp.mpf(units.hbar)))
                                for z in pts[:, 0]])
            err = np.abs(got[k] - ref) / np.maximum(np.abs(ref), floor)
            assert err.max() <= ORACLE_REL_TOL, (units, k, err.max())


def test_qho_field_is_finite_far_from_the_origin():
    # Hermite values overflow at |x| = 1e40 (H_10 ~ (2x)**10); the ratio
    # recurrence never forms them.  There p ~ i*hbar*a*x.
    field = qho_field(10)
    xs = np.array([1e40, -1e40, 1e40 * (0.6 + 0.8j)])
    p = field.value(xs)
    assert np.all(np.isfinite(p))
    assert np.all(np.abs(p - 1j * xs) <= 1e-12 * np.abs(xs))
    assert np.all(np.isfinite(field.jacobian(xs)))
    assert np.all(np.isfinite(field.vector_laplacian(xs)))


@pytest.mark.parametrize("level", [2, 6, 9, 10])
def test_qho_field_at_zeros_of_lower_hermite_polynomials(level):
    # At x = 0 (even levels) and at rounded roots of H_k with k < n, a
    # partial ratio of the recurrence divides by an exact zero.
    xs = [0.0] if level % 2 == 0 else []
    for k in range(1, level):
        xs.extend(np.polynomial.hermite.hermroots(np.eye(k + 1)[k]))
    xs = np.array([x for x in xs if x != 0.0 or level % 2 == 0])
    coeffs = np.eye(level + 1)
    expected = -1j * (2.0 * level * np.polynomial.hermite.hermval(xs, coeffs[level - 1])
                      / np.polynomial.hermite.hermval(xs, coeffs[level]) - xs)
    p = qho_field(level)._value_at(xs.astype(complex).reshape(-1, 1), check=False)[:, 0]
    assert np.all(np.abs(p - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0))


def test_closed_form_derivatives_match_numeric_twin():
    closed = qho_field(1)
    twin = MomentumField(1, closed._value_fn, poles=closed.poles, holomorphic=True)
    assert twin.derivative_kind == "numeric-central-difference"
    xs = RNG.uniform(0.3, 4.0, size=50).astype(complex)
    for attr in ("divergence", "vector_laplacian"):
        a = np.atleast_1d(getattr(closed, attr)(xs))
        b = np.atleast_1d(getattr(twin, attr)(xs))
        assert np.all(np.abs(a - b) <= 1e-6 * np.maximum(np.abs(a), 1.0))


# -- energy -----------------------------------------------------------------------


def test_energy_terms_at_reference_point():
    field = qho_field(1)
    pot = harmonic_potential()
    e = energy_at(field, pot, 2.0)
    # kinetic -1.125, potential 2.0, divergence term 0.625
    p = field.value(2.0)
    assert p * p / 2.0 == pytest.approx(-1.125)
    assert pot.value(2.0) == pytest.approx(2.0)
    assert e - p * p / 2.0 - pot.value(2.0) == pytest.approx(0.625)
    assert e == pytest.approx(1.5)


def test_energy_is_position_independent_for_eigenstate():
    field = qho_field(1)
    pot = harmonic_potential()
    values = [energy_at(field, pot, x) for x in (0.3, 0.7, 1.9, 4.2)]
    for v in values:
        assert v == pytest.approx(1.5, abs=1e-10)


def test_free_particle_energy_is_classical():
    k = 1.3
    units = UnitSystem()
    field = field_from_wavefunction(lambda x: np.exp(1j * k * x))
    e = energy_at(field, zero_potential(), np.array([0.4]))[0]
    assert e == pytest.approx(units.hbar ** 2 * k ** 2 / (2 * units.mass), abs=1e-7)


def test_divergence_scale_zero_recovers_classical_energy():
    field = qho_field(1)
    pot = harmonic_potential()
    x = 1.7
    classical = energy_at(field, pot, x, divergence_scale=0.0)
    p = field.value(x)
    assert classical == p * p / 2.0 + pot.value(x)


def test_energy_scan_passes_for_matching_potential():
    report = energy_constancy_scan(qho_field(1), harmonic_potential(),
                                   (0.1, 5.0), samples=1000, tol=1e-9)
    assert report.passed
    assert report.mean_energy == pytest.approx(1.5)
    assert report.max_deviation < 1e-9


def test_energy_scan_flags_wrong_potential():
    report = energy_constancy_scan(qho_field(1), polynomial_potential([0, 0, 0, 0, 0.25]),
                                   (0.1, 5.0), samples=500, tol=1e-9)
    assert not report.passed
    assert report.max_deviation > 0.1


def test_energy_scan_rejects_degenerate_region():
    with pytest.raises(EmptyRegion):
        energy_constancy_scan(qho_field(1), harmonic_potential(), (2.0, 2.0))


@pytest.mark.parametrize("samples", [1, 0, -1])
def test_energy_scan_blames_a_bad_sample_count_not_the_region(samples):
    with pytest.raises(ValueError, match="samples") as caught:
        energy_constancy_scan(qho_field(1), harmonic_potential(), (0.1, 5.0), samples=samples)
    assert not isinstance(caught.value, EmptyRegion)


# -- curl --------------------------------------------------------------------------


def test_curl_needs_two_dimensions():
    with pytest.raises(DimensionTooLow):
        curl_residual(qho_field(1), 1.0)


def test_separable_product_field_is_curl_free():
    field = product_field([qho_field(1), qho_field(0), qho_field(2)])
    assert field.dimension == 3
    pts = np.stack([RNG.uniform(0.3, 2.5, 100),
                    RNG.uniform(-2.0, 2.0, 100),
                    RNG.uniform(0.9, 2.2, 100)], axis=1)
    for r in pts:
        assert curl_residual(field, r) < 1e-10


def test_constant_field_curl_is_exactly_zero():
    const = MomentumField(
        3, lambda pts: np.broadcast_to(np.array([1.0, 2.0, 3.0], complex),
                                       pts.shape).copy())
    assert curl_residual(const, np.array([0.3, -1.0, 2.0])) == 0.0


def test_perturbed_field_curl_residual_matches_analytic():
    eps = 1e-3
    base = product_field([qho_field(1), qho_field(0), qho_field(0)])

    def perturbed(pts):
        values = base._value_at(pts, check=False).copy()
        values[:, 0] -= eps * pts[:, 1]
        values[:, 1] += eps * pts[:, 0]
        return values

    field = MomentumField(3, perturbed, poles=base.poles, holomorphic=True)
    r = np.array([1.3, 0.4, -0.2])
    assert curl_residual(field, r) == pytest.approx(2.0 * eps, rel=1e-3)


# -- reconstruction -----------------------------------------------------------------


def test_reconstruction_ratio_between_two_points():
    samples = reconstruct_wavefunction(qho_field(1), np.array([1.0, 2.0]))
    ratio = samples.values[1] / samples.values[0]
    assert ratio == pytest.approx(2.0 * np.exp(-1.5), abs=1e-12)


def test_reconstruction_of_plane_wave():
    k, length = 1.7, 2.5
    field = MomentumField(1, lambda pts: np.full(pts.shape, k, complex), holomorphic=True)
    samples = reconstruct_wavefunction(field, np.array([0.0, length]))
    assert samples.values[1] / samples.values[0] == pytest.approx(np.exp(1j * k * length))


def test_reconstruction_matches_analytic_profile():
    path = np.linspace(0.5, 4.0, 36)
    samples = reconstruct_wavefunction(qho_field(1), path)
    target = psi_level1(path)
    anchored = samples.values * (target[0] / samples.values[0])
    assert np.all(np.abs(anchored - target) <= 1e-8 * np.abs(target))


def test_path_through_node_is_rejected():
    with pytest.raises(PathThroughNode):
        reconstruct_wavefunction(qho_field(1), np.array([-1.0, 1.0]))


def test_reconstruction_round_trip_recovers_field():
    field = qho_field(1)
    path = np.linspace(0.5, 4.0, 160)
    samples = reconstruct_wavefunction(field, path)
    rebuilt = field_from_wavefunction(wavefunction_interpolant(samples), nodes=[0.0])
    xs = path[8:-8]
    a = field.value(xs.astype(complex))
    b = rebuilt.value(xs)
    assert np.all(np.abs(a - b) <= 1e-6 * (1.0 + np.abs(a)))
