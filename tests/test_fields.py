import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from momflow import (
    EnsembleSpec,
    IntegratorConfig,
    MomentumField,
    SeedSpec,
    UnitSystem,
    curl_residual,
    energy_at,
    energy_constancy_scan,
    evolve_ensemble,
    field_from_wavefunction,
    force_at,
    harmonic_potential,
    polynomial_potential,
    product_field,
    qho_field,
    reconstruct_wavefunction,
    separable_potential,
    stationarity_residual,
    uniform_distribution,
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
from momflow.fields import _energy

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
# p^(k) itself vanishes (p'' of level 0).  The largest errors seen are
# 2.7e-14 for p, 7.7e-14 for p' and 2.0e-13 for p'' (level 9, from p and
# p'), so 1e-12 leaves a margin of 5 for other platforms' libm.
ORACLE_REL_TOL = 1e-12
ORACLE_POINTS = np.array([0.37, 1.9, -2.6, 3.3, 0.8 + 0.45j, -1.3 + 0.9j,
                          2.2 - 0.6j, 0.05 + 1.5j, -0.6 - 2.1j])
ORACLE_UNITS = (UnitSystem(), UnitSystem(hbar=2.0, mass=0.5, omega=3.0),
                UnitSystem(hbar=0.7, mass=1.3, omega=0.4))


def oracle_errors(level, units, pts, got):
    """Relative errors of (order k, values) pairs in ``got`` at the (n, 1) ``pts``.

    The reference is the k-th derivative of p, evaluated at 40 digits.
    """
    sp = pytest.importorskip("sympy")
    mp = pytest.importorskip("mpmath")
    x, a, hbar = sp.symbols("x"), *sp.symbols("a hbar", positive=True)
    psi = sp.hermite(level, sp.sqrt(a) * x) * sp.exp(-a * x ** 2 / 2)
    p = -sp.I * hbar * sp.diff(psi, x) / psi
    a_num = units.mass * units.omega / units.hbar
    refs = {}
    for k in sorted({k for k, _values in got}):
        exact = sp.lambdify((x, a, hbar), sp.diff(p, x, k), "mpmath")
        with mp.workdps(40):
            refs[k] = np.array([complex(exact(mp.mpc(z.real, z.imag), mp.mpf(a_num),
                                              mp.mpf(units.hbar)))
                                for z in pts[:, 0]])
    return [(k, np.abs(values - refs[k])
             / np.maximum(np.abs(refs[k]), units.hbar * a_num ** ((k + 1) / 2)))
            for k, values in got]


@pytest.mark.parametrize("level", range(11))
def test_qho_field_matches_sympy_oracle(level):
    for units in ORACLE_UNITS:
        field = qho_field(level, units)
        pts = (ORACLE_POINTS * units.characteristic_length).reshape(-1, 1)
        pair_p, pair_jac = field._jacobian_at(pts)
        # (order k, values): the pair's p is checked as well as the value's
        got = ((0, field._value_at(pts)[:, 0]), (0, pair_p[:, 0]), (1, pair_jac[:, 0, 0]),
               (2, field._laplacian_at(pts)[2][:, 0]))
        for k, err in oracle_errors(level, units, pts, got):
            assert err.max() <= ORACLE_REL_TOL, (units, k, err.max())


# At a distance d from a pole, rounding x**2 alone moves p by about
# eps * |x| / d relative, so the bound scales as 1/d.  Over levels 1-10,
# the units of ORACLE_UNITS and d = 1e-1, 1e-2 and 1e-4 characteristic
# lengths, on and off the real axis, the largest error seen is
# 3.5e-15 / d for p' and 1.8e-15 / d for p (level 9 at d = 1e-4), so
# 1e-14 / d leaves a margin of 2.8.
NEAR_POLE_REL_TOL = 1e-14
NEAR_POLE_DISTANCES = (1e-1, 1e-2, 1e-4)


@pytest.mark.parametrize("level", range(1, 11))
def test_qho_field_near_its_poles_matches_sympy_oracle(level):
    for units in ORACLE_UNITS:
        field = qho_field(level, units)
        for distance in NEAR_POLE_DISTANCES:
            d = distance * units.characteristic_length
            pts = np.array([loc + d * step for _axis, loc in field.poles
                            for step in (1, -1, 1j, -1j)]).reshape(-1, 1)
            pair_p, pair_jac = field._jacobian_at(pts)
            got = ((0, field._value_at(pts)[:, 0]), (0, pair_p[:, 0]), (1, pair_jac[:, 0, 0]))
            for k, err in oracle_errors(level, units, pts, got):
                assert err.max() <= NEAR_POLE_REL_TOL / distance, (units, distance, k, err.max())


@pytest.mark.parametrize("level", range(11))
def test_pole_list_is_antisymmetric_and_matches_sympy_roots(level):
    # The poles of level n are the zeros of H_n(sqrt(a) x).  Negating the
    # list must give it back bit for bit, with an exact 0.0 for odd n, or
    # a start at -x0 would not give the negated trajectory.  Against
    # sympy's roots at 30 digits the largest error seen is 6.9 ulp of
    # max(|root|, 1) (level 9), so 16 ulp leaves a margin of 2.
    sp = pytest.importorskip("sympy")
    units = UnitSystem(hbar=0.7, mass=1.3, omega=0.4)
    poles = np.array([loc for _axis, loc in qho_field(level, units).poles])
    assert np.array_equal(poles, -poles[::-1]) and np.all(np.diff(poles) > 0)
    if level % 2:
        middle = poles[level // 2]
        assert middle == 0.0 and not np.signbit(middle)
    x = sp.Symbol("x")
    roots = sorted(float(sp.re(r)) for r in sp.Poly(sp.hermite(level, x), x).nroots(n=30))
    exact = np.array(roots) * units.characteristic_length
    scale = np.maximum(np.abs(exact), units.characteristic_length)
    assert np.all(np.abs(poles - exact) <= 16 * np.finfo(float).eps * scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_qho_field_is_finite_far_from_the_origin():
    # The rational form's polynomials overflow at |x| = 1e40 (u**5 = x**10
    # at level 10); those entries fall back to the ratio recurrence, which
    # never forms H_n.  There p ~ i*hbar*a*x.  The overflow stays silent in
    # every evaluation that goes through the field.
    field = qho_field(10)
    xs = np.array([1e40, -1e40, 1e40 * (0.6 + 0.8j)])
    p = field.value(xs)
    assert np.all(np.isfinite(p))
    assert np.all(np.abs(p - 1j * xs) <= 1e-12 * np.abs(xs))
    assert np.all(np.isfinite(field.jacobian(xs)))
    assert np.all(np.isfinite(field.vector_laplacian(xs)))
    potential = harmonic_potential()
    assert np.all(np.isfinite(energy_at(field, potential, xs)))
    assert np.all(np.isfinite(force_at(field, potential, xs)))
    assert np.all(np.isfinite(stationarity_residual(field, potential, xs)))


@pytest.mark.parametrize("level", [2, 6, 9, 10])
def test_qho_field_at_zeros_of_lower_hermite_polynomials(level):
    # At x = 0 (even levels) and at rounded roots of H_k with k < n, a
    # partial ratio of the recurrence would divide by an exact zero; the
    # rational form divides only by H_n, which is not zero there.
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


# Real points on both sides of the level-1 node, where both constructions
# are defined; p crosses zero at x = +-1.
WAVEFUNCTION_POINTS = np.array([0.3, 0.7, 1.0, 1.5, 2.2, 3.1, 4.0, -0.5, -1.9, -3.6])


def test_wavefunction_field_reports_numeric_derivatives():
    # the Jacobian is Richardson differences of the Richardson gradient: the
    # largest error seen is 1.4e-6 relative to max(|p'|, 1), so 1e-5 leaves
    # a margin of 7
    field = field_from_wavefunction(psi_level1, nodes=[0.0])
    assert field.derivative_kind == "numeric-central-difference"
    expected = qho_field(1).jacobian(WAVEFUNCTION_POINTS.astype(complex))
    err = np.abs(field.jacobian(WAVEFUNCTION_POINTS) - expected) / np.maximum(np.abs(expected), 1.0)
    assert err.max() <= 1e-5, err.max()


def test_wavefunction_field_nodes_become_axis_location_pairs():
    # A scalar node marks axis 0; MomentumField makes every pair (int, float).
    poles = field_from_wavefunction(psi_level1, nodes=[1, np.float64(2.0), (0, 3.0)]).poles
    assert poles == ((0, 1.0), (0, 2.0), (0, 3.0))
    assert all(type(axis) is int and type(loc) is float for axis, loc in poles)


def test_a_pole_axis_outside_the_field_is_refused():
    # axis 2 does not exist in 2-D, and axis -1 would read the last axis
    with pytest.raises(ValueError, match="pole axes"):
        field_from_wavefunction(lambda pts: pts[:, 0], nodes=[(2, 0.0)], dimension=2)
    with pytest.raises(ValueError, match="pole axes"):
        MomentumField(1, qho_field(1)._value_fn, poles=[(-1, 0.3)])


def test_a_closed_and_numeric_product_matches_its_factors_bit_for_bit():
    # Each axis of the product is its factor's own jet: the closed-form
    # oscillator on axis 0 and Richardson differences of a Gaussian on
    # axis 1.  One numeric factor makes the product numeric.
    closed = qho_field(2)
    numeric = field_from_wavefunction(lambda x: np.exp(-0.5 * x * x))
    field = product_field([closed, numeric])
    assert field.derivative_kind == "numeric-central-difference"
    pts = np.stack([WAVEFUNCTION_POINTS, np.linspace(-3.0, 2.0, WAVEFUNCTION_POINTS.size)],
                   axis=1).astype(complex)
    jac, lap = field.jacobian(pts), field.vector_laplacian(pts)
    assert np.all(jac[:, 0, 1] == 0) and np.all(jac[:, 1, 0] == 0)
    for k, factor in enumerate((closed, numeric)):
        assert np.array_equal(jac[:, k, k], factor.jacobian(pts[:, k]))
        assert np.array_equal(lap[:, k], factor.vector_laplacian(pts[:, k]))


def test_two_dimensional_wavefunction_field_matches_the_product_field():
    # psi = x exp(-(x**2 + y**2)/2) is the level (1, 0) product state; its
    # gradient comes from Richardson differences along each axis.  The
    # largest error seen is 1.6e-11 relative to max(|p|, 1), so 1e-10
    # leaves a margin of 6.
    field = field_from_wavefunction(
        lambda pts: pts[:, 0] * np.exp(-0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)),
        nodes=[(0, 0.0)], dimension=2)
    pts = np.stack([WAVEFUNCTION_POINTS, np.linspace(-3.0, 2.0, WAVEFUNCTION_POINTS.size)], axis=1)
    expected = product_field([qho_field(1), qho_field(0)]).value(pts.astype(complex))
    got = field.value(pts)
    assert got.shape == expected.shape == pts.shape
    err = np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)
    assert err.max() <= 1e-10, err.max()


# -- evaluator shapes -------------------------------------------------------------

_FIELD_2D = product_field([qho_field(1), qho_field(2)])
_FIELD_3D = product_field([qho_field(1), qho_field(0), qho_field(2)])
_POT_2D = separable_potential([harmonic_potential()] * 2)
_POT_3D = separable_potential([harmonic_potential()] * 3)

# (field, potential, r, leading shape); a leading shape of None is a lone value
_SHAPE_CASES = {
    "1-D scalar": (qho_field(2), harmonic_potential(), 0.7, None),
    "1-D (2,)": (qho_field(2), harmonic_potential(), np.array([0.7, 1.9]), (2,)),
    "1-D (1,)": (qho_field(2), harmonic_potential(), np.array([0.7]), (1,)),
    "1-D (2, 1)": (qho_field(2), harmonic_potential(), np.array([[0.7], [1.9]]), (2,)),
    "2-D point": (_FIELD_2D, _POT_2D, np.array([0.7, 1.9]), None),
    "2-D (2, 2)": (_FIELD_2D, _POT_2D, np.array([[0.7, 1.9], [1.2, 2.5]]), (2,)),
    "3-D point": (_FIELD_3D, _POT_3D, np.array([0.7, 0.4, 1.9]), None),
}
# evaluator -> (call, trailing shape of one d-D result, result is a real distance)
_SCALAR, _VECTOR = (lambda d: ()), (lambda d: (d,))
_EVALUATORS = {
    "value": (lambda f, u, r: f.value(r), _VECTOR, False),
    "jacobian": (lambda f, u, r: f.jacobian(r), lambda d: (d, d), False),
    "divergence": (lambda f, u, r: f.divergence(r), _SCALAR, False),
    "vector_laplacian": (lambda f, u, r: f.vector_laplacian(r), _VECTOR, False),
    "curl": (lambda f, u, r: f.curl(r), lambda d: () if d == 2 else (3,), False),
    "pole_distance": (lambda f, u, r: f.pole_distance(r), _SCALAR, True),
    "potential.value": (lambda f, u, r: u.value(r), _SCALAR, False),
    "potential.gradient": (lambda f, u, r: u.gradient(r), _VECTOR, False),
    "energy_at": (lambda f, u, r: energy_at(f, u, r), _SCALAR, False),
    "force_at": (lambda f, u, r: force_at(f, u, r), _VECTOR, False),
    "stationarity_residual": (lambda f, u, r: stationarity_residual(f, u, r), _VECTOR, False),
}


@pytest.mark.parametrize("evaluator", sorted(_EVALUATORS))
@pytest.mark.parametrize("case", list(_SHAPE_CASES))
def test_evaluator_result_shape_follows_the_input(case, evaluator):
    field, pot, r, lead = _SHAPE_CASES[case]
    call, trailing, real = _EVALUATORS[evaluator]
    d = field.dimension
    if evaluator == "curl" and d == 1:
        with pytest.raises(DimensionTooLow):
            call(field, pot, r)
        return
    # a 1-D scalar or 1-D array has no component axis, so neither has its result
    trailing = () if d == 1 and np.ndim(r) < 2 else trailing(d)
    got = call(field, pot, r)
    if lead is None and not trailing:
        assert type(got) is (float if real else complex)
        return
    assert isinstance(got, np.ndarray)
    assert got.shape == (lead or ()) + trailing
    assert got.dtype == (np.float64 if real else np.complex128)


def test_ensemble_energies_equal_energy_at():
    units = UnitSystem(hbar=2.0, mass=0.7, omega=1.3)
    field, pot = qho_field(1, units), harmonic_potential(units)
    spec = EnsembleSpec(count=300, region=(1.0, 2.5), distribution=uniform_distribution(),
                        seed=SeedSpec(17), integrator=IntegratorConfig(t_end=0.5, dt=1e-2),
                        snapshots=6)
    result = evolve_ensemble(field, pot, spec, units)
    assert np.all(np.isnan(result.termination_time))
    start = energy_at(field, pot, result.positions[0], units)
    for s in range(spec.snapshots):
        alive = result.alive_at(s)
        drift = np.abs(energy_at(field, pot, result.positions[s], units) - start)[alive].max()
        assert result.energy_drift[s].tobytes() == drift.tobytes()
    assert result.energy_drift[-1] > 0.0


def test_potential_of_another_dimension_is_refused():
    field = product_field([qho_field(1), qho_field(1)])
    r = np.array([1.5, 2.0])
    assert energy_at(field, separable_potential([harmonic_potential()] * 2), r) == \
        pytest.approx(3.0)
    spec = EnsembleSpec(count=4, region=((1.0, 2.0), (1.5, 2.5)),
                        distribution=uniform_distribution(), seed=SeedSpec(3),
                        integrator=IntegratorConfig(t_end=0.1, dt=1e-2))
    calls = {
        "energy_at": lambda u: energy_at(field, u, r),
        "force_at": lambda u: force_at(field, u, r),
        "stationarity_residual": lambda u: stationarity_residual(field, u, r),
        # without energies only the check before stepping sees the potential
        "evolve_ensemble": lambda u: evolve_ensemble(field, u, spec, record_energy=False),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match="1-D potential, 2-D field"):
            call(harmonic_potential())
    with pytest.raises(ValueError, match="2-D potential, 1-D field"):
        energy_constancy_scan(qho_field(1), _POT_2D, (0.5, 2.0), samples=10)


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


def test_energy_and_stationarity_make_one_field_call():
    # p comes with its Jacobian, and with its Laplacian too where the force
    # law needs it, from one kernel pass, so none reads value: the scan
    # reports the momenta its energies were computed from
    field, pot = qho_field(2), harmonic_potential()
    calls = {}

    def spy(name, fn):
        def counted(pts):
            calls[name] = calls.get(name, 0) + 1
            return fn(pts)
        return counted

    field._value_fn = spy("value", field._value_fn)
    field._jacobian_fn = spy("jacobian", field._jacobian_fn)
    field._laplacian_fn = spy("laplacian", field._laplacian_fn)
    xs = np.linspace(0.3, 2.5, 7).astype(complex)
    evaluations = {
        "energy_at": (lambda: energy_at(field, pot, xs), "jacobian"),
        "force_at": (lambda: force_at(field, pot, xs), "laplacian"),
        "stationarity_residual": (lambda: stationarity_residual(field, pot, xs), "laplacian"),
        "energy_constancy_scan": (
            lambda: energy_constancy_scan(field, pot, (0.3, 2.5), samples=7), "jacobian"),
    }
    for name, (evaluate, evaluator) in evaluations.items():
        calls.clear()
        result = evaluate()
        assert calls == {evaluator: 1}, name
    assert np.array_equal(result.momenta, field.value(result.points))  # the scan's


@pytest.mark.parametrize("evaluate", [energy_at, force_at, stationarity_residual],
                         ids=["energy_at", "force_at", "stationarity_residual"])
def test_a_product_field_evaluation_enters_one_errstate(monkeypatch, evaluate):
    # The product's evaluator holds the one errstate and composes its
    # factors' jets under it, which enter none of their own.
    entries = []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entries.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    pts = np.array([[0.7, -1.1, 1.9], [1.3, 0.4, 0.6 + 0.2j]])
    result = evaluate(_FIELD_3D, _POT_3D, pts)
    assert result.shape[0] == 2 and np.all(np.isfinite(result))
    assert len(entries) == 1


ALLOC_POINTS = 10_000
_ALLOC_PTS = (np.linspace(0.5, 3.0, ALLOC_POINTS) + 0.01j).reshape(-1, 1)


def traced_peak(fn):
    """Peak bytes allocated by the second call of ``fn``, the first having warmed it."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def arrays_and_mask(count):
    """Bytes of ``count`` complex (n,) arrays and one bool (n,) mask, at ALLOC_POINTS.

    The mask, made only where the kernel falls back to the recurrence, also
    covers the array headers and the few small objects of a call.
    """
    return count * 16 * ALLOC_POINTS + ALLOC_POINTS


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_low_level_value_call_allocates_two_arrays_and_a_mask(level):
    field = qho_field(level)
    assert traced_peak(lambda: field._value_at(_ALLOC_PTS, check=False)) <= arrays_and_mask(2)


@pytest.mark.parametrize("level", range(11))
def test_the_energy_pass_allocates_at_most_six_arrays(level):
    field, pot = qho_field(level), harmonic_potential()
    peak = traced_peak(lambda: _energy(field, pot, _ALLOC_PTS, UnitSystem()))
    assert peak <= arrays_and_mask(6)


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
    spline = CubicSpline(samples.path.real, samples.values)
    rebuilt = field_from_wavefunction(lambda x: spline(x.real), nodes=[0.0])
    xs = path[8:-8]
    a = field.value(xs.astype(complex))
    b = rebuilt.value(xs)
    assert np.all(np.abs(a - b) <= 1e-6 * (1.0 + np.abs(a)))
