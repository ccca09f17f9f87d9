import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from momflow import (
    IntegratorConfig,
    MomentumField,
    classify_fixed_points,
    energy_at,
    evolve,
    field_from_wavefunction,
    force_at,
    harmonic_potential,
    polynomial_potential,
    product_field,
    qho_analytic_position,
    qho_field,
    stationarity_residual,
    zero_potential,
)
from momflow.core import NATURAL_UNITS, TolerancePolicy, UnitSystem
from momflow.dynamics import _TABLEAUX, NEAR_NODE, _integrate
from momflow.errors import (
    BranchAmbiguity,
    EmptyRegion,
    StepUnderflow,
    TrajectoryNearSingularity,
)

RNG = np.random.default_rng(7321)

FIELD = qho_field(1)
POT = harmonic_potential()


# -- force and consistency -------------------------------------------------------


def test_force_vanishes_at_rest_point():
    assert abs(force_at(FIELD, POT, 1.0)) < 1e-14


def test_force_at_reference_point():
    # -x + 1/x^3 at x = 2
    assert force_at(FIELD, POT, 2.0) == pytest.approx(-1.875)


def test_free_particle_feels_no_force():
    field = MomentumField(1, lambda pts: np.full(pts.shape, 1.3, complex), holomorphic=True)
    assert force_at(field, zero_potential(), 0.7) == pytest.approx(0.0)


def test_flow_satisfies_force_law_at_reference_point():
    # (p/m) dp/dx = (1.5i)(1.25i) = -1.875 = F at x = 2
    p = FIELD.value(2.0)
    dp = FIELD.jacobian(2.0)
    assert p * dp == pytest.approx(-1.875)
    assert abs(stationarity_residual(FIELD, POT, 2.0)) < 1e-12


def test_stationarity_residual_vanishes_at_random_points():
    xs = RNG.uniform(0.2, 3.0, size=100)
    res = stationarity_residual(FIELD, POT, xs.astype(complex))
    assert np.max(np.abs(res)) < 1e-9


def test_constant_field_residual_is_exactly_zero():
    field = MomentumField(1, lambda pts: np.full(pts.shape, 2.0, complex), holomorphic=True)
    assert stationarity_residual(field, zero_potential(), 0.3) == 0.0


def test_mismatched_potential_has_order_one_residual():
    quartic = polynomial_potential([0, 0, 0, 0, 0.25])
    assert abs(stationarity_residual(FIELD, quartic, 2.0)) > 0.1


# -- analytic solution -------------------------------------------------------------


def test_analytic_rest_point():
    for t in (0.0, 1.0, 7.7):
        assert qho_analytic_position(1.0, t) == pytest.approx(1.0)


def test_analytic_reference_value():
    x = qho_analytic_position(math.sqrt(2.0), math.pi / 4.0)
    assert x == pytest.approx(1.09868411346781 + 0.45508986056222733j, abs=1e-12)


def test_analytic_classical_limit():
    ts = np.linspace(0.0, 2.0 * np.pi, 2001)
    xs = qho_analytic_position(100.0, ts)
    # exact amplitude bound: 1 - sqrt(1 - 2/x0^2) = 1.0000500e-4 relative
    rel = np.abs(xs - 100.0 * np.exp(1j * ts)) / 100.0
    assert rel.max() <= 1.00006e-4
    assert rel.max() > 0.9e-4  # the wobble is really there


def test_analytic_branch_ambiguity_at_origin_crossing():
    # from sqrt(2) the squared position reaches 0 at t = pi/2
    with pytest.raises(BranchAmbiguity):
        qho_analytic_position(math.sqrt(2.0), math.pi / 2.0)


def test_analytic_branch_continues_past_principal_cut():
    # x0 = 2: u circles the origin, so naive principal sqrt would jump
    ts = np.linspace(0.0, np.pi, 4001)
    xs = qho_analytic_position(2.0, ts)
    assert np.max(np.abs(np.diff(xs))) < 0.02  # continuous track
    assert xs[-1] == pytest.approx(-2.0)  # one winding of u flips the sign of x


@pytest.mark.parametrize("eps", [5e-5, 1e-4, 2e-4])
def test_analytic_branch_after_a_close_pass_matches_rkf45(eps):
    # u = x**2 winds round the origin and passes it at |c| - L = eps, near
    # t = pi/2; a reference that follows a chord across the pass flips the
    # sign of x, here to about +1.40363 - 0.09954i
    x0 = math.sqrt(2.0 + eps)
    config = IntegratorConfig(t_end=3.0, scheme="rkf45", abs_tol=1e-12, rel_tol=1e-12)
    x = evolve(FIELD, POT, x0, config).x[-1]
    assert x.real < -1.4
    assert abs(qho_analytic_position(x0, 3.0) - x) < 1e-9


def test_analytic_branch_ambiguity_between_time_samples():
    # |u| reaches its least value, 5e-13 < node_guard**2, only at
    # 2 t = pi, which no sample of a time grid need hit
    with pytest.raises(BranchAmbiguity):
        qho_analytic_position(math.sqrt(2.0 + 5e-13), 3.0)


def test_analytic_branch_at_negative_times():
    # from sqrt(2), u = 1 + exp(2 i t) reaches 0 at t = +-pi/2 and not before
    for t in (1.5, -1.5):
        x = qho_analytic_position(math.sqrt(2.0), t)
        assert x == pytest.approx(cmath.sqrt(1.0 + cmath.exp(2j * t)))
    for t in (math.pi / 2.0, -math.pi / 2.0, [-math.pi / 2.0, 0.5]):
        with pytest.raises(BranchAmbiguity):
            qho_analytic_position(math.sqrt(2.0), t)
    # a real start runs back along the mirror image of its forward track,
    # past a close pass too
    x0 = math.sqrt(2.0 + 1e-4)
    backward = qho_analytic_position(x0, -3.0)
    assert backward.real < -1.4
    assert backward == pytest.approx(qho_analytic_position(x0, 3.0).conjugate(), abs=1e-14)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from([NATURAL_UNITS, UnitSystem(hbar=0.7, mass=1.9, omega=2.3)]),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
def test_analytic_position_follows_the_level_one_flow(units, re, im, t):
    # dx/dt = p(x)/m, by a central difference of step h.  A node guard of
    # sqrt(L)/10 keeps |x| >= sqrt(L)/10 over the span, which bounds the
    # difference's truncation error h**2 |x'''| / 6: the largest seen in
    # 20 000 uniform draws was about 3e-7 of max(1, |dx/dt|)
    h = 1e-5
    guard = TolerancePolicy(node_guard=0.1 * math.sqrt(units.hbar / (units.mass * units.omega)))
    try:
        before, x, after = qho_analytic_position(complex(re, im), [t - h, t, t + h], units, guard)
    except BranchAmbiguity:
        assume(False)
    velocity = qho_field(1, units).value(x) / units.mass
    assert abs((after - before) / (2.0 * h) - velocity) <= 1e-6 * max(1.0, abs(velocity))


# -- evolve -------------------------------------------------------------------------


def test_rest_point_stays_exactly_still():
    config = IntegratorConfig(t_end=10.0, dt=1e-3)
    traj = evolve(FIELD, POT, 1.0, config)
    assert np.max(np.abs(traj.x - 1.0)) < 1e-12


def test_rk4_matches_analytic_solution():
    config = IntegratorConfig(t_end=0.7853, dt=1e-4)
    traj = evolve(FIELD, POT, math.sqrt(2.0), config)
    reference = qho_analytic_position(math.sqrt(2.0), traj.times)
    assert np.max(np.abs(traj.x - reference)) < 1e-6


def test_rk4_convergence_is_fourth_order():
    errors = {}
    for dt in (8e-3, 4e-3, 2e-3, 1e-3):
        config = IntegratorConfig(t_end=0.78, dt=dt)
        traj = evolve(FIELD, POT, math.sqrt(2.0), config)
        reference = qho_analytic_position(math.sqrt(2.0), traj.times)
        errors[dt] = np.max(np.abs(traj.x - reference))
    dts = sorted(errors, reverse=True)
    exponents = [math.log(errors[a] / errors[b]) / math.log(a / b)
                 for a, b in zip(dts, dts[1:])]
    for exponent in exponents:
        assert 3.7 <= exponent <= 4.3


def test_rkf45_matches_analytic_solution():
    config = IntegratorConfig(t_end=0.7853, scheme="rkf45", dt=1e-3)
    traj = evolve(FIELD, POT, math.sqrt(2.0), config)
    reference = qho_analytic_position(math.sqrt(2.0), traj.times)
    assert np.max(np.abs(traj.x - reference)) < 1e-6
    assert traj.step_sizes is not None and len(traj.step_sizes) == len(traj) - 1


@pytest.mark.parametrize("scheme", ["rk4", "rkf45"])
def test_evolve_keeps_one_time_and_one_step_size_per_step(scheme):
    # 0.7853 is not a multiple of 1e-2, so the last rk4 step is a short one.
    # 16.0055 / 7e-4 rounds to just above 22865: 22865 steps, the last one
    # landing on t_end, and no grid interval split in two.
    for t_end, dt, x0, n in [(0.7853, 1e-2, math.sqrt(2.0), 79), (16.0055, 7e-4, 1.3, 22865)]:
        config = IntegratorConfig(t_end=t_end, scheme=scheme, dt=dt)
        traj = evolve(FIELD, POT, x0, config)
        assert len(traj.step_sizes) == len(traj.times) - 1
        assert traj.times[0] == 0.0 and traj.times[-1] == config.t_end
        assert np.allclose(np.diff(traj.times), traj.step_sizes,
                           rtol=0.0, atol=1e-15 * max(1.0, t_end))
        if scheme == "rk4":
            grid = np.arange(n + 1) * dt
            grid[-1] = t_end
            assert traj.times.tobytes() == grid.tobytes()


def test_momentum_is_slaved_to_field():
    config = IntegratorConfig(t_end=0.5, dt=1e-3)
    traj = evolve(FIELD, POT, math.sqrt(2.0), config)
    expected = FIELD.value(traj.positions[:, 0])
    assert np.max(np.abs(traj.momenta[:, 0] - expected)) == 0.0


def test_energy_constant_along_trajectory():
    config = IntegratorConfig(t_end=1.2, dt=1e-3)
    traj = evolve(FIELD, POT, math.sqrt(2.0), config)
    energies = energy_at(FIELD, POT, traj.positions)
    assert np.max(np.abs(energies - 1.5)) < 1e-8


def test_rk4_evolve_makes_four_field_calls_per_step():
    calls = []

    def value(pts):
        calls.append(pts.shape[0])
        return FIELD._value_at(pts, check=False)

    field = MomentumField(1, value, poles=FIELD.poles, holomorphic=True)
    traj = evolve(field, POT, math.sqrt(2.0), IntegratorConfig(t_end=0.1, dt=1e-2))
    assert len(traj) == 11
    assert calls == [1] * 40 + [11]  # four per step, then every stored momentum at once


def test_rkf45_evolve_makes_six_field_calls_per_round():
    calls = []

    def value(pts):
        calls.append(pts.shape[0])
        return FIELD._value_at(pts, check=False)

    field = MomentumField(1, value, poles=FIELD.poles, holomorphic=True)
    # the first proposal, dt_max, fails the tolerance, so rejected rounds run too
    config = IntegratorConfig(t_end=0.5, scheme="rkf45", dt=0.1, abs_tol=1e-12, rel_tol=1e-12)
    traj = evolve(field, POT, math.sqrt(2.0), config)
    rounds, rest = divmod(len(calls) - 1, 6)
    assert rest == 0 and rounds > len(traj) - 1
    # six per attempted round, then every stored momentum at once
    assert calls == [1] * (6 * rounds) + [len(traj)]


@pytest.mark.parametrize("scheme", ["rk4", "rkf45"])
@pytest.mark.parametrize("field, x0", [
    (qho_field(1), [[1.3], [0.9], [0.02]]),
    (qho_field(2), [[1.3], [0.9], [0.72]]),
    (qho_field(3), [[1.5], [0.6], [1.23]]),
    (product_field([qho_field(1), qho_field(2)]), [[1.3, 1.2], [0.9, 1.5], [0.02, 1.0]]),
], ids=["level-1", "level-2", "level-3", "product-1x2"])
def test_a_stepping_run_enters_one_errstate(monkeypatch, field, x0, scheme):
    # The stepper holds one np.errstate for the whole run and calls the
    # field's value function directly; going through _value_at, which holds
    # its own, would enter one per stage.  The last member retires near a
    # pole, so the retiring path runs too.
    entries = []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entries.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    config = IntegratorConfig(t_end=0.2, dt=1e-2, scheme=scheme)
    _, _, reason, steps = _integrate(field, np.array(x0, dtype=complex), config,
                                     np.linspace(0.0, 0.2, 5), NATURAL_UNITS)
    assert steps >= 4 and reason[-1] == NEAR_NODE
    assert len(entries) == 1


def test_evolve_starts_from_exactly_one_position():
    config = IntegratorConfig(t_end=0.1, dt=1e-2)
    traj = evolve(FIELD, POT, 1.3, config)
    for x0 in ([1.3], [[1.3]]):
        assert np.array_equal(evolve(FIELD, POT, x0, config).positions, traj.positions)
    with pytest.raises(ValueError, match="one position"):
        evolve(FIELD, POT, [1.3, 1.5], config)
    with pytest.raises(ValueError):
        evolve(FIELD, POT, [[1.3, 1.5]], config)


def test_trajectory_into_node_halts_with_partial_result():
    # from sqrt(2) the track reaches the pole at x = 0 at t = pi/2
    config = IntegratorConfig(t_end=2.0, dt=1e-3)
    with pytest.raises(TrajectoryNearSingularity) as info:
        evolve(FIELD, POT, math.sqrt(2.0), config)
    partial = info.value.trajectory
    assert partial is not None
    assert 1.4 < partial.times[-1] <= math.pi / 2.0


def test_adaptive_step_underflow_is_reported():
    config = IntegratorConfig(t_end=1.0, scheme="rkf45", dt=0.5,
                              abs_tol=1e-13, rel_tol=1e-13, dt_min=0.2, dt_max=0.5)
    with pytest.raises(StepUnderflow):
        evolve(FIELD, POT, math.sqrt(2.0), config)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, dt=-0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, scheme="euler")
    for settings, key in [
        ({"t_end": np.inf}, "t_end"), ({"t_end": np.nan}, "t_end"), ({"dt": np.inf}, "dt"),
        ({"scheme": "rkf45", "abs_tol": -1.0}, "abs_tol"),
        ({"scheme": "rkf45", "rel_tol": np.nan}, "rel_tol"),
        ({"scheme": "rkf45", "abs_tol": np.inf}, "abs_tol"),
        ({"scheme": "rkf45", "abs_tol": 0.0, "rel_tol": 0.0}, "abs_tol and rel_tol"),
    ]:
        with pytest.raises(ValueError, match=key):
            IntegratorConfig(**{"t_end": 1.0, **settings})
    # either tolerance alone may be 0
    IntegratorConfig(t_end=1.0, scheme="rkf45", abs_tol=0.0)
    IntegratorConfig(t_end=1.0, scheme="rkf45", rel_tol=0.0)


# -- the Butcher tableaux -----------------------------------------------------------


def _rooted_trees(order):
    """The rooted trees with ``order`` vertices, each the sorted tuple of its root's subtrees."""
    if order == 1:
        return [()]
    trees = set()
    for size in range(1, order):
        for child in _rooted_trees(size):
            for rest in _rooted_trees(order - size):
                trees.add(tuple(sorted(rest + (child,))))
    return sorted(trees)


def _order_defects(a, b, order):
    """|b . Phi(t) - 1/gamma(t)| for each rooted tree t with ``order`` vertices
    (Hairer, Norsett & Wanner, Solving ODEs I, II.2), with c = A 1."""
    def phi(tree):  # the stage vector of the tree's elementary weight
        g = np.ones(len(b))
        for child in tree:
            g = g * (a @ phi(child))
        return g

    def size(tree):
        return 1 + sum(size(child) for child in tree)

    def gamma(tree):
        return size(tree) * math.prod(gamma(child) for child in tree)

    return [abs(b @ phi(tree) - 1.0 / gamma(tree)) for tree in _rooted_trees(order)]


def _butcher(name):
    """(A, b, e) of a tableau: stage matrix, propagation weights, error weights."""
    stages, update, error, divisor = _TABLEAUX[name]
    s = len(stages) + 1
    a = np.zeros((s, s))
    for row, plan in enumerate(stages, 1):
        assert all(0 <= i < row for i, _ in plan)  # explicit: each stage reads earlier ones
        for i, w in plan:
            a[row, i] = w

    def weights(plan):
        out = np.zeros(s)
        for i, w in plan:
            out[i] = w
        return out / (divisor or 1.0)

    return a, weights(update), weights(error)


@pytest.mark.parametrize("name, nodes", [
    ("rk4", [0.0, 0.5, 0.5, 1.0]),
    ("rkf45", [0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2]),
], ids=["rk4", "rkf45"])
def test_tableau_meets_its_order_conditions(name, nodes):
    # The conditions hold to rounding; a mistyped weight misses by far more.
    a, b, err = _butcher(name)
    assert np.allclose(a.sum(axis=1), nodes, rtol=0.0, atol=1e-15)  # the textbook nodes
    fourth = [d for k in range(1, 5) for d in _order_defects(a, b, k)]
    assert len(fourth) == 8 and max(fourth) < 1e-14
    if name == "rkf45":
        # b4 + err is Fehlberg's 5th-order solution: all 17 conditions up to
        # order 5, while b4 alone misses some of the 9 of order 5
        fifth = [d for k in range(1, 6) for d in _order_defects(a, b + err, k)]
        assert len(fifth) == 17 and max(fifth) < 1e-14
        assert max(_order_defects(a, b, 5)) > 1e-4
        assert abs(err.sum()) < 1e-17
    else:
        assert not err.any()


# -- fixed points --------------------------------------------------------------------


def test_level1_has_single_rest_point_at_unit_length():
    roots = classify_fixed_points(FIELD, POT, (0.2, 3.0))
    assert len(roots) == 1
    x, residual = roots[0]
    assert x == pytest.approx(1.0, abs=1e-10)
    assert residual < 1e-9


def test_plane_wave_has_no_fixed_points():
    field = field_from_wavefunction(lambda x: np.exp(1j * 2.0 * x))
    assert classify_fixed_points(field, zero_potential(), (0.0, 3.0)) == []


def test_level2_fixed_points_match_log_derivative_roots():
    # p_2(x) = -i*(8x/(4x^2 - 2) - x): roots in (0.05, 4] at sqrt(5/2) only
    roots = classify_fixed_points(qho_field(2), POT, (0.05, 4.0))
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(math.sqrt(2.5), abs=1e-9)
    assert roots[0][1] < 1e-9


@pytest.mark.parametrize("level", range(11))
def test_rest_points_are_the_real_roots_of_the_log_derivative_numerator(level):
    # psi_n'/psi_n = (2n H_{n-1}(x) - x H_n(x)) / H_n(x) in natural units, so
    # the rest points are the n + 1 real roots of the numerator, here from
    # numpy.polynomial and polished by Newton's method.  The scan grid over
    # (-6, 6) holds the root at 0 of the even levels as a sample.
    hermite = np.polynomial.Hermite
    numerator = (2 * level * hermite.basis(level - 1) if level else 0) \
        - hermite([0.0, 0.5]) * hermite.basis(level)
    expected = np.sort(numerator.roots().real)
    slope = numerator.deriv()
    for _ in range(4):
        expected = expected - numerator(expected) / slope(expected)
    found = np.array([x for x, _ in classify_fixed_points(qho_field(level), POT, (-6.0, 6.0))])
    assert len(found) == level + 1
    # within 4 ulp, an ulp taken at |x| >= 0.25 so that the root at 0 has a bound
    assert np.all(np.abs(found - expected) <= 4 * np.spacing(np.maximum(np.abs(expected), 0.25)))


@pytest.mark.parametrize("samples", [2, 1, 0, -1])
def test_fixed_point_scan_blames_a_bad_sample_count_not_the_region(samples):
    with pytest.raises(ValueError, match="samples") as caught:
        classify_fixed_points(qho_field(2), POT, (0.1, 3.0), samples=samples)
    assert not isinstance(caught.value, EmptyRegion)


def test_fixed_point_scan_rejects_degenerate_region():
    with pytest.raises(EmptyRegion):
        classify_fixed_points(qho_field(2), POT, (3.0, 0.1))
