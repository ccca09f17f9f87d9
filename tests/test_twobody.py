import math

import numpy as np
import pytest

from momflow import (
    MomentumHistory,
    RotationMomentum,
    SpinningPairParams,
    bound_energy,
    component_product,
    coulomb_interaction,
    coupled_acceleration_residual,
    delta_e,
    force_norm_invariant,
    matrix_delta_e,
    rotation_matrix,
    spinning_pair,
    spinning_pair_history,
    stencil_derivative,
    total_momentum_drift,
)
from momflow.errors import (
    ComponentNearZero,
    NonuniformSampling,
    SingularMomentumMatrix,
    TooFewSamples,
)

PAIR = SpinningPairParams(radius=1.0, gamma=2.0, mass=1.0)


def constant_history(c1, c2, samples=100, dt=1e-3):
    ts = dt * np.arange(samples)
    p1 = np.tile(np.asarray(c1, complex), (samples, 1))
    p2 = np.tile(np.asarray(c2, complex), (samples, 1))
    return MomentumHistory(ts, p1, p2)


def phase_pair_history(c1, c2, beta, samples=1000, dt=1e-3):
    # counter-rotating complex phases: the component product is constant
    ts = dt * np.arange(samples)
    p1 = (np.asarray(c1, complex)[None, :] * np.exp(1j * beta * ts)[:, None])
    p2 = (np.asarray(c2, complex)[None, :] * np.exp(-1j * beta * ts)[:, None])
    return MomentumHistory(ts, p1, p2)


# -- history validation ----------------------------------------------------------


def test_history_needs_five_samples():
    ts = np.arange(4) * 0.1
    with pytest.raises(TooFewSamples):
        MomentumHistory(ts, np.ones((4, 1)), np.ones((4, 1)))


def test_history_needs_uniform_spacing():
    ts = np.array([0.0, 0.1, 0.2, 0.35, 0.4])
    with pytest.raises(NonuniformSampling):
        MomentumHistory(ts, np.ones((5, 1)), np.ones((5, 1)))


def test_stencil_first_derivative_is_fourth_order():
    def err(dt):
        ts = dt * np.arange(64)
        values = np.exp(1.7j * ts)[:, None]
        exact = 1.7j * values
        return np.abs(stencil_derivative(values, dt, 1) - exact).max()

    exponent = math.log(err(4e-3) / err(2e-3)) / math.log(2.0)
    assert 3.6 <= exponent <= 4.4


def test_stencil_second_derivative_interior_is_fourth_order():
    # the one-sided edge rows are one order lower, so measure the interior
    def err(dt):
        ts = dt * np.arange(64)
        values = np.exp(1.7j * ts)[:, None]
        exact = -(1.7 ** 2) * values
        return np.abs(stencil_derivative(values, dt, 2) - exact)[2:-2].max()

    exponent = math.log(err(4e-2) / err(2e-2)) / math.log(2.0)
    assert 3.6 <= exponent <= 4.4


def test_stencil_matches_closed_form_on_spinning_pair():
    def err(dt):
        numeric = spinning_pair_history(PAIR, dt=dt, samples=200,
                                        closed_form_derivatives=False)
        exact = spinning_pair_history(PAIR, dt=dt, samples=200)
        return np.abs(numeric.first_derivative(1) - exact.first_derivative(1)).max()

    exponent = math.log(err(2e-3) / err(1e-3)) / math.log(2.0)
    assert 3.6 <= exponent <= 4.4


# -- spinning pair ----------------------------------------------------------------


def test_spinning_pair_at_time_zero():
    params = SpinningPairParams(radius=2.0, gamma=1.0, mass=1.0)  # m R gamma = 2
    p1, p2 = spinning_pair(params, 0.0)
    assert np.allclose(p1, [-2.0, 0.0])
    assert np.allclose(p2, [2.0, 0.0])


def test_spinning_pair_conserves_total_momentum():
    # centered pair: the rotating parts cancel exactly in floats
    p1, p2 = spinning_pair(PAIR, np.linspace(0.0, 9.0, 400))
    assert np.max(np.abs(p1 + p2)) == 0.0
    # offset pair: cancellation up to one rounding of the offset adds
    params = SpinningPairParams(radius=1.3, gamma=0.7, p1_0=(0.2, -0.4), p2_0=(1.0, 0.1))
    p1, p2 = spinning_pair(params, np.linspace(0.0, 9.0, 400))
    totals = p1 + p2
    assert np.max(np.abs(totals - totals[0])) < 1e-15


def test_slow_rotation_limit_is_constant():
    params = SpinningPairParams(radius=1.0, gamma=1e-9)
    p1a, p2a = spinning_pair(params, 0.0)
    p1b, p2b = spinning_pair(params, 1.0)
    assert np.allclose(p1a, p1b, atol=1e-8)
    assert np.allclose(p2a, p2b, atol=1e-8)


def test_total_momentum_drift_detects_broken_pair():
    history = spinning_pair_history(PAIR, dt=1e-3, samples=1000)
    assert total_momentum_drift(history).max_abs < 1e-12

    ts = history.times
    p1, _ = spinning_pair(PAIR, ts)
    frozen = np.tile(PAIR.p2_0, (len(ts), 1)).astype(complex)
    broken = MomentumHistory(ts, p1, frozen)
    drift = total_momentum_drift(broken)
    assert drift.max_abs > 0.1 * PAIR.momentum_scale


def test_force_norm_invariant_value_and_drift():
    history = spinning_pair_history(PAIR, dt=1e-3, samples=1000)
    series = force_norm_invariant(history)
    assert series.mean.real == pytest.approx(32.0)  # 2 (m R gamma^2)^2
    assert series.drift < 1e-6

    stencil = force_norm_invariant(
        spinning_pair_history(PAIR, dt=1e-3, samples=1000, closed_form_derivatives=False))
    assert stencil.mean.real == pytest.approx(32.0, abs=1e-4)
    assert stencil.drift < 1e-4


def test_force_norm_invariant_trivial_and_ramp_cases():
    const = force_norm_invariant(constant_history([1.0, 0.5], [0.2, -0.3]))
    assert const.max_abs == 0.0

    a = 0.7
    ts = 1e-3 * np.arange(200)
    ramp = MomentumHistory(ts, np.stack([a * ts, np.zeros_like(ts)], axis=1),
                           np.tile([0.4, 0.1], (200, 1)))
    series = force_norm_invariant(ramp)
    assert np.allclose(series.values, a * a, atol=1e-9)


def test_coupled_acceleration_residual_by_symmetry():
    symmetric = SpinningPairParams(radius=1.0, gamma=2.0,
                                   p1_0=(0.3, -0.1), p2_0=(-0.3, 0.1))
    history = spinning_pair_history(symmetric, dt=2e-4, samples=600,
                                    closed_form_derivatives=False)
    scale = symmetric.mass * symmetric.radius * symmetric.gamma ** 3
    for k in (0, 1):
        assert coupled_acceleration_residual(history, k).max_abs < 1e-8 * scale

    assert coupled_acceleration_residual(
        constant_history([1.0, 2.0], [0.5, 0.1]), 0).max_abs == 0.0

    asymmetric = SpinningPairParams(radius=1.0, gamma=2.0,
                                    p1_0=(0.5, 0.0), p2_0=(0.2, 0.0))
    history = spinning_pair_history(asymmetric, dt=2e-4, samples=600,
                                    closed_form_derivatives=False)
    assert coupled_acceleration_residual(history, 0).max_abs > 0.1 * scale


# -- bound energy -------------------------------------------------------------------


def test_bound_energy_reference_value():
    result = bound_energy(1j, 2j, 0.0, 0.0, 0.0)
    assert result.total == pytest.approx(2.5)
    assert result.pair_part == pytest.approx(2.5)
    assert result.split_part == 0.0


def test_bound_energy_of_nothing_is_zero():
    assert bound_energy(0j, 0j, 0.0, 0.0, 0.0).total == 0.0


def test_bound_energy_classical_toggle_drops_split_term():
    full = bound_energy(1j, 2j, 0.3j, -0.1j, 1.0)
    classical = bound_energy(1j, 2j, 0.3j, -0.1j, 1.0, divergence_scale=0.0)
    assert classical.split_part == 0.0
    assert classical.total == full.pair_part
    assert full.total == full.pair_part + full.split_part


def test_bound_energy_warns_on_real_momenta():
    with pytest.warns(UserWarning):
        bound_energy(1.0 + 0j, 2j, 0.0, 0.0, 0.0)


def test_coulomb_interaction_value():
    assert coulomb_interaction([0.0, 0.0, 0.0], [0.0, 3.0, 4.0]) == pytest.approx(0.2)


# -- delta_e and the product condition ------------------------------------------------


def test_delta_e_vanishes_exactly_for_constant_momenta():
    series = delta_e(constant_history([1.0 + 2j, 0.5j], [2.0, 1.0 - 1j]))
    assert series.max_abs == 0.0


def test_delta_e_of_single_phase_is_constant():
    beta = 2.0
    history = phase_pair_history([1.5], [1.0], beta)
    # each electron contributes (hbar/2) * (+/- i beta); here they cancel
    d1 = history.first_derivative(1)[:, 0] / history.p1[:, 0]
    assert np.allclose(d1, 1j * beta, atol=1e-10)
    series = delta_e(history)
    assert series.max_abs < 1e-10


def test_constant_product_forces_delta_e_to_zero():
    history = phase_pair_history([1.5 + 0.5j, 0.8], [0.8 - 0.2j, 1.1], 2.0)
    product = component_product(history)
    assert product.drift < 1e-12 * abs(product.mean)
    assert delta_e(history).max_abs < 1e-10


def test_spinning_pair_product_is_not_constant():
    # offsets keep every component away from zero so 1/p stays defined
    offset = SpinningPairParams(radius=1.0, gamma=2.0, p1_0=(3.0, 3.0), p2_0=(3.0, 3.0))
    history = spinning_pair_history(offset, dt=1e-3, samples=500)
    product = component_product(history)
    assert product.drift > 0.1


def test_positive_real_product_is_flagged():
    series = component_product(constant_history([1j, 2j], [1j, 0.5j]))
    # (i)(i)(2i)(0.5i) = i^4 = +1 real and positive
    assert series.metadata["positive"] is True
    assert series.mean.real == pytest.approx(1.0)


def test_component_near_zero_raises():
    ts = 1e-3 * np.arange(100)
    p1 = np.stack([ts - 0.05, np.ones_like(ts)], axis=1)  # crosses zero
    with pytest.raises(ComponentNearZero):
        delta_e(MomentumHistory(ts, p1, np.ones_like(p1)))


# -- rotation-matrix momenta -----------------------------------------------------------


def test_rotation_momentum_at_time_zero_is_scaled_identity():
    rm = RotationMomentum((1.5,), rate=2.0, orientation=+1)
    assert np.allclose(rm.matrix(0.0, 0), 1.5 * np.eye(2))


def test_rotation_momentum_quarter_turn():
    rm = RotationMomentum((2.0,), rate=1.0, orientation=+1)
    quarter = rm.matrix(np.pi / 2.0, 0)
    assert np.allclose(quarter, 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_rotation_momentum_determinant():
    rm = RotationMomentum((0.7,), rate=1.3, orientation=-1)
    for t in (0.0, 0.4, 2.9):
        m = rm.matrix(t, 0)
        assert np.linalg.det(m) / 0.7 ** 2 == pytest.approx(1.0)


def test_paired_rotations_multiply_to_identity():
    for t in np.linspace(0.0, 5.0, 11):
        product = rotation_matrix(1.3 * t) @ rotation_matrix(-1.3 * t)
        assert np.allclose(product, np.eye(2), atol=1e-14)


def test_opposite_orientations_cancel_matrix_delta_e():
    ts = np.linspace(0.0, 3.0, 60)
    series = matrix_delta_e(
        RotationMomentum((1.0, 2.0, 0.5), rate=1.3, orientation=+1),
        RotationMomentum((0.7, 1.1, 2.2), rate=1.3, orientation=-1), ts)
    assert series.max_abs < 1e-12


def test_same_orientation_adds_generators():
    alpha = 1.3
    ts = np.linspace(0.0, 2.0, 40)
    series = matrix_delta_e(
        RotationMomentum((1.0, 2.0, 0.5), rate=alpha, orientation=+1),
        RotationMomentum((0.7, 1.1, 2.2), rate=alpha, orientation=+1), ts)
    # 2 electrons x 3 components x (hbar/2) x alpha x ||J||_F
    assert np.allclose(series.values, 3.0 * math.sqrt(2.0) * alpha, atol=1e-12)


def test_zero_rate_gives_zero_matrix_delta_e():
    ts = np.linspace(0.0, 2.0, 20)
    series = matrix_delta_e(
        RotationMomentum((1.0,), rate=0.0, orientation=+1),
        RotationMomentum((2.0,), rate=0.0, orientation=-1), ts)
    assert series.max_abs == 0.0


def test_singular_momentum_matrix_is_rejected():
    ts = np.linspace(0.0, 1.0, 20)
    with pytest.raises(SingularMomentumMatrix):
        matrix_delta_e(RotationMomentum((0.0,), rate=1.0),
                       RotationMomentum((1.0,), rate=1.0, orientation=-1), ts)
