"""Symmetries of the oscillator flow, which need no reference solution.

In natural units a member moves by dx/dt = -i psi'(x)/psi(x).

- Parity: psi_n is even or odd, so p(-x) = -p(x).  The kernel and the
  stepper are odd under negation in IEEE arithmetic as well, so a start
  at -x0 gives the negated trajectory bit for bit, retirements included.
- Conjugation reverses the flow: psi_n is real, so p(conj x) = -conj p(x).
  If x(t) solves the flow, conj(x(T - t)) solves it too.  Evolving
  conj(x(T)) for T and conjugating again returns to x0, up to the
  integrator's error.
"""

import numpy as np
import pytest

from momflow import NATURAL_UNITS, IntegratorConfig, evolve, harmonic_potential, qho_field
from momflow.dynamics import COMPLETED, _integrate
from momflow.errors import TrajectoryNearSingularity

LEVELS = range(11)
# Largest conjugation round-trip error seen over levels 0-10 from the
# starts below, with T = 1: 1.24e-11 under rk4 with dt 1e-3 (level 4) and
# 7.4e-8 under rkf45 at its default tolerances (level 7).
ROUND_TRIP_BOUND = {"rk4": 2e-11, "rkf45": 1e-7}


def start(level):
    return 1.3 + 0.2j + 0.1 * level


def trajectory(field, x0, config):
    """The run from ``x0`` and the type of its halt, or None if it completed."""
    try:
        return evolve(field, harmonic_potential(), x0, config), None
    except TrajectoryNearSingularity as exc:
        return exc.trajectory, type(exc)


@pytest.mark.parametrize("scheme", ["rk4", "rkf45"])
@pytest.mark.parametrize("level", LEVELS)
def test_a_negated_start_gives_the_negated_trajectory_bit_for_bit(level, scheme):
    field, config = qho_field(level), IntegratorConfig(1.0, scheme, 1e-2)
    (a, halt_a), (b, halt_b) = (trajectory(field, x0, config)
                                for x0 in (start(level), -start(level)))
    assert halt_a is halt_b
    assert np.array_equal(b.times, a.times)
    assert np.array_equal(b.positions, -a.positions)
    assert np.array_equal(b.momenta, -a.momenta)


@pytest.mark.parametrize("scheme", ["rk4", "rkf45"])
def test_a_negated_batch_retires_the_same_members_at_the_same_times(scheme):
    # starts on both sides of the level-3 node at sqrt(3/2), on and off the axis
    offsets = np.linspace(-0.5, 0.5, 41)
    x0 = (np.sqrt(1.5) + offsets + 1j * np.resize([0.0, 1e-3, 0.05], 41))[:, None]
    field, config = qho_field(3), IntegratorConfig(1.0, scheme, 1e-2)
    times = np.linspace(0.0, 1.0, 5)
    last, term_time, term_reason, steps = _integrate(field, x0, config, times, NATURAL_UNITS)
    neg_last, neg_time, neg_reason, neg_steps = _integrate(field, -x0, config, times,
                                                           NATURAL_UNITS)
    assert 0 < np.count_nonzero(term_reason != COMPLETED) < len(x0)
    assert np.array_equal(neg_last, -last)
    assert np.array_equal(neg_time, term_time, equal_nan=True)
    assert np.array_equal(neg_reason, term_reason)
    assert neg_steps == steps


@pytest.mark.parametrize("scheme", ["rk4", "rkf45"])
@pytest.mark.parametrize("level", [0, 1, 4, 7, 10])
def test_conjugation_reverses_the_flow(level, scheme):
    field, config = qho_field(level), IntegratorConfig(1.0, scheme, 1e-3)
    x0 = start(level)
    there = evolve(field, harmonic_potential(), x0, config).positions[-1, 0]
    back = np.conj(evolve(field, harmonic_potential(), np.conj(there), config).positions[-1, 0])
    assert abs(there - x0) > 0.1
    assert abs(back - x0) <= ROUND_TRIP_BOUND[scheme]
