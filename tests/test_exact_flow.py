"""The oscillator flow's exact time of flight as an oracle for the stepper.

At level n (natural units) the field is p = -i Q/H_n with
Q = 2n H_{n-1} - x H_n, so dt = i (H_n/Q) dx.  Q's roots q_k are the rest
points, all real, and the partial fractions H_n/Q = sum c_k/(x - q_k) give
the time of flight in closed form,

    t(x) = i sum c_k [Log(x - q_k) - Log(x0 - q_k)],

with each log continued along the trajectory.  The q_k and c_k are built
here with numpy.polynomial alone; only the trajectories come from momflow.
"""

import numpy as np
import pytest
from numpy.polynomial import Hermite

from momflow import IntegratorConfig, evolve, harmonic_potential, qho_field

# x = H_1 / 2 in the Hermite basis
X = Hermite([0.0, 0.5])

# per level: a start, and the most |t(x) - t| may reach along an RK4
# trajectory with dt = 1e-3 to t = 3, about four times what was measured
RK4_BOUNDS = {
    0: (1.0 + 0.5j, 1e-13),     # measured 2.4e-14
    1: (2.0 + 0.3j, 1e-13),     # 2.4e-14
    2: (2.0 + 0.3j, 3e-13),     # 8.2e-14
    3: (2.0 + 0.3j, 8e-12),     # 2.1e-12
    4: (2.0 + 0.3j, 1e-8),      # 2.6e-9
    5: (1.1 + 0.2j, 8e-9),      # 2.1e-9
    6: (2.5 + 0.3j, 4e-11),     # 9.5e-12
    7: (3.0 + 0.5j, 1e-12),     # 2.8e-13
    8: (3.0 + 0.4j, 5e-12),     # 1.2e-12
    9: (3.5 + 0.4j, 5e-12),     # 1.3e-12
    10: (4.0 + 0.4j, 4e-12),    # 1.1e-12
}


def residues(n):
    """The rest points q_k and the residues c_k of H_n/Q at them."""
    h = Hermite.basis(n)
    q = -X * h
    if n:
        q = q + 2 * n * Hermite.basis(n - 1)
    roots = q.roots()
    return roots, h(roots) / q.deriv()(roots)


def time_of_flight_error(n, x0, config):
    """max |t(x) - t| over the stored steps of an ``evolve`` trajectory."""
    roots, c = residues(n)
    traj = evolve(qho_field(n), harmonic_potential(), x0, config)
    offsets = traj.x[:, None] - roots.real[None, :]
    # each log continued along the track: steps are far shorter than the
    # distance to any rest point, so no phase jumps by pi between them
    logs = np.log(np.abs(offsets)) + 1j * np.unwrap(np.angle(offsets), axis=0)
    t_cf = 1j * ((logs - logs[0]) @ c.real)
    return np.max(np.abs(t_cf - traj.times))


@pytest.mark.parametrize("n", range(11))
def test_residues_are_real_negative_and_sum_to_minus_one(n):
    roots, c = residues(n)
    assert len(roots) == n + 1
    assert np.max(np.abs(roots.imag)) <= 1e-12 and np.max(np.abs(c.imag)) <= 1e-12
    assert np.all(c.real < 0.0)
    # the leading coefficients of H_n and Q are 2**n and -2**n
    assert c.real.sum() == pytest.approx(-1.0, abs=1e-13)


@pytest.mark.parametrize("n", sorted(RK4_BOUNDS))
def test_rk4_trajectory_keeps_the_exact_time_of_flight(n):
    x0, bound = RK4_BOUNDS[n]
    assert time_of_flight_error(n, x0, IntegratorConfig(t_end=3.0, dt=1e-3)) <= bound


def test_rk4_time_of_flight_error_is_fourth_order_at_level_three():
    coarse, fine = (time_of_flight_error(3, 2.0 + 0.3j, IntegratorConfig(t_end=3.0, dt=dt))
                    for dt in (1e-3, 5e-4))
    # 16.6 measured; 2**4 = 16 for a fourth-order scheme
    assert 14.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("n, bound", [(2, 1e-7), (3, 4e-7)])
def test_rkf45_at_default_tolerances_keeps_the_exact_time_of_flight(n, bound):
    # measured 2.4e-8 at level 2 and 9.8e-8 at level 3
    config = IntegratorConfig(t_end=3.0, scheme="rkf45")
    assert time_of_flight_error(n, 2.0 + 0.3j, config) <= bound
