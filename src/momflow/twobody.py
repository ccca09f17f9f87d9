"""Invariants of two coupled electrons expressed through their momenta.

Summing the force relations of a closed electron pair yields two
operational statements that this module measures from sampled momentum
histories:

* total momentum p1 + p2 is constant, and
* |dp1/dt|**2 + |dp2/dt|**2 is constant for the spinning pair below (the
  force-norm invariant), but not along every closed pair: along a
  harmonically coupled one its max/min ratio read 1.22 to 2.9e4.

A closed-form "spinning pair" solution (counter-rotating circular
momenta of radius m*R*gamma) exercises both.  For bound states the
module also evaluates the two-electron energy, the part of it that can
differ between the electrons,

    delta_e = (hbar/2) * sum_k (p1k'/p1k + p2k'/p2k),

the component-product condition that makes delta_e vanish, and the
rotation-matrix momentum components that cancel delta_e pairwise — the
extra degree of freedom identified with spin.

A history keeps the derivative samples its source gave; any other
derivative is a five-point stencil estimate (central in the interior,
one-sided at the edges).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .core import DEFAULT_TOLERANCE, NATURAL_UNITS, UnitSystem
from .errors import (
    ComponentNearZero,
    NonuniformSampling,
    SingularMomentumMatrix,
    TooFewSamples,
)

__all__ = _EXPORTS["twobody"]

# Five-point stencil weights over 12 (integer parts kept exact so that
# constant inputs cancel to exactly zero; divide by 12*dt**order at the
# end).  Interior rows are O(h^4); the one-sided first-derivative rows
# are O(h^4), the one-sided second-derivative rows O(h^3).
_D1_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])
_D2_INTERIOR = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
_D2_EDGE0 = np.array([35.0, -104.0, 114.0, -56.0, 11.0])
_D2_EDGE1 = np.array([11.0, -20.0, 6.0, 4.0, -1.0])


def stencil_derivative(values, dt: float, order: int = 1) -> np.ndarray:
    """Five-point derivative of samples along axis 0 (uniform spacing).

    The first sample is subtracted before differencing (each stencil's
    weights sum to zero, so this changes nothing analytically); constant
    inputs therefore differentiate to exactly zero.
    """
    v = np.asarray(values)
    n = v.shape[0]
    if n < 5:
        raise TooFewSamples("five-point stencils need at least 5 samples")
    if order == 1:
        interior, edge0, edge1 = _D1_INTERIOR, _D1_EDGE0, _D1_EDGE1
        sign = -1.0  # first derivatives flip under time reversal
    elif order == 2:
        interior, edge0, edge1 = _D2_INTERIOR, _D2_EDGE0, _D2_EDGE1
        sign = 1.0
    else:
        raise ValueError("order must be 1 or 2")

    out = np.empty_like(v, dtype=complex)
    flat = v.reshape(n, -1) - v.reshape(n, -1)[0]
    res = out.reshape(n, -1)
    window = np.stack([flat[i:n - 4 + i] for i in range(5)])
    res[2:n - 2] = np.tensordot(interior, window, axes=(0, 0))
    res[0] = edge0 @ flat[:5]
    res[1] = edge1 @ flat[:5]
    res[n - 2] = sign * (edge1 @ flat[n - 5:][::-1])
    res[n - 1] = sign * (edge0 @ flat[n - 5:][::-1])
    return out / (12.0 * dt ** order)


def _as_components(p, n):
    arr = np.asarray(p, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] != n or not 1 <= arr.shape[1] <= 3:
        raise ValueError("momentum history must be (n,) or (n, d<=3)")
    return arr


def _stencil(name, order):
    """The derivative of ``name`` of that order: a stencil estimate, made when first read."""
    return cached_property(lambda self: stencil_derivative(getattr(self, name), self.dt, order))


class MomentumHistory:
    """Paired momentum samples p1(t), p2(t) on a uniform time grid.

    ``dp1``, ``dp2`` (first derivatives) and ``ddp1``, ``ddp2`` (second)
    are the samples the source gave, kept as given.  One it did not give
    is the ``stencil_derivative`` of p1 or p2, computed the first time it
    is read and then kept.  ``closed_form`` is True exactly when ``dp1``
    and ``dp2`` were given, and so no first derivative is an estimate.
    """

    dp1, dp2 = _stencil("p1", 1), _stencil("p2", 1)
    ddp1, ddp2 = _stencil("p1", 2), _stencil("p2", 2)

    def __init__(self, times, p1, p2, *, dp1=None, dp2=None, ddp1=None, ddp2=None):
        self.times = np.asarray(times, dtype=float)
        n = self.times.shape[0]
        if n < 5:
            raise TooFewSamples("histories need at least 5 samples")
        gaps = np.diff(self.times)
        if np.any(gaps <= 0) or np.max(np.abs(gaps - gaps[0])) > 1e-9 * abs(gaps[0]):
            raise NonuniformSampling("history sample times must be uniformly spaced")
        self.dt = float(gaps[0])
        self.p1 = _as_components(p1, n)
        self.p2 = _as_components(p2, n)
        if self.p1.shape != self.p2.shape:
            raise ValueError("p1 and p2 must have matching shapes")
        self.closed_form = dp1 is not None and dp2 is not None
        for key, data in (("dp1", dp1), ("dp2", dp2), ("ddp1", ddp1), ("ddp2", ddp2)):
            if data is not None:  # shadows the stencil estimate
                setattr(self, key, _as_components(data, n))


@dataclass
class InvariantSeries:
    """A sampled scalar (or norm) whose constancy is under test."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def mean(self) -> complex:
        return complex(np.mean(self.values))

    @property
    def drift(self) -> float:
        """max |value - mean| over the series."""
        return float(np.max(np.abs(self.values - np.mean(self.values))))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def constant_within(self, tol: float) -> bool:
        return self.drift <= tol


# -- spinning pair ---------------------------------------------------------------


@dataclass(frozen=True)
class SpinningPairParams:
    """Counter-rotating pair: circular motion of radius R at frequency gamma."""

    radius: float
    gamma: float
    mass: float = 1.0
    p1_0: tuple = (0.0, 0.0)
    p2_0: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (self.radius > 0 and self.gamma > 0 and self.mass > 0):
            raise ValueError("radius, gamma, and mass must be positive")

    @property
    def momentum_scale(self) -> float:
        return self.mass * self.radius * self.gamma


def spinning_pair(params: SpinningPairParams, t):
    """Closed-form momenta of the counter-rotating pair at time(s) ``t``.

        p1 = p1_0 + m R gamma (-cos(gamma t), -sin(gamma t))
        p2 = p2_0 + m R gamma (+cos(gamma t), +sin(gamma t))

    The rotating parts cancel in the sum, so p1 + p2 = p1_0 + p2_0 for
    every t.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    s = params.momentum_scale
    c, sn = np.cos(params.gamma * ts), np.sin(params.gamma * ts)
    rot = np.stack([c, sn], axis=1) * s
    p1 = np.asarray(params.p1_0, float)[None, :] - rot
    p2 = np.asarray(params.p2_0, float)[None, :] + rot
    if np.isscalar(t) or np.ndim(t) == 0:
        return p1[0], p2[0]
    return p1, p2


def spinning_pair_history(params: SpinningPairParams, dt: float = 1e-3, samples: int = 1000,
                          closed_form_derivatives: bool = True) -> MomentumHistory:
    """Sample the spinning pair from t = 0, optionally with exact derivative samples."""
    ts = dt * np.arange(samples)
    p1, p2 = spinning_pair(params, ts)
    kwargs = {}
    if closed_form_derivatives:
        s = params.momentum_scale * params.gamma
        c, sn = np.cos(params.gamma * ts), np.sin(params.gamma * ts)
        dp1 = s * np.stack([sn, -c], axis=1)
        kwargs = dict(
            dp1=dp1, dp2=-dp1,
            ddp1=s * params.gamma * np.stack([c, sn], axis=1),
            ddp2=-s * params.gamma * np.stack([c, sn], axis=1))
    return MomentumHistory(ts, p1, p2, **kwargs)


# -- conservation and correlation -------------------------------------------------


def total_momentum_drift(history: MomentumHistory) -> InvariantSeries:
    """Series of ||(p1+p2)(t) - (p1+p2)(t0)||; zero for a closed pair."""
    total = history.p1 + history.p2
    drift = np.linalg.norm(total - total[0], axis=1)
    return InvariantSeries(history.times, drift, label="total-momentum drift")


def force_norm_invariant(history: MomentumHistory) -> InvariantSeries:
    """Series of |dp1/dt|**2 + |dp2/dt|**2 (squared moduli, all components).

    Constant in time for the spinning pair, at 2*(m*R*gamma**2)**2, but
    not for every closed pair.  The trivial uncorrelated case is the
    constant 0.
    """
    values = (np.abs(history.dp1) ** 2).sum(axis=1) + (np.abs(history.dp2) ** 2).sum(axis=1)
    return InvariantSeries(history.times, values, label="force-norm invariant",
                           metadata={"closed_form": history.closed_form})


def coupled_acceleration_residual(history: MomentumHistory, component: int) -> InvariantSeries:
    """Residual p2k**2 * d2(p1k)/dt2 + p1k**2 * d2(p2k)/dt2 for one component.

    Vanishes when the pair's accelerations balance component by
    component; the spinning pair satisfies it only in symmetric
    configurations (p1_0 = +/- p2_0), so the residual is reported, not
    asserted.
    """
    k = int(component)
    p1k = history.p1[:, k]
    p2k = history.p2[:, k]
    values = p2k * p2k * history.ddp1[:, k] + p1k * p1k * history.ddp2[:, k]
    return InvariantSeries(history.times, values,
                           label=f"coupled-acceleration residual [{k}]")


# -- bound-state energy ------------------------------------------------------------


@dataclass(frozen=True)
class BoundEnergy:
    """Two-electron energy split into the shareable part and the splitter.

    ``pair_part`` = -(p1.p1 + p2.p2)/(2m) + U12 is the only portion that
    can be equal for both electrons; ``split_part`` carries the whole
    possible energy difference.
    """

    total: complex
    pair_part: complex
    split_part: complex


def bound_energy(p1, p2, div1, div2, u12, units: UnitSystem = NATURAL_UNITS) -> BoundEnergy:
    """Energy of a bound pair from momenta, divergences, and U12:

        E = -(p1.p1 + p2.p2)/(2m) + U12 + (hbar/2m) (div1 + div2)

    Bound-state momenta are purely imaginary (kinetic energy below the
    confining potential); a warning is emitted otherwise.
    """
    p1 = np.atleast_1d(np.asarray(p1, dtype=complex))
    p2 = np.atleast_1d(np.asarray(p2, dtype=complex))
    for name, p in (("p1", p1), ("p2", p2)):
        if np.any(np.abs(p.real) > 1e-9 * (1.0 + np.abs(p))):
            warnings.warn(f"{name} is not purely imaginary; the bound-state "
                          "energy form assumes imaginary momenta", stacklevel=2)
    kinetic = -(np.sum(p1 * p1) + np.sum(p2 * p2)) / (2.0 * units.mass)
    pair_part = complex(kinetic + u12)
    split = complex(units.hbar / (2.0 * units.mass) * (np.sum(div1) + np.sum(div2)))
    return BoundEnergy(total=pair_part + split, pair_part=pair_part, split_part=split)


def _check_nodes(history):
    """ComponentNearZero if a p1 or p2 component passes within node_guard of zero."""
    for which in (1, 2):
        if np.min(np.abs(getattr(history, f"p{which}"))) < DEFAULT_TOLERANCE.node_guard:
            raise ComponentNearZero(f"a p{which} component passes within node_guard of zero")


def delta_e(history: MomentumHistory, units: UnitSystem = NATURAL_UNITS) -> InvariantSeries:
    """Possible energy difference between the electrons:

        delta_e(t) = (hbar/2) * sum_k (p1k'/p1k + p2k'/p2k).

    Identically zero for constant momenta and whenever the component
    product is constant (delta_e is (hbar/2) d/dt log prod_k p1k p2k).
    Components passing within node_guard of zero make the 1/p terms
    meaningless and raise ComponentNearZero.
    """
    _check_nodes(history)
    values = 0.5 * units.hbar * (history.dp1 / history.p1 + history.dp2 / history.p2).sum(axis=1)
    return InvariantSeries(history.times, values, label="delta_e")


def component_product(history: MomentumHistory) -> InvariantSeries:
    """Running product prod_k p1k(t) * p2k(t) over all components.

    Constancy of this product is equivalent to delta_e = 0.  When the
    product is essentially real it must additionally be positive; the
    check result lands in ``metadata['positive']`` (None when the
    product is genuinely complex).
    """
    _check_nodes(history)
    values = np.prod(history.p1, axis=1) * np.prod(history.p2, axis=1)
    positive = None
    if np.max(np.abs(values.imag)) <= 1e-9 * max(1.0, np.max(np.abs(values))):
        positive = bool(np.min(values.real) > 0.0)
    return InvariantSeries(history.times, values, label="component product",
                           metadata={"positive": positive})


# -- rotation-matrix momenta (spin) -------------------------------------------------

ROTATION_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class RotationMomentum:
    """Matrix-valued momentum components p0_k * R(orientation * alpha * t).

    One instance describes all components of one electron: amplitudes
    are the per-component constants p0_k, ``rate`` is the shared angular
    frequency, ``orientation`` the sense of rotation (+1 or -1).  Every
    generated matrix is orthogonal with determinant +1.
    """

    amplitudes: tuple
    rate: float
    orientation: int = +1

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")
        if not 1 <= len(self.amplitudes) <= 3:
            raise ValueError("one to three momentum components expected")

    def matrix(self, t: float, component: int) -> np.ndarray:
        """The 2x2 matrix momentum p0 * R(+/- alpha t) of one component."""
        return self.amplitudes[component] * rotation_matrix(self.orientation * self.rate * t)

    def derivative(self, t: float, component: int) -> np.ndarray:
        theta = self.orientation * self.rate * t
        return (self.amplitudes[component] * self.orientation * self.rate
                * ROTATION_GENERATOR @ rotation_matrix(theta))


def matrix_delta_e(rm1: RotationMomentum, rm2: RotationMomentum, times,
                   units: UnitSystem = NATURAL_UNITS) -> InvariantSeries:
    """Frobenius norm of the matrix energy splitter over ``times``:

        || (hbar/2) sum_k (p1k^-1 dp1k/dt + p2k^-1 dp2k/dt) ||_F

    with 1/p read as the left matrix inverse (p^-1 . dp/dt), the order
    that makes opposite orientations cancel exactly: each term reduces
    to (orientation * rate) times the rotation generator, so a pair with
    opposite senses and equal rates sums to zero while equal senses add.
    """
    if any(a == 0 for a in rm1.amplitudes) or any(a == 0 for a in rm2.amplitudes):
        raise SingularMomentumMatrix("zero amplitude leaves the momentum matrix singular")
    if len(rm1.amplitudes) != len(rm2.amplitudes):
        raise ValueError("both electrons need the same number of components")
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.empty(ts.shape)
    for i, t in enumerate(ts):
        acc = np.zeros((2, 2))
        for rm in (rm1, rm2):
            for k in range(len(rm.amplitudes)):
                acc = acc + np.linalg.solve(rm.matrix(t, k), rm.derivative(t, k))
        values[i] = 0.5 * units.hbar * np.linalg.norm(acc)
    return InvariantSeries(ts, values, label="matrix delta_e norm")
