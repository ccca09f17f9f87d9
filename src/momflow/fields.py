"""Momentum fields p(r) and the operators built on them.

A momentum field assigns to each position a complex vector
p = -i*hbar*grad(psi)/psi.  Constructors cover closed-form harmonic
oscillator eigenstates, caller-supplied wavefunctions, and separable
products of 1-D fields.  On top of the field the module evaluates

    E(r) = p.p/(2m) + U(r) - i*(hbar/2m) div p,

which is position-independent exactly when p derives from an energy
eigenstate, checks the curl-free property, and reconstructs the
wavefunction as psi = A*exp((i/hbar) * integral of p along a path).

Positions where psi vanishes are poles of p.  Fields carry an explicit
pole list; evaluating within ``node_guard`` of a pole raises
NodeEvaluation rather than returning garbage.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _EXPORTS
from .core import DEFAULT_TOLERANCE, NATURAL_UNITS, TolerancePolicy, UnitSystem
from .errors import (
    ConvergenceFailure,
    DimensionTooLow,
    EmptyRegion,
    NodeEvaluation,
    OffAxisEvaluation,
    PathThroughNode,
    UnsupportedLevel,
)

__all__ = _EXPORTS["fields"]

# Central-difference steps, relative to (1 + |r|).  Second differences
# divide by h**2, so they need a larger step to stay above the eps/h**2
# rounding floor while Richardson extrapolation removes the h**2 term.
_FIRST_STEP = 1e-5
_SECOND_STEP = 1e-4
_OFF_AXIS_TOL = 1e-12
_MAX_QHO_LEVEL = 10


def _as_points(r, dimension):
    """Coerce positions to an (n, d) complex array.

    Returns (points, restore).  ``restore`` reshapes an (n, ...) result
    to the caller's leading shape: the shape of ``r`` without its
    component axis, where a 1-D scalar or 1-D array has none.  The
    result's own trailing axes are kept unless the caller's component
    axis was absent, and a 0-d result comes back as a Python scalar.
    """
    arr = np.asarray(r, dtype=complex)
    if dimension == 1 and arr.ndim < 2:
        lead, components = arr.shape, False
    elif arr.ndim in (1, 2) and arr.shape[-1] == dimension:
        lead, components = arr.shape[:-1], True
    else:
        raise ValueError(f"cannot interpret shape {arr.shape} as positions in {dimension}-D")

    def restore(values):
        out = values.reshape(lead + values.shape[1:] if components else lead)
        return out.item() if out.ndim == 0 else out

    return arr.reshape(-1, dimension), restore


def _richardson(fn, pts, axis, centre=None):
    """d(fn)/dx_axis by first central differences or, given ``centre`` =
    fn(pts), d2(fn)/dx_axis^2 by second ones, with one Richardson level.

    ``fn`` may return (n,) scalars or (n, d) vectors.
    """
    first = centre is None
    h = (_FIRST_STEP if first else _SECOND_STEP) * (1.0 + np.linalg.norm(pts, axis=1).real)
    shift = np.zeros_like(pts)

    def central(step):
        shift[:, axis] = step
        hi = np.asarray(fn(pts + shift))
        lo = np.asarray(fn(pts - shift))
        if first:
            diff, denom = hi - lo, 2.0 * step
        else:
            diff, denom = hi - 2.0 * centre + lo, step * step
        return diff / (denom[:, None] if hi.ndim == 2 else denom)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def _richardson_gradient(fn, pts):
    """First-difference ``_richardson`` along each axis, stacked on a new last axis, as complex."""
    return np.stack([_richardson(fn, pts, j) for j in range(pts.shape[1])],
                    axis=-1).astype(complex, copy=False)


class MomentumField:
    """Evaluatable complex momentum field with derivative operators.

    Parameters
    ----------
    dimension:
        Spatial dimension, 1 to 3.
    value_fn:
        Maps an (n, d) complex position array to (n, d) momenta.
    jacobian_fn, laplacian_fn:
        Optional closed-form jets, each from one pass over the points:
        (p, J) and (p, J, lap), with the momenta (n, d), J[:, i, j] =
        d p_i / d x_j (n, d, d) and the componentwise vector Laplacian
        (n, d).  Where one is omitted, ``_jet`` adds Richardson-extrapolated
        central differences of ``value_fn`` to the jet one order lower,
        and ``derivative_kind`` reports it; with neither, a Laplacian
        pays for J too (17 ``value_fn`` calls in 2-D, not 10).
    poles:
        (axis, location) pairs marking node hyperplanes x_axis == location
        where the field blows up; axis 0..dimension-1, else ValueError.
    holomorphic:
        Closed-form fields accept complex positions; numeric fields
        refuse positions off the real axis with OffAxisEvaluation.
    pole_margin:
        Distance from a pole inside which evaluations, while legal, are
        not trustworthy (grid-derived fields lose accuracy within a few
        spacings of a node).  Scans skip this neighborhood.

    Evaluation returns non-finite values and does not warn: ``_value_at``,
    ``_jacobian_at`` and ``_laplacian_at`` each check the points and run
    ``_jet`` under one ``np.errstate`` that ignores overflow, invalid
    values and division by zero, so an entry that overflows, or one on a
    pole evaluated with the check skipped, comes back as inf or nan.  A
    caller that holds such an errstate (the stepper, a product field's
    jet) calls ``value_fn`` or ``_jet`` directly.
    """

    def __init__(self, dimension, value_fn, *, jacobian_fn=None, laplacian_fn=None,
                 derivative_kind=None, poles=(), holomorphic=False,
                 tolerance: TolerancePolicy = DEFAULT_TOLERANCE,
                 pole_margin: float = 0.0):
        if dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2, or 3")
        self.dimension = int(dimension)
        self._value_fn = value_fn
        self._jacobian_fn = jacobian_fn
        self._laplacian_fn = laplacian_fn
        numeric = jacobian_fn is None or laplacian_fn is None
        self.derivative_kind = derivative_kind or (
            "numeric-central-difference" if numeric else "closed-form")
        self.poles = tuple((int(axis), float(loc)) for axis, loc in poles)
        if any(not 0 <= axis < self.dimension for axis, _loc in self.poles):
            raise ValueError(f"pole axes must lie in 0..{self.dimension - 1}, got {self.poles}")
        self.holomorphic = bool(holomorphic)
        self.tolerance = tolerance
        self.pole_margin = max(float(pole_margin), 10.0 * tolerance.node_guard)

    # -- guarded evaluation -------------------------------------------------

    def pole_distances(self, pts):
        """Distance from each (n, d) point to the nearest pole plane."""
        if not self.poles:
            return np.full(pts.shape[0], np.inf)
        (axis, loc), *rest = self.poles
        dist = np.abs(pts[:, axis] - loc)
        for axis, loc in rest:
            np.minimum(dist, np.abs(pts[:, axis] - loc), out=dist)
        return dist

    def pole_distance(self, r):
        pts, restore = _as_points(r, self.dimension)
        return restore(self.pole_distances(pts))

    def _check(self, pts):
        if not self.holomorphic and np.any(np.abs(pts.imag) > _OFF_AXIS_TOL):
            raise OffAxisEvaluation(
                "numeric field evaluated off the real axis; only closed-form "
                "fields are declared holomorphic")
        if self.poles:
            dist = self.pole_distances(pts)
            if np.any(dist < self.tolerance.node_guard):
                worst = pts[int(np.argmin(dist))]
                raise NodeEvaluation(
                    f"position {worst} lies within node_guard="
                    f"{self.tolerance.node_guard:g} of a field pole")

    def _jet(self, pts, order):
        """(p,), (p, J) or (p, J, lap) at (n, d) points for ``order`` 0, 1 or 2,
        unchecked and under the caller's errstate; the second differences
        of the fallback are taken about the lower jet's p."""
        if order == 0:
            return (np.asarray(self._value_fn(pts), dtype=complex),)
        fn = self._jacobian_fn if order == 1 else self._laplacian_fn
        if fn is not None:
            return tuple(np.asarray(part, dtype=complex) for part in fn(pts))
        lower = self._jet(pts, order - 1)
        if order == 1:
            return (*lower, _richardson_gradient(self._value_fn, pts))
        lap = np.zeros(pts.shape, dtype=complex)
        for j in range(pts.shape[1]):
            lap += _richardson(self._value_fn, pts, j, centre=lower[0])
        return (*lower, lap)

    def _checked_jet(self, pts, order, check):
        if check:
            self._check(pts)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._jet(pts, order)

    def _value_at(self, pts, check=True):
        return self._checked_jet(pts, 0, check)[0]

    def _jacobian_at(self, pts, check=True):
        """(p, J) at (n, d) points: the momenta and J[:, i, j] = d p_i / d x_j."""
        return self._checked_jet(pts, 1, check)

    def _laplacian_at(self, pts, check=True):
        """(p, J, lap) at (n, d) points: ``_jacobian_at``'s pair and the vector Laplacian."""
        return self._checked_jet(pts, 2, check)

    # -- public API ----------------------------------------------------------

    def value(self, r):
        """p(r); complex scalar for a scalar 1-D position."""
        pts, restore = _as_points(r, self.dimension)
        return restore(self._value_at(pts))

    def jacobian(self, r):
        """Matrix J[i, j] = d p_i / d x_j."""
        pts, restore = _as_points(r, self.dimension)
        return restore(self._jacobian_at(pts)[1])

    def divergence(self, r):
        pts, restore = _as_points(r, self.dimension)
        return restore(np.trace(self._jacobian_at(pts)[1], axis1=1, axis2=2))

    def vector_laplacian(self, r):
        pts, restore = _as_points(r, self.dimension)
        return restore(self._laplacian_at(pts)[2])

    def curl(self, r):
        """Curl of p; scalar in 2-D, vector in 3-D."""
        if self.dimension < 2:
            raise DimensionTooLow("curl needs at least two dimensions")
        pts, restore = _as_points(r, self.dimension)
        jac = self._jacobian_at(pts)[1]
        if self.dimension == 2:
            return restore(jac[:, 1, 0] - jac[:, 0, 1])
        rows, cols = [2, 0, 1], [1, 2, 0]  # curl_k = J[rows[k], cols[k]] - J[cols[k], rows[k]]
        return restore(jac[:, rows, cols] - jac[:, cols, rows])


# -- oscillator eigenstate fields ---------------------------------------------


def _ratio_recurrence(n, two_z):
    """H_{n-1}(z)/H_n(z) for n >= 1, given 2z.

    Uses r_1 = 1/(2z), r_{k+1} = 1/(2z - 2k r_k), which never forms H_n
    and so cannot overflow for large |z|.
    """
    r = np.reciprocal(two_z)
    for k in range(1, n):
        r *= -2.0 * k
        r += two_z
        np.reciprocal(r, out=r)
    return r


def _horner(coeffs, u, times=None, out=None):
    """(coeffs[0] u**d + ... + coeffs[d]) * ``times`` by Horner's rule.

    A constant (d = 0) is taken only with ``times``, and a leading 1
    saves a product.  ``out`` may be ``u`` itself when d is 1, since u is
    then read only once.
    """
    if len(coeffs) == 1:
        return np.multiply(times, coeffs[0], out=out)
    lead, first, *rest = coeffs
    if lead == 1:
        acc = np.add(u, first, out=out)
    else:
        acc = np.multiply(u, lead, out=out)
        acc += first
    for c in rest:
        acc *= u
        acc += c
    if times is not None:
        acc *= times
    return acc


def _hermite_roots(n):
    """The zeros of H_n, ascending and exactly antisymmetric: odd n has 0.0 in the middle.

    The eigenvalue solver leaves the +/- pairs a few ulp apart and the
    middle zero of odd n near 0, not at it; a pole list that is not odd
    would make the pole guard, and so the flow, break parity.
    """
    roots = np.sort(np.polynomial.hermite.hermroots(np.eye(n + 1)[n]))
    return 0.5 * (roots - roots[::-1])


def qho_field(level: int, units: UnitSystem = NATURAL_UNITS) -> MomentumField:
    """Closed-form momentum field of the 1-D oscillator eigenstate ``level``.

    With a = m*omega/hbar and psi_n = H_n(sqrt(a) x) exp(-a x**2 / 2),

        p(x)  = -i*hbar * psi_n'/psi_n
              = -i*hbar * (2n sqrt(a) H_{n-1}/H_n - a x)

    which for level 1 reduces to p = -i*hbar*(1/x - m*omega*x/hbar).
    The ratio is one rational function of u = x**2: H_n(sqrt(a) x) is
    x**(n % 2) times a polynomial in u, made monic, and 2n sqrt(a) H_{n-1}
    over the same leading coefficient is n times the monic H_{n-1}.  Both
    run by Horner's rule and meet in one complex division.  Where H_n
    overflows (|x| beyond about 1e30 at level 10) the result is not
    finite, and those entries are recomputed by the ratio recurrence
    r_1 = 1/(2z), r_{k+1} = 1/(2z - 2k r_k), which never forms H_n.  The
    kernel sets no errstate: the field's evaluators, or the stepper that
    calls ``value_fn``, hold the one that silences that overflow.

    Derivatives are closed-form in p and x: the eigenvalue relation
    supplies psi''/psi = a**2 x**2 - (2n+1) a, so with L = psi'/psi

        p'  = -i*hbar * (psi''/psi - L**2) = c2 p**2 + c1 x**2 + c0
        p'' = 2 c2 p p' + 2 c1 x

    with c2 = -i/hbar, c1 = -i*hbar a**2 and c0 = i*hbar (2n+1) a.  The
    field's ``jacobian_fn`` returns (p, p'), and its ``laplacian_fn``
    (p, p', p''), each from one pass of the kernel.  The pole list holds
    the zeros of H_n.  Levels above 10 are not tabulated and raise
    UnsupportedLevel.
    """
    if level < 0 or level != int(level):
        raise ValueError("level must be a non-negative integer")
    if level > _MAX_QHO_LEVEL:
        raise UnsupportedLevel(
            f"closed-form oscillator fields are tabulated for levels 0..{_MAX_QHO_LEVEL}")
    level = int(level)
    a = units.mass * units.omega / units.hbar
    sqrt_a = np.sqrt(a)
    hbar = units.hbar
    two_sqrt_a = (2.0 * sqrt_a).item()
    odd = level % 2

    def monic(k):  # H_k(sqrt(a) x) / ((2 sqrt(a))**k x**(k % 2)), descending in u = x**2
        coeffs = np.polynomial.hermite.herm2poly(np.eye(k + 1)[k]) / 2.0 ** k
        coeffs *= sqrt_a ** (np.arange(k + 1) - k)
        return coeffs[k % 2::2][::-1]

    # numerator, monic denominator, 2n sqrt(a), -a, all but the denominator
    # times -i*hbar; worked out once rather than on numpy scalars at every call
    scale = -1j * hbar
    num = tuple(c.item() for c in level * scale * monic(level - 1)) if level else ()
    den = tuple(c.item() for c in monic(level))
    ratio_scale, minus_a_scale = level * two_sqrt_a * scale, complex(-a * scale)

    def momentum(x):  # -i*hbar * psi'/psi
        if level == 0:
            return minus_a_scale * x
        if level == 1:  # c/x - a x
            r = num[0] / x
            r += minus_a_scale * x
            return r
        u = x * x
        in_place = u if len(den) == 2 else None  # u's last read
        if odd:
            r = _horner(num, u)
            scratch = _horner(den, u, x, out=in_place)
        else:
            r = _horner(num, u, x)
            scratch = _horner(den, u, out=in_place)
        r /= scratch
        np.multiply(x, minus_a_scale, out=scratch)
        r += scratch
        # a sum is finite only if every entry is, and costs no mask
        if not cmath.isfinite(r.sum()):
            bad = ~np.isfinite(r)
            z = x[bad]
            r[bad] = ratio_scale * _ratio_recurrence(level, two_sqrt_a * z) + minus_a_scale * z
        return r

    c2, c1, c0 = -1j / hbar, -1j * hbar * a * a, 1j * hbar * (2 * level + 1) * a

    def value(pts):
        return momentum(pts[:, 0])[:, None]

    def jet(pts, order):
        x = pts[:, 0]
        p = momentum(x)
        jac = p * p
        jac *= c2
        scratch = x * x
        scratch *= c1
        jac += scratch
        jac += c0
        pair = p[:, None], jac.reshape(-1, 1, 1)
        return pair if order == 1 else (*pair, 2.0 * c2 * pair[0] * jac[:, None] + 2.0 * c1 * pts)

    poles = tuple((0, root / sqrt_a) for root in _hermite_roots(level))
    return MomentumField(1, value, jacobian_fn=partial(jet, order=1),
                         laplacian_fn=partial(jet, order=2),
                         derivative_kind="closed-form", poles=poles, holomorphic=True)


def field_from_wavefunction(psi, nodes=(), units: UnitSystem = NATURAL_UNITS,
                            dimension: int = 1) -> MomentumField:
    """Momentum field p = -i*hbar*grad(psi)/psi from a wavefunction callable.

    For dimension 1 ``psi`` receives a 1-D complex array of positions; for
    higher dimensions it receives (n, d) arrays.  ``nodes`` lists known
    zeros of psi, either as scalars (1-D) or (axis, location) pairs.
    The gradient, and every derivative of p, comes from
    Richardson-extrapolated central differences.
    """
    hbar = units.hbar

    def psi_at(pts):
        return np.asarray(psi(pts[:, 0] if dimension == 1 else pts), dtype=complex)

    def value(pts):
        return -1j * hbar * (_richardson_gradient(psi_at, pts) / psi_at(pts)[:, None])

    poles = [(0, node) if np.isscalar(node) else node for node in nodes]
    return MomentumField(dimension, value, poles=poles, holomorphic=False)


def product_field(factors) -> MomentumField:
    """Separable field built from independent 1-D fields, one per axis.

    Component k of the product depends only on coordinate k, so the
    Jacobian is diagonal and the curl vanishes identically.  Its jets
    stack the factors' ``_jet``s under the product's one errstate.  The
    product takes the first factor's tolerance policy.
    """
    factors = list(factors)
    d = len(factors)
    if d not in (2, 3):
        raise ValueError("product fields need 2 or 3 one-dimensional factors")
    if any(f.dimension != 1 for f in factors):
        raise ValueError("every factor must be one-dimensional")

    def value(pts):  # the factors' own value functions: the caller holds the errstate
        cols = [np.asarray(f._value_fn(pts[:, k].reshape(-1, 1)), dtype=complex)[:, 0]
                for k, f in enumerate(factors)]
        return np.stack(cols, axis=1)

    def jet(pts, order):
        n = pts.shape[0]
        p, jac = np.empty((n, d), dtype=complex), np.zeros((n, d, d), dtype=complex)
        lap = np.empty((n, d), dtype=complex) if order == 2 else None
        for k, f in enumerate(factors):
            col = slice(k, k + 1)
            p[:, col], jac[:, col, col], *rest = f._jet(pts[:, col], order)
            if rest:
                lap[:, col] = rest[0]
        return (p, jac, lap)[:order + 1]

    poles = [(k, loc) for k, f in enumerate(factors) for _axis, loc in f.poles]
    closed = all(f.derivative_kind == "closed-form" for f in factors)
    return MomentumField(d, value, jacobian_fn=partial(jet, order=1),
                         laplacian_fn=partial(jet, order=2),
                         derivative_kind="closed-form" if closed else "numeric-central-difference",
                         poles=poles, holomorphic=all(f.holomorphic for f in factors),
                         tolerance=factors[0].tolerance)


# -- potentials ----------------------------------------------------------------


class PotentialField:
    """Scalar potential with its gradient evaluator."""

    def __init__(self, value_fn, gradient_fn, dimension: int = 1):
        self.dimension = int(dimension)
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn

    def _value_at(self, pts):
        return np.asarray(self._value_fn(pts), dtype=complex)

    def _gradient_at(self, pts):
        return np.asarray(self._gradient_fn(pts), dtype=complex)

    def value(self, r):
        pts, restore = _as_points(r, self.dimension)
        return restore(self._value_at(pts))

    def gradient(self, r):
        pts, restore = _as_points(r, self.dimension)
        return restore(self._gradient_at(pts))


def harmonic_potential(units: UnitSystem = NATURAL_UNITS) -> PotentialField:
    """U(x) = m*omega**2*x**2/2 with its closed-form gradient."""
    k = units.mass * units.omega ** 2
    return PotentialField(lambda pts: 0.5 * k * pts[:, 0] ** 2,
                          lambda pts: k * pts[:, 0:1], dimension=1)


def polynomial_potential(coefficients) -> PotentialField:
    """1-D polynomial potential; ``coefficients`` ascending in power."""
    poly = np.polynomial.Polynomial(coefficients)
    dpoly = poly.deriv()
    return PotentialField(lambda pts: poly(pts[:, 0]),
                          lambda pts: dpoly(pts[:, 0])[:, None], dimension=1)


def zero_potential(dimension: int = 1) -> PotentialField:
    return constant_potential(0.0, dimension)


def constant_potential(value: float, dimension: int = 1) -> PotentialField:
    return PotentialField(lambda pts: np.full(pts.shape[0], value, dtype=complex),
                          lambda pts: np.zeros(pts.shape, dtype=complex),
                          dimension=dimension)


def separable_potential(parts) -> PotentialField:
    """Sum of independent 1-D potentials, one per axis."""
    parts = list(parts)

    def value(pts):
        return sum(p._value_at(pts[:, k].reshape(-1, 1)) for k, p in enumerate(parts))

    def gradient(pts):
        cols = [p._gradient_at(pts[:, k].reshape(-1, 1))[:, 0] for k, p in enumerate(parts)]
        return np.stack(cols, axis=1)

    return PotentialField(value, gradient, dimension=len(parts))


# -- energy --------------------------------------------------------------------


def _check_potential(field, potential):
    """A potential whose dimension differs from the field's is a ValueError."""
    if potential.dimension != field.dimension:
        raise ValueError(f"potential and field dimensions disagree: "
                         f"{potential.dimension}-D potential, {field.dimension}-D field")


def _energy(field, potential, pts, units):
    """``energy_at`` on (n, d) points, without the pole and axis check, and the
    (n, d) momenta it was computed from: ``(p, E)``."""
    _check_potential(field, potential)
    p, jac = field._jacobian_at(pts, check=False)
    div = np.trace(jac, axis1=1, axis2=2)
    del jac  # (n, d, d): freed before the potential's temporaries are made
    div *= -1j * (units.hbar / (2.0 * units.mass))
    energy = p[:, 0] * p[:, 0]
    for k in range(1, field.dimension):
        energy += p[:, k] * p[:, k]
    energy /= 2.0 * units.mass
    energy += potential._value_at(pts)
    energy += div
    return p, energy


def energy_at(field: MomentumField, potential: PotentialField, r,
              units: UnitSystem = NATURAL_UNITS):
    """Complex energy E = p.p/(2m) + U - i*(hbar/2m) div p at ``r``.

    ``p.p`` is the unconjugated dot product: the square of the eigenvalue,
    not |p|**2.  No real projection is applied.  The field's pole and
    real-axis check runs first; the result has the shape of ``r`` without
    its component axis, and a single position gives a Python complex.
    """
    pts, restore = _as_points(r, field.dimension)
    field._check(pts)
    return restore(_energy(field, potential, pts, units)[1])


def _axis_samples(field, region, samples, minimum):
    """Uniform grid of ``samples`` points over a 1-D ``region``.

    Returns (xs, points, keep): the real grid, the same as (n, 1) complex
    points, and a mask of the points outside the field's pole margin.  A
    sample count below ``minimum`` is a ValueError; an empty region, or one
    with no usable point, is EmptyRegion.
    """
    if samples < minimum:
        raise ValueError(f"samples must be at least {minimum}, got {samples!r}")
    lo, hi = float(region[0]), float(region[1])
    if not hi > lo:
        raise EmptyRegion(f"degenerate scan region {region!r}")
    xs = np.linspace(lo, hi, samples)
    pts = xs.reshape(-1, 1).astype(complex)
    keep = field.pole_distances(pts) > field.pole_margin
    if not np.any(keep):
        raise EmptyRegion("every sample point sits inside a node-guard neighborhood")
    return xs, pts, keep


@dataclass
class ScanReport:
    """Spatial energy-constancy scan over a 1-D region."""

    region: tuple
    points: np.ndarray
    momenta: np.ndarray
    energies: np.ndarray
    mean_energy: complex
    max_deviation: float
    worst_point: float
    tol: float
    passed: bool


def energy_constancy_scan(field: MomentumField, potential: PotentialField, region,
                          samples: int = 1000, tol: float = 1e-9,
                          units: UnitSystem = NATURAL_UNITS) -> ScanReport:
    """Scan E over ``region`` and report the worst deviation from the mean.

    Spatial constancy of the full complex E is the eigenstate signature;
    a mismatched field/potential pair shows an O(1) deviation.  Sample
    points inside the field's pole margin are dropped; if nothing usable
    remains the scan raises EmptyRegion.  Both real and imaginary parts
    are retained and reported without interpretation.
    """
    if field.dimension != 1:
        raise ValueError("energy scans are defined for one-dimensional fields")
    xs, pts, keep = _axis_samples(field, region, samples, 2)
    xs, pts = xs[keep], pts[keep]
    momenta, energies = _energy(field, potential, pts, units)
    mean = complex(energies.mean())
    deviations = np.abs(energies - mean)
    worst = int(np.argmax(deviations))
    return ScanReport(
        region=(float(region[0]), float(region[1])), points=xs, momenta=momenta[:, 0],
        energies=energies, mean_energy=mean,
        max_deviation=float(deviations[worst]), worst_point=float(xs[worst]),
        tol=float(tol), passed=bool(deviations[worst] <= tol))


def curl_residual(field: MomentumField, r) -> float:
    """Norm of curl p at ``r`` using the field's derivative evaluators."""
    c = field.curl(r)
    if field.dimension == 2:
        return float(abs(c))
    return float(np.linalg.norm(np.atleast_1d(c)))


# -- wavefunction reconstruction -------------------------------------------------


@dataclass
class WavefunctionSamples:
    """psi sampled along a path."""

    path: np.ndarray
    values: np.ndarray
    phase_integrals: np.ndarray  # cumulative line integral of p


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_SEGMENT_REL_TOL, _SEGMENT_MAX_PANELS = 1e-12, 1 << 12


def _segment_integral(field, a, b):
    """Gauss-Legendre line integral of p . dr along the straight segment a->b.

    Order-8 panels, doubling the panel count until two successive
    estimates agree to _SEGMENT_REL_TOL (relative).
    """
    delta = b - a

    def estimate(panels):
        edges = np.linspace(0.0, 1.0, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 / panels
        s = (mids[:, None] + half * _GL_NODES[None, :]).reshape(-1)
        pts = a[None, :] + s[:, None] * delta[None, :]
        p = field._value_at(pts)
        integrand = p @ delta
        w = np.broadcast_to(_GL_WEIGHTS, (panels, 8)).reshape(-1)
        return complex((integrand * w).sum() * half)

    panels = 1
    prev = estimate(panels)
    while panels < _SEGMENT_MAX_PANELS:
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) <= _SEGMENT_REL_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ConvergenceFailure(
        f"segment quadrature did not reach rel_tol={_SEGMENT_REL_TOL:g} "
        f"within {_SEGMENT_MAX_PANELS} panels")


def _segment_pole_distance(a, b, axis, loc):
    """Min distance of coordinate ``axis`` to ``loc`` along segment a->b."""
    za = complex(a[axis]) - loc
    zb = complex(b[axis]) - loc
    # distance from the origin to the 2-D segment (re, im)(za) -> (re, im)(zb)
    pa = np.array([za.real, za.imag])
    pb = np.array([zb.real, zb.imag])
    d = pb - pa
    denom = float(d @ d)
    t = 0.0 if denom == 0 else float(np.clip(-(pa @ d) / denom, 0.0, 1.0))
    return float(np.linalg.norm(pa + t * d))


def reconstruct_wavefunction(field: MomentumField, path, amplitude: complex = 1.0,
                             units: UnitSystem = NATURAL_UNITS) -> WavefunctionSamples:
    """psi = A*exp((i/hbar) * integral of p . dr) accumulated along ``path``.

    ``path`` is an ordered sequence of points joined by straight
    segments; the integral is accumulated segment by segment so values
    are produced at every path node.  With the default A = 1 the
    wavefunction is anchored to psi = 1 at the path start.  A segment
    passing within node_guard of a pole raises PathThroughNode.
    """
    pts, _ = _as_points(path, field.dimension)
    if pts.shape[0] < 2:
        raise ValueError("path needs at least two nodes")
    guard = field.tolerance.node_guard
    for i in range(pts.shape[0] - 1):
        for axis, loc in field.poles:
            if _segment_pole_distance(pts[i], pts[i + 1], axis, loc) < guard:
                raise PathThroughNode(
                    f"path segment {i} passes within node_guard of the pole "
                    f"x_{axis} = {loc:g}")

    integrals = np.zeros(pts.shape[0], dtype=complex)
    for i in range(pts.shape[0] - 1):
        integrals[i + 1] = integrals[i] + _segment_integral(field, pts[i], pts[i + 1])
    values = amplitude * np.exp(1j * integrals / units.hbar)
    path_out = pts[:, 0] if field.dimension == 1 else pts
    return WavefunctionSamples(path=path_out, values=values, phase_integrals=integrals)
