"""Independent finite-difference eigensolver on a 1-D grid.

Discretizes -(hbar**2/2m) psi'' + U psi = E psi with the symmetric
three-point Laplacian and Dirichlet walls, then solves the tridiagonal
eigenproblem by bisection plus inverse iteration (deterministic).  The
resulting eigenpairs cross-validate the closed-form momentum-field
constructions on potentials with no analytic solution: a grid-derived
field must reproduce the closed-form field and keep the energy relation
spatially constant.

Accuracy is second order in the grid spacing; pad the domain by several
characteristic lengths so the Dirichlet truncation is invisible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _EXPORTS
from .core import DEFAULT_TOLERANCE, NATURAL_UNITS, TolerancePolicy, UnitSystem
from .errors import ConvergenceFailure
from .fields import MomentumField, PotentialField

__all__ = _EXPORTS["gridsolver"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with at least 64 points."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.points < 64:
            raise ValueError("grids need at least 64 points")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its grid-sampled, L2-normalized eigenvector.

    The sign convention fixes the first non-negligible lobe positive;
    normalization uses the grid measure sum |psi|**2 h = 1.
    """

    energy: float
    psi: np.ndarray
    level: int


def solve_schrodinger_1d(potential, grid: Grid1D, n_states: int,
                         units: UnitSystem = NATURAL_UNITS) -> list[EigenPair]:
    """Lowest ``n_states`` eigenpairs of the discretized problem, ascending.

    ``potential`` is a PotentialField or a plain callable of x; it must
    be real-valued on the grid.  ``n_states`` may not exceed a quarter
    of the grid size (higher states are not resolved).
    """
    from scipy.linalg import eigh_tridiagonal

    if n_states < 1 or n_states > grid.points // 4:
        raise ValueError("n_states must be between 1 and points/4")
    xs = grid.xs
    if isinstance(potential, PotentialField):
        u = np.asarray(potential.value(xs.astype(complex)))
    else:
        u = np.asarray(potential(xs), dtype=complex)
    if np.any(np.abs(u.imag) > 0):
        raise ValueError("potential must be real-valued on the grid")
    u = u.real

    h = grid.spacing
    kin = units.hbar ** 2 / (2.0 * units.mass * h * h)
    diag = 2.0 * kin + u[1:-1]
    off = np.full(grid.points - 3, -kin)
    try:
        energies, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, n_states - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc

    pairs = []
    for level in range(n_states):
        psi = np.zeros(grid.points)
        psi[1:-1] = vectors[:, level]
        psi /= np.sqrt(np.sum(psi ** 2) * h)
        threshold = 1e-8 * np.max(np.abs(psi))
        first = np.argmax(np.abs(psi) > threshold)
        if psi[first] < 0:
            psi = -psi
        pairs.append(EigenPair(energy=float(energies[level]), psi=psi, level=level))
    return pairs


def _grid_nodes(xs, psi):
    """Interior sign changes of psi, located by linear interpolation."""
    nodes = []
    for j in range(1, len(xs) - 2):
        a, b = psi[j], psi[j + 1]
        if a == 0.0:
            nodes.append(float(xs[j]))
        elif a * b < 0.0:
            nodes.append(float(xs[j] - a * (xs[j + 1] - xs[j]) / (b - a)))
    return nodes


def _local_cubic(xs, values):
    """Local 4-point Lagrange interpolant on a uniform grid.

    Piecewise interpolation keeps pole blow-ups confined to their own
    stencils instead of polluting a global fit.
    """
    x0 = xs[0]
    h = xs[1] - xs[0]
    m = len(xs)

    def interp(q):
        q = np.asarray(q, dtype=float)
        cell = np.clip(np.floor((q - x0) / h).astype(int), 1, m - 3)
        t = (q - (x0 + cell * h)) / h
        w_m1 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w_0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
        w_p1 = -(t + 1.0) * t * (t - 2.0) / 2.0
        w_p2 = (t + 1.0) * t * (t - 1.0) / 6.0
        return (w_m1 * values[cell - 1] + w_0 * values[cell]
                + w_p1 * values[cell + 1] + w_p2 * values[cell + 2])

    return interp


def field_from_grid(pair: EigenPair, grid: Grid1D, units: UnitSystem = NATURAL_UNITS,
                    tolerance: TolerancePolicy = DEFAULT_TOLERANCE) -> MomentumField:
    """Momentum field p = -i*hbar*psi'/psi from a grid eigenpair.

    Derivatives of psi come from central differences on the grid; p and
    its first two derivatives are tabulated at the interior points and
    interpolated locally (4-point Lagrange) in between, so evaluation is
    restricted to the real axis inside the grid.  Detected nodes (sign
    changes of psi) populate the pole list; accuracy is meaningful a few
    spacings away from nodes and where psi still has support.
    """
    xs = grid.xs
    psi = pair.psi
    h = grid.spacing
    hbar = units.hbar

    # interior points with a full 5-point neighborhood: j = 2 .. M-3
    j = np.arange(2, grid.points - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (psi[j + 1] - psi[j - 1]) / (2.0 * h)
        d2 = (psi[j + 1] - 2.0 * psi[j] + psi[j - 1]) / (h * h)
        d3 = (psi[j + 2] - 2.0 * psi[j + 1] + 2.0 * psi[j - 1] - psi[j - 2]) / (2.0 * h ** 3)
        ratio1 = d1 / psi[j]
        ratio2 = d2 / psi[j]
        ratio3 = d3 / psi[j]
    p_tab = -1j * hbar * ratio1
    dp_tab = -1j * hbar * (ratio2 - ratio1 ** 2)
    ddp_tab = -1j * hbar * (ratio3 - 3.0 * ratio2 * ratio1 + 2.0 * ratio1 ** 3)

    xs_tab = xs[j]
    interp_p = _local_cubic(xs_tab, p_tab)
    interp_dp = _local_cubic(xs_tab, dp_tab)
    interp_ddp = _local_cubic(xs_tab, ddp_tab)
    lo, hi = xs_tab[0], xs_tab[-1]

    def domain(pts):
        x = pts[:, 0].real
        if np.any((x < lo) | (x > hi)):
            raise ValueError(
                f"grid field evaluated outside the tabulated interior [{lo:g}, {hi:g}]")
        return x

    def value(pts):
        return interp_p(domain(pts))[:, None]

    def jet(pts, order):
        x = domain(pts)
        pair = interp_p(x)[:, None], interp_dp(x).reshape(-1, 1, 1)
        return pair if order == 1 else (*pair, interp_ddp(x)[:, None])

    poles = tuple((0, node) for node in _grid_nodes(xs, psi))
    return MomentumField(1, value, jacobian_fn=partial(jet, order=1),
                         laplacian_fn=partial(jet, order=2),
                         derivative_kind="numeric-central-difference",
                         poles=poles, holomorphic=False, tolerance=tolerance,
                         pole_margin=5.0 * h)
