"""Independent finite-difference eigensolver on a 1-D grid.

Discretizes -(hbar**2/2m) psi'' + U psi = E psi with the symmetric
three-point Laplacian and Dirichlet walls, then solves the tridiagonal
eigenproblem with numpy alone and deterministically: Sturm-count
bisection (multisection) for the energies, to within about 2*eps*||T||,
and inverse iteration reorthogonalized within clusters of close energies,
as in LAPACK's dstein, for the vectors, whose residuals are of order
eps*||T||.  The resulting eigenpairs cross-validate the closed-form
momentum-field constructions on potentials with no analytic solution: a
grid-derived field must reproduce the closed-form field and keep the
energy relation spatially constant.

Accuracy is second order in the grid spacing; pad the domain by several
characteristic lengths so the Dirichlet truncation is invisible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _EXPORTS
from .core import NATURAL_UNITS, UnitSystem
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
    be finite and real-valued at the interior grid points.  ``n_states``
    may not exceed a quarter of the grid size (higher states are not
    resolved).

    The tridiagonal eigenproblem T v = E v is solved with numpy alone:
    Sturm-count multisection brackets each energy to within about
    2*eps*||T|| (absolute), and inverse iteration, reorthogonalized within
    clusters of close energies as LAPACK's dstein does, gives vectors with
    residuals ||T v - E v|| of order eps*||T|| that stay orthogonal to
    about 1e-15 even across near-degenerate pairs.  Fails with
    ConvergenceFailure if an inverse iteration does not converge.
    """
    if n_states < 1 or n_states > grid.points // 4:
        raise ValueError("n_states must be between 1 and points/4")
    xs = grid.xs
    if isinstance(potential, PotentialField):
        u = np.asarray(potential.value(xs.astype(complex)))
    else:
        u = np.asarray(potential(xs), dtype=complex)
    bad = ~np.isfinite(u[1:-1])
    if np.any(bad):
        raise ValueError(f"potential is not finite on the grid (at x = {xs[1:-1][bad][0]:g})")
    if np.any(np.abs(u.imag) > 0):
        raise ValueError("potential must be real-valued on the grid")
    u = u.real

    h = grid.spacing
    kin = units.hbar ** 2 / (2.0 * units.mass * h * h)
    diag = 2.0 * kin + u[1:-1]
    off = np.full(grid.points - 3, -kin)
    energies = _lowest_eigenvalues(diag, off, n_states)
    vectors = _inverse_iteration(diag, off, energies)

    pairs = []
    for level in range(n_states):
        psi = np.zeros(grid.points)
        psi[1:-1] = vectors[level]
        psi /= np.sqrt(np.sum(psi ** 2) * h)
        threshold = 1e-8 * np.max(np.abs(psi))
        first = np.argmax(np.abs(psi) > threshold)
        if psi[first] < 0:
            psi = 0.0 - psi  # -psi would write the zero walls as -0.0
        pairs.append(EigenPair(energy=float(energies[level]), psi=psi, level=level))
    return pairs


# Sturm-count shifts per multisection pass, shared among the wanted states;
# with fewer the per-row Python cost of a pass dominates, with more its
# array work does.
_SHIFTS_PER_PASS = 60
# Inverse-iteration solves per vector, and the solves still made after its
# growth test first passes (LAPACK dstein's MAXITS and EXTRA).
_MAX_SOLVES = 5
_EXTRA_SOLVES = 2


def _off_diagonal_sums(off):
    """Sum of |T_ij| over j != i, for each row i of the tridiagonal T."""
    sums = np.zeros(len(off) + 1)
    sums[1:] += np.abs(off)
    sums[:-1] += np.abs(off)
    return sums


def _sturm_counts(diag, off2, shifts):
    """Number of eigenvalues of T below each shift.

    By Sylvester's law of inertia this is the number of negative pivots of
    a factorization of T - shift.  The LDL^T pivots
    d_i = (a_i - shift) - b_{i-1}**2 / d_{i-1} run down from the top row
    and, mirrored, up from the bottom one, both sweeps and every shift in
    one Python step per row pair; they meet at the twist row r, whose
    pivot is (a_r - shift) - b_{r-1}**2 / d_{r-1} - b_r**2 / d_{r+1}.  A
    zero or subnormal pivot turns the next quotient into an infinity that
    IEEE arithmetic carries to the right count, so no pivot guard is needed.
    """
    n = len(diag)
    half = (n - 1) // 2
    twist = n - 1 - half
    ends = np.stack((diag[:half], diag[::-1][:half]), axis=1)
    couplings = np.stack((off2[:half - 1], off2[::-1][:half - 1]), axis=1)[:, :, None]
    pivots = ends[:, :, None] - shifts
    rows = list(pivots)
    with np.errstate(divide="ignore", over="ignore"):
        for b2, prev, cur in zip(couplings, rows, rows[1:]):
            cur -= b2 / prev
        down, up = pivots[-1]
        counts = np.signbit(pivots).sum(axis=(0, 1))
        if twist > half:
            down = (diag[half] - shifts) - off2[half - 1] / down
            counts += np.signbit(down)
        twisted = (diag[twist] - shifts) - off2[twist - 1] / down - off2[twist] / up
    return counts + np.signbit(twisted)


def _lowest_eigenvalues(diag, off, n_states):
    """The ``n_states`` lowest eigenvalues of T, ascending, by multisection.

    Every pass counts the eigenvalues below a set of shifts spread evenly
    over each state's bracket and narrows every bracket with every count;
    the brackets start at the Gershgorin bounds and end no wider than
    2*eps*max|bound|.
    """
    n = len(diag)
    eps = np.finfo(float).eps
    radius = _off_diagonal_sums(off)
    lower, upper = float(np.min(diag - radius)), float(np.max(diag + radius))
    scale = max(abs(lower), abs(upper))
    tol = 2.0 * eps * scale
    pad = 2.0 * n * eps * scale  # rounding in the Gershgorin sums
    lo = np.full(n_states, lower - pad)
    hi = np.full(n_states, upper + pad)
    per_state = max(1, _SHIFTS_PER_PASS // n_states)
    fractions = np.arange(1, per_state + 1) / (per_state + 1)
    levels = np.arange(n_states)[:, None]
    off2 = off * off
    passes = int(np.ceil(np.log2((hi[0] - lo[0]) / tol) / np.log2(per_state + 1))) + 2
    for _ in range(passes):
        if np.max(hi - lo) <= tol:
            return 0.5 * (lo + hi)
        shifts = (lo[:, None] + (hi - lo)[:, None] * fractions).ravel()
        below = _sturm_counts(diag, off2, shifts) <= levels
        lo = np.maximum(lo, np.max(np.where(below, shifts, -np.inf), axis=1))
        hi = np.minimum(hi, np.min(np.where(below, np.inf, shifts), axis=1))
    raise ConvergenceFailure(f"bisection left brackets of width {np.max(hi - lo):.3e} "
                             f"> {tol:.3e} after {passes} passes")


def _ldl_solver(diag, off, shift, pivmin):
    """Solver of (T - shift) x = r by an LDL^T factorization in Python floats.

    Pivots smaller than ``pivmin`` in magnitude are raised to it with their
    sign, so the factorization exists at an eigenvalue too.
    """
    pivots, multipliers = [], []
    fill = 0.0
    for a, b in zip(diag, off + [0.0]):
        pivot = (a - shift) - fill
        if abs(pivot) < pivmin:
            pivot = math.copysign(pivmin, pivot)
        pivots.append(pivot)
        multipliers.append(b / pivot)
        fill = b * multipliers[-1]
    multipliers.pop()
    pivot_array = np.array(pivots)
    ups = multipliers[::-1]

    def solve(rhs):
        y = rhs[0]
        ys = [y]
        for r, m in zip(rhs[1:], multipliers):
            y = r - m * y
            ys.append(y)
        zs = (np.array(ys) / pivot_array).tolist()
        x = zs[-1]
        xs = [x]
        for z, m in zip(zs[-2::-1], ups):
            x = z - m * x
            xs.append(x)
        return np.array(xs[::-1])

    return solve, pivot


def _inverse_iteration(diag, off, energies):
    """Unit eigenvectors of T for the ascending ``energies``, one per row.

    Follows LAPACK's dstein: a fixed start vector, each right-hand side
    scaled so that a solution of infinity norm sqrt(0.1/n) or more has
    converged, two more solves after that, energies closer than 10 ulp
    pulled apart, and, after every solve, Gram-Schmidt against the earlier
    vectors of the same cluster (energies within 1e-3*||T||_1 of the
    previous one).
    """
    n = len(diag)
    eps = np.finfo(float).eps
    norm = float(np.max(np.abs(diag) + _off_diagonal_sums(off)))
    cluster_gap = 1e-3 * norm
    converged_norm = math.sqrt(0.1 / n)
    pivmin = eps * max(float(np.max(np.abs(diag))), float(np.max(np.abs(off))))
    # deterministic, and without the symmetry of any potential
    start = (np.arange(1, n + 1) * 0.6180339887498949) % 1.0 - 0.5
    diag_list, off_list = diag.tolist(), off.tolist()
    vectors = np.empty((len(energies), n))
    cluster = 0
    previous = None
    for level, energy in enumerate(energies.tolist()):
        shift = energy
        if previous is not None:
            shift = max(shift, previous + 10.0 * abs(eps * shift))
            if shift - previous > cluster_gap:
                cluster = level
        previous = shift
        solve, last_pivot = _ldl_solver(diag_list, off_list, shift, pivmin)
        scale = n * norm * max(eps, abs(last_pivot))
        x = start
        checks = 0
        for _ in range(_MAX_SOLVES):
            x = solve((x * (scale / np.max(np.abs(x)))).tolist())
            basis = vectors[cluster:level]
            x -= (basis @ x) @ basis
            if np.max(np.abs(x)) >= converged_norm:
                checks += 1
                if checks > _EXTRA_SOLVES:
                    break
        else:
            raise ConvergenceFailure(
                f"inverse iteration for level {level} did not converge in {_MAX_SOLVES} solves")
        vectors[level] = x / np.linalg.norm(x)
    return vectors


def _grid_nodes(xs, psi):
    """Interior sign changes of psi, located by linear interpolation.

    Only pairs whose larger |psi| exceeds 1e-8 of the peak count, the
    floor of the sign convention, so no sign flip in underflowed tails
    becomes a node.
    """
    a, b = psi[1:-2], psi[2:-1]
    live = np.maximum(np.abs(a), np.abs(b)) > 1e-8 * np.max(np.abs(psi))
    at = np.flatnonzero(live & ((a == 0.0) | (a * b < 0.0)))
    a, b, left, right = a[at], b[at], xs[1:-2][at], xs[2:-1][at]
    return (left - a * (right - left) / (b - a)).tolist()


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


def field_from_grid(pair: EigenPair, grid: Grid1D,
                    units: UnitSystem = NATURAL_UNITS) -> MomentumField:
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
                         poles=poles, holomorphic=False,
                         pole_margin=5.0 * h)
