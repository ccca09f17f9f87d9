"""Trajectory evolution along momentum fields.

The primary evolution mode slaves the momentum to the field and
integrates the flow rule

    dr/dt = p(r)/m.

For a stationary field this flow satisfies the force relation
dp/dt = -grad U + i*(hbar/2m)*lap p identically; the module exposes the
residual between the convective derivative (p/m . grad) p and the force
as a consistency check rather than integrating the force law a second
time.  A "forced" mode that co-integrates (r, p) from the force law
directly is provided for experimentation.

Trajectories are integrated in the complex plane: even a real starting
point generally leaves the real axis.  Steps that approach a field pole
are refused; the integrator halts with the partial trajectory attached
to the raised error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCE, NATURAL_UNITS, TolerancePolicy, UnitSystem
from .errors import (
    BranchAmbiguity,
    EmptyRegion,
    NodeEvaluation,
    StepUnderflow,
    TrajectoryNearSingularity,
)
from .fields import MomentumField, PotentialField, _as_points, _restore_vector

__all__ = [
    "PhasePoint",
    "Trajectory",
    "IntegratorConfig",
    "force_at",
    "stationarity_residual",
    "evolve",
    "qho_analytic_position",
    "classify_fixed_points",
]


@dataclass(frozen=True)
class PhasePoint:
    """One (t, position, momentum) sample of a trajectory."""

    t: float
    position: np.ndarray
    momentum: np.ndarray


class Trajectory:
    """Time-ordered phase points plus a record of how they were produced."""

    def __init__(self, times, positions, momenta, scheme, step_sizes=None, metadata=None):
        self.times = np.asarray(times, dtype=float)
        self.positions = np.asarray(positions, dtype=complex)
        self.momenta = np.asarray(momenta, dtype=complex)
        self.scheme = scheme
        self.step_sizes = None if step_sizes is None else np.asarray(step_sizes, float)
        self.metadata = dict(metadata or {})
        if self.positions.ndim != 2 or self.positions.shape != self.momenta.shape:
            raise ValueError("positions and momenta must be matching (n, d) arrays")
        if len(self.times) != self.positions.shape[0]:
            raise ValueError("times and positions disagree in length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def dimension(self):
        return self.positions.shape[1]

    def __len__(self):
        return len(self.times)

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(float(self.times[i]), self.positions[i].copy(),
                          self.momenta[i].copy())

    @property
    def final(self) -> PhasePoint:
        return self.point(len(self) - 1)

    @property
    def x(self):
        """First position component over time (1-D convenience view)."""
        return self.positions[:, 0]


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step control.

    ``rk4`` uses the fixed step ``dt``.  ``rkf45`` adapts the step from
    the embedded 4(5) error estimate against ``abs_tol``/``rel_tol``,
    keeping it within [dt_min, dt_max].
    """

    t_end: float
    scheme: str = "rk4"
    dt: float = 1e-3
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    dt_min: float = 1e-12
    dt_max: float = 0.1

    def __post_init__(self):
        if self.scheme not in ("rk4", "rkf45"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (self.t_end > 0 and self.dt > 0):
            raise ValueError("t_end and dt must be positive")
        if self.scheme == "rkf45" and not (0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")


def force_at(field: MomentumField, potential: PotentialField, r,
             units: UnitSystem = NATURAL_UNITS):
    """Force F = -grad U + i*(hbar/2m) * (vector Laplacian of p)."""
    pts, kind = _as_points(r, field.dimension)
    field._check(pts)
    grad_u = potential._gradient_at(pts)
    lap = field._laplacian_at(pts, check=False)
    f = -grad_u + 1j * (units.hbar / (2.0 * units.mass)) * lap
    return _restore_vector(f, kind)


def stationarity_residual(field: MomentumField, potential: PotentialField, r,
                          units: UnitSystem = NATURAL_UNITS):
    """Residual (p/m . grad) p - F at ``r``.

    Zero (to tolerance) certifies that following dr = (p/m) dt makes the
    momentum obey the force law along the trajectory, which holds exactly
    for a field paired with its own stationary-state potential.
    """
    pts, kind = _as_points(r, field.dimension)
    field._check(pts)
    p = field._value_at(pts, check=False)
    jac = field._jacobian_at(pts, check=False)
    convective = np.einsum("nij,nj->ni", jac, p) / units.mass
    grad_u = potential._gradient_at(pts)
    lap = field._laplacian_at(pts, check=False)
    force = -grad_u + 1j * (units.hbar / (2.0 * units.mass)) * lap
    return _restore_vector(convective - force, kind)


# -- integration ---------------------------------------------------------------

# Fehlberg 4(5) tableau: stage times, stage coefficients, 4th-order
# propagation weights, and the per-stage error coefficients.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _as_state(x0, dimension):
    arr = np.asarray(x0, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (dimension,):
        raise ValueError(f"initial position must have {dimension} component(s)")
    return arr


class _Halt(Exception):
    def __init__(self, reason):
        self.reason = reason


def _partial_trajectory(times, positions, momenta, scheme, steps, metadata):
    return Trajectory(times, np.array(positions), np.array(momenta), scheme,
                      step_sizes=steps, metadata=metadata)


def evolve(field: MomentumField, potential: PotentialField, x0, config: IntegratorConfig,
           units: UnitSystem = NATURAL_UNITS, mode: str = "field") -> Trajectory:
    """Evolve a single particle from ``x0`` under the field's flow.

    Mode "field" (the supported default) slaves the momentum to the
    field and integrates dr = p(r)/m dt; every stored phase point has
    momentum == field(position) exactly.  Mode "forced" co-integrates
    (r, p) from dr = p/m dt and dp = F(r) dt, which is equivalent for a
    stationary field but carries no momentum-slaving guarantee; it is
    for experimentation only.

    A step that would move the particle more than half its distance to
    the nearest pole, or that lands within twice the node guard, halts
    the run with TrajectoryNearSingularity carrying the partial result.
    """
    if mode not in ("field", "forced"):
        raise ValueError(f"unknown evolution mode {mode!r}")
    if not field.holomorphic:
        raise ValueError("trajectory evolution needs a field evaluable at complex positions")
    d = field.dimension
    x = _as_state(x0, d)
    inv_m = 1.0 / units.mass
    guard = field.tolerance.node_guard

    if mode == "field":
        def rhs(state):
            return field._value_at(state.reshape(1, -1), check=False)[0] * inv_m

        def momentum_of(state):
            return field._value_at(state.reshape(1, -1), check=False)[0]

        def position_of(state):
            return state
    else:
        p0 = field._value_at(x.reshape(1, -1), check=False)[0]
        x = np.concatenate([x, p0])

        def rhs(state):
            pos = state[:d].reshape(1, -1)
            grad_u = potential._gradient_at(pos)[0]
            lap = field._laplacian_at(pos, check=False)[0]
            force = -grad_u + 1j * (units.hbar / (2.0 * units.mass)) * lap
            return np.concatenate([state[d:] * inv_m, force])

        def momentum_of(state):
            return state[d:]

        def position_of(state):
            return state[:d]

    times = [0.0]
    positions = [position_of(x).copy()]
    momenta = [momentum_of(x).copy()]
    steps = []
    metadata = {"mode": mode, "dt": config.dt, "scheme": config.scheme}

    def guarded_rhs(state, h):
        """First-stage slope, refusing steps that dive toward a pole."""
        pos = position_of(state)
        dist = float(field.pole_distances(pos.reshape(1, -1))[0])
        k1 = rhs(state)
        speed = float(np.linalg.norm(k1[:d]))
        if dist < 2.0 * guard or speed * h > 0.5 * dist:
            raise _Halt("approached field singularity")
        return k1

    def store(t, state, h):
        times.append(t)
        positions.append(position_of(state).copy())
        momenta.append(momentum_of(state).copy())
        steps.append(h)

    def halt(exc_cls, reason):
        partial = _partial_trajectory(times, positions, momenta, config.scheme,
                                      steps or None, {**metadata, "halt": reason})
        raise exc_cls(reason, trajectory=partial, last_point=partial.final)

    try:
        if config.scheme == "rk4":
            n_steps = max(1, math.ceil(config.t_end / config.dt - 1e-12))
            t = 0.0
            for i in range(n_steps):
                t_next = min(config.t_end, (i + 1) * config.dt)
                h = t_next - t
                k1 = guarded_rhs(x, h)
                k2 = rhs(x + 0.5 * h * k1)
                k3 = rhs(x + 0.5 * h * k2)
                k4 = rhs(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = t_next
                store(t, x, h)
        else:
            t = 0.0
            h = min(config.dt, config.dt_max, config.t_end)
            while t < config.t_end - 1e-15:
                h = min(h, config.t_end - t)
                if h < config.dt_min:
                    halt(StepUnderflow, "step size underflow")
                ks = [guarded_rhs(x, h)]
                for stage in range(1, 6):
                    acc = x.copy()
                    for j, a in enumerate(_RKF_A[stage]):
                        acc = acc + h * a * ks[j]
                    ks.append(rhs(acc))
                err = h * sum(c * k for c, k in zip(_RKF_ERR, ks))
                scale = config.abs_tol + config.rel_tol * np.abs(x)
                ratio = float(np.max(np.abs(err) / scale))
                if ratio <= 1.0:
                    x = x + h * sum(b * k for b, k in zip(_RKF_B4, ks))
                    t += h
                    store(t, x, h)
                    factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                else:
                    factor = max(0.2, 0.9 * ratio ** -0.2)
                h = min(config.dt_max, h * factor)
                if h < config.dt_min:
                    halt(StepUnderflow, "step size underflow")
    except _Halt as stop:
        halt(TrajectoryNearSingularity, stop.reason)
    except NodeEvaluation:
        halt(TrajectoryNearSingularity, "stage evaluation inside node guard")

    return _partial_trajectory(times, positions, momenta, config.scheme,
                               steps, metadata)


# -- analytic oscillator solution ------------------------------------------------


def qho_analytic_position(x0, t, units: UnitSystem = NATURAL_UNITS,
                          tolerance: TolerancePolicy = DEFAULT_TOLERANCE):
    """Closed-form level-1 oscillator trajectory through complex x0.

    The squared position obeys a linear equation with solution

        u(t) = hbar/(m w) + (x0**2 - hbar/(m w)) * exp(2 i w t),

    a circle in the complex plane, and x(t) is the square root branch
    chosen by continuity from x0 at t = 0.  The branch is tracked by
    unwrapping the winding of u around the origin on a refined time
    grid; if u passes within node_guard**2 of 0 the branch becomes
    ambiguous and BranchAmbiguity is raised.

    Starting exactly at x0 = sqrt(hbar/(m w)) the circle degenerates to
    a point and the particle stays put; for |x0| large the motion tends
    to the classical circle x0*exp(i w t).
    """
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts)
    x0 = complex(x0)
    center = units.hbar / (units.mass * units.omega)
    c = x0 * x0 - center
    if c == 0:
        out = np.full(ts.shape, x0, dtype=complex)
        return complex(out[0]) if scalar else out

    t_lo = min(0.0, float(ts.min()))
    t_hi = max(0.0, float(ts.max()))
    # refine so the phase advances < 0.05 rad between grid points
    span = 2.0 * units.omega * (t_hi - t_lo)
    n_dense = max(33, int(span / 0.05) + 2)
    grid = np.union1d(np.linspace(t_lo, t_hi, n_dense), np.append(ts, 0.0))
    u = center + c * np.exp(2j * units.omega * grid)
    if np.min(np.abs(u)) < tolerance.node_guard ** 2:
        raise BranchAmbiguity(
            "u(t) = x(t)**2 passes within node_guard**2 of the origin; "
            "the square-root branch cannot be continued")
    theta = np.unwrap(np.angle(u))
    i0 = int(np.searchsorted(grid, 0.0))
    target = 2.0 * np.angle(x0)
    theta += 2.0 * np.pi * round((target - theta[i0]) / (2.0 * np.pi))
    x = np.sqrt(np.abs(u)) * np.exp(0.5j * theta)
    idx = np.searchsorted(grid, ts)
    out = x[idx]
    return complex(out[0]) if scalar else out


# -- fixed points ----------------------------------------------------------------


def classify_fixed_points(field: MomentumField, potential: PotentialField, region,
                          units: UnitSystem = NATURAL_UNITS, samples: int = 2001,
                          momentum_tol: float = 1e-8):
    """Real-axis roots of p(x) in ``region`` with their force residuals.

    The scan brackets sign changes of Im p on a uniform grid (fields from
    real eigenstates are purely imaginary on the real axis), skipping
    brackets that straddle a pole, refines each bracket by Brent's
    method, and keeps roots with |p| <= momentum_tol.  Each root is
    reported as (x, |F(x)|); a genuine fixed point has both p = 0 and a
    vanishing force residual.
    """
    from scipy.optimize import brentq

    if field.dimension != 1:
        raise ValueError("fixed-point scans are defined for 1-D fields")
    lo, hi = float(region[0]), float(region[1])
    if not hi > lo or samples < 3:
        raise EmptyRegion(f"degenerate scan region {region!r}")
    xs = np.linspace(lo, hi, samples)
    pts = xs.reshape(-1, 1).astype(complex)
    keep = field.pole_distances(pts) > field.pole_margin
    if not np.any(keep):
        raise EmptyRegion("every sample point sits inside a node-guard neighborhood")

    p = np.full(xs.shape, np.nan + 0j)
    p[keep] = field._value_at(pts[keep], check=False)[:, 0]
    g = p.imag

    def imag_p(x):
        return float(field._value_at(np.array([[complex(x)]]), check=False)[0, 0].imag)

    roots = []
    for i in range(len(xs) - 1):
        if not (keep[i] and keep[i + 1]):
            continue  # bracket straddles a pole: the sign flip is not a root
        gi, gj = g[i], g[i + 1]
        if gi == 0.0 and abs(p[i]) <= momentum_tol:
            roots.append(float(xs[i]))
        elif gi * gj < 0.0:
            roots.append(float(brentq(imag_p, xs[i], xs[i + 1], xtol=1e-14, rtol=1e-15)))
    if keep[-1] and g[-1] == 0.0 and abs(p[-1]) <= momentum_tol:
        roots.append(float(xs[-1]))

    results = []
    for root in sorted(roots):
        if results and abs(root - results[-1][0]) < 1e-9:
            continue
        value = field._value_at(np.array([[complex(root)]]), check=False)[0, 0]
        if abs(value) > momentum_tol:
            continue  # pole artifact or incomplete cancellation
        residual = float(np.abs(force_at(field, potential, complex(root), units)))
        results.append((root, residual))
    return results
