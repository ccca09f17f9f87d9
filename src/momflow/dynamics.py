"""Trajectory evolution along momentum fields.

Evolution slaves the momentum to the field and integrates the flow rule

    dr/dt = p(r)/m.

For a stationary field this flow satisfies the force relation
dp/dt = -grad U + i*(hbar/2m)*lap p identically; the module exposes the
residual between the convective derivative (p/m . grad) p and the force
as a consistency check rather than integrating the force law a second
time.

One stepper, ``_integrate``, carries a batch of independent members onto
a list of sample times with RK4 or with RKF45 under per-member step
control; one stage pass runs either scheme from its Butcher tableau in
``_TABLEAUX``.  A single trajectory (``evolve``) is a batch of one;
ensembles (``momflow.ensemble``) use the same stepper.  Trajectories are
integrated in the complex plane: even a real starting point generally
leaves the real axis.  Steps that approach a field pole are refused; the
member retires, and a single trajectory halts with the partial result
attached to the raised error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import DEFAULT_TOLERANCE, NATURAL_UNITS, TolerancePolicy, UnitSystem
from .errors import BranchAmbiguity, StepUnderflow, TrajectoryNearSingularity
from .fields import MomentumField, PotentialField, _as_points, _axis_samples, _check_potential

__all__ = _EXPORTS["dynamics"]


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

    @property
    def x(self):
        """First position component over time (1-D convenience view)."""
        return self.positions[:, 0]


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step control.

    ``rk4`` uses steps no longer than ``dt``.  ``rkf45`` adapts each
    member's step from its embedded 4(5) error estimate against
    ``abs_tol``/``rel_tol`` (finite, non-negative, not both 0), keeping it
    within [dt_min, dt_max].  ``t_end`` and ``dt`` are finite and positive.
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
        for key in ("t_end", "dt"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
        if self.scheme != "rkf45":
            return
        if not (0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")
        for key in ("abs_tol", "rel_tol"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and non-negative, got {value!r}")
        if self.abs_tol == self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be 0")


def _force(field, potential, pts, units):
    """p, J and the force F at (n, d) points, from one checked order-2 jet."""
    _check_potential(field, potential)
    p, jac, lap = field._laplacian_at(pts)
    return p, jac, -potential._gradient_at(pts) + 1j * (units.hbar / (2.0 * units.mass)) * lap


def force_at(field: MomentumField, potential: PotentialField, r,
             units: UnitSystem = NATURAL_UNITS):
    """Force F = -grad U + i*(hbar/2m) * (vector Laplacian of p)."""
    pts, restore = _as_points(r, field.dimension)
    return restore(_force(field, potential, pts, units)[2])


def stationarity_residual(field: MomentumField, potential: PotentialField, r,
                          units: UnitSystem = NATURAL_UNITS):
    """Residual (p/m . grad) p - F at ``r``, from one pass over the field.

    Zero (to tolerance) certifies that following dr = (p/m) dt makes the
    momentum obey the force law along the trajectory, which holds exactly
    for a field paired with its own stationary-state potential.
    """
    pts, restore = _as_points(r, field.dimension)
    p, jac, force = _force(field, potential, pts, units)
    convective = np.einsum("nij,nj->ni", jac, p) / units.mass
    return restore(convective - force)


# -- integration ---------------------------------------------------------------

# Member outcomes, indexed into REASON_LABELS.
COMPLETED = 0
NEAR_NODE = 1
STEP_UNDERFLOW = 2
REASON_LABELS = ("completed", "near-node", "step-underflow")

# Butcher tableaux (Hairer, Norsett & Wanner, Solving ODEs I, II.1) as
# (stages, update, error, divisor).  Each is a sum plan, a tuple of (stage,
# weight) terms summed in order without the zero entries: ``stages`` one per
# stage after the first, ``update`` the propagation weights and ``error``,
# if adaptive, the embedded weights minus them.  With a ``divisor`` the stage
# vectors are the slopes k, a stage term is k*(weight*h) and the update sum
# is scaled by h/divisor; without one they are the increments h*k.
_TABLEAUX = {
    # classic RK4: b = (1, 2, 2, 1)/6, summed as (2 k2 + k1) + 2 k3 + k4
    "rk4": ((((0, 0.5),), ((1, 0.5),), ((2, 1.0),)),
            ((1, 2.0), (0, 1.0), (2, 2.0), (3, 1.0)), (), 6.0),
    # Fehlberg 4(5), propagating the 4th-order solution
    "rkf45": (tuple(tuple(enumerate(row)) for row in (
                  (1 / 4,),
                  (3 / 32, 9 / 32),
                  (1932 / 2197, -7200 / 2197, 7296 / 2197),
                  (439 / 216, -8.0, 3680 / 513, -845 / 4104),
                  (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
              )),
              ((0, 25 / 216), (2, 1408 / 2565), (3, 2197 / 4104), (4, -1 / 5)),
              ((0, 1 / 360), (2, -128 / 4275), (3, -2197 / 75240), (4, 1 / 50), (5, 2 / 55)),
              None),
}


def _step_count(t0, t1, dt):
    """The fewest equal steps from t0 to t1 no longer than ``dt``, at least one.

    A step may exceed ``dt`` by 1e-12 of the times' size, more than a grid
    time k*dt is rounded by, so such a grid takes one step per interval."""
    return max(1, math.ceil((t1 - t0 - 1e-12 * (abs(t0) + abs(t1))) / dt))


def _rk4_schedule(times, dt):
    """(t, h, t_next, k) for each RK4 step over the sample ``times``.

    Consecutive sample times are joined by ``_step_count`` equal steps;
    k > 0 marks the step that lands on times[k].
    """
    for k in range(1, len(times)):
        t0, t1 = times[k - 1], times[k]
        count = _step_count(t0, t1, dt)
        h = (t1 - t0) / count
        for j in range(count):
            last = j == count - 1
            yield t0 + j * h, h, t1 if last else t0 + (j + 1) * h, k if last else 0


def _integrate(field: MomentumField, x0, config: IntegratorConfig, times,
               units: UnitSystem, land=None, accepted=None):
    """Step each row of the (n, d) array ``x0`` along dr/dt = p(r)/m.

    Every row is a member that starts at times[0] and is carried onto each
    later sample time.  One stage pass, ``advance``, forms every stage
    argument, update and error estimate from the scheme's tableau; the
    schemes differ only there and in how steps are scheduled and accepted.
    ``rk4`` moves all members in lock-step, with the steps of
    ``_rk4_schedule``.  ``rkf45`` gives each member its own step size,
    accepted, rejected or underflowing by its own error estimate, and
    clips a step that would pass its next sample time to land on it, the
    unclipped proposal carrying into the next step.  A member's
    arithmetic therefore never depends on the other rows.

    ``land(k, ids, rows)`` receives the states ``rows`` of members ``ids``
    as they reach times[k]; ``k`` is an int under rk4 and an array aligned
    with ``ids`` under rkf45.  ``accepted(t, ids, rows, h)``, if given, is
    called after every accepted step with the members that took it, their
    states, their new time and step size (scalars under rk4, arrays under
    rkf45).

    A member retires as NEAR_NODE when it lies within twice the node guard
    of a pole, when its next step would move it (by the 1-norm of its
    velocity) more than half its distance to the pole, or, under rk4, when
    its update is not finite.  It retires as STEP_UNDERFLOW when its rkf45
    proposal falls below ``dt_min``; a non-finite rkf45 update has a
    non-finite error estimate, rejected until that happens.  The run
    holds one ``np.errstate`` with overflow, invalid and divide-by-zero
    warnings off, since those values only retire a member, and calls the
    field's ``value_fn``, not ``_value_at``, which would enter one per call.
    Returns (last, term_time, term_reason, steps): the state each member
    ended in, the time it retired (nan if it completed), its outcome code,
    and the most steps any member accepted.  A field that is not
    holomorphic raises ValueError: a member generally leaves the real axis.
    """
    if not field.holomorphic:
        raise ValueError("trajectory evolution needs a field evaluable at complex positions")
    n, d = x0.shape
    value_fn = field._value_fn
    inv_m = 1.0 / units.mass
    node_guard = field.tolerance.node_guard
    stages, update, error, divisor = _TABLEAUX[config.scheme]
    last = np.array(x0, dtype=complex)
    term_time = np.full(n, np.nan)
    term_reason = np.full(n, COMPLETED, dtype=np.int8)

    # The working set: the members still stepping and their states, kept
    # dense so that updates never gather or scatter.  Stage arguments and
    # sums go to buffers of the same shape; field outputs are only read.
    # ``cols`` holds rkf45's other per-member arrays, aligned with ``ids``.
    ids = np.arange(n)
    x = last.copy()
    arg, acc = np.empty_like(x), np.empty_like(x)
    cols = []
    steps = 0
    # full-length scratch for the guard, used through views of the live count
    speed, bad_buf = np.empty(x.shape), np.empty(n, dtype=bool)
    # the stage vectors: field outputs for slopes, else h * k in views of hks
    ks = [None] * (len(stages) + 1)
    hks = None if divisor else np.empty((len(ks),) + x.shape, dtype=complex)

    def rhs(pts):
        p = np.asarray(value_fn(pts), dtype=complex)
        if inv_m != 1.0:
            return p * inv_m
        # a field returning (a view of) its argument would see the next stage overwrite it
        return p.copy() if np.may_share_memory(p, pts) else p

    def drop(gone, t=None, reason=None):
        """Take the rows ``gone`` out of the working set; with a reason, they retire at ``t``."""
        nonlocal ids, x, arg, acc, steps
        out = ids[gone]
        last[out] = x[gone]
        if reason is not None:
            term_time[out] = t[gone] if np.ndim(t) else t
            term_reason[out] = reason
        if cols:  # the last column counts each member's accepted steps
            steps = max(steps, int(cols[-1][gone].max()))
        keep = ~gone
        ids, x = ids[keep], x[keep]
        cols[:] = [col[keep] for col in cols]
        arg, acc = np.empty_like(x), np.empty_like(x)
        return keep

    def guarded_k1(t, h):
        """First-stage slopes, after retiring the rows whose step of ``h`` dives toward a pole."""
        k1 = rhs(x)
        m = len(x)
        # dist < 2 guard, or speed * h > dist / 2, with the 1-norm speed
        # summed over the components in order, as sum(axis=1) would
        reach = np.abs(k1, out=speed[:m])[:, 0]
        for j in range(1, d):
            reach += speed[:m, j]
        reach *= 2.0 * h
        np.maximum(reach, 2.0 * node_guard, out=reach)
        bad = np.less(field.pole_distances(x), reach, out=bad_buf[:m])
        if not bad.any():
            return k1, None
        keep = drop(bad, t, NEAR_NODE)
        return k1[keep], keep

    def weighted_sum(out, tmp, plan, scale=1.0):
        """``out`` = the plan's sum of ks[i]*(w*scale) in order; a later product 1 adds ks[i]."""
        i, w = plan[0]
        np.multiply(ks[i], w * scale, out=out)
        for i, w in plan[1:]:
            w *= scale
            if w == 1.0:
                out += ks[i]
            else:
                np.multiply(ks[i], w, out=tmp)
                out += tmp

    def advance(k1, h):
        """One step of ``h`` (a float for slopes, else a complex column) from the
        slopes ``k1``, into ``acc``; returns |error estimate| if adaptive."""
        nonlocal arg, acc
        m = len(x)
        ks[0] = k1 if divisor else np.multiply(k1, h, out=hks[0, :m])
        for stage, plan in enumerate(stages, 1):
            weighted_sum(arg, acc, plan, h if divisor else 1.0)
            arg += x
            ks[stage] = rhs(arg) if divisor else np.multiply(rhs(arg), h, out=hks[stage, :m])
        err = None
        if error:
            weighted_sum(acc, arg, error)
            err = np.abs(acc, out=err_buf[:m])
        weighted_sum(acc, arg, update)
        if divisor:
            acc *= h / divisor
        acc += x
        return err

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if not error:
            for t, h, t_next, k in _rk4_schedule(times, config.dt):
                k1, _ = guarded_k1(t, h)
                if not ids.size:
                    break
                advance(k1, h)
                flat = acc.view(float)
                if not np.isfinite(flat).all():
                    finite = np.isfinite(flat.reshape(len(acc), -1)).all(axis=1)
                    new = acc[finite]
                    drop(~finite, t, NEAR_NODE)
                    x[...] = new
                    if not ids.size:
                        break
                else:
                    x, acc = acc, x
                steps += 1
                if accepted is not None:
                    accepted(t_next, ids, x, h)
                if k and land is not None:
                    land(k, ids, x)
        else:
            # each member's clock, step proposal, next sample index and
            # accepted-step count; drop compacts them with ids and x
            cols[:] = [np.full(n, times[0]), np.full(n, min(config.dt, config.dt_max)),
                       np.ones(n, dtype=np.intp), np.zeros(n, dtype=np.intp)]
            err_buf, scale_buf = np.empty(x.shape), np.empty(x.shape)
            while ids.size:
                clock, proposal, nxt, taken = cols
                if proposal.min() < config.dt_min:
                    drop(proposal < config.dt_min, clock, STEP_UNDERFLOW)
                    continue
                target = times[nxt]
                room = target - clock
                h = np.minimum(proposal, room)
                k1, keep = guarded_k1(clock, h)
                if keep is not None:
                    if not ids.size:
                        break
                    clock, proposal, nxt, taken = cols
                    target, room, h = target[keep], room[keep], h[keep]
                err = advance(k1, h.astype(complex)[:, None])  # the cast each multiply makes
                scale = np.abs(x, out=scale_buf[:ids.size])
                scale *= config.rel_tol
                scale += config.abs_tol
                err /= scale
                # the largest component, as max(axis=1) would; for d > 1 a
                # fresh contiguous array, as max gave, for the power below
                ratio = err[:, 0]
                for j in range(1, d):
                    ratio = np.maximum(ratio, err[:, j])
                ok = ratio <= 1.0  # a non-finite estimate is a rejection
                x = np.where(ok[:, None], acc, x)
                factor = ratio ** -0.2
                factor *= 0.9
                np.fmax(factor, 0.2, out=factor)  # also maps a nan ratio to 0.2
                np.fmin(factor, 5.0, out=factor)
                # an accepted step that was clipped lands on its target and
                # keeps its proposal; t + h of an unclipped one never passes it
                lands = ok & (proposal >= room)
                np.multiply(h, factor, out=factor)
                np.minimum(factor, config.dt_max, out=factor)
                cols[0] = np.where(ok, np.where(lands, target, clock + h), clock)
                cols[1] = np.where(lands, proposal, factor)
                taken += ok
                if accepted is not None and ok.any():
                    accepted(cols[0][ok], ids[ok], x[ok], h[ok])
                landed = lands.nonzero()[0]
                if landed.size:
                    if land is not None:
                        land(nxt[landed], ids[landed], x[landed])
                    finished = lands & (nxt == len(times) - 1)
                    nxt += lands
                    if finished.any():
                        drop(finished)
    last[ids] = x
    return last, term_time, term_reason, steps


def evolve(field: MomentumField, potential: PotentialField, x0, config: IntegratorConfig,
           units: UnitSystem = NATURAL_UNITS) -> Trajectory:
    """Evolve a single particle from ``x0`` under the field's flow.

    The particle is a one-member ensemble of the shared stepper.  Every
    step is kept: rk4 steps on the grid k*dt ending at t_end, rkf45 keeps
    each accepted step.  Every stored momentum equals field(position) exactly.

    A step that would move the particle more than half its distance to
    the nearest pole, or that starts within twice the node guard, halts
    the run with TrajectoryNearSingularity carrying the partial result;
    an rkf45 step size below ``dt_min`` halts it with StepUnderflow.
    ``potential`` is not used: the momentum is slaved to the field.
    """
    start, _ = _as_points(x0, field.dimension)
    if start.shape[0] != 1:
        raise ValueError(f"evolve starts from one position, got {start.shape[0]}")
    times, positions, steps = [], [start], []

    def keep(t, ids, rows, h):  # t and h: floats under rk4, 1-element arrays under rkf45
        times.append(t)
        positions.append(rows.copy())
        steps.append(h)

    if config.scheme == "rk4":
        grid = np.arange(_step_count(0.0, config.t_end, config.dt) + 1) * config.dt
        grid[-1] = config.t_end
    else:
        grid = np.array([0.0, config.t_end])
    _, _, reason, _ = _integrate(field, start, config, grid, units, accepted=keep)
    positions = np.concatenate(positions)
    metadata = {"dt": config.dt, "scheme": config.scheme}
    if reason[0] != COMPLETED:
        metadata["halt"] = ("step size underflow" if reason[0] == STEP_UNDERFLOW
                            else "approached field singularity")
    traj = Trajectory(np.concatenate(([0.0], np.ravel(times))), positions,
                      field._value_at(positions, check=False), config.scheme,
                      step_sizes=np.ravel(steps) if steps else None, metadata=metadata)
    if reason[0] == COMPLETED:
        return traj
    error = StepUnderflow if reason[0] == STEP_UNDERFLOW else TrajectoryNearSingularity
    raise error(metadata["halt"], trajectory=traj)


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
    brackets that straddle a pole, bisects every bracket at once, one
    field call per halving, until each midpoint equals an end, and keeps
    roots with |p| <= momentum_tol.  Each root is reported as (x, |F(x)|);
    a genuine fixed point has both p = 0 and a vanishing force residual.
    Fewer than 3 samples raise ValueError; an empty region, or one without
    a usable sample, raises EmptyRegion.
    """
    if field.dimension != 1:
        raise ValueError("fixed-point scans are defined for 1-D fields")
    xs, pts, keep = _axis_samples(field, region, samples, 3)
    p = np.full(xs.shape, np.nan + 0j)
    p[keep] = field._value_at(pts[keep], check=False)[:, 0]
    g = p.imag
    # a bracket that straddles a pole flips sign at no root
    usable = keep[:-1] & keep[1:]
    on_grid = np.append(usable, keep[-1]) & (g == 0.0) & (np.abs(p) <= momentum_tol)
    flips = usable & (np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)
    lo, hi, g_lo = xs[:-1][flips], xs[1:][flips], g[:-1][flips]
    mid = 0.5 * (lo + hi)
    while np.any((mid != lo) & (mid != hi)):
        g_mid = field._value_at(mid[:, None].astype(complex), check=False)[:, 0].imag
        same = np.sign(g_mid) == np.sign(g_lo)
        lo = np.where(same | (g_mid == 0.0), mid, lo)  # a zero closes its bracket
        hi = np.where(same, hi, mid)
        mid = 0.5 * (lo + hi)
    roots = xs[on_grid].tolist() + mid.tolist()

    results = []
    for root in sorted(roots):
        if results and abs(root - results[-1][0]) < 1e-9:
            continue
        value = field._value_at(np.array([[complex(root)]]), check=False)[0, 0]
        if not abs(value) <= momentum_tol:
            continue  # pole artifact (p may be nan there) or incomplete cancellation
        residual = float(np.abs(force_at(field, potential, complex(root), units)))
        results.append((root, residual))
    return results
