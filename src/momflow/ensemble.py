"""Ensembles of independent trajectories and their population densities.

A single trajectory cannot exhibit everything the underlying state
encodes; an ensemble of particles started from random initial points
does.  Members never interact, so the batch is embarrassingly parallel:
the stepper shared with ``dynamics.evolve`` advances all members together
with vectorized arithmetic, which is simultaneously the fast path and the
deterministic one (fixed evaluation and reduction order, and step sizes
controlled per member, so results never depend on scheduling).

Initial points are drawn on the real axis from per-member substreams
derived with ``mix_seed``; identical specs reproduce bit-identical
ensembles.  Evolution generally leaves the real axis, so histograms
project Re(x) and disclose the off-axis mass instead of hiding it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .core import DEFAULT_TOLERANCE, NATURAL_UNITS, SeedSpec, TolerancePolicy, UnitSystem, substream_rng
from .dynamics import COMPLETED, REASON_LABELS, IntegratorConfig, _integrate
from .errors import RegionOverlapsSingularity, TimeOutOfRange, ZeroMass
from .fields import MomentumField, PotentialField, _GL_NODES, _GL_WEIGHTS

__all__ = [
    "Distribution",
    "uniform_distribution",
    "gaussian_distribution",
    "EnsembleSpec",
    "EnsembleResult",
    "DensityHistogram",
    "DensityComparison",
    "sample_initial",
    "evolve_ensemble",
    "density_histogram",
    "compare_density_to_born",
    "draw_measurement",
]

_OFF_AXIS_CUT = 0.01


@dataclass(frozen=True)
class Distribution:
    kind: str  # "uniform" | "gaussian"
    mean: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution {self.kind!r}")
        if self.kind == "gaussian" and not self.sigma > 0:
            raise ValueError("gaussian sigma must be positive")


def uniform_distribution() -> Distribution:
    return Distribution("uniform")


def gaussian_distribution(mean: float, sigma: float) -> Distribution:
    return Distribution("gaussian", mean=mean, sigma=sigma)


@dataclass(frozen=True)
class EnsembleSpec:
    """How many members, where they start, and how they are integrated.

    ``region`` is a real interval (lo, hi) or a box of per-axis
    intervals.  Gaussian draws are rejection-truncated to the region.
    ``first_stream`` offsets the substream indices so two ensembles with
    disjoint index ranges merge into one larger ensemble exactly.
    ``snapshots`` is the number of recorded states per member, taken at
    exactly ``linspace(0, t_end, snapshots)``; RK4 steps and RKF45 step
    sizes are fitted to land on those times.
    """

    count: int
    region: tuple
    distribution: Distribution
    seed: SeedSpec
    integrator: IntegratorConfig
    first_stream: int = 0
    snapshots: int = 201

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.snapshots < 2:
            raise ValueError("need at least 2 snapshots")
        for lo, hi in self.box:
            if not hi > lo:
                raise ValueError(f"empty region interval ({lo}, {hi})")

    @property
    def box(self):
        region = self.region
        if np.isscalar(region[0]):
            return ((float(region[0]), float(region[1])),)
        return tuple((float(lo), float(hi)) for lo, hi in region)

    @property
    def dimension(self):
        return len(self.box)


def _check_region(box, poles, guard):
    for axis, loc in poles:
        lo, hi = box[axis]
        if lo - guard <= loc <= hi + guard:
            raise RegionOverlapsSingularity(
                f"sampling interval ({lo}, {hi}) on axis {axis} overlaps the "
                f"node-guard neighborhood of the pole at {loc:g}")


def sample_initial(spec: EnsembleSpec, poles=(),
                   tolerance: TolerancePolicy = DEFAULT_TOLERANCE) -> np.ndarray:
    """Draw the (count, d) real initial positions for ``spec``.

    Member i draws from its own substream mix(master_seed, first_stream + i),
    so samples are independent of ensemble size and of each other.
    """
    box = spec.box
    _check_region(box, poles, tolerance.node_guard)
    d = len(box)
    out = np.empty((spec.count, d))
    dist = spec.distribution
    for i in range(spec.count):
        rng = substream_rng(spec.seed, spec.first_stream + i)
        if dist.kind == "uniform":
            u = rng.random(d)
            for k, (lo, hi) in enumerate(box):
                out[i, k] = lo + (hi - lo) * u[k]
        else:
            for k, (lo, hi) in enumerate(box):
                for _attempt in range(10_000):
                    draw = rng.normal(dist.mean, dist.sigma)
                    if lo <= draw <= hi:
                        out[i, k] = draw
                        break
                else:
                    raise RuntimeError(
                        "gaussian rejection sampling failed; the region "
                        "carries almost no probability mass")
    return out


@dataclass
class EnsembleResult:
    """Snapshots plus per-member outcomes of a batch evolution."""

    spec: EnsembleSpec
    times: np.ndarray                 # (s,)
    positions: np.ndarray             # (s, count, d) complex
    energies: np.ndarray | None       # (s, count) complex
    termination_time: np.ndarray      # (count,) nan while running
    termination_reason: np.ndarray    # (count,) codes into REASON_LABELS
    steps: int
    """Most accepted steps taken by any one member; under rk4 every member
    that completes takes exactly this many."""
    wall_time: float
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def completed(self):
        return self.termination_reason == COMPLETED

    @property
    def completion_fraction(self) -> float:
        return float(np.mean(self.completed))

    def snapshot_index(self, t: float) -> int:
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise TimeOutOfRange(
                f"t={t:g} outside evolved range [{self.times[0]:g}, {self.times[-1]:g}]")
        return int(np.argmin(np.abs(self.times - t)))

    def alive_at(self, index: int) -> np.ndarray:
        t = self.times[index]
        return np.isnan(self.termination_time) | (self.termination_time > t)

    def max_energy_drift(self) -> float:
        """Largest per-member |E(t) - E(0)| over pre-termination snapshots."""
        if self.energies is None:
            raise ValueError("energies were not recorded")
        drift = np.abs(self.energies - self.energies[0])
        alive = np.stack([self.alive_at(i) for i in range(len(self.times))])
        drift = np.where(alive, drift, 0.0)
        return float(drift.max())


def evolve_ensemble(field: MomentumField, potential: PotentialField, spec: EnsembleSpec,
                    units: UnitSystem = NATURAL_UNITS, record_energy: bool = True) -> EnsembleResult:
    """Evolve every member of ``spec`` and collect snapshots and outcomes.

    Snapshots are taken at exactly ``linspace(0, t_end, snapshots)``.
    Member failures (diving toward a node, adaptive-step underflow) are
    recorded as per-member outcomes, and a retired member keeps its last
    state in every later snapshot; the batch itself never aborts.  The
    members are stepped together with vectorized arithmetic, but each
    member's steps depend on its own state only (rkf45 controls its step
    size per member), so results do not depend on the batch a member is
    evolved in.
    """
    d = spec.dimension
    if d != field.dimension:
        raise ValueError("spec and field dimensions disagree")
    times = np.linspace(0.0, spec.integrator.t_end, spec.snapshots)
    positions = np.empty((spec.snapshots, spec.count, d), dtype=complex)
    positions[0] = sample_initial(spec, poles=field.poles, tolerance=field.tolerance)

    def land(k, ids, rows):
        positions[k, ids] = rows

    start = time.perf_counter()
    last, term_time, term_reason, steps_taken = _integrate(
        field, positions[0], spec.integrator, times, units, land)
    # a retired member stays where it stopped in every later snapshot
    gone = np.flatnonzero(~np.isnan(term_time))
    later, member = np.nonzero(times[:, None] > term_time[gone])
    positions[later, gone[member]] = last[gone[member]]
    wall = time.perf_counter() - start

    energies = None
    if record_energy:
        coeff = 0.5j * units.hbar / units.mass
        energies = np.empty(positions.shape[:2], dtype=complex)
        for s in range(positions.shape[0]):
            pts = positions[s]
            p = field._value_at(pts, check=False)
            div = np.trace(field._jacobian_at(pts, check=False), axis1=1, axis2=2)
            u = potential._value_at(pts)
            energies[s] = (p * p).sum(axis=1) / (2.0 * units.mass) + u - coeff * div

    return EnsembleResult(
        spec=spec, times=times, positions=positions, energies=energies,
        termination_time=term_time, termination_reason=term_reason,
        steps=steps_taken, wall_time=wall,
        metadata={"scheme": spec.integrator.scheme, "dt": spec.integrator.dt,
                  "t_end": spec.integrator.t_end})


@dataclass
class DensityHistogram:
    """Population counts over Re(x) bins at one snapshot time."""

    time: float
    edges: np.ndarray
    counts: np.ndarray
    sample_count: int        # ensemble size
    terminated_count: int    # members no longer alive at this time
    off_axis_count: int      # alive members with |Im x| > 0.01
    outside_count: int       # alive members falling outside the bin range
    born_reference: np.ndarray | None = None

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])


def density_histogram(result: EnsembleResult, t: float, bins) -> DensityHistogram:
    """Histogram of Re(x) over the live members at the snapshot nearest ``t``.

    ``bins`` is a count (edges auto-ranged over the live data, uniform
    widths) or an explicit uniform edge array.  Members that left the
    axis (|Im x| > 0.01) stay binned by their real part but their number
    is disclosed in ``off_axis_count``.
    """
    s = result.snapshot_index(t)
    alive = result.alive_at(s)
    xs = result.positions[s, alive, 0]
    off_axis = int(np.count_nonzero(np.abs(xs.imag) > _OFF_AXIS_CUT))
    re = xs.real
    if np.isscalar(bins):
        k = int(bins)
        if re.size == 0:
            raise ZeroMass("no live members at this snapshot")
        lo, hi = float(re.min()), float(re.max())
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, k + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        widths = np.diff(edges)
        if edges.size < 2 or np.any(widths <= 0) or not np.allclose(widths, widths[0]):
            raise ValueError("explicit bin edges must be increasing and uniform")
    counts, _ = np.histogram(re, edges)
    outside = int(re.size - counts.sum())
    return DensityHistogram(
        time=float(result.times[s]), edges=edges, counts=counts,
        sample_count=result.spec.count,
        terminated_count=int(np.count_nonzero(~alive)),
        off_axis_count=off_axis, outside_count=outside)


@dataclass
class DensityComparison:
    """Report-only distance between a histogram and a Born density.

    The mapping from ensemble density to measured probability is not a
    direct one, so these metrics carry no pass/fail semantics.
    """

    l1_distance: float            # in [0, 2]
    js_divergence: float          # in [0, ln 2], natural log
    residuals: np.ndarray         # per-bin empirical minus reference
    reference: np.ndarray         # per-bin Born probabilities


def compare_density_to_born(hist: DensityHistogram, psi) -> DensityComparison:
    """Compare bin occupancies against |psi|**2 integrated per bin."""
    total = float(hist.counts.sum())
    if total <= 0:
        raise ZeroMass("histogram holds no mass")
    edges = hist.edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * hist.bin_width
    # order-8 Gauss-Legendre per bin
    xs = mids[:, None] + half * _GL_NODES[None, :]
    dens = np.abs(np.asarray(psi(xs.reshape(-1)), dtype=complex)) ** 2
    born = (dens.reshape(xs.shape) * _GL_WEIGHTS[None, :]).sum(axis=1) * half
    norm = born.sum()
    if norm <= 0:
        raise ZeroMass("reference density carries no mass on the histogram support")
    q = born / norm
    p = hist.counts / total
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    js = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    return DensityComparison(
        l1_distance=float(np.abs(p - q).sum()),
        js_divergence=js, residuals=p - q, reference=q)


def draw_measurement(result: EnsembleResult, t: float, rng: np.random.Generator):
    """Position of one member picked uniformly among those alive near ``t``.

    Uniform weighting is an assumption: no weighting rule for picking a
    member is prescribed by the dynamics.
    """
    s = result.snapshot_index(t)
    alive = np.flatnonzero(result.alive_at(s))
    if alive.size == 0:
        raise ZeroMass("no live members to measure")
    choice = int(rng.integers(alive.size))
    return complex(result.positions[s, alive[choice], 0])
