"""Ensembles of independent trajectories and their population densities.

A single trajectory cannot exhibit everything the underlying state
encodes; an ensemble of particles started from random initial points
does.  Members never interact, so the batch is embarrassingly parallel:
the stepper shared with ``dynamics.evolve`` advances the members of one
contiguous cache-sized block together with vectorized arithmetic, and
the blocks are shared out over every core this process may run on.  The
calling process evolves one share and forks a worker for each other
share; the workers write starts, snapshots, each snapshot's energy
drift and outcomes straight into anonymous shared memory.  Processes are
used, not threads, because a step is dozens of small numpy calls and
threads would spend their time passing the interpreter lock between them.  Forking a process
that runs other threads can deadlock, so while any other Python thread
is alive, and on one usable core, every block runs in the calling
process.  The evaluation and reduction order is fixed and rkf45 controls
its step size per member, so results are bit-identical however the
members are blocked and whichever process evolves a block.

Initial points are drawn on the real axis from per-member substreams.
Seeding is splitmix64 (``mix_seed``), then numpy's ``SeedSequence``,
then PCG64.  The PCG64 states of a batch of streams are derived at once,
and uniform and Gaussian draws are made from them for the whole batch as
well, bit for bit as numpy's ``Generator.random`` and ``Generator.normal``
would make them (a Gaussian's rare slow ziggurat words are handed to
numpy itself).  Each block's starts are drawn by the process that evolves
it, from the block's own range of streams, so they equal the whole
batch's.  Identical specs therefore reproduce bit-identical ensembles.
Evolution generally leaves the real axis, so histograms project Re(x)
and disclose the off-axis mass instead of hiding it.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _EXPORTS
from .core import (DEFAULT_TOLERANCE, NATURAL_UNITS, SeedSpec, TolerancePolicy, UnitSystem,
                   substream_normals, substream_uniforms)
from .dynamics import COMPLETED, REASON_LABELS, IntegratorConfig, _integrate
from .errors import RegionOverlapsSingularity, TimeOutOfRange, ZeroMass
from .fields import (MomentumField, PotentialField, _GL_NODES, _GL_WEIGHTS, _check_potential,
                     _energy)

__all__ = _EXPORTS["ensemble"]

_OFF_AXIS_CUT = 0.01
# Members are stepped and their energy drift recorded in blocks of at most
# this much complex state (16 384 one-dimensional members), so that a step's
# dozen block-sized arrays stay in a 2 MB L2 cache.
_BLOCK_BYTES = 256 * 1024
# Processes that evolve blocks at once: the cores this process may run on,
# so taskset and cpusets are honoured.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# Members are split into blocks for more workers only while every block
# keeps at least this many.  Each worker pays the fixed numpy cost of every
# step, and a fork costs ~1 ms: on 2 cores, 2000 steps of 1024 members ran
# faster forked and 768 members slower, so this keeps a 2x margin.
_MIN_WORKER_BLOCK = 1000


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
    so samples are independent of ensemble size and of each other, and any
    contiguous range of members can be drawn alone by a spec with that
    ``count`` and ``first_stream``; ``evolve_ensemble`` draws each block so,
    in the process that evolves it.  The draws are made for a whole batch
    of substreams at once, uniform ones by ``substream_uniforms`` and
    Gaussian ones, rejection-truncated to the region, by
    ``substream_normals``; either way they equal those of
    ``substream_rng(spec.seed, first_stream + i)``.  A Gaussian interval
    that a member misses 10 000 times in a row raises ``EmptyRegion``.
    """
    box = spec.box
    _check_region(box, poles, tolerance.node_guard)
    d = len(box)
    dist = spec.distribution
    if dist.kind == "uniform":
        lo, hi = np.array(box).T
        return lo + (hi - lo) * substream_uniforms(spec.seed, spec.first_stream, spec.count, d)
    return substream_normals(spec.seed, spec.first_stream, spec.count, dist.mean, dist.sigma, box)


@dataclass
class EnsembleResult:
    """Snapshots plus per-member outcomes of a batch evolution."""

    spec: EnsembleSpec
    times: np.ndarray                 # (s,)
    positions: np.ndarray             # (s, count, d) complex
    energy_drift: np.ndarray | None   # (s,) float
    """Largest |E(t_s) - E(0)| over the members alive at each snapshot;
    a member's energies are ``energy_at(field, potential, positions[s],
    units)`` bit for bit.  None when energy was not recorded."""
    termination_time: np.ndarray      # (count,) nan while running
    termination_reason: np.ndarray    # (count,) codes into REASON_LABELS
    steps: int
    """Most accepted steps taken by any one member; under rk4 every member
    that completes takes exactly this many."""
    wall_time: float
    """Seconds spent stepping (and holding retired members in place) by the
    busiest of the processes that evolved the blocks; sampling and energy
    recording are not included."""

    @property
    def completed(self):
        return self.termination_reason == COMPLETED

    @property
    def completion_fraction(self) -> float:
        return float(np.mean(self.completed))

    def snapshot_index(self, t: float) -> int:
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
            raise TimeOutOfRange(
                f"t={t:g} outside evolved range [{self.times[0]:g}, {self.times[-1]:g}]")
        return int(np.argmin(np.abs(self.times - t)))

    def alive_at(self, index: int) -> np.ndarray:
        return _alive(self.termination_time, self.times[index])

    def max_energy_drift(self) -> float:
        """Largest per-member |E(t) - E(0)| over pre-termination snapshots; nan propagates."""
        if self.energy_drift is None:
            raise ValueError("energy was not recorded")
        return float(self.energy_drift.max())


def _alive(termination_time, t):
    """Which members are still running at time ``t``."""
    return np.isnan(termination_time) | (termination_time > t)


def _blocks(count, d):
    """(lo, hi) bounds of the equal contiguous member blocks, the last one possibly shorter.

    A block holds at most ``_BLOCK_BYTES`` of complex state.  The members
    are split into at least ``_WORKERS`` blocks as long as each keeps
    ``_MIN_WORKER_BLOCK`` members, and more than one block are always a
    multiple of ``_WORKERS``, so every worker gets an equal share.
    """
    cap = max(1, _BLOCK_BYTES // (16 * d))
    n = max(-(-count // cap), min(_WORKERS, count // _MIN_WORKER_BLOCK))
    if n > 1:
        n = -(-n // _WORKERS) * _WORKERS
    size = -(-count // n)  # ceil(count / n)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _shared(shape, dtype):
    """A zeroed array in anonymous shared memory, which forked workers write in place."""
    import mmap  # only evolution needs it, so `import momflow.cli` does not load it

    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype, size).reshape(shape)


def _in_workers(work, count):
    """Call ``work(b, w)`` for every block b < ``count``, worker w evolving blocks w, w + n, ...

    Of n = min(_WORKERS, count) shares, the calling process runs share 0
    and forks one worker per other share; it runs a share itself when
    that fork fails.  It runs every block itself when it cannot fork,
    when there is one share, or when another Python thread is alive.  A
    worker's exception arrives pickled (see ``_worker``) and is raised
    here once the caller has run its own share.  Every worker is reaped
    before this returns or raises; after a failure, or an interrupt, the
    ones still running are killed.
    """
    shares = min(_WORKERS, count)
    if shares < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        for b in range(count):
            work(b, 0)
        return
    children = {}  # pid -> read end of the pipe that carries its exception
    mine = list(range(0, count, shares))
    try:
        for w in range(1, shares):
            read, write = os.pipe()
            pipe = os.fdopen(read, "rb")
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller runs this share too
                pipe.close()
                os.close(write)
                mine += range(w, count, shares)
                continue
            if pid == 0:
                _worker(work, range(w, count, shares), w, write)
            children[pid] = pipe
            os.close(write)
        for b in mine:
            work(b, 0)
        while children:
            pid, pipe = next(iter(children.items()))
            with pipe:
                payload = pipe.read()
            del children[pid]
            _, status = os.waitpid(pid, 0)
            if payload:
                raise pickle.loads(payload)
            if status:
                raise RuntimeError("an ensemble worker ended with exit code "
                                   f"{os.waitstatus_to_exitcode(status)}")
    finally:
        if children:
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _worker(work, blocks, w, pipe):
    """Evolve ``blocks`` in a forked worker, send any exception through ``pipe``, and end it.

    The exception is sent pickled when it also unpickles, so the caller
    raises it with its type and message; otherwise a pickled RuntimeError
    carrying its repr is sent.  The worker never returns into the caller's
    stack: ``os._exit`` also skips the caller's ``atexit`` hooks and its
    copies of unflushed buffers.
    """
    status = 1
    try:
        for b in blocks:
            work(b, w)
        status = 0
    except BaseException as exc:  # noqa: B036  (the parent re-raises it; this process ends)
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:  # it would not reach the parent intact: send its repr instead
            payload = pickle.dumps(RuntimeError(f"an ensemble worker raised {exc!r}"))
        with os.fdopen(pipe, "wb") as out:
            out.write(payload)
    finally:
        os._exit(status)


def evolve_ensemble(field: MomentumField, potential: PotentialField, spec: EnsembleSpec,
                    units: UnitSystem = NATURAL_UNITS, record_energy: bool = True) -> EnsembleResult:
    """Evolve every member of ``spec`` and collect snapshots and outcomes.

    Snapshots are taken at exactly ``linspace(0, t_end, snapshots)``.
    Member failures (diving toward a node, adaptive-step underflow) are
    recorded as per-member outcomes, and a retired member keeps its last
    state in every later snapshot; the batch itself never aborts.  The
    members are stepped in contiguous blocks of at most 256 KiB of complex
    state, with vectorized arithmetic within a block; the blocks are shared
    out over the usable cores in forked workers (see the module docstring).
    With ``record_energy`` each block then reduces its members' energies to
    one row of drift per snapshot, and ``energy_drift`` is the
    nan-propagating max of those rows.  The region is checked against the
    field's poles here, before any block runs; each block then draws its
    own starts (``sample_initial`` on its range of streams) in the process
    that evolves it.  An exception raised in a worker, an ``EmptyRegion``
    among them, is raised here once the caller has evolved its own share.
    Each member's steps depend on its own state only (rkf45 controls its
    step size per member), so results do not depend on the block, the
    batch or the process a member is evolved in.
    """
    d = spec.dimension
    if d != field.dimension:
        raise ValueError("spec and field dimensions disagree")
    _check_potential(field, potential)
    _check_region(spec.box, field.poles, field.tolerance.node_guard)
    times = np.linspace(0.0, spec.integrator.t_end, spec.snapshots)
    positions = _shared((spec.snapshots, spec.count, d), complex)
    term_time = _shared((spec.count,), float)
    term_reason = _shared((spec.count,), np.int8)
    blocks = _blocks(spec.count, d)
    drift = _shared((len(blocks), spec.snapshots), float) if record_energy else None
    steps = _shared((len(blocks),), np.int64)
    seconds = _shared((_WORKERS,), float)  # stepping time of each worker

    def evolve_block(b, w):
        lo, hi = blocks[b]
        block = positions[:, lo:hi]
        block[0] = sample_initial(replace(spec, count=hi - lo, first_stream=spec.first_stream + lo))

        def land(k, ids, rows):
            block[k, ids] = rows

        start = time.perf_counter()
        last, term_time[lo:hi], term_reason[lo:hi], steps[b] = _integrate(
            field, block[0], spec.integrator, times, units, land)
        # a retired member stays where it stopped in every later snapshot
        stopped = term_time[lo:hi]
        gone = np.flatnonzero(~np.isnan(stopped))
        later, member = np.nonzero(times[:, None] > stopped[gone])
        block[later, gone[member]] = last[gone[member]]
        seconds[w] += time.perf_counter() - start
        if drift is not None:
            first = _energy(field, potential, block[0], units)[1]
            diff, gap = np.empty_like(first), np.empty(first.shape)
            for s, pts in enumerate(block):
                now = _energy(field, potential, pts, units)[1] if s else first
                np.abs(np.subtract(now, first, out=diff), out=gap)
                gap[~_alive(stopped, times[s])] = 0.0
                drift[b, s] = gap.max()

    _in_workers(evolve_block, len(blocks))
    return EnsembleResult(
        spec=spec, times=times, positions=positions,
        energy_drift=None if drift is None else drift.max(axis=0),
        termination_time=term_time, termination_reason=term_reason,
        steps=int(steps.max()), wall_time=float(seconds.max()))


@dataclass
class DensityHistogram:
    """Population counts over Re(x) bins at one snapshot time."""

    time: float
    edges: np.ndarray
    counts: np.ndarray
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
        if k < 1:
            raise ValueError(f"need at least one bin, got {bins!r}")
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
