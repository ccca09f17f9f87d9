"""The benchmark's workloads: inputs made from the seed, the timed op, and its checks.

Every op is timed around calls into momflow's public API only.  The checks
run after the timer stops; each returns a list of failure messages, and an
op with any message (or an exception) counts as failed.

Load model: one client, closed loop, one op at a time in the worker
process.  The program sees only the specs and configs made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermval

import momflow
import momflow.cli  # noqa: F401  (setup_s covers the CLI's import cost)
from momflow.reports import read_csv

BINS = 40


def derive_seed(seed: int, name: str, index: int) -> int:
    """64-bit master seed for input set ``index`` of workload ``name``.

    Derived by the benchmark itself, so a change to momflow's own seed
    mixing cannot change which inputs a seed stands for.
    """
    digest = hashlib.sha256(f"{name}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def eigenstate(level: int):
    """Oscillator eigenstate psi_n (natural units, unnormalized) from numpy's Hermite series."""
    coeffs = np.zeros(level + 1)
    coeffs[level] = 1.0
    return lambda x: hermval(x, coeffs) * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class EnsembleWorkload:
    """One ``evolve_ensemble`` op followed by histograms and Born comparisons.

    ``drift_bound`` caps ``max_energy_drift``.  ``l1_ranges`` and
    ``js_ranges`` hold one (lo, hi) per histogram time for the Born L1
    distance and JS divergence; each range is about 1.5x wider on either
    side than the values seen over the seeds the benchmark was tried on.
    """

    name: str
    level: int
    region: tuple
    distribution: tuple          # ("uniform",) or ("gaussian", mean, sigma)
    scheme: str
    dt: float
    t_end: float
    count: int
    drift_bound: float
    l1_ranges: tuple
    js_ranges: tuple
    snapshots: int = 201

    def hist_times(self, t_end=None):
        t_end = t_end or self.t_end
        return (0.0, 0.5 * t_end, t_end)

    @property
    def stages(self) -> int:
        """Field evaluations per attempted step of the scheme."""
        return 4 if self.scheme == "rk4" else 6

    def field(self):
        return momflow.qho_field(self.level)

    def potential(self):
        return momflow.harmonic_potential()

    def spec(self, master_seed: int, count: int | None = None, t_end: float | None = None):
        if self.distribution[0] == "uniform":
            dist = momflow.uniform_distribution()
        else:
            dist = momflow.gaussian_distribution(*self.distribution[1:])
        return momflow.EnsembleSpec(
            count=count or self.count, region=self.region, distribution=dist,
            seed=momflow.SeedSpec(master_seed),
            integrator=momflow.IntegratorConfig(t_end=t_end or self.t_end,
                                                scheme=self.scheme, dt=self.dt),
            snapshots=self.snapshots)

    def run(self, field, potential, spec, tracer=None, op_id=None):
        """The op: evolve, then histogram and Born-compare at three times."""
        span = tracer.span if tracer else _no_span
        psi = eigenstate(self.level)
        with span("ensemble.evolve_ensemble", op_id):
            result = momflow.evolve_ensemble(field, potential, spec)
        hists, comps = [], []
        for t in self.hist_times(spec.integrator.t_end):
            with span("ensemble.density_histogram", op_id):
                hist = momflow.density_histogram(result, t, BINS)
            with span("ensemble.compare_density_to_born", op_id):
                comps.append(momflow.compare_density_to_born(hist, psi))
            hists.append(hist)
        return result, hists, comps

    def check(self, result, hists, comps) -> tuple[str, list]:
        """(checksum of positions and histogram counts, failure messages)."""
        digest = hashlib.sha256(result.times.tobytes())
        digest.update(result.positions.tobytes())
        for hist in hists:
            digest.update(hist.counts.tobytes())
        failures = []
        drift = result.max_energy_drift()
        if not drift < self.drift_bound:
            failures.append(f"max_energy_drift {drift:.3e} >= {self.drift_bound:g}")
        for i, (hist, comp) in enumerate(zip(hists, comps)):
            failures += born_failures(self, i, hist.time, comp.l1_distance, comp.js_divergence)
        return digest.hexdigest(), failures

    def warm_up(self, field, potential, master_seed):
        """A tiny op on the same code paths, so lazy set-up lands in setup_s."""
        spec = self.spec(master_seed, count=64, t_end=2 * self.dt)
        self.run(field, potential, spec)


def born_failures(workload, index, t, l1, js) -> list:
    """Messages for Born distances of histogram ``index`` (at time t) outside their ranges."""
    lo, hi = workload.l1_ranges[index]
    out = [] if lo <= l1 <= hi else [f"Born L1 {l1:.4f} at t={t:g} outside [{lo}, {hi}]"]
    lo, hi = workload.js_ranges[index]
    if not lo <= js <= hi:
        out.append(f"Born JS {js:.5f} at t={t:g} outside [{lo}, {hi}]")
    return out


def _no_span(name, op_id):
    return contextlib.nullcontext()


# -- ensemble workloads ----------------------------------------------------------

# Shares below are from traced runs at the commit that added the benchmark
# on a 2-core Xeon VM (Python 3.11, numpy 2.4); they move with the host.
#
# ens_rk4_long: the stepper and field-kernel hot loop behind acceptance
# criterion 12.  Loads `ensemble` stepping (~80-90% of a ~2.1 s op) and
# the level-1 `fields` kernel heavily; sampling (10k members, ~0.25 s) and
# post-processing (~1 ms per histogram and Born comparison) lightly.  No
# member retires, so the fused no-gather update runs throughout; each
# state array is ~160 KB, well inside L2.
ENS_RK4_LONG = EnsembleWorkload(
    name="ens_rk4_long", level=1, region=(0.8, 1.2), distribution=("uniform",),
    scheme="rk4", dt=1e-3, t_end=2.0, count=10_000,
    drift_bound=1e-9,
    l1_ranges=((0.02, 0.1), (0.05, 0.2), (0.035, 0.15)),
    js_ranges=((1e-4, 1.5e-3), (7e-4, 6e-3), (4e-4, 3.5e-3)))

# ens_wide_short: per-member seeding and rejection sampling (`core`,
# `ensemble.sample_initial`) are ~75% of a ~2.5 s op; stepping (~0.4 s) is
# light.  Each state array is 1.6 MB, 10x that of ens_rk4_long, so the
# stepper's temporaries spill out of L2 and buffer changes meet another
# cache regime.  ~3.7% of members start within reach of the level-3 node
# at 1.2247 and retire at step 1, which loads the gather/scatter path that
# ens_rk4_long never takes.
ENS_WIDE_SHORT = EnsembleWorkload(
    name="ens_wide_short", level=3, region=(1.25, 3.5),
    distribution=("gaussian", 2.0, 0.5),
    scheme="rk4", dt=1e-2, t_end=0.2, count=100_000, snapshots=11,
    drift_bound=1e-9,
    l1_ranges=((0.1, 0.22), (0.15, 0.28), (0.25, 0.4)),
    js_ranges=((4e-3, 0.012), (7e-3, 0.018), (0.015, 0.035)))

# ens_rkf45: the adaptive path of the stepper (6 evaluations per attempt,
# one shared step for the batch, ~22% of attempts rejected).  Loads
# `ensemble` stepping (~85% of a ~2.3 s op) and the level-2 `fields`
# kernel heavily, sampling lightly.  It keeps every accepted state and
# delivers more snapshots than asked for (both known defects, shown as
# ensemble.snapshots and peak_rss_mb and not gated).  The shared step is
# set by whichever member passes closest to the node at 0.707, so the
# step count varies with the seed (530-710 accepted steps); three input
# sets per run keep the median steady.  RKF45 shard merging is not
# checked here.
ENS_RKF45 = EnsembleWorkload(
    name="ens_rkf45", level=2, region=(1.0, 2.5), distribution=("uniform",),
    scheme="rkf45", dt=1e-2, t_end=5.0, count=10_000,
    drift_bound=1e-8,
    l1_ranges=((0.25, 0.45), (0.85, 1.1), (0.65, 0.95)),
    js_ranges=((0.012, 0.035), (0.17, 0.27), (0.12, 0.21)))


# -- CLI workload ------------------------------------------------------------------

# The ensemble scenario of cli_scenarios, also the input of its traced
# fields/core/ensemble layer numbers.  A few members pass near the level-2
# node and retire, so the CLI run also reports retirements.
CLI_ENSEMBLE = EnsembleWorkload(
    name="cli_ensemble", level=2, region=(1.0, 2.5), distribution=("uniform",),
    scheme="rk4", dt=1e-3, t_end=2.0, count=2000,
    drift_bound=1e-9,
    l1_ranges=((0.25, 0.5), (0.5, 0.8), (1.5, 1.7)),
    js_ranges=((0.015, 0.04), (0.05, 0.1), (0.4, 0.5)))

EVOLVE_RK4_X0 = math.sqrt(2.0)
EVOLVE_RK4 = {"field": {"kind": "qho", "level": 1}, "x0": EVOLVE_RK4_X0,
              "scheme": "rk4", "dt": 1e-4, "t_end": 0.78}
EVOLVE_RKF45 = {"field": {"kind": "qho", "level": 3}, "x0": [2.0, 0.3],
                "scheme": "rkf45", "dt": 1e-2, "t_end": 5.0}
ANALYTIC_TOL = 1e-6   # acceptance criterion 2's bound on the RK4 trajectory


# cli_scenarios: loads `cli`, `reports`, `svgplot`, single-trajectory
# `dynamics`, `twobody` and `gridsolver`, which no ensemble workload
# touches, and pays the ~0.7-0.9 s import of momflow.cli in every one of
# its seven processes (~10 s per pass).  Its ensemble and field work is
# light.
@dataclass(frozen=True)
class CliWorkload:
    """One op is one pass of seven ``python -m momflow.cli`` runs.

    Each run gets its own config and its own output directory.  Output
    directories are relative and fixed, so the config hash, and with it
    every output byte, depends only on the seed.
    """

    name: str = "cli_scenarios"

    def configs(self, master_seed: int) -> dict:
        """Scenario name -> (subcommand, config); only the work-neutral values vary."""
        rng = random.Random(master_seed)
        ens = CLI_ENSEMBLE
        return {
            "evolve_rk4": ("evolve", {"evolve": EVOLVE_RK4, "svg": True}),
            "evolve_rkf45": ("evolve", {"evolve": EVOLVE_RKF45}),
            "field_scan": ("field-scan", {"svg": True, "field_scan": {
                "field": {"kind": "qho", "level": 5},
                "region": [0.1, round(rng.uniform(4.5, 5.0), 6)], "samples": 20_000}}),
            "reconstruct": ("reconstruct", {"reconstruct": {
                "field": {"kind": "qho", "level": 2},
                "path": {"start": 0.8, "stop": 4.0, "nodes": 200}}}),
            "twobody": ("twobody", {"twobody": {
                "kind": "spinning", "radius": round(rng.uniform(0.5, 1.5), 6),
                "gamma": round(rng.uniform(0.5, 1.5), 6), "samples": 20_000,
                "closed_form_derivatives": False}}),
            "oracle": ("oracle", {"oracle": {"points": 4000, "states": 4,
                                             "field_check": True}}),
            "ensemble": ("ensemble", {"svg": True, "ensemble": {
                "field": {"kind": "qho", "level": ens.level}, "count": ens.count,
                "region": list(ens.region), "seed": rng.getrandbits(63),
                "scheme": ens.scheme, "dt": ens.dt, "t_end": ens.t_end,
                "histogram_times": list(ens.hist_times()), "bins": BINS,
                "born_reference": {"level": ens.level}}}),
        }

    def write_configs(self, work: Path, master_seed: int) -> dict:
        """Write each config to work/<scenario>/config.json; return scenario -> argv tail."""
        runs = {}
        for scenario, (command, body) in self.configs(master_seed).items():
            directory = work / scenario
            directory.mkdir(parents=True, exist_ok=True)
            config = {"scenario": command, "out_dir": "out", **body}
            (directory / "config.json").write_text(json.dumps(config, sort_keys=True))
            runs[scenario] = [command, "--config", "config.json"]
        return runs

    def run(self, work: Path, runs: dict, tracer=None, op_id=None, between=None) -> dict:
        """The op: every scenario as a fresh CLI process; scenario -> (exit code, seconds).

        ``between``, if given, is called after each process, outside its timing.
        """
        span = tracer.span if tracer else _no_span
        codes = {}
        for scenario, argv in runs.items():
            directory = work / scenario
            shutil.rmtree(directory / "out", ignore_errors=True)
            with span(f"cli.process.{scenario}", op_id):
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "momflow.cli", *argv],
                                      cwd=directory, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, timeout=120)
                codes[scenario] = (proc.returncode, time.perf_counter() - start)
            if between:
                between()
        return codes

    def check(self, work: Path, codes: dict) -> tuple[str, list]:
        """(checksum of every output file but summary.json, failure messages)."""
        failures = []
        digest = hashlib.sha256()
        for scenario, (code, _seconds) in codes.items():
            out = work / scenario / "out"
            if code != 0:
                failures.append(f"{scenario}: exit code {code}")
            summary_path = out / "summary.json"
            if not summary_path.exists():
                failures.append(f"{scenario}: no summary.json")
                continue
            summary = json.loads(summary_path.read_text())
            if summary.get("status") != "ok":
                failures.append(f"{scenario}: status {summary.get('status')!r}")
            if scenario == "ensemble":
                drift = summary.get("max_energy_drift", math.inf)
                if not drift < CLI_ENSEMBLE.drift_bound:
                    failures.append(f"ensemble: max_energy_drift {drift:.3e}")
                for i, entry in enumerate(summary.get("histograms", [])):
                    failures += born_failures(CLI_ENSEMBLE, i, entry["t"],
                                              entry["born_l1_distance"],
                                              entry["born_js_divergence"])
            for path in sorted(out.rglob("*")):
                if path.is_file() and path.name != "summary.json":
                    digest.update(str(path.relative_to(work)).encode())
                    digest.update(path.read_bytes())
        failures += self.analytic_failures(work / "evolve_rk4" / "out" / "trajectory.csv")
        return digest.hexdigest(), failures

    @staticmethod
    def analytic_failures(csv_path: Path) -> list:
        """The RK4 evolve trajectory against the closed-form level-1 solution."""
        if not csv_path.exists():
            return ["evolve_rk4: no trajectory.csv"]
        _meta, names, rows = read_csv(csv_path)
        t = rows[:, names.index("t")]
        x = rows[:, names.index("re_x0")] + 1j * rows[:, names.index("im_x0")]
        error = float(np.max(np.abs(x - momflow.qho_analytic_position(EVOLVE_RK4_X0, t))))
        return [] if error < ANALYTIC_TOL else [
            f"evolve_rk4: {error:.3e} from the analytic trajectory (bound {ANALYTIC_TOL:g})"]


CLI_SCENARIOS = CliWorkload()

WORKLOADS = {w.name: w for w in (ENS_RK4_LONG, ENS_WIDE_SHORT, ENS_RKF45, CLI_SCENARIOS)}
