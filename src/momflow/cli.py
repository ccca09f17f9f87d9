"""Command-line front end.

One JSON config document describes one run; the subcommand names the
scenario (field-scan, evolve, ensemble, reconstruct, twobody, oracle)
and must agree with the config's ``scenario`` field when both are
given.  A few stable flags (--seed, --dt, --t-end, --out, --format,
--svg) override their config counterparts.

Every run writes a machine-readable ``summary.json`` (even on failure
paths, except when the config itself cannot be parsed).  Exit codes:
0 success, 1 usage/config error, 2 a physics invariant check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import __version__
from .core import NATURAL_UNITS, SeedSpec, UnitSystem
from .dynamics import IntegratorConfig, evolve
from .ensemble import (
    Distribution,
    EnsembleSpec,
    compare_density_to_born,
    density_histogram,
    evolve_ensemble,
)
from .errors import MomflowError, TrajectoryNearSingularity
from .fields import (
    energy_constancy_scan,
    harmonic_potential,
    polynomial_potential,
    qho_field,
    reconstruct_wavefunction,
    zero_potential,
    constant_potential,
)
from .gridsolver import Grid1D, field_from_grid, solve_schrodinger_1d
from .twobody import (
    RotationMomentum,
    force_norm_invariant,
    matrix_delta_e,
    spinning_pair_history,
    total_momentum_drift,
)
from . import reports, svgplot

SCENARIOS = ("field-scan", "evolve", "ensemble", "reconstruct", "twobody", "oracle")

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_INVARIANT = 2


class ConfigError(Exception):
    """Config validation failure; the message names the offending field."""


@dataclass
class RunConfig:
    """Validated run description: scenario, units, outputs, parameters."""

    scenario: str
    units: UnitSystem = NATURAL_UNITS
    out_dir: str = "."
    formats: tuple = ("csv", "json")
    svg: bool = False
    params: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "units": {"hbar": self.units.hbar, "mass": self.units.mass,
                      "omega": self.units.omega},
            "out_dir": self.out_dir,
            "formats": list(self.formats),
            "svg": self.svg,
            self.scenario.replace("-", "_"): dict(self.params),
        }

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _expect(block: dict, key: str, kind, where: str, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return default
    value = block[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected true/false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}.{key}: expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}.{key}: expected a list, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}.{key}: expected an object, got {value!r}")
        return value
    raise AssertionError(kind)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    text = Path(path).read_text(encoding="utf-8")
    data = json.loads(text)
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    scenario = _expect(data, "scenario", str, "config", required=True)
    if scenario not in SCENARIOS:
        raise ConfigError(f"config.scenario: unknown scenario {scenario!r}; "
                          f"expected one of {', '.join(SCENARIOS)}")
    units_block = _expect(data, "units", dict, "config", default={})
    try:
        units = UnitSystem(
            hbar=_expect(units_block, "hbar", float, "units", default=1.0),
            mass=_expect(units_block, "mass", float, "units", default=1.0),
            omega=_expect(units_block, "omega", float, "units", default=1.0))
    except ValueError as exc:
        raise ConfigError(f"units: {exc}") from exc
    formats = tuple(_expect(data, "formats", list, "config", default=["csv", "json"]))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"config.formats: unknown format {fmt!r}")
    block_key = scenario.replace("-", "_")
    params = _expect(data, block_key, dict, "config", default={})
    return RunConfig(
        scenario=scenario, units=units,
        out_dir=_expect(data, "out_dir", str, "config", default="."),
        formats=formats,
        svg=_expect(data, "svg", bool, "config", default=False),
        params=params)


def _complex_from(value, where):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _build_field(block, units, where):
    kind = _expect(block, "kind", str, where, default="qho")
    if kind == "qho":
        return qho_field(_expect(block, "level", int, where, default=1), units)
    raise ConfigError(f"{where}.kind: unknown field kind {kind!r}")


def _build_potential(block, units, where):
    kind = _expect(block, "kind", str, where, default="harmonic")
    if kind == "harmonic":
        return harmonic_potential(units)
    if kind == "polynomial":
        coeffs = _expect(block, "coefficients", list, where, required=True)
        return polynomial_potential(coeffs)
    if kind == "zero":
        return zero_potential()
    if kind == "constant":
        return constant_potential(_expect(block, "value", float, where, required=True))
    raise ConfigError(f"{where}.kind: unknown potential kind {kind!r}")


def _integrator(block, where, default_t_end=None):
    t_end = _expect(block, "t_end", float, where,
                    default=default_t_end, required=default_t_end is None)
    try:
        return IntegratorConfig(
            t_end=t_end,
            scheme=_expect(block, "scheme", str, where, default="rk4"),
            dt=_expect(block, "dt", float, where, default=1e-3))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# -- scenario runners -----------------------------------------------------------


def _run_field_scan(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    p = cfg.params
    field = _build_field(_expect(p, "field", dict, "field_scan", default={}),
                         cfg.units, "field_scan.field")
    potential = _build_potential(_expect(p, "potential", dict, "field_scan", default={}),
                                 cfg.units, "field_scan.potential")
    region = _expect(p, "region", list, "field_scan", default=[0.1, 5.0])
    report = energy_constancy_scan(
        field, potential, (region[0], region[1]),
        samples=_expect(p, "samples", int, "field_scan", default=1000),
        tol=_expect(p, "tol", float, "field_scan", default=1e-9),
        units=cfg.units)
    summary = reports.scan_report_json(report)
    if "csv" in cfg.formats:
        reports.scan_report_csv(report, out / "field_scan.csv",
                                reports.standard_metadata(config_hash=cfg.config_hash))
    if cfg.svg:
        svgplot.line_plot(out / "field_scan.svg", report.points,
                          [report.energies.real, report.energies.imag],
                          labels=["Re E", "Im E"], title="energy scan",
                          xlabel="x", ylabel="E")
    return (_EXIT_OK if report.passed else _EXIT_INVARIANT), summary


def _run_evolve(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    p = cfg.params
    field = _build_field(_expect(p, "field", dict, "evolve", default={}),
                         cfg.units, "evolve.field")
    potential = _build_potential(_expect(p, "potential", dict, "evolve", default={}),
                                 cfg.units, "evolve.potential")
    x0 = _complex_from(p.get("x0", 1.0), "evolve.x0")
    config = _integrator(p, "evolve")
    drift_tol = _expect(p, "max_displacement_tol", float, "evolve")
    halt = None
    try:
        traj = evolve(field, potential, x0, config, cfg.units)
    except TrajectoryNearSingularity as exc:
        traj = exc.trajectory
        halt = str(exc)
    displacement = np.abs(traj.positions[:, 0] - traj.positions[0, 0])
    summary = {
        "x0": reports.complex_pair(x0),
        "scheme": config.scheme,
        "dt": config.dt,
        "t_end": config.t_end,
        "steps": len(traj) - 1,
        "final_position": reports.complex_pair(traj.positions[-1, 0]),
        "max_displacement_from_start": float(displacement.max()),
        "halt": halt,
    }
    status = _EXIT_OK
    if drift_tol is not None and displacement.max() > drift_tol:
        status = _EXIT_INVARIANT
        summary["violated"] = "max_displacement_tol"
    if "csv" in cfg.formats:
        reports.trajectory_csv(traj, out / "trajectory.csv",
                               reports.standard_metadata(config_hash=cfg.config_hash))
    if "json" in cfg.formats:
        reports.write_json(out / "trajectory.json", reports.trajectory_json(traj))
    if cfg.svg:
        svgplot.line_plot(out / "trajectory.svg", traj.times,
                          [traj.x.real, traj.x.imag], labels=["Re x", "Im x"],
                          title="trajectory", xlabel="t", ylabel="x")
    return status, summary


def _run_ensemble(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    p = cfg.params
    field = _build_field(_expect(p, "field", dict, "ensemble", default={}),
                         cfg.units, "ensemble.field")
    potential = _build_potential(_expect(p, "potential", dict, "ensemble", default={}),
                                 cfg.units, "ensemble.potential")
    region = _expect(p, "region", list, "ensemble", required=True)
    dist_block = _expect(p, "distribution", dict, "ensemble", default={"kind": "uniform"})
    try:
        dist = Distribution(
            kind=_expect(dist_block, "kind", str, "ensemble.distribution", default="uniform"),
            mean=_expect(dist_block, "mean", float, "ensemble.distribution", default=0.0),
            sigma=_expect(dist_block, "sigma", float, "ensemble.distribution", default=1.0))
        spec = EnsembleSpec(
            count=_expect(p, "count", int, "ensemble", default=1000),
            region=(region[0], region[1]),
            distribution=dist,
            seed=SeedSpec(_expect(p, "seed", int, "ensemble", default=0)),
            integrator=_integrator(p, "ensemble", default_t_end=5.0))
    except ValueError as exc:
        raise ConfigError(f"ensemble: {exc}") from exc
    count = spec.count
    if _expect(p, "dump_trajectories", bool, "ensemble", default=False) and count > 100_000:
        raise ConfigError("ensemble.dump_trajectories: refusing per-member dumps "
                          "for more than 100000 members")

    result = evolve_ensemble(field, potential, spec, cfg.units)
    summary = reports.ensemble_summary(result)
    summary["seed"] = spec.seed.master_seed

    bins = _expect(p, "bins", int, "ensemble", default=40)
    hist_times = _expect(p, "histogram_times", list, "ensemble",
                         default=[float(result.times[-1])])
    meta = reports.standard_metadata(seed=spec.seed.master_seed,
                                     config_hash=cfg.config_hash)
    summary["histograms"] = []
    for t in hist_times:
        hist = density_histogram(result, float(t), bins)
        entry = {
            "t": hist.time,
            "off_axis_count": hist.off_axis_count,
            "terminated_count": hist.terminated_count,
        }
        born_block = p.get("born_reference")
        if born_block is not None:
            level = _expect(born_block, "level", int, "ensemble.born_reference", default=1)
            a = cfg.units.mass * cfg.units.omega / cfg.units.hbar
            from .fields import _hermite

            def born_psi(x, _n=level, _a=a):
                return _hermite(_n, np.sqrt(_a) * x) * np.exp(-0.5 * _a * x * x)

            comparison = compare_density_to_born(hist, born_psi)
            hist.born_reference = comparison.reference
            entry["born_l1_distance"] = comparison.l1_distance
            entry["born_js_divergence"] = comparison.js_divergence
        if "csv" in cfg.formats:
            reports.histogram_csv(hist, out / f"histogram_t{hist.time:g}.csv", meta)
        if cfg.svg:
            overlay = None
            if hist.born_reference is not None:
                mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
                overlay = (mids, hist.born_reference * hist.counts.sum())
            svgplot.histogram_plot(out / f"histogram_t{hist.time:g}.svg",
                                   hist.edges, hist.counts, overlay=overlay,
                                   title=f"density at t={hist.time:g}",
                                   xlabel="Re x", ylabel="count")
        summary["histograms"].append(entry)

    if _expect(p, "dump_trajectories", bool, "ensemble", default=False):
        rows = []
        for s, t in enumerate(result.times):
            for i in range(count):
                z = result.positions[s, i, 0]
                rows.append([i, t, z.real, z.imag])
        reports.write_csv(out / "members.csv", ["member", "t", "re_x", "im_x"], rows, meta)
    return _EXIT_OK, summary


def _run_reconstruct(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    p = cfg.params
    field = _build_field(_expect(p, "field", dict, "reconstruct", default={}),
                         cfg.units, "reconstruct.field")
    path_block = _expect(p, "path", dict, "reconstruct", default={})
    start = _expect(path_block, "start", float, "reconstruct.path", default=0.5)
    stop = _expect(path_block, "stop", float, "reconstruct.path", default=4.0)
    nodes = _expect(path_block, "nodes", int, "reconstruct.path", default=36)
    amplitude = _complex_from(p.get("amplitude", 1.0), "reconstruct.amplitude")
    samples = reconstruct_wavefunction(field, np.linspace(start, stop, nodes),
                                       amplitude, cfg.units)
    summary = {
        "path": {"start": start, "stop": stop, "nodes": nodes},
        "amplitude": reports.complex_pair(amplitude),
        "first_value": reports.complex_pair(samples.values[0]),
        "last_value": reports.complex_pair(samples.values[-1]),
    }
    if "csv" in cfg.formats:
        rows = [[x.real, v.real, v.imag, s.real, s.imag]
                for x, v, s in zip(samples.path, samples.values, samples.phase_integrals)]
        reports.write_csv(out / "wavefunction.csv",
                          ["x", "re_psi", "im_psi", "re_phase", "im_phase"], rows,
                          reports.standard_metadata(config_hash=cfg.config_hash))
    if cfg.svg:
        svgplot.line_plot(out / "wavefunction.svg", samples.path.real,
                          [np.abs(samples.values)], labels=["|psi|"],
                          title="reconstructed wavefunction", xlabel="x", ylabel="|psi|")
    return _EXIT_OK, summary


def _run_twobody(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    from .twobody import SpinningPairParams

    p = cfg.params
    kind = _expect(p, "kind", str, "twobody", default="spinning")
    tol = _expect(p, "tol", float, "twobody", default=1e-6)
    meta = reports.standard_metadata(config_hash=cfg.config_hash)
    if kind == "spinning":
        try:
            params = SpinningPairParams(
                radius=_expect(p, "radius", float, "twobody", default=1.0),
                gamma=_expect(p, "gamma", float, "twobody", default=1.0),
                mass=_expect(p, "mass", float, "twobody", default=1.0),
                p1_0=tuple(_expect(p, "p1_0", list, "twobody", default=[0.0, 0.0])),
                p2_0=tuple(_expect(p, "p2_0", list, "twobody", default=[0.0, 0.0])))
        except ValueError as exc:
            raise ConfigError(f"twobody: {exc}") from exc
        history = spinning_pair_history(
            params,
            dt=_expect(p, "dt", float, "twobody", default=1e-3),
            samples=_expect(p, "samples", int, "twobody", default=1000),
            closed_form_derivatives=_expect(p, "closed_form_derivatives", bool,
                                            "twobody", default=True))
        momentum = total_momentum_drift(history)
        force_norm = force_norm_invariant(history)
        passed = momentum.max_abs <= tol and force_norm.constant_within(tol)
        summary = {
            "kind": "spinning",
            "invariant_value": force_norm.mean.real,
            "expected_invariant": 2.0 * (params.mass * params.radius * params.gamma ** 2) ** 2,
            "force_norm_drift": force_norm.drift,
            "momentum_drift_max": momentum.max_abs,
            "tol": tol,
            "passed": passed,
        }
        if "csv" in cfg.formats:
            reports.invariant_series_csv(force_norm, out / "force_norm.csv", meta)
            reports.invariant_series_csv(momentum, out / "momentum_drift.csv", meta)
        if "json" in cfg.formats:
            reports.write_json(out / "invariants.json", {
                "force_norm": reports.invariant_series_json(force_norm, tol),
                "momentum_drift": reports.invariant_series_json(momentum, tol),
            })
        if cfg.svg:
            drift = np.abs(force_norm.values - force_norm.mean)
            svgplot.line_plot(out / "invariant_drift.svg", force_norm.times,
                              [np.maximum(drift, 1e-18)], labels=["|drift|"],
                              title="force-norm invariant drift", xlabel="t",
                              ylabel="drift", log_y=True)
        return (_EXIT_OK if passed else _EXIT_INVARIANT), summary
    if kind == "rotation":
        rate = _expect(p, "rate", float, "twobody", default=1.0)
        amplitudes = tuple(_expect(p, "amplitudes", list, "twobody", default=[1.0, 1.0, 1.0]))
        times = np.linspace(0.0, _expect(p, "t_end", float, "twobody", default=1.0),
                            _expect(p, "samples", int, "twobody", default=200))
        series = matrix_delta_e(
            RotationMomentum(amplitudes, rate, +1),
            RotationMomentum(amplitudes, rate, -1), times, cfg.units)
        passed = series.max_abs <= tol
        summary = {"kind": "rotation", "max_norm": series.max_abs, "tol": tol,
                   "passed": passed}
        if "csv" in cfg.formats:
            reports.invariant_series_csv(series, out / "matrix_delta_e.csv", meta)
        return (_EXIT_OK if passed else _EXIT_INVARIANT), summary
    raise ConfigError(f"twobody.kind: unknown kind {kind!r}")


def _run_oracle(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    p = cfg.params
    potential = _build_potential(_expect(p, "potential", dict, "oracle", default={}),
                                 cfg.units, "oracle.potential")
    try:
        grid = Grid1D(
            x_min=_expect(p, "x_min", float, "oracle", default=-8.0),
            x_max=_expect(p, "x_max", float, "oracle", default=8.0),
            points=_expect(p, "points", int, "oracle", default=2000))
        pairs = solve_schrodinger_1d(potential, grid,
                                     _expect(p, "states", int, "oracle", default=3),
                                     cfg.units)
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    summary = reports.eigenpairs_json(grid, pairs)
    if _expect(p, "field_check", bool, "oracle", default=False):
        field = field_from_grid(pairs[0], grid, cfg.units)
        lo = _expect(p, "check_lo", float, "oracle", default=-2.0)
        hi = _expect(p, "check_hi", float, "oracle", default=2.0)
        report = energy_constancy_scan(field, potential, (lo, hi), samples=400,
                                       tol=_expect(p, "check_tol", float, "oracle",
                                                   default=1e-4),
                                       units=cfg.units)
        summary["field_check"] = reports.scan_report_json(report)
        if not report.passed:
            return _EXIT_INVARIANT, summary
    meta = reports.standard_metadata(config_hash=cfg.config_hash)
    if "csv" in cfg.formats:
        reports.eigenpairs_csv(grid, pairs, out / "eigenstates.csv", meta)
    if cfg.svg:
        svgplot.line_plot(out / "eigenstates.svg", grid.xs,
                          [pair.psi for pair in pairs],
                          labels=[f"psi_{pair.level}" for pair in pairs],
                          title="grid eigenstates", xlabel="x", ylabel="psi")
    return _EXIT_OK, summary


_RUNNERS = {
    "field-scan": _run_field_scan,
    "evolve": _run_evolve,
    "ensemble": _run_ensemble,
    "reconstruct": _run_reconstruct,
    "twobody": _run_twobody,
    "oracle": _run_oracle,
}


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    params = dict(cfg.params)
    if args.seed is not None:
        params["seed"] = args.seed
    if args.dt is not None:
        params["dt"] = args.dt
    if args.t_end is not None:
        params["t_end"] = args.t_end
    out_dir = args.out if args.out is not None else cfg.out_dir
    formats = (args.format,) if args.format is not None else cfg.formats
    svg = True if args.svg else cfg.svg
    return RunConfig(scenario=cfg.scenario, units=cfg.units, out_dir=out_dir,
                     formats=formats, svg=svg, params=params)


def run(cfg: RunConfig) -> int:
    """Execute a validated config; always writes summary.json."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "tool": "momflow",
        "version": __version__,
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash,
        "status": "ok",
    }
    try:
        code, details = _RUNNERS[cfg.scenario](cfg, out)
        summary.update(details)
        if code == _EXIT_INVARIANT:
            summary["status"] = "invariant-failed"
    except ConfigError as exc:
        summary["status"] = "config-error"
        summary["error"] = str(exc)
        code = _EXIT_CONFIG
    except MomflowError as exc:
        summary["status"] = "error"
        summary["error"] = f"{type(exc).__name__}: {exc}"
        code = _EXIT_CONFIG
    reports.write_json(out / "summary.json", summary)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momflow",
        description="Momentum-field dynamics: scans, trajectories, ensembles, "
                    "two-electron invariants, and the grid eigensolver.")
    parser.add_argument("--version", action="version", version=f"momflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        s = sub.add_parser(name, help=f"run the {name} scenario")
        s.add_argument("--config", required=True, help="path to the JSON run config")
        s.add_argument("--seed", type=int, default=None, help="override the master seed")
        s.add_argument("--dt", type=float, default=None, help="override the time step")
        s.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override the end time")
        s.add_argument("--out", default=None, help="override the output directory")
        s.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict tabular output to one format")
        s.add_argument("--svg", action="store_true", help="also emit SVG plots")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return _EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return _EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    if cfg.scenario != args.command:
        print(f"error: config declares scenario {cfg.scenario!r} but the "
              f"{args.command!r} subcommand was invoked", file=sys.stderr)
        return _EXIT_CONFIG

    cfg = _apply_overrides(cfg, args)
    code = run(cfg)
    summary_path = Path(cfg.out_dir) / "summary.json"
    print(f"scenario {cfg.scenario}: "
          f"{'ok' if code == _EXIT_OK else 'failed'} (summary: {summary_path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
