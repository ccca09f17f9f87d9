"""Command-line front end.

One JSON config describes one run; the subcommand names the scenario
(field-scan, evolve, ensemble, reconstruct, twobody, oracle) and must
agree with the config's ``scenario``.  Each block is resolved against a
table of its keys, one table per ``kind`` where the kind decides them:
an unknown key is a config error naming its path and the closest known
key, and a missing key takes its default.  ``x0`` and ``amplitude`` take
a number or an ``[re, im]`` pair.  --out, --format and --svg override
their config counterparts; --seed, --dt and --t-end set their key only
where the resolved block has it, and are a config error elsewhere.

A run writes the files whose suffix the config enables (``.csv`` and
``.json`` by ``formats``, ``.svg`` by ``svg``), then ``summary.json``
with the ``resolved_config`` and the ``config_hash`` covering it, and the
sorted names of the files written under ``files``; a failed run writes
only ``summary.json``, with ``files`` empty.  A setting the tables or the
library refuses (a ValueError, status ``config-error``) records both as
null; a run that fails on its data (status ``error``) keeps them.  Only a
config that cannot be read, or whose top level is in error (a subcommand
other than its ``scenario`` included) and names no string ``out_dir``
(nor --out), ends without one, as does an ``out_dir`` that cannot be
written (an error on stderr).
Exit codes: 0 success, 1 usage/config error, 2 a physics invariant check
failed.  A ``momflow`` process (``run``) ends by ``os._exit`` once
``main`` has returned and stdout and stderr are flushed, skipping the
interpreter's finalization: every file a run writes is closed by then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, reports
from .core import SeedSpec, UnitSystem
from .errors import MomflowError, TrajectoryNearSingularity

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_INVARIANT = 2


class ConfigError(Exception):
    """Config validation failure; the message names the offending field."""


# -- config tables ----------------------------------------------------------------
# A table maps each key of a block to (check, default).  A check takes
# (value, where) and returns the resolved JSON-native value or raises
# ConfigError.  Defaults go through the check: _REQUIRED marks a key
# without one, None a key left out unless given, and a callable computes
# it from the keys resolved before it.

_REQUIRED = object()


def _resolve(table: dict, block, where: str) -> dict:
    """``block`` checked against ``table``, unknown keys refused, defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object, got {block!r}")
    for key in block:
        if key not in table:
            import difflib

            close = difflib.get_close_matches(str(key), list(table), n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"known keys: {', '.join(table)}"
            raise ConfigError(f"{where}.{key}: unknown key; {hint}")
    resolved = {}
    for key, (check, default) in table.items():
        if key in block:
            resolved[key] = check(block[key], f"{where}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{where}.{key}: required field is missing")
        elif default is not None:
            value = default(resolved) if callable(default) else default
            resolved[key] = check(value, f"{where}.{key}")
    return resolved


def _check(accept, expected, convert=lambda value: value):
    def check(value, where):
        if accept(value):
            return convert(value)
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return check


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_number = _check(lambda v: _is_number(v) and abs(v) <= sys.float_info.max,
                 "a finite number", float)
_positive = _check(lambda v: _is_number(v) and 0 < v <= sys.float_info.max,
                   "a positive finite number", float)
_tolerance = _check(lambda v: _is_number(v) and 0 <= v <= sys.float_info.max,
                    "a non-negative finite number", float)
_string = _check(lambda v: isinstance(v, str), "a string")
_boolean = _check(lambda v: isinstance(v, bool), "true or false")


def _integer(lo=None):
    return _check(lambda v: _is_number(v) and isinstance(v, int) and (lo is None or v >= lo),
                  "an integer" if lo is None else f"an integer >= {lo}")


def _choice(*options):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {', '.join(options)}")


def _list(item, lo, hi, expected):
    """Check of a list of ``lo`` to ``hi`` values, each resolved by ``item``."""
    whole = _check(lambda v: isinstance(v, list) and lo <= len(v) <= hi, expected)
    return lambda value, where: [item(v, f"{where}[{i}]")
                                 for i, v in enumerate(whole(value, where))]


_pair = _list(_number, 2, 2, "a pair of numbers")
_complex_pair = _list(_number, 2, 2, "a number or an [re, im] pair of numbers")


def _complex(value, where):
    """A number or an [re, im] pair, resolved to [re, im]."""
    return [_number(value, where), 0.0] if _is_number(value) else _complex_pair(value, where)


def _block(table):
    return lambda value, where: _resolve(table, value, where)


def _kinds(tables):
    """Check of a block whose ``kind`` picks its table; the first kind is the default."""
    kind_check = _choice(*tables)
    default = next(iter(tables))

    def check(value, where):
        kind = value.get("kind", default) if isinstance(value, dict) else default
        kind = kind_check(kind, f"{where}.kind")
        return _resolve({"kind": (kind_check, kind), **tables[kind]}, value, where)
    return check


_FIELD = _kinds({"qho": {"level": (_integer(0), 1)}})
_POTENTIAL = _kinds({
    "harmonic": {},
    "polynomial": {"coefficients": (_list(_number, 1, math.inf, "a non-empty list of numbers"),
                                    _REQUIRED)},
    "zero": {},
    "constant": {"value": (_number, _REQUIRED)},
})
_PHYSICS = {"field": (_FIELD, {}), "potential": (_POTENTIAL, {})}
_STEPPING = {"scheme": (_choice("rk4", "rkf45"), "rk4"), "dt": (_positive, 1e-3)}


def _potential(block, units):
    from .fields import (constant_potential, harmonic_potential, polynomial_potential,
                         zero_potential)

    kind = block["kind"]
    if kind == "polynomial":
        return polynomial_potential(block["coefficients"])
    if kind == "constant":
        return constant_potential(block["value"])
    return harmonic_potential(units) if kind == "harmonic" else zero_potential()


# -- scenario runners -----------------------------------------------------------
# A runner returns (exit code, summary details, files): ``files`` maps a file
# name to a function that writes that file to a path.  ``meta`` is the CSV
# metadata block.  Each runner imports the modules it uses, so a run loads
# only its own scenario's code.


def _run_field_scan(cfg: RunConfig, meta: dict) -> tuple[int, dict, dict]:
    from . import svgplot
    from .fields import energy_constancy_scan, qho_field

    p = cfg.params
    field = qho_field(p["field"]["level"], cfg.units)
    report = energy_constancy_scan(field, _potential(p["potential"], cfg.units), p["region"],
                                   samples=p["samples"], tol=p["tol"], units=cfg.units)
    files = {
        "field_scan.csv": partial(reports.scan_report_csv, report, metadata=meta),
        "field_scan.svg": lambda path: svgplot.line_plot(
            path, report.points, [report.energies.real, report.energies.imag],
            labels=["Re E", "Im E"], title="energy scan", xlabel="x", ylabel="E"),
    }
    return (_EXIT_OK if report.passed else _EXIT_INVARIANT), reports.scan_report_json(report), files


def _run_evolve(cfg: RunConfig, meta: dict) -> tuple[int, dict, dict]:
    from . import svgplot
    from .dynamics import IntegratorConfig, evolve
    from .fields import qho_field

    p = cfg.params
    field = qho_field(p["field"]["level"], cfg.units)
    x0 = complex(*p["x0"])
    config = IntegratorConfig(p["t_end"], p["scheme"], p["dt"])
    drift_tol = p.get("max_displacement_tol")
    halt = None
    try:
        traj = evolve(field, _potential(p["potential"], cfg.units), x0, config, cfg.units)
    except TrajectoryNearSingularity as exc:
        traj = exc.trajectory
        halt = str(exc)
    displacement = np.abs(traj.positions[:, 0] - traj.positions[0, 0])
    summary = {
        "x0": reports.complex_pair(x0), "scheme": config.scheme, "dt": config.dt,
        "t_end": config.t_end, "steps": len(traj) - 1, "halt": halt,
        "final_position": reports.complex_pair(traj.positions[-1, 0]),
        "max_displacement_from_start": float(displacement.max()),
    }
    status = _EXIT_OK
    if drift_tol is not None and displacement.max() > drift_tol:
        status = _EXIT_INVARIANT
        summary["violated"] = "max_displacement_tol"
    files = {
        "trajectory.csv": partial(reports.trajectory_csv, traj, metadata=meta),
        "trajectory.json": lambda path: reports.write_json(path, reports.trajectory_json(traj)),
        "trajectory.svg": lambda path: svgplot.line_plot(
            path, traj.times, [traj.x.real, traj.x.imag], labels=["Re x", "Im x"],
            title="trajectory", xlabel="t", ylabel="x"),
    }
    return status, summary, files


def _run_ensemble(cfg: RunConfig, meta: dict) -> tuple[int, dict, dict]:
    from . import svgplot
    from .dynamics import IntegratorConfig
    from .ensemble import (Distribution, EnsembleSpec, compare_density_to_born,
                           density_histogram, evolve_ensemble)
    from .fields import qho_field

    p = cfg.params
    spec = EnsembleSpec(count=p["count"], region=tuple(p["region"]),
                        distribution=Distribution(**p["distribution"]), seed=SeedSpec(p["seed"]),
                        integrator=IntegratorConfig(p["t_end"], p["scheme"], p["dt"]))
    if p["dump_trajectories"] and spec.count > 100_000:
        raise ConfigError("ensemble.dump_trajectories: refusing per-member dumps "
                          "for more than 100000 members")
    born_psi = None
    if "born_reference" in p:
        from numpy.polynomial import Hermite

        a = cfg.units.mass * cfg.units.omega / cfg.units.hbar
        h_n = Hermite.basis(p["born_reference"]["level"])

        def born_psi(x):
            return h_n(np.sqrt(a) * x) * np.exp(-0.5 * a * x * x)

    result = evolve_ensemble(qho_field(p["field"]["level"], cfg.units),
                             _potential(p["potential"], cfg.units), spec, cfg.units)
    summary = reports.ensemble_summary(result)
    summary["seed"] = spec.seed.master_seed

    meta = {**meta, "seed": spec.seed.master_seed}
    files = {}
    summary["histograms"] = []
    # each time snaps to its nearest snapshot, and each snapshot is histogrammed once
    for s in dict.fromkeys(result.snapshot_index(t) for t in p["histogram_times"]):
        hist = density_histogram(result, result.times[s], p["bins"])
        entry = {
            "t": hist.time,
            "off_axis_count": hist.off_axis_count,
            "terminated_count": hist.terminated_count,
        }
        overlay = None
        if born_psi is not None:
            comparison = compare_density_to_born(hist, born_psi)
            hist.born_reference = comparison.reference
            entry["born_l1_distance"] = comparison.l1_distance
            entry["born_js_divergence"] = comparison.js_divergence
            mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
            overlay = (mids, hist.born_reference * hist.counts.sum())
        files[f"histogram_t{hist.time:g}.csv"] = partial(reports.histogram_csv, hist,
                                                         metadata=meta)
        files[f"histogram_t{hist.time:g}.svg"] = partial(
            svgplot.histogram_plot, edges=hist.edges, counts=hist.counts, overlay=overlay,
            title=f"density at t={hist.time:g}", xlabel="Re x", ylabel="count")
        summary["histograms"].append(entry)

    if p["dump_trajectories"]:
        def members_csv(path):
            reports.write_csv(path, {
                "member": np.tile(np.arange(spec.count), len(result.times)),
                "t": np.repeat(result.times, spec.count),
                "x": result.positions[:, :, 0].ravel()}, meta)

        files["members.csv"] = members_csv
    return _EXIT_OK, summary, files


def _run_reconstruct(cfg: RunConfig, meta: dict) -> tuple[int, dict, dict]:
    from . import svgplot
    from .fields import qho_field, reconstruct_wavefunction

    p = cfg.params
    path = p["path"]
    amplitude = complex(*p["amplitude"])
    samples = reconstruct_wavefunction(qho_field(p["field"]["level"], cfg.units),
                                       np.linspace(path["start"], path["stop"], path["nodes"]),
                                       amplitude, cfg.units)
    summary = {
        "path": dict(path),
        "amplitude": reports.complex_pair(amplitude),
        "first_value": reports.complex_pair(samples.values[0]),
        "last_value": reports.complex_pair(samples.values[-1]),
    }
    files = {
        "wavefunction.csv": partial(reports.write_csv,
                                    columns={"x": samples.path.real, "psi": samples.values,
                                             "phase": samples.phase_integrals},
                                    metadata=meta),
        "wavefunction.svg": lambda out: svgplot.line_plot(
            out, samples.path.real, [np.abs(samples.values)], labels=["|psi|"],
            title="reconstructed wavefunction", xlabel="x", ylabel="|psi|"),
    }
    return _EXIT_OK, summary, files


def _run_twobody(cfg: RunConfig, meta: dict) -> tuple[int, dict, dict]:
    from . import svgplot
    from .twobody import (RotationMomentum, SpinningPairParams, force_norm_invariant,
                          matrix_delta_e, spinning_pair_history, total_momentum_drift)

    p = cfg.params
    tol = p["tol"]
    if p["kind"] == "spinning":
        params = SpinningPairParams(radius=p["radius"], gamma=p["gamma"], mass=p["mass"],
                                    p1_0=tuple(p["p1_0"]), p2_0=tuple(p["p2_0"]))
        history = spinning_pair_history(params, dt=p["dt"], samples=p["samples"],
                                        closed_form_derivatives=p["closed_form_derivatives"])
        momentum = total_momentum_drift(history)
        force_norm = force_norm_invariant(history)
        passed = momentum.max_abs <= tol and force_norm.constant_within(tol)
        summary = {
            "kind": "spinning", "tol": tol, "passed": passed,
            "invariant_value": force_norm.mean.real,
            "expected_invariant": 2.0 * (params.mass * params.radius * params.gamma ** 2) ** 2,
            "force_norm_drift": force_norm.drift, "momentum_drift_max": momentum.max_abs,
        }
        files = {
            "force_norm.csv": partial(reports.invariant_series_csv, force_norm, metadata=meta),
            "momentum_drift.csv": partial(reports.invariant_series_csv, momentum, metadata=meta),
            "invariants.json": lambda path: reports.write_json(path, {
                "force_norm": reports.invariant_series_json(force_norm, tol),
                "momentum_drift": reports.invariant_series_json(momentum, tol),
            }),
            "invariant_drift.svg": lambda path: svgplot.line_plot(
                path, force_norm.times,
                [np.maximum(np.abs(force_norm.values - force_norm.mean), 1e-18)],
                labels=["|drift|"], title="force-norm invariant drift", xlabel="t",
                ylabel="drift", log_y=True),
        }
        return (_EXIT_OK if passed else _EXIT_INVARIANT), summary, files
    amplitudes = tuple(p["amplitudes"])
    series = matrix_delta_e(
        RotationMomentum(amplitudes, p["rate"], +1), RotationMomentum(amplitudes, p["rate"], -1),
        np.linspace(0.0, p["t_end"], p["samples"]), cfg.units)
    passed = series.max_abs <= tol
    summary = {"kind": "rotation", "max_norm": series.max_abs, "tol": tol, "passed": passed}
    files = {"matrix_delta_e.csv": partial(reports.invariant_series_csv, series, metadata=meta)}
    return (_EXIT_OK if passed else _EXIT_INVARIANT), summary, files


def _run_oracle(cfg: RunConfig, meta: dict) -> tuple[int, dict, dict]:
    from . import svgplot
    from .fields import energy_constancy_scan
    from .gridsolver import Grid1D, field_from_grid, solve_schrodinger_1d

    p = cfg.params
    potential = _potential(p["potential"], cfg.units)
    grid = Grid1D(x_min=p["x_min"], x_max=p["x_max"], points=p["points"])
    pairs = solve_schrodinger_1d(potential, grid, p["states"], cfg.units)
    summary = reports.eigenpairs_json(grid, pairs)
    if p["field_check"]:
        field = field_from_grid(pairs[0], grid, cfg.units)
        report = energy_constancy_scan(field, potential, (p["check_lo"], p["check_hi"]),
                                       samples=400, tol=p["check_tol"], units=cfg.units)
        summary["field_check"] = reports.scan_report_json(report)
        if not report.passed:
            return _EXIT_INVARIANT, summary, {}
    files = {
        "eigenstates.csv": partial(reports.eigenpairs_csv, grid, pairs, metadata=meta),
        "eigenstates.svg": lambda path: svgplot.line_plot(
            path, grid.xs, [pair.psi for pair in pairs],
            labels=[f"psi_{pair.level}" for pair in pairs],
            title="grid eigenstates", xlabel="x", ylabel="psi"),
    }
    return _EXIT_OK, summary, files


# -- scenario registry ----------------------------------------------------------
# Each scenario's block check, against its table of keys, and its runner.

_SCENARIOS = {
    "field-scan": (_block({
        **_PHYSICS, "region": (_pair, [0.1, 5.0]), "samples": (_integer(2), 1000),
        "tol": (_tolerance, 1e-9),
    }), _run_field_scan),
    "evolve": (_block({
        **_PHYSICS, "x0": (_complex, 1.0), "t_end": (_positive, _REQUIRED), **_STEPPING,
        "max_displacement_tol": (_tolerance, None),
    }), _run_evolve),
    "ensemble": (_block({
        **_PHYSICS, "count": (_integer(), 1000), "region": (_pair, _REQUIRED),
        "distribution": (_kinds({"uniform": {}, "gaussian": {"mean": (_number, 0.0),
                                                             "sigma": (_positive, 1.0)}}), {}),
        "seed": (_integer(), 0), "t_end": (_positive, 5.0), **_STEPPING,
        "dump_trajectories": (_boolean, False), "bins": (_integer(1), 40),
        "histogram_times": (_list(_number, 0, math.inf, "a list of numbers"),
                            lambda p: [p["t_end"]]),
        "born_reference": (_FIELD, None),
    }), _run_ensemble),
    "reconstruct": (_block({
        "field": (_FIELD, {}),
        "path": (_block({"start": (_number, 0.5), "stop": (_number, 4.0),
                         "nodes": (_integer(2), 36)}), {}),
        "amplitude": (_complex, 1.0),
    }), _run_reconstruct),
    "twobody": (_kinds({
        "spinning": {
            "tol": (_tolerance, 1e-6), "radius": (_number, 1.0), "gamma": (_number, 1.0),
            "mass": (_number, 1.0), "p1_0": (_pair, [0.0, 0.0]), "p2_0": (_pair, [0.0, 0.0]),
            "dt": (_number, 1e-3), "samples": (_integer(1), 1000),
            "closed_form_derivatives": (_boolean, True),
        },
        "rotation": {
            "tol": (_tolerance, 1e-6), "rate": (_number, 1.0),
            "amplitudes": (_list(_number, 1, 3, "one to three numbers"), [1.0, 1.0, 1.0]),
            "t_end": (_number, 1.0), "samples": (_integer(1), 200),
        },
    }), _run_twobody),
    "oracle": (_block({
        "potential": (_POTENTIAL, {}), "x_min": (_number, -8.0), "x_max": (_number, 8.0),
        "points": (_integer(), 2000), "states": (_integer(), 3),
        "field_check": (_boolean, False), "check_lo": (_number, -2.0),
        "check_hi": (_number, 2.0), "check_tol": (_tolerance, 1e-4),
    }), _run_oracle),
}
SCENARIOS = tuple(_SCENARIOS)

_TOP = {
    "scenario": (_choice(*SCENARIOS), _REQUIRED),
    "units": (_block({"hbar": (_number, 1.0), "mass": (_number, 1.0),
                      "omega": (_number, 1.0)}), {}),
    "out_dir": (_string, "."),
    "formats": (_list(_choice("csv", "json"), 0, math.inf, "a list of formats"), ["csv", "json"]),
    "svg": (_boolean, False),
}


def _block_key(scenario: str) -> str:
    """The config key of ``scenario``'s block: field-scan's is field_scan."""
    return scenario.replace("-", "_")


@dataclass
class RunConfig:
    """Resolved run description: scenario, units, outputs, parameters."""

    scenario: str
    units: UnitSystem
    out_dir: str
    formats: tuple
    svg: bool
    params: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "units": {"hbar": self.units.hbar, "mass": self.units.mass,
                      "omega": self.units.omega},
            "out_dir": self.out_dir,
            "formats": list(self.formats),
            "svg": self.svg,
            _block_key(self.scenario): dict(self.params),
        }

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _top_level(data) -> RunConfig:
    """``data``'s top level resolved; its scenario block is kept unresolved in ``params``."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    scenario = _choice(*SCENARIOS)(data.get("scenario"), "config.scenario")
    key = _block_key(scenario)
    top = _resolve({**_TOP, key: (_check(lambda v: isinstance(v, dict), "an object"), {})},
                   data, "config")
    try:
        units = UnitSystem(**top["units"])
    except ValueError as exc:
        raise ConfigError(f"config.units: {exc}") from exc
    return RunConfig(scenario=scenario, units=units, out_dir=top["out_dir"],
                     formats=tuple(top["formats"]), svg=top["svg"], params=top[key])


def _resolve_block(cfg: RunConfig, block) -> RunConfig:
    check, _ = _SCENARIOS[cfg.scenario]
    return replace(cfg, params=check(block, _block_key(cfg.scenario)))


def config_from_dict(data) -> RunConfig:
    """Resolve a config document against the tables; raises ConfigError."""
    cfg = _top_level(data)
    return _resolve_block(cfg, cfg.params)


def _write_summary(scenario: str, cfg: RunConfig | None, out_dir, details: dict) -> bool:
    """summary.json in ``out_dir``; ``cfg`` is the resolved config, None if none resolved.

    False, after an error on stderr, when it cannot be written.
    """
    try:
        reports.write_json(Path(out_dir) / "summary.json", {
            "tool": "momflow", "version": __version__, "scenario": scenario, "status": "ok",
            "config_hash": None if cfg is None else cfg.config_hash,
            "resolved_config": None if cfg is None else cfg.to_dict(), "files": [], **details})
    except OSError as exc:
        print(f"error: cannot write summary.json in {out_dir}: {exc}", file=sys.stderr)
        return False
    return True


def _execute(cfg: RunConfig) -> tuple[int, dict]:
    """(exit code, summary details) of ``cfg``'s run, after writing the files
    whose suffix ``formats`` or ``svg`` enables; a failed run writes none.
    The details name the files written, sorted, under ``files``.

    A library type's ValueError is a setting it refuses: a config error.
    """
    enabled = {f".{kind}" for kind in cfg.formats} | ({".svg"} if cfg.svg else set())
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _, runner = _SCENARIOS[cfg.scenario]
        code, details, files = runner(cfg, reports.standard_metadata(config_hash=cfg.config_hash))
        written = sorted(name for name in files if Path(name).suffix in enabled)
        for name in written:
            files[name](out / name)
    except (ConfigError, ValueError) as exc:
        where = "" if isinstance(exc, ConfigError) else f"{_block_key(cfg.scenario)}: "
        return _EXIT_CONFIG, {"status": "config-error", "error": f"{where}{exc}"}
    except (MomflowError, OSError) as exc:
        return _EXIT_CONFIG, {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    if code == _EXIT_INVARIANT:
        details["status"] = "invariant-failed"
    details["files"] = written
    return code, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momflow",
        description="Momentum-field dynamics: scans, trajectories, ensembles, "
                    "two-electron invariants, and the grid eigensolver.")
    parser.add_argument("--version", action="version", version=f"momflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCENARIOS:
        s = sub.add_parser(name, help=f"run the {name} scenario")
        s.add_argument("--config", required=True, help="path to the JSON run config")
        s.add_argument("--seed", type=int, default=None, help="override the ensemble master seed")
        s.add_argument("--dt", type=float, default=None, help="override the time step")
        s.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override the end time")
        s.add_argument("--out", default=None, help="override the output directory")
        s.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict tabular output to one format")
        s.add_argument("--svg", action="store_true", help="also emit SVG plots")

    args = parser.parse_args(argv)
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return _EXIT_CONFIG
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read config {args.config}: {reason}", file=sys.stderr)
        return _EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        cfg = _top_level(data)
        if cfg.scenario != args.command:
            raise ConfigError(f"config.scenario: the config declares {cfg.scenario!r} but the "
                              f"{args.command!r} subcommand was invoked")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the summary goes where the config or --out said the run's outputs go
        out_dir = args.out if args.out is not None else (
            data.get("out_dir") if isinstance(data, dict) else None)
        if isinstance(out_dir, str):
            _write_summary(args.command, None, out_dir,
                           {"status": "config-error", "error": str(exc)})
        return _EXIT_CONFIG

    cfg = replace(cfg, out_dir=args.out if args.out is not None else cfg.out_dir,
                  formats=(args.format,) if args.format is not None else cfg.formats,
                  svg=args.svg or cfg.svg)
    flags = {key: getattr(args, key) for key in ("seed", "dt", "t_end")
             if getattr(args, key) is not None}
    try:
        base = _resolve_block(cfg, cfg.params)
        for key in flags:
            if key not in base.params:
                raise ConfigError(f"--{key.replace('_', '-')}: the {cfg.scenario} config "
                                  f"has no {key!r} setting to override")
        cfg = _resolve_block(cfg, {**cfg.params, **flags})
    except ConfigError as exc:
        code, details = _EXIT_CONFIG, {"status": "config-error", "error": str(exc)}
    else:
        code, details = _execute(cfg)
    # a refused setting records no config, whether the tables or the library refused it
    resolved = None if details.get("status") == "config-error" else cfg
    if not _write_summary(cfg.scenario, resolved, cfg.out_dir, details):
        return _EXIT_CONFIG
    summary_path = Path(cfg.out_dir) / "summary.json"
    print(f"scenario {cfg.scenario}: "
          f"{'ok' if code == _EXIT_OK else 'failed'} (summary: {summary_path})")
    return code


def run() -> None:
    """The ``momflow`` command: ``main``, then the process ends without finalization.

    Finalizing the interpreter costs tens of milliseconds and writes
    nothing a run needs, so once ``main`` returns and stdout and stderr
    are flushed the process ends by ``os._exit``; ``atexit`` handlers do
    not run.  A flush that fails is reported by ``sys.exit`` as before,
    and an exception or ``SystemExit`` from ``main`` leaves as it would.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:   # None when the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
