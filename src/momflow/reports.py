"""CSV and JSON serialization for simulation records.

CSV files are RFC-4180-style (UTF-8, LF line endings, comma separated)
preceded by a ``#``-prefixed metadata block: tool version, config hash,
seed, and any record-specific settings such as the integration scheme.
A table is written a column at a time: a complex column ``name`` becomes
the columns ``re_name`` and ``im_name``.  In JSON a complex value, alone
or at any depth of an array, becomes an [re, im] pair.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__


def complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _jsonable(value):
    if isinstance(value, (np.ndarray, np.generic, complex)):
        value = np.asarray(value)
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), axis=-1)
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def standard_metadata(seed=None, config_hash=None) -> dict:
    meta = {"tool": "momflow", "version": __version__}
    if config_hash is not None:
        meta["config_hash"] = config_hash
    if seed is not None:
        meta["seed"] = seed
    return meta


def write_csv(path, columns, metadata=None) -> Path:
    """Write ``columns``, a dict of name -> 1-D array, after a metadata block.

    A complex column ``name`` is written as ``re_name`` and ``im_name``.
    Columns of unequal length, or not 1-D, raise ValueError.
    """
    names, cells = [], []
    for name, column in columns.items():
        column = np.asarray(column)
        if column.ndim != 1:
            raise ValueError(f"column {name!r} has shape {column.shape}, not (n,)")
        if np.iscomplexobj(column):
            names += [f"re_{name}", f"im_{name}"]
            cells += [column.real.tolist(), column.imag.tolist()]
        else:
            names.append(name)
            cells.append(column.tolist())
    if len({len(cell) for cell in cells}) > 1:
        raise ValueError(f"columns of unequal length: {dict(zip(names, map(len, cells)))}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in (metadata or {}).items():
            handle.write(f"# {key}: {value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*cells))
    return path


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def read_csv(path):
    """Read back a metadata-block CSV: (metadata, fieldnames, float rows)."""
    meta = {}
    rows = []
    fieldnames = None
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            reader = csv.reader([line] + list(handle))
            fieldnames = next(reader)
            rows = [[float(cell) if cell else np.nan for cell in row] for row in reader]
            break
    return meta, fieldnames, np.asarray(rows)


# -- record-specific writers ---------------------------------------------------


def scan_report_csv(report, path, metadata=None) -> Path:
    return write_csv(path, {"x": report.points,
                            "re(p)": report.momenta.real, "im(p)": report.momenta.imag,
                            "re(E)": report.energies.real, "im(E)": report.energies.imag},
                     metadata)


def scan_report_json(report) -> dict:
    return {
        "region": list(report.region),
        "samples": len(report.points),
        "mean_energy": complex_pair(report.mean_energy),
        "max_deviation": report.max_deviation,
        "worst_point": report.worst_point,
        "tol": report.tol,
        "passed": report.passed,
    }


def trajectory_csv(trajectory, path, metadata=None) -> Path:
    d = trajectory.dimension
    columns = {"t": trajectory.times}
    columns.update((f"x{k}", trajectory.positions[:, k]) for k in range(d))
    columns.update((f"p{k}", trajectory.momenta[:, k]) for k in range(d))
    meta = dict(metadata or {})
    meta.setdefault("scheme", trajectory.scheme)
    if "dt" in trajectory.metadata:
        meta.setdefault("dt", trajectory.metadata["dt"])
    return write_csv(path, columns, meta)


def trajectory_json(trajectory) -> dict:
    return {
        "scheme": trajectory.scheme,
        "metadata": trajectory.metadata,
        "times": trajectory.times,
        "positions": trajectory.positions,
        "momenta": trajectory.momenta,
    }


def invariant_series_csv(series, path, metadata=None) -> Path:
    meta = dict(metadata or {})
    meta.setdefault("label", series.label)
    return write_csv(path, {"t": series.times, "value": series.values}, meta)


def invariant_series_json(series, tol=None) -> dict:
    payload = {
        "label": series.label,
        "times": series.times,
        "values": series.values,
        "mean": complex_pair(series.mean),
        "drift": series.drift,
        "max_abs": series.max_abs,
        "metadata": series.metadata,
    }
    if tol is not None:
        payload["tol"] = tol
        payload["passed"] = series.constant_within(tol)
    return payload


def histogram_csv(hist, path, metadata=None) -> Path:
    columns = {"bin_lo": hist.edges[:-1], "bin_hi": hist.edges[1:], "count": hist.counts}
    if hist.born_reference is not None:
        columns["born_probability"] = hist.born_reference
    meta = dict(metadata or {})
    meta.setdefault("t", hist.time)
    meta.setdefault("off_axis_count", hist.off_axis_count)
    meta.setdefault("terminated_count", hist.terminated_count)
    return write_csv(path, columns, meta)


def ensemble_summary(result) -> dict:
    reasons = {}
    from .ensemble import REASON_LABELS
    for code, label in enumerate(REASON_LABELS):
        count = int(np.count_nonzero(result.termination_reason == code))
        if count:
            reasons[label] = count
    summary = {
        "count": result.spec.count,
        "completion_fraction": result.completion_fraction,
        "outcomes": reasons,
        "steps": result.steps,
        "wall_time_s": result.wall_time,
        "snapshot_times": result.times,
        "metadata": result.metadata,
    }
    if result.energies is not None:
        summary["max_energy_drift"] = result.max_energy_drift()
    return summary


def eigenpairs_csv(grid, pairs, path, metadata=None) -> Path:
    return write_csv(path, {"x": grid.xs, **{f"psi_{p.level}": p.psi for p in pairs}},
                     metadata)


def eigenpairs_json(grid, pairs) -> dict:
    return {
        "x_min": grid.x_min,
        "x_max": grid.x_max,
        "points": grid.points,
        "energies": [p.energy for p in pairs],
    }
