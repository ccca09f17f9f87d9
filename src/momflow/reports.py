"""CSV and JSON serialization for simulation records.

CSV files are RFC-4180-style (UTF-8, LF line endings, comma separated)
preceded by a ``#``-prefixed metadata block: tool version, config hash,
seed, and any record-specific settings such as the integration scheme.
Complex values serialize as separate re/im columns in CSV and as
[re, im] pairs in JSON.
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
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return complex_pair(value)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [complex_pair(z) for z in value.tolist()]
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def standard_metadata(seed=None, config_hash=None, **extra) -> dict:
    meta = {"tool": "momflow", "version": __version__}
    if config_hash is not None:
        meta["config_hash"] = config_hash
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra)
    return meta


def write_csv(path, fieldnames, rows, metadata=None) -> Path:
    """Write rows (sequences matching ``fieldnames``) with a metadata block."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in (metadata or {}).items():
            handle.write(f"# {key}: {value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
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
    rows = [[x, p.real, p.imag, e.real, e.imag]
            for x, p, e in zip(report.points, report.momenta, report.energies)]
    return write_csv(path, ["x", "re(p)", "im(p)", "re(E)", "im(E)"], rows, metadata)


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
    names = ["t"]
    for k in range(d):
        names += [f"re_x{k}", f"im_x{k}"]
    for k in range(d):
        names += [f"re_p{k}", f"im_p{k}"]
    rows = []
    for i, t in enumerate(trajectory.times):
        row = [t]
        for k in range(d):
            z = trajectory.positions[i, k]
            row += [z.real, z.imag]
        for k in range(d):
            z = trajectory.momenta[i, k]
            row += [z.real, z.imag]
        rows.append(row)
    meta = dict(metadata or {})
    meta.setdefault("scheme", trajectory.scheme)
    if "dt" in trajectory.metadata:
        meta.setdefault("dt", trajectory.metadata["dt"])
    return write_csv(path, names, rows, meta)


def trajectory_json(trajectory) -> dict:
    return {
        "scheme": trajectory.scheme,
        "metadata": trajectory.metadata,
        "times": trajectory.times,
        "positions": [[complex_pair(z) for z in row] for row in trajectory.positions],
        "momenta": [[complex_pair(z) for z in row] for row in trajectory.momenta],
    }


def invariant_series_csv(series, path, metadata=None) -> Path:
    values = np.asarray(series.values)
    if np.iscomplexobj(values):
        rows = [[t, v.real, v.imag] for t, v in zip(series.times, values)]
        names = ["t", "re_value", "im_value"]
    else:
        rows = [[t, v] for t, v in zip(series.times, values)]
        names = ["t", "value"]
    meta = dict(metadata or {})
    meta.setdefault("label", series.label)
    return write_csv(path, names, rows, meta)


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
    names = ["bin_lo", "bin_hi", "count"]
    born = hist.born_reference
    rows = []
    for i in range(len(hist.counts)):
        row = [hist.edges[i], hist.edges[i + 1], hist.counts[i]]
        if born is not None:
            row.append(born[i])
        rows.append(row)
    if born is not None:
        names.append("born_probability")
    meta = dict(metadata or {})
    meta.setdefault("t", hist.time)
    meta.setdefault("off_axis_count", hist.off_axis_count)
    meta.setdefault("terminated_count", hist.terminated_count)
    return write_csv(path, names, rows, meta)


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
    names = ["x"] + [f"psi_{p.level}" for p in pairs]
    rows = [[x] + [p.psi[i] for p in pairs] for i, x in enumerate(grid.xs)]
    return write_csv(path, names, rows, metadata)


def eigenpairs_json(grid, pairs) -> dict:
    return {
        "x_min": grid.x_min,
        "x_max": grid.x_max,
        "points": grid.points,
        "energies": [p.energy for p in pairs],
    }
