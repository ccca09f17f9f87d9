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


# dtypes whose .tolist() gives Python bools, ints or floats; longdouble is not one
_NUMERIC = "?" + np.typecodes["AllInteger"] + "efdFD"
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _array_text(array, depth) -> str:
    """``json.dumps(_jsonable(array), indent=2)`` at ``depth``, for a non-empty numeric array.

    The values are formatted all at once and interleaved with separators
    built once per shape.
    """
    if array.dtype.kind == "c":
        array = np.stack((array.real, array.imag), axis=-1)
    values = array.ravel().tolist()
    if array.dtype.kind == "b":
        cells = ["true" if v else "false" for v in values]
    elif array.dtype.kind == "f":
        cells = list(map(float.__repr__, values))
        if not np.isfinite(array).all():
            cells = [_NONFINITE.get(cell, cell) for cell in cells]
    else:
        cells = list(map(int.__repr__, values))
    rank = array.ndim
    pad = ["\n" + "  " * (depth + level) for level in range(rank + 1)]
    # leaving the innermost ``closed`` levels between two values: close them, open them again
    seps = []
    for closed, size in enumerate(reversed(array.shape)):
        between = ("".join(pad[rank - k] + "]" for k in range(1, closed + 1)) + ","
                   + "".join(pad[rank - k] + "[" for k in range(closed, 0, -1)) + pad[rank])
        seps = ((seps + [between]) * size)[:-1]
    text = [None] * (2 * len(cells) - 1)
    text[::2] = cells
    text[1::2] = seps
    return ("".join("[" + pad[level] for level in range(1, rank + 1)) + "".join(text)
            + "".join(pad[level] + "]" for level in range(rank - 1, -1, -1)))


def _json_text(value, depth=0) -> str:
    """``json.dumps(_jsonable(value), indent=2, sort_keys=True)`` indented to ``depth``."""
    if (isinstance(value, np.ndarray) and value.ndim and value.size
            and value.dtype.char in _NUMERIC):
        return _array_text(value, depth)
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        pad = "\n" + "  " * (depth + 1)
        return ("{" + ",".join(f"{pad}{json.dumps(key)}: {_json_text(value[key], depth + 1)}"
                               for key in sorted(value)) + "\n" + "  " * depth + "}")
    # JSON escapes a newline inside a string, so each newline here starts a line
    text = json.dumps(_jsonable(value), indent=2, sort_keys=True)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def write_json(path, payload) -> Path:
    """``payload`` as ``json.dumps(_jsonable(payload), indent=2, sort_keys=True)`` writes it.

    Numeric arrays are formatted a whole array at a time.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")
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
        "snapshot_times": result.times,
        "metadata": {k: getattr(result.spec.integrator, k) for k in ("scheme", "dt", "t_end")},
    }
    if result.energy_drift is not None:
        summary["energy_drift"] = result.energy_drift
        summary["max_energy_drift"] = result.max_energy_drift()
    # the one entry that differs between two runs of one config
    summary["timing"] = {"wall_time_s": result.wall_time}
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
