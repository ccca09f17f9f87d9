import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momflow import (
    Grid1D,
    IntegratorConfig,
    SpinningPairParams,
    energy_constancy_scan,
    evolve,
    force_norm_invariant,
    harmonic_potential,
    qho_field,
    solve_schrodinger_1d,
    spinning_pair_history,
)
from momflow import reports, svgplot
from momflow.errors import EmptySeries


@pytest.fixture(scope="module")
def scan():
    return energy_constancy_scan(qho_field(1), harmonic_potential(), (0.1, 5.0),
                                 samples=64, tol=1e-9)


def test_csv_round_trip_with_metadata(tmp_path, scan):
    path = reports.scan_report_csv(scan, tmp_path / "scan.csv",
                                   reports.standard_metadata(seed=7, config_hash="abc"))
    meta, names, rows = reports.read_csv(path)
    assert meta["tool"] == "momflow"
    assert meta["seed"] == "7"
    assert names == ["x", "re(p)", "im(p)", "re(E)", "im(E)"]
    assert rows.shape == (64, 5)
    assert np.allclose(rows[:, 3], 1.5)


def test_csv_is_lf_terminated_utf8(tmp_path, scan):
    path = reports.scan_report_csv(scan, tmp_path / "scan.csv", {"note": "x"})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("# note: x\n")


def test_scan_report_json(scan):
    payload = reports.scan_report_json(scan)
    assert payload["passed"] is True
    assert payload["mean_energy"] == pytest.approx([1.5, 0.0])


def test_trajectory_serialization(tmp_path):
    traj = evolve(qho_field(1), harmonic_potential(), np.sqrt(2.0),
                  IntegratorConfig(t_end=0.2, dt=1e-3))
    path = reports.trajectory_csv(traj, tmp_path / "traj.csv")
    meta, names, rows = reports.read_csv(path)
    assert meta["scheme"] == "rk4"
    assert float(meta["dt"]) == 1e-3
    assert names == ["t", "re_x0", "im_x0", "re_p0", "im_p0"]
    assert rows.shape[0] == len(traj)

    payload = reports.trajectory_json(traj)
    assert payload["scheme"] == "rk4"
    written = json.loads(reports.write_json(tmp_path / "traj.json", payload).read_text())
    assert written["positions"][0][0] == pytest.approx([np.sqrt(2.0), 0.0])


def test_invariant_series_serialization(tmp_path):
    history = spinning_pair_history(SpinningPairParams(radius=1.0, gamma=2.0),
                                    dt=1e-3, samples=100)
    series = force_norm_invariant(history)
    payload = reports.invariant_series_json(series, tol=1e-6)
    assert payload["passed"] is True
    assert payload["mean"] == pytest.approx([32.0, 0.0])
    path = reports.invariant_series_csv(series, tmp_path / "series.csv")
    _meta, names, rows = reports.read_csv(path)
    assert names == ["t", "value"]
    assert rows.shape == (100, 2)


def test_eigenpair_serialization(tmp_path):
    grid = Grid1D(-6.0, 6.0, 128)
    pairs = solve_schrodinger_1d(harmonic_potential(), grid, 2)
    payload = reports.eigenpairs_json(grid, pairs)
    assert len(payload["energies"]) == 2
    path = reports.eigenpairs_csv(grid, pairs, tmp_path / "eig.csv")
    _meta, names, rows = reports.read_csv(path)
    assert names == ["x", "psi_0", "psi_1"]
    assert rows.shape == (128, 3)


def test_json_writer_handles_complex_and_arrays(tmp_path):
    path = reports.write_json(tmp_path / "out.json", {
        "z": 1.5 - 0.5j,
        "arr": np.arange(3),
        "carr": np.array([1j, 2.0 + 0j]),
        "nested": {"f": np.float64(2.5)},
    })
    data = json.loads(path.read_text())
    assert data["z"] == [1.5, -0.5]
    assert data["arr"] == [0, 1, 2]
    assert data["carr"] == [[0.0, 1.0], [2.0, 0.0]]
    assert data["nested"]["f"] == 2.5


# -- writers against a row-at-a-time reference ------------------------------------

# NaN, +-inf, -0.0 and subnormals besides any double
_floats = st.floats(width=64) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                                                 -2.2250738585072014e-308])
_KINDS = {"float": (np.float64, _floats), "int": (np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
          "bool": (np.bool_, st.booleans()),
          "complex": (np.complex128, st.builds(complex, _floats, _floats))}


@st.composite
def _columns(draw):
    """(name -> 1-D array of one of _KINDS, row count); the names are distinct."""
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), max_size=5))
    n = draw(st.integers(0, 6)) if kinds else 0  # no columns, no rows
    columns = {}
    for i, kind in enumerate(kinds):
        dtype, items = _KINDS[kind]
        columns[f"c{i}"] = np.array(draw(st.lists(items, min_size=n, max_size=n)), dtype)
    return columns, n


def _python(z):
    """[re, im] of a complex scalar, else the Python scalar, built by hand."""
    if isinstance(z, (complex, np.complexfloating)):
        return [float(z.real), float(z.imag)]
    if isinstance(z, np.bool_):
        return bool(z)
    return int(z) if isinstance(z, np.integer) else float(z)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_columns())
def test_write_csv_equals_a_row_at_a_time_csv_writer(tmp_path_factory, table):
    columns, n = table
    meta = {"tool": "momflow", "seed": 3}
    names = []
    for name, column in columns.items():
        names += [f"re_{name}", f"im_{name}"] if column.dtype.kind == "c" else [name]
    expected = io.StringIO(newline="")
    expected.write("# tool: momflow\n# seed: 3\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(names)
    for i in range(n):
        row = []
        for column in columns.values():
            cell = _python(column[i])
            row += cell if isinstance(cell, list) else [cell]
        writer.writerow(row)
    path = reports.write_csv(tmp_path_factory.mktemp("csv") / "t.csv", columns, meta)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


# single-precision values; 2**-149 is the smallest float32 subnormal
_floats32 = st.floats(width=32) | st.sampled_from([np.nan, -np.inf, -0.0, 2.0 ** -149])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_columns(), st.integers(0, 4), st.integers(1, 3), st.builds(complex, _floats, _floats),
       st.builds(complex, _floats32, _floats32), st.data())
def test_write_json_equals_json_dumps_of_hand_built_pairs(tmp_path_factory, table, n, d, z,
                                                          z32, data):
    columns, _ = table
    block = np.array(data.draw(st.lists(st.lists(_KINDS["complex"][1], min_size=d, max_size=d),
                                        min_size=n, max_size=n)), complex).reshape(n, d)
    payload = {"columns": columns, "block": block, "z": z, "z64": np.complex64(z32),
               "f": np.float64(z.real), "nested": [{"z": z}, (np.int64(n), np.bool_(d > 1))]}
    expected = {
        "columns": {name: [_python(v) for v in column] for name, column in columns.items()},
        "block": [[_python(v) for v in row] for row in block],
        "z": [z.real, z.imag],
        "z64": [z32.real, z32.imag],
        "f": z.real, "nested": [{"z": [z.real, z.imag]}, [n, d > 1]],
    }
    text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    path = reports.write_json(tmp_path_factory.mktemp("json") / "t.json", payload)
    assert path.read_bytes() == text.encode("utf-8")


def test_write_csv_refuses_ragged_or_non_vector_columns(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        reports.write_csv(tmp_path / "a.csv", {"a": np.zeros(3), "b": np.zeros(2, complex)})
    with pytest.raises(ValueError, match="not \\(n,\\)"):
        reports.write_csv(tmp_path / "b.csv", {"a": np.zeros((3, 2))})
    assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()


# -- svg ---------------------------------------------------------------------------


def test_line_plot_is_byte_deterministic(tmp_path):
    x = np.linspace(0.0, 1.0, 50)
    y = np.sin(2 * np.pi * x)
    a = svgplot.line_plot(tmp_path / "a.svg", x, [y], labels=["sin"],
                          title="wave", xlabel="t", ylabel="y")
    b = svgplot.line_plot(tmp_path / "b.svg", x, [y], labels=["sin"],
                          title="wave", xlabel="t", ylabel="y")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text


def test_log_axis_plot(tmp_path):
    x = np.linspace(0.0, 1.0, 20)
    y = np.exp(-10 * x)
    path = svgplot.line_plot(tmp_path / "log.svg", x, [y], log_y=True)
    assert "<polyline" in path.read_text()


def test_histogram_plot_with_overlay(tmp_path):
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.arange(10)
    mids = 0.5 * (edges[:-1] + edges[1:])
    path = svgplot.histogram_plot(tmp_path / "h.svg", edges, counts,
                                  overlay=(mids, counts * 0.9))
    text = path.read_text()
    assert text.count("<rect") >= 10
    assert "<polyline" in text


def test_empty_series_is_rejected(tmp_path):
    with pytest.raises(EmptySeries):
        svgplot.line_plot(tmp_path / "x.svg", np.array([]), [np.array([])])
    with pytest.raises(EmptySeries):
        svgplot.line_plot(tmp_path / "x.svg", np.array([0.0, 1.0]),
                          [np.array([-1.0, -2.0])], log_y=True)
    with pytest.raises(EmptySeries):
        svgplot.histogram_plot(tmp_path / "x.svg", np.array([0.0]), np.array([]))
