import csv
import io
import json
import re
import sys

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
    polynomial_potential,
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


_ARRAY_KINDS = {**_KINDS, "float32": (np.float32, _floats32),
                "complex64": (np.complex64, st.builds(complex, _floats32, _floats32))}
# keys with quotes, backslashes, control characters, non-ASCII and a lone surrogate
_keys = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n", "\x00\t", "é", "\u2028",
                                                "\ud800"])


def _nested(array):
    """Nested lists of ``array``, one element at a time, with [re, im] pairs for complex."""
    return [_nested(row) for row in array] if array.ndim else _python(array[()])


@st.composite
def _arrays(draw):
    """(array of 0-3 axes, each of length 0-3, of one of _ARRAY_KINDS; its nested lists)."""
    dtype, items = _ARRAY_KINDS[draw(st.sampled_from(sorted(_ARRAY_KINDS)))]
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    size = int(np.prod(shape))
    array = np.array(draw(st.lists(items, min_size=size, max_size=size)), dtype).reshape(shape)
    return array, _nested(array)


@st.composite
def _wrapped(draw):
    """(an array inside 1-3 levels of lists and dicts; the same with its nested lists)."""
    value, expected = draw(_arrays())
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            key = draw(_keys)
            value, expected = {key: value}, {key: expected}
        else:
            value, expected = [value], [expected]
    return value, expected


def _layout(value, indent=""):
    """JSON text of plain-Python ``value``: a non-empty object whose keys are all
    strings takes a line per key, sorted and indented two spaces per level, and
    every other value one line."""
    if not (isinstance(value, dict) and value and all(isinstance(k, str) for k in value)):
        return json.dumps(value, sort_keys=True)
    inner = indent + "  "
    lines = [f"{inner}{json.dumps(k)}: {_layout(value[k], inner)}" for k in sorted(value)]
    return "{\n" + ",\n".join(lines) + "\n" + indent + "}"


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_columns(), st.integers(0, 4), st.integers(1, 3), st.builds(complex, _floats, _floats),
       st.builds(complex, _floats32, _floats32), st.dictionaries(_keys, _arrays(), max_size=4),
       st.lists(_wrapped(), max_size=3), st.data())
def test_write_json_equals_json_dumps_of_hand_built_pairs(tmp_path_factory, table, n, d, z,
                                                          z32, arrays, wrapped, data):
    columns, _ = table
    block = np.array(data.draw(st.lists(st.lists(_KINDS["complex"][1], min_size=d, max_size=d),
                                        min_size=n, max_size=n)), complex).reshape(n, d)
    payload = {"columns": columns, "block": block, "z": z, "z64": np.complex64(z32),
               "f": np.float64(z.real), "nested": [{"z": z}, (np.int64(n), np.bool_(d > 1))],
               "arrays": {key: array for key, (array, _) in arrays.items()},
               "wrapped": {str(i): value for i, (value, _) in enumerate(wrapped)}}
    expected = {
        "columns": {name: [_python(v) for v in column] for name, column in columns.items()},
        "block": [[_python(v) for v in row] for row in block],
        "z": [z.real, z.imag],
        "z64": [z32.real, z32.imag],
        "f": z.real, "nested": [{"z": [z.real, z.imag]}, [n, d > 1]],
        "arrays": {key: lists for key, (_, lists) in arrays.items()},
        "wrapped": {str(i): lists for i, (_, lists) in enumerate(wrapped)},
    }
    directory = tmp_path_factory.mktemp("json")
    path = reports.write_json(directory / "t.json", payload)
    assert path.read_bytes() == (_layout(expected) + "\n").encode("utf-8")
    # a list at the top level takes one line, objects inside it included
    path = reports.write_json(directory / "list.json", [payload])
    assert path.read_bytes() == (json.dumps([expected], sort_keys=True) + "\n").encode("utf-8")


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


@pytest.mark.parametrize("log_y", [False, True])
def test_line_plot_drops_non_finite_samples(tmp_path, log_y):
    # the dropped samples lie inside the x range, so the frame is the same
    x = np.linspace(0.0, 1.0, 9)
    y = np.exp(x)
    x_in, y_in = x.copy(), y.copy()
    y_in[[1, 2, 3]] = np.nan, np.inf, -np.inf
    x_in[[4, 5]] = np.nan, np.inf
    if log_y:
        y_in[6] = -1.0
    keep = np.isfinite(x_in) & np.isfinite(y_in) & (y_in > 0)
    assert keep.sum() == (3 if log_y else 4)
    plotted = svgplot.line_plot(tmp_path / "a.svg", x_in, [y_in], log_y=log_y)
    finite = svgplot.line_plot(tmp_path / "b.svg", x[keep], [y[keep]], log_y=log_y)
    assert plotted.read_bytes() == finite.read_bytes()
    with pytest.raises(EmptySeries):
        svgplot.line_plot(tmp_path / "c.svg", x[:3], [np.array([np.nan, np.inf, -np.inf])],
                          log_y=log_y)
    assert not (tmp_path / "c.svg").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the scan's mean energy overflows
@pytest.mark.parametrize("slope", [1.7e308, sys.float_info.max])
def test_a_series_wider_than_the_float_range_plots_finite_coordinates(tmp_path, slope):
    # Re E = slope x - x**2/2 + 1/2 at level 0 runs from about -slope to
    # slope, so the range max - min overflows to inf while every sample is
    # finite; at the largest float the last tick's bound overflows too
    report = energy_constancy_scan(qho_field(0), polynomial_potential([0, slope]),
                                   (-1.0, 1.0), samples=50)
    assert np.isfinite(report.energies).all()
    path = svgplot.line_plot(tmp_path / "scan.svg", report.points,
                             [report.energies.real, report.energies.imag])
    svg = path.read_text()
    assert not re.search(r"\b(nan|inf)\b", svg)
    points = [float(v) for line in re.findall(r'points="([^"]*)"', svg)
              for v in re.split(r"[ ,]", line)]
    assert len(points) == 4 * 50
    # the first Re E sample, the least, sits on the frame's bottom edge
    assert points[:2] == [64.0, 392.0]
    for tick in ("-1e+308", "0", "1e+308"):
        assert f">{tick}</text>" in svg


def _plotted_points(svg):
    assert not re.search(r"\b(nan|inf)\b", svg)
    return [float(v) for line in re.findall(r'points="([^"]*)"', svg)
            for v in re.split(r"[ ,]", line)]


@pytest.mark.parametrize("x, y", [
    (np.linspace(0.0, 1.0, 5), 1e17),  # y - 0.5 and y + 0.5 round to y
    (np.full(5, 3e16), 1e17),  # and x the same, from a single x value
])
def test_a_huge_constant_series_plots_mid_frame(tmp_path, x, y):
    svg = svgplot.line_plot(tmp_path / "a.svg", x, [np.full(5, y)]).read_text()
    points = _plotted_points(svg)
    assert points[1::2] == [214.0] * 5  # halfway between the frame's rows 392 and 36
    if np.ptp(x) == 0:
        assert points[::2] == [344.0] * 5  # halfway between its columns 64 and 624


def test_a_constant_series_near_the_float_limit_plots_on_a_log_axis(tmp_path):
    # a decade above 1e308 overflows
    svg = svgplot.line_plot(tmp_path / "a.svg", range(5), [np.full(5, 1e308)],
                            log_y=True).read_text()
    points = _plotted_points(svg)
    assert len(points) == 10 and all(36.0 <= y <= 392.0 for y in points[1::2])
    assert ">1e+308</text>" in svg


@pytest.mark.parametrize("v", [0.0, 2.5, -7e3, 1e15, 2.0 ** 51 - 0.25, 3e15, -1e17,
                               1e300, sys.float_info.max, -sys.float_info.max])
def test_an_empty_range_widens_so_that_its_ticks_step(v):
    lo, hi = svgplot._span(v, v)
    assert -sys.float_info.max <= lo < hi <= sys.float_info.max and lo <= v <= hi
    if abs(v) < 2.0 ** 50:  # v -/+ 0.5 as before, where that is exact
        assert (lo, hi) == (v - 0.5, v + 0.5)
    ticks = svgplot._nice_ticks(lo, hi)  # a tick step below v's rounding never ends
    assert len(ticks) >= 2 and all(a < b for a, b in zip(ticks, ticks[1:]))


def test_histogram_plot_with_overlay(tmp_path):
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.arange(10)
    mids = 0.5 * (edges[:-1] + edges[1:])
    path = svgplot.histogram_plot(tmp_path / "h.svg", edges, counts,
                                  overlay=(mids, counts * 0.9))
    text = path.read_text()
    assert text.count("<rect") >= 10
    assert "<polyline" in text


def _per_point_polyline(frame, xs, ys, color):
    """The polyline formatted one point at a time through the frame's scalar mapping."""
    points = " ".join(f"{svgplot._fmt(frame.px(a))},{svgplot._fmt(frame.py(b))}"
                      for a, b in zip(xs, ys))
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'


_rng = np.random.default_rng(11)
_x = np.sort(_rng.uniform(-3.0, 7.0, 500))
_noise, _scatter = _rng.standard_normal(500), _rng.uniform(0.5, 2.0, 500)
_counts = _rng.integers(0, 90, 40)
_mids = np.linspace(-2.9, 6.9, 40)
PLOTS = {
    "linear": lambda path: svgplot.line_plot(path, _x, [np.sin(3 * _x) * 1e3, _noise - 5],
                                             labels=["a", "b"]),
    "constant": lambda path: svgplot.line_plot(path, _x, [np.full(500, 2.5)]),
    "log": lambda path: svgplot.line_plot(path, _x, [np.exp(-_x) * _scatter,
                                                     np.where(_x > 0, _x, -1.0)], log_y=True),
    "log-constant": lambda path: svgplot.line_plot(path, _x, [np.full(500, 1e-18)], log_y=True),
    "histogram": lambda path: svgplot.histogram_plot(
        path, np.linspace(-3.0, 7.0, 41), _counts,
        overlay=(_mids, 100 * np.exp(-0.1 * _mids ** 2))),
}


@pytest.mark.parametrize("plot", PLOTS)
def test_polylines_equal_a_point_at_a_time_formatter(tmp_path, monkeypatch, plot):
    written = PLOTS[plot](tmp_path / "a.svg").read_bytes()
    assert b"<polyline" in written
    monkeypatch.setattr(svgplot, "_polyline", _per_point_polyline)
    assert written == PLOTS[plot](tmp_path / "b.svg").read_bytes()


def test_empty_series_is_rejected(tmp_path):
    with pytest.raises(EmptySeries):
        svgplot.line_plot(tmp_path / "x.svg", np.array([]), [np.array([])])
    with pytest.raises(EmptySeries):
        svgplot.line_plot(tmp_path / "x.svg", np.array([0.0, 1.0]),
                          [np.array([-1.0, -2.0])], log_y=True)
    with pytest.raises(EmptySeries):
        svgplot.histogram_plot(tmp_path / "x.svg", np.array([0.0]), np.array([]))
