import numpy as np
import pytest

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
    assert payload["positions"][0][0] == pytest.approx([np.sqrt(2.0), 0.0])


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
    import json
    data = json.loads(path.read_text())
    assert data["z"] == [1.5, -0.5]
    assert data["arr"] == [0, 1, 2]
    assert data["carr"] == [[0.0, 1.0], [2.0, 0.0]]
    assert data["nested"]["f"] == 2.5


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
