import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momflow
from momflow.cli import ConfigError, config_from_dict, load_config, main


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# -- config handling ---------------------------------------------------------------


def test_config_round_trip_is_semantically_identical(tmp_path):
    payload = {
        "scenario": "evolve",
        "units": {"hbar": 1.0, "mass": 1.0, "omega": 1.0},
        "out_dir": str(tmp_path),
        "formats": ["csv", "json"],
        "svg": False,
        "evolve": {"field": {"kind": "qho", "level": 1}, "x0": [1.0, 0.0],
                   "dt": 0.001, "t_end": 1.0},
    }
    first = config_from_dict(payload)
    second = config_from_dict(first.to_dict())
    assert first == second
    assert first.config_hash == second.config_hash


def test_unknown_scenario_is_diagnosed():
    with pytest.raises(ConfigError, match="config.scenario"):
        config_from_dict({"scenario": "warp"})


def test_bad_field_type_is_diagnosed(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "evolve", "out_dir": str(out),
                                   "evolve": {"t_end": "soon"}})
    assert main(["evolve", "--config", str(path)]) == 1
    assert "evolve.t_end" in read_summary(out)["error"]


def test_malformed_json_exits_with_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": ')
    code = main(["evolve", "--config", str(path)])
    assert code == 1
    assert "broken.json" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["evolve", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_subcommand_must_match_scenario(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "evolve",
                                   "evolve": {"t_end": 1.0}})
    code = main(["twobody", "--config", str(path)])
    assert code == 1


# -- scenarios ----------------------------------------------------------------------


def test_evolve_rest_point(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "evolve",
        "out_dir": str(out),
        "evolve": {"field": {"kind": "qho", "level": 1},
                   "potential": {"kind": "harmonic"},
                   "x0": [1.0, 0.0], "dt": 0.001, "t_end": 2.0},
    })
    assert main(["evolve", "--config", str(path)]) == 0
    summary = read_summary(out)
    assert summary["status"] == "ok"
    assert summary["max_displacement_from_start"] < 1e-12
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory.json").exists()
    assert "config_hash" in summary


def test_twobody_spinning_reports_invariant(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "twobody",
        "out_dir": str(out),
        "twobody": {"kind": "spinning", "mass": 1.0, "radius": 1.0, "gamma": 2.0,
                    "dt": 0.001, "samples": 1000, "tol": 1e-6},
    })
    assert main(["twobody", "--config", str(path)]) == 0
    summary = read_summary(out)
    assert summary["invariant_value"] == pytest.approx(32.0)
    assert summary["passed"] is True
    assert (out / "force_norm.csv").exists()


def test_field_scan_mismatch_exits_two(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "field-scan",
        "out_dir": str(out),
        "field_scan": {"field": {"kind": "qho", "level": 1},
                       "potential": {"kind": "polynomial",
                                     "coefficients": [0, 0, 0, 0, 0.25]},
                       "region": [0.1, 5.0], "samples": 200, "tol": 1e-9},
    })
    assert main(["field-scan", "--config", str(path)]) == 2
    summary = read_summary(out)
    assert summary["status"] == "invariant-failed"
    assert summary["max_deviation"] > 0.1
    assert "worst_point" in summary


def test_field_scan_match_passes(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "field-scan",
        "out_dir": str(out),
        "field_scan": {"region": [0.1, 5.0], "samples": 200, "tol": 1e-9},
    })
    assert main(["field-scan", "--config", str(path)]) == 0


def test_ensemble_run_with_born_metrics_and_svg(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "ensemble",
        "out_dir": str(out),
        "svg": True,
        "ensemble": {"count": 200, "region": [0.8, 1.2], "seed": 11,
                     "dt": 0.001, "t_end": 1.0, "bins": 16,
                     "histogram_times": [0.0, 1.0],
                     "born_reference": {"kind": "qho", "level": 1}},
    })
    assert main(["ensemble", "--config", str(path)]) == 0
    summary = read_summary(out)
    assert summary["completion_fraction"] == 1.0
    assert summary["seed"] == 11
    for entry in summary["histograms"]:
        assert 0.0 <= entry["born_l1_distance"] <= 2.0
        assert 0.0 <= entry["born_js_divergence"] <= np.log(2.0)
    assert (out / "histogram_t0.csv").exists()
    assert (out / "histogram_t0.svg").exists()


def test_ensemble_seed_override_changes_run(tmp_path):
    base = {
        "scenario": "ensemble",
        "ensemble": {"count": 50, "region": [0.8, 1.2], "seed": 1,
                     "dt": 0.001, "t_end": 0.2, "bins": 8},
    }
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path = write_config(tmp_path, base)
    assert main(["ensemble", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["ensemble", "--config", str(path), "--out", str(out_b),
                 "--seed", "2"]) == 0
    assert read_summary(out_a)["seed"] == 1
    assert read_summary(out_b)["seed"] == 2


def test_dt_override_reaches_integrator(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "evolve",
        "out_dir": str(out),
        "evolve": {"x0": [1.0, 0.0], "dt": 0.01, "t_end": 1.0},
    })
    assert main(["evolve", "--config", str(path), "--dt", "0.005"]) == 0
    assert read_summary(out)["dt"] == 0.005
    assert read_summary(out)["steps"] == 200


def test_ensemble_member_dump(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "ensemble",
        "out_dir": str(out),
        "ensemble": {"count": 20, "region": [0.8, 1.2], "seed": 4,
                     "dt": 0.01, "t_end": 0.1, "dump_trajectories": True},
    })
    assert main(["ensemble", "--config", str(path)]) == 0
    assert (out / "members.csv").exists()


def test_twobody_svg_drift_plot(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "twobody",
        "out_dir": str(out),
        "svg": True,
        "twobody": {"kind": "spinning", "gamma": 2.0, "samples": 200, "tol": 1e-6},
    })
    assert main(["twobody", "--config", str(path)]) == 0
    assert (out / "invariant_drift.svg").exists()


def test_twobody_rotation_scenario(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "twobody",
        "out_dir": str(out),
        "twobody": {"kind": "rotation", "rate": 1.3, "t_end": 2.0,
                    "samples": 100, "tol": 1e-12},
    })
    assert main(["twobody", "--config", str(path)]) == 0
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["max_norm"] < 1e-12


def test_reconstruct_scenario(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "reconstruct",
        "out_dir": str(out),
        "reconstruct": {"path": {"start": 0.5, "stop": 4.0, "nodes": 12}},
    })
    assert main(["reconstruct", "--config", str(path)]) == 0
    assert (out / "wavefunction.csv").exists()
    summary = read_summary(out)
    assert summary["first_value"] == pytest.approx([1.0, 0.0])


def test_oracle_scenario_with_field_check(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "oracle",
        "out_dir": str(out),
        "oracle": {"potential": {"kind": "polynomial",
                                 "coefficients": [0, 0, 0.5, 0, 0.1]},
                   "points": 2000, "states": 2,
                   "field_check": True, "check_tol": 1e-4},
    })
    assert main(["oracle", "--config", str(path)]) == 0
    summary = read_summary(out)
    assert len(summary["energies"]) == 2
    assert summary["field_check"]["passed"] is True
    assert (out / "eigenstates.csv").exists()


def test_invalid_nested_config_still_writes_summary(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "evolve",
        "out_dir": str(out),
        "evolve": {"field": {"kind": "hydrogen"}, "t_end": 1.0},
    })
    assert main(["evolve", "--config", str(path)]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error"
    assert "hydrogen" in summary["error"]


@pytest.mark.parametrize("setting", [{"t_end": -1}, {"scheme": "euler"},
                                     {"max_displacement_tol": "abc"}])
def test_bad_integrator_settings_are_config_errors(tmp_path, setting):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "evolve",
        "out_dir": str(out),
        "evolve": {"x0": [1.0, 0.0], "dt": 0.01, "t_end": 1.0, **setting},
    })
    assert main(["evolve", "--config", str(path)]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error"
    assert next(iter(setting)) in summary["error"]


def test_run_error_paths_still_write_summary(tmp_path):
    # trajectory dives into the node: run fails but summary must exist
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "ensemble",
        "out_dir": str(out),
        "ensemble": {"count": 10, "region": [-0.5, 0.5], "seed": 3,
                     "dt": 0.001, "t_end": 0.5},
    })
    code = main(["ensemble", "--config", str(path)])
    assert code == 1
    summary = read_summary(out)
    assert summary["status"] == "error"
    assert "RegionOverlapsSingularity" in summary["error"]


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize alone costs ~0.6 s of start-up; only the scenarios
    # that need a solver import one.
    src = str(Path(momflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, momflow.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
