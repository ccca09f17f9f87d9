import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momflow
from momflow import reports
from momflow.cli import ConfigError, config_from_dict, main


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


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b'{"scenario": "evolve", "out_dir": "\xff"}'),
     "can't decode byte 0xff"),
])
def test_an_unreadable_config_is_an_error_line(tmp_path, capsys, make, reason):
    # a directory, or a file that is not UTF-8: one error line, exit 1, no summary
    path = tmp_path / "run.json"
    make(path)
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read config {path}: ") and reason in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_subcommand_must_match_scenario(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "evolve",
                                   "evolve": {"t_end": 1.0}})
    code = main(["twobody", "--config", str(path)])
    assert code == 1


def test_a_mismatched_subcommand_writes_its_summary(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "evolve", "evolve": {"t_end": 1.0}})
    out = tmp_path / "run"
    assert main(["ensemble", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: config.scenario: ")
    summary = read_summary(out)
    assert summary["status"] == "config-error" and "config.scenario" in summary["error"]
    assert summary["resolved_config"] is None and summary["config_hash"] is None
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


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


@pytest.mark.parametrize("closed_form", [True, False])
def test_twobody_records_whether_its_derivatives_are_closed_form(tmp_path, closed_form):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "twobody",
        "out_dir": str(out),
        "twobody": {"kind": "spinning", "samples": 200, "closed_form_derivatives": closed_form},
    })
    assert main(["twobody", "--config", str(path)]) == 0
    invariants = json.loads((out / "invariants.json").read_text())
    assert invariants["force_norm"]["metadata"]["closed_form"] is closed_form


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


def test_two_ensemble_runs_differ_only_in_timing(tmp_path):
    # members from near sqrt(2) retire near the node, so the drift skips some
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "ensemble", "out_dir": str(out),
        "ensemble": {"count": 200, "region": [1.40, 1.43], "seed": 7, "dt": 0.001,
                     "t_end": 2.0, "bins": 8, "histogram_times": [0.0, 2.0]}})
    texts = []
    for _ in range(2):
        assert main(["ensemble", "--config", str(path)]) == 0
        summary = read_summary(out)
        assert summary["completion_fraction"] < 1.0
        assert summary["timing"]["wall_time_s"] > 0.0
        drift = summary["energy_drift"]
        assert len(drift) == len(summary["snapshot_times"]) == 201
        assert max(drift) == summary["max_energy_drift"] < 1e-8
        del summary["timing"]
        texts.append(json.dumps(summary, indent=2, sort_keys=True))
    assert texts[0] == texts[1]


def test_seed_flag_is_refused_where_nothing_is_drawn(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "evolve",
        "out_dir": str(out),
        "evolve": {"x0": [1.0, 0.0], "dt": 0.01, "t_end": 0.1},
    })
    assert main(["evolve", "--config", str(path)]) == 0
    assert read_summary(out)["config_hash"] is not None
    assert main(["evolve", "--config", str(path), "--seed", "5"]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error"
    assert "--seed" in summary["error"]
    # the run was refused, so no config was run and none is recorded
    assert summary["resolved_config"] is None and summary["config_hash"] is None


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
    block = read_summary(out)["resolved_config"]["ensemble"]
    spec = momflow.EnsembleSpec(
        count=block["count"], region=tuple(block["region"]),
        distribution=momflow.Distribution(**block["distribution"]),
        seed=momflow.SeedSpec(block["seed"]),
        integrator=momflow.IntegratorConfig(block["t_end"], block["scheme"], block["dt"]))
    result = momflow.evolve_ensemble(momflow.qho_field(1), momflow.harmonic_potential(), spec)
    meta, names, rows = reports.read_csv(out / "members.csv")
    assert meta["seed"] == "4"
    assert names == ["member", "t", "re_x", "im_x"]
    # snapshot-major, then member
    snapshots = len(result.times)
    assert rows.shape == (snapshots * 20, 4)
    assert np.array_equal(rows[:, 0], np.tile(np.arange(20), snapshots))
    assert np.array_equal(rows[:, 1], np.repeat(result.times, 20))
    x = result.positions[:, :, 0].ravel()
    assert np.array_equal(rows[:, 2], x.real) and np.array_equal(rows[:, 3], x.imag)


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
    samples = momflow.reconstruct_wavefunction(momflow.qho_field(1),
                                               np.linspace(0.5, 4.0, 12), 1.0)
    _meta, names, rows = reports.read_csv(out / "wavefunction.csv")
    assert names == ["x", "re_psi", "im_psi", "re_phase", "im_phase"]
    expected = np.stack([samples.path.real, samples.values.real, samples.values.imag,
                         samples.phase_integrals.real, samples.phase_integrals.imag], axis=1)
    assert np.array_equal(rows, expected)
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


# -- output policy --------------------------------------------------------------------

# Small configs for each row of the README Outputs table, with the files each
# writes under the csv and json formats and with svg.
OUTPUT_CASES = {
    "field-scan": ("field-scan", {"field_scan": {"samples": 50}},
                   {"csv": {"field_scan.csv"}, "svg": {"field_scan.svg"}}),
    "evolve": ("evolve", {"evolve": {"dt": 0.01, "t_end": 0.1}},
               {"csv": {"trajectory.csv"}, "json": {"trajectory.json"},
                "svg": {"trajectory.svg"}}),
    "ensemble": ("ensemble", {"ensemble": {"count": 10, "region": [0.8, 1.2], "dt": 0.01,
                                           "t_end": 0.1, "histogram_times": [0.0, 0.1],
                                           "dump_trajectories": True}},
                 {"csv": {"histogram_t0.csv", "histogram_t0.1.csv", "members.csv"},
                  "svg": {"histogram_t0.svg", "histogram_t0.1.svg"}}),
    "reconstruct": ("reconstruct", {"reconstruct": {"path": {"nodes": 12}}},
                    {"csv": {"wavefunction.csv"}, "svg": {"wavefunction.svg"}}),
    "twobody-spinning": ("twobody", {"twobody": {"kind": "spinning", "samples": 50}},
                         {"csv": {"force_norm.csv", "momentum_drift.csv"},
                          "json": {"invariants.json"}, "svg": {"invariant_drift.svg"}}),
    "twobody-rotation": ("twobody", {"twobody": {"kind": "rotation", "samples": 20}},
                         {"csv": {"matrix_delta_e.csv"}}),
    "oracle": ("oracle", {"oracle": {"points": 200, "states": 2}},
               {"csv": {"eigenstates.csv"}, "svg": {"eigenstates.svg"}}),
}


@pytest.mark.parametrize("case", OUTPUT_CASES)
def test_formats_and_svg_decide_every_file_a_run_writes(tmp_path, case):
    scenario, block, files = OUTPUT_CASES[case]
    for formats in (["csv"], ["json"], []):
        for svg in (False, True):
            out = tmp_path / f"{'-'.join(formats)}-{svg}"
            path = write_config(tmp_path, {"scenario": scenario, "out_dir": str(out),
                                           "formats": formats, "svg": svg, **block})
            assert main([scenario, "--config", str(path)]) == 0
            expected = {"summary.json"}.union(
                *(files.get(kind, set()) for kind in formats + ["svg"] * svg))
            assert {p.name for p in out.iterdir()} == expected, (formats, svg)
            assert read_summary(out)["files"] == sorted(expected - {"summary.json"})


def test_summary_names_only_the_files_of_its_own_run(tmp_path):
    # A second run into the same out_dir leaves the first run's CSV behind;
    # the second summary tells the two apart.
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "evolve", "out_dir": str(out),
                                   "evolve": {"dt": 0.01, "t_end": 0.1}})
    assert main(["evolve", "--config", str(path)]) == 0
    assert read_summary(out)["files"] == ["trajectory.csv", "trajectory.json"]
    assert main(["evolve", "--config", str(path), "--format", "json"]) == 0
    assert {p.name for p in out.iterdir()} == {"summary.json", "trajectory.csv",
                                               "trajectory.json"}
    assert read_summary(out)["files"] == ["trajectory.json"]


def test_a_failed_run_writes_only_its_summary(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "ensemble",
        "out_dir": str(out),
        "ensemble": {"count": 10, "region": [0.8, 1.2], "dt": 0.01, "t_end": 0.1,
                     "histogram_times": [0.05, 9.0]},
    })
    assert main(["ensemble", "--config", str(path)]) == 1
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert "TimeOutOfRange" in read_summary(out)["error"]
    assert read_summary(out)["files"] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [
    {"field": {"level": 2}, "region": [0.1, 1e200], "samples": 50},  # NaN energies
    {"potential": {"kind": "polynomial", "coefficients": [0, 0, 1e308]},
     "samples": 50},  # infinite energies
    {"field": {"level": 0}, "region": [-1, 1],
     "potential": {"kind": "polynomial", "coefficients": [0, 1.7e308]},
     "samples": 50},  # finite energies whose range, max - min, overflows
])
def test_a_scan_with_non_finite_energies_plots_the_finite_ones(tmp_path, block):
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "field-scan", "out_dir": str(out), "svg": True,
                                   "field_scan": block})
    assert main(["field-scan", "--config", str(path)]) == 2
    summary = read_summary(out)
    assert summary["status"] == "invariant-failed"
    assert summary["resolved_config"] is not None
    assert summary["files"] == ["field_scan.csv", "field_scan.svg"]
    svg = (out / "field_scan.svg").read_text()
    assert "<polyline" in svg
    assert not re.search(r"\b(nan|inf)\b", svg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_run_that_fails_while_writing_removes_what_it_wrote(tmp_path):
    # force_norm.csv is written before the drift plot, which has no finite
    # sample left and raises EmptySeries; an earlier run's file stays
    out = tmp_path / "run"
    out.mkdir()
    (out / "earlier.csv").write_text("")
    path = write_config(tmp_path, {"scenario": "twobody", "out_dir": str(out), "svg": True,
                                   "twobody": {"kind": "spinning", "radius": 1e200,
                                               "gamma": 1e120, "samples": 50}})
    assert main(["twobody", "--config", str(path)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["earlier.csv", "summary.json"]
    summary = read_summary(out)
    assert summary["status"] == "error" and "EmptySeries" in summary["error"]
    assert summary["files"] == []


def test_an_out_dir_that_cannot_be_made_is_an_error_on_stderr(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    path = write_config(tmp_path, {"scenario": "evolve", "out_dir": str(out),
                                   "evolve": {"dt": 0.01, "t_end": 0.1}})
    assert main(["evolve", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert "summary" not in captured.out


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
    assert summary["files"] == []


# Each case is {scenario: bad setting}; the setting overrides a valid block.
VALID_BLOCKS = {
    "evolve": {"x0": [1.0, 0.0], "dt": 0.01, "t_end": 1.0},
    "field-scan": {"samples": 50},
    "ensemble": {"count": 10, "region": [0.8, 1.2], "dt": 0.01, "t_end": 0.1},
    "reconstruct": {"path": {"nodes": 12}},
    "twobody": {"kind": "spinning", "samples": 50},
    "oracle": {"points": 200},
}


@pytest.mark.parametrize("setting", [
    {"evolve": {"t_end": -1}}, {"evolve": {"scheme": "euler"}},
    {"evolve": {"max_displacement_tol": "abc"}},
    {"field-scan": {"region": [1.0]}}, {"ensemble": {"region": [1.0]}},
    {"ensemble": {"born_reference": 3}}, {"ensemble": {"histogram_times": ["a"]}},
    {"ensemble": {"bins": 0}}, {"ensemble": {"born_reference": {"level": -1}}},
    {"evolve": {"t_end": float("inf")}}, {"ensemble": {"t_end": float("inf")}},
    {"evolve": {"x0": ["a", "b"]}}, {"evolve": {"x0": [1, None]}},
    {"evolve": {"field": {"level": -1}}},
    {"reconstruct": {"path": {"nodes": 1}}}, {"reconstruct": {"path": {"nodes": -3}}},
    {"twobody": {"amplitudes": [], "kind": "rotation"}},
    {"field-scan": {"potential": {"kind": "polynomial", "coefficients": ["a"]}}},
    {"evolve": {"sheme": "rkf45"}}, {"twobody": {"p1_0": [1.0]}},
    {"twobody": {"t_end": float("inf"), "kind": "rotation"}},
    {"field-scan": {"--dt": "0.5"}}, {"field-scan": {"--t-end": "3"}},
    {"field-scan": {"samples": 1}}, {"field-scan": {"samples": -1}},
    {"evolve": {"config.svgs": True}}, {"evolve": {"config.units": {"hbar": -1.0}}},
    {"evolve": {"config.units": {"hbar": "a"}}}, {"evolve": {"config.formats": ["xml"]}},
    {"ensemble": {"config.scenario": "warp"}},
    {"field-scan": {"tol": -1}}, {"twobody": {"tol": -1e-9}},
    {"twobody": {"tol": -1, "kind": "rotation"}}, {"oracle": {"check_tol": -1e-4}},
    {"evolve": {"max_displacement_tol": -1}},
])
def test_bad_integrator_settings_are_config_errors(tmp_path, setting):
    # A "--flag" key is passed on the command line instead of in the block,
    # and a "config.key" key goes to the config's top level.
    (scenario, bad), = setting.items()
    flags = [arg for key, value in bad.items() if key.startswith("--") for arg in (key, value)]
    top = {key[len("config."):]: value for key, value in bad.items() if key.startswith("config.")}
    block = {key: value for key, value in bad.items() if not key.startswith(("--", "config."))}
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": scenario,
        "out_dir": str(out),
        scenario.replace("-", "_"): {**VALID_BLOCKS[scenario], **block},
        **top,
    })
    assert main([scenario, "--config", str(path), *flags]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error"
    assert next(iter(bad)) in summary["error"]
    if top:
        assert summary["resolved_config"] is None and summary["config_hash"] is None


@pytest.mark.parametrize("scenario, block, key", [
    ("field-scan", {}, "tol"), ("twobody", {}, "tol"), ("twobody", {"kind": "rotation"}, "tol"),
    ("oracle", {}, "check_tol"), ("evolve", {"t_end": 1.0}, "max_displacement_tol"),
])
def test_a_zero_tolerance_is_legal(scenario, block, key):
    cfg = config_from_dict({"scenario": scenario,
                            scenario.replace("-", "_"): {**block, key: 0}})
    assert cfg.params[key] == 0.0


def test_top_level_config_error_summary_goes_to_the_out_flag(tmp_path):
    path = write_config(tmp_path, {"scenario": "evolve", "svgs": True, "evolve": {"t_end": 1.0}})
    out = tmp_path / "flag"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error" and "config.svgs" in summary["error"]


def test_unknown_keys_name_their_path_and_the_closest_key():
    with pytest.raises(ConfigError, match=r"^evolve\.sheme: unknown key; did you mean 'scheme'\?$"):
        config_from_dict({"scenario": "evolve", "evolve": {"t_end": 1.0, "sheme": "rkf45"}})
    with pytest.raises(ConfigError, match=r"^ensemble\.distribution\.sigm: .*'sigma'"):
        config_from_dict({"scenario": "ensemble", "ensemble": {
            "region": [0.8, 1.2], "distribution": {"kind": "gaussian", "sigm": 0.3}}})
    with pytest.raises(ConfigError, match=r"^config\.evolve_block: unknown key"):
        config_from_dict({"scenario": "evolve", "evolve_block": {}})
    # A kind's table holds only that kind's keys.
    with pytest.raises(ConfigError, match=r"^twobody\.rate: unknown key"):
        config_from_dict({"scenario": "twobody", "twobody": {"kind": "spinning", "rate": 2.0}})
    with pytest.raises(ConfigError, match=r"^oracle\.potential\.value: required"):
        config_from_dict({"scenario": "oracle", "oracle": {"potential": {"kind": "constant"}}})


def test_resolution_fills_defaults_in_json_native_form():
    cfg = config_from_dict({"scenario": "ensemble", "ensemble": {"region": [1, 2], "t_end": 2}})
    p = cfg.params
    assert p["region"] == [1.0, 2.0] and p["t_end"] == 2.0
    assert p["field"] == {"kind": "qho", "level": 1}
    assert p["potential"] == {"kind": "harmonic"}
    assert p["distribution"] == {"kind": "uniform"}
    assert p["histogram_times"] == [2.0]
    assert "born_reference" not in p
    rotation = config_from_dict({"scenario": "twobody", "twobody": {"kind": "rotation"}})
    assert rotation.params["samples"] == 200 and "dt" not in rotation.params
    spinning = config_from_dict({"scenario": "twobody", "twobody": {}})
    assert spinning.params["samples"] == 1000 and "t_end" not in spinning.params
    # x0 and amplitude take a number or [re, im]; both resolve to the pair.
    by_number = config_from_dict({"scenario": "evolve", "evolve": {"t_end": 1, "x0": 2}})
    by_pair = config_from_dict({"scenario": "evolve", "evolve": {"t_end": 1.0, "x0": [2, 0]}})
    assert by_number.params["x0"] == [2.0, 0.0]
    assert by_number == by_pair and by_number.config_hash == by_pair.config_hash


def test_distribution_block_is_resolved_by_its_kind(tmp_path):
    # Only a gaussian takes mean and sigma, and they default to N(0, 1).
    gaussian = config_from_dict({"scenario": "ensemble", "ensemble": {
        "region": [0.8, 1.2], "distribution": {"kind": "gaussian"}}})
    assert gaussian.params["distribution"] == {"kind": "gaussian", "mean": 0.0, "sigma": 1.0}
    with pytest.raises(ConfigError, match=r"^ensemble\.distribution\.mean: unknown key"):
        config_from_dict({"scenario": "ensemble", "ensemble": {
            "region": [0.8, 1.2], "distribution": {"kind": "uniform", "mean": 3, "sigma": 5}}})
    # A misspelt kind fails resolution, before the run starts.
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "ensemble", "out_dir": str(out), "ensemble": {
        **VALID_BLOCKS["ensemble"], "distribution": {"kind": "gausian"}}})
    assert main(["ensemble", "--config", str(path)]) == 1
    summary = read_summary(out)
    assert summary["error"].startswith("ensemble.distribution.kind: expected one of uniform, "
                                       "gaussian")
    assert summary["resolved_config"] is None


@pytest.mark.parametrize("scenario, setting", [
    ("ensemble", {"distribution": {"kind": "gaussian", "sigma": -1}}),
    ("ensemble", {"distribution": {"kind": "gaussian", "sigma": 0}}),
    ("ensemble", {"scheme": "rk5"}),
    ("evolve", {"scheme": "rk5"}),
    ("evolve", {"dt": -0.01}), ("evolve", {"dt": 0}), ("evolve", {"t_end": 0}),
    ("ensemble", {"dt": -0.01}), ("ensemble", {"dt": 0}), ("ensemble", {"t_end": 0}),
    # refused by the library as the run starts, by a ValueError
    ("ensemble", {"count": 0}), ("ensemble", {"region": [2, 1]}),
    ("oracle", {"points": 10}), ("oracle", {"states": 0}),
    ("twobody", {"radius": -1}), ("twobody", {"gamma": 0}),
    ("twobody", {"dt": -0.001}), ("twobody", {"samples": 3}),
    ("evolve", {"field": {"level": 11}}), ("ensemble", {"field": {"level": 11}}),
    ("ensemble", {"dump_trajectories": True, "count": 100001}),
])
def test_settings_the_library_refuses_fail_resolution(tmp_path, scenario, setting):
    # Refused by the tables or by the library: no resolved config and no
    # file but the summary.
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": scenario, "out_dir": str(out),
                                   scenario: {**VALID_BLOCKS[scenario], **setting}})
    assert main([scenario, "--config", str(path)]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error"
    assert summary["resolved_config"] is None and summary["config_hash"] is None
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_valid_stepping_and_distribution_keep_their_hash():
    # The hash of a valid config is part of every output's metadata.
    cfg = config_from_dict({"scenario": "ensemble", "ensemble": {
        "region": [0.8, 1.2], "scheme": "rkf45",
        "distribution": {"kind": "gaussian", "mean": 1, "sigma": 2}}})
    assert cfg.params["distribution"] == {"kind": "gaussian", "mean": 1.0, "sigma": 2.0}
    assert cfg.params["scheme"] == "rkf45"
    assert cfg.config_hash == "65b4a2af87f509f5"


def test_each_snapshot_is_histogrammed_once(tmp_path):
    # 0.05 and 0.0501 snap to the same snapshot; entries keep first-seen order
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "ensemble", "out_dir": str(out), "ensemble": {
        "count": 10, "region": [0.8, 1.2], "dt": 0.01, "t_end": 0.1,
        "histogram_times": [0.1, 0.05, 0.0501, 0.1]}})
    assert main(["ensemble", "--config", str(path)]) == 0
    summary = read_summary(out)
    assert [entry["t"] for entry in summary["histograms"]] == [0.1, 0.05]
    assert summary["files"] == ["histogram_t0.05.csv", "histogram_t0.1.csv"]


def test_summary_carries_the_resolved_config_its_hash_covers(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "reconstruct", "out_dir": str(out),
                                   "reconstruct": {"path": {"nodes": 12}}})
    assert main(["reconstruct", "--config", str(path)]) == 0
    summary = read_summary(out)
    resolved = summary["resolved_config"]
    assert resolved["reconstruct"]["path"] == {"start": 0.5, "stop": 4.0, "nodes": 12}
    assert resolved["reconstruct"]["amplitude"] == [1.0, 0.0]
    assert config_from_dict(resolved).config_hash == summary["config_hash"]


def test_flags_override_only_keys_the_resolved_block_has(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "twobody", "out_dir": str(out),
                                   "twobody": {"kind": "rotation", "samples": 20}})
    assert main(["twobody", "--config", str(path), "--t-end", "0.5"]) == 0
    assert read_summary(out)["resolved_config"]["twobody"]["t_end"] == 0.5
    assert main(["twobody", "--config", str(path), "--dt", "0.5"]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error" and "--dt" in summary["error"]
    assert summary["resolved_config"] is None and summary["config_hash"] is None
    # An overriding value goes through the same checks as the config's own.
    assert main(["twobody", "--config", str(path), "--t-end", "inf"]) == 1
    summary = read_summary(out)
    assert "twobody.t_end" in summary["error"]
    assert summary["resolved_config"] is None and summary["config_hash"] is None


def test_a_flag_value_the_library_refuses_records_no_config(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "ensemble", "out_dir": str(out),
                                   "ensemble": VALID_BLOCKS["ensemble"]})
    assert main(["ensemble", "--config", str(path), "--t-end", "inf"]) == 1
    summary = read_summary(out)
    assert summary["status"] == "config-error" and "ensemble.t_end" in summary["error"]
    assert summary["resolved_config"] is None and summary["config_hash"] is None
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


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
    # a run that fails on its data keeps the config it ran
    assert summary["config_hash"] == config_from_dict(summary["resolved_config"]).config_hash


@pytest.mark.parametrize("count, region, sigma, seed", [
    pytest.param(10, [5.0, 6.0], 0.3, 3, id="10"),
    # On two or more cores the caller draws and evolves members 0..999 at
    # most, and forked workers the rest.  ~0.07% of draws land in (3.2, 4.0):
    # at seed 1 members 0..999 all land within 10 000 draws and one of
    # 1000..1999 does not, so the EmptyRegion is raised in a forked worker.
    pytest.param(2000, [3.2, 4.0], 1.0, 1, id="2000"),
])
def test_region_without_gaussian_mass_is_a_typed_error(tmp_path, count, region, sigma, seed):
    out = tmp_path / "run"
    path = write_config(tmp_path, {
        "scenario": "ensemble",
        "out_dir": str(out),
        "ensemble": {"count": count, "region": region, "seed": seed,
                     "distribution": {"kind": "gaussian", "mean": 0.0, "sigma": sigma},
                     "dt": 0.001, "t_end": 0.1},
    })
    assert main(["ensemble", "--config", str(path)]) == 1
    summary = read_summary(out)
    assert summary["status"] == "error"
    assert "EmptyRegion" in summary["error"]
    assert summary["config_hash"] == config_from_dict(summary["resolved_config"]).config_hash


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize alone costs ~0.6 s of start-up; only the scenarios
    # that need a solver import one.
    src = str(Path(momflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # difflib is only needed to suggest a key for an unknown one.
    code = ("import sys, momflow.cli; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.linalg', 'difflib') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_an_oracle_run_loads_no_scipy(tmp_path):
    # the grid eigensolver is numpy alone; scipy.linalg would add ~30 MB
    path = write_config(tmp_path, {
        "scenario": "oracle", "out_dir": str(tmp_path / "run"),
        "oracle": {"points": 200, "states": 2, "field_check": True}})
    src = str(Path(momflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys\nfrom momflow.cli import main\n"
            f"code = main(['oracle', '--config', {str(path)!r}])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, []]


# The seven scenarios of the cli_scenarios benchmark, each smaller.
SCENARIOS_WITHOUT_SCIPY = {
    "evolve_rk4": ("evolve", {"svg": True, "evolve": {
        "field": {"kind": "qho", "level": 1}, "x0": 2.0 ** 0.5, "scheme": "rk4",
        "dt": 1e-3, "t_end": 0.78}}),
    "evolve_rkf45": ("evolve", {"evolve": {
        "field": {"kind": "qho", "level": 3}, "x0": [2.0, 0.3], "scheme": "rkf45",
        "dt": 1e-2, "t_end": 5.0}}),
    "field_scan": ("field-scan", {"svg": True, "field_scan": {
        "field": {"kind": "qho", "level": 5}, "region": [0.1, 4.7], "samples": 2000}}),
    "reconstruct": ("reconstruct", {"reconstruct": {
        "field": {"kind": "qho", "level": 2}, "path": {"start": 0.8, "stop": 4.0, "nodes": 50}}}),
    "twobody": ("twobody", {"twobody": {
        "kind": "spinning", "radius": 1.0, "gamma": 1.0, "samples": 2000,
        "closed_form_derivatives": False}}),
    "oracle": ("oracle", {"oracle": {"points": 400, "states": 4, "field_check": True}}),
    "ensemble": ("ensemble", {"svg": True, "ensemble": {
        "field": {"kind": "qho", "level": 2}, "count": 200, "region": [1.0, 2.5], "seed": 1,
        "scheme": "rk4", "dt": 1e-3, "t_end": 0.2, "histogram_times": [0.0, 0.1, 0.2],
        "bins": 40, "born_reference": {"level": 2}}}),
}


def test_every_benchmark_scenario_runs_where_scipy_cannot_be_imported(tmp_path):
    # scipy is a test dependency only; a meta_path finder makes every
    # scipy import raise before momflow is imported
    runs = {}
    for name, (command, body) in SCENARIOS_WITHOUT_SCIPY.items():
        path = write_config(tmp_path, {"scenario": command, "out_dir": str(tmp_path / name),
                                       **body}, name=f"{name}.json")
        runs[name] = [command, "--config", str(path)]
    src = str(Path(momflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is not importable here')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy\n"
        "    sys.exit('scipy was imported')\n"
        "except ImportError:\n"
        "    pass\n"
        "from momflow.cli import main\n"
        f"print(json.dumps({{name: main(argv) for name, argv in {runs!r}.items()}}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {name: 0 for name in runs}
    for name in runs:
        assert read_summary(tmp_path / name)["status"] == "ok", name


# -- the process -------------------------------------------------------------------
# ``python -m momflow.cli`` ends by os._exit once main returns.  Its stdout
# is a pipe here, which Python buffers by blocks (PYTHONUNBUFFERED is
# dropped), so the scenario line arrives only if the entry flushes it.


@pytest.mark.parametrize("block, code, status", [
    # halts at step 0: x0 is inside the guard of the node at 0
    ({"x0": 0.02, "dt": 1e-3, "t_end": 0.1}, 0, "ok"),
    ({"x0": 1.5, "dt": 1e-2, "t_end": 0.1, "max_displacement_tol": 1e-6}, 2,
     "invariant-failed"),
    ({"scheme": "rk5", "t_end": 0.1}, 1, "config-error"),
])
def test_a_cli_process_exits_with_its_code_after_flushing_stdout(tmp_path, block, code, status):
    out = tmp_path / "run"
    path = write_config(tmp_path, {"scenario": "evolve", "out_dir": str(out), "evolve": block})
    src = str(Path(momflow.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "momflow.cli", "evolve", "--config", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (f"scenario evolve: {'ok' if code == 0 else 'failed'} "
                           f"(summary: {out / 'summary.json'})\n")
    assert proc.stderr == ""
    summary = read_summary(out)
    assert summary["status"] == status
    if code == 0:
        assert summary["steps"] == 0 and "approached field singularity" in summary["halt"]
