"""What importing momflow, and running one scenario, loads.

Each check runs in a fresh interpreter, since this one has loaded every
module already.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momflow

SRC = str(Path(momflow.__file__).resolve().parents[1])
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
LOADED = "import json; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'momflow']))"

# The package's names, by the submodule each comes from.
EXPORTS = {
    "core": ["DEFAULT_TOLERANCE", "NATURAL_UNITS", "SeedSpec", "TolerancePolicy", "UnitSystem",
             "mix_seed", "substream_rng"],
    "dynamics": ["IntegratorConfig", "Trajectory", "classify_fixed_points", "evolve", "force_at",
                 "qho_analytic_position", "stationarity_residual"],
    "ensemble": ["DensityComparison", "DensityHistogram", "Distribution", "EnsembleResult",
                 "EnsembleSpec", "compare_density_to_born", "density_histogram",
                 "evolve_ensemble", "gaussian_distribution", "sample_initial",
                 "uniform_distribution"],
    "fields": ["MomentumField", "PotentialField", "ScanReport", "WavefunctionSamples",
               "constant_potential", "curl_residual", "energy_at", "energy_constancy_scan",
               "field_from_wavefunction", "harmonic_potential", "polynomial_potential",
               "product_field", "qho_field", "reconstruct_wavefunction", "separable_potential",
               "zero_potential"],
    "gridsolver": ["EigenPair", "Grid1D", "field_from_grid", "solve_schrodinger_1d"],
    "twobody": ["BoundEnergy", "InvariantSeries", "MomentumHistory", "RotationMomentum",
                "SpinningPairParams", "bound_energy", "component_product",
                "coupled_acceleration_residual", "delta_e", "force_norm_invariant",
                "matrix_delta_e", "rotation_matrix", "spinning_pair", "spinning_pair_history",
                "stencil_derivative", "total_momentum_drift"],
}

# Every public parameter with a default, as ``name(param)``: a new option is
# added here on purpose.
OPTIONS = [
    "DensityHistogram(born_reference)", "Distribution(mean)", "Distribution(sigma)",
    "EnsembleSpec(first_stream)", "EnsembleSpec(snapshots)", "IntegratorConfig(abs_tol)",
    "IntegratorConfig(dt)", "IntegratorConfig(dt_max)", "IntegratorConfig(dt_min)",
    "IntegratorConfig(rel_tol)", "IntegratorConfig(scheme)", "InvariantSeries(label)",
    "InvariantSeries(metadata)", "MomentumField(derivative_kind)", "MomentumField(holomorphic)",
    "MomentumField(jacobian_fn)", "MomentumField(laplacian_fn)", "MomentumField(pole_margin)",
    "MomentumField(poles)", "MomentumField(tolerance)", "MomentumHistory(ddp1)",
    "MomentumHistory(ddp2)", "MomentumHistory(dp1)", "MomentumHistory(dp2)",
    "PotentialField(dimension)", "RotationMomentum(orientation)", "SpinningPairParams(mass)",
    "SpinningPairParams(p1_0)", "SpinningPairParams(p2_0)", "TolerancePolicy(node_guard)",
    "Trajectory(metadata)", "Trajectory(step_sizes)", "UnitSystem(hbar)", "UnitSystem(mass)",
    "UnitSystem(omega)", "bound_energy(units)", "classify_fixed_points(momentum_tol)",
    "classify_fixed_points(samples)", "classify_fixed_points(units)",
    "constant_potential(dimension)", "delta_e(units)", "energy_at(units)",
    "energy_constancy_scan(samples)", "energy_constancy_scan(tol)",
    "energy_constancy_scan(units)", "evolve(units)", "evolve_ensemble(record_energy)",
    "evolve_ensemble(units)", "field_from_grid(units)", "field_from_wavefunction(dimension)",
    "field_from_wavefunction(nodes)", "field_from_wavefunction(units)", "force_at(units)",
    "harmonic_potential(units)", "matrix_delta_e(units)", "qho_analytic_position(tolerance)",
    "qho_analytic_position(units)", "qho_field(units)", "reconstruct_wavefunction(amplitude)",
    "reconstruct_wavefunction(units)", "sample_initial(poles)", "sample_initial(tolerance)",
    "solve_schrodinger_1d(units)", "spinning_pair_history(closed_form_derivatives)",
    "spinning_pair_history(dt)", "spinning_pair_history(samples)", "stationarity_residual(units)",
    "stencil_derivative(order)", "zero_potential(dimension)",
]

# A CLI process runs ``cli`` as __main__ on top of these ...
CLI_BASE = {"momflow", "momflow.core", "momflow.errors", "momflow.reports"}
# ... and loads its scenario's modules besides.
SCENARIO_MODULES = {
    "field-scan": ({"field_scan": {"samples": 50}}, {"fields", "svgplot"}),
    "evolve": ({"evolve": {"dt": 0.01, "t_end": 0.1}}, {"fields", "dynamics", "svgplot"}),
    "ensemble": ({"ensemble": {"count": 10, "region": [0.8, 1.2], "dt": 0.01, "t_end": 0.1,
                               "born_reference": {"level": 1}}},
                 {"fields", "dynamics", "ensemble", "svgplot"}),
    "reconstruct": ({"reconstruct": {"path": {"nodes": 12}}}, {"fields", "svgplot"}),
    "twobody": ({"twobody": {"kind": "spinning", "samples": 50}}, {"twobody", "svgplot"}),
    "oracle": ({"oracle": {"points": 200, "states": 2, "field_check": True}},
               {"fields", "gridsolver", "svgplot"}),
}


def loaded_after(code, cwd=None):
    out = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{LOADED}"], env=ENV,
                         cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_importing_the_cli_loads_no_scenario_module():
    assert loaded_after("import momflow.cli") == {
        "momflow", "momflow.cli", "momflow.core", "momflow.errors", "momflow.reports"}


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import momflow") == {"momflow"}


@pytest.mark.parametrize("scenario", SCENARIO_MODULES)
def test_a_scenario_loads_only_its_own_modules(tmp_path, scenario):
    block, modules = SCENARIO_MODULES[scenario]
    (tmp_path / "run.json").write_text(json.dumps({"scenario": scenario, "out_dir": "out",
                                                   "svg": True, **block}))
    # The CLI ends its process by os._exit, before sys.modules could be
    # printed; the stub records the code and leaves by SystemExit instead.
    code = ("import os, runpy\n"
            "exits = []\n"
            "def _exit(code):\n    exits.append(code)\n    raise SystemExit(code)\n"
            "os._exit = _exit\n"
            f"sys.argv = ['momflow', {scenario!r}, '--config', 'run.json']\n"
            "try:\n    runpy.run_module('momflow.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
            "assert exits == [0], exits")
    assert loaded_after(code, cwd=tmp_path) == CLI_BASE | {f"momflow.{m}" for m in modules}
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["status"] == "ok"


def test_names_load_on_first_use():
    code = ("import momflow\n"
            "field = momflow.qho_field\n"
            "assert momflow.fields.qho_field is field and 'qho_field' in vars(momflow)\n"
            "assert 'evolve' in dir(momflow) and 'svgplot' in dir(momflow)\n"
            "try:\n    momflow.no_such_name\nexcept AttributeError:\n    pass\n"
            "else:\n    raise AssertionError('no AttributeError')")
    assert loaded_after(code) == {"momflow", "momflow.core", "momflow.errors", "momflow.fields"}


def test_star_import_binds_every_name_from_its_submodule():
    namespace = {}
    exec("from momflow import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {name for names in EXPORTS.values() for name in names}
    assert len(namespace) == 61
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"momflow.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name) is getattr(momflow, name), name


@pytest.mark.parametrize("module", sorted(momflow._EXPORTS))
def test_a_submodule_exports_what_the_package_does(module):
    # from momflow.<module> import * binds exactly the names momflow takes from it
    names = importlib.import_module(f"momflow.{module}").__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(momflow._EXPORTS[module])


def test_the_public_options_are_the_listed_ones():
    # each callable, class constructor and public method defined in a class body
    found = []
    for name in momflow.__all__:
        obj = getattr(momflow, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        targets = [(name, obj)]
        if isinstance(obj, type):
            targets += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(value)]
        found += [f"{label}({param.name})" for label, fn in targets
                  for param in inspect.signature(fn).parameters.values()
                  if param.default is not inspect.Parameter.empty]
    assert sorted(found) == OPTIONS
    assert len(OPTIONS) == 69
