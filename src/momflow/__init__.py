"""Complex momentum-field quantum dynamics.

The package builds complex momentum fields p(r) = -i*hbar*grad(psi)/psi,
evolves point-particle trajectories and ensembles along the flow
dr = p/m dt, reconstructs wavefunctions from momentum line integrals,
and measures the conservation/exclusion invariants of two-electron
momentum histories.  A finite-difference eigensolver provides an
independent cross-check on potentials without closed-form states.

Importing the package loads no submodule: each name below, and each
submodule, is imported the first time it is used (PEP 562).
"""

__version__ = "0.1.0"

# The package's public names, by the submodule that defines them; each of
# those submodules takes its __all__ from its row here.
_EXPORTS = {
    "core": ("DEFAULT_TOLERANCE", "NATURAL_UNITS", "SeedSpec", "TolerancePolicy", "UnitSystem",
             "mix_seed", "substream_rng"),
    "dynamics": ("IntegratorConfig", "Trajectory", "classify_fixed_points", "evolve", "force_at",
                 "qho_analytic_position", "stationarity_residual"),
    "ensemble": ("DensityComparison", "DensityHistogram", "Distribution", "EnsembleResult",
                 "EnsembleSpec", "compare_density_to_born", "density_histogram",
                 "evolve_ensemble", "gaussian_distribution", "sample_initial",
                 "uniform_distribution"),
    "fields": ("MomentumField", "PotentialField", "ScanReport", "WavefunctionSamples",
               "constant_potential", "curl_residual", "energy_at", "energy_constancy_scan",
               "field_from_wavefunction", "harmonic_potential", "polynomial_potential",
               "product_field", "qho_field", "reconstruct_wavefunction", "separable_potential",
               "zero_potential"),
    "gridsolver": ("EigenPair", "Grid1D", "field_from_grid", "solve_schrodinger_1d"),
    "twobody": ("BoundEnergy", "InvariantSeries", "MomentumHistory", "RotationMomentum",
                "SpinningPairParams", "bound_energy", "component_product",
                "coupled_acceleration_residual", "delta_e", "force_norm_invariant",
                "matrix_delta_e", "rotation_matrix", "spinning_pair", "spinning_pair_history",
                "stencil_derivative", "total_momentum_drift"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "reports", "svgplot"}

__all__ = list(_HOME)


def _submodule(name):
    # builtins.__import__ rather than importlib, so -X importtime lists the import
    return __import__(name, globals(), level=1)


def __getattr__(name):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
