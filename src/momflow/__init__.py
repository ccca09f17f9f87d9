"""Complex momentum-field quantum dynamics.

The package builds complex momentum fields p(r) = -i*hbar*grad(psi)/psi,
evolves point-particle trajectories and ensembles along the flow
dr = p/m dt, reconstructs wavefunctions from momentum line integrals,
and measures the conservation/exclusion invariants of two-electron
momentum histories.  A finite-difference eigensolver provides an
independent cross-check on potentials without closed-form states.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_TOLERANCE,
    NATURAL_UNITS,
    SeedSpec,
    TolerancePolicy,
    UnitSystem,
    mix_seed,
    substream_rng,
)
from .dynamics import (
    IntegratorConfig,
    PhasePoint,
    Trajectory,
    classify_fixed_points,
    evolve,
    force_at,
    qho_analytic_position,
    stationarity_residual,
)
from .ensemble import (
    DensityComparison,
    DensityHistogram,
    Distribution,
    EnsembleResult,
    EnsembleSpec,
    compare_density_to_born,
    density_histogram,
    draw_measurement,
    evolve_ensemble,
    gaussian_distribution,
    sample_initial,
    uniform_distribution,
)
from .fields import (
    MomentumField,
    PotentialField,
    ScanReport,
    WavefunctionSamples,
    constant_potential,
    curl_residual,
    energy_at,
    energy_constancy_scan,
    field_from_wavefunction,
    harmonic_potential,
    polynomial_potential,
    product_field,
    qho_field,
    reconstruct_wavefunction,
    separable_potential,
    wavefunction_interpolant,
    zero_potential,
)
from .gridsolver import EigenPair, Grid1D, field_from_grid, solve_schrodinger_1d
from .twobody import (
    BoundEnergy,
    InvariantSeries,
    MomentumHistory,
    RotationMomentum,
    SpinningPairParams,
    bound_energy,
    component_product,
    coulomb_interaction,
    coupled_acceleration_residual,
    delta_e,
    force_norm_invariant,
    matrix_delta_e,
    rotation_matrix,
    spinning_pair,
    spinning_pair_history,
    stencil_derivative,
    total_momentum_drift,
)
