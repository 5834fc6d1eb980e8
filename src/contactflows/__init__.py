"""Contact Hamiltonian flows on dually flat spaces.

Lift dynamics on Legendre submanifolds of contact manifolds (in Darboux
coordinates, lambda = dz - p.dx) to the ambient space so that the defect
coordinates decay exponentially, integrate the lifted flows, and check the
associated invariants: contact identities, phase compressibility, canonical
divergences, Pythagorean relations, and conservation in the extended
(dissipation-absorbing) lift.
"""

from .errors import (
    CompressibilityMismatchError,
    ContactFlowsError,
    DimensionMismatchError,
    EvaluationError,
    IntegrationAbort,
    NewtonConvergenceError,
    OutsideInvariantChartError,
    PythagoreanConfigError,
    ScenarioError,
    StrictConvexityError,
)
from .geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    contact_form_pairing,
    hamiltonian_vector_field,
    invariant_density,
    legendre_swap,
    phase_compressibility,
    push_swap,
    reeb_field,
    swap_hamiltonian,
    verify_contact_identities,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    integrate_lift,
    integrate_on_submanifold,
    pythagorean_residual,
)
from .lifts import (
    DriftField,
    LiftSpec,
    RestoringFunction,
    affine_drift,
    build_hamiltonian,
    defects,
    delta_velocities,
    dual_spec,
    embed,
    geodesic_drift_phi,
    geodesic_drift_psi,
    gradient_drift_phi,
    gradient_drift_psi,
    linear_drift,
    linear_restoring,
    onsager_drift,
    restricted_field,
    rotational_drift,
    stability_certificate,
)
from .models import (
    CircuitParams,
    OnsagerParams,
    SpinParams,
    onsager_spec,
    rc_spec,
    rc_thermal_spec,
    rl_spec,
    rl_thermal_spec,
    rlc_spec,
    rlc_thermal_spec,
    spin_spec,
)
from .potentials import (
    ConvexPotential,
    DuallyFlatWorkspace,
    canonical_divergence,
    conjugate,
    delta_psi,
    embed_psi,
    legendre_transform,
    quadratic_potential,
    separable_potential,
    spin_potential,
)
from .scenario import (
    InvariantCheck,
    InvariantReport,
    Scenario,
    divergence_table,
    parse_scenario,
    run_scenario,
    write_trajectory_csv,
)

__version__ = "0.1.0"
