"""Spin correlations of relativistic particle pairs.

A moving spin-1/2 pair shows weaker singlet correlations than the same
pair at rest: the analyzer axes are deformed by the boost, the CHSH
combination is suppressed below 2 sqrt(2), and an entanglement monitor
calibrated at rest can raise false alarms. This package computes the
closed-form correlation, cross-checks it against an explicit
matrix-element oracle and against the first-quantized four-spinor
theory, tabulates the suppression over velocity grids, and audits alarm
margins for velocity distributions.
"""

from .errors import (
    CheckFailed,
    DegenerateObservable,
    DimensionMismatch,
    EigenstateResidual,
    EmptyDistribution,
    EmptyGrid,
    GammaInconsistent,
    IdentityMismatch,
    NonHermitianInput,
    NullContext,
    ParseError,
    PrecessionMismatch,
    RelbellError,
    SpectrumMismatch,
    SuperluminalSample,
    ZeroHelicity,
)
from .kinematics import (
    BeamVelocity,
    alpha_norm,
    alpha_vector,
    spin_eigenvalues,
    spin_structure_constants,
    w_projection_eigenvalues,
)
from .linalg import herm_eig, kron, max_abs, pauli_dot
from .observables import (
    SpinObservable,
    eprb_closed_form,
    eprb_oracle,
    singlet_state,
    spin_observable,
)
from .bell import (
    STANDARD_SETTINGS,
    ChshSettings,
    ScanTable,
    calibrated_settings,
    chsh_batch,
    chsh_value,
    maximize_chsh,
    proper_time_comparison,
    scan_beta_phi,
    scan_theta_phi,
)
from .dirac import (
    CheckRecord,
    CheckReport,
    DiracContext,
    DiracOperatorSet,
    KineticQuantities,
    build_context,
    casimir_check,
    com_uncertainty_bound,
    dirac_battery,
    eigenstate_check,
    eigenstates,
    evenness_check,
    hamiltonian_identity_check,
    kinetic_quantities,
    massless_even_velocity_check,
    precession_check,
    spin_form_agreement_check,
    spin_spectrum_check,
)
from .audit import (
    FALSE_ALARM_RISK,
    NO_ALARM,
    AuditReport,
    VelocityDistribution,
    expected_chsh,
    load_distribution,
)

__version__ = "0.1.0"
