"""Equilibrium-state simplices of finite higher-rank graph Toeplitz algebras.

Given the k commuting vertex matrices of a finite higher-rank graph and a
dynamics vector, the engine computes every extreme equilibrium state at
every inverse temperature: the supercritical per-vertex family, the states
carried by critical components at each critical value, and the recursion
onto smaller quotients below it.
"""

__version__ = "0.1.0"

from .components import (
    AssumptionReport,
    ComponentDecomposition,
    check_assumptions,
    decompose,
    hereditary_closure,
    restrict,
    split_isolated,
)
from .dumbbell import (
    CommutationError,
    Dumbbell2Params,
    Dumbbell3Params,
    DumbbellBounds,
    FuzzReport,
    figure3_params,
    fuzz_ordering,
    make_dumbbell2,
    make_dumbbell3,
)
from .engine import (
    AssumptionError,
    Dynamics,
    ExtremeState,
    PhaseDiagram,
    critical_components,
    extreme_states_at,
    kms1_extremes,
    normalize_dynamics,
    phase_diagram,
    psi_state,
    removal_set,
    supercritical_extremes,
    verify_state,
    verify_states,
)
from .formats import InputDocument, ParseError, emit_report, parse_input
from .skeleton import Skeleton, ValidationReport, validate_skeleton
from .spectral import (
    EigenConsistencyError,
    ExtensionResult,
    OrderingVerdict,
    PFResult,
    check_spectral_ordering,
    common_pf_eigenvector,
    extend_eigenvector,
    spectral_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
