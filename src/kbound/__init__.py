"""Krylov complexity toolkit: chains, amplitudes, and the dispersion bound.

The package is organized around one pipeline.  A Hamiltonian and a seed
operator produce a chain of Lanczos coefficients (``lanczos``); a chain
produces amplitude trajectories (``dynamics``); trajectories produce the
complexity, its growth rate, and the dispersion bound that caps it.
Analytic coefficient families and the saturation test live in ``algebras``;
random-matrix ensembles in ``ensembles``.
"""

from .errors import NumericalError, ValidationError
from .operators import (
    HermitianMatrix,
    InnerProductSpec,
    OperatorVector,
    as_hermitian,
    load_hamiltonian,
    load_matrix,
    save_matrix,
)
from .lanczos import (
    LanczosResult,
    OrthogonalityReport,
    ReorthPolicy,
    default_policy,
    load_result_json,
    max_chain_length,
    orthogonality_report,
    result_to_dict,
    run_lanczos,
    save_coefficients_csv,
    save_result_json,
)
from .dynamics import (
    AmplitudeTrajectory,
    ComplexityProfile,
    complexity_profile,
    deviation_time,
    evolve_amplitudes,
    profile_to_dict,
    save_amplitudes_csv,
    save_profile_csv,
    short_time_coefficients,
)
from .algebras import (
    AlgebraModel,
    ClosureReport,
    closure_test,
    model_amplitudes,
    model_observables,
    parse_model_spec,
)
from .ensembles import (
    EnsembleResult,
    GoeSpec,
    ensemble_to_dict,
    goe_sample,
    run_ensemble,
    save_ensemble_csv,
    save_ensemble_json,
    uniform_observable,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraModel",
    "AmplitudeTrajectory",
    "ClosureReport",
    "ComplexityProfile",
    "EnsembleResult",
    "GoeSpec",
    "HermitianMatrix",
    "InnerProductSpec",
    "LanczosResult",
    "NumericalError",
    "OperatorVector",
    "OrthogonalityReport",
    "ReorthPolicy",
    "ValidationError",
    "as_hermitian",
    "closure_test",
    "complexity_profile",
    "default_policy",
    "deviation_time",
    "ensemble_to_dict",
    "evolve_amplitudes",
    "goe_sample",
    "load_hamiltonian",
    "load_matrix",
    "load_result_json",
    "max_chain_length",
    "model_amplitudes",
    "model_observables",
    "orthogonality_report",
    "parse_model_spec",
    "profile_to_dict",
    "result_to_dict",
    "run_ensemble",
    "run_lanczos",
    "save_amplitudes_csv",
    "save_coefficients_csv",
    "save_ensemble_csv",
    "save_ensemble_json",
    "save_matrix",
    "save_profile_csv",
    "save_result_json",
    "short_time_coefficients",
    "uniform_observable",
    "__version__",
]
