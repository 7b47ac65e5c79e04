"""Exact Krylov-complexity data for sixteen solvable quantum systems.

The package computes moments, Lanczos coefficients, orthonormal operator
chains, Heisenberg evolution, and the complexity profile K(t) for the
cataloged systems, and cross-verifies every closed form against
brute-force matrix oracles, exactly in rational arithmetic wherever the
data allows.
"""

from .catalog import (
    DEFAULT_PARAMS,
    SystemKind,
    SystemSpec,
    default_system,
    make_system,
    spectrum_shift_relations,
)
from .chain import (
    ChainClassification,
    LanczosCoefficients,
    b123_closed_forms,
    chain_report,
    detect_noncomplexity,
    hankel_check,
    lanczos_to_moments,
    moments_to_lanczos,
)
from .dynamics import (
    ClosureData,
    KrylovProfile,
    apply_liouville_power,
    heisenberg_closed_form,
    krylov_profile,
    verify_closure,
)
from .moments import (
    MomentTable,
    diagonal_eta_identity,
    moments_closed,
    moments_closed_finite,
    moments_closed_thermal,
    moments_oracle,
)
from .numeric import BIGREAL, EXACT, Context, Tolerance
from .operators import (
    InnerProduct,
    OperatorChain,
    OperatorPair,
    build_eta_position,
    energy_pair,
    inner,
    liouville,
    matrix_exponential_conjugate,
    operator_lanczos,
    position_pair,
    trace_inner,
    wightman_inner,
)

__version__ = "0.1.0"

__all__ = [
    "BIGREAL",
    "Context",
    "ChainClassification",
    "ClosureData",
    "DEFAULT_PARAMS",
    "EXACT",
    "InnerProduct",
    "KrylovProfile",
    "LanczosCoefficients",
    "MomentTable",
    "OperatorChain",
    "OperatorPair",
    "SystemKind",
    "SystemSpec",
    "Tolerance",
    "apply_liouville_power",
    "b123_closed_forms",
    "build_eta_position",
    "chain_report",
    "default_system",
    "diagonal_eta_identity",
    "detect_noncomplexity",
    "energy_pair",
    "hankel_check",
    "heisenberg_closed_form",
    "inner",
    "krylov_profile",
    "lanczos_to_moments",
    "liouville",
    "make_system",
    "matrix_exponential_conjugate",
    "moments_closed_finite",
    "moments_closed_thermal",
    "moments_oracle",
    "moments_closed",
    "moments_to_lanczos",
    "operator_lanczos",
    "position_pair",
    "spectrum_shift_relations",
    "trace_inner",
    "verify_closure",
    "wightman_inner",
]
