"""Doubling solvers for algebraic Riccati equations from transport theory.

The equation X C X - X E - A X + B = 0 with the transport-regime coefficient
structure (diagonal-plus-rank-one A and E, rank-one B and C) admits a minimal
entrywise-nonnegative solution.  This package provides a dense doubling
reference solver, a truncated low-rank large-scale solver, and a
balanced-symmetry variant that halves the dominant per-iteration cost, plus
instance generation, flop accounting, audits, and a command-line front end.
"""

from .transport_problem import (
    DENSE_CAP,
    NareInstance,
    Quadrature,
    TransportParams,
    assemble_dense,
    balance,
    build_instance,
    gauss_legendre,
    make_instance,
    read_instance,
    unbalance_scale,
    unbalance_solution,
    write_instance,
)
from .structured_linalg import (
    FlopModel,
    ImplicitIterate,
    LowRankBilinear,
    NearCriticalError,
    RankOverflowError,
    ShiftedSolver,
    gamma_select,
    orthonormalize_against,
    residual_norm,
    truncated_svd,
)
from .dense_sda import (
    SpectralReport,
    dense_sda_solve,
    spectral_check,
)
from .sda_ls import (
    SolveReport,
    SolverConfig,
    sda_ls_solve,
)
from .modified_sda_ls import (
    SymmetryAudit,
    audit_symmetry,
    msda_solve,
)

__version__ = "0.1.0"

__all__ = [
    "DENSE_CAP",
    "NareInstance",
    "Quadrature",
    "TransportParams",
    "assemble_dense",
    "balance",
    "build_instance",
    "gauss_legendre",
    "make_instance",
    "read_instance",
    "unbalance_scale",
    "unbalance_solution",
    "write_instance",
    "FlopModel",
    "ImplicitIterate",
    "LowRankBilinear",
    "NearCriticalError",
    "RankOverflowError",
    "ShiftedSolver",
    "gamma_select",
    "orthonormalize_against",
    "residual_norm",
    "truncated_svd",
    "SpectralReport",
    "dense_sda_solve",
    "spectral_check",
    "SolveReport",
    "SolverConfig",
    "sda_ls_solve",
    "SymmetryAudit",
    "audit_symmetry",
    "msda_solve",
    "__version__",
]
