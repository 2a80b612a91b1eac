"""Doubling solvers for algebraic Riccati equations from transport theory.

The equation X C X - X E - A X + B = 0 with the transport-regime coefficient
structure (diagonal-plus-rank-one A and E, rank-one B and C) admits a minimal
entrywise-nonnegative solution.  This package provides a dense doubling
reference solver, a truncated low-rank large-scale solver, and a
balanced-symmetry variant that halves the dominant per-iteration cost, plus
instance generation, flop accounting, audits, and a command-line front end.
The root holds only what the benchmark reads: the instance, the config, the
three solvers and the low-rank triple.  Every other name has one import
path, its own module.
"""

from .transport_problem import make_instance
from .structured_linalg import LowRankBilinear
from .dense_sda import dense_sda_solve
from .sda_ls import SolverConfig, sda_ls_solve
from .modified_sda_ls import msda_solve

__all__ = ["make_instance", "SolverConfig", "sda_ls_solve", "msda_solve",
           "dense_sda_solve", "LowRankBilinear"]
