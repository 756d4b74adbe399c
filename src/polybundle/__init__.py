"""Polyhedral bundle method solver for standard-form semidefinite programs."""

from .linalg import (
    ConstraintOperator,
    EigenConvergenceError,
    SymMatrix,
    extreme_eigs,
)
from .problems import (
    GraphInstance,
    ParseError,
    PlantedSolution,
    SdpProblem,
    UnsupportedFormat,
    build_maxcut_sdp,
    generate_random_sdp,
    load_gset,
    load_manifest,
    load_sdpa,
    write_manifest,
    write_sdpa,
)
from .solver import IterationRecord, SolveResult, SolverParams, solve

__version__ = "0.1.0"

__all__ = [
    "solve", "SolverParams", "SolveResult", "IterationRecord", "SdpProblem",
    "SymMatrix", "ConstraintOperator", "GraphInstance", "PlantedSolution",
    "generate_random_sdp", "build_maxcut_sdp", "load_gset", "load_sdpa",
    "write_sdpa", "load_manifest", "write_manifest", "extreme_eigs",
    "ParseError", "UnsupportedFormat", "EigenConvergenceError",
]
