"""Polyhedral bundle method solver for standard-form semidefinite programs."""

from .bundle import (
    BundleCapError,
    BundleState,
    aggregate_and_append,
    model_eval,
    pvec_generate,
    select_aggregation,
)
from .linalg import (
    ConstraintOperator,
    EigenConvergenceError,
    SvecSupport,
    SymMatrix,
    SvecVector,
    apply_A,
    apply_At,
    extreme_eigs,
    smat,
    svec,
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
from .qp import (
    NonConvergence,
    QpSolution,
    SingularSubproblem,
    SubproblemData,
    solve_subproblem,
)
from .solver import (
    IterationRecord,
    SolveResult,
    SolverParams,
    penalty_eval,
    recover_primal,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BundleCapError", "BundleState", "aggregate_and_append", "model_eval",
    "pvec_generate", "select_aggregation", "ConstraintOperator",
    "EigenConvergenceError", "SvecSupport", "SymMatrix", "SvecVector",
    "apply_A", "apply_At",
    "extreme_eigs", "smat", "svec", "GraphInstance", "ParseError",
    "PlantedSolution", "SdpProblem", "UnsupportedFormat", "build_maxcut_sdp",
    "generate_random_sdp", "load_gset", "load_manifest", "load_sdpa",
    "write_manifest", "write_sdpa", "NonConvergence", "QpSolution",
    "SingularSubproblem", "SubproblemData", "solve_subproblem",
    "IterationRecord", "SolveResult", "SolverParams", "penalty_eval",
    "recover_primal", "solve",
]
