"""l1-regularized composite optimization over the Stiefel manifold.

An adaptive quadratically regularized proximal quasi-Newton solver (with a
semismooth-Newton dual subproblem solver, three retractions and a
proximal-gradient baseline) and the compressed-modes / sparse-PCA problem
generators. The benchmark harness is the separate module stiefelprox.bench,
which the package does not import, so `python -m stiefelprox.bench` runs it
cleanly.
"""

from .stiefel import (
    RetractionKind,
    StiefelPoint,
    TangentVector,
    feasibility_residual,
    project_tangent,
    random_point,
    retract,
)
from .metric import LbfgsMemory, build_diag, metric_norm_sq
from .subproblem import SubproblemResult, ssn_solve
from .solver import (
    Mode,
    SolveResult,
    SolverConfig,
    Status,
    TraceRecord,
    line_search,
    nonmonotone_reference,
    solve,
    write_trace_csv,
)
from .problems import (
    CompositeProblem,
    make_cm,
    make_problem,
    make_spca,
    sparsity,
)

__all__ = [
    "RetractionKind", "StiefelPoint", "TangentVector", "feasibility_residual",
    "project_tangent", "random_point", "retract",
    "LbfgsMemory", "build_diag", "metric_norm_sq",
    "SubproblemResult", "ssn_solve",
    "Mode", "SolveResult", "SolverConfig", "Status", "TraceRecord",
    "line_search", "nonmonotone_reference", "solve", "write_trace_csv",
    "CompositeProblem", "make_cm", "make_problem",
    "make_spca", "sparsity",
]

__version__ = "0.1.0"
