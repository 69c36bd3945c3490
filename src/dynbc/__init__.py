"""Numerical laboratory for one-dimensional quasilinear parabolic problems
with dynamical (and mixed dynamical/Dirichlet) boundary conditions.

Subpackages:
    expr         coefficient expressions: parse / evaluate / differentiate
    holder       discrete anisotropic Hölder seminorm diagnostics
    certificate  gradient-barrier construction and hypothesis checking
    solver       method-of-lines solver with blow-up detection
    verify       comparison-function and bound verification on solutions
    cli          command-line workflows and report files
"""

from .certificate import (
    BarrierCertificate, ConditionReport, PsiSpec, SupBoundCertificate,
    build_barrier, check_compatibility, check_hypotheses, estimate_lipschitz,
    find_q1, sup_bound,
)
from .expr import diff, evaluate, parse
from .holder import (
    GridFunction, HolderReport, holder_seminorm, interpolation_diagnostic,
    parabolic_norm, sup_norm,
)
from .problem import DirichletBC, DynamicBC, ProblemSpec
from .solver import (
    BlowUpDetected, Completed, SemiDiscretization, Solution, SolverConfig,
    StepFailure, solve,
)
from .verify import blowup_inequality, bounds_check, doubling_check

__version__ = "0.1.0"

__all__ = [
    "BarrierCertificate", "ConditionReport", "PsiSpec", "SupBoundCertificate",
    "build_barrier", "check_compatibility", "check_hypotheses",
    "estimate_lipschitz", "find_q1", "sup_bound",
    "diff", "evaluate", "parse",
    "GridFunction", "HolderReport", "holder_seminorm",
    "interpolation_diagnostic", "parabolic_norm", "sup_norm",
    "DirichletBC", "DynamicBC", "ProblemSpec",
    "BlowUpDetected", "Completed", "SemiDiscretization", "Solution",
    "SolverConfig", "StepFailure", "solve",
    "blowup_inequality", "bounds_check", "doubling_check",
]
