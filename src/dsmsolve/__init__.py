"""Solver for monotone nonlinear operator equations F(u) = h in R^n.

The solve follows a regularized dynamical-systems flow for fixed
regularization a, then drives a -> 0 with warm starts while certifying
the inequalities (residual decay, velocity/tail bounds, uniform norm
bound, Minty-type limit test) that make the construction work.
"""

from .validation import ValidatorReport
from .gallery import (
    Operator,
    evaluate,
    jacobian,
    check_monotone,
    check_coercive,
    make_gallery,
    make_operator,
    GALLERY_NAMES,
)
from .linalg import solve_regularized, min_sym_eig, SingularSystemError
from .flow import (
    FlowConfig,
    FlowTrace,
    RegularizedSolution,
    residual,
    dsm_rhs,
    integrate_flow,
    verify_decay,
    verify_vdot_bound,
    verify_tail_bound,
)
from .continuation import (
    ContinuationSchedule,
    SolveReport,
    run_continuation,
    uniform_bound_check,
    minty_diagnostic,
    verify_solution,
)
from .oracle import oracle_solve, damped_newton, bisection_1d

__all__ = [
    "ValidatorReport",
    "Operator",
    "evaluate",
    "jacobian",
    "check_monotone",
    "check_coercive",
    "make_gallery",
    "make_operator",
    "GALLERY_NAMES",
    "solve_regularized",
    "min_sym_eig",
    "SingularSystemError",
    "FlowConfig",
    "FlowTrace",
    "RegularizedSolution",
    "residual",
    "dsm_rhs",
    "integrate_flow",
    "verify_decay",
    "verify_vdot_bound",
    "verify_tail_bound",
    "ContinuationSchedule",
    "SolveReport",
    "run_continuation",
    "uniform_bound_check",
    "minty_diagnostic",
    "verify_solution",
    "oracle_solve",
    "damped_newton",
    "bisection_1d",
]
