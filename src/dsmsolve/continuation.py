"""Drive the regularization parameter a -> 0 with warm starts.

Each stage solves F(u)+au = h by the flow, warm-started from the
previous stage.  The stage solutions are then audited: the uniform
norm bound that coercivity buys, a Cauchy check on successive stage
solutions (the finite-dimensional stand-in for weak compactness), and
a Minty-type directional test certifying that the final iterate solves
F(u) = h.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .flow import FlowConfig, RegularizedSolution, integrate_flow, residual
from .gallery import Operator, evaluate
from .validation import ValidatorReport, unit_directions

__all__ = [
    "ContinuationSchedule",
    "StageResult",
    "SolveReport",
    "run_continuation",
    "uniform_bound_check",
    "minty_diagnostic",
    "verify_solution",
]


@dataclass(frozen=True)
class ContinuationSchedule:
    a0: float = 1.0
    decay_factor: float = 0.1
    a_min: float = 1e-6

    def __post_init__(self):
        if not (self.a0 > self.a_min > 0):
            raise ValueError("need a0 > a_min > 0")
        if not (0 < self.decay_factor < 1):
            raise ValueError("decay_factor must lie in (0, 1)")

    def values(self) -> list[float]:
        """Geometric sequence a0, a0*q, ..., clamped to end at a_min."""
        vals = []
        a = self.a0
        while a > self.a_min * (1 + 1e-12):
            vals.append(a)
            a *= self.decay_factor
        vals.append(self.a_min)
        return vals


@dataclass
class StageResult:
    a: float
    u_a: np.ndarray
    residual_eq6: float  # ||F(u_a) + a u_a - h||
    norm_u: float
    t_end: float
    steps: int
    terminated_by: str
    trace_file: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "a": float(self.a),
            "u_a": [float(x) for x in self.u_a],
            "residual_eq6": float(self.residual_eq6),
            "norm_u": float(self.norm_u),
            "flow_summary": {
                "t_end": float(self.t_end),
                "steps": int(self.steps),
                "terminated_by": self.terminated_by,
            },
            "trace_file": self.trace_file,
        }


@dataclass
class SolveReport:
    operator_name: str
    dim: int
    h: np.ndarray
    stages: list[StageResult]
    final_u: np.ndarray
    final_residual_eq5: float  # ||F(u) - h||
    bound_report: ValidatorReport
    minty_report: ValidatorReport
    cauchy_report: ValidatorReport
    failed_stage: Optional[int] = None  # schedule index of an aborted stage

    @property
    def all_passed(self) -> bool:
        return (
            self.failed_stage is None
            and self.bound_report.passed
            and self.minty_report.passed
            and self.cauchy_report.passed
        )

    def to_dict(self) -> dict:
        return {
            "operator_name": self.operator_name,
            "dim": int(self.dim),
            "h": [float(x) for x in self.h],
            "stages": [s.to_dict() for s in self.stages],
            "final_u": [float(x) for x in self.final_u],
            "final_residual_eq5": float(self.final_residual_eq5),
            "bound_report": self.bound_report.to_dict(),
            "minty_report": self.minty_report.to_dict(),
            "cauchy_report": self.cauchy_report.to_dict(),
            "failed_stage": self.failed_stage,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def uniform_bound_check(op: Operator, h, stages: list[StageResult]) -> ValidatorReport:
    """Audit the norm bound and the multiply-through identity per stage.

    Passes iff (i) max stage norm <= 10x the median stage norm, and
    (ii) for every stage with ||u_a|| > 1e-8 both
        (F(u_a),u_a)/||u_a|| + a||u_a|| = (h,u_a)/||u_a||   (within 1e-8)
        (F(u_a),u_a)/||u_a|| <= ||h|| + 1e-8
    hold.  Failure of (i) under converged stages is the numerical
    signature of a non-coercive operator.
    """
    if len(stages) < 2:
        raise ValueError("need at least 2 stages")
    h = np.asarray(h, dtype=float)
    h_norm = float(np.linalg.norm(h))
    norms = np.array([s.norm_u for s in stages])
    med = float(np.median(norms))
    norm_ratio = float(norms.max() / max(med, 1e-300))
    worst = 0.0
    witness = None
    n_checked = 0
    for s in stages:
        if s.norm_u <= 1e-8:
            continue
        n_checked += 1
        u = s.u_a
        q = float(np.dot(evaluate(op, u), u)) / s.norm_u
        ident = abs(q + s.a * s.norm_u - float(np.dot(h, u)) / s.norm_u)
        excess = q - h_norm
        if max(ident, excess) > worst:
            worst = max(ident, excess)
            witness = (u, h)
    passed = norm_ratio <= 10.0 and worst <= 1e-8
    if norm_ratio > 10.0:
        worst = norm_ratio
        k = int(np.argmax(norms))
        witness = (stages[k].u_a, h)
    return ValidatorReport(
        passed=passed,
        samples_checked=len(stages) + n_checked,
        worst_value=worst,
        witness=None if passed else witness,
        evidence={"max_norm": float(norms.max()), "median_norm": med},
    )


_MINTY_STEPS = (1e-1, 1e-2, 1e-3)


def minty_diagnostic(op: Operator, u, h, n_dirs: int = 100, seed: int = 0) -> ValidatorReport:
    """Directional test (h - F(u - s*eta), eta) >= -tol over seeded eta, s in _MINTY_STEPS.

    Also evaluates the closing direction eta = h - F(u) and records its
    norm, which is exactly the equation residual ||F(u) - h||.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    tol = 1e-6 * (1.0 + float(np.linalg.norm(h)))
    rng = np.random.default_rng(seed)
    dirs = unit_directions(rng, n_dirs, op.dim)
    worst = np.inf
    witness = None
    for s in _MINTY_STEPS:
        for eta in dirs:
            val = float(np.dot(h - evaluate(op, u - s * eta), eta))
            if val < worst:
                worst = val
                witness = (u - s * eta, eta)
    r = h - evaluate(op, u)
    r_norm = float(np.linalg.norm(r))
    evidence = {"closing_direction_value": r_norm}  # (r, r)/||r|| == ||r||
    passed = worst >= -tol
    return ValidatorReport(
        passed=passed,
        samples_checked=len(_MINTY_STEPS) * n_dirs,
        worst_value=worst,
        witness=None if passed else witness,
        evidence=evidence,
    )


def _cauchy_check(stages: list[StageResult], floor: float) -> ValidatorReport:
    """Successive stage differences must shrink over the last three stages."""
    if len(stages) < 3:
        return ValidatorReport(passed=True, samples_checked=len(stages), worst_value=0.0)
    u3, u2, u1 = (s.u_a for s in stages[-3:])
    d_prev = float(np.linalg.norm(u2 - u3))
    d_last = float(np.linalg.norm(u1 - u2))
    if d_last <= floor:
        return ValidatorReport(passed=True, samples_checked=3, worst_value=d_last)
    ratio = d_last / max(d_prev, 1e-300)
    return ValidatorReport(passed=ratio <= 1.0 + 1e-9, samples_checked=3, worst_value=ratio)


def verify_solution(op: Operator, u, h, tol: float) -> bool:
    """||F(u) - h|| <= tol."""
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(np.linalg.norm(evaluate(op, u) - h)) <= tol


def run_continuation(
    op: Operator,
    h,
    sched: ContinuationSchedule,
    cfg: FlowConfig,
    minty_seed: int = 0,
    stage_callback=None,
) -> SolveReport:
    """Solve F(u) = h by sweeping the schedule with warm starts.

    stage_callback(a, RegularizedSolution) is invoked per stage (used by
    the CLI to write trace files).  A stage that fails to converge aborts
    the sweep; the partial report records the failed schedule index.
    """
    h = np.asarray(h, dtype=float)
    stages: list[StageResult] = []
    v0 = np.zeros(op.dim)
    failed_stage = None
    for i, a in enumerate(sched.values()):
        sol = integrate_flow(op, a, h, v0, cfg)
        trace_file = stage_callback(a, sol) if stage_callback is not None else None
        last = sol.trace.records[-1]
        stages.append(
            StageResult(
                a=a,
                u_a=sol.u_a,
                residual_eq6=sol.residual,
                norm_u=float(np.linalg.norm(sol.u_a)),
                t_end=last[0],
                steps=len(sol.trace.records) - 1,
                terminated_by=sol.trace.terminated_by,
                trace_file=trace_file,
            )
        )
        if not sol.converged:
            failed_stage = i
            break
        v0 = sol.u_a

    final_u = stages[-1].u_a
    final_res = float(np.linalg.norm(evaluate(op, final_u) - h))
    if len(stages) >= 2:
        bound = uniform_bound_check(op, h, stages)
    else:
        bound = ValidatorReport(passed=False, samples_checked=len(stages), worst_value=float("inf"))
    minty = minty_diagnostic(op, final_u, h, seed=minty_seed)
    cauchy = _cauchy_check(stages, floor=10.0 * cfg.residual_tol / sched.a_min)
    if failed_stage is not None:
        cauchy = ValidatorReport(
            passed=False, samples_checked=len(stages), worst_value=float("inf")
        )
    return SolveReport(
        operator_name=op.name,
        dim=op.dim,
        h=h,
        stages=stages,
        final_u=final_u,
        final_residual_eq5=final_res,
        bound_report=bound,
        minty_report=minty,
        cauchy_report=cauchy,
        failed_stage=failed_stage,
    )
