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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .flow import FlowConfig, integrate_flow, trace_to_csv
from .gallery import Operator, evaluate
from .validation import ValidatorReport, norm, sampled_report, unit_directions

__all__ = [
    "ContinuationSchedule",
    "FlowSummary",
    "StageResult",
    "SolveReport",
    "run_continuation",
    "uniform_bound_check",
    "minty_diagnostic",
    "verify_solution",
]


# a schedule of more stages is rejected: each stage is a whole flow, and
# values() lists every a before the first one runs
_MAX_STAGES = 1_000_000


@dataclass(frozen=True)
class ContinuationSchedule:
    a0: float = 1.0
    decay_factor: float = 0.1
    a_min: float = 1e-6

    def __post_init__(self):
        if not (self.a0 > self.a_min > 0):
            raise ValueError("need a0 > a_min > 0")
        if self.a0 == math.inf:  # values() would append inf without end
            raise ValueError("a0 must be finite")
        if not (0 < self.decay_factor < 1):
            raise ValueError("decay_factor must lie in (0, 1)")
        stages = (math.log(self.a0) - math.log(self.a_min)) / -math.log(self.decay_factor)
        if stages > _MAX_STAGES:
            raise ValueError(f"schedule needs about {stages:.3g} stages, more than {_MAX_STAGES}")

    def values(self) -> list[float]:
        """Geometric sequence a0, a0*q, ..., clamped to end at a_min, as floats (an int a0 too)."""
        vals = []
        a = float(self.a0)
        while a > self.a_min * (1 + 1e-12):
            vals.append(a)
            a *= self.decay_factor
        vals.append(float(self.a_min))
        return vals


@dataclass
class FlowSummary:
    t_end: float
    steps: int  # accepted steps
    terminated_by: str


@dataclass
class StageResult:
    a: float
    u_a: np.ndarray
    residual_eq6: float  # ||F(u_a) + a u_a - h||
    norm_u: float
    flow_summary: FlowSummary
    trace_file: Optional[str] = None


@dataclass
class SolveReport:
    """The record of a solve; its fields, nested and in order, are its JSON."""

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

    def to_json(self) -> str:
        # numpy arrays and scalars become lists and Python scalars
        return json.dumps(asdict(self), indent=2, default=lambda x: x.tolist())


def uniform_bound_check(op: Operator, h, stages: list[StageResult]) -> ValidatorReport:
    """Audit the norm bound and the multiply-through identity per stage.

    Passes iff (i) max stage norm <= 10x the median stage norm, and
    (ii) for every stage with ||u_a|| > 1e-8 both
        (F(u_a),u_a)/||u_a|| + a||u_a|| = (h,u_a)/||u_a||   (within 1e-8)
        (F(u_a),u_a)/||u_a|| <= ||h|| + 1e-8
    hold.  Failure of (i) under converged stages is the numerical
    signature of a non-coercive operator.  Fewer than 2 stages fail.
    """
    if len(stages) < 2:
        return _no_verdict(stages)
    h = np.asarray(h, dtype=float)
    h_norm = norm(h)
    norms = np.array([s.norm_u for s in stages])
    med = float(np.median(norms))
    norm_ratio = float(norms.max() / max(med, 1e-300))
    values, witnesses = [], []
    for s in stages:
        if s.norm_u <= 1e-8:
            continue
        u = s.u_a
        q = float(np.dot(evaluate(op, u), u)) / s.norm_u
        ident = abs(q + s.a * s.norm_u - float(np.dot(h, u)) / s.norm_u)
        excess = q - h_norm
        # non-finite if either part is (Python's max would drop a nan excess)
        values.append(max(ident, excess) if math.isfinite(excess) else excess)
        witnesses.append((u, h))
    n_checked = len(values)
    if not norm_ratio <= 10.0:  # a nan ratio fails too
        values, witnesses = [norm_ratio], [(stages[int(np.argmax(norms))].u_a, h)]
    report = sampled_report(values, 1e-8, witnesses,
                            evidence={"max_norm": float(norms.max()), "median_norm": med})
    return replace(report, samples_checked=len(stages) + n_checked)


_MINTY_STEPS = (1e-1, 1e-2, 1e-3)
_MINTY_DIRS = 100


def minty_diagnostic(op: Operator, u, h, seed: int = 0) -> ValidatorReport:
    """Directional test (h - F(u - s*eta), eta) >= -tol over seeded eta, s in _MINTY_STEPS.

    Also evaluates the closing direction eta = h - F(u) and records its
    norm, which is exactly the equation residual ||F(u) - h||.  Fails when
    tol or that norm is not finite.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    tol = 1e-6 * (1.0 + norm(h))
    rng = np.random.default_rng(seed)
    dirs = unit_directions(rng, _MINTY_DIRS, op.dim)
    probes = [(u - s * eta, eta) for s in _MINTY_STEPS for eta in dirs]
    values = [float(np.dot(h - evaluate(op, p), eta)) for p, eta in probes]
    r_norm = norm(h - evaluate(op, u))  # r = h - F(u): (r, r)/||r|| == ||r||
    # a non-finite tol (an overflowing ||h||) or closing value leaves no finite limit: a fail
    limit = -tol if math.isfinite(r_norm) else math.nan
    return sampled_report(values, limit, probes, at_least=True,
                          evidence={"closing_direction_value": r_norm})


def _no_verdict(stages: list[StageResult]) -> ValidatorReport:
    """The failed report of a check that the stages give nothing to measure."""
    return ValidatorReport(passed=False, samples_checked=len(stages), worst_value=math.inf)


def _cauchy_check(stages: list[StageResult], floor: float, aborted: bool) -> ValidatorReport:
    """Successive stage differences shrink over the last three stages; an aborted sweep fails."""
    if aborted:
        return _no_verdict(stages)
    if len(stages) < 3:
        return ValidatorReport(passed=True, samples_checked=len(stages), worst_value=0.0)
    u3, u2, u1 = (s.u_a for s in stages[-3:])
    d_prev = norm(u2 - u3)
    d_last = norm(u1 - u2)
    if d_last <= floor:
        return ValidatorReport(passed=True, samples_checked=3, worst_value=d_last)
    ratio = d_last / max(d_prev, 1e-300)
    return ValidatorReport(passed=ratio <= 1.0 + 1e-9, samples_checked=3, worst_value=ratio)


def verify_solution(op: Operator, u, h, tol: float) -> bool:
    """||F(u) - h|| <= tol."""
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    return norm(evaluate(op, u) - h) <= tol


def run_continuation(
    op: Operator,
    h,
    sched: ContinuationSchedule,
    cfg: FlowConfig,
    minty_seed: int = 0,
    trace_dir=None,
) -> SolveReport:
    """Solve F(u) = h by sweeping the schedule with warm starts.

    With trace_dir set, each stage's trace is written there as
    ``{op.name}_a{a:.3e}.csv`` and the stage's report names that file; two
    stages whose a gives one name raise ValueError before any flow runs.  A
    stage that fails to converge aborts the sweep; the partial report
    records the failed schedule index.
    """
    h = np.asarray(h, dtype=float)
    values = sched.values()
    trace_files = [None] * len(values)
    if trace_dir is not None:
        trace_files = [f"{op.name}_a{a:.3e}.csv" for a in values]
        first: dict[str, int] = {}
        for i, name in enumerate(trace_files):
            if first.setdefault(name, i) != i:
                raise ValueError(f"stages {first[name]} and {i} would both write trace {name}")
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    stages: list[StageResult] = []
    v0 = np.zeros(op.dim)
    failed_stage = None
    for i, (a, trace_file) in enumerate(zip(values, trace_files)):
        sol = integrate_flow(op, a, h, v0, cfg)
        if trace_file is not None:
            trace_to_csv(sol.trace, Path(trace_dir) / trace_file)
        summary = FlowSummary(t_end=sol.trace.records[-1][0], steps=len(sol.trace.records) - 1,
                              terminated_by=sol.trace.terminated_by)
        stages.append(StageResult(a=a, u_a=sol.u_a, residual_eq6=sol.residual,
                                  norm_u=norm(sol.u_a), flow_summary=summary,
                                  trace_file=trace_file))
        if not sol.converged:
            failed_stage = i
            break
        v0 = sol.u_a

    final_u = stages[-1].u_a
    bound = uniform_bound_check(op, h, stages)
    minty = minty_diagnostic(op, final_u, h, seed=minty_seed)
    cauchy = _cauchy_check(stages, 10.0 * cfg.residual_tol / sched.a_min, failed_stage is not None)
    return SolveReport(
        operator_name=op.name,
        dim=op.dim,
        h=h,
        stages=stages,
        final_u=final_u,
        # Minty's closing value ||h - F(u)||, the bits of ||F(u) - h||
        final_residual_eq5=minty.evidence["closing_direction_value"],
        bound_report=bound,
        minty_report=minty,
        cauchy_report=cauchy,
        failed_stage=failed_stage,
    )
