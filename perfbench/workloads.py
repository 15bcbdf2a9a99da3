"""Workloads, seeded inputs and the grading of each benchmark operation.

An operation is either one certified solve (``small_dense``,
``large_dim``) or one operator audit (``audit``).  Every operation is
graded ``certified``, ``rejected_as_expected`` (negative controls) or
``failed`` with a reason.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dsmsolve import cli, continuation, flow, oracle
from dsmsolve.flow import FlowTrace
from dsmsolve.gallery import GALLERY_NAMES, Operator, make_operator

# certified solve: the acceptance schedule, default FlowConfig, graded as
# `dsmsolve solve --oracle --tol 1e-5` grades it
SCHEDULE = continuation.ContinuationSchedule(a0=1.0, decay_factor=0.1, a_min=1e-9)
TOL = 1e-5
H_CAP = 10.0  # targets are Gaussian with ||h|| capped here
AUDIT_TRACE_A = 0.5  # regularization of the flow trace each audit writes and replays

# Failures the program is known to produce today.  They still count in
# `failed` and in the failure fraction; only a failure outside this table
# makes a run incorrect.  spd_tridiag at n=200 passes its own four
# certificates but lands 4e-3..8e-3 from the oracle: the final residual
# (~1.8e-6) is amplified by ||M^-1|| ~ 4e3, and the Cauchy floor
# 10*residual_tol/a_min = 1.0 cannot see the gap.
KNOWN_FAILURES = {("spd_tridiag", 200): "oracle_distance"}

CERTIFIED = "certified"
REJECTED = "rejected_as_expected"
FAILED = "failed"


@dataclass(frozen=True)
class Workload:
    kind: str  # "solve" or "audit"
    configs: tuple[tuple[str, int], ...]  # (operator, dim); the first one also warms up
    trace_cycles: int  # rounds of `configs` in a traced run
    host_scaled: bool  # end-to-end times scaled to the reference host speed, see hostspeed.py


_SMALL = ("identity", "spd_tridiag", "convex_gradient", "skew_plus_cubic", "rank_one_projector")

WORKLOADS = {
    "small_dense": Workload(
        kind="solve",
        configs=(("scalar_cubic", 1), ("scalar_affine_sin", 1))
        + tuple((name, n) for n in (5, 20) for name in _SMALL),
        trace_cycles=1,
        host_scaled=True,
    ),
    "large_dim": Workload(
        kind="solve",
        configs=(("skew_plus_cubic", 200), ("convex_gradient", 200), ("spd_tridiag", 200)),
        trace_cycles=1,
        host_scaled=False,
    ),
    "audit": Workload(
        kind="audit",
        configs=tuple((name, n) for n in (5, 20) for name in GALLERY_NAMES),
        trace_cycles=16,
        host_scaled=True,
    ),
}


def draw_input(seed: int, workload: str, index: int, cycle: int, dim: int):
    """Target h (||h|| <= H_CAP) and an auxiliary seed for one operation.

    ``cycle`` -1 is the warm-up input, -2 the audit trace target.
    """
    wl = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, wl, index, cycle + 2])
    h = rng.standard_normal(dim)
    norm = float(np.linalg.norm(h))
    if norm > H_CAP:
        h *= H_CAP / norm
    return h, int(rng.integers(1, 2**31))


@dataclass
class Case:
    """One (operator, dim) configuration with what its audit needs."""

    name: str
    dim: int
    op: Operator
    negative_control: bool
    trace: FlowTrace | None = None  # audit: flow trace made during set-up
    trace_csv: Path | None = None
    replay_expected: int = 0  # audit: exit code `flow --replay` must give


def build_cases(seed: int, workload: str, work_dir: Path) -> list[Case]:
    """Operators, plus for `audit` one flow trace per configuration."""
    wl = WORKLOADS[workload]
    cases = []
    for i, (name, n) in enumerate(wl.configs):
        op = make_operator(name, n)
        case = Case(
            name=name,
            dim=n,
            op=op,
            negative_control=not (op.declared_monotone and op.declared_coercive),
        )
        if wl.kind == "audit":
            h, _ = draw_input(seed, workload, i, -2, op.dim)
            sol = flow.integrate_flow(op, AUDIT_TRACE_A, h, np.zeros(op.dim), flow.FlowConfig())
            case.trace = sol.trace
            case.trace_csv = work_dir / f"trace_{i:02d}_{name}.csv"
            sound = flow.verify_decay(sol.trace).passed and flow.verify_vdot_bound(sol.trace).passed
            case.replay_expected = 0 if sound else 1
        cases.append(case)
    return cases


def round_inputs(seed: int, workload: str, cases: list[Case], cycle: int) -> list[tuple]:
    """One round: (case, h, aux_seed) for every configuration."""
    return [(c, *draw_input(seed, workload, i, cycle, c.op.dim)) for i, c in enumerate(cases)]


@dataclass
class Outcome:
    status: str
    reason: str = ""
    solution: bytes = b""  # final solution bytes, for the determinism check


def certified_solve(case: Case, h: np.ndarray) -> Outcome:
    op = case.op
    report = continuation.run_continuation(op, h, SCHEDULE, flow.FlowConfig())
    try:
        dist = float(np.linalg.norm(report.final_u - oracle.oracle_solve(op, h)))
        oracle_reason = "oracle_distance"
    except oracle.OracleFailure:
        dist, oracle_reason = math.inf, "oracle_failure"
    solution = np.asarray(report.final_u, dtype=float).tobytes()
    if case.negative_control:
        # a non-coercive operator must fail its uniform-bound certificate
        if report.bound_report.passed:
            return Outcome(FAILED, "negative_control_certified", solution)
        return Outcome(REJECTED, "", solution)
    checks = (
        ("stage_failed", report.failed_stage is None),
        ("residual", report.final_residual_eq5 <= TOL),
        ("bound", report.bound_report.passed),
        ("minty", report.minty_report.passed),
        ("cauchy", report.cauchy_report.passed),
        (oracle_reason, dist <= TOL),
    )
    for reason, ok in checks:
        if not ok:
            return Outcome(FAILED, reason, solution)
    return Outcome(CERTIFIED, "", solution)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def operator_audit(case: Case, h: np.ndarray, aux_seed: int) -> Outcome:
    op = case.op
    verify_rc = _cli(
        ["verify", "--operator", case.name, "--dim", str(case.dim), "--seed", str(aux_seed)]
    )
    try:
        u = oracle.oracle_solve(op, h)
        solved = True
        minty_ok = continuation.minty_diagnostic(op, u, h).passed
        residual_ok = continuation.verify_solution(op, u, h, TOL)
        solution = np.asarray(u, dtype=float).tobytes()
    except oracle.OracleFailure:
        solved = minty_ok = residual_ok = False
        solution = b""
    flow.trace_to_csv(case.trace, case.trace_csv)
    replay_rc = _cli(["flow", "--a", repr(AUDIT_TRACE_A), "--replay", str(case.trace_csv)])
    if replay_rc != case.replay_expected:
        return Outcome(FAILED, "replay_verdict", solution)
    if case.negative_control:
        if verify_rc == 1 and not (solved and minty_ok):
            return Outcome(REJECTED, "", solution)
        return Outcome(FAILED, "negative_control_certified", solution)
    checks = (
        ("verify_verdict", verify_rc == 0),
        ("oracle_failure", solved),
        ("minty", minty_ok),
        ("residual", residual_ok),
    )
    for reason, ok in checks:
        if not ok:
            return Outcome(FAILED, reason, solution)
    return Outcome(CERTIFIED, "", solution)


def run_operation(workload: str, case: Case, h: np.ndarray, aux_seed: int) -> Outcome:
    """One graded operation; an escaped exception is a failure, not a crash."""
    try:
        if WORKLOADS[workload].kind == "audit":
            return operator_audit(case, h, aux_seed)
        return certified_solve(case, h)
    except Exception as exc:  # the benchmark must grade every operation
        return Outcome(FAILED, f"exception:{type(exc).__name__}")

