"""Regularized Newton-type flow for fixed a.

Integrates  v' = -(F'(v) + aI)^-1 [F(v) + a v - h]  with an adaptive
embedded Dormand-Prince 4(5) pair.  Along the exact flow the residual
norm g(t) = ||F(v)+av-h|| obeys g(t) = g(0) e^-t regardless of F, the
velocity obeys ||v'|| <= (g(0)/a) e^-t, and the tail obeys
||v(t)-v(inf)|| <= (g(0)/a) e^-t.  The verifiers below check a computed
trace against all three laws, so integrator error is directly visible.

The pair is "first same as last": its 7th stage is evaluated at the new
5th-order solution.  That one evaluation gives an accepted point, its
residual g and its velocity norm ||v'||, and its velocity is the next
step's first stage, so each point of the flow is evaluated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gallery import NumericalEvaluationError, Operator, evaluate, jacobian
from .linalg import SingularSystemError, check_a, solve_regularized
from .validation import ValidatorReport, norm, sampled_report

__all__ = [
    "FlowConfig",
    "FlowTrace",
    "RegularizedSolution",
    "MonotoneBoundError",
    "residual",
    "dsm_rhs",
    "integrate_flow",
    "verify_decay",
    "verify_vdot_bound",
    "verify_tail_bound",
    "trace_to_csv",
    "trace_from_csv",
    "TRACE_CSV_HEADER",
]

TRACE_CSV_HEADER = "t,g,g_theory,vdot_norm,vdot_bound,step_size"


class MonotoneBoundError(ArithmeticError):
    """||v'|| exceeded g/a: the operator is not monotone at this point."""


@dataclass(frozen=True)
class FlowConfig:
    residual_tol: float = 1e-10

    def __post_init__(self):
        if not self.residual_tol > 0:  # also rejects nan, which would leave no horizon
            raise ValueError("tolerances must be positive")


@dataclass
class FlowTrace:
    a: float
    g0: float
    # rows (t, g, vdot_norm, step_size), one per accepted step: what the flow measured.
    # The laws g_theory and vdot_bound are recomputed from t, g0 and a by laws(t), so a
    # replayed file cannot vouch for itself.
    records: list[tuple[float, float, float, float]] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)  # v(t) per record, not serialized
    terminated_by: str = "max_time_reached"

    def __post_init__(self):  # here, so a replayed trace's --a is checked too
        check_a(self.a)

    def laws(self, t: float) -> tuple[float, float]:
        """(g0 e^-t, (g0/a) e^-t): the residual law and the velocity and tail bound at t."""
        return self.g0 * math.exp(-t), self.g0 / self.a * math.exp(-t)

    def append(self, t: float, v: np.ndarray, g: float, vdot_norm: float, step: float):
        self.records.append((t, g, vdot_norm, step))
        self.states.append(v.copy())


@dataclass(frozen=True)
class RegularizedSolution:
    u_a: np.ndarray
    trace: FlowTrace  # holds a; its last record's g is the residual at u_a

    @property
    def residual(self) -> float:
        return self.trace.records[-1][1]

    @property
    def converged(self) -> bool:
        return self.trace.terminated_by == "residual_tol_reached"


def residual(op: Operator, a: float, h, v) -> float:
    """||F(v) + a v - h||."""
    check_a(a)
    h = np.asarray(h, dtype=float)
    v = np.asarray(v, dtype=float)
    return norm(evaluate(op, v) + a * v - h)


def dsm_rhs(op: Operator, a: float, h, v) -> tuple[np.ndarray, float, float]:
    """(v', g, ||v'||) with v' = -(F'(v) + aI)^-1 [F(v) + a v - h], g = ||F(v) + a v - h||,
    and the velocity bound ||v'|| <= g/a asserted."""
    check_a(a)
    h = np.asarray(h, dtype=float)
    v = np.asarray(v, dtype=float)
    r = evaluate(op, v) + a * v - h
    g = norm(r)
    if not math.isfinite(g):
        raise NumericalEvaluationError(f"non-finite residual norm for {op.name} at a={a:g}")
    w = -solve_regularized(jacobian(op, v, dense=False), a, r)
    wnorm = norm(w)
    if not math.isfinite(wnorm):
        raise NumericalEvaluationError(f"non-finite velocity for {op.name} at a={a:g}")
    if wnorm > (g / a) * (1.0 + _VDOT_SLACK) + 1e-300:
        raise MonotoneBoundError(
            f"||v'|| = {wnorm:.6e} > g/a = {g / a:.6e} at a flow point; "
            f"{op.name} is not monotone there"
        )
    return w, g, wnorm


# Dormand-Prince 4(5) tableau; 5th-order solution propagated, FSAL: the last
# row of _DP_A holds the 5th-order weights b5, so stage 7 is evaluated at the
# new solution.  The 4th-order weights b4 enter only through the error
# weights _DP_E = b5 - b4, written out with b4 as the subtrahends.
_DP_A = [
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
]
_DP_E = np.array((35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640,
                  -2187 / 6784 + 92097 / 339200, 11 / 84 - 187 / 2100, -1 / 40))

_ODE_REL_TOL = 1e-8  # local error per unit time, relative to max(||v||, 1)
_HORIZON_MARGIN = 5.0  # the flow stops at t = ln(g0) - ln(residual_tol) + this margin
_INITIAL_STEP = 1e-2
_MIN_STEP = 1e-12
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# landing margin past the predicted time-to-tolerance, so the final
# accepted step ends just below residual_tol
_LANDING = 0.05
# decay-law budget |g - g0 e^-t| <= _DECAY_FACTOR * _ODE_REL_TOL * g0, and the
# relative slack of the velocity and tail bounds
_DECAY_FACTOR = 100.0
_VDOT_SLACK = 1e-6
_TAIL_SLACK = 1e-3
# an exception from the rhs ends the stage with this terminated_by reason
_STAGE_STOPS = (SingularSystemError, MonotoneBoundError)


def _stop_reason(exc: ArithmeticError) -> str:
    return "solver_error" if isinstance(exc, SingularSystemError) else "monotone_bound_violated"


# Largest step h with |R(-h) - e^-h| <= _ODE_REL_TOL * h, R the 5th-order
# stability function (tests/test_flow.py recomputes it by bisection).  The
# residual vector contracts exactly like e^-t along the flow, so an accepted
# step multiplies it by R(-h).  The embedded error estimate shrinks with the
# residual, so late in the flow it stops constraining the step, and the
# controller would otherwise keep growing h, by up to _MAX_FACTOR per step,
# until the per-step relative defect |R(-h) - e^-h| dwarfs _ODE_REL_TOL.
# Capping h keeps the relative residual drift at _ODE_REL_TOL per unit time
# over the whole trace.
_STEP_CAP = 0.12700798380468048


def integrate_flow(
    op: Operator, a: float, h, v0, cfg: FlowConfig
) -> RegularizedSolution:
    """Follow the flow from v0 until g <= residual_tol or the horizon.

    Accepted steps land exactly on t = 1 when the flow crosses it, so a
    trace record at t = 1 is always available for the decay-law check.
    """
    h_vec = np.asarray(h, dtype=float)
    v = np.asarray(v0, dtype=float).copy()

    stop = None
    try:
        k1, g, vdot_norm = dsm_rhs(op, a, h_vec, v)
    except _STAGE_STOPS as exc:  # no g from the rhs: the one residual() call
        stop, g, vdot_norm = _stop_reason(exc), residual(op, a, h_vec, v), math.nan
    trace = FlowTrace(a=a, g0=g)
    trace.append(0.0, v, g, vdot_norm, 0.0)
    if stop is not None or g <= cfg.residual_tol:
        trace.terminated_by = stop or "residual_tol_reached"
        return RegularizedSolution(u_a=v, trace=trace)

    # a difference of logs, as g / residual_tol overflows for g > ~1.8e298 at 1e-10
    max_time = math.log(g) - math.log(cfg.residual_tol) + _HORIZON_MARGIN
    t = 0.0
    step = _INITIAL_STEP
    err_prev = 1.0
    n = v.shape[0]
    while True:
        # clamp the attempted step: global cap, horizon, t=1 checkpoint,
        # and the predicted landing time ln(g/tol) + margin
        step = min(step, _STEP_CAP, max_time - t)
        if t < 1.0 < t + step:
            step = 1.0 - t
        step = min(step, math.log(g / cfg.residual_tol) + _LANDING)  # > 0, as g > tol here
        if step < _MIN_STEP:
            trace.terminated_by = "step_underflow"
            break

        try:
            k = np.empty((7, n))
            k[0] = k1
            for i in range(1, 7):
                vi = v + step * (_DP_A[i] @ k[:i])
                k[i], gi, vdot_norm = dsm_rhs(op, a, h_vec, vi)
            err_vec = step * (_DP_E @ k)
        except _STAGE_STOPS as exc:
            trace.terminated_by = _stop_reason(exc)
            break

        # FSAL: the loop ends on stage 7, at the 5th-order solution vi
        scale = _ODE_REL_TOL * step * max(norm(vi), 1.0)
        err = norm(err_vec) / scale
        if err <= 1.0:
            t += step
            v, g, k1 = vi, gi, k[6]
            trace.append(t, v, g, vdot_norm, step)
            # PI controller (order-5 exponents)
            err = max(err, 1e-10)
            factor = _SAFETY * err ** -0.14 * err_prev**0.08
            err_prev = err
            step *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if g <= cfg.residual_tol:
                trace.terminated_by = "residual_tol_reached"
                break
            if t >= max_time - 1e-14:
                trace.terminated_by = "max_time_reached"
                break
        else:
            step *= max(_MIN_FACTOR, _SAFETY * err**-0.2)

    return RegularizedSolution(u_a=v, trace=trace)


def _ratio(value: float, bound: float) -> float:
    """value / bound; inf if either is negative, as no genuine trace has a negative
    value or law; against a zero bound (a flow that starts at the solution) 0 or inf."""
    if value < 0.0 or bound < 0.0:  # a nan compares false and falls through
        return math.inf
    return value / bound if bound else (0.0 if value == 0.0 else math.inf)


def verify_decay(trace: FlowTrace) -> ValidatorReport:
    """Check |g(t) - g0 e^-t| <= _DECAY_FACTOR * _ODE_REL_TOL * g0 on every record."""
    if not trace.records:
        raise ValueError("empty trace")
    budget = _DECAY_FACTOR * _ODE_REL_TOL * trace.g0
    return sampled_report(
        [_ratio(abs(g - trace.laws(t)[0]), budget) for t, g, *_ in trace.records], 1.0
    )


def verify_vdot_bound(trace: FlowTrace) -> ValidatorReport:
    """Check ||v'|| <= (g0/a) e^-t (1 + _VDOT_SLACK) on every record."""
    if not trace.records:
        raise ValueError("empty trace")
    return sampled_report(
        [_ratio(vdot_norm, trace.laws(t)[1]) for t, _, vdot_norm, _ in trace.records],
        1.0 + _VDOT_SLACK,
    )


def verify_tail_bound(trace: FlowTrace, u_a) -> ValidatorReport:
    """Check ||v(t) - u_a|| <= (g0/a) e^-t (1 + _TAIL_SLACK), u_a standing in for v(inf)."""
    if not trace.records or len(trace.states) != len(trace.records):
        raise ValueError("trace must carry states (not available after CSV round-trip)")
    u_a = np.asarray(u_a, dtype=float)
    return sampled_report(
        [_ratio(norm(v - u_a), trace.laws(t)[1])
         for (t, *_), v in zip(trace.records, trace.states)],
        1.0 + _TAIL_SLACK,
    )


def trace_to_csv(trace: FlowTrace, path) -> None:
    lines = [TRACE_CSV_HEADER]
    for t, g, vdot_norm, step in trace.records:
        g_theory, vdot_bound = trace.laws(t)
        lines.append(",".join(f"{x:.17g}" for x in (t, g, g_theory, vdot_norm, vdot_bound, step)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def trace_from_csv(path, a: float) -> FlowTrace:
    """Rebuild a trace (without states or laws) from its CSV serialization."""
    with open(path) as f:
        header = f.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        records = []
        for line in f:
            line = line.strip()
            if not line:
                continue
            vals = tuple(float(x) for x in line.split(","))
            if len(vals) != len(TRACE_CSV_HEADER.split(",")):
                raise ValueError(f"malformed trace row {line!r}")
            t, g, _, vdot_norm, _, step = vals
            records.append((t, g, vdot_norm, step))
    if not records:
        raise ValueError("empty trace file")
    return FlowTrace(a=a, g0=records[0][1], records=records, states=[])
