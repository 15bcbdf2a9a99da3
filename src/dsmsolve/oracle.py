"""Independent cross-check solvers for F(u) = h.

Deliberately disjoint from the flow machinery: plain damped Newton with
numpy's solver, and bisection in one dimension.  Used only to validate
continuation results.
"""

from __future__ import annotations

import numpy as np

from .gallery import Operator, evaluate, jacobian

__all__ = ["damped_newton", "bisection_1d", "oracle_solve", "OracleFailure"]


_TOL = 1e-12  # residual for Newton, bracket width for bisection
_MAX_ITER = 200
_BRACKET_CAP = 1e12


class OracleFailure(RuntimeError):
    """The cross-check solver did not converge."""


def damped_newton(op: Operator, h, x0=None) -> np.ndarray:
    """Newton iteration with backtracking line search on ||F(x) - h||."""
    h = np.asarray(h, dtype=float)
    x = np.zeros(op.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = evaluate(op, x) - h
    rnorm = np.linalg.norm(r)
    for _ in range(_MAX_ITER):
        if rnorm <= _TOL:
            return x
        J = jacobian(op, x)
        try:
            d = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise OracleFailure(f"singular Jacobian for {op.name}") from exc
        lam = 1.0
        while lam > 1e-12:
            x_new = x + lam * d
            r_new = evaluate(op, x_new) - h
            if np.linalg.norm(r_new) < rnorm * (1.0 - 1e-4 * lam):
                break
            lam *= 0.5
        else:
            raise OracleFailure(f"line search stalled for {op.name} at residual {rnorm:.3e}")
        x, r, rnorm = x_new, r_new, np.linalg.norm(r_new)
    if rnorm <= _TOL:
        return x
    raise OracleFailure(f"no convergence for {op.name}: residual {rnorm:.3e}")


def bisection_1d(op: Operator, h) -> np.ndarray:
    """Root of F(x) = h for scalar operators by bracketing + bisection."""
    if op.dim != 1:
        raise ValueError("bisection oracle is one-dimensional")
    target = float(np.asarray(h, dtype=float)[0])
    f = lambda x: float(evaluate(op, np.array([x]))[0]) - target
    r = 1.0
    while f(-r) > 0 or f(r) < 0:
        r *= 2.0
        if r > _BRACKET_CAP:
            raise OracleFailure("could not bracket a root (operator not coercive?)")
    lo, hi = -r, r
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < _TOL:
            return np.array([mid])
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return np.array([0.5 * (lo + hi)])


def oracle_solve(op: Operator, h) -> np.ndarray:
    """Damped Newton, falling back to bisection for scalar operators."""
    try:
        return damped_newton(op, h)
    except OracleFailure:
        if op.dim == 1:
            return bisection_1d(op, h)
        raise
