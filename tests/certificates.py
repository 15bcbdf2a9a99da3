"""Sampled certificates and references that only the tests use.

``inv_norm_bound_check`` probes the resolvent bound ||(A+aI)^-1|| <= 1/a that
monotonicity buys; ``check_uniqueness`` flows from several starts and checks
that the limits agree; both score through ``sampled_report``.  ``fd_jacobian``
is the central-difference reference for the gallery's analytic Jacobians.
None is part of the solve pipeline.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from dsmsolve import ValidatorReport, evaluate, integrate_flow, solve_regularized
from dsmsolve.validation import sampled_report, unit_directions


def fd_jacobian(op, u):
    """F'(u) by central differences, with step 1e-6 * (1 + |u_j|) per coordinate."""
    v = np.asarray(u, dtype=float)
    J = np.empty((op.dim, op.dim))
    for j in range(op.dim):
        h = 1e-6 * (1.0 + abs(v[j]))
        e = np.zeros(op.dim)
        e[j] = h
        J[:, j] = (evaluate(op, v + e) - evaluate(op, v - e)) / (2.0 * h)
    assert np.isfinite(J).all(), f"non-finite Jacobian entries for {op.name} at {v}"
    return J


def inv_norm_bound_check(A, a: float, n_probes: int, seed: int) -> ValidatorReport:
    """Probe ||(A+aI)^-1 w|| <= 1/a, as a*||x|| <= 1 + 1e-10*a, on seeded unit vectors w."""
    A = np.asarray(A, dtype=float)
    probes = unit_directions(np.random.default_rng(seed), n_probes, A.shape[0])
    pairs = [(w, solve_regularized(A, a, w)) for w in probes]
    return sampled_report([a * float(np.linalg.norm(x)) for _, x in pairs], 1.0 + 1e-10 * a, pairs)


def check_uniqueness(op, a: float, h, starts, cfg) -> ValidatorReport:
    """Flow from several starts; all limits must agree within 10*residual_tol/a."""
    if len(starts) < 2:
        raise ValueError("need at least 2 starts")
    sols = []
    for v0 in starts:
        sol = integrate_flow(op, a, h, v0, cfg)
        if not sol.converged:
            return ValidatorReport(passed=False, samples_checked=len(sols), worst_value=math.inf,
                                   witness=(np.asarray(v0, dtype=float), sol.u_a))
        sols.append(sol.u_a)
    pairs = list(itertools.combinations(sols, 2))
    report = sampled_report([float(np.linalg.norm(u - v)) for u, v in pairs],
                            10.0 * cfg.residual_tol / a, pairs)
    return replace(report, samples_checked=len(starts))
