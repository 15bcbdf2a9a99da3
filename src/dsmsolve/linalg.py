"""Dense kernels for the regularized systems (A + aI)x = rhs.

Monotonicity of the underlying map makes A positive semidefinite in the
symmetric-part sense, which gives ||(A+aI)^-1|| <= 1/a.  That bound is
certified here probabilistically with probe vectors.

A + aI is factored by LAPACK getrf/getrs, called directly.  The tiny-pivot
check (SingularSystemError) also covers an exactly zero pivot (getrf info > 0).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .gallery import NumericalEvaluationError
from .validation import ValidatorReport, unit_directions


class SingularSystemError(np.linalg.LinAlgError):
    """A + aI numerically singular; evidence against monotonicity of F.

    Carries the offending pivot magnitude.
    """

    def __init__(self, pivot: float):
        super().__init__(f"regularized system numerically singular (min pivot {pivot:.3e})")
        self.pivot = pivot


def _factor_regularized(A: np.ndarray, a: float):
    if a <= 0:
        raise ValueError("regularization parameter a must be positive")
    Aa = A + a * np.eye(A.shape[0])
    if not np.all(np.isfinite(Aa)):
        raise NumericalEvaluationError("non-finite matrix entries")
    tiny = np.finfo(float).eps * max(1.0, float(np.abs(Aa).max())) * Aa.shape[0]
    lu, piv, _ = dgetrf(Aa)
    pivot = float(np.abs(np.diag(lu)).min())
    if pivot <= tiny:
        raise SingularSystemError(pivot)
    return lu, piv


def solve_regularized(A: np.ndarray, a: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + aI)x = rhs by LU with partial pivoting."""
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} incompatible with rhs dim {n}")
    return dgetrs(*_factor_regularized(A, a), rhs)[0]


def min_sym_eig(A: np.ndarray) -> float:
    """Minimum eigenvalue of the symmetric part (A + A^T)/2."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entries")
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])


def inv_norm_bound_check(
    A: np.ndarray, a: float, n_probes: int, seed: int
) -> ValidatorReport:
    """Probe ||(A+aI)^-1 w|| <= 1/a on seeded unit vectors w."""
    lu, piv = _factor_regularized(np.asarray(A, dtype=float), a)
    probes = unit_directions(np.random.default_rng(seed), n_probes, lu.shape[0])
    worst = -np.inf
    witness = None
    for w in probes:
        x = dgetrs(lu, piv, w)[0]
        xnorm = float(np.linalg.norm(x))
        if a * xnorm > worst:
            worst = a * xnorm
            witness = (w, x)
    passed = worst / a <= 1.0 / a + 1e-10
    return ValidatorReport(
        passed=passed,
        samples_checked=n_probes,
        worst_value=worst,
        witness=None if passed else witness,
    )
