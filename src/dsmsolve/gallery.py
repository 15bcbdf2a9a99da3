"""Operator gallery and hypothesis validators.

Operators are maps F: R^n -> R^n with analytic Jacobians.  An operator
whose F'(u) is diagonal may have its ``jac`` return just the diagonal, an
(n,) vector: the shape is the declaration.  ``jacobian`` gives the dense
n x n matrix, which the validators and the oracle read; the flow asks for
the declared form, so a diagonal is solved without a factorization.  The
validators test monotonicity ((F(u)-F(v), u-v) >= 0) and coercivity
((u, F(u))/||u|| growing without bound) empirically on seeded samples,
returning witnesses on failure.  The gallery ships both positive cases
and deliberate negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .validation import ValidatorReport, norm, sampled_report, unit_directions

Array = np.ndarray


class DimensionMismatchError(ValueError):
    """Input vector dimension does not match the operator's."""


class NumericalEvaluationError(ArithmeticError):
    """Operator evaluation produced non-finite values."""


@dataclass(frozen=True)
class Operator:
    """A nonlinear map, its analytic Jacobian and advisory metadata.

    The declared_* flags state what the constructor believes; validators
    test those claims empirically and may falsify them.
    """

    name: str
    dim: int
    fn: Callable[[Array], Array]
    jac: Callable[[Array], Array]
    declared_monotone: bool = False
    declared_strictly_monotone: bool = False
    declared_coercive: bool = False


_MONOTONE_TOL = 1e-10
_MONOTONE_PAIRS = 500
_MONOTONE_RADIUS = 5.0
_COERCIVE_RADII = (1.0, 10.0, 100.0)
_COERCIVE_DIRS = 32


def _as_vector(u, dim: int) -> Array:
    v = np.asarray(u, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected vector of dim {dim}, got shape {v.shape}"
        )
    return v


def evaluate(op: Operator, u) -> Array:
    """Apply F to u (dimension-checked)."""
    v = _as_vector(u, op.dim)
    out = np.asarray(op.fn(v), dtype=float)
    if out.shape != (op.dim,):
        raise DimensionMismatchError(
            f"{op.name} returned shape {out.shape}, expected ({op.dim},)"
        )
    return out


def jacobian(op: Operator, u, *, dense: bool = True) -> Array:
    """F'(u) from the operator's analytic Jacobian (dimension-checked).

    A ``jac`` may return the (n, n) matrix or, for a diagonal F'(u), its (n,)
    diagonal.  By default a diagonal is expanded to the dense matrix;
    ``dense=False`` returns the Jacobian in the form the operator declared.
    """
    J = np.asarray(op.jac(_as_vector(u, op.dim)), dtype=float)
    if J.shape == (op.dim,):
        return np.diag(J) if dense else J
    if J.shape != (op.dim, op.dim):
        raise DimensionMismatchError(
            f"{op.name} Jacobian has shape {J.shape}, expected ({op.dim},) or ({op.dim}, {op.dim})"
        )
    return J


def _ball_sample(rng: np.random.Generator, dim: int, radius: float) -> Array:
    # uniform in the ball: direction * R * U^(1/dim)
    d = rng.standard_normal(dim)
    n = norm(d)
    if n == 0.0:
        return np.zeros(dim)
    return d / n * radius * rng.uniform() ** (1.0 / dim)


def check_monotone(op: Operator, sampler_seed: int) -> ValidatorReport:
    """Sampled test of (F(u)-F(v), u-v) >= -_MONOTONE_TOL on pairs in a ball."""
    rng = np.random.default_rng(sampler_seed)
    draw = lambda: _ball_sample(rng, op.dim, _MONOTONE_RADIUS)
    pairs = [(draw(), draw()) for _ in range(_MONOTONE_PAIRS)]  # (u, v), u drawn first
    pairings = [float(np.dot(evaluate(op, u) - evaluate(op, v), u - v)) for u, v in pairs]
    return sampled_report(pairings, -_MONOTONE_TOL, pairs, at_least=True)


def check_coercive(op: Operator, directions_seed: int) -> ValidatorReport:
    """Growth test of q(r,d) = (u, F(u))/||u|| along rays u = r*d, r in _COERCIVE_RADII.

    Probes the +-coordinate axes plus _COERCIVE_DIRS seeded random unit
    directions; passes iff min_d q(r,d) is strictly increasing in r and
    grows by at least a factor 2 from the smallest to the largest
    radius.  A finite-radius proxy for the true limit condition.
    """
    rng = np.random.default_rng(directions_seed)
    axes = np.vstack([np.eye(op.dim), -np.eye(op.dim)])
    dirs = np.vstack([axes, unit_directions(rng, _COERCIVE_DIRS, op.dim)])
    q_min = []
    for r in _COERCIVE_RADII:
        qs = np.array([float(np.dot(r * d, evaluate(op, r * d))) / r for d in dirs])
        k = int(np.argmin(qs))
        q_min.append(float(qs[k]))
    increasing = all(b > a for a, b in zip(q_min, q_min[1:]))
    doubled = q_min[-1] >= 2.0 * q_min[0]
    passed = increasing and doubled
    u_worst = _COERCIVE_RADII[-1] * dirs[k]  # the minimizer at the largest radius
    return ValidatorReport(
        passed=passed,
        samples_checked=len(_COERCIVE_RADII) * len(dirs),
        worst_value=q_min[-1],
        witness=None if passed else (u_worst, evaluate(op, u_worst)),
        evidence={f"q_min_r{r:g}": q for r, q in zip(_COERCIVE_RADII, q_min)},
    )


# ---------------------------------------------------------------------------
# Gallery members


def _tridiag(n: int, lower: float, diag: float, upper: float) -> Array:
    M = diag * np.eye(n)
    idx = np.arange(n - 1)
    M[idx + 1, idx], M[idx, idx + 1] = lower, upper
    return M


def _scalar_cubic() -> Operator:
    return Operator(
        name="scalar_cubic",
        dim=1,
        fn=lambda u: u**3,
        # the scalar power: u**2 on the array squares, which can differ by 1 ulp
        jac=lambda u: np.array([3.0 * u[0] ** 2]),
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


def _scalar_affine_sin() -> Operator:
    return Operator(
        name="scalar_affine_sin",
        dim=1,
        fn=lambda u: 2.0 * u + np.sin(u),
        jac=lambda u: 2.0 + np.cos(u),
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


def _identity(n: int) -> Operator:
    return Operator(
        name="identity",
        dim=n,
        fn=lambda u: u.copy(),
        jac=lambda u: np.ones(len(u)),
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


def _spd_tridiag(n: int) -> Operator:
    M = _tridiag(n, -1.0, 2.0, -1.0)
    return Operator(
        name="spd_tridiag",
        dim=n,
        fn=lambda u: M @ u,
        jac=lambda u: M.copy(),
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


def _convex_gradient(n: int) -> Operator:
    return Operator(
        name="convex_gradient",
        dim=n,
        fn=lambda u: u**3 + u,
        jac=lambda u: 3.0 * u**2 + 1.0,
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


def _skew_plus_cubic(n: int) -> Operator:
    A = _tridiag(n, -1.0, 2.0, -1.0) + _tridiag(n, -1.0, 0.0, 1.0)  # SPD plus skew
    return Operator(
        name="skew_plus_cubic",
        dim=n,
        fn=lambda u: A @ u + u**3,
        jac=lambda u: A + np.diag(3.0 * u**2),
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


def _rank_one_projector(n: int) -> Operator:
    # P = e e^T, e the first basis vector: monotone but flat on e-perp, so non-coercive
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    return Operator(
        name="rank_one_projector",
        dim=n,
        fn=lambda u: P @ u,
        jac=lambda u: P.copy(),
        declared_monotone=True,
        declared_strictly_monotone=False,
        declared_coercive=False,
    )


def _scalar_negation() -> Operator:
    return Operator(
        name="scalar_negation",
        dim=1,
        fn=lambda u: -u,
        jac=lambda u: -np.ones(1),
        declared_monotone=False,
        declared_strictly_monotone=False,
        declared_coercive=False,
    )


_SCALAR_FACTORIES = {
    "scalar_cubic": _scalar_cubic,
    "scalar_affine_sin": _scalar_affine_sin,
    "scalar_negation": _scalar_negation,
}

_VECTOR_FACTORIES = {
    "identity": _identity,
    "spd_tridiag": _spd_tridiag,
    "convex_gradient": _convex_gradient,
    "skew_plus_cubic": _skew_plus_cubic,
    "rank_one_projector": _rank_one_projector,
}

GALLERY_NAMES = tuple(_SCALAR_FACTORIES) + tuple(_VECTOR_FACTORIES)


def make_operator(name: str, dim: int = 5) -> Operator:
    """Gallery member by name; scalar members ignore dim (forced to 1)."""
    if name in _SCALAR_FACTORIES:
        return _SCALAR_FACTORIES[name]()
    if name in _VECTOR_FACTORIES:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if name == "skew_plus_cubic" and dim < 2:
            # the skew part needs at least one off-diagonal pair
            return _VECTOR_FACTORIES[name](2)
        return _VECTOR_FACTORIES[name](dim)
    raise KeyError(f"unknown operator {name!r}; known: {', '.join(GALLERY_NAMES)}")


def make_gallery(dim: int = 5) -> list[Operator]:
    """All gallery members, vector-valued ones instantiated at dim."""
    return [make_operator(name, dim) for name in GALLERY_NAMES]
