"""Property-based checks of the algebraic invariants the solver leans on."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmsolve import (
    ContinuationSchedule,
    FlowConfig,
    check_coercive,
    check_monotone,
    evaluate,
    make_operator,
    min_sym_eig,
    residual,
    run_continuation,
    SingularSystemError,
    solve_regularized,
)
from dsmsolve.gallery import NumericalEvaluationError, Operator
from dsmsolve.validation import sampled_report

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return arrays(np.float64, (dim,), elements=finite)


@given(x=finite, y=finite)
def test_scalar_cubic_pairing_nonnegative(x, y):
    op = make_operator("scalar_cubic")
    fx = evaluate(op, [x])[0]
    fy = evaluate(op, [y])[0]
    # tiny slack for last-ulp rounding when x and y are very close
    assert (fx - fy) * (x - y) >= -1e-12 * max(1.0, abs(fx) + abs(fy))


@given(u=vectors(4), v=vectors(4))
def test_convex_gradient_pairing_nonnegative(u, v):
    op = make_operator("convex_gradient", 4)
    pairing = np.dot(evaluate(op, u) - evaluate(op, v), u - v)
    scale = float(np.linalg.norm(u - v)) * (1.0 + np.linalg.norm(u) + np.linalg.norm(v)) ** 3
    assert pairing >= -1e-10 * max(1.0, scale)


@given(
    A=arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
    rhs=arrays(np.float64, (4,), elements=st.floats(-5, 5)),
    a=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=50)
def test_psd_shift_respects_inverse_bound(A, rhs, a):
    """||(B + aI)^-1 rhs|| <= ||rhs||/a whenever B has PSD symmetric part."""
    B = A @ A.T + 0.5 * (A - A.T)  # PSD symmetric part plus a skew part
    x = solve_regularized(B, a, rhs)
    assert np.linalg.norm(x) <= np.linalg.norm(rhs) / a * (1 + 1e-8) + 1e-12


@given(A=arrays(np.float64, (5, 5), elements=st.floats(-10, 10)))
@settings(max_examples=100)
def test_min_sym_eig_symmetrization(A):
    assert abs(min_sym_eig(A) - min_sym_eig(0.5 * (A + A.T))) <= 1e-12


@given(v=vectors(3), a=st.floats(min_value=1e-3, max_value=10.0))
def test_residual_zero_iff_solves(v, a):
    op = make_operator("convex_gradient", 3)
    h = evaluate(op, v) + a * v
    assert residual(op, a, h, v) <= 1e-9 * (1 + np.linalg.norm(h))


@given(
    a0=st.floats(min_value=1e-2, max_value=10.0),
    decay=st.floats(min_value=0.05, max_value=0.95),
    ratio=st.floats(min_value=1e-6, max_value=0.5),
)
def test_schedule_values_shape(a0, decay, ratio):
    sched = ContinuationSchedule(a0=a0, decay_factor=decay, a_min=a0 * ratio)
    vals = sched.values()
    assert vals[0] == a0
    assert vals[-1] == sched.a_min
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v >= sched.a_min for v in vals)


# --- the diagonal solve is getrs on the diagonal matrix -----------------------


def signed_powers(n, lo, hi):
    """n values +-10^e with e uniform in [lo, hi]."""
    return st.tuples(arrays(np.float64, (n,), elements=st.floats(lo, hi)),
                     arrays(np.bool_, (n,))).map(lambda p: np.where(p[1], -1.0, 1.0) * 10.0 ** p[0])


@st.composite
def diagonal_systems(draw):
    """(d, a, rhs): |d| in [1e-8, 1e8], a in [1e-12, 1e3], |rhs| in [1e-150, 1e150], n <= 259.

    In about a third of the systems one entry of d instead makes d + a zero,
    tiny (an ulp of a) or non-finite, so the error paths come up too."""
    n = draw(st.integers(1, 259))
    a = 10.0 ** draw(st.floats(-12.0, 3.0))
    d = draw(signed_powers(n, -8.0, 8.0))
    rhs = draw(signed_powers(n, -150.0, 150.0))
    if draw(st.integers(0, 2)) == 2:
        d[draw(st.integers(0, n - 1))] = draw(st.sampled_from([
            -a, np.nextafter(-a, 0.0), np.nextafter(-a, -np.inf), -a * (1.0 - 1e-13),
            math.nan, math.inf, -math.inf,
        ]))
    return d, a, rhs


def _outcome(J, a, rhs):
    """The solution's bytes, or the exception's class, message and pivot."""
    try:
        return solve_regularized(J, a, rhs).tobytes()
    except (SingularSystemError, NumericalEvaluationError) as exc:
        return type(exc), str(exc), getattr(exc, "pivot", None)


@given(system=diagonal_systems())
@example(system=(np.array([-(1.0 - 2.0**-52)]), 1.0, np.ones(1)))  # pivot eps, at the threshold
@example(system=(np.array([np.nextafter(-1e-3, 0.0)]), 1e-3, np.ones(1)))  # every |d + a| < 1
@settings(max_examples=300)
def test_diagonal_solve_is_the_dense_solve_bit_for_bit(system):
    d, a, rhs = system
    assert _outcome(d, a, rhs) == _outcome(np.diag(d), a, rhs)


# --- the one verdict rule of a sampled certificate ---------------------------

# few distinct values, so ties and signed zeros come up often
samples = st.lists(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 2.5, -2.5]) | finite,
                   min_size=1, max_size=12)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def _scan_at_least(values, limit):
    """check_monotone's and minty_diagnostic's scan before the shared rule."""
    worst, witness = np.inf, None
    for k, val in enumerate(values):
        if val < worst:
            worst, witness = val, k
    passed = worst >= limit
    return passed, worst, None if passed else witness


def _scan_at_most(values, limit):
    """uniform_bound_check's scan before the shared rule."""
    worst, witness = 0.0, None
    for k, val in enumerate(values):
        if val > worst:
            worst, witness = val, k
    passed = worst <= limit
    return passed, worst, None if passed else witness


@given(values=samples, limit=st.sampled_from([-1e-10, -1e-8, 0.0, -2.5]) | finite)
def test_rule_at_least_matches_the_scan_on_finite_samples(values, limit):
    rep = sampled_report(values, limit, list(range(len(values))), at_least=True)
    passed, worst, witness = _scan_at_least(values, limit)
    assert (rep.passed, repr(rep.worst_value), rep.witness) == (passed, repr(worst), witness)


@given(values=samples, limit=st.sampled_from([0.0, 1e-8, 1.0, 2.5]) | st.floats(0.0, 1e3))
def test_rule_at_most_matches_the_scans_on_finite_samples(values, limit):
    rep = sampled_report(values, limit, list(range(len(values))))
    passed, worst, witness = _scan_at_most(values, limit)
    assert (rep.passed, repr(rep.worst_value), rep.witness) == (passed, repr(worst), witness)
    # the flow verifiers' rule: the largest ratio, floored at 0.0 (a -0.0 reads 0.0)
    assert repr(rep.worst_value) == repr(max(0.0, *values))


@given(values=samples, bad=non_finite, later=st.lists(non_finite | finite, max_size=4),
       at=st.integers(min_value=0), at_least=st.booleans())
def test_rule_fails_on_a_non_finite_sample(values, bad, later, at, at_least):
    k = at % (len(values) + 1)
    values = values[:k] + [bad] + values[k:] + later
    rep = sampled_report(values, -1e-8 if at_least else 1.0, list(range(len(values))),
                         at_least=at_least)
    assert not rep.passed
    assert repr(rep.worst_value) == repr(bad)
    assert rep.witness == k


@given(values=samples, limit=non_finite, at_least=st.booleans())
def test_rule_non_finite_limit_passes_nothing(values, limit, at_least):
    assert not sampled_report(values, limit, at_least=at_least).passed


# --- generated monotone, coercive operators -----------------------------------


def monotone_coercive_operator(seed: int, n: int) -> Operator:
    """F(u) = (BB^T + K - K^T) u + c*u^3 + b*u with c >= 0 and b > 0, seeded."""
    rng = np.random.default_rng(seed)
    B, K = rng.standard_normal((2, n, n))
    A = B @ B.T + K - K.T
    c = rng.uniform(0.0, 1.0, n)
    b = rng.uniform(0.1, 1.0, n)
    return Operator(
        name=f"generated_{seed}",
        dim=n,
        fn=lambda u: A @ u + c * u**3 + b * u,
        jac=lambda u: A + np.diag(3.0 * c * u**2 + b),
        declared_monotone=True,
        declared_strictly_monotone=True,
        declared_coercive=True,
    )


generated = st.builds(monotone_coercive_operator, st.integers(0, 2**32 - 1), st.integers(1, 4))


@given(op=generated, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_generated_operator_passes_monotone_and_coercive(op, seed):
    assert check_monotone(op, seed).passed
    assert check_coercive(op, seed).passed
    negated = Operator(name="negated", dim=op.dim, fn=lambda u: -op.fn(u),
                       jac=lambda u: -op.jac(u))
    assert not check_monotone(negated, seed).passed


@given(op=generated, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_continuation_certifies_generated_operator(op, seed):
    h = np.random.default_rng(seed).standard_normal(op.dim)
    rep = run_continuation(op, h, ContinuationSchedule(), FlowConfig(), minty_seed=seed)
    assert rep.failed_stage is None
    assert rep.final_residual_eq5 <= 1e-5
    assert rep.bound_report.passed and rep.minty_report.passed and rep.cauchy_report.passed
