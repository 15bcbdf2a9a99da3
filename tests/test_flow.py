import dataclasses
import math

import numpy as np
import pytest

from dsmsolve import (
    GALLERY_NAMES,
    FlowConfig,
    dsm_rhs,
    integrate_flow,
    make_operator,
    residual,
    verify_decay,
    verify_tail_bound,
    verify_vdot_bound,
)
from dsmsolve import flow
from dsmsolve.flow import FlowTrace, trace_from_csv, trace_to_csv
from dsmsolve.gallery import NumericalEvaluationError, Operator

from certificates import check_uniqueness

# frozen bisection-oracle roots (tol 1e-14)
ROOT_CUBIC_A01 = 1.9833337223505234  # x^3 + 0.1 x = 8
ROOT_CUBIC_A05 = 1.9167168964703096  # x^3 + 0.5 x = 8


def test_residual_scalar_cubic():
    op = make_operator("scalar_cubic")
    assert residual(op, 1.0, [8.0], [0.0]) == pytest.approx(8.0)


def test_residual_identity_at_solution():
    op = make_operator("identity", 1)
    assert residual(op, 0.5, [3.0], [2.0]) == pytest.approx(0.0, abs=1e-15)


def test_residual_rejects_zero_a():
    op = make_operator("convex_gradient", 3)
    with pytest.raises(ValueError):
        residual(op, 0.0, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_non_finite_a_is_rejected(a):
    op = make_operator("identity", 2)
    for fn in (residual, dsm_rhs):
        with pytest.raises(ValueError, match="regularization parameter"):
            fn(op, a, [1.0, 2.0], [0.0, 0.0])


def test_residual_norm_does_not_overflow():
    """A finite residual whose squares overflow still has its representable norm."""
    op = make_operator("identity", 1)
    w, g, wnorm = dsm_rhs(op, 1.0, [1e200], [0.0])
    assert g == 1e200 == residual(op, 1.0, [1e200], [0.0])
    assert w.tolist() == [5e199] and wnorm == 5e199


def test_dsm_rhs_identity():
    op = make_operator("identity", 1)
    assert dsm_rhs(op, 1.0, [4.0], [0.0])[0] == pytest.approx([2.0])


def test_dsm_rhs_zero_at_fixed_point():
    op = make_operator("identity", 2)
    # u_a = h/(1+a) solves the regularized equation
    h = np.array([3.0, -1.0])
    u_a = h / 1.5
    np.testing.assert_allclose(dsm_rhs(op, 0.5, h, u_a)[0], [0.0, 0.0], atol=1e-15)


def test_dsm_rhs_scalar_cubic():
    op = make_operator("scalar_cubic")
    # -(3*1 + 1)^-1 (1 + 1 - 8) = 1.5
    assert dsm_rhs(op, 1.0, [8.0], [1.0])[0] == pytest.approx([1.5])


@pytest.mark.parametrize("jac", [
    lambda u: np.array([3.0 * u[0] ** 2]),  # the diagonal: solved by division
    lambda u: np.array([[3.0 * u[0] ** 2]]),  # the matrix: solved by LU
], ids=["diagonal", "dense"])
def test_dsm_rhs_rejects_a_non_finite_velocity(jac):
    """g/a = 1e310 overflows, so v' is -inf; the velocity bound cannot see it."""
    op = Operator("cubic", 1, fn=lambda u: u**3, jac=jac)
    with pytest.raises(NumericalEvaluationError, match="non-finite velocity"):
        dsm_rhs(op, 1e-10, [-1e300], [0.0])


@pytest.mark.parametrize("dim", [1, 5, 20])
def test_records_are_one_fresh_evaluation_of_their_state(dim):
    """FSAL: each record's g and ||v'|| are those of one evaluation at its state, bit for bit."""
    rng = np.random.default_rng(dim)
    names = [n for n in GALLERY_NAMES if dim == 1 or not n.startswith("scalar")]
    for name in names:
        op = make_operator(name, dim)
        for a in (1.0, 0.3, 1e-3):
            h = 3.0 * rng.standard_normal(op.dim)
            sol = integrate_flow(op, a, h, np.zeros(op.dim), FlowConfig())
            for (t, g, vdot_norm, _), v in zip(sol.trace.records, sol.trace.states):
                assert g.hex() == residual(op, a, h, v).hex(), (name, a, t)
                if math.isnan(vdot_norm):  # the stage stopped at its first evaluation
                    assert t == 0.0
                    with pytest.raises(flow._STAGE_STOPS):
                        dsm_rhs(op, a, h, v)
                else:
                    w = dsm_rhs(op, a, h, v)[0]
                    assert vdot_norm.hex() == float(np.linalg.norm(w)).hex(), (name, a, t)


def test_integrate_identity():
    op = make_operator("identity", 1)
    sol = integrate_flow(op, 1.0, [4.0], [0.0], FlowConfig())
    assert sol.trace.terminated_by == "residual_tol_reached"
    assert sol.u_a == pytest.approx([2.0], abs=1e-9)


def test_integrate_scalar_cubic_vs_oracle():
    op = make_operator("scalar_cubic")
    sol = integrate_flow(op, 0.1, [8.0], [0.0], FlowConfig())
    assert sol.converged
    assert sol.u_a == pytest.approx([ROOT_CUBIC_A01], abs=1e-8)


def test_integrate_rank_one_converges():
    # A_a stays invertible for a > 0 even though F is rank deficient
    op = make_operator("rank_one_projector", 4)
    h = np.array([1.0, 2.0, -0.5, 0.3])
    sol = integrate_flow(op, 0.5, h, np.zeros(4), FlowConfig())
    assert sol.converged
    assert sol.residual <= 1e-10
    # closed form: u = h_perp/a + (e.h)/(1+a) e with e = e1
    expect = h / 0.5
    expect[0] = h[0] / 1.5
    np.testing.assert_allclose(sol.u_a, expect, atol=1e-9)


def test_stopping_time_matches_decay_law():
    op = make_operator("convex_gradient", 5)
    h = np.full(5, 2.0)
    cfg = FlowConfig()
    sol = integrate_flow(op, 0.1, h, np.zeros(5), cfg)
    t_end = sol.trace.records[-1][0]
    assert abs(t_end - math.log(sol.trace.g0 / cfg.residual_tol)) <= 0.1


def test_trace_structure(tmp_path):
    op = make_operator("identity", 2)
    sol = integrate_flow(op, 1.0, [4.0, 2.0], [0.0, 0.0], FlowConfig())
    ts = [r[0] for r in sol.trace.records]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert sol.trace.records[0][1] == sol.trace.g0
    assert {len(r) for r in sol.trace.records} == {4}  # (t, g, vdot_norm, step): no laws
    # the written law columns are laws(t), bit for bit, and near g0 e^-t and (g0/a) e^-t
    p = tmp_path / "trace.csv"
    trace_to_csv(sol.trace, p)
    rows = [[float(x) for x in line.split(",")] for line in p.read_text().splitlines()[1:]]
    assert len(rows) == len(sol.trace.records)
    for (t, g, g_theory, vdot_norm, vdot_bound, step), rec in zip(rows, sol.trace.records):
        assert (t, g, vdot_norm, step) == rec
        assert (g_theory.hex(), vdot_bound.hex()) == tuple(x.hex() for x in sol.trace.laws(t))
        assert g_theory == pytest.approx(sol.trace.g0 * math.exp(-t), rel=1e-15)
        assert vdot_bound == pytest.approx(sol.trace.g0 * math.exp(-t) / sol.trace.a, rel=1e-15)
    # a replayed trace keeps the measured columns only
    assert trace_from_csv(p, 1.0).records == sol.trace.records


def test_record_at_t_equal_one():
    op = make_operator("scalar_affine_sin")
    sol = integrate_flow(op, 0.1, [3.0], [0.0], FlowConfig())
    t1 = [r for r in sol.trace.records if abs(r[0] - 1.0) < 1e-9]
    assert t1, "no trace record at t=1"
    assert t1[0][1] / sol.trace.g0 == pytest.approx(math.exp(-1.0), rel=1e-5)


def test_verify_decay_passes_on_real_trace():
    op = make_operator("identity", 1)
    sol = integrate_flow(op, 1.0, [4.0], [0.0], FlowConfig())
    assert verify_decay(sol.trace).passed


def test_verify_decay_rejects_forged_trace():
    # constant g over [0, 1] cannot be a flow trace
    trace = FlowTrace(a=1.0, g0=1.0)
    for t in (0.0, 0.5, 1.0):
        trace.records.append((t, 1.0, 0.0, 0.5))
    rep = verify_decay(trace)
    assert not rep.passed
    assert rep.worst_value == pytest.approx((1 - math.exp(-1)) / (100 * 1e-8 * 1.0))


def test_verifiers_reject_non_finite_values():
    op = make_operator("identity", 1)
    sol = integrate_flow(op, 1.0, [4.0], [0.0], FlowConfig())
    t, g, _, step = sol.trace.records[-1]
    sol.trace.records[-1] = (t, g, -math.inf, step)
    assert not verify_vdot_bound(sol.trace).passed
    sol.trace.states[-1] = np.array([math.nan])
    assert not verify_tail_bound(sol.trace, sol.u_a).passed


def test_verify_vdot_passes_on_real_trace():
    op = make_operator("identity", 2)
    sol = integrate_flow(op, 1.0, [4.0, 0.0], [0.0, 0.0], FlowConfig())
    rep = verify_vdot_bound(sol.trace)
    assert rep.passed
    assert rep.worst_value <= 1.0 + 1e-6


def test_verify_vdot_rejects_forged_violation():
    trace = FlowTrace(a=0.5, g0=2.0)
    trace.records.append((0.0, 2.0, 2 * 2.0 / 0.5, 0.0))
    assert not verify_vdot_bound(trace).passed


def test_vdot_bound_tight_for_constant_jacobian_free_part():
    # identity flow at a=1: ratio g/a / ((g0/a) e^-t) stays below 1
    op = make_operator("identity", 1)
    sol = integrate_flow(op, 1.0, [4.0], [0.0], FlowConfig())
    rep = verify_vdot_bound(sol.trace)
    # vdot = g/(1+a) here, so the ratio sits near 1/(1+a) = 0.5 (late-time
    # records may deviate slightly once g itself is near residual_tol)
    assert 0.49 <= rep.worst_value <= 0.52


def test_verify_tail_identity_closed_form():
    # linear flow v(t) = 2(1 - e^-t): at t=0, ||0-2|| = 2 <= g0/a = 4
    op = make_operator("identity", 1)
    h = [4.0]
    sol = integrate_flow(op, 1.0, h, [0.0], FlowConfig())
    rep = verify_tail_bound(sol.trace, sol.u_a)
    assert rep.passed
    for (t, *_), v in zip(sol.trace.records, sol.trace.states):
        assert np.linalg.norm(v - sol.u_a) == pytest.approx(
            2 * math.exp(-t), abs=1e-6
        )


def test_verify_tail_measures_a_state_whose_squares_overflow():
    """||v - u_a|| = 1.414e200 against the bound g0/a = 1e201: a ratio of 0.141, not inf."""
    trace = FlowTrace(a=1.0, g0=1e201)
    trace.append(0.0, np.array([1e200, 1e200]), 1e201, 0.0, 0.0)
    rep = verify_tail_bound(trace, np.zeros(2))
    assert rep.passed
    assert rep.worst_value == pytest.approx(math.sqrt(2) / 10, rel=1e-15)


def test_regularized_solution_keeps_the_state_and_the_trace():
    op = make_operator("convex_gradient", 3)
    sol = integrate_flow(op, 0.1, [2.0, -1.0, 0.5], np.zeros(3), FlowConfig())
    assert [f.name for f in dataclasses.fields(sol)] == ["u_a", "trace"]
    assert sol.residual == sol.trace.records[-1][1] <= 1e-10
    assert sol.trace.a == 0.1


def test_verify_tail_convex_gradient():
    op = make_operator("convex_gradient", 3)
    h = np.array([2.0, -1.0, 0.5])
    sol = integrate_flow(op, 0.1, h, np.zeros(3), FlowConfig())
    assert verify_tail_bound(sol.trace, sol.u_a).passed


def test_warm_start_preserves_decay_law():
    """g(t) = g(v0) e^-t holds from any starting point, not just 0."""
    op = make_operator("convex_gradient", 2)
    h = np.array([2.0, 2.0])
    sol = integrate_flow(op, 0.5, h, np.array([5.0, -3.0]), FlowConfig())
    assert sol.converged
    assert verify_decay(sol.trace).passed
    assert verify_vdot_bound(sol.trace).passed


def test_check_uniqueness_scalar_cubic():
    op = make_operator("scalar_cubic")
    rep = check_uniqueness(op, 0.5, [8.0], [[0.0], [5.0], [-5.0]], FlowConfig())
    assert rep.passed
    assert rep.worst_value <= 10.0 * 1e-10 / 0.5
    sol = integrate_flow(op, 0.5, [8.0], [0.0], FlowConfig())
    assert sol.u_a == pytest.approx([ROOT_CUBIC_A05], abs=1e-8)


def test_check_uniqueness_identity_far_start():
    op = make_operator("identity", 1)
    rep = check_uniqueness(op, 1.0, [4.0], [[0.0], [100.0]], FlowConfig())
    assert rep.passed
    assert rep.samples_checked == 2  # the starts, not the one pair of limits


def test_check_uniqueness_rank_one():
    # a I restores strict monotonicity, so the limit is unique
    op = make_operator("rank_one_projector", 3)
    h = np.array([1.0, -2.0, 0.5])
    starts = [np.zeros(3), np.array([10.0, 10.0, 10.0])]
    assert check_uniqueness(op, 0.5, h, starts, FlowConfig()).passed


def test_max_time_cap(monkeypatch):
    # a negative margin puts the horizon before the flow can reach residual_tol
    monkeypatch.setattr(flow, "_HORIZON_MARGIN", -10.0)
    op = make_operator("identity", 1)
    sol = integrate_flow(op, 1.0, [4.0], [0.0], FlowConfig())
    assert sol.trace.terminated_by == "max_time_reached"
    assert sol.trace.records[-1][0] == pytest.approx(math.log(4.0 / 1e-10) - 10.0, abs=1e-12)


def test_horizon_of_an_overflowing_ratio_is_finite(monkeypatch):
    # g0 = sqrt(3)e300: g0 / residual_tol overflows, but the horizon is a difference of logs
    calls = []

    def counted(*args):  # a flow without a horizon would run on and grow without end
        calls.append(1)
        assert len(calls) <= 60_000, "the flow ran past its horizon"
        return dsm_rhs(*args)

    monkeypatch.setattr(flow, "dsm_rhs", counted)
    op = make_operator("identity", 3)
    sol = integrate_flow(op, 1.0, np.full(3, 1e300), np.zeros(3), FlowConfig())
    assert sol.trace.terminated_by == "max_time_reached"
    horizon = math.log(sol.trace.g0) - math.log(1e-10) + 5.0
    assert sol.trace.records[-1][0] == pytest.approx(horizon, abs=1e-12)


def test_step_underflow_ends_the_flow():
    # at a = 1e-6 the error estimate rejects each try at the first step until it is below _MIN_STEP
    sol = integrate_flow(make_operator("scalar_cubic"), 1e-6, [8.0], [0.0], FlowConfig())
    assert sol.trace.terminated_by == "step_underflow"
    assert [rec[0] for rec in sol.trace.records] == [0.0]


def test_bound_violation_inside_a_step_ends_the_flow():
    # F(u) = -u^3 has F'(0) = 0, so the start point meets ||v'|| <= g/a; a later stage
    # of the first step, where F'(u) + a = 1 - 3u^2 is small, violates it
    op = Operator(name="negative_cubic", dim=1, fn=lambda u: -u**3, jac=lambda u: -3.0 * u**2)
    sol = integrate_flow(op, 1.0, [1.0], [0.0], FlowConfig())
    assert sol.trace.terminated_by == "monotone_bound_violated"
    assert sol.trace.records == [(0.0, 1.0, 1.0, 0.0)]


def _decay_step_cap(rel_tol: float) -> float:
    """Largest h with |R(-h) - e^-h| <= rel_tol * h, R the 5th-order stability fn."""

    def defect(hh: float) -> float:
        k = np.empty(6)
        for i in range(6):
            k[i] = -(1.0 + hh * float(flow._DP_A[i] @ k[:i]))
        ratio = 1.0 + hh * float(flow._DP_A[6] @ k)  # FSAL: row 7 holds b5
        return abs(ratio - math.exp(-hh)) - rel_tol * hh

    lo, hi = 1e-3, 1e-3
    while defect(hi) < 0.0 and hi < 16.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if defect(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def test_step_cap_literal_is_the_bisection_root():
    assert _decay_step_cap(flow._ODE_REL_TOL).hex() == flow._STEP_CAP.hex()


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(residual_tol=0.0)
    # a nan tolerance would give the flow a nan horizon, so it would never stop
    with pytest.raises(ValueError):
        FlowConfig(residual_tol=math.nan)


def test_trace_csv_round_trip(tmp_path):
    op = make_operator("scalar_cubic")
    sol = integrate_flow(op, 0.5, [8.0], [0.0], FlowConfig())
    p = tmp_path / "trace.csv"
    trace_to_csv(sol.trace, p)
    header = p.read_text().splitlines()[0]
    assert header == "t,g,g_theory,vdot_norm,vdot_bound,step_size"
    back = trace_from_csv(p, 0.5)
    assert len(back.records) == len(sol.trace.records)
    np.testing.assert_array_equal(np.array(back.records), np.array(sol.trace.records))
    assert verify_decay(back).passed
    assert verify_vdot_bound(back).passed


def test_trace_csv_deterministic_bytes(tmp_path):
    op = make_operator("spd_tridiag", 4)
    h = np.array([1.0, 0.5, -0.5, 2.0])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_to_csv(integrate_flow(op, 0.1, h, np.zeros(4), FlowConfig()).trace, p1)
    trace_to_csv(integrate_flow(op, 0.1, h, np.zeros(4), FlowConfig()).trace, p2)
    assert p1.read_bytes() == p2.read_bytes()
