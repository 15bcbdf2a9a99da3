import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dsmsolve import (
    ContinuationSchedule,
    FlowConfig,
    make_operator,
    minty_diagnostic,
    run_continuation,
    uniform_bound_check,
    verify_solution,
)
from dsmsolve import validation
from dsmsolve.continuation import FlowSummary, StageResult
from dsmsolve.gallery import Operator, evaluate

ROOT_AFFINE_SIN = 1.0630731347759914  # 2x + sin x = 3, bisection tol 1e-14


def test_schedule_values_geometric():
    vals = ContinuationSchedule(a0=1.0, decay_factor=0.1, a_min=1e-6).values()
    assert vals[0] == 1.0
    assert vals[-1] == 1e-6
    assert len(vals) == 7
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_schedule_clamps_last_term():
    vals = ContinuationSchedule(a0=1.0, decay_factor=0.5, a_min=0.3).values()
    assert vals == [1.0, 0.5, 0.3]


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(a0=1e-7, decay_factor=0.1, a_min=1e-6)
    with pytest.raises(ValueError):
        ContinuationSchedule(decay_factor=1.5)


def test_schedule_stage_cap():
    # log(a_min/a0)/log(q) stages are allowed up to 1,000,000; values() is never called
    ContinuationSchedule(decay_factor=math.exp(math.log(1e-6) / 999_000))
    with pytest.raises(ValueError, match="stages"):
        ContinuationSchedule(decay_factor=math.exp(math.log(1e-6) / 1_001_000))
    # even when a_min/a0 itself would underflow to 0
    assert len(ContinuationSchedule(a0=1e300, a_min=5e-324).values()) == 625


def test_integer_schedule_serializes_as_float():
    # values() gives floats, so a0=1 writes "a": 1.0 exactly as a0=1.0 does
    op = make_operator("identity", 2)
    reports = [
        run_continuation(op, [1.0, 3.0], ContinuationSchedule(a0=a0, decay_factor=0.1, a_min=1e-3),
                         FlowConfig()).to_json()
        for a0 in (1, 1.0)
    ]
    assert reports[0] == reports[1]


def test_run_continuation_convex_gradient():
    op = make_operator("convex_gradient", 3)
    rep = run_continuation(op, [2.0, 2.0, 2.0], ContinuationSchedule(), FlowConfig())
    assert rep.final_u == pytest.approx([1.0, 1.0, 1.0], abs=1e-5)
    assert rep.final_residual_eq5 <= 1e-5
    assert rep.failed_stage is None
    assert rep.bound_report.passed and rep.minty_report.passed and rep.cauchy_report.passed


def test_run_continuation_scalar_cubic():
    rep = run_continuation(
        make_operator("scalar_cubic"), [8.0], ContinuationSchedule(), FlowConfig()
    )
    assert rep.final_u == pytest.approx([2.0], abs=1e-5)


def test_run_continuation_scalar_affine_sin_vs_oracle():
    rep = run_continuation(
        make_operator("scalar_affine_sin"), [3.0], ContinuationSchedule(), FlowConfig()
    )
    assert rep.final_u == pytest.approx([ROOT_AFFINE_SIN], abs=1e-6)


def test_stage_residuals_nonincreasing():
    """a||u_a|| -> 0 drives F(u_a) -> h, so the equation residual shrinks."""
    op = make_operator("skew_plus_cubic", 5)
    h = np.array([1.0, -2.0, 0.5, 2.0, -1.0])
    rep = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    res = [
        float(np.linalg.norm(np.asarray(op.fn(s.u_a)) - h)) for s in rep.stages
    ]
    assert all(b <= a + 1e-8 for a, b in zip(res, res[1:]))


def test_uniform_bound_identity_closed_form():
    # u_a = h/(1+a): norms bounded, identity (u,u)/||u|| + a||u|| = (h,u)/||u||
    op = make_operator("identity", 1)
    h = np.array([4.0])
    stages = []
    for a in (1.0, 0.1, 0.01):
        u = h / (1.0 + a)
        stages.append(
            StageResult(
                a=a, u_a=u, residual_eq6=0.0, norm_u=float(np.linalg.norm(u)),
                flow_summary=FlowSummary(t_end=0.0, steps=0, terminated_by="residual_tol_reached"),
            )
        )
    rep = uniform_bound_check(op, h, stages)
    assert rep.passed
    # spot check the a=1 identity: 2 + 2 = 4
    u = stages[0].u_a
    assert float(u @ u) / 2.0 + 1.0 * 2.0 == pytest.approx(float(h @ u) / 2.0)


def test_uniform_bound_rank_one_diverges():
    """Stage norms grow like 1/a when h has a component off range(F)."""
    op = make_operator("rank_one_projector", 3)
    h = np.array([1.0, 2.0, 0.0])
    stages = []
    for a in [1.0, 0.1, 0.01, 0.001, 1e-4]:
        u = h / a
        u[0] = h[0] / (1.0 + a)
        stages.append(
            StageResult(
                a=a, u_a=u, residual_eq6=0.0, norm_u=float(np.linalg.norm(u)),
                flow_summary=FlowSummary(t_end=0.0, steps=0, terminated_by="residual_tol_reached"),
            )
        )
    rep = uniform_bound_check(op, h, stages)
    assert not rep.passed
    assert rep.evidence["max_norm"] > 10 * rep.evidence["median_norm"]


def test_minty_on_exact_solution():
    op = make_operator("identity", 1)
    rep = minty_diagnostic(op, [4.0], [4.0], seed=3)
    assert rep.passed
    assert rep.evidence["closing_direction_value"] == pytest.approx(0.0, abs=1e-14)


def test_minty_far_from_solution():
    op = make_operator("identity", 1)
    rep = minty_diagnostic(op, [0.0], [4.0], seed=3)
    assert not rep.passed
    # the closing-direction certificate records the full equation residual
    assert rep.evidence["closing_direction_value"] == pytest.approx(4.0)


def test_minty_fails_when_target_norm_overflows():
    # ||h|| = 2.6e308 overflows, so the tolerance 1e-6 (1 + ||h||) would be inf and meet anything
    op = make_operator("identity", 3)
    with np.errstate(over="ignore"):
        rep = minty_diagnostic(op, np.zeros(3), np.full(3, 1.5e308))
    assert not rep.passed
    assert rep.evidence["closing_direction_value"] == math.inf


def test_minty_measures_a_target_whose_squares_overflow():
    """||h|| = 1.73e200 is finite although its squares are not: the check fails on its probes."""
    op = make_operator("identity", 3)
    rep = minty_diagnostic(op, np.zeros(3), np.full(3, 1e200))
    assert not rep.passed
    assert rep.worst_value < -1e199
    assert rep.evidence["closing_direction_value"] == pytest.approx(math.sqrt(3) * 1e200, rel=1e-15)


def test_minty_fails_when_F_is_nan_off_the_point():
    """F is finite at u (so the closing value is finite) but nan at every probe point."""
    u0 = np.ones(3)
    op = Operator(name="nan_off_u", dim=3, jac=lambda u: np.eye(3),
                  fn=lambda u: u.copy() if np.array_equal(u, u0) else np.full(3, np.nan))
    rep = minty_diagnostic(op, u0, u0, seed=0)
    assert rep.evidence["closing_direction_value"] == 0.0
    assert not rep.passed
    assert np.isnan(rep.worst_value)
    assert rep.witness is not None


def test_minty_fails_when_F_is_nan_at_the_point():
    """Every probe passes, but the closing value ||F(u) - h|| is nan."""
    u0 = np.ones(3)
    op = Operator(name="nan_at_u", dim=3, jac=lambda u: np.eye(3),
                  fn=lambda u: np.full(3, np.nan) if np.array_equal(u, u0) else u.copy())
    rep = minty_diagnostic(op, u0, u0, seed=0)
    assert math.isnan(rep.evidence["closing_direction_value"])
    assert not rep.passed
    assert rep.worst_value > 0.0  # the probes alone would pass
    assert rep.witness is not None


def test_uniform_bound_fails_on_nan_operator():
    op = Operator(name="nan", dim=3, fn=lambda u: np.full(3, np.nan), jac=lambda u: np.eye(3))
    h = np.ones(3)
    summary = FlowSummary(t_end=0.0, steps=0, terminated_by="residual_tol_reached")
    stages = [
        StageResult(a=a, u_a=k * h, residual_eq6=0.0, norm_u=float(np.linalg.norm(k * h)),
                    flow_summary=summary)
        for a, k in ((1.0, 1.0), (0.1, 1.5))
    ]
    rep = uniform_bound_check(op, h, stages)
    assert not rep.passed
    assert np.isnan(rep.worst_value)
    assert rep.samples_checked == 4


def test_zero_target_skips_every_stage_identity():
    # h = 0 is solved by u = 0 at every a, so no stage norm exceeds 1e-8
    rep = run_continuation(make_operator("identity", 3), np.zeros(3), ContinuationSchedule(),
                           FlowConfig())
    assert [s.norm_u for s in rep.stages] == [0.0] * 7
    assert rep.bound_report.passed
    assert rep.bound_report.samples_checked == 7
    assert rep.bound_report.worst_value == 0.0


def test_two_stages_pass_cauchy():
    # fewer than 3 stages give no pair of differences to compare
    rep = run_continuation(make_operator("convex_gradient", 5), np.ones(5),
                           ContinuationSchedule(a_min=0.1), FlowConfig())
    assert len(rep.stages) == 2
    assert rep.cauchy_report.passed
    assert rep.cauchy_report.samples_checked == 2


def test_minty_on_computed_solution():
    op = make_operator("convex_gradient", 3)
    rep = run_continuation(op, [2.0, 2.0, 2.0], ContinuationSchedule(), FlowConfig())
    m = minty_diagnostic(op, rep.final_u, [2.0, 2.0, 2.0], seed=9)
    assert m.passed


def test_monotone_bound_violation_gives_partial_report():
    # F'(u) + aI = 1 at a = 2 is invertible, but ||v'|| = 2 g/a at the start
    op = make_operator("scalar_negation")
    sched = ContinuationSchedule(a0=2.0, decay_factor=0.5, a_min=0.5)
    rep = run_continuation(op, [1.0], sched, FlowConfig())
    assert rep.failed_stage == 0
    assert rep.stages[0].flow_summary.terminated_by == "monotone_bound_violated"
    assert len(rep.stages) == 1
    # one stage cannot show a bound, an aborted sweep is no Cauchy sequence,
    # and the negation is not monotone, so Minty fails too
    assert not rep.bound_report.passed
    assert not rep.minty_report.passed
    assert not rep.cauchy_report.passed


def test_fewer_than_two_stages_fail_the_uniform_bound():
    op = make_operator("identity", 1)
    h = np.array([4.0])
    summary = FlowSummary(t_end=0.0, steps=0, terminated_by="residual_tol_reached")
    for stages in ([], [StageResult(a=1.0, u_a=h / 2, residual_eq6=0.0, norm_u=2.0,
                                    flow_summary=summary)]):
        rep = uniform_bound_check(op, h, stages)
        assert not rep.passed
        assert rep.worst_value == math.inf
        assert rep.samples_checked == len(stages)


def test_uniform_bound_measures_stage_norms_of_1e200():
    """F(u) = 1e-200 u and h = (1, 1) give the bounded stages u_a = h/(1e-200 + a), of norm
    about 1.4e200: their squares overflow, their norms do not."""
    c = 1e-200
    op = Operator(name="tiny_identity", dim=2, fn=lambda u: c * u, jac=lambda u: np.full(2, c))
    h = np.ones(2)
    summary = FlowSummary(t_end=0.0, steps=0, terminated_by="residual_tol_reached")
    us = {a: h / (c + a) for a in (1e-201, 1e-202, 1e-203)}
    stages = [StageResult(a=a, u_a=u, residual_eq6=0.0, norm_u=validation.norm(u),
                          flow_summary=summary) for a, u in us.items()]
    rep = uniform_bound_check(op, h, stages)
    assert rep.passed
    assert rep.evidence["max_norm"] == pytest.approx(math.sqrt(2) / (c + 1e-203), rel=1e-15)
    # numpy's norm of the same stages is inf, and inf / inf would fail the bound
    with np.errstate(over="ignore", invalid="ignore"):
        inf_stages = [replace(s, norm_u=float(np.linalg.norm(s.u_a))) for s in stages]
        assert not uniform_bound_check(op, h, inf_stages).passed


def test_final_residual_is_the_closing_value():
    """The report takes ||F(u) - h|| from Minty's ||h - F(u)||: the same bits, one F call."""
    for name, dim, h in (("convex_gradient", 3, [2.0, -1.0, 0.5]), ("skew_plus_cubic", 4, [1.0] * 4),
                         ("scalar_negation", 1, [1.0])):
        op = make_operator(name, dim)
        rep = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
        direct = validation.norm(evaluate(op, rep.final_u) - np.asarray(h))
        assert rep.final_residual_eq5.hex() == direct.hex(), name
        assert rep.minty_report.evidence["closing_direction_value"] == rep.final_residual_eq5


def test_verify_solution():
    op = make_operator("scalar_cubic")
    assert verify_solution(op, [2.0], [8.0], 1e-12)
    assert not verify_solution(op, [1.0], [8.0], 1e-3)


def test_negative_control_localizes_in_bound_report():
    """Non-coercivity breaks the uniform bound, never the per-stage solves."""
    op = make_operator("rank_one_projector", 5)
    h = np.array([1.0, 2.0, 0.5, -1.0, 0.3])
    rep = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    assert all(s.flow_summary.terminated_by == "residual_tol_reached" for s in rep.stages)
    assert all(s.residual_eq6 <= 1e-10 for s in rep.stages)
    assert not rep.bound_report.passed


def test_report_json_stable():
    op = make_operator("identity", 2)
    h = [1.0, 3.0]
    r1 = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    r2 = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    assert r1.to_json() == r2.to_json()
    doc = json.loads(r1.to_json())
    assert set(doc) == {
        "operator_name", "dim", "h", "stages", "final_u", "final_residual_eq5",
        "bound_report", "minty_report", "cauchy_report", "failed_stage",
    }
    assert doc["stages"][0]["flow_summary"]["terminated_by"] == "residual_tol_reached"
    # final residual recomputable from the serialized solution
    u = np.array(doc["final_u"])
    assert np.linalg.norm(u - np.array(h)) == pytest.approx(
        doc["final_residual_eq5"], rel=1e-12, abs=1e-300
    )


def test_two_schedules_agree_for_strictly_monotone():
    op = make_operator("scalar_cubic")
    fast = run_continuation(op, [8.0], ContinuationSchedule(decay_factor=0.1), FlowConfig())
    slow = run_continuation(op, [8.0], ContinuationSchedule(decay_factor=0.5), FlowConfig())
    assert np.linalg.norm(fast.final_u - slow.final_u) <= 1e-5
