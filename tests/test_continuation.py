import json

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
from dsmsolve.continuation import StageResult

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


def test_run_continuation_convex_gradient():
    op = make_operator("convex_gradient", 3)
    rep = run_continuation(op, [2.0, 2.0, 2.0], ContinuationSchedule(), FlowConfig())
    assert rep.final_u == pytest.approx([1.0, 1.0, 1.0], abs=1e-5)
    assert rep.final_residual_eq5 <= 1e-5
    assert rep.all_passed


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
                t_end=0.0, steps=0, terminated_by="residual_tol_reached",
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
                t_end=0.0, steps=0, terminated_by="residual_tol_reached",
            )
        )
    rep = uniform_bound_check(op, h, stages)
    assert not rep.passed
    assert rep.evidence["max_norm"] > 10 * rep.evidence["median_norm"]


def test_minty_on_exact_solution():
    op = make_operator("identity", 1)
    rep = minty_diagnostic(op, [4.0], [4.0], n_dirs=50, seed=3)
    assert rep.passed
    assert rep.evidence["closing_direction_value"] == pytest.approx(0.0, abs=1e-14)


def test_minty_far_from_solution():
    op = make_operator("identity", 1)
    rep = minty_diagnostic(op, [0.0], [4.0], n_dirs=50, seed=3)
    assert not rep.passed
    # the closing-direction certificate records the full equation residual
    assert rep.evidence["closing_direction_value"] == pytest.approx(4.0)


def test_minty_on_computed_solution():
    op = make_operator("convex_gradient", 3)
    rep = run_continuation(op, [2.0, 2.0, 2.0], ContinuationSchedule(), FlowConfig())
    m = minty_diagnostic(op, rep.final_u, [2.0, 2.0, 2.0], n_dirs=100, seed=9)
    assert m.passed


def test_monotone_bound_violation_gives_partial_report():
    # F'(u) + aI = 1 at a = 2 is invertible, but ||v'|| = 2 g/a at the start
    op = make_operator("scalar_negation")
    sched = ContinuationSchedule(a0=2.0, decay_factor=0.5, a_min=0.5)
    rep = run_continuation(op, [1.0], sched, FlowConfig())
    assert rep.failed_stage == 0
    assert rep.stages[0].terminated_by == "monotone_bound_violated"
    assert not rep.all_passed


def test_verify_solution():
    op = make_operator("scalar_cubic")
    assert verify_solution(op, [2.0], [8.0], 1e-12)
    assert not verify_solution(op, [1.0], [8.0], 1e-3)


def test_negative_control_localizes_in_bound_report():
    """Non-coercivity breaks the uniform bound, never the per-stage solves."""
    op = make_operator("rank_one_projector", 5)
    h = np.array([1.0, 2.0, 0.5, -1.0, 0.3])
    rep = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    assert all(s.terminated_by == "residual_tol_reached" for s in rep.stages)
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
