"""Acceptance sweep: every exit criterion at its stated tolerance.

Run with -s to see the per-criterion PASS lines.  The flow and
continuation sweeps are computed once per session and shared.
"""

import json
import math

import numpy as np
import pytest

from dsmsolve import (
    ContinuationSchedule,
    FlowConfig,
    check_monotone,
    evaluate,
    integrate_flow,
    inv_norm_bound_check,
    jacobian,
    make_operator,
    min_sym_eig,
    oracle_solve,
    run_continuation,
    verify_decay,
    verify_tail_bound,
    verify_vdot_bound,
)
from dsmsolve.flow import trace_to_csv
from dsmsolve.validation import subrng

from conftest import COERCIVE_NAMES, MONOTONE_NAMES, STRICT_NAMES, seeded_points

A_VALUES = (1.0, 0.1, 0.01)
N_TARGETS = 5
FLOW_CFG = FlowConfig(residual_tol=1e-10)
SCHED = ContinuationSchedule(a0=1.0, decay_factor=0.1, a_min=1e-6)
# The continuation sweep drives a further down: the final residual is
# a_min*||u_a||, and spd_tridiag at dim 20 has ||u|| = ||M^-1 h|| up to ~60,
# so reaching 1e-5 (and matching the oracle to 1e-5) needs a_min below 1e-6.
DEEP_SCHED = ContinuationSchedule(a0=1.0, decay_factor=0.1, a_min=1e-9)


def _targets(dim, seed_tag):
    rng = subrng(1, seed_tag)
    hs = []
    for _ in range(N_TARGETS):
        h = rng.standard_normal(dim)
        n = np.linalg.norm(h)
        if n > 10.0:
            h *= 10.0 / n
        hs.append(h)
    return hs


def _dim_for(name):
    return 1 if name.startswith("scalar") else 5


@pytest.fixture(scope="session")
def flow_sweep():
    """(name, a, h, solution) for every monotone member, a value, target."""
    out = []
    for name in MONOTONE_NAMES:
        op = make_operator(name, _dim_for(name))
        for a in A_VALUES:
            for h in _targets(op.dim, f"flow:{name}:{a}"):
                sol = integrate_flow(op, a, h, np.zeros(op.dim), FLOW_CFG)
                out.append((op, a, h, sol))
    return out


@pytest.fixture(scope="session")
def continuation_sweep():
    """Solve reports for every coercive member across dims and targets."""
    out = []
    for name in COERCIVE_NAMES:
        dims = (1,) if name.startswith("scalar") else (1, 5, 20)
        for dim in dims:
            op = make_operator(name, dim)
            for h in _targets(op.dim, f"solve:{name}:{dim}"):
                rep = run_continuation(op, h, DEEP_SCHED, FLOW_CFG)
                out.append((op, h, rep))
    return out


def _report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exact_decay_law(flow_sweep):
    worst = 0.0
    worst_g1 = 0.0
    for op, a, h, sol in flow_sweep:
        rep = verify_decay(sol.trace)
        worst = max(worst, rep.worst_value)
        assert rep.passed, (op.name, a)
        at_1 = [r for r in sol.trace.records if abs(r[0] - 1.0) < 1e-9]
        assert at_1, (op.name, a, "no record at t=1")
        rel = abs(at_1[0][1] / sol.trace.g0 - math.exp(-1.0)) / math.exp(-1.0)
        worst_g1 = max(worst_g1, rel)
        assert rel <= 1e-5
    _report(1, True, f"(worst decay dev {worst:.3e} of budget, g(1)/g0 rel {worst_g1:.3e})")


def test_criterion_2_velocity_and_tail_bounds(flow_sweep):
    worst_v = worst_t = 0.0
    for op, a, h, sol in flow_sweep:
        rv = verify_vdot_bound(sol.trace)
        rt = verify_tail_bound(sol.trace, sol.u_a)
        assert rv.passed and rt.passed, (op.name, a)
        worst_v = max(worst_v, rv.worst_value)
        worst_t = max(worst_t, rt.worst_value)
    _report(2, True, f"(worst vdot ratio {worst_v:.6f}, tail ratio {worst_t:.6f})")


def test_criterion_3_regularized_solve(flow_sweep, continuation_sweep):
    worst_dt = 0.0
    for op, a, h, sol in flow_sweep:
        assert sol.converged and sol.residual <= 1e-10, (op.name, a)
        dt = abs(sol.trace.records[-1][0] - math.log(sol.trace.g0 / 1e-10))
        worst_dt = max(worst_dt, dt)
        assert dt <= 0.1
    for op, h, rep in continuation_sweep:
        for s in rep.stages:
            assert s.terminated_by == "residual_tol_reached"
            assert s.residual_eq6 <= 1e-10, (op.name, s.a)
    _report(3, True, f"(worst stop-time error {worst_dt:.4f})")


def test_criterion_4_inverse_norm_bound():
    worst = 0.0
    for k, name in enumerate(MONOTONE_NAMES):
        op = make_operator(name, _dim_for(name))
        for i, u in enumerate(seeded_points(100 + k, 20, op.dim)):
            A = jacobian(op, u)
            for a in A_VALUES:
                rep = inv_norm_bound_check(A, a, 50, 7 * i + 1)
                assert rep.passed, (name, a)
                worst = max(worst, rep.worst_value)
    assert worst <= 1.0 + 1e-10
    _report(4, True, f"(max a*||x|| = {worst:.12f})")


def test_criterion_5_surjectivity(continuation_sweep):
    worst_res = 0.0
    worst_dist = 0.0
    for op, h, rep in continuation_sweep:
        assert rep.final_residual_eq5 <= 1e-5, (op.name, op.dim)
        worst_res = max(worst_res, rep.final_residual_eq5)
        if op.name in STRICT_NAMES:
            u_ref = oracle_solve(op, h)
            dist = float(np.linalg.norm(rep.final_u - u_ref))
            assert dist <= 1e-5, (op.name, op.dim, dist)
            worst_dist = max(worst_dist, dist)
    _report(5, True, f"(worst residual {worst_res:.3e}, worst oracle dist {worst_dist:.3e})")


def test_criterion_6_uniform_bound_and_identity(continuation_sweep):
    worst = 0.0
    for op, h, rep in continuation_sweep:
        assert rep.bound_report.passed, (op.name, op.dim)
        worst = max(worst, rep.bound_report.worst_value)
    assert worst <= 1e-8
    _report(6, True, f"(worst identity violation {worst:.3e})")


def test_criterion_7_minty_diagnostic(continuation_sweep):
    worst = np.inf
    for op, h, rep in continuation_sweep:
        assert rep.minty_report.passed, (op.name, op.dim)
        assert rep.minty_report.samples_checked == 300  # 3 s values x 100 dirs
        worst = min(worst, rep.minty_report.worst_value)
    _report(7, True, f"(min directional pairing {worst:.3e}, all above -1e-6*(1+||h||))")


def test_criterion_8_remarks():
    # Remark on uniqueness: two schedules agree for strictly monotone members
    worst = 0.0
    for name in STRICT_NAMES:
        op = make_operator(name, _dim_for(name))
        h = _targets(op.dim, f"remark1:{name}")[0]
        r1 = run_continuation(op, h, SCHED, FLOW_CFG)
        r2 = run_continuation(
            op, h, ContinuationSchedule(a0=1.0, decay_factor=0.5, a_min=1e-6), FLOW_CFG
        )
        d = float(np.linalg.norm(r1.final_u - r2.final_u))
        assert d <= 1e-5, (name, d)
        worst = max(worst, d)
    # Remark on the Jacobian: PSD symmetric part wherever F is monotone
    worst_eig = 0.0
    for name in MONOTONE_NAMES:
        op = make_operator(name, _dim_for(name))
        for u in seeded_points(55, 20, op.dim):
            ev = min_sym_eig(jacobian(op, u))
            assert ev >= -1e-8, (name, ev)
            worst_eig = min(worst_eig, ev)
    _report(8, True, f"(schedule agreement {worst:.3e}, min sym eig {worst_eig:.3e})")


def test_criterion_9_negative_controls():
    rep = check_monotone(make_operator("scalar_negation"), 1, 100, 5.0)
    assert not rep.passed and rep.witness is not None
    u, v = rep.witness
    print(f"  scalar_negation monotone witness: u={u.tolist()} v={v.tolist()} "
          f"pairing={rep.worst_value:.6e}")

    op = make_operator("rank_one_projector", 5)
    h = _targets(5, "negative:rank_one")[0]
    sol_rep = run_continuation(op, h, SCHED, FLOW_CFG)
    assert all(s.terminated_by == "residual_tol_reached" for s in sol_rep.stages)
    assert all(s.residual_eq6 <= 1e-10 for s in sol_rep.stages)
    norms = [s.norm_u for s in sol_rep.stages]
    assert norms[-1] >= 10.0 * norms[0]
    assert not sol_rep.bound_report.passed
    _report(9, True, f"(stage norm growth x{norms[-1] / norms[0]:.1e}, bound check failed as required)")


def test_criterion_10_determinism(tmp_path):
    op = make_operator("skew_plus_cubic", 5)
    h = _targets(5, "determinism")[0]
    csvs = []
    jsons = []
    for tag in ("r1", "r2"):
        sol = integrate_flow(op, 0.1, h, np.zeros(5), FLOW_CFG)
        p = tmp_path / f"{tag}.csv"
        trace_to_csv(sol.trace, p)
        csvs.append(p.read_bytes())
        rep = run_continuation(op, h, SCHED, FLOW_CFG, minty_seed=42)
        jsons.append(rep.to_json())
    assert csvs[0] == csvs[1]
    assert jsons[0] == jsons[1]
    r1 = check_monotone(op, 9, 200, 5.0)
    r2 = check_monotone(op, 9, 200, 5.0)
    assert r1.to_dict() == r2.to_dict()
    _report(10, True, "(byte-identical traces and reports under fixed seeds)")
