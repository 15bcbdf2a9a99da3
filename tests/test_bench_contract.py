"""The benchmark's own grading, run on one operation of two workloads.

``perfbench/workloads.py`` calls ``flow.FlowConfig()``,
``integrate_flow(...).trace``, ``verify_solution``, ``minty_diagnostic``,
``trace_to_csv`` and ``cli.main``; a change to any of those names or results
shows here, not first in a benchmark run.  ``perfbench/tracing.py`` times
each layer by replacing the module attributes the code calls through, so a
call it cannot see also shows here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _case_and_input(workloads, workload, name, dim, work_dir):
    cases = workloads.build_cases(1, workload, work_dir)
    inputs = workloads.round_inputs(1, workload, cases, 0)
    return next((c, h, aux) for c, h, aux in inputs if (c.name, c.dim) == (name, dim))


def test_small_dense_solve_is_certified(workloads, tmp_path):
    case, h, _ = _case_and_input(workloads, "small_dense", "skew_plus_cubic", 5, tmp_path)
    outcome = workloads.certified_solve(case, h)
    assert (outcome.status, outcome.reason) == (workloads.CERTIFIED, "")


def test_audit_is_certified(workloads, tmp_path):
    case, h, aux = _case_and_input(workloads, "audit", "convex_gradient", 5, tmp_path)
    assert case.trace is not None and case.replay_expected == 0
    outcome = workloads.operator_audit(case, h, aux)
    assert (outcome.status, outcome.reason) == (workloads.CERTIFIED, "")
    assert case.trace_csv.exists()


def test_tracer_sees_every_layer(workloads, tmp_path):
    tracing = _load("tracing")
    audit = _case_and_input(workloads, "audit", "convex_gradient", 5, tmp_path)
    solve = _case_and_input(workloads, "small_dense", "skew_plus_cubic", 5, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.operation(0):
            workloads.operator_audit(*audit)
        with tracer.operation(1):
            workloads.certified_solve(*solve[:2])

    def spans(op_id):
        return {tracer.names[n] for n, op in zip(tracer.name, tracer.op) if op == op_id}

    assert {"flow.verify_decay", "flow.verify_vdot_bound", "flow.trace_to_csv",
            "flow.trace_from_csv", "cli.main", "gallery.check_monotone"} <= spans(0)
    assert {"flow.dsm_rhs", "gallery.jacobian", "linalg.solve_regularized"} <= spans(1)
    assert tracer.metrics()["flow.verify.self_ms"] > 0.0
