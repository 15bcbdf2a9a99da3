"""The benchmark's own grading, run on one operation of two workloads.

``perfbench/workloads.py`` calls ``flow.FlowConfig()``,
``integrate_flow(...).trace``, ``verify_solution``, ``minty_diagnostic``,
``trace_to_csv`` and ``cli.main``; a change to any of those names or results
shows here, not first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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
