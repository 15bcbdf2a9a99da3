"""Output bytes pinned by SHA-256 digest.

The digests were computed with numpy 2.4 and scipy 1.17 on OpenBLAS; another
BLAS or library version may round differently and change them.  A change that
alters these outputs on purpose updates the digests here and says so in
CHANGES.md.  Anything else that moves them is a regression.
"""

import hashlib
import json

import numpy as np
import pytest

from dsmsolve import (
    ContinuationSchedule,
    FlowConfig,
    integrate_flow,
    make_operator,
    oracle_solve,
    run_continuation,
)
from dsmsolve.cli import main
from dsmsolve.flow import trace_to_csv


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_continuation_report_bytes():
    op = make_operator("skew_plus_cubic", 5)
    h = np.random.default_rng(5).standard_normal(5)
    report = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    assert _sha256(report.to_json().encode()) == (
        "ceb44637f765bb2030e1b397a73332c91253be03e2b57aaf7c66f677da493896"
    )


def test_flow_trace_bytes(tmp_path):
    sol = integrate_flow(make_operator("scalar_cubic"), 0.5, [8.0], [0.0], FlowConfig())
    path = tmp_path / "trace.csv"
    trace_to_csv(sol.trace, path)
    assert _sha256(path.read_bytes()) == (
        "70ef8db4d6862f554a3c8df5dd8cd51566f9ffeda8fd1e08b2a0f9db35e84f35"
    )


def test_continuation_report_bytes_n20():
    # the gallery's worst-conditioned operator, with an n=20 LU at every flow point
    op = make_operator("spd_tridiag", 20)
    h = np.random.default_rng(20).standard_normal(20)
    report = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    assert _sha256(report.to_json().encode()) == (
        "e7e7367646aafd3561cbb8b9d1765029f20f000c05b47c4e0ffb394d9264c5af"
    )


@pytest.mark.parametrize("name, digest", [
    ("convex_gradient", "080e9714daff14ce5b8554daa27f25d634fbeb157865ede42ea9abad53e07757"),
    ("identity", "dda7ac316b941874bb6ba202dfc40a6297beb201c94aa4e0f076ff0cc4ecea17"),
])
def test_diagonal_jacobian_report_bytes_n20(name, digest):
    # operators whose Jacobian is returned as its diagonal, solved by division
    op = make_operator(name, 20)
    h = np.random.default_rng(20).standard_normal(20)
    report = run_continuation(op, h, ContinuationSchedule(), FlowConfig())
    assert _sha256(report.to_json().encode()) == digest


def test_oracle_solution_bytes():
    h = np.random.default_rng(20).standard_normal(20)
    u = oracle_solve(make_operator("spd_tridiag", 20), h)
    assert _sha256(u.tobytes()) == (
        "74c1b4b23fd63adce2ea94f817d724362f516de58f0a410ab83dc8808035c231"
    )


def test_solve_trace_dir_bytes(tmp_path, capsys):
    # the stage traces that solve --trace-dir writes, and the report that names them
    report, trace_dir = tmp_path / "rep.json", tmp_path / "tr"
    rc = main([
        "solve", "--operator", "skew_plus_cubic", "--dim", "5", "--target", "seeded_random:3:5",
        "--seed", "11", "--report", str(report), "--trace-dir", str(trace_dir),
    ])
    assert rc == 0
    assert _sha256(report.read_bytes()) == (
        "968ced6d8d6953965e328473e3e5f7237552626e2b7727f717cad2b1b1d077c9"
    )
    names = [stage["trace_file"] for stage in json.loads(report.read_text())["stages"]]
    assert _sha256(b"".join((trace_dir / name).read_bytes() for name in names)) == (
        "fd5f3ee1c52e835fca87b254df0e25d88bf79db840ad42cc5203bab313781a42"
    )
