"""Output bytes pinned by SHA-256 digest.

The digests were computed with numpy 2.4 and scipy 1.17 on OpenBLAS; another
BLAS or library version may round differently and change them.  A change that
alters these outputs on purpose updates the digests here and says so in
CHANGES.md.  Anything else that moves them is a regression.
"""

import hashlib

import numpy as np

from dsmsolve import (
    ContinuationSchedule,
    FlowConfig,
    integrate_flow,
    make_operator,
    oracle_solve,
    run_continuation,
)
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


def test_oracle_solution_bytes():
    h = np.random.default_rng(20).standard_normal(20)
    u = oracle_solve(make_operator("spd_tridiag", 20), h)
    assert _sha256(u.tobytes()) == (
        "74c1b4b23fd63adce2ea94f817d724362f516de58f0a410ab83dc8808035c231"
    )
