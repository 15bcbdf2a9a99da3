import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dsmsolve
from dsmsolve import ContinuationSchedule, FlowConfig, ValidatorReport
from dsmsolve.cli import _print_verdicts, main, parse_target
from dsmsolve.flow import TRACE_CSV_HEADER


def run_cli(*argv):
    return main(list(argv))


def test_gallery_listing(capsys):
    assert run_cli("gallery") == 0
    out = capsys.readouterr().out
    assert "scalar_cubic" in out and "strictly_monotone=True" in out
    assert "rank_one_projector" in out and "coercive=False" in out
    assert len(out.strip().splitlines()) >= 8


def test_parse_target_forms():
    assert list(parse_target("zeros", 2, 1)) == [0.0, 0.0]
    assert list(parse_target("ones*2", 3, 1)) == [2.0, 2.0, 2.0]
    assert list(parse_target("explicit:[8]", 1, 1)) == [8.0]
    assert list(parse_target("explicit:1,2", 2, 1)) == [1.0, 2.0]
    h = parse_target("seeded_random:7:5", 4, 1)
    import numpy as np

    assert np.linalg.norm(h) <= 5.0 + 1e-12
    assert (h == parse_target("seeded_random:7:5", 4, 1)).all()
    # a draw longer than NORM_CAP is rescaled to norm NORM_CAP
    raw = parse_target("seeded_random:1:1e9", 5, 1)
    h = parse_target("seeded_random:1:0.5", 5, 1)
    assert np.linalg.norm(raw) > 0.5
    assert h.tobytes() == (raw * (0.5 / np.linalg.norm(raw))).tobytes()
    assert np.linalg.norm(h) == pytest.approx(0.5, rel=1e-15)


def test_parse_target_rejects_bad_dim():
    with pytest.raises(ValueError):
        parse_target("explicit:1,2,3", 2, 1)


@pytest.mark.parametrize("cap", ["-5", "nan", "-inf"])
def test_seeded_random_rejects_bad_norm_cap(cap, capsys):
    with pytest.raises(ValueError, match="NORM_CAP"):
        parse_target(f"seeded_random:1:{cap}", 3, 1)
    argv = ["solve", "--operator", "identity", "--dim", "3", "--target", f"seeded_random:1:{cap}"]
    assert run_cli(*argv) == 2
    assert "NORM_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["ones*nan", "ones*inf", "explicit:1,nan,2"])
def test_non_finite_target_is_a_usage_error(spec, capsys):
    with pytest.raises(ValueError, match="non-finite"):
        parse_target(spec, 3, 1)
    argv = ["solve", "--operator", "identity", "--dim", "3", "--target", spec]
    assert run_cli(*argv) == 2
    assert "non-finite entry" in capsys.readouterr().err


def test_flow_nan_tol_is_a_usage_error(tmp_path, capsys):
    # checked on FlowConfig first: a flow given a nan tolerance has no horizon
    with pytest.raises(ValueError):
        FlowConfig(residual_tol=float("nan"))
    argv = ["flow", "--operator", "identity", "--dim", "2", "--a", "1", "--trace-dir", str(tmp_path)]
    assert run_cli(*argv, "--tol", "nan") == 2
    assert "tolerances must be positive" in capsys.readouterr().err
    assert run_cli(*argv, "--tol", "inf") == 0


@pytest.mark.parametrize("a", ["nan", "inf"])
def test_flow_non_finite_a_is_a_usage_error(a, tmp_path, capsys):
    argv = ["flow", "--operator", "identity", "--dim", "2", "--a", a, "--trace-dir", str(tmp_path)]
    assert run_cli(*argv) == 2
    assert "regularization parameter a must be positive and finite" in capsys.readouterr().err


def test_solve_nan_tol_is_a_usage_error(capsys):
    assert run_cli("solve", "--operator", "identity", "--dim", "2", "--tol", "nan") == 2
    assert "--tol" in capsys.readouterr().err


def test_solve_infinite_a0_is_a_usage_error(capsys):
    # checked on the schedule first: its values() would append inf without end
    with pytest.raises(ValueError):
        ContinuationSchedule(a0=float("inf"))
    assert run_cli("solve", "--operator", "identity", "--a0", "inf") == 2
    assert "a0 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0.9999999", repr(1 - 1e-15)])
def test_endless_schedule_is_a_usage_error(q, capsys):
    # checked on the schedule first: values() would list about 1.4e8 (or 1.4e16) values
    with pytest.raises(ValueError, match="stages"):
        ContinuationSchedule(decay_factor=float(q))
    assert run_cli("solve", "--operator", "identity", "--decay-factor", q) == 2
    assert "more than 1000000" in capsys.readouterr().err


def test_stages_may_not_share_a_trace_file(tmp_path, capsys):
    # a_min = 9.9999999e-7 and the stage before it, 1.0000000000000004e-06, are
    # both named identity_a1.000e-06.csv, so stage 7's trace would overwrite stage 6's
    argv = ("solve", "--operator", "identity", "--dim", "2", "--a-min", "9.9999999e-7")
    trace_dir = tmp_path / "tr"
    assert run_cli(*argv, "--trace-dir", str(trace_dir)) == 2
    err = capsys.readouterr().err
    assert "stages 6 and 7" in err and "identity_a1.000e-06.csv" in err
    assert not trace_dir.exists()  # refused before any flow runs
    # without traces the same schedule solves, with the report bytes it always had
    report = tmp_path / "rep.json"
    assert run_cli(*argv, "--report", str(report)) == 0
    assert len(json.loads(report.read_text())["stages"]) == 8
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "ced11387c219315a2bd4ba15e180470f4fb9e4e8621532a02e0215bd97ef8b37"
    )


def test_every_exported_name_resolves():
    names = [f"dsmsolve.{m.name}" for m in pkgutil.iter_modules(dsmsolve.__path__)]
    modules = [dsmsolve] + [importlib.import_module(name) for name in names]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"


def test_verify_negative_control(capsys):
    assert run_cli("verify", "--operator", "scalar_negation") != 0
    out = capsys.readouterr().out
    assert "monotone witness" in out


def test_verify_spd_tridiag(capsys):
    assert run_cli("verify", "--operator", "spd_tridiag", "--dim", "20") == 0


def test_verify_rank_one(capsys):
    # monotone passes, coercive fails by construction
    assert run_cli("verify", "--operator", "rank_one_projector") != 0
    out = capsys.readouterr().out
    assert "monotone : empirical=pass" in out
    assert "coercive : empirical=FAIL" in out


def test_flow_identity(tmp_path, capsys):
    rc = run_cli(
        "flow", "--operator", "identity", "--dim", "1", "--a", "1",
        "--target", "explicit:[4]", "--trace-dir", str(tmp_path),
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "u_a = [1.99999" in out or "u_a = [2.0" in out
    assert (tmp_path / "identity_a1.csv").exists()


def test_flow_replay_rejects_tampered_trace(tmp_path, capsys):
    rc = run_cli(
        "flow", "--operator", "scalar_cubic", "--a", "0.5",
        "--target", "explicit:[8]", "--trace-dir", str(tmp_path),
    )
    assert rc == 0
    capsys.readouterr()
    path = tmp_path / "scalar_cubic_a0.5.csv"
    lines = path.read_text().splitlines()
    # forge the residual column of a mid row
    cols = lines[len(lines) // 2].split(",")
    cols[1] = repr(float(cols[1]) * 2.0)
    lines[len(lines) // 2] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) != 0
    # untampered replay still verifies
    rc = run_cli(
        "flow", "--operator", "scalar_cubic", "--a", "0.5",
        "--target", "explicit:[8]", "--trace-dir", str(tmp_path),
    )
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) == 0


def test_solve_convex_gradient(tmp_path, capsys):
    report = tmp_path / "rep.json"
    rc = run_cli(
        "solve", "--operator", "convex_gradient", "--dim", "3",
        "--target", "ones*2", "--oracle", "--report", str(report),
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["final_u"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-5)
    assert doc["bound_report"]["passed"] is True


def test_solve_rank_one_fails_bound(tmp_path, capsys):
    rc = run_cli(
        "solve", "--operator", "rank_one_projector",
        "--target", "seeded_random:7:5", "--seed", "1",
        "--report", str(tmp_path / "rep.json"),
    )
    assert rc != 0
    err = capsys.readouterr().err
    assert "failed:" in err
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["bound_report"]["passed"] is False
    # every per-stage solve still met tolerance
    assert all(s["residual_eq6"] <= 1e-10 for s in doc["stages"])


def test_solve_deterministic_outputs(tmp_path):
    outs = []
    for tag in ("x", "y"):
        report = tmp_path / f"{tag}.json"
        tdir = tmp_path / tag
        rc = run_cli(
            "solve", "--operator", "spd_tridiag", "--dim", "4",
            "--target", "seeded_random:3:5", "--seed", "11",
            "--report", str(report), "--trace-dir", str(tdir),
        )
        assert rc == 0
        traces = sorted(p.name for p in tdir.iterdir())
        outs.append((report.read_bytes(), [(tdir / t).read_bytes() for t in traces]))
    assert outs[0] == outs[1]


def test_flow_replay_recomputes_theory_columns(tmp_path, capsys):
    rc = run_cli(
        "flow", "--operator", "scalar_cubic", "--a", "0.5",
        "--target", "explicit:[8]", "--trace-dir", str(tmp_path),
    )
    assert rc == 0
    path = tmp_path / "scalar_cubic_a0.5.csv"
    # the genuine trace replayed under another regularization
    assert run_cli("flow", "--a", "123", "--replay", str(path)) == 1
    # forge every row after the first, rewriting the theory columns to match
    lines = path.read_text().splitlines()
    for i in range(2, len(lines)):
        t, g, g_theory, vdot_norm, vdot_bound, step = map(float, lines[i].split(","))
        cols = (t, 2 * g, 2 * g_theory, 5 * vdot_norm, 5 * vdot_bound, step)
        lines[i] = ",".join(repr(x) for x in cols)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) == 1
    # a forged negative residual makes both laws negative, so every ratio would be <= 0
    rows = []
    for i in range(6):
        t = 0.5 * i
        g = -2.0 * math.exp(-t)
        rows.append(",".join(repr(x) for x in (t, g, g, 1e10, g / 0.5, 0.5 if i else 0.0)))
    path.write_text("\n".join([TRACE_CSV_HEADER, *rows]) + "\n")
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) == 1


@pytest.mark.parametrize("a", ["-1", "0", "nan", "inf"])
def test_replay_a_must_be_positive_and_finite(a, tmp_path, capsys):
    path = _genuine_trace(tmp_path)
    capsys.readouterr()
    assert run_cli("flow", "--a", a, "--replay", str(path)) == 2
    assert "regularization parameter a must be positive and finite" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operator": "scalar_cubic", "target": "explicit:[8]", "a": 0.5}))
    rc = run_cli("flow", "--config", str(cfg), "--trace-dir", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    # flag overrides the config's target
    rc = run_cli(
        "flow", "--config", str(cfg), "--target", "explicit:[1]",
        "--trace-dir", str(tmp_path),
    )
    assert rc == 0

    # a config file and the same values as flags give the same report bytes
    cfg.write_text(json.dumps(
        {"operator": "convex_gradient", "dim": 3, "target": "ones*2", "a_min": 1e-4, "tol": 1e-3}
    ))
    assert run_cli("solve", "--config", str(cfg), "--report", str(tmp_path / "file.json")) == 0
    assert run_cli(
        "solve", "--operator", "convex_gradient", "--dim", "3", "--target", "ones*2",
        "--a-min", "1e-4", "--tol", "1e-3", "--report", str(tmp_path / "flags.json"),
    ) == 0
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "flags.json").read_bytes()
    rc = run_cli(
        "solve", "--config", str(cfg), "--target", "ones*3",
        "--report", str(tmp_path / "override.json"),
    )
    assert rc == 0
    assert json.loads((tmp_path / "file.json").read_text())["h"] == [2.0] * 3
    assert json.loads((tmp_path / "override.json").read_text())["h"] == [3.0] * 3


def test_sweep_matches_solve(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("sweep", "--dim", "2", "--out", str(out)) == 0
    rows = json.loads((out / "summary.json").read_text())
    assert [r["operator"] for r in rows] == list(dsmsolve.GALLERY_NAMES)
    for row in rows:
        keys = ["operator", "dim", "monotone", "coercive"]
        if row["monotone"]:
            keys += ["final_residual", "bound", "minty", "cauchy"]
        assert list(row) == keys
    assert not rows[2]["monotone"]  # scalar_negation is never solved
    rc = run_cli(
        "solve", "--operator", "convex_gradient", "--dim", "2", "--seed", "1",
        "--target", "seeded_random:1:5", "--trace-dir", str(tmp_path / "tr"),
        "--report", str(tmp_path / "rep.json"),
    )
    assert rc == 0
    report = (out / "convex_gradient_report.json").read_bytes()
    assert (tmp_path / "rep.json").read_bytes() == report


_CONFIG_FILES = {
    "malformed.json": '{"operator": ',
    "unknown.json": '{"operator": "identity", "x": 1}',
    "mistyped.json": '{"operator": "identity", "oracle": "no"}',
}


@pytest.mark.parametrize("argv, code", [
    (["solve", "--operator", "convex_gradient", "--target", "ones*1e200"], 1),
    (["solve", "--operator", "scalar_cubic", "--target", "ones*1e200"], 1),
    (["flow", "--a", "0.5", "--replay", "missing.csv"], 2),
    (["solve", "--config", "missing.json"], 2),
    (["solve", "--config", "malformed.json"], 2),
    (["solve", "--config", "unknown.json"], 2),
    (["solve", "--config", "mistyped.json"], 2),
    (["verify", "--operator", "identity", "--target", "ones"], 2),
])
def test_failures_are_classified(tmp_path, argv, code):
    for name, text in _CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(dsmsolve.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dsmsolve.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert "error:" in proc.stderr


def test_overflow_is_named_at_the_residual(capsys):
    assert run_cli("solve", "--operator", "scalar_cubic", "--target", "ones*1e200") == 1
    err = capsys.readouterr().err
    assert "scalar_cubic" in err
    assert "non-finite matrix entries" not in err


def test_residual_whose_squares_overflow_is_printed_finite(tmp_path, capsys):
    # ||F(u) - h|| = sqrt(5) * 5e199: the stage stops at its horizon, and the run fails
    report = tmp_path / "rep.json"
    assert run_cli("solve", "--operator", "identity", "--target", "ones*1e200", "--oracle",
                   "--report", str(report)) == 1
    captured = capsys.readouterr()
    assert "final residual ||F(u)-h|| = 1.118034e+200\n" in captured.out
    assert "oracle distance = 1.118034e+200\n" in captured.out
    assert "failed: stage 0 (max_time_reached)" in captured.err
    doc = json.loads(report.read_text())
    assert doc["stages"][0]["norm_u"] == pytest.approx(math.sqrt(5) * 5e199, rel=1e-12)
    assert doc["final_residual_eq5"] == pytest.approx(math.sqrt(5) * 5e199, rel=1e-12)


def test_one_printer_gives_every_verdict_line(capsys):
    report = ValidatorReport(passed=False, samples_checked=1, worst_value=2.5)
    passing = ValidatorReport(passed=True, samples_checked=1, worst_value=0.5)
    failed = _print_verdicts([("decay", report), ("tail_bound", passing), ("residual", True),
                              ("oracle", False)])
    assert failed == ["decay", "oracle"]
    assert capsys.readouterr().out == ("decay: FAIL (worst 2.500000e+00)\n"
                                       "tail_bound: pass (worst 5.000000e-01)\n"
                                       "residual: pass\noracle: FAIL\n")


def test_overflowing_velocity_is_named(tmp_path, capsys):
    # g/a = 1e310: v' = -inf at the first flow point, before any residual overflows
    rc = run_cli("flow", "--operator", "scalar_cubic", "--a", "1e-10", "--target",
                 "explicit:-1e300", "--trace-dir", str(tmp_path))
    assert rc == 1
    assert "error: non-finite velocity for scalar_cubic" in capsys.readouterr().err


def test_monotone_bound_violation_ends_the_flow(tmp_path, capsys):
    rc = run_cli("flow", "--operator", "scalar_negation", "--a", "2", "--trace-dir", str(tmp_path))
    assert rc == 1
    captured = capsys.readouterr()
    assert "terminated_by=monotone_bound_violated" in captured.out
    assert "failed: convergence" in captured.err
    assert "error:" not in captured.err


def test_flow_that_starts_at_the_solution_passes(tmp_path, capsys):
    # u = 0 solves u = 0 exactly: g0 = 0, so every law bound is 0 and the trace has one row
    rc = run_cli(
        "flow", "--operator", "identity", "--target", "zeros", "--a", "1",
        "--trace-dir", str(tmp_path),
    )
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.count(": pass") == 3
    path = tmp_path / "identity_a1.csv"
    assert len(path.read_text().splitlines()) == 2
    assert run_cli("flow", "--a", "1", "--replay", str(path)) == 0
    captured = capsys.readouterr()
    assert captured.out.count(": pass") == 2
    assert captured.err == ""


def _genuine_trace(tmp_path):
    rc = run_cli(
        "flow", "--operator", "scalar_cubic", "--a", "0.5",
        "--target", "explicit:[8]", "--trace-dir", str(tmp_path),
    )
    assert rc == 0
    return tmp_path / "scalar_cubic_a0.5.csv"


def _rewrite_rows(path, rewrite):
    """Apply rewrite(cols) to every row after row 0 of a trace CSV."""
    lines = path.read_text().splitlines()
    for i in range(2, len(lines)):
        cols = lines[i].split(",")
        rewrite(cols)
        lines[i] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def test_replay_budget_cannot_be_loosened(tmp_path, capsys):
    path = _genuine_trace(tmp_path)

    def double_g(cols):
        cols[1] = repr(2 * float(cols[1]))

    _rewrite_rows(path, double_g)
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("flow", "--a", "0.5", "--ode-tol", "0.01", "--replay", str(path))
    assert exc.value.code == 2


def test_replay_rejects_nan_rows(tmp_path, capsys):
    path = _genuine_trace(tmp_path)

    def to_nan(cols):
        cols[1] = cols[3] = "nan"

    _rewrite_rows(path, to_nan)
    capsys.readouterr()
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) == 1
    out = capsys.readouterr().out
    assert "decay: FAIL (worst nan)" in out
    assert "vdot_bound: FAIL (worst nan)" in out


@pytest.mark.parametrize("text, message", [
    ("t,g\n0,1\n", "unexpected trace header"),
    (f"{TRACE_CSV_HEADER}\n0,1,1,1\n", "malformed trace row"),
    (f"{TRACE_CSV_HEADER}\n", "empty trace file"),
])
def test_replay_rejects_a_malformed_file(text, message, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    assert run_cli("flow", "--a", "1", "--replay", str(path)) == 2
    assert message in capsys.readouterr().err


def test_replay_skips_blank_lines(tmp_path, capsys):
    path = _genuine_trace(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:3], "", *lines[3:]]) + "\n")
    assert run_cli("flow", "--a", "0.5", "--replay", str(path)) == 0


def test_flow_requires_a(tmp_path, capsys):
    assert run_cli("flow", "--operator", "identity", "--trace-dir", str(tmp_path)) == 2
    assert "flow requires --a" in capsys.readouterr().err


def test_oracle_failure_is_a_failed_certificate(capsys):
    assert run_cli("solve", "--operator", "rank_one_projector", "--oracle") == 1
    captured = capsys.readouterr()
    assert "oracle failed: singular Jacobian for rank_one_projector\n" in captured.out
    assert "oracle: FAIL\n" in captured.out


def test_unknown_target_is_usage_error(capsys):
    rc = run_cli("solve", "--operator", "identity", "--target", "bogus")
    assert rc == 2
