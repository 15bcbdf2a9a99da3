"""Command-line runner.

Subcommands mirror the solve pipeline: ``gallery`` lists the operators,
``verify`` checks the monotonicity/coercivity hypotheses, ``flow`` runs
a single regularized flow and audits its trace, ``solve`` runs the full
a -> 0 continuation and emits a JSON report, and ``sweep`` verifies and
solves every gallery operator into one directory with a summary.

All randomness derives from --seed through named substreams, so a fixed
configuration reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .continuation import ContinuationSchedule, SolveReport, run_continuation
from .flow import (
    FlowConfig,
    integrate_flow,
    trace_from_csv,
    trace_to_csv,
    verify_decay,
    verify_tail_bound,
    verify_vdot_bound,
)
from .gallery import (
    GALLERY_NAMES,
    check_coercive,
    check_monotone,
    jacobian,
    make_gallery,
    make_operator,
)
from .linalg import min_sym_eig
from .oracle import OracleFailure, oracle_solve
from .validation import ValidatorReport, norm, sampled_report, subrng, subseed

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_target(spec: str, dim: int, seed: int) -> np.ndarray:
    """Target vector h from a spec string; every entry must be finite.

    Forms: ``zeros``, ``ones``, ``ones*SCALE``, ``explicit:1,2,3`` (also
    ``explicit:[1,2,3]``), ``seeded_random:SEED:NORM_CAP``.
    """
    if spec == "zeros":
        h = np.zeros(dim)
    elif spec == "ones" or spec.startswith("ones*"):
        scale = float(spec.split("*", 1)[1]) if "*" in spec else 1.0
        h = np.full(dim, scale)
    elif spec.startswith("explicit:"):
        body = spec.split(":", 1)[1].strip().strip("[]")
        h = np.array([float(x) for x in body.split(",")])
        if h.shape[0] != dim:
            raise ValueError(f"explicit target has dim {h.shape[0]}, operator needs {dim}")
    elif spec.startswith("seeded_random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("seeded_random target needs seeded_random:SEED:NORM_CAP")
        tseed, cap = int(parts[1]), float(parts[2])
        if not cap >= 0:  # also rejects nan
            raise ValueError(f"NORM_CAP must be a number >= 0, got {parts[2]!r}")
        rng = subrng(seed, f"target:{tseed}")
        h = rng.standard_normal(dim)
        n = norm(h)
        if n > cap:
            h *= cap / n
    else:
        raise ValueError(f"unrecognized target spec {spec!r}")
    if not np.isfinite(h).all():
        raise ValueError(f"target {spec!r} has a non-finite entry")
    return h


def _resolve_operator(args):
    if args.operator is None:
        raise ValueError("an operator name is required (--operator)")
    return make_operator(args.operator, args.dim)


def _check_hypotheses(op, seed: int):
    """Empirical monotonicity and coercivity reports, as verify and sweep give them."""
    mono = check_monotone(op, subseed(seed, "monotone"))
    coer = check_coercive(op, subseed(seed, "coercive"))
    return mono, coer


def _law_checks(trace) -> list:
    """(name, verdict) of each law a flow trace is audited against, with or without its states."""
    return [("decay", verify_decay(trace)), ("vdot_bound", verify_vdot_bound(trace))]


def _print_verdicts(checks) -> list[str]:
    """Print a pass/FAIL line per (name, verdict) and return the failed names.

    A verdict is a ValidatorReport, whose line adds its worst value, or a bool.
    """
    failed = []
    for name, verdict in checks:
        is_report = isinstance(verdict, ValidatorReport)
        passed = verdict.passed if is_report else verdict
        worst = f" (worst {verdict.worst_value:.6e})" if is_report else ""
        print(f"{name}: {'pass' if passed else 'FAIL'}{worst}")
        if not passed:
            failed.append(name)
    return failed


def _run_solve(op, h, seed: int, sched, cfg, trace_dir) -> SolveReport:
    """The a -> 0 continuation as solve and sweep run it; stage traces go to trace_dir if set."""
    return run_continuation(op, h, sched, cfg, minty_seed=subseed(seed, "minty"),
                            trace_dir=trace_dir)


def cmd_gallery(args) -> int:
    for op in make_gallery(args.dim):
        dim_policy = "n=1 fixed" if op.name.startswith("scalar") else "n parameterizable"
        print(
            f"{op.name:22s} dim={op.dim:<3d} ({dim_policy})  "
            f"monotone={op.declared_monotone} "
            f"strictly_monotone={op.declared_strictly_monotone} "
            f"coercive={op.declared_coercive}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    op = _resolve_operator(args)
    mono, coer = _check_hypotheses(op, args.seed)
    rng = subrng(args.seed, "sym_eig_points")
    eigs = [min_sym_eig(jacobian(op, rng.standard_normal(op.dim) * 2.0)) for _ in range(20)]
    eig = sampled_report(eigs, -1e-8, at_least=True)

    print(f"monotone : empirical={'pass' if mono.passed else 'FAIL'} "
          f"declared={op.declared_monotone} worst={mono.worst_value:.6e}")
    print(f"coercive : empirical={'pass' if coer.passed else 'FAIL'} "
          f"declared={op.declared_coercive} worst={coer.worst_value:.6e}")
    print(f"jacobian : min symmetric-part eigenvalue over 20 points = {eig.worst_value:.6e} "
          f"({'pass' if eig.passed else 'FAIL'})")

    for label, rep, declared in (
        ("monotone", mono, op.declared_monotone),
        ("coercive", coer, op.declared_coercive),
    ):
        if rep.witness is not None:
            u, v = rep.witness
            print(f"{label} witness u={list(map(float, u))} v={list(map(float, v))}")
        if declared and not rep.passed:
            print(f"declaration falsified: {label}")
    ok = mono.passed and coer.passed and eig.passed
    return EXIT_OK if ok else EXIT_FAIL


def cmd_flow(args) -> int:
    a = args.a
    if a is None:
        print("flow requires --a", file=sys.stderr)
        return EXIT_USAGE
    cfg = FlowConfig(residual_tol=args.tol)

    if args.replay is not None:
        trace = trace_from_csv(args.replay, a)
        return EXIT_FAIL if _print_verdicts(_law_checks(trace)) else EXIT_OK

    op = _resolve_operator(args)
    h = parse_target(args.target, op.dim, args.seed)
    sol = integrate_flow(op, a, h, np.zeros(op.dim), cfg)

    Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    trace_path = Path(args.trace_dir) / f"{op.name}_a{a:g}.csv"
    trace_to_csv(sol.trace, trace_path)

    checks = _law_checks(sol.trace)
    checks.append(("tail_bound", verify_tail_bound(sol.trace, sol.u_a)))
    print(f"terminated_by={sol.trace.terminated_by} t_end={sol.trace.records[-1][0]:.6f} "
          f"residual={sol.residual:.6e}")
    print(f"u_a = {list(map(float, sol.u_a))}")
    print(f"trace written to {trace_path}")
    failed = ([] if sol.converged else ["convergence"]) + _print_verdicts(checks)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_solve(args) -> int:
    if not args.tol >= 0:  # also rejects nan, which no certificate could pass
        raise ValueError(f"--tol must be a number >= 0, got {args.tol}")
    op = _resolve_operator(args)
    h = parse_target(args.target, op.dim, args.seed)
    sched = ContinuationSchedule(a0=args.a0, decay_factor=args.decay_factor, a_min=args.a_min)
    report = _run_solve(op, h, args.seed, sched, FlowConfig(), args.trace_dir)

    if args.report is not None:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(report.to_json() + "\n")
        print(f"report written to {args.report}")

    print(f"final_u = {list(map(float, report.final_u))}")
    print(f"final residual ||F(u)-h|| = {report.final_residual_eq5:.6e}")
    certificates = [
        ("residual", report.final_residual_eq5 <= args.tol),
        ("bound_report", report.bound_report.passed),
        ("minty_report", report.minty_report.passed),
        ("cauchy_report", report.cauchy_report.passed),
    ]
    if args.oracle:
        try:
            u_ref = oracle_solve(op, h)
            dist = norm(report.final_u - u_ref)
            print(f"oracle distance = {dist:.6e}")
            certificates.append(("oracle", dist <= args.tol))
        except OracleFailure as exc:
            print(f"oracle failed: {exc}")
            certificates.append(("oracle", False))
    failed = _print_verdicts(certificates)
    if report.failed_stage is not None:
        failed.insert(0, f"stage {report.failed_stage} "
                         f"({report.stages[-1].flow_summary.terminated_by})")
    if failed:
        print(f"failed: {failed[0]}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for op in make_gallery(args.dim):
        mono, coer = _check_hypotheses(op, args.seed)
        row = {
            "operator": op.name,
            "dim": op.dim,
            "monotone": mono.passed,
            "coercive": coer.passed,
        }
        if mono.passed:
            # the solve command's defaults, with target seeded_random:SEED:5
            h = parse_target(f"seeded_random:{args.seed}:5", op.dim, args.seed)
            rep = _run_solve(op, h, args.seed, ContinuationSchedule(), FlowConfig(), out)
            (out / f"{op.name}_report.json").write_text(rep.to_json() + "\n")
            row.update(
                final_residual=rep.final_residual_eq5,
                bound=rep.bound_report.passed,
                minty=rep.minty_report.passed,
                cauchy=rep.cauchy_report.passed,
            )
        rows.append(row)
        print(json.dumps(row))

    (out / "summary.json").write_text(json.dumps(rows, indent=2) + "\n")
    print(f"\nwrote {out}/summary.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dsmsolve", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, seed=True, config=True):
        sp = sub.add_parser(name, help=help, description=help,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=func, parser=sp)
        sp.add_argument("--dim", type=int, default=5,
                        help="dimension of the vector-valued operators; scalar ones have 1")
        if seed:
            sp.add_argument("--seed", type=int, default=1, help="root of every random substream")
        if config:
            sp.add_argument("--config", help="JSON object of flag values keyed by dest name "
                            "(e.g. a_min); unknown keys are rejected and flags override it")
        return sp

    def add_operator(sp):
        sp.add_argument("--operator", choices=GALLERY_NAMES, help="gallery operator F (required)")

    def add_flow(sp, tol, tol_help, trace_dir, trace_help):
        sp.add_argument("--target", default="ones", help="h: zeros, ones, ones*SCALE, "
                        "explicit:1,2,3 or seeded_random:SEED:NORM_CAP")
        sp.add_argument("--tol", type=float, default=tol, help=tol_help)
        sp.add_argument("--trace-dir", dest="trace_dir", default=trace_dir, help=trace_help)

    add_command("gallery", cmd_gallery, "list gallery operators", seed=False)

    sp = add_command("verify", cmd_verify, "check monotonicity/coercivity declarations")
    add_operator(sp)

    sp = add_command("flow", cmd_flow, "run one regularized flow and audit its trace")
    add_operator(sp)
    add_flow(sp, FlowConfig.residual_tol, "residual tolerance ||F(v)+av-h|| that ends the flow",
             ".", "directory for the trace CSV")
    sp.add_argument("--a", type=float, help="regularization parameter a > 0 (required)")
    sp.add_argument("--replay", help="verify a previously written trace CSV instead")

    sp = add_command("solve", cmd_solve, "full a->0 continuation solve")
    add_operator(sp)
    add_flow(sp, 1e-5, "certificate tolerance on ||F(u)-h|| and the oracle distance; "
             f"every stage flow runs to residual {FlowConfig.residual_tol:g}",
             None, "directory for the stage trace CSVs; None writes none")
    sp.add_argument("--a0", type=float, default=ContinuationSchedule.a0, help="first a")
    sp.add_argument("--decay-factor", dest="decay_factor", type=float,
                    default=ContinuationSchedule.decay_factor, help="ratio between successive a")
    sp.add_argument("--a-min", dest="a_min", type=float, default=ContinuationSchedule.a_min,
                    help="last a")
    sp.add_argument("--report", help="path for the JSON report")
    sp.add_argument("--oracle", action="store_true", help="also compare with the oracle solution")

    sp = add_command("sweep", cmd_sweep, "verify and solve every gallery operator",
                     config=False)
    sp.add_argument("--out", default="out", help="directory for reports, traces and summary.json")
    return p


def _apply_config(args) -> None:
    """Make the --config file's values the subcommand's defaults, so flags still win."""
    sp = args.parser
    try:
        values = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        sp.error(f"cannot read --config {args.config}: {exc}")
    if not isinstance(values, dict):
        sp.error(f"--config {args.config} must hold a JSON object")
    unknown = sorted(set(values) - (set(vars(args)) - {"command", "config", "func", "parser"}))
    if unknown:
        sp.error(f"--config {args.config}: unknown keys {', '.join(unknown)}")
    # true/false set exactly the on/off flags; every other value is passed as a
    # string, so it goes through its flag's own type conversion
    mistyped = sorted(k for k, v in values.items()
                      if isinstance(v, bool) != isinstance(getattr(args, k), bool))
    if mistyped:
        sp.error(f"--config {args.config}: true/false is for on/off flags only: "
                 f"{', '.join(mistyped)}")
    sp.set_defaults(**{k: v if isinstance(v, bool) else str(v) for k, v in values.items()})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config(args)
        args = parser.parse_args(argv)
    try:
        # an overflow is reported by the finiteness checks as a classified error:
        # numpy's own RuntimeWarning would only repeat it on stderr
        with np.errstate(over="ignore"):
            return args.func(args)
    except ArithmeticError as exc:  # overflow, a violated bound: the run failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, KeyError, OSError) as exc:  # bad input or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
