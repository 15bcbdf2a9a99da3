#!/usr/bin/env python3
"""Determinism self-check of the traced benchmark run.

    python3 perfbench/selfcheck.py --seed 1 small_dense audit large_dim

For each workload, runs the traced round twice with the same seed, each
in its own process, and requires identical counts (steps, solve calls,
stages, terminated_by tallies, ...), identical grades and byte-identical
final solutions.  It also requires that another seed draws different
targets.  Exit code 0 iff every check holds.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    det = next(line for line in lines if line.startswith("determinism "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported correct=false")
    return json.loads(det.split(" ", 1)[1])


def targets_digest(workload: str, seed: int) -> str:
    """Digest of the traced round's targets, drawn as run.py draws them."""
    import workloads as wls
    from dsmsolve.gallery import make_operator

    wl = wls.WORKLOADS[workload]
    dims = [make_operator(name, n).dim for name, n in wl.configs]
    hs = (
        wls.draw_input(seed, workload, i, k, dim)[0].tobytes()
        for k in range(wl.trace_cycles)
        for i, dim in enumerate(dims)
    )
    return hashlib.sha256(b"".join(hs)).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("workloads", nargs="+")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    ok = True
    for workload in args.workloads:
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        checks = {
            "counts": first["counts"] == second["counts"],
            "grades": first["outcomes"] == second["outcomes"],
            "solutions": first["solutions_sha256"] == second["solutions_sha256"],
            "targets_reproduced": first["targets_sha256"] == targets_digest(workload, args.seed),
            "other_seed_differs": first["targets_sha256"] != targets_digest(workload, args.seed + 1),
        }
        for name, passed in checks.items():
            print(f"{workload} {name}: {'pass' if passed else 'FAIL'}")
        print(f"{workload} counts {json.dumps(first['counts'], sort_keys=True)}")
        ok = ok and all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
