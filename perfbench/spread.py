#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload small_dense --seeds 1-10 --out spread.json

Runs the benchmark once per seed with the run length from
BENCHMARK.json, one run at a time, and prints for each end-to-end
metric its median, its quartiles and their distance as a share of the
median, next to the metric's bound, and the same spread of the unscaled
time from the run's ``raw`` line.  --out keeps every run's values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(vals):
    """(q1, median, q3, (q3 - q1) / median), as the benchmark's spread rule takes them."""
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", help="write every run's values here as JSON")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
        raw_line = next(line for line in lines if line.startswith("raw "))
        raw = {k: float(v) for k, v in (kv.split("=") for kv in raw_line.split()[1:])}
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "values": values, "raw": raw})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)
    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        q1, med, q3, spread = quartiles([r["values"][name] for r in runs])
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"]}
        line = (f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                f"bound={metric['bound']} "
                f"({'under a third' if spread < metric['bound'] / 3 else 'WIDE'})")
        if name in runs[0]["raw"]:
            *_, summary[name]["raw_spread"] = quartiles([r["raw"][name] for r in runs])
            line += f" unscaled_spread={summary[name]['raw_spread']:.4f}"
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
