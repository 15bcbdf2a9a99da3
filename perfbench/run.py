#!/usr/bin/env python3
"""dsmsolve benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload small_dense --seed 1 --seconds 20 --trace 0

Run from the repository root; dsmsolve is imported from ``src/``.  With
``--trace 0`` the workload's operations run untraced in whole rounds
until ``--seconds`` have passed, and the end-to-end metrics are
reported, with times scaled to a reference host speed (hostspeed.py).
With ``--trace 1`` a fixed round runs once untraced and once
traced, and the per-layer metrics are reported.  Every operation is
graded; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_T_START = time.perf_counter()

import os

# one process and one BLAS thread, pinned before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # audit trace files and span logs
SETUP_REPEATS = 3
SETUP_READING_S = 0.25  # host-speed reading between set-up steps
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
TAIL_CAP = 90.0  # highest tail percentile reported, see tail()

UNITS = {
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_version(module) -> str:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(times_ms):
    """(value, percentile, samples beyond) of the tail latency.

    The highest percentile that leaves TAIL_BEYOND samples above it, but
    at most TAIL_CAP: beyond p90 a run of this length samples the host's
    scheduling spikes rather than the program.  Below 2*TAIL_BEYOND+1
    samples that percentile would not lie above the median, so the
    maximum is reported instead.
    """
    s = sorted(times_ms)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = min(n - TAIL_BEYOND - 1, math.ceil(TAIL_CAP / 100.0 * n) - 1)
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def set_up(args, wls, flow, host):
    """Build operators, first-round targets and audit traces and refill the
    step-cap cache SETUP_REPEATS times, then run one untimed warm-up.
    A host-speed reading precedes and follows each step.

    Returns (cases, first round, build seconds per repeat, warm-up
    seconds, readings).
    """
    readings = [host.reading(SETUP_READING_S)]
    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        step_cap = getattr(flow, "_decay_step_cap", None)
        if hasattr(step_cap, "cache_clear"):
            step_cap.cache_clear()
            step_cap(flow.FlowConfig().ode_rel_tol)
        cases = wls.build_cases(args.seed, args.workload, work_dir)
        first = wls.round_inputs(args.seed, args.workload, cases, 0)
        builds.append(time.perf_counter() - t)
        readings.append(host.reading(SETUP_READING_S))
    t = time.perf_counter()
    h, aux = wls.draw_input(args.seed, args.workload, 0, -1, cases[0].op.dim)
    wls.run_operation(args.workload, cases[0], h, aux)
    warmup_s = time.perf_counter() - t
    readings.append(host.reading(SETUP_READING_S))
    return cases, first, builds, warmup_s, readings


def timed(wls, workload, case, h, aux):
    t0 = time.perf_counter()
    out = wls.run_operation(workload, case, h, aux)
    return case, out, time.perf_counter() - t0


def measure(args, wls, cases, first, host, reading):
    """Untraced whole rounds until --seconds have passed.

    A host-speed reading follows every operation.  Returns (case,
    outcome, seconds) per operation and the seconds scaled to the
    reference host speed.
    """
    records, readings = [], [reading]
    t_start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - t_start < args.seconds:
        ops = first if cycle == 0 else wls.round_inputs(args.seed, args.workload, cases, cycle)
        for c, h, aux in ops:
            records.append(timed(wls, args.workload, c, h, aux))
            readings.append(host.reading())
        cycle += 1
    scaled = [secs * host.scale(readings[i], readings[i + 1]) for i, (*_, secs) in enumerate(records)]
    return records, scaled


def trace(args, wls, tracing, cases):
    """Run a fixed round once untraced and once traced.

    Each operation runs on both sides back to back, in alternating order
    so that neither side always runs on warm caches.  Returns (records,
    per-layer metrics, whether tracing left every solution unchanged).
    """
    ops = [
        op
        for k in range(wls.WORKLOADS[args.workload].trace_cycles)
        for op in wls.round_inputs(args.seed, args.workload, cases, k)
    ]
    tracer = tracing.Tracer()
    plain, traced = [], []
    for k, (case, h, aux) in enumerate(ops):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.installed(), tracer.operation(k):
                    traced.append(timed(wls, args.workload, case, h, aux))
            else:
                plain.append(timed(wls, args.workload, case, h, aux))
    layer = tracer.metrics()
    layer["trace_overhead_frac"] = sum(r[2] for r in traced) / sum(r[2] for r in plain) - 1.0
    tracer.save(OUT / f"spans_{args.workload}.npz")
    unchanged = [r[1].solution for r in plain] == [r[1].solution for r in traced]
    print("determinism " + json.dumps({
        "counts": {k: v for k, v in layer.items() if tracing.UNITS[k] == "count"},
        "outcomes": Counter(f"{c.name}/{c.dim}:{out.status}:{out.reason}" for c, out, _ in traced),
        "solutions_sha256": hashlib.sha256(b"".join(r[1].solution for r in traced)).hexdigest(),
        "targets_sha256": hashlib.sha256(b"".join(h.tobytes() for _, h, _ in ops)).hexdigest(),
    }, sort_keys=True))
    return plain + traced, layer, unchanged


def grade(wls, records) -> tuple[int, bool]:
    """Print the grades; return (failed operations, whether every failure
    is a known defect)."""
    per_config = {}
    for case, out, secs in records:
        per_config.setdefault((case.name, case.dim), []).append((out.status, secs))
    for (name, dim), rows in per_config.items():
        print(f"config {name}/{dim}: ops={len(rows)} "
              f"median_ms={1e3 * statistics.median(s for _, s in rows):.3f} "
              f"{dict(Counter(st for st, _ in rows))}")
    failures = Counter(
        (case.name, case.dim, out.reason) for case, out, _ in records if out.status == wls.FAILED
    )
    all_known = True
    for (name, dim, reason), n in sorted(failures.items()):
        known = wls.KNOWN_FAILURES.get((name, dim)) == reason
        print(f"failed {name}/{dim}: reason={reason} count={n} "
              f"{'known defect' if known else 'UNEXPECTED'}")
        all_known = all_known and known
    n_failed = sum(failures.values())
    status = Counter(out.status for _, out, _ in records)
    print(f"grades {dict(status)} failed_frac={n_failed / len(records):.6g}")
    return n_failed, all_known


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dsmsolve" / "__init__.py").is_file():
        print(f"error: no dsmsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dsmsolve
    from dsmsolve import flow

    if Path(dsmsolve.__file__).resolve().parent != (SRC / "dsmsolve").resolve():
        print(f"error: imported dsmsolve from {dsmsolve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads as wls

    if args.workload not in wls.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(wls.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START
    print("env " + json.dumps(environment(args)))
    host = hostspeed.HostSpeed(active=wls.WORKLOADS[args.workload].host_scaled)
    cases, first, builds, warmup_s, setup_readings = set_up(args, wls, flow, host)

    if args.trace == 0:
        records, scaled = measure(args, wls, cases, first, host, setup_readings[-1])
        unchanged = True
    else:
        records, layer, unchanged = trace(args, wls, tracing, cases)
        if not unchanged:
            print("error: traced and untraced runs gave different solutions")
    n_failed, all_known = grade(wls, records)
    attempted = len(records)

    if args.trace == 0:
        raw_ms = [1e3 * secs for *_, secs in records]
        setup_raw = import_s + statistics.median(builds) + warmup_s
        print(f"setup import_s={import_s:.4f} build_s={[round(b, 4) for b in builds]} "
              f"warmup_s={warmup_s:.4f}")
        print(f"raw op_ms.p50={statistics.median(raw_ms):.6g} op_ms.tail={tail(raw_ms)[0]:.6g} "
              f"ops_per_s={1e3 * (attempted - n_failed) / sum(raw_ms):.6g} setup_s={setup_raw:.6g}")
        # every time below is scaled to the reference host speed (hostspeed.py)
        times_ms = [1e3 * secs for secs in scaled]
        tail_ms, tail_pct, beyond = tail(times_ms)
        print(f"op_ms.tail is p{tail_pct:.1f} with {beyond} samples beyond, n={attempted}")
        values = {
            "op_ms.p50": statistics.median(times_ms),
            "op_ms.tail": tail_ms,
            "ops_per_s": 1e3 * (attempted - n_failed) / sum(times_ms),
            "ok_frac": (attempted - n_failed) / attempted,
            "setup_s": setup_raw * host.scale(*setup_readings),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    else:
        values, units = layer, tracing.UNITS
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": unchanged and all_known,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
