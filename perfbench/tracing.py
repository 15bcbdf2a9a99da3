"""Spans around the public functions of each dsmsolve module.

The traced run replaces each wrapped function under the name every
calling module looks it up by (``dsmsolve.flow.solve_regularized``,
``dsmsolve.continuation.integrate_flow``, ...), so nothing in ``src/``
changes.  Spans live in flat arrays while the run lasts and are written
out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# defining module -> public functions that get a span
LAYERS = {
    "gallery": ("evaluate", "jacobian", "check_monotone", "check_coercive"),
    "linalg": ("solve_regularized", "min_sym_eig"),
    "flow": (
        "residual",
        "dsm_rhs",
        "integrate_flow",
        "verify_decay",
        "verify_vdot_bound",
        "verify_tail_bound",
        "trace_to_csv",
        "trace_from_csv",
    ),
    "continuation": (
        "run_continuation",
        "uniform_bound_check",
        "minty_diagnostic",
        "verify_solution",
    ),
    "oracle": ("oracle_solve",),
    "validation": ("unit_directions",),
    "cli": ("main",),
}

# spans reported with a call count and a self time
COUNTED = (
    "gallery.evaluate", "gallery.jacobian", "linalg.solve_regularized", "linalg.min_sym_eig",
    "flow.integrate_flow", "flow.dsm_rhs", "flow.residual", "oracle.oracle_solve",
    "validation.unit_directions", "cli.main",
)
# spans reported with a self time only
TIMED = (
    "gallery.check_monotone", "gallery.check_coercive", "continuation.run_continuation",
    "continuation.minty_diagnostic", "continuation.uniform_bound_check",
)
# span groups reported as one self time
GROUPS = {
    "flow.trace_io": ("flow.trace_to_csv", "flow.trace_from_csv"),
    "flow.verify": ("flow.verify_decay", "flow.verify_vdot_bound", "flow.verify_tail_bound"),
}

TERMINATIONS = ("residual_tol_reached", "max_time_reached", "step_underflow", "solver_error")

OP_SPAN = "bench.op"


class Tracer:
    """Span log: name, start, end, parent span and operation id per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op_id = -1
        self.flows: list[tuple[int, int, str]] = []  # (span, accepted steps, terminated_by)
        self.stages = 0
        self.factor_flop = 0.0  # computed: sum of (2/3) n^3 over solve_regularized calls
        self._patch_list = None

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; its spans share op_id."""
        self._op_id = op_id
        idx = self._open(self._intern(OP_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def _wrap(self, span_name: str, fn, after=None):
        nid = self._intern(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def _after_solve(self, idx, args, result):
        n = len(result)
        self.factor_flop += 2.0 / 3.0 * n**3

    def _after_flow(self, idx, args, result):
        trace = result.trace
        self.flows.append((idx, len(trace.records) - 1, trace.terminated_by))

    def _after_continuation(self, idx, args, result):
        self.stages += len(result.stages)

    def _patches(self):
        """(module, attribute, original, wrapper) for every name that refers
        to a LAYERS function, in any dsmsolve module."""
        after = {
            "linalg.solve_regularized": self._after_solve,
            "flow.integrate_flow": self._after_flow,
            "continuation.run_continuation": self._after_continuation,
        }
        modules = [m for k, m in sys.modules.items() if k == "dsmsolve" or k.startswith("dsmsolve.")]
        patches = []
        for mod_name, fn_names in LAYERS.items():
            home = importlib.import_module(f"dsmsolve.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # renamed or removed: its metrics read 0
                span = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(span, original, after.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Route every call to a LAYERS function through its span wrapper."""
        if self._patch_list is None:
            self._patch_list = self._patches()
        try:
            for mod, attr, _, wrapper in self._patch_list:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original, _ in self._patch_list:
                setattr(mod, attr, original)

    def _columns(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.op, dtype=np.int64),
        )

    def save(self, path) -> None:
        name, start, end, parent, op = self._columns()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end, parent=parent, op=op
        )

    def metrics(self) -> dict:
        """Per-layer counts and self times (ms) over every recorded span."""
        name, start, end, parent, _ = self._columns()
        n_spans = len(name)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n_spans)
        self_ms = 1e3 * np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))

        def span_calls(span):
            return int(calls[self._ids[span]]) if span in self._ids else 0

        def span_self(*spans):
            return float(sum(self_ms[self._ids[s]] for s in spans if s in self._ids))

        m = {}
        for span in COUNTED:
            m[f"{span}.calls"] = span_calls(span)
            m[f"{span}.self_ms"] = span_self(span)
        for span in TIMED:
            m[f"{span}.self_ms"] = span_self(span)
        for group, spans in GROUPS.items():
            m[f"{group}.self_ms"] = span_self(*spans)

        solves = m["linalg.solve_regularized.calls"]
        solve_s = m["linalg.solve_regularized.self_ms"] / 1e3
        m["linalg.solve_regularized.us_per_call"] = 1e6 * solve_s / solves if solves else 0.0
        m["linalg.factor_gflop"] = self.factor_flop / 1e9
        m["linalg.factor_gflop_per_s"] = m["linalg.factor_gflop"] / solve_s if solve_s else 0.0

        # DP5 makes one rhs call at the start of a flow, then six per attempted step
        rhs = (name == self._ids.get("flow.dsm_rhs", -1)) & nested
        rhs_by_parent = np.bincount(parent[rhs], minlength=n_spans)
        accepted = sum(steps for _, steps, _ in self.flows)
        attempted = sum(max(int(rhs_by_parent[idx]) - 1, 0) / 6.0 for idx, _, _ in self.flows)
        m["flow.steps_accepted"] = accepted
        m["flow.steps_attempted"] = attempted
        m["flow.accept_ratio"] = accepted / attempted if attempted else 0.0
        m["flow.rhs_per_step"] = m["flow.dsm_rhs.calls"] / accepted if accepted else 0.0
        for reason in TERMINATIONS:
            m[f"flow.terminated_by.{reason}"] = sum(1 for *_, r in self.flows if r == reason)
        m["continuation.stages"] = self.stages
        return m


# per-layer metric name -> unit; every one is reported by a traced run
UNITS = {
    **{f"{s}.calls": "count" for s in COUNTED},
    **{f"{s}.self_ms": "ms" for s in COUNTED + TIMED + tuple(GROUPS)},
    "linalg.solve_regularized.us_per_call": "us",
    "linalg.factor_gflop": "GFLOP",
    "linalg.factor_gflop_per_s": "GFLOP/s",
    "flow.steps_accepted": "count",
    "flow.steps_attempted": "count",
    "flow.accept_ratio": "ratio",
    "flow.rhs_per_step": "count",
    **{f"flow.terminated_by.{r}": "count" for r in TERMINATIONS},
    "continuation.stages": "count",
    "trace_overhead_frac": "ratio",
}
