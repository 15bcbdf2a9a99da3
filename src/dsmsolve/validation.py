"""Evidence carrier shared by all empirical checks, the one verdict rule and the one norm."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ValidatorReport:
    """Outcome of a sampled predicate check.

    When ``passed`` is False, ``witness`` holds the pair of vectors that
    produced ``worst_value``, so the failure can be reproduced directly.
    ``evidence`` carries any extra scalars a check wants to surface.  The
    fields, in order, are the record's JSON (see ``SolveReport.to_json``).
    """

    passed: bool
    samples_checked: int
    worst_value: float
    witness: Optional[tuple[np.ndarray, np.ndarray]] = None
    evidence: dict = field(default_factory=dict)


def sampled_report(values: list[float], limit: float, witnesses=None, *, at_least: bool = False,
                   evidence=None) -> ValidatorReport:
    """The one verdict rule of a sampled certificate: every value <= limit (>= with at_least).

    The worst value is the first sample that is not finite, else the largest
    floored at 0.0 (the smallest with at_least), ties going to the first.  The
    check passes iff the worst value and the limit are finite and the worst is
    within the limit; a failed check carries the worst sample's witness.
    check_coercive and the Cauchy check are not threshold scans over samples and
    keep their own rules, which fail on nan through their comparisons.
    """
    i = next((k for k, x in enumerate(values) if not math.isfinite(x)), None)
    if i is None and values:
        i = (min if at_least else max)(range(len(values)), key=values.__getitem__)
    worst = 0.0 if i is None else values[i]
    if not at_least and math.isfinite(worst):
        worst = max(0.0, worst)  # so a -0.0 reads 0.0
    within = limit <= worst if at_least else worst <= limit
    passed = math.isfinite(worst) and math.isfinite(limit) and within
    return ValidatorReport(passed=passed, samples_checked=len(values), worst_value=worst,
                           witness=None if passed or not witnesses else witnesses[i],
                           evidence=evidence or {})


def norm(x: np.ndarray) -> float:
    """||x|| of a vector: sqrt(x . x), with numpy's 2-norm's bits wherever that is finite.

    np.vdot raises no overflow warning; a finite x whose squares overflow is
    rescaled by max|x| first, as LAPACK dnrm2 does.
    """
    n = math.sqrt(np.vdot(x, x))
    if n == math.inf and np.isfinite(x).all():
        scale = float(np.abs(x).max())
        y = x / scale
        n = scale * math.sqrt(np.vdot(y, y))
    return n


def unit_directions(rng: np.random.Generator, n_dirs: int, dim: int) -> np.ndarray:
    """n_dirs random unit vectors in R^dim, rows."""
    d = rng.standard_normal((n_dirs, dim))
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        d[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(d, axis=1, keepdims=True)
    return d / norms


def subseed(seed: int, tag: str) -> int:
    """Derived integer seed for a named substream; stable across runs."""
    import zlib

    return (seed * 2654435761 + zlib.crc32(tag.encode())) & 0xFFFFFFFF


def subrng(seed: int, tag: str) -> np.random.Generator:
    """Named substream of a master seed; same (seed, tag) -> same stream."""
    return np.random.default_rng(subseed(seed, tag))
