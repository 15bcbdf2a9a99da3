"""Evidence carrier shared by all empirical checks."""

from __future__ import annotations

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
