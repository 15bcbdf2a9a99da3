"""A catalogue of hand-made mutants, and a runner that checks each is killed.

Each mutant names a file of the repository, an exact snippet of it, the
snippet's replacement, and the tests that must fail once the replacement is
made.  A mutant those tests do not kill marks a check that can no longer
fail.  Run from the repository root:

    python tests/mutants.py [--only NAME]

The runner first runs every named test on an unmutated copy of the
repository.  It then applies each mutant to a fresh temporary copy and runs
only that mutant's tests there.  It prints killed or survived per mutant and
the score, and exits 1 unless every mutant is killed.
Pytest does not collect this file; `test_mutants.py` checks in tier-1 that
every snippet still occurs exactly once, so a refactor must carry its mutants
along rather than lose them.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


LINALG = "src/dsmsolve/linalg.py"
BOUNDARY = "tests/test_linalg.py::test_singular_at_the_threshold_and_solved_one_ulp_above"
LU_BYTES = "tests/test_linalg.py::test_bidiagonal_factors_are_getrf_bit_for_bit"
DIAGONAL_IS_DENSE = "tests/test_properties.py::test_diagonal_solve_is_the_dense_solve_bit_for_bit"

MUTANTS = (
    # the singularity rule, shared by every form
    Mutant("pivot-boundary", LINALG, "if pivot <= _EPS", "if pivot < _EPS", (BOUNDARY,)),
    Mutant("threshold-n", LINALG, "max(1.0, top) * n:", "max(1.0, top):", (BOUNDARY,)),
    Mutant("threshold-top", LINALG, "max(1.0, top) * n:", "1.0 * n:", (BOUNDARY,)),
    # the structured path
    Mutant("rhs-vector-check", LINALG, "if rhs.ndim != 1:", "if False:",
           ("tests/test_linalg.py::test_solve_rejects_an_rhs_that_is_not_a_vector",)),
    Mutant("negative-magnitude", LINALG, "mag = d if lo > 0.0 else np.abs(d)", "mag = d",
           (LU_BYTES, DIAGONAL_IS_DENSE)),
    Mutant("swap-tie", LINALG, "(np.abs(sub) <= mag[:-1])", "(np.abs(sub) < mag[:-1])", (LU_BYTES,)),
    Mutant("structured-finiteness", LINALG, "if not top < np.inf:", "if False:",
           ("tests/test_linalg.py::test_bidiagonal_errors_are_the_dense_paths", DIAGONAL_IS_DENSE)),
    Mutant("overflow-fork", LINALG, "if pivot >= 1.0:", "if pivot >= 0.0:",
           ("tests/test_linalg.py::test_diagonal_overflow_is_silent",)),
    # the closed-form LU of a bidiagonal
    Mutant("signed-zero-branch", LINALG, "if lo < 0.0:", "if False:", (LU_BYTES,)),
    Mutant("sub-plus-zero", LINALG, "np.multiply(sub + 0.0,", "np.multiply(sub,", (LU_BYTES,)),
    Mutant("reciprocal", LINALG, "np.multiply(sub + 0.0, r[:-1]", "np.divide(sub + 0.0, d[:-1]", (LU_BYTES,)),
    # the matrix path and its memo
    Mutant("dense-finiteness", LINALG, "if not np.isfinite(Aa).all():", "if False:",
           ("tests/test_linalg.py::test_failing_systems_raise_on_every_call",)),
    Mutant("dense-signed-zero", LINALG, 'np.add(A, 0.0, order="C")', 'np.array(A, order="C")',
           ("tests/test_linalg.py::test_dense_miss_forms_a_plus_a_eye_bit_for_bit",)),
    Mutant("memo-key-a", LINALG, "key = (a, A.tobytes())", "key = A.tobytes()",
           ("tests/test_linalg.py::test_changed_system_misses_the_memo",)),
    Mutant("memo-keeps-a-singular-system", LINALG, "_check_pivot(float(np.abs(lu.diagonal()).min()), top, n)",
           "_last_factor = (key, lu, piv); _check_pivot(float(np.abs(lu.diagonal()).min()), top, n)",
           ("tests/test_linalg.py::test_failing_systems_raise_on_every_call",)),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", ".bench_out", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, dest, ignore=ignore, dirs_exist_ok=True)


def _pytest(workdir: Path, tests) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=workdir, capture_output=True).returncode


def run(mutant: Mutant) -> str:
    """'killed' if the mutant's tests fail, 'survived' if they pass, else 'error'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        path = workdir / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error"
        path.write_text(text.replace(mutant.old, mutant.new))
        return {0: "survived", 1: "killed"}.get(_pytest(workdir, mutant.tests), "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run only the mutant of this name")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        parser.error(f"no mutant named {args.only!r}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(Path(tmp), tests) != 0:
            print("the named tests fail without any mutant; nothing to measure")
            return 1
    killed = 0
    for mutant in chosen:
        verdict = run(mutant)
        killed += verdict == "killed"
        print(f"{mutant.name:24s} {verdict}", flush=True)
    print(f"killed {killed} of {len(chosen)} in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
