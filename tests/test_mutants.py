"""The mutation catalogue stays in step with the code it mutates.

Running the mutants takes minutes, so tier-1 checks only that each one still
applies: `python tests/mutants.py` runs them.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_snippet_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(), test
