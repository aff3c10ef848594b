"""Full-scale acceptance gate: one test per criterion, each printing its line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``bisector-words
verify``) to see the per-criterion PASS/FAIL lines; the whole gate takes
7-8 s on a 2-vCPU Xeon VM, 1.6-1.9 s of it criterion 11.
"""

import pytest

from bisector_words import acceptance


@pytest.mark.acceptance
@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in acceptance.CRITERIA],
    ids=[f"criterion_{num:02d}" for num, _, _ in acceptance.CRITERIA],
)
def test_criterion(number, name):
    result = acceptance.run_criterion(number)
    print(result.line(), flush=True)
    assert result.passed, result.line()
