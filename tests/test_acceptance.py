"""Acceptance suite: one test and one printed pass/fail line per entry of
`polsim.checks.CRITERIA`, the registry `polsim check` also runs from.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `polsim check --builtin <name>` runs the entries of one built-in.
"""

import pytest

from polsim.checks import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA, ids=[criterion.name for criterion in CRITERIA])
def test_criterion(criterion):
    result = criterion.run()
    print(result.line())
    assert result.passed, result.detail
