"""Acceptance suite: one test and one printed pass/fail line per entry of
`polsim.checks.CRITERIA`, the registry `polsim check` also runs from.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `polsim check --builtin <name>` runs the entries of one built-in.
"""

import dataclasses
import subprocess

import pytest

import polsim.checks
from polsim.checks import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA, ids=[criterion.name for criterion in CRITERIA])
def test_criterion(criterion):
    result = criterion.run()
    print(result.line())
    assert result.passed, result.detail


class Asked(Exception):
    """Stops a check at the first built-in it asks for, carrying the name."""


WITH_BUILTIN = [criterion for criterion in CRITERIA if criterion.builtin is not None]


@pytest.mark.parametrize("criterion", WITH_BUILTIN, ids=[criterion.name for criterion in WITH_BUILTIN])
def test_check_runs_its_entrys_builtin(criterion, monkeypatch):
    def builtin_scenario(name, seed=42):
        raise Asked(name)

    def run(argv, **kwargs):
        raise Asked(argv[argv.index("--builtin") + 1])

    monkeypatch.setattr(polsim.checks, "builtin_scenario", builtin_scenario)
    monkeypatch.setattr(subprocess, "run", run)
    # the entry's own built-in, and another name, so a hard-coded one fails
    for name in (criterion.builtin, "another-builtin"):
        with pytest.raises(Asked) as asked:
            dataclasses.replace(criterion, builtin=name).run()
        assert asked.value.args == (name,)
