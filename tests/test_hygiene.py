"""Process-global state is the caller's: importing or running the library
must not change it.

Imports every ``repro`` module (except the two ``python -m`` entry points,
which are meant to run as ``__main__``), mines a tiny relation, and checks
that the interpreter's recursion limit and numpy's print options are as
they were.  Also pins down that no library source sets the recursion limit
at all — deep searches use explicit stacks instead — and that the
recursive test oracles in ``tests/legacy_enum.py`` restore the limit they
raise.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.approximation import F1
from tests.legacy_enum import LegacyADCEnum, _recursion_limit_at_least

#: ``python -m`` entry points: importing them as modules is not their use.
ENTRY_POINTS = {"repro.cluster.worker", "repro.serve.__main__"}


def test_imports_and_mining_leave_process_state_alone():
    recursion_limit = sys.getrecursionlimit()
    print_options = np.get_printoptions()

    names = [
        module.name
        for module in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if module.name not in ENTRY_POINTS
    ]
    for name in names:
        importlib.import_module(name)
    assert len(names) > 50

    result = repro.ADCMiner(function="f1", epsilon=0.05).mine(repro.running_example())
    assert result.adcs

    assert sys.getrecursionlimit() == recursion_limit
    assert np.get_printoptions() == print_options


def test_no_library_source_sets_the_recursion_limit():
    src = Path(repro.__file__).resolve().parent
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if "setrecursionlimit(" in path.read_text()
    ]
    assert offenders == []


def test_legacy_oracle_restores_the_recursion_limit():
    """The recursive oracles in ``tests/`` raise the limit only for their
    search and put it back afterwards, also when the search raises."""
    recursion_limit = sys.getrecursionlimit()
    with pytest.raises(RuntimeError, match="inside"):
        with _recursion_limit_at_least(recursion_limit + 12_345):
            assert sys.getrecursionlimit() == recursion_limit + 12_345
            raise RuntimeError("inside")
    assert sys.getrecursionlimit() == recursion_limit

    relation = repro.running_example()
    evidence = repro.build_evidence_set(relation, repro.build_predicate_space(relation))
    adcs = LegacyADCEnum(evidence, F1(), 0.05).enumerate()
    assert adcs
    assert sys.getrecursionlimit() == recursion_limit
