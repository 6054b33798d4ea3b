"""The benchmark's trace targets name methods and functions that exist.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by looking the name
up in its owner's namespace; a renamed or deleted program call would only
surface as a crash of a traced benchmark run.  This test resolves every
entry the same way, without installing any wrapper.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.TARGETS


@pytest.mark.parametrize(
    "module_name,path", [(module, path) for module, path, _, _ in _targets()]
)
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert name in vars(owner), f"{module_name}.{path} is gone"
