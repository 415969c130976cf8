"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` wraps the module attributes listed in ``TARGETS``
and skips, as an untraced layer, any that no longer exists.  This test reads
that list and fails when a rename, a move or a wrapper leaves one of them
missing or not callable, instead of the layer dropping out of traced runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, layer, label", _targets())
def test_target_resolves_to_a_callable(module_name, attr, layer, label):
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{module_name}.{attr} ({layer}.{label}) is not a callable"
