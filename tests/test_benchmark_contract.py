"""The names the benchmark under perfbench/ reads from the package.

perfbench/tracer.py wraps module-level entry points looked up in each
owner's __dict__, and perfbench/run.py stamps kernels.USE_NUMBA.  A
deleted or renamed name would otherwise surface only as a KeyError inside
a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer     # dataclasses look their module up
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("owner, attr, span", _targets())
def test_tracer_targets_resolve(owner, attr, span):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert attr in obj.__dict__, f"{owner}.{attr} ({span}) is gone"


def test_numba_stamp_field_exists():
    from mmdg import kernels

    assert hasattr(kernels, "USE_NUMBA")
