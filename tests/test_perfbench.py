"""The library names the benchmark's tracer relies on."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from jonq.backend import kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(short, name) for short, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("short,name", traced_names())
def test_traced_name_exists(short, name):
    owner = kernels if short == "kernels" else importlib.import_module(f"jonq.{short}")
    assert callable(getattr(owner, name))


def test_cocycle_sums_positions():
    # the tracer counts steps from thetas (position 7) and n (position 8)
    params = list(inspect.signature(kernels.cocycle_sums).parameters)
    assert params[7] == "thetas" and params[8] == "n"
