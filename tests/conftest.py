"""Fixtures shared by the test modules."""

import pytest

from jonq.backend import kernels


@pytest.fixture
def kernel_calls(monkeypatch):
    """The positional arguments of every kernels.cocycle_sums call."""
    calls = []
    original = kernels.cocycle_sums

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "cocycle_sums", counting)
    return calls
