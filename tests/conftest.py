"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from jonq.backend import kernels
from jonq.cocycle import iterate, phase_samples


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


@pytest.fixture
def op2_lyapunov():
    """The estimate of ``lyapunov(spec, n, 8, 1)`` with the operator 2-norm
    in place of the Frobenius norm: the same phases and the same mean
    (``np.mean``, as in ``cocycle.phase_mean``), over (1/n) ln of exp(S)
    times |P|_2 for each renormalized product (P, S) from ``iterate``."""

    def estimate(spec, n):
        values = []
        for theta in phase_samples(8, 1):
            p, s = iterate(spec, float(theta), n)
            values.append((s + math.log(np.linalg.norm(p, 2))) / n)
        return float(np.mean(values))

    return estimate
