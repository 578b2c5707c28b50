"""Scalar, 2x2-matrix and circle primitives.

Everything here is immutable and pure; all heavier machinery (cocycle
iteration, profile fitting, polynomial degree growth) builds on these
types.  The extended complex line is represented by ordinary ``complex``
values plus the ``INFINITY`` sentinel, not by homogeneous pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndeterminateAction, ResonantParameter

# Reproducible "generic" parameters: Diophantine angles far from low-order
# resonances.
GOLDEN_FREQ = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_ALPHA_ANGLE = math.sqrt(2.0) - 1.0


def default_alpha() -> complex:
    return cmath.exp(2j * math.pi * DEFAULT_ALPHA_ANGLE)


class _Infinity:
    """Point at infinity of the projective line (singleton)."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def is_infinity(x) -> bool:
    return x is INFINITY


@dataclass(frozen=True)
class Mat2:
    """2x2 complex matrix."""

    m00: complex
    m01: complex
    m10: complex
    m11: complex

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0 + 0j, 0j, 0j, 1.0 + 0j)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def det(self) -> complex:
        return self.m00 * self.m11 - self.m01 * self.m10

    def frobenius(self) -> float:
        return math.sqrt(
            abs(self.m00) ** 2
            + abs(self.m01) ** 2
            + abs(self.m10) ** 2
            + abs(self.m11) ** 2
        )

    def scaled(self, f: complex) -> "Mat2":
        return Mat2(f * self.m00, f * self.m01, f * self.m10, f * self.m11)

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0:
            raise ZeroDivisionError("singular Mat2")
        return Mat2(self.m11 / d, -self.m01 / d, -self.m10 / d, self.m00 / d)

    def trace(self) -> complex:
        return self.m00 + self.m11

    def eigenvalues(self) -> tuple[complex, complex]:
        t = self.trace()
        disc = cmath.sqrt(t * t - 4.0 * self.det())
        return (0.5 * (t + disc), 0.5 * (t - disc))


def projective_action(m: Mat2, x):
    """Moebius action of ``m`` on the extended complex ``x``.

    Raises :class:`IndeterminateAction` when numerator and denominator both
    vanish (projective kernel direction of a singular matrix); denominator
    zero alone maps to INFINITY.
    """
    if is_infinity(x):
        num, den = m.m00, m.m10
    else:
        num = m.m00 * x + m.m01
        den = m.m10 * x + m.m11
    if den == 0:
        if num == 0:
            raise IndeterminateAction("projective action indeterminate")
        return INFINITY
    return num / den


def chordal(x, y) -> float:
    """Chordal (Fubini-Study) distance on the projective line; INFINITY is
    an ordinary point.  Normalized so the diameter is 1."""
    if is_infinity(x) and is_infinity(y):
        return 0.0
    if is_infinity(x):
        return 1.0 / math.sqrt(1.0 + abs(y) ** 2)
    if is_infinity(y):
        return 1.0 / math.sqrt(1.0 + abs(x) ** 2)
    return abs(x - y) / math.sqrt((1.0 + abs(x) ** 2) * (1.0 + abs(y) ** 2))


def check_nonresonant(freq: float) -> None:
    """Reject frequencies within 1e-12 of p/q with q <= 64.

    A frequency this close to a low-order rational makes the rotation
    effectively periodic at the working precision.
    """
    if not 0.0 < freq < 1.0:
        raise ValueError("freq must lie in (0, 1)")
    near = Fraction(freq).limit_denominator(64)
    if abs(freq - float(near)) <= 1e-12:
        raise ResonantParameter(f"freq {freq!r} is within 1e-12 of {near} (denominator <= 64)")


def tree_sum(values) -> float:
    """Pairwise-tree summation: a fixed reduction order independent of how
    the terms were produced, so reductions are bit-stable."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def tree_mean(values) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("mean of empty sequence")
    return tree_sum(vals) / len(vals)
