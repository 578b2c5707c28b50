"""Scalar, projective-line and circle primitives.

Everything here is pure; all heavier machinery (cocycle iteration, profile
fitting, polynomial degree growth) builds on these.  A 2x2 matrix is a
NumPy (2, 2) complex array.  The extended complex line is represented by
ordinary ``complex`` values plus the ``INFINITY`` sentinel, not by
homogeneous pairs.
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

# the cocycle generator families (see ``cocycle``)
KINDS = (
    "jonquieres_a",
    "jonquieres_b",
    "btilde",
    "schrodinger",
    "diagonal_power",
    "constant",
)
# the s = ln rho step of an acceleration window (see ``accel``)
DEFAULT_H = 0.02


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


def projective_action(m, x):
    """Moebius action of the (2, 2) array ``m`` on the extended complex
    ``x``, in Python complex arithmetic on its entries (so ``maps.apply_f``
    is the orbit kernel's arithmetic to the bit).

    Raises :class:`IndeterminateAction` when numerator and denominator both
    vanish (projective kernel direction of a singular matrix); denominator
    zero alone maps to INFINITY.
    """
    (m00, m01), (m10, m11) = m.tolist()
    if is_infinity(x):
        num, den = m00, m10
    else:
        num = m00 * x + m01
        den = m10 * x + m11
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


def max_abs(values) -> float:
    """The largest modulus, or NaN if any value is NaN: ``max`` alone
    drops a NaN that is not first, and would let a NaN residual pass."""
    mags = [abs(z) for z in values]
    return math.nan if any(m != m for m in mags) else max(mags)


@dataclass(frozen=True)
class MapParams:
    """Unit-modulus parameter pair; ``freq`` is the angle of beta in (0, 1)
    and fixes the square root beta^(1/2) = exp(i pi freq) once."""

    alpha: complex
    beta: complex
    freq: float

    def __post_init__(self):
        # written so that NaN fails the check
        if not (abs(abs(self.alpha) - 1.0) <= 1e-12 and abs(abs(self.beta) - 1.0) <= 1e-12):
            raise ValueError("|alpha| and |beta| must equal 1 to 1e-12")
        check_nonresonant(self.freq)
        if abs(cmath.exp(2j * math.pi * self.freq) - self.beta) > 1e-9:
            raise ValueError("freq must be the angle of beta")

    @staticmethod
    def from_angles(alpha_angle: float, freq: float) -> "MapParams":
        return MapParams(
            alpha=cmath.exp(2j * math.pi * alpha_angle),
            beta=cmath.exp(2j * math.pi * freq),
            freq=freq % 1.0,
        )

    @property
    def beta_sqrt(self) -> complex:
        return cmath.exp(1j * math.pi * self.freq)
