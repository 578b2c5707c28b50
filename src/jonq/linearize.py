"""Order-by-order construction of the fibered Moebius conjugacy

    psi(x, y) = ((a(y) x + b(y)) / (c(y) x + 1), y)

taking the inverted square map G to its linear model (x / beta,
y / beta^2).  Writing the conjugacy equation G(psi(x, y)) =
psi(x / beta, y / beta^2) and clearing denominators gives three series
identities (the x^2, x^1 and x^0 coefficients); their order-nu parts are
affine in the unknowns b_nu, a_nu, c_nu, with divisors of Siegel type
(1 - beta^(1-2 nu), etc.) that must stay away from zero.

A series is a 1-D complex array of its coefficients 0..N.  The forcing
polynomials at each order are never hand-derived: the solver substitutes
the current truncated series into the full identities, reads off the
order-nu residual and divides it by the closed-form divisor.  The
numerically extracted linear coefficient is kept as a hard cross-check.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import SmallDivisor
from .maps import InvertedSquareMap, MapParams


def times(z, w) -> np.ndarray:
    """Elementwise z w, rounded as Python rounds a complex product.

    NumPy's complex loops fuse a product and a sum into one FMA
    instruction on CPUs that have it, so their bits depend on the
    machine; four real products and two real sums do not.
    """
    re = z.real * w.real - z.imag * w.imag
    im = z.real * w.imag + z.imag * w.real
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Truncated product: coefficients 0..len(u) - 1 of u v, each summed
    in ascending order of u's index."""
    n = len(u)
    terms = times(u[:, None], v[None, :n])
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        out[i:] += terms[i, : n - i]
    return out


def shift(u: np.ndarray) -> np.ndarray:
    """Multiply by the series variable (coefficients move up one order)."""
    return np.concatenate(([0j], u[:-1]))


def scale_argument(u: np.ndarray, c: complex) -> np.ndarray:
    """u(c y): coefficient k becomes c**k times coefficient k."""
    powers = [1.0 + 0j]
    for _ in range(len(u) - 1):
        powers.append(powers[-1] * c)
    return times(np.array(powers), u)


@dataclass(frozen=True, eq=False)
class ConjugacyCoeffs:
    """Solved truncated series of the conjugacy, plus the smallest divisor
    modulus met during the recursion.  solve_coefficients returns a, b and
    c read-only."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    params: MapParams
    small_divisor_floor: float

    @property
    def order(self) -> int:
        return len(self.a) - 1


def x2_identity(a, b, c, alpha: complex, beta: complex) -> np.ndarray:
    """Residual series of the x^2 coefficient of the conjugacy identity
    (b does not enter)."""
    ib2 = 1.0 / (beta * beta)
    a_, c_ = scale_argument(a, ib2), scale_argument(c, ib2)
    al2 = alpha * alpha
    a_c, a_a, c_a, c_c = mul(a_, c), mul(a_, a), mul(c_, a), mul(c_, c)
    return (
        times(beta, a_c)
        + times(beta, a_a)
        - c_a
        + times(alpha, a_a)
        + shift(times(al2, a_c) - times(alpha, c_c) - c_c - c_a)
    )


def x1_identity(a, b, c, alpha: complex, beta: complex) -> np.ndarray:
    """Residual series of the x^1 coefficient of the conjugacy identity."""
    ib2 = 1.0 / (beta * beta)
    a_, b_, c_ = (scale_argument(s, ib2) for s in (a, b, c))
    al2 = alpha * alpha
    b_c, bc_ = mul(b_, c), mul(b, c_)
    return (
        times(beta, a_)
        - times(beta, a)
        + shift(
            times(al2, a_) - times(alpha * beta, c) - times(beta, c)
            - times(beta, a) - times(alpha, c_) - c_
        )
        + times(beta * (alpha + beta), mul(a, b_))
        + times(alpha + beta, mul(b, a_))
        + times(beta * beta, b_c)
        - bc_
        + shift(times(al2 * beta, b_c) - bc_)
    )


def x0_identity(a, b, c, alpha: complex, beta: complex) -> np.ndarray:
    """Residual series of the x^0 coefficient of the conjugacy identity
    (of the unknowns only b enters)."""
    b_ = scale_argument(b, 1.0 / (beta * beta))
    al2 = alpha * alpha
    forcing = np.zeros(len(b), dtype=complex)
    forcing[1:2] = alpha + 1.0
    return (
        forcing
        + b
        - times(beta, b_)
        - shift(times(al2, b_))
        + shift(b)
        - times(alpha + beta, mul(b_, b))
    )


# the identities in the order of conjugacy_equations
IDENTITIES = (x2_identity, x1_identity, x0_identity)


def conjugacy_equations(
    a, b, c, alpha: complex, beta: complex
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three residual series of the conjugacy identity (x^2, x^1, x^0
    coefficients after clearing denominators); all vanish iff psi
    conjugates G to the linear model through the common truncation order.
    """
    return tuple(identity(a, b, c, alpha, beta) for identity in IDENTITIES)


def solve_coefficients(
    p: MapParams, order: int, divisor_floor: float = 1e-8
) -> ConjugacyCoeffs:
    """Solve the conjugacy series through the given order.

    The series start from their seeds a_0 = 1 - beta, b_0 = 0 and
    c_0 = alpha + beta.  Per order nu the sequence is b_nu (x^0
    identity), then a_nu (x^1), then c_nu (x^2); each unknown is minus
    the order-nu residual over its closed-form divisor:
    1 - beta^(1-2 nu) for b_nu, beta^(1-2 nu) - beta for a_nu and
    (1 - beta) (beta - beta^(-2 nu)) for c_nu.  The divisor is
    cross-checked against the linear coefficient read off by bumping the
    unknown and differencing the residual.  Coefficient nu of each
    identity depends only on coefficients 0..nu, so at order nu the
    identities read coefficients 0..nu and no more.

    Raises :class:`SmallDivisor` when a divisor modulus falls below the
    floor (near-resonant rotation number).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    alpha, beta = p.alpha, p.beta
    a, b, c = (np.zeros(order + 1, dtype=complex) for _ in range(3))
    a[0], c[0] = 1.0 - beta, alpha + beta
    floor_seen = float("inf")

    def scale():
        # round-off in substituted residuals grows with the largest
        # coefficient in play; near-resonant runs blow up well above 1
        return max(1.0, float(np.abs(np.concatenate((a, b, c))).max()))

    for nu in range(1, order + 1):
        # views: solving an unknown writes it into a, b or c
        series = [s[: nu + 1] for s in (a, b, c)]
        # (identity that is read, index of the unknown in (a, b, c), divisor)
        for identity, i, div in (
            (x0_identity, 1, 1.0 - beta ** (1 - 2 * nu)),
            (x1_identity, 0, beta ** (1 - 2 * nu) - beta),
            (x2_identity, 2, (1.0 - beta) * (beta - beta ** (-2 * nu))),
        ):
            resid = identity(*series, alpha, beta)[nu]
            bumped = list(series)
            bumped[i] = series[i].copy()
            bumped[i][nu] = 1.0
            linear = identity(*bumped, alpha, beta)[nu] - resid
            if abs(linear - div) > 1e-9 * scale():
                raise ArithmeticError(
                    f"{'abc'[i]}-divisor cross-check failed at order {nu}:"
                    f" {complex(linear)!r} vs {div!r}"
                )
            floor_seen = min(floor_seen, abs(div))
            if abs(div) < divisor_floor:
                raise SmallDivisor(nu, abs(div))
            series[i][nu] = -complex(resid) / div

    for s in (a, b, c):
        s.flags.writeable = False
    coeffs = ConjugacyCoeffs(a=a, b=b, c=c, params=p, small_divisor_floor=floor_seen)
    # The vanishing-residual post-condition is enforceable only while no
    # divisor got small: once one does, round-off is amplified by 1/|div|
    # at every later order and the raw residuals quantify exactly that
    # sensitivity (callers read them via residual_norms).
    if floor_seen >= 1e-4:
        r1, r2, r3 = residual_norms(coeffs)
        if max(r1, r2, r3) > 1e-10 * scale():
            raise ArithmeticError(
                f"solved series leave residuals ({r1:.2e}, {r2:.2e}, {r3:.2e})"
            )
    return coeffs


def residual_norms(coeffs: ConjugacyCoeffs) -> tuple[float, float, float]:
    """Max coefficient modulus of each conjugacy identity through the
    truncation order, after substituting the solved series."""
    e1, e2, e3 = conjugacy_equations(
        coeffs.a, coeffs.b, coeffs.c, coeffs.params.alpha, coeffs.params.beta
    )
    return tuple(float(np.abs(e).max()) for e in (e1, e2, e3))


def evaluate_conjugacy(coeffs: ConjugacyCoeffs, x: complex, y: complex) -> complex:
    """psi evaluated by truncated series (finite x only)."""
    a, b, c = (
        reduce(lambda acc, co: acc * y + co, reversed(s.tolist()), 0j)
        for s in (coeffs.a, coeffs.b, coeffs.c)
    )
    return (a * x + b) / (c * x + 1.0)


def verify_conjugacy_numeric(
    coeffs: ConjugacyCoeffs, sample_count: int = 200, y_radius: float = 0.01
) -> float:
    """Max chordal deviation of G(psi(x, y)) from psi(x/beta, y/beta^2)
    over random samples (seed 0) with |y| = y_radius, |x| <= 0.5.

    The truncation error scales like y_radius^(order+1) while y_radius
    stays inside the convergence radius.
    """
    g = InvertedSquareMap(params=coeffs.params)
    beta = coeffs.params.beta
    rng = random.Random(0)
    worst = 0.0
    for _ in range(sample_count):
        y = y_radius * cmath.exp(2j * math.pi * rng.random())
        x = 0.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        lhs, _ = g.apply(evaluate_conjugacy(coeffs, x, y), y)
        rhs = evaluate_conjugacy(coeffs, x / beta, y / (beta * beta))
        dev = abs(lhs - rhs) / math.sqrt((1.0 + abs(lhs) ** 2) * (1.0 + abs(rhs) ** 2))
        worst = max(worst, dev)
    return worst


def estimate_radius(coeffs: ConjugacyCoeffs) -> float:
    """Inverse-limsup proxy for the convergence radius: exp of the negated
    least-squares slope of ln max(|a_nu|, |b_nu|, |c_nu|) over the top
    half of orders."""
    n = coeffs.order
    if n < 8:
        raise ValueError("radius estimation needs order >= 8")
    mags = np.abs(np.stack((coeffs.a, coeffs.b, coeffs.c))).max(axis=0)
    ks = [k for k in range(n // 2, n + 1) if mags[k] > 0]
    slope = np.polyfit(ks, np.log(mags[ks]), 1)[0]
    return math.exp(-slope)


def coeffs_to_json(coeffs: ConjugacyCoeffs) -> dict:
    """JSON-ready export; complex numbers become [re, im] pairs."""

    def series(s: np.ndarray):
        return [[z.real, z.imag] for z in s.tolist()]

    return {
        "alpha": [coeffs.params.alpha.real, coeffs.params.alpha.imag],
        "beta": [coeffs.params.beta.real, coeffs.params.beta.imag],
        "N": coeffs.order,
        "a": series(coeffs.a),
        "b": series(coeffs.b),
        "c": series(coeffs.c),
        "divisor_floor_hit": coeffs.small_divisor_floor,
    }
