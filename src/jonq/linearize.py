"""Order-by-order construction of the fibered Moebius conjugacy

    psi(x, y) = ((a(y) x + b(y)) / (c(y) x + 1), y)

taking the inverted square map G to its linear model (x / beta,
y / beta^2).  Writing the conjugacy equation G(psi(x, y)) =
psi(x / beta, y / beta^2) and clearing denominators gives three series
identities (the x^2, x^1 and x^0 coefficients); their order-nu parts are
affine in the unknowns b_nu, a_nu, c_nu, with divisors of Siegel type
(1 - beta^(1-2 nu), etc.) that must stay away from zero.

The forcing polynomials at each order are never hand-derived: the solver
substitutes the current truncated series into the full identities and
reads off the order-nu residual, then divides by the numerically
extracted linear coefficient.  The closed-form linear coefficients are
kept as hard cross-checks.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .algebra import PowerSeries
from .errors import SmallDivisor
from .maps import MapParams, inverted_square_map


@dataclass(frozen=True)
class ConjugacyCoeffs:
    """Solved truncated series of the conjugacy, plus the smallest divisor
    modulus met during the recursion."""

    a: PowerSeries
    b: PowerSeries
    c: PowerSeries
    params: MapParams
    small_divisor_floor: float

    @property
    def order(self) -> int:
        return self.a.order


def x2_identity(
    a: PowerSeries, b: PowerSeries, c: PowerSeries, alpha: complex, beta: complex
) -> PowerSeries:
    """Residual series of the x^2 coefficient of the conjugacy identity
    (b does not enter)."""
    ib2 = 1.0 / (beta * beta)
    a_, c_ = a.scale_argument(ib2), c.scale_argument(ib2)
    al2 = alpha * alpha
    return (
        beta * (a_ * c)
        + beta * (a_ * a)
        - (c_ * a)
        + alpha * (a_ * a)
        + (al2 * (a_ * c) - alpha * (c_ * c) - (c_ * c) - (c_ * a)).shift()
    )


def x1_identity(
    a: PowerSeries, b: PowerSeries, c: PowerSeries, alpha: complex, beta: complex
) -> PowerSeries:
    """Residual series of the x^1 coefficient of the conjugacy identity."""
    ib2 = 1.0 / (beta * beta)
    a_, b_, c_ = a.scale_argument(ib2), b.scale_argument(ib2), c.scale_argument(ib2)
    al2 = alpha * alpha
    return (
        beta * a_
        - beta * a
        + (al2 * a_ - alpha * beta * c - beta * c - beta * a - alpha * c_ - c_).shift()
        + beta * (alpha + beta) * (a * b_)
        + (alpha + beta) * (b * a_)
        + beta * beta * (b_ * c)
        - (b * c_)
        + (al2 * beta * (b_ * c) - (b * c_)).shift()
    )


def x0_identity(
    a: PowerSeries, b: PowerSeries, c: PowerSeries, alpha: complex, beta: complex
) -> PowerSeries:
    """Residual series of the x^0 coefficient of the conjugacy identity
    (of the unknowns only b enters; a sets the truncation order)."""
    b_ = b.scale_argument(1.0 / (beta * beta))
    al2 = alpha * alpha
    return (
        PowerSeries.monomial(1, a.order, alpha + 1.0)
        + b
        - beta * b_
        - (al2 * b_).shift()
        + b.shift()
        - (alpha + beta) * (b_ * b)
    )


# the identities in the order of conjugacy_equations
IDENTITIES = (x2_identity, x1_identity, x0_identity)


def conjugacy_equations(
    a: PowerSeries, b: PowerSeries, c: PowerSeries, alpha: complex, beta: complex
) -> tuple[PowerSeries, PowerSeries, PowerSeries]:
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
    c_0 = alpha + beta and grow by one coefficient per order.  Per order
    nu the sequence is b_nu (x^0 identity), then a_nu (x^1), then c_nu
    (x^2); each linear coefficient is extracted by bumping the unknown and
    differencing the residual, then cross-checked against its closed form:
    1 - beta^(1-2 nu) for b_nu, beta^(1-2 nu) - beta for a_nu and
    (1 - beta) (beta - beta^(-2 nu)) for c_nu.  Coefficient nu of each
    identity depends only on coefficients 0..nu, so at order nu the series
    carry coefficients 0..nu and no more.

    Raises :class:`SmallDivisor` when a divisor modulus falls below the
    floor (near-resonant rotation number).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    alpha, beta = p.alpha, p.beta
    series = [PowerSeries([1.0 - beta]), PowerSeries([0j]), PowerSeries([alpha + beta])]
    floor_seen = float("inf")

    def scale():
        # round-off in substituted residuals grows with the largest
        # coefficient in play; near-resonant runs blow up well above 1
        return max(1.0, max(abs(z) for s in series for z in s.coeffs))

    for nu in range(1, order + 1):
        series = [PowerSeries(s.coeffs + (0j,)) for s in series]
        # (identity that is read, index of the unknown in (a, b, c), divisor)
        for identity, i, closed in (
            (x0_identity, 1, 1.0 - beta ** (1 - 2 * nu)),
            (x1_identity, 0, beta ** (1 - 2 * nu) - beta),
            (x2_identity, 2, (1.0 - beta) * (beta - beta ** (-2 * nu))),
        ):
            resid = identity(*series, alpha, beta).coeffs[nu]
            bumped = list(series)
            bumped[i] = PowerSeries(series[i].coeffs[:-1] + (1.0,))
            div = identity(*bumped, alpha, beta).coeffs[nu] - resid
            if abs(div - closed) > 1e-9 * scale():
                raise ArithmeticError(
                    f"{'abc'[i]}-divisor cross-check failed at order {nu}:"
                    f" {div!r} vs {closed!r}"
                )
            floor_seen = min(floor_seen, abs(div))
            if abs(div) < divisor_floor:
                raise SmallDivisor(nu, abs(div))
            series[i] = PowerSeries(series[i].coeffs[:-1] + (-resid / div,))

    a, b, c = series
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
    return tuple(max(abs(x) for x in e.coeffs) for e in (e1, e2, e3))


def evaluate_conjugacy(coeffs: ConjugacyCoeffs, x: complex, y: complex) -> complex:
    """psi evaluated by truncated series (finite x only)."""
    return (coeffs.a(y) * x + coeffs.b(y)) / (coeffs.c(y) * x + 1.0)


def verify_conjugacy_numeric(
    coeffs: ConjugacyCoeffs,
    sample_count: int = 200,
    y_radius: float = 0.01,
    x_radius: float = 0.5,
    seed: int = 0,
) -> float:
    """Max chordal deviation of G(psi(x, y)) from psi(x/beta, y/beta^2)
    over random samples with |y| = y_radius, |x| <= x_radius.

    The truncation error scales like y_radius^(order+1) while y_radius
    stays inside the convergence radius.
    """
    g = inverted_square_map(coeffs.params)
    beta = coeffs.params.beta
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(sample_count):
        y = y_radius * cmath.exp(2j * math.pi * rng.random())
        x = x_radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
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
    mags = [
        max(abs(coeffs.a.coeffs[k]), abs(coeffs.b.coeffs[k]), abs(coeffs.c.coeffs[k]))
        for k in range(n + 1)
    ]
    ks = [k for k in range(n // 2, n + 1) if mags[k] > 0]
    slope = np.polyfit(ks, [math.log(mags[k]) for k in ks], 1)[0]
    return math.exp(-slope)


def coeffs_to_json(coeffs: ConjugacyCoeffs) -> dict:
    """JSON-ready export; complex numbers become [re, im] pairs."""

    def series(s: PowerSeries):
        return [[z.real, z.imag] for z in s.coeffs]

    return {
        "alpha": [coeffs.params.alpha.real, coeffs.params.alpha.imag],
        "beta": [coeffs.params.beta.real, coeffs.params.beta.imag],
        "N": coeffs.order,
        "a": series(coeffs.a),
        "b": series(coeffs.b),
        "c": series(coeffs.c),
        "divisor_floor_hit": coeffs.small_divisor_floor,
    }
