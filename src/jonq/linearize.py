"""Order-by-order construction of the fibered Moebius conjugacy

    psi(x, y) = ((a(y) x + b(y)) / (c(y) x + 1), y)

taking the inverted square map G to its linear model (x / beta,
y / beta^2).  Writing the conjugacy equation G(psi(x, y)) =
psi(x / beta, y / beta^2) and clearing denominators gives three series
identities (the x^2, x^1 and x^0 coefficients); their order-nu parts are
affine in the unknowns b_nu, a_nu, c_nu, with divisors of Siegel type
(1 - beta^(1-2 nu), etc.) that must stay away from zero.

A series is a tuple of Python ``complex`` coefficients 0..N, and the
module runs without NumPy.  Each identity is defined once, as its
coefficient k: products enter through their coefficient k (or k - 1,
under a factor y), each summed in ascending order of the first factor's
index, and u(y / beta^2) through the repeated-product powers of
1 / beta^2.  Every complex product is Python's, four real products and
two real sums, so the bits do not depend on the CPU (NumPy's complex
loops may fuse a product and a sum into one FMA instruction).  The
forcing polynomials at each order are never hand-derived: the solver
substitutes the current series into an identity, reads off its order-nu
coefficient and divides it by the closed-form divisor.  The numerically
extracted linear coefficient is kept as a hard cross-check.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate, repeat

from .algebra import MapParams, max_abs
from .errors import SmallDivisor


def mul_at(u, v, k: int) -> complex:
    """Coefficient k of the product u v: u[i] v[k - i] summed from 0j in
    ascending order of i.

    ``reduce`` adds in that order; ``sum`` may not (it compensates float
    sums from Python 3.12).
    """
    return reduce(operator.add, map(operator.mul, u[: k + 1], reversed(v[: k + 1])), 0j)


def mul(u, v) -> tuple:
    """Truncated product: coefficients 0..len(u) - 1 of u v."""
    return tuple(mul_at(u, v, k) for k in range(len(u)))


def shift(u) -> tuple:
    """Multiply by the series variable (coefficients move up one order)."""
    return (0j, *u[:-1])


def scale_argument(u, c: complex) -> tuple:
    """u(c y): coefficient k becomes c**k times coefficient k, the powers
    taken by repeated products."""
    powers = accumulate(repeat(c, len(u) - 1), operator.mul, initial=1.0 + 0j)
    return tuple(map(operator.mul, powers, u))


@dataclass(frozen=True)
class ConjugacyCoeffs:
    """Solved truncated series of the conjugacy, plus the smallest divisor
    modulus met during the recursion and, from :func:`solve_coefficients`,
    the series' :func:`residual_norms`."""

    a: tuple
    b: tuple
    c: tuple
    params: MapParams
    small_divisor_floor: float
    residuals: tuple | None = None

    @property
    def order(self) -> int:
        return len(self.a) - 1


# Each identity adds its terms left to right in one fixed order, and the
# y-multiplied terms enter as exactly 0j at k = 0: the solved bits depend
# on both.


def x2_identity(k: int, a, b, c, alpha: complex, beta: complex) -> complex:
    """Coefficient k of the x^2 residual series of the conjugacy identity
    (b does not enter)."""
    a_, c_ = (scale_argument(s[: k + 1], 1.0 / (beta * beta)) for s in (a, c))
    a_c, a_a, c_a = mul_at(a_, c, k), mul_at(a_, a, k), mul_at(c_, a, k)
    shifted = (
        alpha * alpha * mul_at(a_, c, k - 1)
        - alpha * mul_at(c_, c, k - 1)
        - mul_at(c_, c, k - 1)
        - mul_at(c_, a, k - 1)
    ) if k else 0j
    return beta * a_c + beta * a_a - c_a + alpha * a_a + shifted


def x1_identity(k: int, a, b, c, alpha: complex, beta: complex) -> complex:
    """Coefficient k of the x^1 residual series of the conjugacy identity."""
    a_, b_, c_ = (scale_argument(s[: k + 1], 1.0 / (beta * beta)) for s in (a, b, c))
    b_c, bc_ = mul_at(b_, c, k), mul_at(b, c_, k)
    j = k - 1
    shifted, shifted_products = (
        alpha * alpha * a_[j] - alpha * beta * c[j] - beta * c[j] - beta * a[j]
        - alpha * c_[j] - c_[j],
        alpha * alpha * beta * mul_at(b_, c, j) - mul_at(b, c_, j),
    ) if k else (0j, 0j)
    return (
        beta * a_[k]
        - beta * a[k]
        + shifted
        + beta * (alpha + beta) * mul_at(a, b_, k)
        + (alpha + beta) * mul_at(b, a_, k)
        + beta * beta * b_c
        - bc_
        + shifted_products
    )


def x0_identity(k: int, a, b, c, alpha: complex, beta: complex) -> complex:
    """Coefficient k of the x^0 residual series of the conjugacy identity
    (of the unknowns only b enters)."""
    b_ = scale_argument(b[: k + 1], 1.0 / (beta * beta))
    forcing = alpha + 1.0 if k == 1 else 0j
    shifted_b_, shifted_b = (alpha * alpha * b_[k - 1], b[k - 1]) if k else (0j, 0j)
    return (
        forcing
        + b[k]
        - beta * b_[k]
        - shifted_b_
        + shifted_b
        - (alpha + beta) * mul_at(b_, b, k)
    )


# the identities in the order of conjugacy_equations
IDENTITIES = (x2_identity, x1_identity, x0_identity)


def conjugacy_equations(a, b, c, alpha: complex, beta: complex) -> tuple[tuple, tuple, tuple]:
    """The three residual series of the conjugacy identity (x^2, x^1, x^0
    coefficients after clearing denominators) through the order of a; all
    vanish iff psi conjugates G to the linear model through that order.
    """
    return tuple(
        tuple(identity(k, a, b, c, alpha, beta) for k in range(len(a)))
        for identity in IDENTITIES
    )


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
    identity depends only on coefficients 0..nu, so each order evaluates
    that one coefficient, O(nu) work, and the solve is O(order^2).

    Raises :class:`SmallDivisor` when a divisor modulus falls below the
    floor (near-resonant rotation number).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    alpha, beta = p.alpha, p.beta
    a, b, c = [1.0 - beta], [0j], [alpha + beta]
    # round-off in substituted residuals grows with the largest
    # coefficient in play; near-resonant runs blow up well above 1
    scale = max(1.0, abs(a[0]), abs(c[0]))
    floor_seen = float("inf")

    for nu in range(1, order + 1):
        for s in (a, b, c):
            s.append(0j)
        # (identity that is read, its unknown and name, divisor); the
        # identities are looked up here, on each call
        for identity, unknown, name, div in (
            (x0_identity, b, "b", 1.0 - beta ** (1 - 2 * nu)),
            (x1_identity, a, "a", beta ** (1 - 2 * nu) - beta),
            (x2_identity, c, "c", (1.0 - beta) * (beta - beta ** (-2 * nu))),
        ):
            resid = identity(nu, a, b, c, alpha, beta)
            unknown[nu] = 1.0 + 0j
            linear = identity(nu, a, b, c, alpha, beta) - resid
            if abs(linear - div) > 1e-9 * scale:
                raise ArithmeticError(
                    f"{name}-divisor cross-check failed at order {nu}:"
                    f" {linear!r} vs {div!r}"
                )
            floor_seen = min(floor_seen, abs(div))
            if abs(div) < divisor_floor:
                raise SmallDivisor(nu, abs(div))
            unknown[nu] = -resid / div
            scale = max(scale, abs(unknown[nu]))

    coeffs = ConjugacyCoeffs(
        a=tuple(a), b=tuple(b), c=tuple(c), params=p, small_divisor_floor=floor_seen
    )
    residuals = residual_norms(coeffs)
    # The vanishing-residual post-condition is enforceable only while no
    # divisor got small: once one does, round-off is amplified by 1/|div|
    # at every later order and the raw residuals quantify exactly that
    # sensitivity (callers read them as the ``residuals`` field).
    if floor_seen >= 1e-4 and max(residuals) > 1e-10 * scale:
        raise ArithmeticError(
            "solved series leave residuals ({:.2e}, {:.2e}, {:.2e})".format(*residuals)
        )
    return replace(coeffs, residuals=residuals)


def residual_norms(coeffs: ConjugacyCoeffs) -> tuple[float, float, float]:
    """Max coefficient modulus of each conjugacy identity through the
    truncation order, after substituting the solved series."""
    e1, e2, e3 = conjugacy_equations(
        coeffs.a, coeffs.b, coeffs.c, coeffs.params.alpha, coeffs.params.beta
    )
    return tuple(max_abs(e) for e in (e1, e2, e3))


def evaluate_conjugacy(coeffs: ConjugacyCoeffs, x: complex, y: complex) -> complex:
    """psi evaluated by truncated series (finite x only)."""
    a, b, c = (
        reduce(lambda acc, co: acc * y + co, reversed(s), 0j)
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
    # G is the NumPy half's map; no command runs this check
    from .maps import InvertedSquareMap

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


def estimate_radius(coeffs: ConjugacyCoeffs, order: int | None = None) -> float:
    """Inverse-limsup proxy for the convergence radius: exp of the negated
    least-squares slope of ln max(|a_nu|, |b_nu|, |c_nu|) over the top
    half of the orders up to ``order`` (all of them by default)."""
    n = coeffs.order if order is None else order
    if n < 8:
        raise ValueError("radius estimation needs order >= 8")
    mags = [max_abs(z) for z in zip(coeffs.a, coeffs.b, coeffs.c)]
    ks = [k for k in range(n // 2, n + 1) if mags[k] > 0]
    logs = [math.log(mags[k]) for k in ks]
    k_mean, log_mean = math.fsum(ks) / len(ks), math.fsum(logs) / len(logs)
    slope = math.fsum(
        (k - k_mean) * (v - log_mean) for k, v in zip(ks, logs)
    ) / math.fsum((k - k_mean) ** 2 for k in ks)
    return math.exp(-slope)


def coeffs_to_json(coeffs: ConjugacyCoeffs) -> dict:
    """JSON-ready export; complex numbers become [re, im] pairs."""

    def series(s):
        return [[z.real, z.imag] for z in s]

    return {
        "alpha": [coeffs.params.alpha.real, coeffs.params.alpha.imag],
        "beta": [coeffs.params.beta.real, coeffs.params.beta.imag],
        "N": coeffs.order,
        "a": series(coeffs.a),
        "b": series(coeffs.b),
        "c": series(coeffs.c),
        "divisor_floor_hit": coeffs.small_divisor_floor,
    }
