"""Exact degree growth of the map family on the projective plane.

The family f(x, y) = ((alpha x + y) / (x + 1), beta y) is a Jonquieres
map: it preserves the pencil of lines y = const and acts on each x-fiber
by a Moebius map.  So f^n(x, y) = (A_n(y) . x, beta^n y), where
M . x = (a x + b) / (c x + d) for M = [[a, b], [c, d]] and

    A_n(y) = M(beta^(n-1) y) ... M(beta y) M(y),    M(y) = [[alpha, y], [1, 1]].

This is the Jonquieres-group picture of Blanc-Deserti, *Degree growth of
birational maps of the plane*; the growth classes (bounded, linear,
quadratic, exponential) are those of Diller-Favre, *Dynamics of
bimeromorphic maps of surfaces*, Amer. J. Math. 2001.

Degree formula.  Let g be a gcd of the four entries of A_n and
[[a, b], [c, d]] = A_n / g, with entries in Q[y].  Then a x + b and
c x + d are coprime in Q[x, y]: a common factor involving x would make
them proportional, against det A_n != 0, and one in y alone would divide
all four entries.  Put x = X/Z, y = Y/Z and homogenize both to the common
degree m = max(deg a + 1, deg b, deg c + 1, deg d):

    P = Z^m (a x + b),    Q = Z^m (c x + d).

In these coordinates f^n = (P/Q, beta^n Y/Z), that is the triple
(P Z : beta^n Y Q : Q Z) of degree m + 1.  Its common factor divides
Z gcd(P, Q), a power of Z because the dehomogenized P and Q are coprime;
by the choice of m, Z divides at most one of P and Q.  So the triple's
gcd is Z when Z divides Q, and 1 otherwise.  At Z = 0 only the terms of
top degree survive, Q(X, Y, 0) = [deg c + 1 = m] c_top X Y^(m-1) +
[deg d = m] d_top Y^m, two distinct monomials that cannot cancel, so Z
divides Q exactly when max(deg c + 1, deg d) < m.  Hence deg f^n is m + 1
when max(deg c + 1, deg d) = m and m otherwise, which in both cases is

    deg f^n = max(deg a + 1, deg b, deg c + 2, deg d + 1).

Finding g.  g^2 divides det A_n = prod_(k<n) (alpha - beta^k y), a product
of linear factors over Q, so g is a product of factors y - alpha/beta^k.
No polynomial Euclid is needed: each candidate root is tested by exact
synthetic division of all four entries, repeated while all four vanish
there, which counts multiplicity.  For generic (alpha, beta) the roots
of det A_n are distinct, so g = 1; g is not constant only where roots
repeat, as for alpha = 0 or beta = +-1.

The formula is checked, not proved, here: the tests compare it with the
composition oracle below, which carries a map as three same-degree
homogeneous polynomials in (x, y, z), substitutes and divides out the
exact gcd with sympy.  sympy is imported only inside the oracle, so the
fiber path, and with it `jonq degree`, never loads it.

Arithmetic is exact throughout (ints and Fractions), with (alpha, beta)
specialized to random integers; genericity is enforced by computing
every degree sequence at two independent specializations and demanding
identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecializationMismatch, ZeroComponent

MAX_DEGREE_STEPS = 12
_COEFF_DIGIT_LIMIT = 1_000_000


# --- the fiber path: 2x2 matrices over Q[y] -----------------------------------
# A polynomial is its coefficient list, constant term first, with no
# trailing zeros; the zero polynomial is [].


def _exact(q):
    """q as an int when it is one, else as a Fraction (ints are faster)."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _trimmed(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trimmed(out)


def _quotient(p: list, r):
    """p / (y - r) by synthetic division, or None when r is not a root."""
    if not p:
        return p
    acc = 0
    out = []
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    if acc != 0:
        return None
    out.pop()  # the remainder
    out.reverse()
    return out


def fiber_degrees(alpha, beta, n: int) -> list[int]:
    """Degrees of f, f^2, ..., f^n at one exact specialization, read from
    the reduced fiber matrices (the formula of the module docstring).

    beta = 0 collapses the second component and raises
    :class:`ZeroComponent`, as the composition oracle does.
    """
    alpha, beta = _exact(alpha), _exact(beta)
    if beta == 0:
        raise ZeroComponent("component vanishes identically")
    if not 1 <= n <= MAX_DEGREE_STEPS:
        raise ValueError(f"n must lie in [1, {MAX_DEGREE_STEPS}]")
    a, b, c, d = [1], [], [], [1]
    roots = []
    degs = []
    for k in range(n):
        # A_(k+1) = M(s y) A_k with s = beta^k
        s = beta**k
        a, b, c, d = (
            _add([alpha * t for t in a], [0] + [s * t for t in c] if c else []),
            _add([alpha * t for t in b], [0] + [s * t for t in d] if d else []),
            _add(a, c),
            _add(b, d),
        )
        root = _exact(Fraction(alpha) / s)
        if root not in roots:
            roots.append(root)
        degs.append(_reduced_degree([a, b, c, d], roots))
    return degs


def _reduced_degree(entries: list, roots: list) -> int:
    """deg f^n from the entries [a, b, c, d] of A_n: divide out their gcd,
    whose roots are among `roots`, with multiplicity, then apply the
    degree formula."""
    for r in roots:
        while True:
            quotients = [_quotient(p, r) for p in entries]
            if None in quotients:
                break
            entries = quotients
    return max(off + len(p) - 1 for off, p in zip((1, 0, 2, 1), entries) if p)


def certified_degrees(n: int, seed: int = 0, specializations=None) -> tuple[list[int], tuple]:
    """The degree sequence of the family and the (alpha, beta) pairs that
    certified it.

    Random integer pairs for (alpha, beta) are drawn from [2, 10^4] until
    there are two: none is drawn when two or more pairs are supplied, one
    partner when a single pair is.  Disagreeing sequences of two drawn
    pairs are retried with fresh pairs up to 3 times before
    :class:`SpecializationMismatch`; a supplied pair fails at once.  The
    pairs returned are those of the attempt that agreed.
    """
    rng = random.Random(seed)
    fixed = tuple(specializations or ())

    def draw():
        return (rng.randint(2, 10_000), rng.randint(2, 10_000))

    attempts = 0
    while True:
        pairs = fixed + tuple(draw() for _ in range(2 - len(fixed)))
        seq = [fiber_degrees(a, b, n) for a, b in pairs]
        if all(s == seq[0] for s in seq[1:]):
            return seq[0], pairs
        attempts += 1
        if fixed or attempts >= 3:
            raise SpecializationMismatch(
                f"degree sequences disagree across specializations: {seq}"
            )


def degree_sequence(n: int, seed: int = 0, specializations=None) -> list[int]:
    """Degree sequence of the family, certified by two specializations
    (see :func:`certified_degrees`)."""
    return certified_degrees(n, seed, specializations)[0]


# --- the composition oracle (sympy, imported on first use) ------------------


def _sympy():
    """sympy and its generators (x, y, z)."""
    import sympy

    return sympy, sympy.symbols("x y z")


@dataclass(frozen=True)
class HomogeneousMap:
    """Three coprime homogeneous polynomials of equal degree."""

    components: tuple  # of sympy Poly in (x, y, z) over QQ
    degree: int
    specialization: tuple  # the exact (alpha, beta) used, as Fractions

    def __post_init__(self):
        degs = set()
        for comp in self.components:
            if comp.is_zero:
                raise ZeroComponent("component vanishes identically")
            if not comp.is_homogeneous:
                raise ValueError("components must be homogeneous")
            degs.add(comp.total_degree())
        if degs != {self.degree}:
            raise ValueError(f"component degrees {degs} != {self.degree}")

    def evaluate(self, point) -> tuple:
        """Exact evaluation at a homogeneous triple."""
        sp, gens = _sympy()
        subs = dict(zip(gens, [sp.Rational(t) for t in point]))
        return tuple(comp.as_expr().subs(subs) for comp in self.components)


def specialize_f(alpha_q, beta_q) -> HomogeneousMap:
    """The degree-2 triple ((alpha x + y) z : beta y (x + z) : z (x + z))
    with exact rational parameter values.

    The family semantics need nonzero values; degenerate ones are still
    accepted so that the genericity cross-check can catch them (beta = 0
    kills a component outright and raises :class:`ZeroComponent`).
    """
    sp, gens = _sympy()
    x, y, z = gens
    a = sp.Rational(Fraction(alpha_q))
    b = sp.Rational(Fraction(beta_q))
    comps = (
        sp.Poly((a * x + y) * z, *gens, domain="QQ"),
        sp.Poly(b * y * (x + z), *gens, domain="QQ"),
        sp.Poly(z * (x + z), *gens, domain="QQ"),
    )
    return HomogeneousMap(
        components=comps, degree=2, specialization=(Fraction(alpha_q), Fraction(beta_q))
    )


def linear_map(rows) -> HomogeneousMap:
    """Degree-1 map from a 3x3 exact coefficient matrix (test inputs)."""
    sp, gens = _sympy()
    comps = []
    for row in rows:
        expr = sum(sp.Rational(Fraction(c)) * g for c, g in zip(row, gens))
        comps.append(sp.Poly(expr, *gens, domain="QQ"))
    return HomogeneousMap(components=tuple(comps), degree=1, specialization=(Fraction(0), Fraction(0)))


def _coeff_guard(poly):
    """Raise ArithmeticError when a numerator of the sympy Poly has more
    than _COEFF_DIGIT_LIMIT decimal digits.  No decimal string is built:
    Python refuses str() on integers over 4300 digits."""
    worst = max((abs(c.p) for c in poly.coeffs()), default=1)
    # worst < 2**bit_length, so more than a bit below the limit the exact
    # power of ten need not be built
    near = worst.bit_length() >= _COEFF_DIGIT_LIMIT * math.log2(10) - 1
    if near and worst >= 10**_COEFF_DIGIT_LIMIT:
        raise ArithmeticError("coefficient size exceeded the desk-scale guard")


def _integer_triple(components) -> tuple:
    """The triple times the least common denominator of its coefficients,
    over ZZ: the same projective map with integer coefficients."""
    sp, _ = _sympy()
    den = sp.ilcm(*(comp.clear_denoms()[0] for comp in components))
    return tuple(comp.mul_ground(den).to_ring() for comp in components)


def compose(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    """Substitute g into f and divide out the exact gcd of the three
    results; the resulting degree is deg f * deg g - deg gcd.

    The arithmetic runs over ZZ on the triples with cleared denominators.
    The gcd over ZZ includes the integer content, so the reduced triple
    has integer coefficients with no common factor.  It is the projective
    map of the rational computation, but its coefficients grow by tens of
    bits per iterate instead of doubling in length.
    """
    sp, gens = _sympy()
    g_int = _integer_triple(g.components)
    powers = {}

    def power(c: int, e: int):
        if (c, e) not in powers:
            powers[c, e] = g_int[c] ** e
        return powers[c, e]

    raw = []
    for comp in _integer_triple(f.components):
        # comp(gx, gy, gz) = sum of coeff * gx**i * gy**j * gz**k over the
        # terms of comp, in Poly arithmetic
        poly = sp.Poly(0, *gens, domain="ZZ")
        for monom, coeff in comp.terms():
            term = sp.Poly(coeff, *gens, domain="ZZ")
            for c, e in enumerate(monom):
                if e:
                    term = term * power(c, e)
            poly = poly + term
        if poly.is_zero:
            raise ZeroComponent("composition produced an identically zero component")
        raw.append(poly)
    common = sp.gcd(sp.gcd(raw[0], raw[1]), raw[2])
    reduced = tuple(sp.exquo(p, common) for p in raw)
    for poly in reduced:
        _coeff_guard(poly)
    check = sp.gcd(sp.gcd(reduced[0], reduced[1]), reduced[2])
    if check.total_degree() != 0:
        raise ArithmeticError("gcd removal left a common factor")
    degree = f.degree * g.degree - common.total_degree()
    return HomogeneousMap(
        components=tuple(poly.to_field() for poly in reduced),
        degree=degree,
        specialization=g.specialization,
    )


def iterate_degrees(f: HomogeneousMap, n: int) -> list[int]:
    """Degrees of f, f^2, ..., f^n by repeated composition."""
    if not 1 <= n <= MAX_DEGREE_STEPS:
        raise ValueError(f"n must lie in [1, {MAX_DEGREE_STEPS}]")
    degs = [f.degree]
    cur = f
    for _ in range(n - 1):
        cur = compose(f, cur)
        degs.append(cur.degree)
    return degs


@dataclass(frozen=True)
class GrowthReport:
    degrees: tuple
    growth_class: str  # Bounded | Linear | Quadratic | Exponential
    lambda_estimate: float
    lambda_estimate_half: float
    linear_slope: float
    entropy_bound: float
    low_confidence: bool


def growth_classify(degrees) -> GrowthReport:
    """Classify a degree sequence and report the dynamical-degree proxy.

    lambda_estimate is (deg f^N)^(1/N) with the N/2 value alongside for
    trend; entropy_bound = log(lambda_estimate) realizes the entropy
    inequality as a report, never as an equality claim.
    """
    degrees = [int(d) for d in degrees]
    if len(degrees) < 6:
        raise ValueError("need at least 6 degrees to classify")
    if any(d <= 0 for d in degrees):
        raise ValueError("degrees must be positive")
    n = len(degrees)
    lam = degrees[-1] ** (1.0 / n)
    half_idx = n // 2
    lam_half = degrees[half_idx - 1] ** (1.0 / half_idx)

    tail = degrees[n // 2 :]
    diffs = [b - a for a, b in zip(degrees, degrees[1:])]
    tail_diffs = diffs[len(diffs) // 2 :]
    second = [b - a for a, b in zip(diffs, diffs[1:])]
    tail_second = second[len(second) // 2 :] or second

    low_confidence = False
    if max(tail) == max(degrees) and all(d == 0 for d in tail_diffs):
        cls = "Bounded"
        slope = 0.0
    elif abs(lam - lam_half) < 0.05 and lam > 1.1:
        cls = "Exponential"
        slope = 0.0
    elif tail_second and min(tail_second) > 0:
        cls = "Quadratic"
        slope = 0.0
    else:
        cls = "Linear"
        top = list(range(n // 2, n))
        xs = [t + 1.0 for t in top]
        ys = [float(degrees[t]) for t in top]
        xm = sum(xs) / len(xs)
        ym = sum(ys) / len(ys)
        den = sum((xx - xm) ** 2 for xx in xs)
        slope = sum((xx - xm) * (yy - ym) for xx, yy in zip(xs, ys)) / den
        low_confidence = slope <= 0
    return GrowthReport(
        degrees=tuple(degrees),
        growth_class=cls,
        lambda_estimate=lam,
        lambda_estimate_half=lam_half,
        linear_slope=slope,
        entropy_bound=math.log(lam),
        low_confidence=low_confidence,
    )


def base_point_check(f: HomogeneousMap, points) -> list[bool]:
    """Exact vanishing of all three components at each homogeneous triple."""
    out = []
    for pt in points:
        if all(Fraction(t) == 0 for t in pt):
            raise ValueError("projective points must be nonzero triples")
        vals = f.evaluate(pt)
        out.append(all(v == 0 for v in vals))
    return out


def family_base_points(f: HomogeneousMap) -> tuple:
    """The three base points (1:0:0), (0:1:0), (-1:alpha:1) at the map's
    own specialization."""
    alpha = f.specialization[0]
    return ((1, 0, 0), (0, 1, 0), (-1, alpha, 1))
