import cmath
import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jonq.linearize as linearize_mod
from jonq.algebra import DEFAULT_ALPHA_ANGLE, GOLDEN_FREQ, check_nonresonant
from jonq.errors import ResonantParameter, SmallDivisor
from jonq.linearize import (
    ConjugacyCoeffs,
    coeffs_to_json,
    conjugacy_equations,
    estimate_radius,
    evaluate_conjugacy,
    mul,
    residual_norms,
    scale_argument,
    shift,
    solve_coefficients,
    verify_conjugacy_numeric,
    x0_identity,
    x1_identity,
    x2_identity,
)
from jonq.maps import MapParams

P = MapParams.from_angles(DEFAULT_ALPHA_ANGLE, GOLDEN_FREQ)
EPS = 2.0**-52


# --- independent residual oracle -------------------------------------------
# Substitutes series into the three conjugacy identities with its own
# convolution code (no np.convolve), at double the working truncation.

def _mul(s, t, order):
    out = [0j] * (order + 1)
    for i, si in enumerate(s[: order + 1]):
        if si == 0:
            continue
        for j, tj in enumerate(t[: order + 1 - i]):
            out[i + j] += si * tj
    return out


def _add(order, *terms):
    out = [0j] * (order + 1)
    for t in terms:
        for i, x in enumerate(t[: order + 1]):
            out[i] += x
    return out


def _smul(c, s):
    return [c * x for x in s]


def _argscale(s, c):
    out, p = [], 1.0 + 0j
    for x in s:
        out.append(x * p)
        p *= c
    return out


def _yshift(s, order):
    return ([0j] + list(s))[: order + 1]


def oracle_residuals(a, b, c, alpha, beta, order):
    a_, b_, c_ = (_argscale(s, 1.0 / beta**2) for s in (a, b, c))
    m = lambda s, t: _mul(s, t, order)
    al2 = alpha * alpha
    e1 = _add(
        order,
        _smul(beta, m(a_, c)),
        _smul(beta, m(a_, a)),
        _smul(-1, m(c_, a)),
        _smul(alpha, m(a_, a)),
        _yshift(
            _add(order, _smul(al2, m(a_, c)), _smul(-alpha, m(c_, c)),
                 _smul(-1, m(c_, c)), _smul(-1, m(c_, a))),
            order,
        ),
    )
    e2 = _add(
        order,
        _smul(beta, a_),
        _smul(-beta, a),
        _yshift(
            _add(order, _smul(al2, a_), _smul(-alpha * beta, c), _smul(-beta, c),
                 _smul(-beta, a), _smul(-alpha, c_), _smul(-1, c_)),
            order,
        ),
        _smul(beta * (alpha + beta), m(a, b_)),
        _smul(alpha + beta, m(b, a_)),
        _smul(beta * beta, m(b_, c)),
        _smul(-1, m(b, c_)),
        _yshift(_add(order, _smul(al2 * beta, m(b_, c)), _smul(-1, m(b, c_))), order),
    )
    lin = [0j] * (order + 1)
    lin[1] = alpha + 1.0
    e3 = _add(
        order,
        lin,
        list(b[: order + 1]),
        _smul(-beta, b_),
        _yshift(_smul(-al2, b_), order),
        _yshift(b, order),
        _smul(-(alpha + beta), m(b_, b)),
    )
    return e1, e2, e3


# --- 40-digit solve ---------------------------------------------------------
# The module's own identities on mpmath numbers, from the float alpha and
# beta, measure the float solve's rounding (``oracle_residuals`` checks the
# identities themselves).

class Magnitude:
    """|z| in an arithmetic where a sum or difference adds moduli: an
    identity evaluated on Magnitudes is the sum of the moduli of the terms
    that it adds."""

    def __init__(self, z):
        self.m = abs(z)

    def __abs__(self):
        return self.m

    def __add__(self, other):
        return Magnitude(self.m + abs(other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return Magnitude(self.m * abs(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Magnitude(self.m / abs(other))

    def __rtruediv__(self, other):
        return Magnitude(abs(other) / self.m)


def forty_digit_error(p, order):
    """The float solve's largest error |float - exact| / max(1, |exact|)
    against a, b and c solved in 40 digits, and its bound order eps kappa.

    In a second 40-digit solve each coefficient x moves, at a seeded random
    phase, by eps times the moduli of the terms that the float solve rounds
    to reach it (the residual that it reads, and the divisor times x) over
    |divisor|; kappa eps is the largest relative move once these propagate.
    A sum of order terms rounds to at most order eps times their moduli.
    """
    rng = random.Random(0)
    with mpmath.workdps(40):
        alpha, beta = mpmath.mpc(p.alpha), mpmath.mpc(p.beta)
        exact = [[1 - beta], [mpmath.mpc(0)], [alpha + beta]]
        moved = [list(s) for s in exact]
        for nu in range(1, order + 1):
            for s in exact + moved:
                s.append(mpmath.mpc(0))
            # b_nu, a_nu and c_nu, as the solver reads them, their divisors,
            # and the moduli of the divisors' terms (|beta| = 1)
            for i, identity, div, div_terms in zip(
                (1, 0, 2), (x0_identity, x1_identity, x2_identity),
                (1 - beta ** (1 - 2 * nu), beta ** (1 - 2 * nu) - beta,
                 (1 - beta) * (beta - beta ** (-2 * nu))),
                (2, 2, 4),
            ):
                x = exact[i][nu] = -identity(nu, *exact, alpha, beta) / div
                moduli = [[Magnitude(z) for z in s] for s in exact]
                terms = abs(identity(nu, *moduli, Magnitude(alpha), Magnitude(beta)))
                rounding = EPS * (terms + abs(x) * div_terms) / abs(div)
                moved[i][nu] = (-identity(nu, *moved, alpha, beta) / div
                                + rounding * mpmath.expjpi(2 * rng.random()))
        exact = sum(exact, [])
        coeffs = solve_coefficients(p, order)
        error, kappa = (max(abs(y - x) / max(1, abs(x)) for x, y in zip(exact, other))
                        for other in (coeffs.a + coeffs.b + coeffs.c, sum(moved, [])))
        return float(error), order * float(kappa)


def _bits(series):
    return [(z.real.hex(), z.imag.hex()) for z in series]


def _add_series(s, t):
    return tuple(x + y for x, y in zip(s, t))


def _series(identity, a, b, c, alpha, beta):
    # the full residual series of one identity, one coefficient at a time
    return tuple(identity(k, a, b, c, alpha, beta) for k in range(len(a)))


def rand_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


class TestSeriesHelpers:
    """Truncated series as coefficient tuples, with the product, shift and
    argument scaling of the conjugacy solver."""

    def rand_series(self, rng, order):
        return tuple(rand_complex(rng) for _ in range(order + 1))

    def test_ring_laws_exact(self):
        rng = random.Random(23)
        n = 8
        for _ in range(20):
            a, b, c = (self.rand_series(rng, n) for _ in range(3))
            assert self._close(mul(mul(a, b), c), mul(a, mul(b, c)))
            assert self._close(mul(a, _add_series(b, c)), _add_series(mul(a, b), mul(a, c)))

    @staticmethod
    def _close(s, t, tol=1e-12):
        return len(s) == len(t) and all(abs(x - y) <= tol for x, y in zip(s, t))

    def test_truncation_discipline(self):
        # coefficient k of a product depends only on inputs 0..k
        rng = random.Random(4)
        a = self.rand_series(rng, 6)
        b = self.rand_series(rng, 6)
        full = mul(a, b)
        chopped = mul(a[:4], b[:4])
        assert _bits(full[:4]) == _bits(chopped)

    def test_scale_argument_identity(self):
        rng = random.Random(9)
        s = self.rand_series(rng, 6)
        assert _bits(scale_argument(s, 1.0)) == _bits(s)

    def test_scale_argument_monomial(self):
        beta = cmath.exp(2j * math.pi * 0.37)
        c = beta ** -2
        s = (0j, 1.0 + 0j, 0j, 0j, 0j, 0j)
        scaled = scale_argument(s, c)
        assert scaled[1] == pytest.approx(c)
        assert all(x == 0 for i, x in enumerate(scaled) if i != 1)

    def test_scale_argument_is_multiplicative(self):
        # (s t)(c y) agrees with s(c y) t(c y) coefficientwise
        rng = random.Random(31)
        c = rand_complex(rng)
        s, t = self.rand_series(rng, 7), self.rand_series(rng, 7)
        lhs = scale_argument(mul(s, t), c)
        rhs = mul(scale_argument(s, c), scale_argument(t, c))
        assert self._close(lhs, rhs)

    def test_shift_and_eval(self):
        s = (1.0 + 0j, 2.0 + 0j, 3.0 + 0j)
        assert list(shift(s)) == [0j, 1 + 0j, 2 + 0j]
        # psi(1, y) with b = c = 0 is a(y)
        zero = (0j, 0j, 0j)
        coeffs = ConjugacyCoeffs(a=s, b=zero, c=zero, params=None, small_divisor_floor=1.0)
        assert evaluate_conjugacy(coeffs, 1.0, 0.5) == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)


class TestIdentities:
    def test_products_round_as_python(self):
        # mul matches the oracle's Python complex products and ascending
        # sum bit for bit, whatever FMA the CPU offers
        rng = random.Random(5)
        u, v = (
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40))
            for _ in range(2)
        )
        assert _bits(mul(u, v)) == _bits(_mul(u, v, 39))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 16))
    def test_each_identity_is_its_component(self, seed, order):
        # the solver evaluates one identity at a time; each must be the
        # matching component of conjugacy_equations bit for bit, and agree
        # with the independent oracle
        rng = random.Random(seed)

        def series():
            return tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order + 1)
            )

        a, b, c = series(), series(), series()
        alpha = cmath.exp(2j * math.pi * rng.random())
        beta = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
        combined = conjugacy_equations(a, b, c, alpha, beta)
        oracle = oracle_residuals(a, b, c, alpha, beta, order)
        for k, identity in enumerate((x2_identity, x1_identity, x0_identity)):
            single = _series(identity, a, b, c, alpha, beta)
            assert _bits(single) == _bits(combined[k])
            assert max(abs(x - y) for x, y in zip(single, oracle[k])) <= 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 16), data=st.data())
    def test_coefficient_k_reads_coefficients_through_k(self, seed, order, data):
        # the solver grows the series one coefficient per order; this is
        # sound because coefficient k of each identity depends only on
        # coefficients 0..k of a, b and c
        k = data.draw(st.integers(0, order - 1))
        rng = random.Random(seed)

        def series():
            return tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order + 1)
            )

        a, b, c = series(), series(), series()
        alpha = cmath.exp(2j * math.pi * rng.random())
        beta = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
        for identity in (x2_identity, x1_identity, x0_identity):
            full = _series(identity, a, b, c, alpha, beta)
            cut = _series(identity, a[: k + 1], b[: k + 1], c[: k + 1], alpha, beta)
            assert _bits(cut) == _bits(full)[: k + 1]


class TestSolve:
    def test_seed_coefficients_exact(self):
        coeffs = solve_coefficients(P, 4)
        assert coeffs.a[0] == 1.0 - P.beta
        assert coeffs.b[0] == 0
        assert coeffs.c[0] == P.alpha + P.beta

    def test_first_order_closed_form(self):
        coeffs = solve_coefficients(P, 4)
        b1 = P.beta * (1.0 + P.alpha) / (1.0 - P.beta)
        assert abs(coeffs.b[1] - b1) < 1e-12

    def test_residuals_vanish_through_order_12(self):
        coeffs = solve_coefficients(P, 12)
        # library-side residuals
        assert max(residual_norms(coeffs)) <= 1e-10
        # independent oracle at double truncation: orders 0..12 must vanish,
        # orders 13..24 are the expected nonzero tail of the truncated solve
        a = list(coeffs.a) + [0j] * 12
        b = list(coeffs.b) + [0j] * 12
        c = list(coeffs.c) + [0j] * 12
        for e in oracle_residuals(a, b, c, P.alpha, P.beta, 24):
            assert max(abs(x) for x in e[:13]) <= 1e-10

    def test_perturbed_coefficient_is_detected(self):
        coeffs = solve_coefficients(P, 6)
        b = list(coeffs.b)
        b[1] += 1e-3
        perturbed = ConjugacyCoeffs(
            a=coeffs.a, b=b, c=coeffs.c,
            params=P, small_divisor_floor=coeffs.small_divisor_floor,
        )
        r1, r2, r3 = residual_norms(perturbed)
        assert r3 >= 1e-4

    def test_nan_coefficient_gives_nan_residuals(self):
        # a NaN past coefficient 0 must reach the norms of the identities
        # that read b (x^1 and x^0), not be dropped by the maximum
        coeffs = solve_coefficients(P, 6)
        b = list(coeffs.b)
        b[3] = complex(math.nan, 0.0)
        broken = ConjugacyCoeffs(
            a=coeffs.a, b=tuple(b), c=coeffs.c,
            params=P, small_divisor_floor=coeffs.small_divisor_floor,
        )
        r1, r2, r3 = residual_norms(broken)
        assert math.isfinite(r1)
        assert math.isnan(r2) and math.isnan(r3)

    def test_seeds_only_forcing_term(self):
        # with only the order-0 seeds, the first identity residual at order
        # 1 in the x^0 equation is the forcing term alpha + 1
        w = 8
        a, b, c = ([0j] * (w + 1) for _ in range(3))
        a[0], c[0] = 1.0 - P.beta, P.alpha + P.beta
        _, _, e3 = conjugacy_equations(a, b, c, P.alpha, P.beta)
        assert abs(e3[1]) == pytest.approx(abs(P.alpha + 1.0), abs=1e-14)
        assert abs(e3[1]) > 0.1

    def test_determinism_bitwise(self):
        c1 = solve_coefficients(P, 10)
        c2 = solve_coefficients(P, 10)
        assert _bits(c1.a) == _bits(c2.a)
        assert _bits(c1.b) == _bits(c2.b)
        assert _bits(c1.c) == _bits(c2.c)

    def test_small_divisor_raises(self):
        near = MapParams.from_angles(DEFAULT_ALPHA_ANGLE, 1.0 / 7.0 + 1e-11)
        with pytest.raises(SmallDivisor) as exc:
            solve_coefficients(near, 8)
        assert exc.value.magnitude < 1e-8

    @pytest.mark.parametrize(
        "name,unknown", [("x0_identity", "b"), ("x1_identity", "a"), ("x2_identity", "c")]
    )
    def test_every_divisor_is_cross_checked(self, monkeypatch, name, unknown):
        # an identity whose linear coefficient in its unknown is off by 0.5
        # must fail the closed-form check at the first order
        original = getattr(linearize_mod, name)

        def skewed(k, a, b, c, alpha, beta):
            return original(k, a, b, c, alpha, beta) + 0.5 * {"a": a, "b": b, "c": c}[unknown][k]

        monkeypatch.setattr(linearize_mod, name, skewed)
        with pytest.raises(ArithmeticError) as exc:
            solve_coefficients(P, 4)
        assert str(exc.value).startswith(f"{unknown}-divisor cross-check failed at order 1:")

    def test_order_40_bits_pinned(self):
        # sha256 of the hex of every coefficient of a, b and c, in order;
        # the solver rounds only in elementwise IEEE operations and Python
        # complex arithmetic, so the bits do not depend on the CPU
        coeffs = solve_coefficients(P, 40)
        text = ",".join(
            f"{z.real.hex()}:{z.imag.hex()}"
            for s in (coeffs.a, coeffs.b, coeffs.c) for z in s
        )
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "08f537e89c4dd446ca568762ba0199c9b3ed82d51305cc6df61ae41360d53ca1")
        # the smallest closed-form divisor, met at order 13
        assert coeffs.small_divisor_floor.hex() == "0x1.a273d808b11bdp-5"

    def test_residual_post_condition_message_pinned(self, monkeypatch):
        # the solver reads an x^0 identity that carries an extra 1e-3 a(y) y,
        # which leaves b's divisor as it is; the true identities then keep
        # residuals that the post-condition reports
        original = linearize_mod.x0_identity

        def forced(k, a, b, c, alpha, beta):
            extra = 1e-3 * linearize_mod.shift(a[: k + 1])[k]
            return original(k, a, b, c, alpha, beta) + extra

        monkeypatch.setattr(linearize_mod, "x0_identity", forced)
        with pytest.raises(ArithmeticError) as exc:
            solve_coefficients(P, 6)
        assert type(exc.value) is ArithmeticError
        assert str(exc.value) == "solved series leave residuals (8.95e-16, 1.49e-15, 2.05e-03)"

    @pytest.mark.parametrize("order", [12, 40])
    def test_small_radius_pair_solves(self, order):
        # the coefficients pass 1e6 by order 12 and 1e25 by order 40; a
        # divisor read as a difference of residuals of that size has no
        # digits left, so the solver must divide by the closed form
        near = MapParams.from_angles(0.77, 1.0 / 7.0 + 1e-5)
        coeffs = solve_coefficients(near, order)
        scale = max(abs(z) for s in (coeffs.a, coeffs.b, coeffs.c) for z in s)
        assert scale > 1e6
        assert max(residual_norms(coeffs)) <= 1e-10 * scale

    def test_solved_series_are_read_only(self):
        coeffs = solve_coefficients(P, 4)
        for s in (coeffs.a, coeffs.b, coeffs.c):
            with pytest.raises(TypeError):
                s[1] = 0.0

    def test_small_divisor_message_pinned(self):
        near = MapParams.from_angles(DEFAULT_ALPHA_ANGLE, 1.0 / 7.0 + 1e-11)
        with pytest.raises(SmallDivisor) as exc:
            solve_coefficients(near, 8)
        assert str(exc.value) == "small divisor at order 3: |divisor| = 3.817e-10"

    def test_small_divisor_is_the_closed_form(self):
        # near freq 1/7 the first small divisor is c's at order 3,
        # (1 - beta)(beta - beta^-6) = |1 - beta| |1 - beta^(1 - 2 * 4)|
        near = MapParams.from_angles(DEFAULT_ALPHA_ANGLE, 1.0 / 7.0 + 1e-11)
        beta = near.beta
        with pytest.raises(SmallDivisor) as exc:
            solve_coefficients(near, 8)
        assert exc.value.magnitude == abs((1.0 - beta) * (beta - beta ** -6))
        assert exc.value.magnitude == pytest.approx(
            abs(1.0 - beta) * abs(1.0 - beta ** (1 - 2 * 4)), rel=1e-6
        )


class TestFortyDigitSolve:
    """The float solve within c order eps kappa of the 40-digit solve, c = 1
    and kappa from ``forty_digit_error``: its error is that of rounding.
    Over these cases, 200 drawn pairs and 177 next to freq 1/2, 1/3, 1/4,
    2/3 and 1/5, error / bound was at most 0.19 (median 0.007)."""

    # default: errors 9.7e-15 and 2.7e-14, kappa 505 and 4,720; near-resonant
    # (0.77, 1/7 + 1e-5): the coefficients pass 1e25 by order 40, a_7 is
    # 1.55e-9 off, and kappa is 6.1e7
    @pytest.mark.parametrize("order", [12, 40])
    @pytest.mark.parametrize("params", [P, MapParams.from_angles(0.77, 1.0 / 7.0 + 1e-5)],
                             ids=["default", "near-resonant"])
    def test_error_within_the_condition_bound(self, params, order):
        error, bound = forty_digit_error(params, order)
        assert error <= bound

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        alpha_angle=st.floats(0.0, 1.0, exclude_max=True),
        freq=st.floats(1e-3, 1.0 - 1e-3),
        order=st.integers(1, 30),
    )
    def test_drawn_pairs(self, alpha_angle, freq, order):
        try:
            check_nonresonant(freq)
            error, bound = forty_digit_error(MapParams.from_angles(alpha_angle, freq), order)
        except (ResonantParameter, SmallDivisor, ArithmeticError):
            # the solver's own refusals
            assume(False)
        assert error <= bound


class TestNumericConjugacy:
    def test_zero_fiber_is_moebius_conjugacy(self):
        coeffs = solve_coefficients(P, 12)
        assert verify_conjugacy_numeric(coeffs, 100, y_radius=0.0) < 1e-12

    def test_small_radius_error(self):
        coeffs = solve_coefficients(P, 12)
        assert verify_conjugacy_numeric(coeffs, 200, y_radius=0.01) < 1e-10

    def test_halving_scales_with_order(self):
        # radii chosen so the truncation tail dominates double round-off
        coeffs = solve_coefficients(P, 12)
        radii = [0.64, 0.32, 0.16, 0.08]
        errs = [verify_conjugacy_numeric(coeffs, 200, y_radius=r) for r in radii]
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 2.0**11 <= r <= 2.0**15

    def test_evaluate_matches_series(self):
        coeffs = solve_coefficients(P, 8)
        y = 0.05 * cmath.exp(0.7j)
        x = 0.3 + 0.1j

        def horner(s):
            acc = 0j
            for co in reversed(s):
                acc = acc * y + co
            return acc

        a, b, c = (horner(s) for s in (coeffs.a, coeffs.b, coeffs.c))
        want = (a * x + b) / (c * x + 1.0)
        assert evaluate_conjugacy(coeffs, x, y) == want


class TestRadius:
    def test_stable_across_truncations(self):
        r12 = estimate_radius(solve_coefficients(P, 12))
        r16 = estimate_radius(solve_coefficients(P, 16))
        assert r12 > 0 and r16 > 0
        assert 0.5 <= r12 / r16 <= 2.0

    def test_geometric_series_injection(self):
        n = 12
        geo = tuple(complex(4.0**k) for k in range(n + 1))
        fake = ConjugacyCoeffs(a=geo, b=geo, c=geo, params=P, small_divisor_floor=1.0)
        r = estimate_radius(fake)
        assert r == pytest.approx(0.25, rel=0.2)

    def test_near_resonance_collapses_radius(self):
        generic = estimate_radius(solve_coefficients(P, 12))
        near = MapParams.from_angles(DEFAULT_ALPHA_ANGLE, 1.0 / 7.0 + 1e-7)
        resonant = estimate_radius(solve_coefficients(near, 12))
        assert resonant <= generic / 10.0

    def test_needs_order_eight(self):
        with pytest.raises(ValueError):
            estimate_radius(solve_coefficients(P, 6))


class TestExport:
    def test_json_schema(self):
        coeffs = solve_coefficients(P, 6)
        doc = coeffs_to_json(coeffs)
        assert set(doc) == {"alpha", "beta", "N", "a", "b", "c", "divisor_floor_hit"}
        assert doc["N"] == 6
        assert len(doc["a"]) == 7
        assert doc["b"][0] == [0.0, 0.0]
        assert doc["divisor_floor_hit"] > 0
