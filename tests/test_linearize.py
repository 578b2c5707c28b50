import cmath
import hashlib
import math
import random

import numpy as np
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


# --- frozen NumPy solver ----------------------------------------------------
# A frozen copy of the solver that the coefficient-at-a-time tuple solver
# replaced: every identity evaluated on whole coefficient arrays, each
# complex product from four real products and two real sums, as Python
# rounds it.  It is the oracle for the bits of a, b, c and the divisor floor.

def np_times(z, w):
    re = z.real * w.real - z.imag * w.imag
    im = z.real * w.imag + z.imag * w.real
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def np_mul(u, v):
    n = len(u)
    terms = np_times(u[:, None], v[None, :n])
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        out[i:] += terms[i, : n - i]
    return out


def np_shift(u):
    return np.concatenate(([0j], u[:-1]))


def np_scale_argument(u, c):
    powers = [1.0 + 0j]
    for _ in range(len(u) - 1):
        powers.append(powers[-1] * c)
    return np_times(np.array(powers), u)


def np_x2_identity(a, b, c, alpha, beta):
    ib2 = 1.0 / (beta * beta)
    a_, c_ = np_scale_argument(a, ib2), np_scale_argument(c, ib2)
    al2 = alpha * alpha
    a_c, a_a, c_a, c_c = np_mul(a_, c), np_mul(a_, a), np_mul(c_, a), np_mul(c_, c)
    return (
        np_times(beta, a_c)
        + np_times(beta, a_a)
        - c_a
        + np_times(alpha, a_a)
        + np_shift(np_times(al2, a_c) - np_times(alpha, c_c) - c_c - c_a)
    )


def np_x1_identity(a, b, c, alpha, beta):
    ib2 = 1.0 / (beta * beta)
    a_, b_, c_ = (np_scale_argument(s, ib2) for s in (a, b, c))
    al2 = alpha * alpha
    b_c, bc_ = np_mul(b_, c), np_mul(b, c_)
    return (
        np_times(beta, a_)
        - np_times(beta, a)
        + np_shift(
            np_times(al2, a_) - np_times(alpha * beta, c) - np_times(beta, c)
            - np_times(beta, a) - np_times(alpha, c_) - c_
        )
        + np_times(beta * (alpha + beta), np_mul(a, b_))
        + np_times(alpha + beta, np_mul(b, a_))
        + np_times(beta * beta, b_c)
        - bc_
        + np_shift(np_times(al2 * beta, b_c) - bc_)
    )


def np_x0_identity(a, b, c, alpha, beta):
    b_ = np_scale_argument(b, 1.0 / (beta * beta))
    al2 = alpha * alpha
    forcing = np.zeros(len(b), dtype=complex)
    forcing[1:2] = alpha + 1.0
    return (
        forcing
        + b
        - np_times(beta, b_)
        - np_shift(np_times(al2, b_))
        + np_shift(b)
        - np_times(alpha + beta, np_mul(b_, b))
    )


# near-resonant pairs overflow to inf and nan, as the frozen solver did
@np.errstate(over="ignore", invalid="ignore")
def np_solve_coefficients(p, order, divisor_floor=1e-8):
    """(a, b, c, small_divisor_floor) as arrays and a float, or the error
    the frozen solver raises."""
    alpha, beta = p.alpha, p.beta
    a, b, c = (np.zeros(order + 1, dtype=complex) for _ in range(3))
    a[0], c[0] = 1.0 - beta, alpha + beta
    floor_seen = float("inf")

    def scale():
        return max(1.0, float(np.abs(np.concatenate((a, b, c))).max()))

    for nu in range(1, order + 1):
        series = [s[: nu + 1] for s in (a, b, c)]
        for identity, i, div in (
            (np_x0_identity, 1, 1.0 - beta ** (1 - 2 * nu)),
            (np_x1_identity, 0, beta ** (1 - 2 * nu) - beta),
            (np_x2_identity, 2, (1.0 - beta) * (beta - beta ** (-2 * nu))),
        ):
            resid = identity(*series, alpha, beta)[nu]
            bumped = list(series)
            bumped[i] = series[i].copy()
            bumped[i][nu] = 1.0
            linear = identity(*bumped, alpha, beta)[nu] - resid
            if abs(linear - div) > 1e-9 * scale():
                raise ArithmeticError(f"{'abc'[i]}-divisor cross-check failed at order {nu}")
            floor_seen = min(floor_seen, abs(div))
            if abs(div) < divisor_floor:
                raise SmallDivisor(nu, abs(div))
            series[i][nu] = -complex(resid) / div
    if floor_seen >= 1e-4:
        norms = [float(np.abs(f(a, b, c, alpha, beta)).max())
                 for f in (np_x2_identity, np_x1_identity, np_x0_identity)]
        if max(norms) > 1e-10 * scale():
            raise ArithmeticError("solved series leave residuals")
    return a, b, c, floor_seen


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


class TestFrozenSolverBits:
    """a, b, c and the divisor floor equal the frozen NumPy solver's, by
    ``float.hex``."""

    @staticmethod
    def assert_same_bits(params, order):
        try:
            a, b, c, floor = np_solve_coefficients(params, order)
        except (SmallDivisor, ArithmeticError) as exc:
            with pytest.raises(type(exc)):
                solve_coefficients(params, order)
            return
        coeffs = solve_coefficients(params, order)
        for got, want in zip((coeffs.a, coeffs.b, coeffs.c), (a, b, c)):
            assert _bits(got) == _bits(want.tolist())
        assert coeffs.small_divisor_floor.hex() == floor.hex()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        alpha_angle=st.floats(0.0, 1.0, exclude_max=True),
        freq=st.floats(1e-3, 1.0 - 1e-3),
        order=st.integers(1, 60),
    )
    def test_drawn_pairs(self, alpha_angle, freq, order):
        try:
            check_nonresonant(freq)
        except ResonantParameter:
            assume(False)
        self.assert_same_bits(MapParams.from_angles(alpha_angle, freq), order)

    @pytest.mark.parametrize("order", [12, 40, 120])
    def test_near_resonant_pair(self, order):
        # (0.77, 1/7 + 1e-5): the coefficients pass 1e25 by order 40
        self.assert_same_bits(MapParams.from_angles(0.77, 1.0 / 7.0 + 1e-5), order)


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
