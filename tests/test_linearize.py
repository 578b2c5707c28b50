import cmath
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jonq.linearize as linearize_mod
from jonq.algebra import DEFAULT_ALPHA_ANGLE, GOLDEN_FREQ
from jonq.errors import SmallDivisor
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
    times,
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


def _bits(series):
    return [(z.real.hex(), z.imag.hex()) for z in series.tolist()]


def rand_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


class TestSeriesHelpers:
    """Truncated series as coefficient arrays, with the product, shift and
    argument scaling of the conjugacy solver."""

    def rand_series(self, rng, order):
        return np.array([rand_complex(rng) for _ in range(order + 1)])

    def test_ring_laws_exact(self):
        rng = random.Random(23)
        n = 8
        for _ in range(20):
            a, b, c = (self.rand_series(rng, n) for _ in range(3))
            assert self._close(mul(mul(a, b), c), mul(a, mul(b, c)))
            assert self._close(mul(a, b + c), mul(a, b) + mul(a, c))

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
        assert full[:4].tobytes() == chopped.tobytes()

    def test_scale_argument_identity(self):
        rng = random.Random(9)
        s = self.rand_series(rng, 6)
        assert scale_argument(s, 1.0).tobytes() == s.tobytes()

    def test_scale_argument_monomial(self):
        beta = cmath.exp(2j * math.pi * 0.37)
        c = beta ** -2
        s = np.zeros(6, dtype=complex)
        s[1] = 1.0
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
        s = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert shift(s).tolist() == [0j, 1 + 0j, 2 + 0j]
        # psi(1, y) with b = c = 0 is a(y)
        zero = np.zeros(3, dtype=complex)
        coeffs = ConjugacyCoeffs(a=s, b=zero, c=zero, params=None, small_divisor_floor=1.0)
        assert evaluate_conjugacy(coeffs, 1.0, 0.5) == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)


class TestIdentities:
    def test_products_round_as_python(self):
        # times and mul match Python's complex product and the oracle's
        # ascending sum bit for bit, whatever FMA the CPU offers
        rng = random.Random(5)
        u, v = (
            np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)])
            for _ in range(2)
        )
        python = [x * y for x, y in zip(u.tolist(), v.tolist())]
        assert _bits(times(u, v)) == _bits(np.array(python))
        assert _bits(mul(u, v)) == _bits(np.array(_mul(u.tolist(), v.tolist(), 39)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 16))
    def test_each_identity_is_its_component(self, seed, order):
        # the solver evaluates one identity at a time; each must be the
        # matching component of conjugacy_equations bit for bit, and agree
        # with the independent oracle
        rng = random.Random(seed)

        def series():
            return np.array(
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order + 1)]
            )

        a, b, c = series(), series(), series()
        alpha = cmath.exp(2j * math.pi * rng.random())
        beta = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
        combined = conjugacy_equations(a, b, c, alpha, beta)
        oracle = oracle_residuals(a.tolist(), b.tolist(), c.tolist(), alpha, beta, order)
        for k, identity in enumerate((x2_identity, x1_identity, x0_identity)):
            single = identity(a, b, c, alpha, beta)
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
            return np.array(
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order + 1)]
            )

        a, b, c = series(), series(), series()
        alpha = cmath.exp(2j * math.pi * rng.random())
        beta = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
        for identity in (x2_identity, x1_identity, x0_identity):
            full = identity(a, b, c, alpha, beta)
            cut = identity(a[: k + 1], b[: k + 1], c[: k + 1], alpha, beta)
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
        a = coeffs.a.tolist() + [0j] * 12
        b = coeffs.b.tolist() + [0j] * 12
        c = coeffs.c.tolist() + [0j] * 12
        for e in oracle_residuals(a, b, c, P.alpha, P.beta, 24):
            assert max(abs(x) for x in e[:13]) <= 1e-10

    def test_perturbed_coefficient_is_detected(self):
        coeffs = solve_coefficients(P, 6)
        b = coeffs.b.copy()
        b[1] += 1e-3
        perturbed = ConjugacyCoeffs(
            a=coeffs.a, b=b, c=coeffs.c,
            params=P, small_divisor_floor=coeffs.small_divisor_floor,
        )
        r1, r2, r3 = residual_norms(perturbed)
        assert r3 >= 1e-4

    def test_seeds_only_forcing_term(self):
        # with only the order-0 seeds, the first identity residual at order
        # 1 in the x^0 equation is the forcing term alpha + 1
        w = 8
        a, b, c = (np.zeros(w + 1, dtype=complex) for _ in range(3))
        a[0], c[0] = 1.0 - P.beta, P.alpha + P.beta
        _, _, e3 = conjugacy_equations(a, b, c, P.alpha, P.beta)
        assert abs(e3[1]) == pytest.approx(abs(P.alpha + 1.0), abs=1e-14)
        assert abs(e3[1]) > 0.1

    def test_determinism_bitwise(self):
        c1 = solve_coefficients(P, 10)
        c2 = solve_coefficients(P, 10)
        assert c1.a.tobytes() == c2.a.tobytes()
        assert c1.b.tobytes() == c2.b.tobytes()
        assert c1.c.tobytes() == c2.c.tobytes()

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

        def skewed(a, b, c, alpha, beta):
            return original(a, b, c, alpha, beta) + 0.5 * {"a": a, "b": b, "c": c}[unknown]

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
            for s in (coeffs.a, coeffs.b, coeffs.c) for z in s.tolist()
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

        def forced(a, b, c, alpha, beta):
            extra = linearize_mod.times(1e-3, linearize_mod.shift(a))
            return original(a, b, c, alpha, beta) + extra

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
            with pytest.raises(ValueError):
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
            for co in reversed(s.tolist()):
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
        geo = np.array([4.0**k for k in range(n + 1)], dtype=complex)
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
