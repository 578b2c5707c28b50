import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jonq.degree as degree_mod
from jonq.degree import (
    HomogeneousMap,
    base_point_check,
    certified_degrees,
    compose,
    degree_sequence,
    family_base_points,
    fiber_degrees,
    growth_classify,
    iterate_degrees,
    linear_map,
    specialize_f,
)
from jonq.errors import SpecializationMismatch, ZeroComponent

GENS = X, Y, Z = sp.symbols("x y z")


class TestSpecialize:
    def test_degree_two(self):
        f = specialize_f(3, 5)
        assert f.degree == 2
        assert all(c.total_degree() == 2 for c in f.components)

    def test_coefficients(self):
        f = specialize_f(3, 5)
        c0, c1, c2 = f.components
        assert c0.as_expr().expand() == (3 * X * Z + Y * Z).expand()
        assert c1.as_expr().expand() == (5 * X * Y + 5 * Y * Z).expand()
        assert c2.as_expr().expand() == (X * Z + Z * Z).expand()

    def test_base_point_annihilates(self):
        f = specialize_f(3, 5)
        assert f.evaluate((1, 0, 0)) == (0, 0, 0)

    def test_zero_beta_rejected(self):
        with pytest.raises(ZeroComponent):
            specialize_f(3, 0)


class TestCompose:
    def test_identity_neutral(self):
        f = specialize_f(3, 5)
        ident = linear_map([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        again = compose(f, ident)
        assert again.degree == 2
        assert [c.as_expr() for c in again.components] == [
            c.as_expr() for c in f.components
        ]

    @pytest.mark.parametrize("a,b", [(3, 5), (7, 11)])
    def test_square_removes_z_x_plus_z(self, a, b):
        # raw degree 4, common factor z(x+z), reduced components known in
        # closed form
        f = specialize_f(a, b)
        sq = compose(f, f)
        assert sq.degree == 2
        want = (
            (a * (a * X + Y) * Z + b * Y * (X + Z)).expand(),
            (b * b * Y * ((a + 1) * X + Y + Z)).expand(),
            (Z * ((a + 1) * X + Y + Z)).expand(),
        )
        got = tuple(c.as_expr().expand() for c in sq.components)
        # reduced triple is defined up to one common scalar
        ratio = sp.simplify(got[2] / want[2])
        assert ratio.is_constant()
        assert all(sp.simplify(g - ratio * w) == 0 for g, w in zip(got, want))

    def test_association_of_composition(self):
        f = specialize_f(3, 5)
        sq = compose(f, f)
        left = compose(sq, f)
        right = compose(f, sq)
        assert left.degree == right.degree == 3
        ratio = sp.simplify(left.components[2].as_expr() / right.components[2].as_expr())
        assert ratio.is_constant()

    def test_integer_content_divided_out(self):
        # substituting 2 * identity scales the raw triple by 4; the reduced
        # triple is the integer triple of f again
        f = specialize_f(3, 5)
        double = linear_map([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert compose(f, double).components == f.components

    def test_rational_specialization_gives_integer_triple(self):
        f = specialize_f(Fraction(7, 3), Fraction(-2, 5))
        sq = compose(f, f)
        assert sq.degree == 2
        assert all(c.domain == sp.QQ for c in sq.components)
        coeffs = [c for comp in sq.components for c in comp.coeffs()]
        assert all(c.is_integer for c in coeffs)
        assert sp.igcd(*coeffs) == 1


class TestCoeffGuard:
    def test_accepts_beyond_str_limit(self):
        # 5001 decimal digits: over the 4300-digit str() limit, far under
        # the guard's own limit
        degree_mod._coeff_guard(sp.Poly(10**5000 * X + Y, *GENS, domain="QQ"))

    @pytest.mark.parametrize("limit", [5000, 5001, 5002])
    def test_limit_is_in_decimal_digits(self, monkeypatch, limit):
        monkeypatch.setattr(degree_mod, "_COEFF_DIGIT_LIMIT", limit)
        at_limit = 10**limit - 1
        degree_mod._coeff_guard(sp.Poly(-at_limit * X + Y, *GENS, domain="QQ"))
        with pytest.raises(ArithmeticError):
            degree_mod._coeff_guard(
                sp.Poly(-(at_limit + 1) * X + Y, *GENS, domain="QQ")
            )
        with pytest.raises(ArithmeticError):
            degree_mod._coeff_guard(sp.Poly(at_limit**2 * Z, *GENS, domain="QQ"))


class TestDegreeSequence:
    def test_family_sequence(self):
        # exact sequence certified at two random specializations
        assert degree_sequence(8, seed=0) == [2, 2, 3, 3, 4, 4, 5, 5]

    def test_linear_automorphism_flat(self):
        m = linear_map([(1, 1, 0), (0, 1, 0), (0, 0, 1)])
        assert iterate_degrees(m, 6) == [1, 1, 1, 1, 1, 1]

    def test_submultiplicative(self):
        degs = degree_sequence(8, seed=1)
        seq = {i + 1: d for i, d in enumerate(degs)}
        for n in range(1, 8):
            for m in range(1, 8 - n + 1):
                assert seq[n + m] <= seq[n] * seq[m]

    def test_range_guard(self):
        f = specialize_f(3, 5)
        with pytest.raises(ValueError):
            iterate_degrees(f, 0)
        with pytest.raises(ValueError):
            iterate_degrees(f, 13)

    def test_mismatch_protocol(self, monkeypatch):
        calls = []

        def fake_fiber(alpha, beta, n):
            calls.append((alpha, beta))
            return [2] * n if len(calls) % 2 else [3] * n

        monkeypatch.setattr(degree_mod, "fiber_degrees", fake_fiber)
        with pytest.raises(SpecializationMismatch):
            degree_sequence(4, seed=0)
        assert len(calls) == 6  # three attempts, two specializations each


_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


class TestFiberPath:
    """The fiber-matrix degree formula against the composition oracle."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        alpha=st.one_of(st.integers(2, 10_000), _RATIONALS),
        beta=st.one_of(st.integers(2, 10_000), _RATIONALS.filter(lambda q: q != 0)),
        n=st.integers(1, 8),
    )
    # the degenerate specializations, where roots of det A_n repeat and
    # the entries of A_n share a factor; (-1, 1) makes every fiber map an
    # involution, so the degrees stay bounded
    @example(alpha=0, beta=1, n=8)
    @example(alpha=0, beta=-1, n=8)
    @example(alpha=0, beta=2, n=8)
    @example(alpha=1, beta=1, n=8)
    @example(alpha=1, beta=-1, n=8)
    @example(alpha=1, beta=2, n=8)
    @example(alpha=-1, beta=1, n=8)
    @example(alpha=-1, beta=-1, n=8)
    @example(alpha=-1, beta=2, n=8)
    def test_matches_composition(self, alpha, beta, n):
        assert fiber_degrees(alpha, beta, n) == iterate_degrees(specialize_f(alpha, beta), n)

    @pytest.mark.parametrize("alpha,beta", [(Fraction(7, 3), Fraction(-2, 5)), (9931, 4427)])
    def test_matches_composition_at_maximum(self, alpha, beta):
        n = degree_mod.MAX_DEGREE_STEPS
        assert fiber_degrees(alpha, beta, n) == iterate_degrees(specialize_f(alpha, beta), n)

    def test_zero_beta_rejected(self):
        with pytest.raises(ZeroComponent):
            fiber_degrees(3, 0, 4)

    def test_range_guard(self):
        for n in (0, degree_mod.MAX_DEGREE_STEPS + 1):
            with pytest.raises(ValueError):
                fiber_degrees(3, 5, n)

    def test_certified_pairs(self):
        degs, pairs = certified_degrees(8, seed=0)
        assert degs == degree_sequence(8, seed=0)
        assert len(pairs) == 2
        assert all(2 <= v <= 10_000 for pair in pairs for v in pair)

    def test_single_pair_draws_its_partner(self):
        # one supplied pair is cross-checked against the seed's first draw
        rng = random.Random(3)
        degs, pairs = certified_degrees(6, seed=3, specializations=[(3, 5)])
        assert degs == [2, 2, 3, 3, 4, 4]
        assert pairs == ((3, 5), (rng.randint(2, 10_000), rng.randint(2, 10_000)))

    def test_certified_pairs_after_retry(self, monkeypatch):
        # the first attempt disagrees; the pairs reported are the second's
        calls = []
        real = degree_mod.fiber_degrees

        def flaky(alpha, beta, n):
            calls.append((alpha, beta))
            if len(calls) == 2:
                return [1] * n
            return real(alpha, beta, n)

        monkeypatch.setattr(degree_mod, "fiber_degrees", flaky)
        degs, pairs = certified_degrees(6, seed=4)
        assert degs == [2, 2, 3, 3, 4, 4]
        assert len(calls) == 4
        assert list(pairs) == calls[2:]


class TestGrowthClassify:
    def test_bounded(self):
        report = growth_classify([1, 1, 1, 1, 1, 1])
        assert report.growth_class == "Bounded"
        assert report.lambda_estimate == pytest.approx(1.0)

    def test_exponential(self):
        report = growth_classify([2, 4, 8, 16, 32, 64])
        assert report.growth_class == "Exponential"
        assert report.lambda_estimate == pytest.approx(2.0, rel=1e-6)

    def test_family_is_linear_with_unit_dynamical_degree(self):
        degs = degree_sequence(8, seed=2)
        report = growth_classify(degs)
        assert report.growth_class == "Linear"
        assert report.lambda_estimate == pytest.approx(5.0 ** (1.0 / 8.0))
        # trend toward 1: the N-value sits below the N/2-value
        assert report.lambda_estimate < report.lambda_estimate_half
        assert report.linear_slope > 0
        assert report.entropy_bound == pytest.approx(math.log(report.lambda_estimate))

    def test_quadratic(self):
        degs = [1 + n * n for n in range(1, 9)]
        assert growth_classify(degs).growth_class == "Quadratic"

    def test_needs_six(self):
        with pytest.raises(ValueError):
            growth_classify([1, 2, 3])


class TestBasePoints:
    def test_listed_base_points(self):
        f = specialize_f(3, 5)
        assert base_point_check(f, family_base_points(f)) == [True, True, True]

    def test_generic_point_not_base(self):
        f = specialize_f(3, 5)
        assert base_point_check(f, [(1, 1, 1)]) == [False]

    def test_zero_triple_rejected(self):
        f = specialize_f(3, 5)
        with pytest.raises(ValueError):
            base_point_check(f, [(0, 0, 0)])

    def test_specialization_aware_third_point(self):
        f = specialize_f(Fraction(7, 3), 5)
        pts = family_base_points(f)
        assert pts[2] == (-1, Fraction(7, 3), 1)
        assert base_point_check(f, pts) == [True, True, True]
