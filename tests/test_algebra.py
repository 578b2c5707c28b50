import cmath
import math
import random

import pytest

from jonq.algebra import (
    INFINITY,
    Mat2,
    check_nonresonant,
    chordal,
    projective_action,
    tree_sum,
)
from jonq.errors import IndeterminateAction, ResonantParameter


def rand_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_mat(rng, scale=1.0):
    return Mat2(*(rand_complex(rng, scale) for _ in range(4)))


class TestMat2:
    def test_identity_multiplication(self):
        rng = random.Random(1)
        m = rand_mat(rng)
        assert Mat2.identity() @ m == m
        assert m @ Mat2.identity() == m

    def test_square_of_ones(self):
        m = Mat2(1, 1, 1, 1)
        sq = m @ m
        assert sq == Mat2(2, 2, 2, 2)

    def test_two_step_generator_product_hand_oracle(self):
        # A(y) = [[alpha, y], [1, 1]] with alpha = i, beta = i, y = 1:
        # A(beta*y) A(y) multiplied out by hand
        alpha = 1j
        a_y = Mat2(alpha, 1.0, 1.0, 1.0)
        a_by = Mat2(alpha, 1j, 1.0, 1.0)
        prod = a_by @ a_y
        assert prod == Mat2(-1 + 1j, 2j, 1 + 1j, 2)

    def test_frobenius_values(self):
        assert Mat2.identity().frobenius() == pytest.approx(math.sqrt(2))
        assert Mat2(2, 0, 0, 0.5).frobenius() == pytest.approx(math.sqrt(4.25))
        assert Mat2(0, 0, 0, 0).frobenius() == 0.0

    def test_submultiplicative(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rand_mat(rng, 3.0), rand_mat(rng, 3.0)
            assert (a @ b).frobenius() <= a.frobenius() * b.frobenius() * (1 + 1e-12)

    def test_inverse_and_det(self):
        rng = random.Random(11)
        m = rand_mat(rng)
        prod = m @ m.inverse()
        assert abs(prod.m00 - 1) < 1e-12 and abs(prod.m11 - 1) < 1e-12
        assert abs(prod.m01) < 1e-12 and abs(prod.m10) < 1e-12


class TestProjectiveAction:
    def test_matches_map_first_coordinate(self):
        rng = random.Random(5)
        alpha = cmath.exp(0.41j)
        for _ in range(50):
            x = rand_complex(rng, 2.0)
            y = rand_complex(rng, 2.0)
            m = Mat2(alpha, y, 1.0, 1.0)
            if abs(x + 1) < 1e-6:
                continue
            assert projective_action(m, x) == pytest.approx((alpha * x + y) / (x + 1))

    def test_infinity_maps_to_leading_ratio(self):
        alpha = cmath.exp(0.3j)
        m = Mat2(alpha, 0.2 + 0.1j, 1.0, 1.0)
        assert projective_action(m, INFINITY) == pytest.approx(alpha)

    def test_base_point_is_indeterminate(self):
        alpha = cmath.exp(2j * math.pi * 0.4142)
        m = Mat2(alpha, alpha, 1.0, 1.0)  # generator at y = alpha
        with pytest.raises(IndeterminateAction):
            projective_action(m, -1.0 + 0j)

    def test_pole_goes_to_infinity(self):
        m = Mat2(2.0, 1.0, 1.0, 1.0)
        assert projective_action(m, -1.0 + 0j) is INFINITY

    def test_action_is_morphism(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b = rand_mat(rng), rand_mat(rng)
            x = rand_complex(rng, 2.0)
            try:
                lhs = projective_action(a @ b, x)
                rhs = projective_action(a, projective_action(b, x))
            except IndeterminateAction:
                continue
            assert chordal(lhs, rhs) < 1e-12


class TestChordal:
    def test_infinity_is_ordinary(self):
        assert chordal(INFINITY, INFINITY) == 0.0
        assert chordal(INFINITY, 0j) == pytest.approx(1.0)
        big = 1e9 + 0j
        assert chordal(INFINITY, big) < 1e-8

    def test_symmetry(self):
        rng = random.Random(2)
        for _ in range(20):
            x, y = rand_complex(rng, 5), rand_complex(rng, 5)
            assert chordal(x, y) == pytest.approx(chordal(y, x))


class TestGuardsAndSums:
    def test_resonance_guard(self):
        with pytest.raises(ResonantParameter):
            check_nonresonant(0.5)
        with pytest.raises(ResonantParameter):
            check_nonresonant(21.0 / 64.0)
        check_nonresonant((math.sqrt(5) - 1) / 2)
        check_nonresonant(1.0 / 7.0 + 1e-7)  # near-resonant but resolvable

    def test_tree_sum_matches_sum(self):
        rng = random.Random(6)
        vals = [rng.uniform(-1, 1) for _ in range(37)]
        assert tree_sum(vals) == pytest.approx(sum(vals), abs=1e-12)
        assert tree_sum([]) == 0.0
