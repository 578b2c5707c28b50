import cmath
import math
import random

import numpy as np
import pytest

from jonq.algebra import (
    INFINITY,
    check_nonresonant,
    chordal,
    projective_action,
)
from jonq.errors import IndeterminateAction, ResonantParameter


def rand_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_mat(rng, scale=1.0):
    return np.array([[rand_complex(rng, scale) for _ in range(2)] for _ in range(2)])


class TestProjectiveAction:
    def test_matches_map_first_coordinate(self):
        rng = random.Random(5)
        alpha = cmath.exp(0.41j)
        for _ in range(50):
            x = rand_complex(rng, 2.0)
            y = rand_complex(rng, 2.0)
            m = np.array([[alpha, y], [1.0, 1.0]])
            if abs(x + 1) < 1e-6:
                continue
            assert projective_action(m, x) == pytest.approx((alpha * x + y) / (x + 1))

    def test_infinity_maps_to_leading_ratio(self):
        alpha = cmath.exp(0.3j)
        m = np.array([[alpha, 0.2 + 0.1j], [1.0, 1.0]])
        assert projective_action(m, INFINITY) == pytest.approx(alpha)

    def test_base_point_is_indeterminate(self):
        alpha = cmath.exp(2j * math.pi * 0.4142)
        m = np.array([[alpha, alpha], [1.0, 1.0]])  # generator at y = alpha
        with pytest.raises(IndeterminateAction):
            projective_action(m, -1.0 + 0j)

    def test_pole_goes_to_infinity(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
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
