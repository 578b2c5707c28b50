import cmath
import math
import random
import statistics
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jonq.algebra import DEFAULT_ALPHA_ANGLE, GOLDEN_FREQ, INFINITY, is_infinity
from jonq.backend import kernels
from jonq.errors import IndeterminatePoint, InsufficientPoints, Overflow, ResonantParameter
from jonq.linearize import solve_coefficients, verify_conjugacy_numeric
from jonq.maps import (
    InvertedSquareMap,
    MapParams,
    PointP1xC,
    apply_f,
    boxcount_rank,
    classify_orbit_closure,
    cocycle_matrix,
    fixed_points,
    matrix_orbit_equivalence,
    orbit,
    orbit_coordinates,
    semiconjugacy_check,
)

P = MapParams.from_angles(DEFAULT_ALPHA_ANGLE, GOLDEN_FREQ)
# alpha = 1: G is indeterminate exactly at (-1, 1)
ALPHA_ONE = MapParams.from_angles(0.0, GOLDEN_FREQ)
# alpha = -1: f is indeterminate exactly at (-1, -1), and from x = -1 or
# infinity the orbit alternates between them
ALPHA_MINUS_ONE = MapParams(alpha=-1.0 + 0j, beta=P.beta, freq=P.freq)


class TestApply:
    def test_zero_x(self):
        rng = random.Random(0)
        for _ in range(20):
            y = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.1, 2.0)
            q = apply_f(P, PointP1xC(x=0j, y=y))
            assert q.x == pytest.approx(y)
            assert q.y == pytest.approx(P.beta * y)

    def test_indeterminate_point(self):
        with pytest.raises(IndeterminatePoint):
            apply_f(P, PointP1xC(x=-1.0 + 0j, y=P.alpha))

    def test_minus_one_passes_through_infinity(self):
        q = apply_f(P, PointP1xC(x=-1.0 + 0j, y=0.5 + 0j))
        assert is_infinity(q.x)
        follow = apply_f(P, q)
        assert follow.x == pytest.approx(P.alpha)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MapParams(alpha=2.0 + 0j, beta=P.beta, freq=P.freq)
        with pytest.raises(ValueError):
            MapParams(alpha=P.alpha, beta=P.beta, freq=0.123)  # freq/beta mismatch
        # NaN fails the modulus check
        nan = complex(math.nan, 0.0)
        with pytest.raises(ValueError):
            MapParams(alpha=nan, beta=P.beta, freq=P.freq)
        with pytest.raises(ValueError):
            MapParams(alpha=P.alpha, beta=nan, freq=P.freq)


class TestOrbit:
    def test_fiber_modulus_invariant(self):
        q = PointP1xC(x=0.01 + 0j, y=0.01 * cmath.exp(1j * math.pi / 7))
        rec = orbit(P, q, 1000)
        assert len(rec.u) == len(rec.finite) == len(rec.y) == 1001
        devs = [abs(abs(y) - 0.01) for y in rec.y.tolist()]
        assert max(devs) < 1e-12

    def test_exact_hit_truncates(self):
        q = PointP1xC(x=-1.0 + 0j, y=P.alpha)
        rec = orbit(P, q, 100)
        assert len(rec.u) == len(rec.finite) == len(rec.y) == 1
        assert rec.indeterminacy_hits[-1][1] == 0.0

    @pytest.mark.parametrize("p,which,y0", [(P, "f", P.alpha), (P, "f2", P.alpha),
                                            (ALPHA_ONE, "g", 1.0 + 0j)], ids=["f", "f2", "g"])
    def test_exact_indeterminacy_truncates(self, p, which, y0):
        # the kernel's first step has numerator and denominator 0 and stops
        u, finite, y = orbit_coordinates(p, PointP1xC(-1.0 + 0j, y0), 10, which)
        assert len(u) == len(finite) == len(y) == 1

    @pytest.mark.parametrize("which", ["f", "g", "f2"])
    def test_overflow_raises(self, which):
        # alpha x0 + y0 overflows, and the step would give nan
        with pytest.raises(Overflow):
            orbit_coordinates(P, PointP1xC(1.7e308 + 1.7e308j, 0.5 + 0j), 3, which)

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError):
            orbit_coordinates(P, PointP1xC(0.5 + 0j, 0.5 + 0j), 10, "h")

    def test_escape_flag(self):
        # start chosen so the first step lands exactly on x = -1
        y0 = 0.5 + 0j
        x0 = -(1.0 + y0) / (1.0 + P.alpha)
        rec = orbit(P, PointP1xC(x=x0, y=y0), 3)
        assert rec.escaped

    def test_proximity_logged(self):
        q = PointP1xC(x=-1.0 + 1e-10 + 0j, y=P.alpha + 1e-10)
        rec = orbit(P, q, 2, dist_tol=1e-8)
        assert rec.indeterminacy_hits
        assert rec.indeterminacy_hits[0][0] == 0


@st.composite
def map_params(draw):
    """MapParams from drawn alpha and beta angles; resonant beta is skipped."""
    alpha_angle = draw(st.floats(0.0, 1.0, exclude_max=True))
    freq = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        return MapParams.from_angles(alpha_angle, freq)
    except ResonantParameter:
        assume(False)


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


_ESCAPE_X0 = -(1.0 + 0.5) / (1.0 + P.alpha)  # step 1 lands exactly on x = -1
# G's denominator is an exact 0 at step 1: x passes through infinity
_G_ESCAPE_X0 = -(P.beta + P.alpha * P.alpha * 1.0) / (P.alpha + P.beta)


def assert_orbit_bits(orbit, ref):
    """The kernel's (u, finite, y) are the points (x, y) of ``ref`` to the
    bit, with finite False where x is INFINITY."""
    u, finite, y = orbit[:3]
    assert len(u) == len(finite) == len(y) == len(ref)
    for uk, fk, yk, (x, y_ref) in zip(u.tolist(), finite.tolist(), y.tolist(), ref):
        assert fk is not is_infinity(x)
        assert not fk or _bits(uk) == _bits(x)
        assert _bits(yk) == _bits(y_ref)


class TestOrbitProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p=map_params(),
        x0=st.one_of(
            st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
            st.just(INFINITY),
        ),
        y0=st.builds(
            lambda r, t: r * cmath.exp(2j * math.pi * t),
            st.floats(1e-3, 10.0),
            st.floats(0.0, 1.0),
        ),
    )
    @example(p=P, x0=_ESCAPE_X0, y0=0.5 + 0j)
    @example(p=P, x0=-1.0 + 0j, y0=P.alpha)
    @example(p=P, x0=0j, y0=complex(-0.0, -0.5))  # signed zeros: affine arithmetic
    def test_kernel_is_apply_f_to_the_bit(self, p, x0, y0):
        n = 200
        q = PointP1xC(x0, y0)
        ref = [q]
        try:
            while len(ref) <= n:
                ref.append(apply_f(p, ref[-1]))
        except IndeterminatePoint:
            pass
        assert_orbit_bits(orbit_coordinates(p, q, n, "f"), [(pt.x, pt.y) for pt in ref])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p=map_params(),
        x0=st.one_of(
            st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
            st.just(INFINITY),
        ),
        y0=st.one_of(
            st.builds(
                lambda r, t: r * cmath.exp(2j * math.pi * t),
                st.floats(1e-3, 10.0),
                st.floats(0.0, 1.0),
            ),
            st.just(0j),
        ),
    )
    @example(p=P, x0=INFINITY, y0=0.5 + 0j)
    @example(p=P, x0=_G_ESCAPE_X0, y0=1.0 + 0j)
    @example(p=P, x0=0.2 + 0j, y0=0j)  # the fiber y = 0 is invariant
    @example(p=ALPHA_ONE, x0=-1.0 + 0j, y0=1.0 + 0j)  # exact hit at step 1
    def test_kernel_is_apply_g_to_the_bit(self, p, x0, y0):
        n = 200
        g = InvertedSquareMap(params=p)
        ref = [(x0, y0)]
        try:
            while len(ref) <= n:
                ref.append(g.apply(*ref[-1]))
        except IndeterminatePoint:
            pass
        x_start = None if is_infinity(x0) else x0
        assert_orbit_bits(kernels.orbit_points("g", p.alpha, p.beta, x_start, y0, n), ref)

    @pytest.mark.parametrize("p,x0,y0,count", [
        (P, 0.3 + 0.1j, 1e-3j, 2001),
        (P, INFINITY, 0.5 + 0j, 2001),
        (P, 7.0 - 2j, 3 + 1j, 2001),
        (P, _ESCAPE_X0, 0.5 + 0j, 2001),
        # below, f step k lands on (-1, alpha) exactly, and the f2 orbit
        # keeps (k + 1) // 2 points; for alpha = -1, y0 is -beta^(1 - k)
        # rounded so that k - 1 products by beta give -1 exactly
        (P, -1.0 + 0j, P.alpha, 1),  # k = 1
        (ALPHA_MINUS_ONE, INFINITY, 0.7373688780783199 - 0.6754902942615236j, 1),  # k = 2
        (ALPHA_MINUS_ONE, -1.0 + 0j, -0.08742572471696039 + 0.9961710408648277j, 2),  # k = 3
        (ALPHA_MINUS_ONE, INFINITY, -0.6084388609788618 - 0.7936007512916968j, 2),  # k = 4
    ], ids=["start", "infinity", "far", "escape", "hit-f1", "hit-f2", "hit-f3", "hit-f4"])
    def test_f2_is_f_at_even_steps(self, p, x0, y0, count):
        q = PointP1xC(x0, y0)
        f = orbit_coordinates(p, q, 4000, "f")
        f2 = orbit_coordinates(p, q, 2000, "f2")
        for even, point in zip(f, f2):
            assert len(point) == count and point.tobytes() == even[::2].tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p=map_params(),
        x0=st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        y0=st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        n=st.integers(1, 300),
    )
    def test_f2_is_f_at_even_steps_drawn(self, p, x0, y0, n):
        assume(y0 != 0)
        q = PointP1xC(x0, y0)
        f, f2 = orbit_coordinates(p, q, 2 * n, "f"), orbit_coordinates(p, q, n, "f2")
        assert len(f2[0]) == n + 1
        for even, point in zip(f, f2):
            assert point.tobytes() == even[::2].tobytes()

    @pytest.mark.parametrize("which", ["f", "g", "f2"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p=map_params(),
        x0=st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        y_abs=st.floats(1e-3, 10.0),
        y_angle=st.floats(0.0, 1.0),
    )
    def test_fiber_modulus_invariant(self, which, p, x0, y_abs, y_angle):
        # each map multiplies y by a unit-modulus constant
        y0 = y_abs * cmath.exp(2j * math.pi * y_angle)
        _, _, y = orbit_coordinates(p, PointP1xC(x0, y0), 2000, which)
        assert np.max(np.abs(np.abs(y) / abs(y0) - 1.0)) <= 1e-11


class TestMatrixCorrespondence:
    def test_single_step_is_definitional(self):
        q = PointP1xC(x=0.3 + 0.2j, y=0.5 * cmath.exp(0.9j))
        assert matrix_orbit_equivalence(P, q, 1) < 1e-14

    def test_subunit_radius(self):
        rng = random.Random(1)
        for _ in range(5):
            q = PointP1xC(
                x=rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                y=0.5 * cmath.exp(2j * math.pi * rng.random()),
            )
            assert matrix_orbit_equivalence(P, q, 1000) < 1e-9

    def test_expanding_radius_looser(self):
        q = PointP1xC(x=0.1 + 0.4j, y=4.0 * cmath.exp(0.3j))
        assert matrix_orbit_equivalence(P, q, 1000) < 1e-6

    def test_two_step_generator_product_hand_oracle(self):
        # A(beta y) A(y) with A(y) = [[alpha, y], [1, 1]], multiplied out by hand
        a, b, y = P.alpha, P.beta, 0.3 + 0.1j
        prod = cocycle_matrix(P, b * y) @ cocycle_matrix(P, y)
        want = [[a * a + b * y, a * y + b * y], [a + 1, y + 1]]
        assert np.allclose(prod, want, rtol=0, atol=1e-15)


class TestSemiconjugacy:
    def test_one_step_algebraic_identity(self):
        # pi(g(x, y)) = f(pi(x, y)) with pi = (x, y^2), checked directly
        rng = random.Random(5)
        gamma = P.beta_sqrt
        for _ in range(100):
            x = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            y = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.2, 1.5)
            gx = (P.alpha * x + y * y) / (x + 1.0)
            gy = gamma * y
            fx = (P.alpha * x + y * y) / (x + 1.0)
            fy = (gamma * gamma) * (y * y)
            assert abs(gx - fx) < 1e-12
            assert abs(gy * gy - fy) < 1e-12

    def test_long_orbits(self):
        q = PointP1xC(x=0.2 + 0.1j, y=0.7 * cmath.exp(0.4j))
        assert semiconjugacy_check(P, q, 1000) < 1e-8

    def test_both_square_roots_work(self):
        q = PointP1xC(x=0.2 - 0.3j, y=0.7 * cmath.exp(1.1j))
        assert semiconjugacy_check(P, q, 500, other_root=True) < 1e-8

    def test_start_needs_a_nonzero_square(self):
        # y0 = 1e-200 is nonzero, but y0^2 underflows to 0
        with pytest.raises(ValueError, match="y != 0"):
            semiconjugacy_check(P, PointP1xC(x=0.1 + 0j, y=1e-200 + 0j), 10)

    def test_negative_length_is_rejected(self):
        q = PointP1xC(x=0.2 + 0.1j, y=0.5 + 0j)
        for check in (semiconjugacy_check, matrix_orbit_equivalence):
            with pytest.raises(ValueError, match="nonnegative"):
                check(P, q, -1)

    def test_exact_hit_is_indeterminate(self):
        # alpha = -1 and y0 = i: pi(-1, i) = (-1, -1) is f's base point
        # (i * i is -1 exactly), so the first f step is indeterminate
        p = MapParams(alpha=-1 + 0j, beta=P.beta, freq=P.freq)
        with pytest.raises(IndeterminatePoint):
            semiconjugacy_check(p, PointP1xC(x=-1 + 0j, y=1j), 10)


def _jacobian_origin_fd(g):
    """Forward-difference Jacobian of ``g`` at the origin, with step 1e-6."""
    step = 1e-6
    g0 = g.apply(0j, 0j)
    gx = g.apply(step + 0j, 0j)
    gy = g.apply(0j, step + 0j)
    return (
        ((gx[0] - g0[0]) / step, (gy[0] - g0[0]) / step),
        ((gx[1] - g0[1]) / step, (gy[1] - g0[1]) / step),
    )


class TestInvertedSquareMap:
    def test_composition_identity(self):
        g = InvertedSquareMap(params=P)
        rng = random.Random(9)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(0.2, 1.0) * cmath.exp(2j * math.pi * rng.random())
            y = rng.uniform(0.2, 1.0) * cmath.exp(2j * math.pi * rng.random())
            try:
                q = apply_f(P, apply_f(P, PointP1xC(x=1.0 / x, y=1.0 / y)))
            except IndeterminatePoint:
                continue
            if is_infinity(q.x) or q.x == 0:
                continue
            gx, gy = g.apply(x, y)
            worst = max(worst, abs(gx - 1.0 / q.x) + abs(gy - 1.0 / q.y))
        assert worst < 1e-12

    def test_infinity_is_accepted_and_returned(self):
        # the fiber matrix's first column at x = infinity, and infinity
        # where the denominator is an exact 0
        g = InvertedSquareMap(params=P)
        y = 0.3 - 0.2j
        assert g.apply(INFINITY, y) == ((1.0 + y) / (P.alpha + P.beta), y / (P.beta * P.beta))
        assert is_infinity(g.apply(_G_ESCAPE_X0, 1.0 + 0j)[0])

    def test_indeterminate_point(self):
        # sigma maps f's indeterminate point (-1, alpha) to (-1, 1 / alpha)
        with pytest.raises(IndeterminatePoint):
            InvertedSquareMap(params=ALPHA_ONE).apply(-1.0 + 0j, 1.0 + 0j)

    def test_origin_fixed(self):
        g = InvertedSquareMap(params=P)
        gx, gy = g.apply(0j, 0j)
        assert gx == 0 and gy == 0

    def test_jacobian_eigenvalues_against_fd_oracle(self):
        g = InvertedSquareMap(params=P)
        exact = g.jacobian_origin()
        fd = _jacobian_origin_fd(g)
        for i in range(2):
            for j in range(2):
                assert abs(exact[i][j] - fd[i][j]) < 1e-4
        # triangular: eigenvalues are the diagonal entries 1/beta, 1/beta^2
        assert abs(exact[0][0] - 1.0 / P.beta) < 1e-12
        assert abs(exact[1][1] - 1.0 / P.beta**2) < 1e-12
        assert exact[1][0] == 0


class TestFixedPoints:
    def test_all_verified(self):
        pts = fixed_points(P)
        assert len(pts) == 3
        assert all(fp.residual <= 1e-12 for fp in pts)
        f_points = [fp for fp in pts if fp.which_map == "f"]
        assert any(fp.x == 0 for fp in f_points)
        assert any(abs(fp.x - (P.alpha - 1.0)) < 1e-15 for fp in f_points)

    # |G| is 269 at a point of this pair where G's denominator is 2e-3, and
    # there the closed form and sigma f f sigma differ by 2.3e-11 (8.6e-14
    # relative): rounding, not a wrong map
    NEAR_POLE = MapParams.from_angles(0.7660771785454262, 0.6672214232537149)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=map_params())
    @example(p=NEAR_POLE)
    def test_every_parameter_pair(self, p):
        InvertedSquareMap(params=p)
        pts = fixed_points(p)
        assert len(pts) == 3
        assert all(fp.residual <= 1e-12 for fp in pts)
        if p == self.NEAR_POLE:
            assert verify_conjugacy_numeric(solve_coefficients(p, 12)) < 1e-10


class TestClosureClassification:
    def test_torus_domain(self):
        q = PointP1xC(x=1e-3 * cmath.exp(0.3j), y=1e-3 * cmath.exp(1.1j))
        cls = classify_orbit_closure(P, q, 100_000, which="f")
        assert cls.rank == 2
        assert cls.confidence >= 0.9

    def test_circle_domain(self):
        q = PointP1xC(x=1e-3 + 0j, y=1e-3 + 0j)
        cls = classify_orbit_closure(P, q, 100_000, which="g")
        assert cls.rank == 1
        assert cls.confidence >= 0.9

    def test_rank_stable_under_perturbation(self):
        q = PointP1xC(x=1e-3 * cmath.exp(0.3j) + 1e-6, y=1e-3 * cmath.exp(1.1j) + 1e-6)
        cls = classify_orbit_closure(P, q, 100_000, which="f")
        assert cls.rank == 2

    def test_insufficient_points(self):
        q = PointP1xC(x=1e-3 + 0j, y=1e-3 + 0j)
        with pytest.raises(InsufficientPoints):
            classify_orbit_closure(P, q, 1500, which="f")

    def test_linear_model_with_dependent_angles(self):
        # rotation pair (arg alpha, 2 arg alpha): the integer relation
        # (2, -1) makes the orbit closure a circle
        a_ang = DEFAULT_ALPHA_ANGLE
        b_ang = (2 * DEFAULT_ALPHA_ANGLE) % 1.0
        relations = [
            (p_int, q_int)
            for p_int in range(-16, 17)
            for q_int in range(-16, 17)
            if (p_int, q_int) != (0, 0)
            and min((f := (p_int * a_ang + q_int * b_ang) % 1.0), 1 - f) < 1e-9
        ]
        assert relations
        smallest = min(relations, key=lambda r: abs(r[0]) + abs(r[1]))
        assert smallest in ((2, -1), (-2, 1))
        k = np.arange(150_000)
        x = 1e-3 * np.exp(2j * np.pi * ((0.17 + k * a_ang) % 1.0))
        y = 1e-3 * np.exp(2j * np.pi * ((0.43 + k * b_ang) % 1.0))
        cls = boxcount_rank(x, y)
        assert cls.rank == 1
        assert cls.confidence >= 0.9


def _reference_boxcount(x, y, max_octave):
    """The per-octave ``np.unique(axis=0)`` box count with the rank rules
    of :func:`boxcount_rank`, as it was before the sort-once Morton keys:
    the reference they must equal exactly."""
    pts = np.stack([x.real, x.imag, y.real, y.imag], axis=1)
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0] = 1.0
    unit = (pts - lo) / span
    npts = len(unit)
    counts, ladder = [], []
    for k in range(max_octave + 1):
        cells = 1 << k
        idx = np.minimum((unit * cells).astype(np.int64), cells - 1)
        nboxes = len(np.unique(idx, axis=0))
        if k > 0 and 1.05 * nboxes > npts:
            break
        counts.append(nboxes)
        ladder.append(k)
    counts_arr = np.array(counts, dtype=float)
    slopes = tuple(float(t) for t in np.log2(counts_arr[1:] / counts_arr[:-1]))
    window = ladder[3:-2]
    if len(window) < 3:
        raise InsufficientPoints(f"only {len(window)} surviving octaves (ladder {ladder})")
    w_lo, w_hi = window[0], window[-1]
    if counts[w_hi] < 10 * counts[w_lo]:
        raise InsufficientPoints("surviving window spans < 10x box-count growth")
    med = float(np.median([slopes[k] for k in range(w_lo, w_hi)]))
    rank = int(round(med))
    return (rank, slopes, max(0.0, 1.0 - abs(med - rank)), tuple(window),
            tuple(int(c) for c in counts))


def _boxcount_outcome(fn, x, y, max_octave):
    try:
        return fn(x, y, max_octave)
    except InsufficientPoints as exc:
        return "InsufficientPoints: " + str(exc)


def _sort_once(x, y, max_octave):
    cls = boxcount_rank(x, y, max_octave=max_octave)
    return cls.rank, cls.slopes, cls.confidence, cls.window, cls.counts


@st.composite
def _clouds(draw):
    """Point clouds in C^2: random 4-d boxes, tori and two closed curves,
    optionally snapped to a dyadic lattice so that points sit exactly on
    cell edges, with duplicates, points on the top edge u = 1 and
    zero-span coordinates."""
    npts = draw(st.integers(1, 3000) | st.integers(1500, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["box", "torus", "circle", "knot"]))
    if shape == "box":
        pts = rng.uniform(-1.0, 1.0, (npts, 4))
    else:
        a = 2 * np.pi * rng.uniform(0.0, 1.0, npts)
        b = {"torus": 2 * np.pi * rng.uniform(0.0, 1.0, npts),
             "circle": 2 * a + 0.3, "knot": 3 * a + 0.7}[shape]
        pts = 1e-3 * np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=1)
    lattice = draw(st.none() | st.integers(0, 18))
    if lattice is not None:
        # with 0 and 1 in every column, u is the dyadic value itself
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pts = np.round((pts - lo) / np.where(hi > lo, hi - lo, 1.0) * 2**lattice) / 2**lattice
        pts[0], pts[-1] = 0.0, 1.0
    dups = draw(st.integers(0, npts // 4))
    pts[rng.integers(0, npts, dups)] = pts[rng.integers(0, npts, dups)]
    for axis in range(4):
        top = draw(st.integers(0, npts // 20))
        pts[rng.integers(0, npts, top), axis] = pts[:, axis].max()
    for axis in draw(st.sets(st.integers(0, 3), max_size=4)):
        pts[:, axis] = draw(st.floats(-1.0, 1.0))
    return pts[:, 0] + 1j * pts[:, 1], pts[:, 2] + 1j * pts[:, 3]


# What _reference_boxcount returns, at max_octave 16, on the finite points
# of the 2e5-point README orbits of `jonq classify` (rank, slopes,
# confidence, window, counts); pinned so the tests do not rerun the
# np.unique loop on 2e5 points.  The hypothesis property below runs it.
_README_REFERENCE = {
    "f": (
        2,
        (4.0, 2.807354922057604, 2.2694606749932267, 2.1173256418123043,
         2.0194186886133227, 1.8532440408668311, 1.6219653990288907, 0.7674887792857759),
        0.9805813113866773,
        (3, 4, 5, 6),
        (1, 16, 112, 540, 2343, 9499, 34321, 105638, 179828),
    ),
    "g": (
        1,
        (3.584962500721156, 1.584962500721156, 1.222392421336448, 1.0995356735509143,
         1.0473057147783569, 1.0230836131130412, 1.0076131841098752, 1.0004744926998501,
         0.9952480357535313, 0.975034271465201, 0.9784094873724204, 0.938198646589498,
         0.8744662025355391, 0.74162849505828, 0.45511597763975037),
        0.9978612642266906,
        (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
        (1, 12, 36, 84, 180, 372, 756, 1520, 3041, 6062, 11916, 23478, 44987, 82476,
         137905, 189053),
    ),
}


class TestBoxcountProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    # half the octave draws reach the 8 octaves a surviving window needs
    @given(cloud=_clouds(), max_octave=st.integers(0, 16) | st.integers(8, 16))
    def test_sort_once_equals_unique_reference(self, cloud, max_octave):
        x, y = cloud
        assert (_boxcount_outcome(_sort_once, x, y, max_octave)
                == _boxcount_outcome(_reference_boxcount, x, y, max_octave))

    @pytest.mark.parametrize("which,x0", [("f", 0.001 + 0.0005j), ("g", 0.001 + 0j)])
    def test_readme_starts_equal_unique_reference(self, which, x0):
        u, finite, y = orbit_coordinates(P, PointP1xC(x=x0, y=0.001 + 0j), 200_000, which)
        assert _sort_once(u[finite], y[finite], 16) == _README_REFERENCE[which]

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(slopes=st.lists(st.floats(0.0, 64.0), min_size=1, max_size=16))
    def test_window_median_is_np_median(self, slopes):
        # the rule boxcount_rank takes on its window slopes, each a log2 of
        # a box-count ratio >= 1, agrees with np.median to the bit
        assert _bits(statistics.median(slopes)) == _bits(float(np.median(slopes)))

    def test_octave_beyond_key_width_rejected(self):
        x = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 2000))
        with pytest.raises(ValueError):
            boxcount_rank(x, x, max_octave=17)


def test_module_import_leaves_numpy_unrun():
    # maps binds NumPy lazily (``_lazy.np``), as the kernels do
    code = "import sys, jonq.maps; print('numpy._core' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr
