import cmath
import functools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import jonq._fork as fork_mod
from jonq._kernels_py import sqrt_branch_values
from jonq.algebra import DEFAULT_H, GOLDEN_FREQ, default_alpha
from jonq.backend import kernels
from jonq.cocycle import (
    KINDS,
    CocycleSpec,
    check_radii,
    generator_values,
    inverse_iterate,
    iterate,
    lyapunov,
    lyapunov_many,
    lyapunov_phase_values,
    phase_mean,
    phase_samples,
    phase_values_many,
    two_step_limit_check,
)
from jonq.errors import (
    JonqError,
    Overflow,
    RadiusOne,
    ResonantParameter,
    SingularFactor,
)

ALPHA = default_alpha()

# radii next to the unit circle: 1 +- 1e-7 and one ulp either side
NEXT_TO_ONE = (1 - 1e-7, 1 + 1e-7, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))
# rho = exp(10^LOG_OFFSET_1E74) is 1e74
LOG_OFFSET_1E74 = math.log10(math.log(1e74))


def winding_number_oracle(alpha, rho, steps=4096):
    """Independent winding count of alpha - y^2 about 0: accumulated
    argument increments over a uniform grid."""
    total = 0.0
    prev = alpha - (rho * cmath.exp(0j)) ** 2
    for i in range(1, steps + 1):
        y = rho * cmath.exp(2j * math.pi * i / steps)
        cur = alpha - y * y
        total += cmath.phase(cur / prev)
        prev = cur
    return round(total / (2 * math.pi))


class TestSpecs:
    def test_generator_values(self):
        spec = CocycleSpec(kind="jonquieres_a", alpha=1.0 + 0j, rho=1.0)
        g = generator_values(spec, [0.0])[0]
        assert np.array_equal(g, [[1, 1], [1, 1]])

        spec = CocycleSpec(kind="jonquieres_b", alpha=1j, rho=2.0)
        g = generator_values(spec, [0.25])[0]
        assert abs(g[0, 1] - (-4)) < 1e-12  # y = 2i, y^2 = -4
        assert g[0, 0] == 1j

        m = [[2, 0], [0, 0.5]]
        spec = CocycleSpec(kind="constant", matrix=m)
        assert np.array_equal(generator_values(spec, [0.123])[0], m)

    def test_matrix_is_a_read_only_complex_copy(self):
        m = np.array([[2, 0], [0, 0.5]])
        spec = CocycleSpec(kind="constant", matrix=m)
        m[0, 0] = 3
        assert spec.matrix.dtype == np.complex128 and spec.matrix[0, 0] == 2
        with pytest.raises(ValueError):
            spec.matrix[0, 0] = 1
        for bad in ([1, 2, 3, 4], np.eye(3)):
            with pytest.raises(ValueError):
                CocycleSpec(kind="constant", matrix=bad)

    def test_validation(self):
        with pytest.raises(RadiusOne):
            CocycleSpec(kind="btilde", rho=1.0)
        with pytest.raises(ResonantParameter):
            CocycleSpec(kind="jonquieres_b", freq=0.25)
        with pytest.raises(ValueError):
            CocycleSpec(kind="jonquieres_b", alpha=2.0 + 0j)
        with pytest.raises(ValueError):
            CocycleSpec(kind="nope")
        with pytest.raises(ValueError):
            CocycleSpec(kind="constant")
        # NaN fails the range checks
        with pytest.raises(ValueError):
            CocycleSpec(kind="jonquieres_b", alpha=complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            CocycleSpec(kind="jonquieres_b", rho=math.nan)
        # a grid check raises what construction at its first bad radius
        # raises, and names that radius
        with pytest.raises(RadiusOne, match=r"rho = 1\.0"):
            check_radii("btilde", [0.5, 1.0, -1.0])
        with pytest.raises(ValueError, match=r"got -1\.0"):
            check_radii("btilde", [0.5, -1.0, 1.0])
        for rhos in ([2.0, 0.0], [2.0, math.nan]):
            with pytest.raises(ValueError):
                check_radii("jonquieres_b", rhos)
        assert check_radii("jonquieres_b", [1.0, 2.0]).tolist() == [1.0, 2.0]
        with pytest.raises(RadiusOne):
            lyapunov_many(CocycleSpec(kind="btilde", rho=2.0), [0.5, 1.0], 100, 2, 0)
        with pytest.raises(ValueError):
            lyapunov_many(CocycleSpec(kind="jonquieres_b"), [1.0, -1.0], 100, 2, 0)


class TestSqrtBranch:
    @pytest.mark.parametrize("rho,expected_winding", [(0.5, 0), (2.0, 2)])
    def test_winding_oracle(self, rho, expected_winding):
        assert winding_number_oracle(ALPHA, rho) == expected_winding

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_branch_squares_and_closes(self, rho):
        y = rho * np.exp(2j * np.pi * np.arange(64) / 64)
        s = sqrt_branch_values(ALPHA, rho, y)
        assert np.abs(s * s - (ALPHA - y * y)).max() < 1e-10
        # closure: theta -> 1^- approaches the value at 0
        ends = rho * np.exp(2j * np.pi * np.array([1 - 1e-9, 0.0]))
        near_one, at_zero = sqrt_branch_values(ALPHA, rho, ends)
        assert abs(near_one - at_zero) < 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(log_offset=st.floats(-12.0, LOG_OFFSET_1E74), outside=st.booleans())
    @example(log_offset=-12.0, outside=False)
    @example(log_offset=-12.0, outside=True)
    @example(log_offset=LOG_OFFSET_1E74, outside=True)
    def test_closed_form_branch_on_a_fine_grid(self, log_offset, outside):
        # rho = exp(+-10^log_offset): from |ln rho| = 1e-12 up to rho = 1e74
        # (and down to 1e-74).  The principal root of 1 - w, Re(1 - w) > 0,
        # is continuous, so the branch closes.  The grid holds the phases
        # where y^2 = alpha, closest to the unit circle's zero of alpha - y^2.
        rho = math.exp(math.copysign(10.0 ** log_offset, 1.0 if outside else -1.0))
        touch = np.angle(ALPHA) / (4 * np.pi) + np.array([0.0, 0.5])
        thetas = np.concatenate((np.arange(2**14) / 2**14, touch % 1.0))
        y = rho * np.exp(2j * np.pi * thetas)
        b = sqrt_branch_values(ALPHA, rho, y)
        scale = 1.0 + rho * rho  # |alpha| + |y|^2
        assert np.abs(b * b - (ALPHA - y * y)).max() <= 1e-12 * scale
        if rho < 1.0:
            w, root = y * y / ALPHA, b / np.sqrt(ALPHA)
        else:
            w, root = ALPHA / (y * y), b / (1j * y)
        assert (1.0 - w).real.min() > 0.0
        assert root.real.min() > 0.0
        (last,) = sqrt_branch_values(
            ALPHA, rho, rho * np.exp(2j * np.pi * np.array([math.nextafter(1.0, 0.0)]))
        )
        assert abs(last - b[0]) <= 1e-12 * math.sqrt(scale)

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_det_of_normalized_generator(self, rho):
        spec = CocycleSpec(kind="btilde", rho=rho)
        rng = np.random.default_rng(0)
        for theta in rng.random(100):
            g = generator_values(spec, [float(theta)])[0]
            assert abs(np.linalg.det(g) - 1.0) < 1e-10

    @pytest.mark.parametrize("rho", [1e10, 1e40, 1e74])
    def test_large_radius_branch_verifies(self, rho):
        # alpha - y^2 winds twice however large rho is; L(btilde) = 0 at
        # every radius (Theorem A)
        assert winding_number_oracle(ALPHA, rho) == 2
        est = lyapunov(CocycleSpec(kind="btilde", rho=rho), 2000, 8, 0)
        assert abs(est.value) <= 3 * est.total_error

    @pytest.mark.parametrize("rho", NEXT_TO_ONE)
    def test_radius_next_to_one_has_zero_exponent(self, rho):
        # Theorem A: L(btilde) = 0 at every radius other than 1, however
        # close to it
        est = lyapunov(CocycleSpec(kind="btilde", rho=rho), 20_000, 16, 0)
        assert abs(est.value) <= 3 * est.total_error


class TestIterate:
    def test_empty_product(self):
        spec = CocycleSpec(kind="jonquieres_b", rho=2.0)
        p, s = iterate(spec, 0.1, 0)
        rec = p * math.exp(s)
        assert abs(rec[0, 0] - 1) < 1e-15 and abs(rec[1, 1] - 1) < 1e-15
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12

    def test_constant_power(self):
        spec = CocycleSpec(kind="constant", matrix=[[2, 0], [0, 0.5]])
        p, s = iterate(spec, 0.0, 10)
        want = math.log(math.sqrt(4.0**10 + 4.0**-10))
        assert s == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("kind,rho", [
        ("jonquieres_a", 0.7),
        ("jonquieres_b", 1.8),
        ("btilde", 2.2),
        ("diagonal_power", 1.3),
    ])
    def test_cocycle_identity(self, kind, rho):
        # A_{n+m}(y) = A_n(beta^m y) A_m(y) against a direct 16-step product
        spec = CocycleSpec(kind=kind, rho=rho)
        theta = 0.217
        n = m = 8
        p_m, s_m = iterate(spec, theta, m)
        p_n, s_n = iterate(spec, (theta + m * spec.freq) % 1.0, n)
        combined = p_n @ p_m
        nrm = np.linalg.norm(combined)
        combined = combined / nrm
        s_comb = s_n + s_m + math.log(nrm)

        p_all, s_all = iterate(spec, theta, n + m)
        assert s_all == pytest.approx(s_comb, rel=1e-9, abs=1e-9)
        assert np.abs(p_all - combined).max() < 1e-9

    def test_direct_product_oracle(self):
        spec = CocycleSpec(kind="jonquieres_b", rho=1.5)
        theta = 0.37
        prod = np.eye(2)
        for k in range(12):
            prod = generator_values(spec, [(theta + k * spec.freq) % 1.0])[0] @ prod
        p, s = iterate(spec, theta, 12)
        rec = p * math.exp(s)
        assert np.all(np.abs(rec - prod) <= 1e-9 * np.maximum(1.0, np.abs(prod)))

    def test_overflow_guard(self):
        spec = CocycleSpec(kind="jonquieres_b", rho=1e80)
        with pytest.raises(Overflow):
            iterate(spec, 0.0, 4)

    @pytest.mark.parametrize("kind", ["jonquieres_b", "btilde"])
    def test_overflow_bound_is_that_of_the_kernel_matrices(self, kind):
        # btilde's kernel products multiply jonquieres_b matrices, of norm
        # about rho^2: both run at rho = 1.4e75 (G = 1.96e150) and stop at
        # 1.5e75 (G = 2.25e150), before the kernel runs
        assert math.isfinite(lyapunov(CocycleSpec(kind=kind, rho=1.4e75), 100, 2, 0).value)
        with pytest.raises(Overflow, match=r"rho=1\.5e\+75$"):
            lyapunov(CocycleSpec(kind=kind, rho=1.5e75), 100, 2, 0)

    def test_overflow_guard_checks_every_phase(self):
        # E - v(y) vanishes at the first sampled phase only; every other
        # phase has a generator of norm about 1e151
        theta0 = phase_samples(8, 3)[0]
        spec = CocycleSpec(
            kind="schrodinger", rho=1.0, potential=(0.0, 1e151),
            energy=1e151 * math.cos(2 * math.pi * theta0),
        )
        with pytest.raises(Overflow):
            lyapunov_phase_values(spec, 100, 8, 3)

    def test_vanishing_product_raises(self):
        # [[0, 1], [0, 0]] squares to zero: the log-norm sum is -inf, then NaN
        spec = CocycleSpec(kind="constant", matrix=[[0, 1], [0, 0]])
        with pytest.raises(SingularFactor):
            iterate(spec, 0.0, 2)
        with pytest.raises(SingularFactor):
            lyapunov(spec, 400, 4, 0)
        p, s = iterate(spec, 0.0, 1)
        assert s == pytest.approx(0.0, abs=1e-15) and abs(p[0, 1] - 1) < 1e-15


class TestInverseIterate:
    def test_left_inverse_identity(self):
        for kind, rho in [("jonquieres_a", 0.6), ("btilde", 2.0), ("diagonal_power", 2.0)]:
            spec = CocycleSpec(kind=kind, rho=rho)
            theta = 0.41
            p1, s1 = iterate(spec, theta, 1)
            pm1, sm1 = inverse_iterate(spec, (theta + spec.freq) % 1.0, 1)
            prod = (pm1 * math.exp(sm1)) @ (p1 * math.exp(s1))
            assert np.abs(prod - np.eye(2)).max() < 1e-10

    def test_diagonal_closed_form(self):
        spec = CocycleSpec(kind="diagonal_power", rho=2.0)
        p, s = inverse_iterate(spec, 0.3, 5)
        rec = p * math.exp(s)
        assert abs(rec[0, 0]) == pytest.approx(2.0**-5, rel=1e-10)
        assert abs(rec[1, 1]) == pytest.approx(2.0**5, rel=1e-10)
        assert abs(rec[0, 1]) < 1e-12 and abs(rec[1, 0]) < 1e-12

    def test_constant_inverse_power(self):
        m = np.array([[2, 1], [0, 0.5]])
        spec = CocycleSpec(kind="constant", matrix=m)
        p, s = inverse_iterate(spec, 0.0, 3)
        want = np.linalg.matrix_power(np.linalg.inv(m), 3)
        assert np.abs(p * math.exp(s) - want).max() < 1e-10

    def test_singular_factor_reports_step(self):
        spec = CocycleSpec(kind="constant", matrix=[[1, 1], [1, 1]])
        with pytest.raises(SingularFactor) as exc:
            inverse_iterate(spec, 0.0, 2)
        assert exc.value.step == 1


class TestLyapunov:
    def test_constant_log_two(self):
        spec = CocycleSpec(kind="constant", matrix=[[2, 0], [0, 0.5]])
        est = lyapunov(spec, 1000, 8, 0)
        assert est.value == pytest.approx(math.log(2), abs=1e-3)
        assert est.stderr < 1e-6

    def test_validation(self):
        spec = CocycleSpec(kind="jonquieres_b", rho=2.0)
        with pytest.raises(ValueError):
            lyapunov(spec, 1, 4, 0)
        with pytest.raises(ValueError):
            lyapunov(spec, 100, 0, 0)

    def test_determinism_and_seed_sensitivity(self):
        spec = CocycleSpec(kind="jonquieres_b", rho=2.0)
        a = lyapunov(spec, 500, 8, 3)
        b = lyapunov(spec, 500, 8, 3)
        c = lyapunov(spec, 500, 8, 4)
        assert a == b
        assert a.value != c.value

    def test_batch_equals_per_radius_calls(self):
        # btilde on both sides of the unit circle, two of them next to it
        spec = CocycleSpec(kind="btilde", rho=2.0)
        rhos = [1 - 1e-7, 0.5, 1 + 1e-7, 2.0]
        batch = lyapunov_many(spec, rhos, 300, 4, 1)
        for rho, est in zip(rhos, batch):
            single = lyapunov(CocycleSpec(kind="btilde", rho=rho), 300, 4, 1)
            assert repr(est) == repr(single)  # repr round-trips every float

    def test_estimates_are_phase_means_of_the_rows(self):
        # one rule for every phase average: value and stderr are phase_mean
        # of the per-phase row, and half_n_value the np.mean of its half row
        spec = CocycleSpec(kind="jonquieres_b")
        rhos = np.exp(np.linspace(-2.0, 2.0, 41))
        half_rows, rows = phase_values_many(spec, rhos, 400, 64, 0)
        for est, half_vals, vals in zip(lyapunov_many(spec, rhos, 400, 64, 0), half_rows, rows):
            value, stderr = phase_mean(vals)
            assert (est.value.hex(), est.stderr.hex()) == (value.hex(), stderr.hex())
            assert est.half_n_value.hex() == float(np.mean(half_vals)).hex()

    def test_phase_mean_of_one_value(self):
        assert phase_mean(np.array([0.25])) == (0.25, 0.0)

    def test_squared_family_positive_regime(self):
        spec = CocycleSpec(kind="jonquieres_b", rho=4.0)
        est = lyapunov(spec, 4000, 16, 0)
        assert est.value == pytest.approx(math.log(4.0), abs=0.01)

    def test_normalized_family_zero_regime(self):
        spec = CocycleSpec(kind="btilde", rho=0.5)
        est = lyapunov(spec, 4000, 16, 0)
        assert abs(est.value) < 0.02
        assert est.value >= -1e-9  # det-1 family: Frobenius norm >= sqrt(2)

    def test_free_schrodinger_closed_form(self):
        # no potential: the constant [[3, -1], [1, 0]], whose larger
        # eigenvalue is (3 + sqrt(5)) / 2
        spec = CocycleSpec(kind="schrodinger", energy=3.0, potential=())
        est = lyapunov(spec, 4000, 16, 0)
        want = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert est.value == pytest.approx(want, abs=1e-3)

    def test_almost_mathieu_herman_bound(self):
        # v = 2 lambda cos(2 pi theta) with lambda = 3: Herman's bound
        # L >= ln lambda holds at every energy, here E = 0
        spec = CocycleSpec(kind="schrodinger", energy=0.0, potential=(0.0, 6.0))
        est = lyapunov(spec, 4000, 16, 0)
        assert est.value >= math.log(3.0) - 0.01

    def test_unit_eigenvalue_constants_have_zero_exponent(self):
        # almost-constant test vectors: elliptic and unipotent constant
        # cocycles (both eigenvalues on the unit circle) have L = 0
        c, s = math.cos(0.7), math.sin(0.7)
        for m in ([[c, -s], [s, c]], [[1, 1], [0, 1]]):
            spec = CocycleSpec(kind="constant", matrix=m)
            est = lyapunov(spec, 10_000, 4, 0)
            assert abs(est.value) <= 0.01

    def test_norm_independence_halving(self, op2_lyapunov):
        spec = CocycleSpec(kind="jonquieres_b", rho=2.0)
        n = 2000
        d_n = abs(lyapunov(spec, n, 8, 1).value - op2_lyapunov(spec, n))
        d_2n = abs(lyapunov(spec, 2 * n, 8, 1).value - op2_lyapunov(spec, 2 * n))
        bound = math.log(math.sqrt(2.0)) / n
        assert d_n <= bound * 1.01
        assert d_2n <= 0.75 * d_n + 1e-9


class TestTwoStepLimit:
    def test_deviation_shrinks(self):
        _, dev3 = two_step_limit_check(ALPHA, GOLDEN_FREQ, 1e3)
        _, dev6 = two_step_limit_check(ALPHA, GOLDEN_FREQ, 1e6)
        assert dev3 < 0.01
        assert dev6 < dev3

    def test_limit_matrix_spectrum(self):
        # the limit matrix is unipotent-like up to a unit scalar: both
        # eigenvalues on the unit circle, so its own exponent is 0
        m = cmath.exp(2j * math.pi * GOLDEN_FREQ)
        limit = np.array([[-m, -(ALPHA + m * m) / m], [0j, -1.0 / m]])
        ev = np.linalg.eigvals(limit)
        assert abs(abs(ev[0]) - 1) < 1e-12
        assert abs(abs(ev[1]) - 1) < 1e-12
        assert abs(np.linalg.det(limit) - 1.0) < 1e-12

    def test_requires_large_radius(self):
        with pytest.raises(ValueError):
            two_step_limit_check(ALPHA, GOLDEN_FREQ, 2.0)


PROPERTY_KINDS = [k for k in KINDS if k != "constant"]
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def spec_kwargs(draw, unit_margin=0.01):
    """Keyword arguments of non-constant cocycle specs with rho in [0.3, 3].

    ``btilde`` radii keep |ln rho| >= ``unit_margin``: its generator
    carries 1 / sqrt(alpha - y^2), which loses about eps / |rho^2 - 1| of
    relative accuracy near the unit circle.
    """
    kind = draw(st.sampled_from(PROPERTY_KINDS))
    rho = draw(st.floats(0.3, 3.0))
    if kind == "btilde":
        assume(rho != 1.0 and abs(math.log(rho)) >= unit_margin)
    kw = dict(kind=kind, rho=rho)
    if kind == "schrodinger":
        kw["energy"] = draw(st.floats(-3.0, 3.0))
        kw["potential"] = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    return kw


phases = st.floats(0.0, 1.0, exclude_max=True)


class TestProperties:
    @PROPERTY_SETTINGS
    @given(rho=st.floats(0.3, 3.0), theta=phases)
    def test_btilde_unit_determinant(self, rho, theta):
        assume(abs(math.log(rho)) >= 0.01)
        spec = CocycleSpec(kind="btilde", rho=rho)
        assert abs(np.linalg.det(generator_values(spec, [theta])[0]) - 1.0) < 1e-10

    @PROPERTY_SETTINGS
    @given(kw=spec_kwargs(), theta=phases, n=st.integers(1, 12), m=st.integers(1, 12))
    def test_cocycle_identity(self, kw, theta, n, m):
        spec = CocycleSpec(**kw)
        # A_{n+m}(theta) = A_m(theta + n freq) A_n(theta), up to the scale
        # the renormalization carries in s
        p_n, s_n = iterate(spec, theta, n)
        p_m, s_m = iterate(spec, (theta + n * spec.freq) % 1.0, m)
        p_all, s_all = iterate(spec, theta, n + m)
        combined = p_m @ p_n
        nrm = np.linalg.norm(combined)
        assert s_all == pytest.approx(s_n + s_m + math.log(nrm), rel=1e-9, abs=1e-9)
        assert np.max(np.abs(p_all - combined / nrm)) < 1e-9

    @PROPERTY_SETTINGS
    @given(kw=spec_kwargs(), theta=phases)
    def test_one_step_is_the_generator(self, kw, theta):
        spec = CocycleSpec(**kw)
        p, s = iterate(spec, theta, 1)
        g = generator_values(spec, [theta])[0]
        assert s == pytest.approx(math.log(np.linalg.norm(g)), rel=1e-12, abs=1e-12)
        assert np.max(np.abs(p - g / np.linalg.norm(g))) < 1e-12

    @PROPERTY_SETTINGS
    @given(
        kw=spec_kwargs(unit_margin=0.0), n=st.integers(2, 300),
        samples=st.integers(1, 8), seed=st.integers(0, 1000),
    )
    def test_phase_values_finite_or_typed_error(self, kw, n, samples, seed):
        try:
            half_vals, vals = lyapunov_phase_values(CocycleSpec(**kw), n, samples, seed)
        except JonqError:
            return
        assert np.all(np.isfinite(half_vals)) and np.all(np.isfinite(vals))

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_batched_radii_equal_scalar_calls(self, kind, data):
        # one call over several radii returns, bit for bit, what one call
        # per radius returns; btilde takes radii on both sides of 1, where
        # its square-root branch changes formula
        if kind == "btilde":
            rhos = data.draw(st.lists(st.floats(0.3, 0.99), min_size=1, max_size=2))
            rhos += data.draw(st.lists(st.floats(1.01, 3.0), min_size=1, max_size=2))
            rhos = data.draw(st.permutations(rhos))
        else:
            rhos = data.draw(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=4))
        thetas = np.array(data.draw(st.lists(phases, min_size=1, max_size=5)))
        n = data.draw(st.integers(1, 60))
        # each half of the run is a chunk, so n >= 2 runs two
        assert len(kernels.chunk_bounds(n)) - 1 == min(n, 2)
        potential = np.array([0.3, 1.2])
        cmat = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)

        def call(rho, phases_):
            return kernels.cocycle_sums(
                kind, ALPHA, rho, GOLDEN_FREQ, 0.4, potential, cmat, phases_, n
            )

        batch = call(np.repeat(rhos, len(thetas)), np.tile(thetas, len(rhos)))
        singles = [call(rho, thetas) for rho in rhos]
        for i, part in enumerate(batch):
            want = np.concatenate([single[i] for single in singles])
            assert part.shape == want.shape and part.tobytes() == want.tobytes()

    def test_radius_per_trajectory_must_match_phases(self):
        with pytest.raises(ValueError):
            kernels.cocycle_sums("diagonal_power", ALPHA, np.ones(3), GOLDEN_FREQ,
                                 0.0, np.array([]), None, np.zeros(2), 4)

    @pytest.mark.parametrize("kind,rho,error,message", [
        ("jonquieres_b", 1e80, Overflow, r"outside \[1e-150, 2e150\] at rho=1e\+80$"),
        ("btilde", 1.0, RadiusOne, r"undefined at rho = 1\.0$"),
        ("jonquieres_b", -1.0, ValueError, r"got -1\.0$"),
        ("jonquieres_b", math.nan, ValueError, r"got nan$"),
    ])
    def test_direct_call_checks_before_any_step(self, monkeypatch, kind, rho, error,
                                                message):
        # the kernel entry checks the radii, then the generator bound,
        # before any batch runs
        def no_step(*args):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(kernels, "_batch_sums", no_step)
        with pytest.raises(error, match=message):
            kernel_call(kind, np.array([2.0, rho, 0.5]), phase_samples(3, 0), 50)

    def test_direct_call_checks_its_sums(self):
        # [[0, 1], [0, 0]] squares to zero: the product vanishes, and the
        # kernel raises instead of returning a non-finite sum
        cmat = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(SingularFactor, match=r"at rho=2\.0: log-norm sum is not finite"):
            kernels.cocycle_sums("constant", ALPHA, 2.0, GOLDEN_FREQ, 0.0, np.array([]),
                                 cmat, phase_samples(4, 0), 50)


def every_step_products(kind, alpha, rho, freq, energy, potential, cmat, thetas, n,
                        first=0):
    """The reference kernel: the true generator of ``kind`` (btilde with
    its square-root branch) multiplied in at every step, and the product
    renormalized after every step.  It runs the steps first, ..., first +
    n - 1, at the points y = rho exp(2 pi i theta) exp(2 pi i x), with
    x from ``step_phases``, as in the kernel."""
    m = len(thetas)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (m,))
    start = rho * np.exp(2j * np.pi * np.asarray(thetas))
    p = np.zeros((2, 2, m), dtype=np.complex128)
    p[0, 0] = p[1, 1] = 1.0
    g = np.empty_like(p)
    s = np.zeros(m)
    half = n // 2
    # at n = 1 the half-way product is the identity, as in the kernel
    s_half = s + 0.5 * np.log(2.0)
    x = kernels.step_phases(np.arange(first, first + n), freq)
    for k in range(n):
        y = start * np.exp(2j * np.pi * x[k])
        kernels.generator_entries(kind, alpha, rho, energy, potential, cmat, y, g)
        p = np.einsum("ijm,jkm->ikm", g, p)
        nrm = np.sqrt((np.abs(p) ** 2).sum(axis=(0, 1)))
        s += np.log(nrm)
        p /= nrm
        if k + 1 == half:
            s_half = s.copy()
    return s_half, s, p.transpose(2, 0, 1)


KERNEL_POTENTIAL = np.array([0.3, 1.2])
KERNEL_CMAT = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)


def kernel_call(kind, rho, thetas, n, call=kernels.cocycle_sums):
    return call(kind, ALPHA, rho, GOLDEN_FREQ, 0.4, KERNEL_POTENTIAL, KERNEL_CMAT,
                thetas, n)


def det_power(kind):
    """w in det A = alpha - y^w; 2 for a kind outside ``ROW_POWER``, for
    which ``hit_phase`` is just a phase."""
    return kernels.ROW_POWER.get(kind, 2)


def hit_phase(kind, j):
    """A start phase whose phase at step j puts y^w on alpha, up to rounding."""
    a = cmath.phase(ALPHA) / (2 * math.pi)
    return (a / det_power(kind) - j * GOLDEN_FREQ) % 1.0


def kernel_dets(kind, thetas, n):
    """|alpha - y_j^w| over the steps j < n, with y_j^w as the kernel
    computes it at rho = 1: (e^(2 pi i theta))^w e^(2 pi i w x_j), with
    x_j from ``step_phases``.  An (n, len(thetas)) array."""
    w = det_power(kind)
    start = 1.0 * np.exp(2j * np.pi * np.asarray(thetas))
    if w == 2:
        start = start * start
    x = kernels.step_phases(np.arange(n), GOLDEN_FREQ)
    return np.abs(ALPHA - np.exp(2j * np.pi * (w * x))[:, None] * start)


def kernel_bounds(kind, rho):
    return kernels.generator_bounds(kind, ALPHA, rho, 0.4, KERNEL_POTENTIAL, KERNEL_CMAT)


def unit_circle_intervals(kind, thetas, n):
    return kernel_call(kind, np.ones(len(thetas)), np.asarray(thetas), n,
                       call=kernels.renormalization_intervals)


@st.composite
def unit_circle_batches(draw):
    """(kind, n, radii, phases per radius): rho = 1 among other radii, with
    start phases that are uniform or put y^w on alpha at some step j < n."""
    kind = draw(st.sampled_from(["jonquieres_a", "jonquieres_b"]))
    n = draw(st.integers(1, 3000))
    radii = draw(st.lists(st.sampled_from([1.0, 0.5, 1.0, 2.0, 1e75]),
                          min_size=2, max_size=4))
    phase = st.one_of(phases, st.integers(0, n - 1).map(lambda j: hit_phase(kind, j)))
    thetas = [draw(st.lists(phase, min_size=1, max_size=3)) for _ in radii]
    return kind, n, radii, thetas


REFERENCE_CASES = [
    ("jonquieres_a", [0.5, 1.0, 2.0]),
    # rho = 1e75 renormalizes every step, 1e20 every 2, 2.0 and 0.5 every
    # 128 and rho = 1 every 16 to 32 (at phases that stay off det A = 0)
    ("jonquieres_b", [0.5, 1.0, 2.0, 1e20, 1e75]),
    ("btilde", [0.5, 0.9, 1.1, 2.0]),
    ("schrodinger", [0.5, 1.0, 2.0]),
    ("diagonal_power", [0.5, 1.0, 2.0]),
    ("constant", [1.0]),
]


# the benchmark ops' radii: the sweep op's ln rho grid, and the accel op's
# centres with their +-h windows
OP_RADII = (
    [math.exp(-1.5 + 0.5 * i) for i in range(7)]
    + [c * math.exp(d * DEFAULT_H) for c in (0.5, 2.0) for d in (-1, 0, 1)]
)
OP_CASES = [(kind, OP_RADII) for kind in KINDS if kind not in ("btilde", "constant")]
OP_CASES += [
    # btilde is undefined at rho = 1
    ("btilde", [r for r in OP_RADII if r != 1.0] + [1 - 1e-6, 1 + 1e-6, 1e-5, 1e5]),
    ("jonquieres_b", [1.0, 1.4e75]),
    ("constant", [1.0]),
]


def assert_matches_every_step_reference(kind, rhos, thetas, n):
    """The kernel at every radius in ``rhos`` and phase in ``thetas``
    against ``every_step_products``: sparse renormalization and btilde
    through the jonquieres_b matrices move L (full and half) by at most
    1e-12, and |p| by less than 1e-9 (the directions agree up to a unit
    phase; btilde's is prod b / |b|)."""
    rho, phases = np.repeat(rhos, len(thetas)), np.tile(thetas, len(rhos))
    s_half, s_full, p_full = kernel_call(kind, rho, phases, n)
    want = kernel_call(kind, rho, phases, n, call=every_step_products)
    assert np.max(np.abs(s_full - want[1])) / n <= 1e-12
    assert np.max(np.abs(s_half - want[0])) / max(1, n // 2) <= 1e-12
    assert np.max(np.abs(np.abs(p_full) - np.abs(want[2]))) < 1e-9


class TestKernel:
    @pytest.mark.parametrize("kind,rhos", REFERENCE_CASES)
    def test_matches_every_step_reference(self, kind, rhos):
        assert_matches_every_step_reference(kind, rhos, phase_samples(4, 7), 2000)

    @pytest.mark.parametrize("kind,rhos", REFERENCE_CASES)
    @pytest.mark.parametrize("n", [1, 2, 3, 257, 2001])
    def test_matches_every_step_reference_at_chunk_remainders(self, kind, rhos, n):
        # odd halves, and chunks of two lengths in one pass (n = 2001 runs
        # 7 chunks of 142 or 143 steps, then 7 of 143)
        assert_matches_every_step_reference(kind, rhos, phase_samples(3, 11), n)

    @pytest.mark.parametrize("kind,rhos", OP_CASES)
    def test_matches_every_step_reference_at_the_op_radii(self, kind, rhos):
        # n = 2001 runs chunks of 142 and 143 steps, so every k of the
        # ladder renormalizes inside a chunk.  At 16 phases each case is
        # within 8.7e-14 of the reference on L and 4.2e-12 on |p|
        assert_matches_every_step_reference(kind, rhos, phase_samples(16, 3), 2001)

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 511, 512, 2001, 20000, 20001])
    def test_chunk_bounds(self, n):
        bounds = kernels.chunk_bounds(n)
        half = n // 2
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
        for lo, hi in ((0, half), (half, n)):
            lengths = [b - a for a, b in zip(bounds, bounds[1:]) if lo <= a < hi]
            assert sum(lengths) == hi - lo and len(lengths) <= 8
            # at least 128 steps, or the whole half
            assert len(lengths) <= 1 or min(lengths) >= 128
            assert max(lengths, default=0) - min(lengths, default=0) <= 1
        if n == 20000:
            assert bounds == list(range(0, 20001, 1250))

    @pytest.mark.parametrize("kind,rhos", [
        # renormalized every step, every 2 and every 128 steps, so a chunk
        # of 143 steps ends between two renormalizations
        ("jonquieres_b", [1e75, 1e20, 2.0]),
    ])
    def test_chunk_products_are_normalized_chunk_products(self, kind, rhos):
        n, thetas = 2001, phase_samples(3, 5)
        rho, phases = np.repeat(rhos, len(thetas)), np.tile(thetas, len(rhos))
        intervals = kernel_call(kind, rho, phases, n,
                                call=kernels.renormalization_intervals)
        assert np.all(np.diff(intervals) >= 0)
        bounds = kernels.chunk_bounds(n)
        chunks = sorted(zip(bounds[:-1], bounds[1:]), key=lambda c: c[0] - c[1])
        assert len({hi - lo for lo, hi in chunks}) == 2
        p, s = kernels.chunk_products(kind, ALPHA, rho, GOLDEN_FREQ, 0.4,
                                      KERNEL_POTENTIAL, KERNEL_CMAT, phases,
                                      intervals, chunks)
        for h, (lo, hi) in enumerate(chunks):
            norms = np.sqrt((np.abs(p[:, :, h]) ** 2).sum(axis=(0, 1)))
            assert np.max(np.abs(norms - 1.0)) <= 1e-15
            _, want_s, want_p = every_step_products(
                kind, ALPHA, rho, GOLDEN_FREQ, 0.4, KERNEL_POTENTIAL, KERNEL_CMAT,
                phases, hi - lo, first=lo,
            )
            assert np.max(np.abs(s[h] - want_s)) / (hi - lo) <= 1e-12
            got_p = p[:, :, h].transpose(2, 0, 1)
            assert np.max(np.abs(np.abs(got_p) - np.abs(want_p))) < 1e-9

    @pytest.mark.parametrize("kind", ["btilde", "jonquieres_b"])
    def test_pass_grouping_leaves_bits_unchanged(self, kind):
        # at n = 2000 (14 chunks), 65 radii x 64 phases is more than
        # BLOCK_ENTRIES trajectories, so each pass runs one chunk; 13 radii
        # run 4 chunks per pass, and one radius all 14 in one pass
        rhos, thetas, n = np.geomspace(0.3, 3.0, 65), phase_samples(64, 3), 2000
        assert len(rhos) * len(thetas) > kernels.BLOCK_ENTRIES
        assert len(kernels.chunk_bounds(n)) - 1 == 14

        def call(radii):
            return kernel_call(kind, np.repeat(radii, len(thetas)),
                               np.tile(thetas, len(radii)), n)

        batch = call(rhos)
        for parts in (np.split(rhos, 5), np.split(rhos, 65)):
            calls = [call(radii) for radii in parts]
            for i, whole in enumerate(batch):
                want = np.concatenate([part[i] for part in calls])
                assert whole.shape == want.shape and whole.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,rhos,intervals", [
        ("jonquieres_b", [2.0, 1e20, 1.0, 1e10, 1e75], [128, 2, 1, 4, 1]),
        ("btilde", [2.0, 0.5], [128, 128]),
        # every k of the ladder in one batch
        ("jonquieres_b", [2.0, 10.0, 100.0, 1e3, 1e5, 1e10, 1e20, 1e75, 1.0],
         [128, 64, 32, 16, 8, 4, 2, 1, 1]),
        ("btilde", [0.5, 10.0, 100.0, 1e3], [128, 64, 32, 16]),
    ])
    @pytest.mark.parametrize("n", [1, 37, 64, 600])
    def test_mixed_intervals_batch_equals_per_radius_calls(self, kind, rhos, intervals, n):
        # ``intervals`` are those of the first phase, which puts y^w on
        # alpha at step 0, so at rho = 1 it renormalizes every step; at
        # n = 600 two chunks of 150 steps renormalize at step 128 too
        thetas = phase_samples(3, 5)
        thetas[0] = hit_phase(kind, 0)
        got = kernel_call(kind, np.repeat(rhos, 3), np.tile(thetas, len(rhos)), n,
                          call=kernels.renormalization_intervals)
        assert got[::3].tolist() == intervals
        batch = kernel_call(kind, np.repeat(rhos, 3), np.tile(thetas, len(rhos)), n)
        singles = [kernel_call(kind, rho, thetas, n) for rho in rhos]
        for i, part in enumerate(batch):
            want = np.concatenate([single[i] for single in singles])
            assert part.shape == want.shape and part.tobytes() == want.tobytes()
            assert np.all(np.isfinite(part))

    def test_one_step_blocks_equal_per_radius_calls(self):
        # 129 radii x 64 phases = 8,256 trajectories
        self.check_short_blocks(129, 1)

    def test_three_step_blocks_equal_per_radius_calls(self):
        # 65 radii x 64 phases = 4,160 trajectories
        self.check_short_blocks(65, 3)

    @staticmethod
    def check_short_blocks(radii, steps):
        # more than BLOCK_ENTRIES trajectories, so the batch runs one chunk
        # per pass, fills ``steps``-step blocks of the row update and adds
        # btilde's running log sum a step at a time; one radius alone (64
        # trajectories) runs both chunks in one pass, fills 20-step blocks
        # and accumulates them
        rhos, thetas, n = np.geomspace(0.3, 3.0, radii), phase_samples(64, 3), 40
        m = len(rhos) * len(thetas)
        assert 1.0 not in rhos and m > kernels.BLOCK_ENTRIES
        # the kernel's row-update block at one chunk per pass
        assert max(1, 4 * kernels.BLOCK_ENTRIES // m) == steps
        rho, phases = np.repeat(rhos, len(thetas)), np.tile(thetas, len(rhos))
        batch = kernel_call("btilde", rho, phases, n)
        singles = [kernel_call("btilde", r, thetas, n) for r in rhos]
        for i, part in enumerate(batch):
            want = np.concatenate([single[i] for single in singles])
            assert part.shape == want.shape and part.tobytes() == want.tobytes()
        assert_matches_every_step_reference("btilde", rhos, thetas, n)

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b", "btilde"])
    def test_block_length_leaves_bits_unchanged(self, kind, monkeypatch):
        # 192 trajectories at n = 2001 (14 chunks of 142 or 143 steps): with
        # BLOCK_ENTRIES = 4096 one pass runs every chunk in 6-step blocks,
        # with 64 each pass runs one chunk in one-step blocks, and with
        # 65,536 one pass runs every chunk in blocks that only chunk ends cut
        n, thetas = 2001, phase_samples(64, 5)
        if kind == "btilde":
            rhos = [0.5, 1 + 1e-7, 2.0]
        else:
            # one trajectory at rho = 1 puts y^w on alpha at step 1500
            rhos = [0.5, 1.0, 2.0]
            thetas[0] = hit_phase(kind, 1500)
        rho, phases = np.repeat(rhos, len(thetas)), np.tile(thetas, len(rhos))
        intervals = kernel_call(kind, rho, phases, n,
                                call=kernels.renormalization_intervals)
        assert intervals.min() == (16 if kind == "btilde" else 1)
        want = kernel_call(kind, rho, phases, n)
        for entries in (64, 65536):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
            got = kernel_call(kind, rho, phases, n)
            for part, whole in zip(got, want):
                assert part.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kind,rho,interval", [
        # at rho = 1 the phase puts y^w on alpha at step 0
        ("jonquieres_a", 1.0, 1),  # det = alpha - y can vanish
        ("jonquieres_a", 1.5, 128),
        ("jonquieres_b", 1.0, 1),
        ("jonquieres_b", 1e75, 1),  # two steps could pass 1e260
        ("btilde", 1e-5, 128),
        ("btilde", 1e5, 8),  # ln |A|_F = 23.0
        ("jonquieres_b", 100.0, 32),  # ln |A|_F = 9.2
        ("schrodinger", 2.0, 128),
        ("diagonal_power", 1e20, 4),  # ln |A|_F = 46.1
        ("constant", 1.0, 128),
    ])
    def test_interval_from_the_generator_bound(self, kind, rho, interval):
        k = kernel_call(kind, np.array([rho]), np.array([hit_phase(kind, 0)]), 1,
                        call=kernels.renormalization_intervals)
        assert k.tolist() == [interval]

    @pytest.mark.parametrize("x", [1e10, 1e20, 1e40, 1e70, 1e140])
    def test_fast_growth_stays_in_range(self, x):
        # diag(x, 1/x) grows by exactly x per step, the largest growth its
        # norm bound allows: the squared entries of the norm must not
        # overflow between renormalizations
        cmat = np.array([[x, 0], [0, 1 / x]], dtype=complex)
        s_half, s_full, _ = kernels.cocycle_sums(
            "constant", ALPHA, 1.0, GOLDEN_FREQ, 0.0, np.array([]), cmat,
            np.array([0.1]), 64,
        )
        assert s_full[0] / 64 == pytest.approx(math.log(x), rel=1e-12)
        assert s_half[0] / 32 == pytest.approx(math.log(x), rel=1e-12)

    @pytest.mark.parametrize("kind,seed,interval", [
        ("jonquieres_a", 0, 32), ("jonquieres_a", 7, 16),
        ("jonquieres_b", 0, 32), ("jonquieres_b", 7, 32),
    ])
    def test_unit_circle_phase_samples_renormalize_sparsely(self, kind, seed, interval):
        # the closed form's D is 0 on the unit circle; the phases the
        # estimators run stay far enough from det = 0 for k = 16 or 32
        k = unit_circle_intervals(kind, phase_samples(64, seed), 20000)
        assert k.tolist() == [interval] * 64

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b"])
    def test_unit_circle_hit_renormalizes_every_step(self, kind):
        n, j = 200, 37
        thetas = np.array([hit_phase(kind, j), 0.3])
        # the hit is at step j, not at the start
        assert kernels.unit_circle_det_bounds(kind, ALPHA, thetas[:1], GOLDEN_FREQ, j)[0] > 1e-3
        assert kernel_dets(kind, thetas[:1], n).min() < kernels.UNIT_CIRCLE_MARGIN
        assert unit_circle_intervals(kind, thetas, n).tolist() == [
            1, 64 if kind == "jonquieres_a" else 32]
        assert_matches_every_step_reference(kind, [1.0], thetas, n)

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b"])
    def test_unit_circle_hit_in_a_later_chunk(self, kind):
        # the hit at step j is inside the fourth chunk of the second half
        n, j = 2000, 1500
        bounds = kernels.chunk_bounds(n)
        lo = max(b for b in bounds if b < j)
        assert n // 2 < lo < j < bounds[bounds.index(lo) + 1]
        thetas = np.array([hit_phase(kind, j), 0.3, 0.71])
        assert unit_circle_intervals(kind, thetas, n).tolist() == [1, 32, 32]
        assert_matches_every_step_reference(kind, [1.0], thetas, n)
        for i, part in enumerate(kernel_call(kind, 1.0, thetas, n)):
            want = np.concatenate([kernel_call(kind, 1.0, thetas[k:k + 1], n)[i]
                                   for k in range(len(thetas))])
            assert part.tobytes() == want.tobytes()

    @settings(PROPERTY_SETTINGS, max_examples=15)
    @given(unit_circle_batches())
    @example(("jonquieres_b", 200, [1.0, 1.0], [[hit_phase("jonquieres_b", 50)], [0.3]]))
    @example(("jonquieres_a", 1, [1.0, 0.5, 1e75], [[0.25], [0.5], [0.75]]))
    def test_unit_circle_intervals_are_per_trajectory(self, batch):
        kind, n, radii, thetas = batch
        rho = np.concatenate([[r] * len(t) for r, t in zip(radii, thetas)])
        got = kernel_call(kind, rho, np.concatenate(thetas), n)
        singles = [kernel_call(kind, r, np.array(t), n) for r, t in zip(radii, thetas)]
        for i, part in enumerate(got):
            want = np.concatenate([single[i] for single in singles])
            assert part.tobytes() == want.tobytes()
        want = kernel_call(kind, rho, np.concatenate(thetas), n, call=every_step_products)
        assert np.max(np.abs(got[1] - want[1])) / n <= 1e-12
        assert np.max(np.abs(got[0] - want[0])) / max(1, n // 2) <= 1e-12

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b"])
    def test_unit_circle_bound_is_below_the_kernel_det(self, kind):
        # uniform phases, and phases 1e-17 to 1e-10 from a hit of y^w = alpha
        # (on either side, at step 0 and at step 17)
        offsets = np.concatenate([[0.0], np.geomspace(1e-17, 1e-10, 400)])
        offsets = np.concatenate([offsets, -offsets])
        uniform = np.random.default_rng(11).random(4000)
        for j, n in ((0, 1), (17, 64)):
            hits = [hit_phase(kind, j) + h / det_power(kind) for h in range(det_power(kind))]
            near = np.mod(np.add.outer(hits, offsets).ravel(), 1.0)
            thetas = np.concatenate([uniform[:4000 // n], near])
            bound = kernels.unit_circle_det_bounds(kind, ALPHA, thetas, GOLDEN_FREQ, n)
            dets = kernel_dets(kind, thetas, n).min(axis=0)
            assert np.all(bound <= dets)
            # and it gives away no more than the margin
            assert np.all(dets - bound <= kernels.UNIT_CIRCLE_MARGIN + 1e-14)

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b"])
    def test_unit_circle_bound_is_the_same_for_any_block_length(self, kind, monkeypatch):
        # 64 phases at n = 2e4, one of them a hit at step 1500: 79 blocks of
        # 256 steps at BLOCK_ENTRIES = 4096, 5,000 blocks of 4 steps at 64
        # and 5 blocks of 4096 steps at 65,536
        n, thetas = 20000, phase_samples(64, 5)
        thetas[0] = hit_phase(kind, 1500)
        want = kernels.unit_circle_det_bounds(kind, ALPHA, thetas, GOLDEN_FREQ, n)
        for entries in (64, 65536):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
            got = kernels.unit_circle_det_bounds(kind, ALPHA, thetas, GOLDEN_FREQ, n)
            assert got.tobytes() == want.tobytes()

    def test_singular_constant_renormalizes_every_step(self):
        k = kernels.renormalization_intervals(
            "constant", ALPHA, np.ones(2), GOLDEN_FREQ, 0.0, np.array([]),
            np.array([[0, 1], [0, 0]], dtype=complex), np.array([0.1, 0.2]), 8,
        )
        assert k.tolist() == [1, 1]

    @pytest.mark.parametrize("kind,rhos", REFERENCE_CASES + [
        ("jonquieres_a", [1e-3, 1e3]),
        ("jonquieres_b", [0.99, 1e30]),
        ("schrodinger", [1e-3, 1e3]),
        ("diagonal_power", [1e-20, 1e20]),
    ])
    def test_generator_bounds_hold_at_every_phase(self, kind, rhos):
        # G >= |A|_F and D <= |det A| on 4096 phases of each circle, for
        # the matrices the kernel multiplies: btilde's are jonquieres_b's
        family = "jonquieres_b" if kind == "btilde" else kind
        thetas = np.arange(4096) / 4096
        log_g, det = kernel_bounds(kind, np.array(rhos))
        for i, rho in enumerate(rhos):
            spec = CocycleSpec(kind=family, rho=rho, energy=0.4,
                               potential=KERNEL_POTENTIAL, matrix=KERNEL_CMAT)
            g = generator_values(spec, thetas)
            frob = np.sqrt((np.abs(g) ** 2).sum(axis=(1, 2)))
            assert frob.max() <= math.exp(log_g[i]) * (1 + 1e-12)
            assert det[i] <= np.abs(np.linalg.det(g)).min() * (1 + 1e-9)

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b", "btilde"])
    def test_generator_bounds_on_the_unit_circle(self, kind):
        # det A = alpha - y^w vanishes somewhere on |y| = 1, where
        # G^2 = 3 + 1 = 4; ln G is summed in logs, so it may round apart
        # from math.log(2) in its last bit
        log_g, det = kernel_bounds(kind, np.ones(1))
        assert det.tolist() == [0.0]
        assert log_g[0] == pytest.approx(math.log(2.0), rel=4e-16)

    def test_generator_bounds_do_not_warn(self):
        # past the float range ln G stays finite, and D may be inf, without
        # a warning
        rho = np.array([1e-320, 1e-160, 1e160, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in KINDS:
                log_g, det = kernel_bounds(kind, rho)
                assert np.isfinite(log_g).all()
                assert not np.isnan(det).any()

    @pytest.mark.parametrize("rho,n", [
        pytest.param(0.5, 20, id="0.5"), pytest.param(2.0, 20, id="2.0"),
        # with the phases theta + j freq mod 1 in place of the kernel's, p
        # was 4.5e-11 to 2.4e-10 off at rho = 1.1 and 2
        (0.5, 2000), (0.9, 2000), (1.1, 2000), (2.0, 2000),
    ])
    def test_btilde_iterate_is_the_direct_product(self, rho, n):
        # iterate restores the unit phase the kernel leaves out of btilde's
        # p, taken at the phases where the kernel formed the direction
        spec, thetas = CocycleSpec(kind="btilde", rho=rho), phase_samples(3, 7)
        _, want_s, want_p = every_step_products("btilde", ALPHA, rho, spec.freq, 0.0,
                                                np.array([]), None, thetas, n)
        for theta, s_ref, p_ref in zip(thetas, want_s, want_p):
            p, s = iterate(spec, theta, n)
            assert np.max(np.abs(p - p_ref)) <= 1e-12
            assert abs(s - s_ref) <= 1e-12 * n


def forty_digit_log_det_sums(rho, freq, thetas, n, phases):
    """The sums of ln|alpha - y_j^2|^2 over j < n // 2 and j < n, as a
    (2, len(thetas)) array, in 40 digits: at the kernel's float phases
    theta + x_j (``phases="kernel"``), which ``log_det_sums`` takes, or at
    the exact orbit theta + j freq of the float freq (``"exact"``)."""
    x = kernels.step_phases(np.arange(n), freq)
    sums = []
    with mpmath.workdps(40):
        alpha, r2, f = mpmath.mpc(ALPHA), mpmath.mpf(rho) ** 2, mpmath.mpf(freq)
        shifts = x if phases == "kernel" else [j * f for j in range(n)]
        for theta in thetas:
            terms = [2 * mpmath.log(abs(alpha - r2 * mpmath.expjpi(4 * (mpmath.mpf(theta) + s))))
                     for s in shifts]
            sums.append((float(mpmath.fsum(terms[:n // 2])), float(mpmath.fsum(terms))))
    return np.array(sums).T


NEAR_RESONANT_FREQS = (0.5 + 1e-11, 89 / 144 + 1e-9, 1 / 6 - 1e-11, 0.1 - 1e-11)


class TestLogDetSums:
    @pytest.mark.parametrize("rho,freq", [
        *(pytest.param(rho, GOLDEN_FREQ, id=str(rho))
          for rho in (0.5, 0.951, 1 - 1e-6, 1 + 1e-6, 1.001, 2.0)),
        # near-resonant: 2 freq is 2e-11 from 1, 89/144 a golden convergent,
        # and 2 k freq sits just below 1 at k = 3 and 5, where freq < 1/2
        # has more than 53 binary places
        *(pytest.param(rho, freq, id=f"{rho}-{freq!r}")
          for freq in NEAR_RESONANT_FREQS for rho in (0.5, 2.0)),
    ])
    def test_matches_a_40_digit_sum(self, rho, freq):
        # the sums at the kernel's float phases theta + x_j, against the
        # same sums in 40 digits.  The worst error is 1.4e-11 at 1 +- 1e-6,
        # from the rounding of one term next to y^2 = alpha
        n, thetas = 2000, phase_samples(4, 13)
        got = kernels.log_det_sums(ALPHA, np.full(4, rho), freq, thetas, n)
        want = forty_digit_log_det_sums(rho, freq, thetas, n, "kernel")
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * n

    @pytest.mark.parametrize("rho,freq", [
        # K = 29 at 0.5 and 2, 235 at 0.92
        (0.5, GOLDEN_FREQ), (0.92, GOLDEN_FREQ), (2.0, GOLDEN_FREQ),
        *((rho, freq) for freq in NEAR_RESONANT_FREQS for rho in (0.5, 2.0)),
        # 2 k freq is an integer at k = 128, where the divisor is 0 and
        # G_k(N) = N
        (0.9, 1 / 256),
    ])
    def test_closed_form_is_the_exact_orbit_sum(self, rho, freq):
        # away from rho = 1 the sum over the kernel's phases is within
        # 1e-14 n of the exact orbit's: the kernel's rounding of j freq
        # moves it by up to 1.2e-11 at n = 2000
        n, thetas = 2000, phase_samples(4, 13)
        got = kernels.log_det_sums(ALPHA, np.full(4, rho), freq, thetas, n)
        want = forty_digit_log_det_sums(rho, freq, thetas, n, "exact")
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * n

    def test_resonant_orbits_take_the_direct_sum(self):
        # at freq = 0.5 + 1e-11 every y_j^2 sits near one point, and the
        # kernel's roundings of j freq add up: the exact orbit's sum is
        # 7.4e-10 off the sum over the kernel's phases at n = 2e4, which
        # the direct sum takes
        n, freq, rho, thetas = 20000, 0.5 + 1e-11, 0.98, phase_samples(2, 13)
        got = kernels.log_det_sums(ALPHA, np.full(2, rho), freq, thetas, n)
        want = forty_digit_log_det_sums(rho, freq, thetas, n, "kernel")
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * n

    @pytest.mark.parametrize("freq", [GOLDEN_FREQ, 0.5 + 1e-11])
    def test_batched_radii_equal_scalar_calls(self, freq):
        # a shuffled batch on both sides of rho = 1, from next to it to far
        n, thetas = 2000, phase_samples(3, 5)
        rhos = [0.5, 0.92, 0.99, 1 - 1e-6, 1 + 1e-6, 1.001, 1.01, 2.0, 1e3]
        order = np.random.default_rng(0).permutation(len(rhos) * len(thetas))
        batch = kernels.log_det_sums(ALPHA, np.repeat(rhos, len(thetas))[order], freq,
                                     np.tile(thetas, len(rhos))[order], n)
        singles = [kernels.log_det_sums(ALPHA, np.full(len(thetas), rho), freq, thetas, n)
                   for rho in rhos]
        for got, want in zip(batch, zip(*singles)):
            assert list(map(float.hex, got)) == list(map(float.hex, np.concatenate(want)[order]))


@functools.lru_cache(maxsize=None)
def forty_digit_units(freq, theta, n):
    """e^(4 pi i (theta + x_j)) for j < n in 40 digits, with x_j from
    ``step_phases``: y_j^2 / rho^2 at the kernel's float phases."""
    with mpmath.workdps(40):
        start = mpmath.mpf(theta)
        return [mpmath.expjpi(4 * (start + x)) for x in kernels.step_phases(np.arange(n), freq)]


def forty_digit_btilde_sums(rho, freq, thetas, n):
    """btilde's s_half and s_full in 40 digits, as a (2, len(thetas))
    array: ln|B_N|_F of the jonquieres_b product B_N at the kernel's float
    phases minus 1/2 sum_(j<N) ln|alpha - y_j^2|, for N = n // 2 and n
    (n >= 2).  The product renormalizes every 64 steps."""
    sums = []
    with mpmath.workdps(40):
        alpha, r2 = mpmath.mpc(ALPHA), mpmath.mpf(rho) ** 2
        for theta in thetas:
            a, b, c, d = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
            log_norm, dets, logs, row = mpmath.mpf(0), mpmath.mpc(1), mpmath.mpf(0), []
            for j, unit in enumerate(forty_digit_units(freq, float(theta), n), start=1):
                w = r2 * unit
                # [[alpha, w], [1, 1]] times the product
                a, b, c, d = alpha * a + w * c, alpha * b + w * d, a + c, b + d
                dets *= alpha - w
                if j % 64 == 0 or j in (n // 2, n):
                    norm = mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
                    a, b, c, d = a / norm, b / norm, c / norm, d / norm
                    log_norm += mpmath.log(norm)
                    logs += mpmath.log(abs(dets))
                    dets = mpmath.mpc(1)
                if j in (n // 2, n):
                    row.append(float(log_norm - logs / 2))
            sums.append(row)
    return np.array(sums).T


class TestBtildeSums:
    @pytest.mark.parametrize("rho,freq", [
        *(pytest.param(rho, GOLDEN_FREQ, id=str(rho))
          for rho in (1e-3, 0.5, 0.857, 0.951, 1 - 1e-6, 1 + 1e-6, 1.001, 2.0, 1e3, 1.4e75)),
        *(pytest.param(rho, freq, id=f"{rho}-{freq!r}")
          for freq in NEAR_RESONANT_FREQS for rho in (0.5, 0.98, 2.0)),
    ])
    def test_matches_a_40_digit_product(self, rho, freq):
        # -1/2 ln|det p| where |det p| >= DET_FLOOR, and the direct
        # log-det sum below it: at 1 +- 1e-6 and 1.001 |det p| is 1e-6 to
        # 1e-4, and at the near-resonant freqs it is often 0, where
        # -1/2 ln|det p| would be 5e-11 to inf off.  The worst error is
        # 7.1e-12, at 1 + 1e-6
        n, thetas = 2000, phase_samples(2, 13)
        got = kernels.cocycle_sums("btilde", ALPHA, rho, freq, 0.0, np.array([]), None,
                                   thetas, n)[:2]
        want = forty_digit_btilde_sums(rho, freq, thetas, n)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * n

    def test_batch_across_the_det_floor_equals_scalar_calls(self):
        # 0.5 and 2 take -1/2 ln|det p|, 1 +- 1e-6 and 1.001 the direct
        # log-det sum; a shuffled batch of both is one call per radius
        n, thetas = 2000, phase_samples(3, 5)
        rhos = [0.5, 1 - 1e-6, 1 + 1e-6, 1.001, 2.0]
        order = np.random.default_rng(0).permutation(len(rhos) * len(thetas))
        with mock.patch.object(kernels, "log_det_sums", wraps=kernels.log_det_sums) as direct:
            batch = kernels.cocycle_sums("btilde", ALPHA, np.repeat(rhos, len(thetas))[order],
                                         GOLDEN_FREQ, 0.0, np.array([]), None,
                                         np.tile(thetas, len(rhos))[order], n)
        assert sorted(set(direct.call_args.args[1])) == sorted(rhos[1:4])
        singles = [kernels.cocycle_sums("btilde", ALPHA, rho, GOLDEN_FREQ, 0.0, np.array([]),
                                        None, thetas, n) for rho in rhos]
        # s_half, s and p, p's entries as their real and imaginary parts
        for got, want in zip(batch, zip(*singles)):
            got, want = (np.ascontiguousarray(a).view(np.float64).ravel()
                         for a in (got, np.concatenate(want)[order]))
            assert list(map(float.hex, got)) == list(map(float.hex, want))


class TestSplitBatches:
    """A batch that ``cocycle_sums`` runs in forked parts has the bits of
    the batch run in one process.  FORK_STEPS is set to 2 so that short
    runs split, and the helper's CPU count sets the number of parts."""

    @staticmethod
    def serial_and_split(monkeypatch, cpus, call):
        """``call()`` in one process and split on ``cpus`` CPUs, and the
        number of parts of each ``fork_map`` call of the split run."""
        serial = call()
        counts = []
        fork_map = fork_mod.fork_map

        def counting(fn, parts):
            counts.append(len(parts))
            return fork_map(fn, parts)

        monkeypatch.setattr(kernels, "FORK_STEPS", 2)
        monkeypatch.setattr(fork_mod, "fork_map", counting)
        monkeypatch.setattr(fork_mod, "usable_cpus", lambda: cpus)
        return serial, call(), counts

    @staticmethod
    def hexes(sums):
        """s_half, s and p, p's entries as their real and imaginary parts,
        as ``float.hex`` strings."""
        return [list(map(float.hex, np.ascontiguousarray(a).view(np.float64).ravel()))
                for a in sums]

    @pytest.mark.parametrize("m,cpus", [(257, 2), (449, 3)])
    @pytest.mark.parametrize("kind,rhos,freq,n", [
        *((kind, (0.5, 2.0), GOLDEN_FREQ, 600) for kind in KINDS),
        # rho = 1 renormalizes each trajectory at its own interval
        ("jonquieres_b", (1.0, 2.0), GOLDEN_FREQ, 600),
        # |det p| falls below DET_FLOOR on 251 of 257 trajectories, which
        # log_det_sums takes
        ("btilde", (0.5, 2.0), 0.5 + 1e-11, 2000),
    ])
    def test_split_batch_equals_one_process(self, monkeypatch, m, cpus, kind, rhos, freq, n):
        rho, thetas = np.resize(rhos, m), phase_samples(m, 7)

        def call():
            return kernels.cocycle_sums(kind, ALPHA, rho, freq, 0.4, KERNEL_POTENTIAL,
                                        KERNEL_CMAT, thetas, n)

        serial, split, counts = self.serial_and_split(monkeypatch, cpus, call)
        assert counts == [cpus]
        assert self.hexes(split) == self.hexes(serial)

    @pytest.mark.parametrize("m", [0, 1, 257])
    @pytest.mark.parametrize("kind", ["jonquieres_b", "btilde"])
    def test_zero_steps_return_the_identity(self, kind, m):
        # n = 0 is one part, as a batch too short to split: s_half is the
        # identity's 1/2 ln 2, s is 0 (btilde's -1/2 ln|det I|, so -0.0)
        # and p the identity, whatever the number of trajectories
        sums = kernels.cocycle_sums(kind, ALPHA, 2.0, GOLDEN_FREQ, 0.0, np.array([]), None,
                                    np.arange(m) / 257, 0)
        identity = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        zero = -0.0 if kind == "btilde" else 0.0
        assert [a.shape for a in sums] == [(m,), (m,), (m, 2, 2)]
        assert self.hexes(sums) == [[float.hex(0.5 * math.log(2.0))] * m,
                                    [float.hex(zero)] * m,
                                    list(map(float.hex, identity * m))]

    @pytest.mark.parametrize("kind", ["jonquieres_b", "btilde"])
    def test_no_trajectories_return_empty_arrays(self, kind):
        sums = kernels.cocycle_sums(kind, ALPHA, 2.0, GOLDEN_FREQ, 0.0, np.array([]), None,
                                    np.array([]), 2000)
        assert [(a.shape, a.dtype) for a in sums] == [
            ((0,), np.float64), ((0,), np.float64), ((0, 2, 2), np.complex128)]

    def test_non_finite_sum_in_a_child_raises_the_same_error(self, monkeypatch):
        # the trajectories at rho = 3 (the last 100 of 300, so in the
        # child's part) return a NaN log-norm sum
        original = kernels._batch_sums

        def poisoned(kind, alpha, rho, *rest):
            s_half, s, p = original(kind, alpha, rho, *rest)
            return s_half, np.where(rho == 3.0, np.nan, s), p

        monkeypatch.setattr(kernels, "_batch_sums", poisoned)
        spec = CocycleSpec(kind="jonquieres_b", rho=0.5)
        errors = []

        def call():
            with pytest.raises(SingularFactor) as info:
                lyapunov_many(spec, [0.5, 2.0, 3.0], 200, 100, 0)
            errors.append(str(info.value))

        _, _, counts = self.serial_and_split(monkeypatch, 2, call)
        assert counts == [2]
        assert errors[0] == errors[1] and "rho=3.0" in errors[0]


# --- the bound against its closed forms in 50 digits ------------------------

EPS = 2.0**-52
# radii from the least subnormal to 1.7e308, and dense next to rho = 1,
# where the edges of the large k lie
BOUND_GRID = np.unique(np.concatenate([
    np.geomspace(5e-324, 1.7e308, 200001), 1.0 + np.geomspace(2.2e-16, 0.5, 20001),
    1.0 - np.geomspace(2.2e-16, 0.5, 20001), [1e-160, 1e-154, 1e75, 1.4e75, 1.5e75, 1e77],
]))


def closed_forms(kind, r, cmat=KERNEL_CMAT):
    """``generator_bounds``' closed forms at the radius r (an mpf), with
    ``kernel_bounds``' constants, in the working precision: (ln G, t, u),
    with D = |t - u|.  D is the least |det A| over the circle: for the row
    kinds |alpha| = 1, so |1 - rho^w| is the least |alpha - y^w| over
    |y| = rho; the schrodinger and diagonal_power generators have det 1."""
    if kind == "constant":
        c = [mpmath.mpc(z) for z in np.ravel(cmat)]
        return mpmath.log(sum(abs(z) ** 2 for z in c)) / 2, c[0] * c[3], c[1] * c[2]
    one = mpmath.mpf(1)
    if kind in kernels.ROW_POWER:
        w = kernels.ROW_POWER[kind]
        return mpmath.log(3 + r ** (2 * w)) / 2, one, r**w
    if kind == "schrodinger":
        v = mpmath.mpf(0.4) + KERNEL_POTENTIAL[0] + KERNEL_POTENTIAL[1] * (r + 1 / r) / 2
        return mpmath.log(v**2 + 2) / 2, one, 0
    return mpmath.log(r**2 + r**-2) / 2, one, 0


def bound_decisions(kind, rho):
    """What the bound decides at each radius: the interval k of
    ``renormalization_intervals``, negated where the kernel's check raises
    Overflow (G outside [1e-150, 2e150])."""
    log_g, _ = kernel_bounds(kind, rho)
    k = kernel_call(kind, rho, np.zeros(len(rho)), 1, call=kernels.renormalization_intervals)
    inside = (log_g >= math.log(1e-150)) & (log_g <= math.log(2e150))
    return np.where(inside, k, -k)


def closed_form_decision(kind, rho):
    """``bound_decisions`` at one radius, from ``closed_forms`` in 50 digits."""
    with mpmath.workdps(50):
        log_g, t, u = closed_forms(kind, mpmath.mpf(rho))
        per_step = max(log_g, log_g - mpmath.log(abs(t - u)))
        k = max(2**j for j in range(8) if j == 0 or 2**j * per_step <= 150 * mpmath.ln10 - mpmath.ln2)
        inside = mpmath.log(mpmath.mpf("1e-150")) <= log_g <= mpmath.log(mpmath.mpf("2e150"))
    return k if inside else -k


def edge_condition(kind, rho, overflow):
    """kappa of the edge at ``rho``: the moduli that the float bound rounds
    (ln rho, ln G, ln D and D's terms over D) over the slope, in ln rho, of
    what the edge thresholds (ln G, or the per-step bound at a k edge), so
    that an error of eps in each moves the edge by eps kappa rho."""
    def threshold(x):
        log_g, t, u = closed_forms(kind, mpmath.exp(x))
        return log_g if overflow else max(log_g, log_g - mpmath.log(abs(t - u)))

    with mpmath.workdps(50):
        r = mpmath.mpf(rho)
        log_g, t, u = closed_forms(kind, r)
        det = abs(t - u)
        moduli = abs(mpmath.log(r)) + abs(log_g) + abs(mpmath.log(det)) + (abs(t) + abs(u)) / det
        return float(moduli / abs(mpmath.diff(threshold, mpmath.log(r))))


def first_past_edges(decide, lo, hi):
    """Bisection on the float's bits: for each pair of radii (int64 bits)
    in ``lo`` and ``hi`` that ``decide`` decides apart, the bits of the
    first radius past the edge, decided as hi is."""
    left = decide(lo.view(np.float64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        same = decide(mid.view(np.float64)) == left
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return hi


class TestOverflowFreeBound:
    @pytest.mark.parametrize("kind", KINDS)
    def test_det_bound_is_its_50_digit_closed_form(self, kind):
        # D = |t - u| within c eps kappa D of its closed form in 50 digits,
        # c = 1 and kappa = (|t| + |u|) / D, at every 32nd radius of the
        # grid (rho^w and t - u each round once; the largest measured c is
        # 0.73), or inf where the closed form is past the float range (a
        # constant's D at 1e160 times the matrix)
        rho = BOUND_GRID[::32]
        for cmat in (KERNEL_CMAT, 1e160 * KERNEL_CMAT):
            _, det = kernels.generator_bounds(kind, ALPHA, rho, 0.4, KERNEL_POTENTIAL, cmat)
            with mpmath.workdps(50):
                for r, got in zip(rho, det.tolist()):
                    _, t, u = closed_forms(kind, mpmath.mpf(r), cmat)
                    want = abs(t - u)
                    assert (abs(got - want) <= EPS * (abs(t) + abs(u))
                            or got == float(want) == math.inf), r

    @pytest.mark.parametrize("kind", ["jonquieres_a", "jonquieres_b", "schrodinger",
                                      "diagonal_power"])
    def test_decision_edges_are_the_50_digit_edges(self, kind):
        # the 16 radii where the float bound's k or Overflow decision
        # changes (btilde's bound is jonquieres_b's, and a constant's does
        # not depend on rho), by bisection on the float's bits between two
        # grid radii that it decides apart.  The closed forms in 50 digits
        # decide alike at every 64th grid radius and 2^14 ulps to either
        # side of each edge, and their edge is within
        # 1 + c eps kappa rho / ulp(rho) ulps, c = 1 (the largest measured c
        # is 0.66; the farthest edges, k = 2 -> 1 at 7.1e74, are 252 ulps
        # apart)
        exact = np.vectorize(functools.partial(closed_form_decision, kind), otypes=[np.int64])
        decide = functools.partial(bound_decisions, kind)
        before = decide(BOUND_GRID)
        assert exact(BOUND_GRID[::64]).tolist() == before[::64].tolist()
        i = np.flatnonzero(before[1:] != before[:-1])
        bits = BOUND_GRID.view(np.int64)
        got = first_past_edges(decide, bits[i], bits[i + 1])
        assert len(got) == 16
        lo, hi = got - 2**14, got + 2**14
        assert exact(lo.view(np.float64)).tolist() == before[i].tolist()
        assert exact(hi.view(np.float64)).tolist() == before[i + 1].tolist()
        want = first_past_edges(exact, lo, hi)
        overflow = np.abs(before[i]) == np.abs(before[i + 1])
        for g, w, edge, over in zip(got, want, want.view(np.float64), overflow):
            kappa = edge_condition(kind, edge, over)
            assert abs(int(g - w)) <= 1 + EPS * kappa * edge / np.spacing(edge), edge

    @pytest.mark.parametrize("kind,rho", [
        ("jonquieres_a", 1e200), ("jonquieres_a", 1e308),
        ("jonquieres_b", 1e80), ("jonquieres_b", 1e160), ("btilde", 1e160),
        ("schrodinger", 1e160), ("schrodinger", 1e-160), ("schrodinger", 1e-320),
        ("diagonal_power", 1e-200), ("diagonal_power", 1e-320), ("diagonal_power", 1e300),
    ] + [
        (kind, rho)
        for kind in ("jonquieres_a", "jonquieres_b", "schrodinger", "diagonal_power")
        for rho in (1e-10, 0.5, 1.0, 2.0, 1e10)
    ])
    def test_log_bound_past_the_float_range(self, kind, rho):
        # ln G against the closed form in 50-digit arithmetic, past the
        # float range of G^2 and inside it
        with mpmath.workdps(50):
            want = float(closed_forms(kind, mpmath.mpf(rho))[0])
        log_g, _ = kernel_bounds(kind, np.array([rho]))
        assert abs(log_g[0] - want) <= 4e-16 * abs(want)

    @pytest.mark.parametrize("energy,potential,want", [
        # no potential: V = |E|
        (1e200, (), math.log(1e200)),
        # |E| + |a0| is itself past the float range
        (1.5e308, (1.5e308,), math.log(1.5e308) + math.log(2.0)),
        (1.5e308, (1.5e308, 0.0), math.log(1.5e308) + math.log(2.0)),
    ])
    def test_log_bound_of_a_large_schrodinger_constant(self, energy, potential, want):
        rho = np.array([0.5, 2.0, 1e300])
        log_g, det = kernels.generator_bounds("schrodinger", ALPHA, rho, energy,
                                              np.array(potential), KERNEL_CMAT)
        assert log_g == pytest.approx(np.full(3, want), rel=1e-15)
        assert det.tolist() == [1.0, 1.0, 1.0]

    def test_log_bound_of_a_large_constant(self):
        cmat = np.array([[1e200, 3e199j], [0, 1e-200]])
        log_g, _ = kernels.generator_bounds("constant", ALPHA, np.ones(1), 0.0,
                                            np.array([]), cmat)
        assert log_g[0] == pytest.approx(math.log(math.hypot(1e200, 3e199)), rel=1e-15)
