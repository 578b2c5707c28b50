import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jonq.accel import (
    MAX_SEGMENTS,
    AccelerationEstimate,
    AffineFit,
    LyapunovProfile,
    RegularityResult,
    acceleration_at,
    acceleration_windows,
    lyapunov_profile,
    piecewise_affine_fit,
    quantization_check,
    regularity_check,
)
from jonq.algebra import DEFAULT_H
from jonq.cocycle import (
    CocycleSpec,
    LyapunovEstimate,
    lyapunov,
    lyapunov_phase_values,
    phase_mean,
    phase_values_many,
)
from jonq.errors import SideCrossing

FAST = dict(n=4000, samples=16, seed=0)


def _wrap(points, template):
    return LyapunovProfile(points=points, spec_template=template)


def _profile(s, v, stderr=0.01):
    return _wrap(
        tuple((x, LyapunovEstimate(y, 1000, 8, y, stderr)) for x, y in zip(s, v)),
        CocycleSpec(kind="jonquieres_b"),
    )


# The NumPy segmented fit, frozen as it stood before the fit moved to
# Python floats, as the oracle the fit must match to the bit.
def np_segment_cost(s, v):
    m = len(s)
    if m == 1:
        return 0.0, 0.0, v[0]
    sm = s.mean()
    vm = v.mean()
    den = ((s - sm) ** 2).sum()
    slope = ((s - sm) * (v - vm)).sum() / den if den > 0 else 0.0
    inter = vm - slope * sm
    resid = v - (slope * s + inter)
    return float((resid**2).sum()), float(slope), float(inter)


# an overflowing profile leaves inf and nan, as the frozen fit did
@np.errstate(over="ignore", invalid="ignore")
def np_piecewise_affine_fit(profile, penalty=None):
    s = profile.s_values
    v = profile.values
    p = len(s)
    if p < 5:
        raise ValueError("need at least 5 profile points")
    if penalty is None:
        se = profile.stderrs
        penalty = 2.0 * float(np.mean(se**2)) * math.log(p)
        penalty = max(penalty, 1e-12)

    cost = {}
    for i in range(p):
        for j in range(i + 1, p):
            cost[(i, j)] = np_segment_cost(s[i : j + 1], v[i : j + 1])

    kmax = min(MAX_SEGMENTS, p - 1)
    inf = float("inf")
    best = [[inf] * (kmax + 1) for _ in range(p)]
    back = [[-1] * (kmax + 1) for _ in range(p)]
    for j in range(1, p):
        best[j][1] = cost[(0, j)][0]
        back[j][1] = 0
    for k in range(2, kmax + 1):
        for j in range(k, p):
            for i in range(k - 1, j):
                c = best[i][k - 1] + cost[(i, j)][0]
                if c < best[j][k]:
                    best[j][k] = c
                    back[j][k] = i
    k_best, total_best = 1, best[p - 1][1] + penalty
    for k in range(2, kmax + 1):
        total = best[p - 1][k] + penalty * k
        if total < total_best:
            k_best, total_best = k, total

    junctions = [p - 1]
    k = k_best
    while k > 0:
        junctions.append(back[junctions[-1]][k])
        k -= 1
    junctions = junctions[::-1]

    slopes, inters = [], []
    fit = np.empty(p)
    for a, b in zip(junctions, junctions[1:]):
        _, slope, inter = cost[(a, b)]
        slopes.append(slope)
        inters.append(inter)
        fit[a : b + 1] = slope * s[a : b + 1] + inter
    return AffineFit(
        breakpoints=tuple(float(s[j]) for j in junctions[1:-1]),
        slopes=tuple(slopes),
        intercepts=tuple(inters),
        max_residual=float(np.max(np.abs(fit - v))),
    )


def _fit_bits(fit):
    return [
        [x.hex() for x in field]
        for field in (fit.breakpoints, fit.slopes, fit.intercepts, (fit.max_residual,))
    ]


class TestProfile:
    def test_constant_profile_flat(self):
        spec = CocycleSpec(kind="constant", matrix=[[2, 0], [0, 0.5]])
        prof = lyapunov_profile(spec, np.linspace(-1, 1, 5), 500, 4, 0)
        vals = prof.values
        assert np.all(np.abs(vals - math.log(2)) < 1e-2)
        assert vals.max() - vals.min() < 1e-9  # radius never enters

    def test_diagonal_profile_is_absolute_value(self):
        spec = CocycleSpec(kind="diagonal_power")
        grid = np.linspace(-1, 1, 9)
        prof = lyapunov_profile(spec, grid, **FAST)
        for s, est in prof.points:
            assert est.value == pytest.approx(abs(s), abs=0.02)

    def test_grid_must_increase(self):
        spec = CocycleSpec(kind="diagonal_power")
        with pytest.raises(ValueError):
            lyapunov_profile(spec, [0.0, 0.0, 1.0], **FAST)

    def test_squared_family_tracks_hinge(self):
        spec = CocycleSpec(kind="jonquieres_b")
        grid = np.linspace(-1, 1, 11)
        prof = lyapunov_profile(spec, grid, **FAST)
        for s, est in prof.points:
            assert abs(est.value - max(0.0, s)) < 0.02

    def test_one_kernel_call_matches_per_radius_estimates(self, kernel_calls):
        spec = CocycleSpec(kind="jonquieres_b")
        grid = np.linspace(-1, 1, 5)
        prof = lyapunov_profile(spec, grid, 300, 4, 2)
        assert len(kernel_calls) == 1
        for s, est in prof.points:
            assert est == lyapunov(replace(spec, rho=math.exp(s)), 300, 4, 2)

    def test_fitted_slopes_nondecreasing(self):
        # convexity in ln rho: fitted segment slopes never decrease
        for kind in ("diagonal_power", "jonquieres_b"):
            spec = CocycleSpec(kind=kind)
            prof = lyapunov_profile(spec, np.linspace(-1, 1, 21), **FAST)
            fit = piecewise_affine_fit(prof, penalty=1e-6)
            assert all(b - a >= -0.02 for a, b in zip(fit.slopes, fit.slopes[1:]))


def _reference_window(spec, rho, h, n, samples, seed):
    """The one-centre acceleration_windows rebuilt from one
    lyapunov_phase_values call per radius, with the paired-slope formulas
    written out."""
    s = math.log(rho)

    def vals(t):
        return lyapunov_phase_values(replace(spec, rho=math.exp(t)), n, samples, seed)[1]

    def slope(s_lo, s_hi):
        d = (vals(s_hi) - vals(s_lo)) / (s_hi - s_lo)
        return float(np.mean(d)), float(np.std(d, ddof=1) / math.sqrt(len(d)))

    left, le = slope(s - h, s)
    right, re_ = slope(s, s + h)
    omega = -left
    nearest = int(round(omega))
    slope_err = le + re_ + h / 2
    return (
        AccelerationEstimate(omega, nearest, abs(omega - nearest), h, le),
        RegularityResult(abs(left - right) <= 2.0 * slope_err, left, right, slope_err),
    )


class TestWindow:
    @pytest.mark.parametrize(
        "kind,rho", [("diagonal_power", 1.0), ("jonquieres_b", 2.0), ("btilde", 0.5)]
    )
    def test_matches_per_radius_reference(self, kind, rho):
        spec = CocycleSpec(kind=kind, rho=rho)
        args = (spec, rho, 0.02, 600, 6, 3)
        ((accel, reg),) = acceleration_windows(spec, [rho], *args[2:])
        assert (accel, reg) == _reference_window(*args)
        assert acceleration_at(*args) == accel
        assert regularity_check(*args) == reg

    def test_one_kernel_call_for_three_radii(self, kernel_calls):
        spec = CocycleSpec(kind="btilde", rho=2.0)
        acceleration_windows(spec, [2.0], n=200, samples=4)
        (call,) = kernel_calls
        rho, thetas = call[2], call[7]
        assert len(set(rho.tolist())) == 3 and len(thetas) == 3 * 4
        # the same phases at every radius, so slopes pair phase by phase
        assert np.all(thetas.reshape(3, 4) == thetas[:4])

    def test_kink_reports_the_left_slope(self):
        # L = |ln rho| has its kink at rho = 1, the window's centre: omega
        # is the negated left slope, 1, not the right one.  At finite n,
        # L_n(1) = ln 2 / 2n (A_n is a diagonal of unit entries) and
        # L_n(exp(-h)) = h up to exp(-4nh), so omega = 1 - ln 2 / (2nh)
        n, h = FAST["n"], 0.02
        ((accel, reg),) = acceleration_windows(
            CocycleSpec(kind="diagonal_power"), [1.0], h, **FAST
        )
        assert accel.h == h
        assert abs(accel.omega - 1.0) <= 2.0 * (accel.stderr + h / 2)
        assert accel.omega == pytest.approx(1.0 - math.log(2.0) / (2 * n * h), abs=1e-12)
        assert accel.nearest_integer == 1
        assert not reg.regular

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            acceleration_windows(CocycleSpec(kind="diagonal_power"), [1.0], h=0.0)
        with pytest.raises(ValueError):
            acceleration_windows(CocycleSpec(kind="diagonal_power"), [1.0], h=math.nan)

    def test_many_centres_equal_one_centre_calls(self, kernel_calls):
        spec = CocycleSpec(kind="btilde", rho=0.5)
        rhos = [0.5, 0.6, 2.0, 3.0]
        windows = acceleration_windows(spec, rhos, n=300, samples=4, seed=2)
        assert len(kernel_calls) == 1
        assert len(set(kernel_calls[0][2].tolist())) == 3 * len(rhos)
        assert windows == [acceleration_windows(spec, [rho], n=300, samples=4, seed=2)[0]
                           for rho in rhos]

    def test_many_centres_guard_every_window(self, kernel_calls):
        spec = CocycleSpec(kind="btilde", rho=0.5)
        with pytest.raises(SideCrossing):
            acceleration_windows(spec, [0.5, 1.01], n=200, samples=4)
        assert kernel_calls == []

    @pytest.mark.parametrize("rhos,h", [
        ([1.0], 1e-300),  # exp(-+h) rounds to 1.0: the radii are equal
        ([2.0, math.exp(40.0)], 1e-15),  # 40 -+ h rounds to 40
    ], ids=["radii", "s-values"])
    def test_many_centres_reject_a_window_below_float_resolution(self, kernel_calls, rhos, h):
        spec = CocycleSpec(kind="jonquieres_b")
        with pytest.raises(ValueError, match=f"^h = {h!r} is below float resolution"):
            acceleration_windows(spec, rhos, h, n=200, samples=4)
        assert kernel_calls == []

    def test_slopes_are_phase_means_of_paired_differences(self):
        # omega, the one-sided slopes and their stderrs are phase_mean of
        # the same-phase differences between the window's three rows
        spec = CocycleSpec(kind="jonquieres_b")
        rhos, h = [0.5, 1.0, 2.0], DEFAULT_H
        windows = acceleration_windows(spec, rhos, h, n=400, samples=64, seed=1)
        radii = [r for rho in rhos
                 for r in (math.exp(math.log(rho) - h), rho, math.exp(math.log(rho) + h))]
        _, values = phase_values_many(spec, radii, 400, 64, 1)
        for i, (rho, (est, reg)) in enumerate(zip(rhos, windows)):
            s = math.log(rho)
            lo, mid, hi = values[3 * i : 3 * i + 3]
            left, left_err = phase_mean((mid - lo) / (s - (s - h)))
            right, _ = phase_mean((hi - mid) / ((s + h) - s))
            assert (est.omega.hex(), est.stderr.hex()) == ((-left).hex(), left_err.hex())
            assert (reg.left_slope.hex(), reg.right_slope.hex()) == (left.hex(), right.hex())


class TestAcceleration:
    def test_diagonal_at_unit_circle(self):
        spec = CocycleSpec(kind="diagonal_power")
        est = acceleration_at(spec, 1.0, **FAST)
        assert est.omega == pytest.approx(1.0, abs=0.05)
        assert est.nearest_integer == 1

    def test_squared_family_in_expanding_regime(self):
        spec = CocycleSpec(kind="jonquieres_b")
        est = acceleration_at(spec, 2.0, **FAST)
        assert est.omega == pytest.approx(-1.0, abs=0.05)

    def test_normalized_family_is_flat(self):
        spec = CocycleSpec(kind="btilde", rho=2.0)
        est = acceleration_at(spec, 2.0, **FAST)
        assert est.omega == pytest.approx(0.0, abs=0.05)

    def test_side_crossing_guard(self):
        spec = CocycleSpec(kind="btilde", rho=1.01)
        with pytest.raises(SideCrossing):
            acceleration_at(spec, 1.01, h=0.02, **{k: v for k, v in FAST.items() if k != "seed"}, seed=0)


class TestQuantization:
    @staticmethod
    def est(omega, h=0.02):
        nearest = int(round(omega))
        return AccelerationEstimate(
            omega=omega, nearest_integer=nearest, distance=abs(omega - nearest),
            h=h, stderr=0.0,
        )

    def test_pass(self):
        report = quantization_check([self.est(0.01), self.est(-0.98), self.est(1.04)], 0.05)
        assert report.passed

    def test_failure_listed(self):
        bad = self.est(0.3)
        report = quantization_check([self.est(0.0), bad], 0.05)
        assert not report.passed
        assert report.failures == ((1, bad),)

    def test_empty_vacuous(self):
        assert quantization_check([], 0.05).passed

    def test_tol_range(self):
        with pytest.raises(ValueError):
            quantization_check([], 0.6)


class TestSegmentedFit:
    def test_hinge_with_noise(self):
        rng = np.random.default_rng(0)
        s = np.linspace(-2, 2, 41)
        v = np.maximum(0.0, s) + 0.01 * rng.standard_normal(41)
        prof = _wrap(
            tuple(
                (float(si), LyapunovEstimate(float(vi), 1000, 8, float(vi), 0.01))
                for si, vi in zip(s, v)
            ),
            CocycleSpec(kind="jonquieres_b", rho=2.0),
        )
        fit = piecewise_affine_fit(prof)
        assert len(fit.breakpoints) == 1
        assert abs(fit.breakpoints[0]) <= 0.05
        assert fit.slopes[0] == pytest.approx(0.0, abs=0.05)
        assert fit.slopes[1] == pytest.approx(1.0, abs=0.05)

    def test_constant_single_segment(self):
        s = np.linspace(-2, 2, 21)
        v = np.full_like(s, 0.7)
        prof = _wrap(
            tuple(
                (float(si), LyapunovEstimate(float(vi), 1000, 8, float(vi), 0.001))
                for si, vi in zip(s, v)
            ),
            CocycleSpec(kind="diagonal_power"),
        )
        fit = piecewise_affine_fit(prof)
        assert fit.breakpoints == ()
        assert fit.slopes[0] == pytest.approx(0.0, abs=1e-9)

    def test_absolute_value(self):
        s = np.linspace(-1, 1, 21)
        v = np.abs(s)
        prof = _wrap(
            tuple(
                (float(si), LyapunovEstimate(float(vi), 1000, 8, float(vi), 0.002))
                for si, vi in zip(s, v)
            ),
            CocycleSpec(kind="diagonal_power"),
        )
        fit = piecewise_affine_fit(prof)
        assert len(fit.breakpoints) == 1
        assert abs(fit.breakpoints[0]) <= 0.05
        assert fit.slopes[0] == pytest.approx(-1.0, abs=0.05)
        assert fit.slopes[1] == pytest.approx(1.0, abs=0.05)

    def test_noise_stability(self):
        rng = np.random.default_rng(7)
        s = np.linspace(-2, 2, 41)
        base = np.maximum(0.0, s)
        prof_a = _wrap(
            tuple(
                (float(si), LyapunovEstimate(float(vi), 1000, 8, float(vi), 0.005))
                for si, vi in zip(s, base)
            ),
            CocycleSpec(kind="jonquieres_b", rho=2.0),
        )
        noisy = base + 0.004 * rng.standard_normal(41)
        prof_b = _wrap(
            tuple(
                (float(si), LyapunovEstimate(float(vi), 1000, 8, float(vi), 0.005))
                for si, vi in zip(s, noisy)
            ),
            CocycleSpec(kind="jonquieres_b", rho=2.0),
        )
        fit_a = piecewise_affine_fit(prof_a)
        fit_b = piecewise_affine_fit(prof_b)
        assert len(fit_a.breakpoints) == len(fit_b.breakpoints) == 1
        assert abs(fit_a.breakpoints[0] - fit_b.breakpoints[0]) < 0.05

    def test_needs_five_points(self):
        s = np.array([0.0, 1.0, 2.0])
        prof = _wrap(
            tuple(
                (float(si), LyapunovEstimate(0.0, 100, 4, 0.0, 0.01)) for si in s
            ),
            CocycleSpec(kind="diagonal_power"),
        )
        with pytest.raises(ValueError):
            piecewise_affine_fit(prof)


class TestFitMatchesNumpyOracle:
    """The Python-float fit sums in NumPy's order, so every float of it is
    the frozen NumPy fit's to the bit, on any profile and penalty."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        p=st.integers(5, 41),
        start=st.floats(-3.0, 0.0),
        penalty=st.none() | st.floats(0.0, 1.0),
    )
    def test_drawn_profiles(self, data, p, start, penalty):
        steps = data.draw(st.lists(st.floats(1e-3, 0.5), min_size=p - 1, max_size=p - 1))
        s = [start]
        for step in steps:
            s.append(s[-1] + step)
        v = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p))
        se = data.draw(st.lists(st.floats(0.0, 0.1), min_size=p, max_size=p))
        prof = _wrap(
            tuple((x, LyapunovEstimate(y, 1000, 8, y, e)) for x, y, e in zip(s, v, se)),
            CocycleSpec(kind="jonquieres_b"),
        )
        got = piecewise_affine_fit(prof, penalty)
        want = np_piecewise_affine_fit(prof, penalty)
        assert len(got.slopes) == len(want.slopes)
        assert got.breakpoints == want.breakpoints
        assert _fit_bits(got) == _fit_bits(want)

    def test_noisy_hinges(self):
        # profile-shaped data: max(0, s - c) plus noise on a linspace grid,
        # 8 or more points per segment, where the sum order matters
        rng = np.random.default_rng(3)
        for p in (9, 17, 41):
            s = np.linspace(-2.0, 2.0, p)
            for c, noise in ((0.0, 0.0), (0.3, 1e-3), (-0.7, 0.02)):
                v = np.maximum(0.0, s - c) + noise * rng.standard_normal(p)
                prof = _profile(s.tolist(), v.tolist(), 0.005)
                for penalty in (None, 1e-6):
                    got = piecewise_affine_fit(prof, penalty)
                    assert _fit_bits(got) == _fit_bits(np_piecewise_affine_fit(prof, penalty))

    @pytest.mark.parametrize("v", [
        # a NaN value makes the one segment through it NaN everywhere
        [0.0, 0.0, math.nan, 0.5, 1.0],
        # 1e308 overflows the fit to slope -inf and intercept +inf: the
        # first residual is inf and the rest are NaN, which a plain max
        # would drop
        [1e308, -0.5, 0.5, -0.5, 0.5],
    ])
    def test_nan_residual_gives_nan_max_residual(self, v):
        prof = _profile([-1.0, 1.0, 2.0, 3.0, 4.0], v)
        assert math.isnan(np_piecewise_affine_fit(prof, 1e-6).max_residual)
        assert math.isnan(piecewise_affine_fit(prof, 1e-6).max_residual)


class TestNumpyFreeFit:
    def test_fit_runs_without_numpy(self):
        # the lazy binding leaves a "numpy" stub in sys.modules; numpy._core
        # is there only once NumPy has run
        code = (
            "import sys; "
            "from jonq import accel, cocycle; "
            "pts = tuple((s, cocycle.LyapunovEstimate(max(0.0, s), 100, 4, max(0.0, s), 0.01))"
            " for s in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)); "
            "fit = accel.piecewise_affine_fit(accel.LyapunovProfile(pts, None), 1e-6); "
            "print(fit.breakpoints, 'numpy._core' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(0.0,) False\n"

    def test_lyapunov_command_loads_numpy(self, tmp_path):
        code = (
            "import sys, jonq.cli; "
            "rc = jonq.cli.main(['lyapunov', '--s-steps', '3', '--n', '400', '--out', sys.argv[1]]); "
            "print(rc, 'numpy._core' in sys.modules)"
        )
        out = tmp_path / "l.csv"
        proc = subprocess.run([sys.executable, "-c", code, str(out)],
                              capture_output=True, text=True)
        assert proc.stdout == "0 True\n", proc.stderr
        assert len(out.read_text().splitlines()) == 2 + 3


class TestRegularity:
    def test_normalized_family_regular(self):
        spec = CocycleSpec(kind="btilde", rho=2.0)
        res = regularity_check(spec, 2.0, **FAST)
        assert res.regular
        assert abs(res.left_slope) < 0.05 and abs(res.right_slope) < 0.05

    def test_diagonal_kink(self):
        spec = CocycleSpec(kind="diagonal_power")
        res = regularity_check(spec, 1.0, **FAST)
        assert not res.regular
        assert res.left_slope == pytest.approx(-1.0, abs=0.05)
        assert res.right_slope == pytest.approx(1.0, abs=0.05)

    def test_squared_family_kink_at_one(self):
        spec = CocycleSpec(kind="jonquieres_b")
        res = regularity_check(spec, 1.0, **FAST)
        assert not res.regular
        assert res.left_slope == pytest.approx(0.0, abs=0.05)
        assert res.right_slope == pytest.approx(1.0, abs=0.05)
