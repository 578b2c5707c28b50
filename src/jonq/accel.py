"""Radius sweeps of the Lyapunov exponent, finite-difference acceleration,
integer-quantization checks, segmented piecewise-affine fitting and the
one-sided-slope regularity check.

Throughout, s = ln(rho) is the sweep variable.  The acceleration is the
negated left s-derivative of the exponent: complexifying the additive
phase by +i*eps multiplies the radius by exp(-2*pi*eps), and the 2*pi
factors cancel in the difference quotient, so this convention reproduces
the eps -> 0+ limit (a jump of the max(0, s) term contributes -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .algebra import DEFAULT_H, max_abs
from .cocycle import CocycleSpec, lyapunov_many, phase_mean, phase_values_many
from .errors import SideCrossing

# most segments piecewise_affine_fit tries
MAX_SEGMENTS = 6


@dataclass(frozen=True)
class LyapunovProfile:
    """Exponent estimates over an increasing grid of s = ln(rho), all
    produced with identical (n, samples, seed)."""

    points: tuple  # of (s, LyapunovEstimate)
    spec_template: CocycleSpec

    @property
    def s_values(self) -> np.ndarray:
        return np.array([s for s, _ in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for _, e in self.points])

    @property
    def stderrs(self) -> np.ndarray:
        return np.array([e.stderr for _, e in self.points])


@dataclass(frozen=True)
class AffineFit:
    """Segmented least-squares fit; adjacent segments share a grid junction."""

    breakpoints: tuple
    slopes: tuple
    intercepts: tuple
    max_residual: float


@dataclass(frozen=True)
class AccelerationEstimate:
    """The acceleration omega of one window and its nearest integer.

    ``stderr`` is the phase-sampling standard error of omega, the left
    difference quotient, alone.  It leaves out the finite-n bias of that
    quotient (1 - ln 2 / (2 n h) in place of 1 on the kink of
    ``diagonal_power`` at rho = 1); the regularity check's
    ``slope_error`` adds h / 2 for it.
    """

    omega: float
    nearest_integer: int
    distance: float
    h: float
    stderr: float


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    left_slope: float
    right_slope: float
    slope_error: float


@dataclass(frozen=True)
class QuantizationReport:
    passed: bool
    tol: float
    failures: tuple  # of (index, AccelerationEstimate)


def lyapunov_profile(
    spec: CocycleSpec, s_grid, n: int, samples: int, seed: int
) -> LyapunovProfile:
    """One Lyapunov estimate per grid point, with rho = exp(s), from one
    kernel call."""
    s_grid = [float(s) for s in s_grid]
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("s_grid must be strictly increasing")
    estimates = lyapunov_many(spec, [math.exp(s) for s in s_grid], n, samples, seed)
    return LyapunovProfile(points=tuple(zip(s_grid, estimates)), spec_template=spec)


def _guard_sides(spec, s, h):
    # btilde is undefined at rho = 1 and its profile may be non-smooth
    # there; both evaluation radii must sit on one side
    if spec.kind == "btilde":
        for probe in (s - h, s + h, s):
            if probe == 0.0 or (probe > 0) != (s > 0):
                raise SideCrossing(
                    f"window [{s - h:.4f}, {s + h:.4f}] straddles ln rho = 0"
                )


def radius_at(s: float, what: str) -> float:
    """rho = exp(s), or a ValueError that names ``what`` (the setting that
    gave s) where rho overflows or underflows to 0."""
    try:
        rho = math.exp(s)
    except OverflowError:
        rho = math.inf
    if not 0.0 < rho < math.inf:
        raise ValueError(f"{what}: rho = exp({s!r}) is outside the floating-point range")
    return rho


def acceleration_windows(
    spec: CocycleSpec,
    rhos,
    h: float = DEFAULT_H,
    n: int = 20000,
    samples: int = 64,
    seed: int = 0,
) -> list[tuple[AccelerationEstimate, RegularityResult]]:
    """Acceleration and regularity at each centre s = ln(rho), rho in
    ``rhos``, from one evaluation of the three radii exp(s - h), rho and
    exp(s + h) per centre, all in one kernel call.

    Acceleration: omega = -(L(s) - L(s - h)) / h, the negated left
    difference quotient, with the paired standard error of that slope.  L
    is convex and piecewise affine in s with integer slopes (Avila's global
    theory), so away from a kink the quotient is exact up to estimator
    noise.  A window whose centre sits on a kink (L = |ln rho| at rho = 1)
    reports the left slope there.  A centre where s - h < s < s + h or
    exp(s - h) < rho < exp(s + h) fails in floating point (h below float
    resolution there) raises ValueError before the kernel runs.

    Regularity: the one-sided s-slopes agree within twice the estimator
    error, which adds the two paired-sample standard errors and an O(h)
    discretization allowance h/2.
    """
    if not h > 0:  # NaN fails too
        raise ValueError("h must be positive")
    centres, radii = [], []
    for rho in rhos:
        s = math.log(rho)
        _guard_sides(spec, s, h)
        rho_lo, rho_hi = radius_at(s - h, f"h = {h!r}"), radius_at(s + h, f"h = {h!r}")
        if not (s - h < s < s + h and rho_lo < rho < rho_hi):
            raise ValueError(
                f"h = {h!r} is below float resolution at ln rho = {s!r}:"
                " the window's s values or radii are not distinct"
            )
        centres.append(s)
        radii += [rho_lo, rho, rho_hi]
    # rows 3i to 3i + 2 belong to window i
    _, values = phase_values_many(spec, radii, n, samples, seed)
    windows = []
    for i, s in enumerate(centres):
        lo, mid, hi = values[3 * i : 3 * i + 3]
        # paired slopes: the same phases at all three radii make
        # per-trajectory noise cancel in each difference, which is what
        # gives usable error bars
        left, le = phase_mean((mid - lo) / (s - (s - h)))
        right, re_ = phase_mean((hi - mid) / ((s + h) - s))
        nearest = int(round(-left))
        slope_err = le + re_ + h / 2
        windows.append((
            AccelerationEstimate(omega=-left, nearest_integer=nearest,
                                 distance=abs(-left - nearest), h=h, stderr=le),
            RegularityResult(regular=abs(left - right) <= 2.0 * slope_err,
                             left_slope=left, right_slope=right,
                             slope_error=slope_err),
        ))
    return windows


def acceleration_at(
    spec: CocycleSpec,
    rho: float,
    h: float = DEFAULT_H,
    n: int = 20000,
    samples: int = 64,
    seed: int = 0,
) -> AccelerationEstimate:
    """Acceleration omega = -(L(s) - L(s - h)) / h at s = ln(rho): the
    first half of the one-centre :func:`acceleration_windows`."""
    return acceleration_windows(spec, [rho], h, n, samples, seed)[0][0]


def quantization_check(estimates, tol: float) -> QuantizationReport:
    """Pass iff every acceleration estimate is within tol of an integer."""
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must lie in (0, 0.5)")
    failures = tuple(
        (i, est) for i, est in enumerate(estimates) if est.distance > tol
    )
    return QuantizationReport(passed=not failures, tol=tol, failures=failures)


def _pairwise_sum(xs: list) -> float:
    """Sum of the floats ``xs`` in NumPy's float64 order: left to right
    below 8 terms, 8 interleaved partial sums up to 128 terms, and split in
    halves (at a multiple of 8) above.  So the fit's floats are those of a
    NumPy fit to the bit, and do not depend on the Python version (``sum``
    compensates from Python 3.12 on)."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    total, tail = 0.0, 0
    if n >= 8:
        tail = n - n % 8
        r = xs[:8]
        for i in range(8, tail, 8):
            r = [a + b for a, b in zip(r, xs[i : i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[tail:]:
        total += x
    return total


def _segment_cost(s, v):
    """(SSE, slope, intercept) of the least-squares line through the points
    (s[i], v[i]), two or more Python floats each."""
    m = len(s)
    sm = _pairwise_sum(s) / m
    vm = _pairwise_sum(v) / m
    ds = [x - sm for x in s]
    den = _pairwise_sum([d * d for d in ds])
    slope = _pairwise_sum([d * (y - vm) for d, y in zip(ds, v)]) / den if den > 0 else 0.0
    inter = vm - slope * sm
    resid = [y - (slope * x + inter) for x, y in zip(s, v)]
    return _pairwise_sum([r * r for r in resid]), slope, inter


def piecewise_affine_fit(profile: LyapunovProfile, penalty: float | None = None) -> AffineFit:
    """Segmented affine fit with grid-restricted breakpoints.

    Exact dynamic program over junction positions, with at most
    MAX_SEGMENTS segments, minimizing total SSE + penalty * (segment
    count); the default penalty is the BIC-style
    2 * mean(stderr^2) * ln(#points).  Adjacent segments share the
    junction grid point, whose s-value is the reported breakpoint.  It runs
    on Python floats read from ``profile.points``, without NumPy; a NaN
    profile value gives a NaN ``max_residual``.
    """
    s = [float(x) for x, _ in profile.points]
    v = [float(e.value) for _, e in profile.points]
    p = len(s)
    if p < 5:
        raise ValueError("need at least 5 profile points")
    if penalty is None:
        se = [float(e.stderr) for _, e in profile.points]
        penalty = 2.0 * (_pairwise_sum([x * x for x in se]) / p) * math.log(p)
        penalty = max(penalty, 1e-12)

    cost = {}
    for i in range(p):
        for j in range(i + 1, p):
            cost[(i, j)] = _segment_cost(s[i : j + 1], v[i : j + 1])

    kmax = min(MAX_SEGMENTS, p - 1)
    # best[j][k]: minimal SSE covering grid[0..j] with k segments ending at j
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
    junctions = junctions[::-1]  # 0 = j0 < j1 < ... < jK = p-1

    slopes, inters = [], []
    fit = [0.0] * p
    for a, b in zip(junctions, junctions[1:]):
        _, slope, inter = cost[(a, b)]
        slopes.append(slope)
        inters.append(inter)
        fit[a : b + 1] = [slope * x + inter for x in s[a : b + 1]]
    return AffineFit(
        breakpoints=tuple(s[j] for j in junctions[1:-1]),
        slopes=tuple(slopes),
        intercepts=tuple(inters),
        max_residual=max_abs(f - y for f, y in zip(fit, v)),
    )


def regularity_check(
    spec: CocycleSpec,
    rho: float,
    h: float = DEFAULT_H,
    n: int = 20000,
    samples: int = 64,
    seed: int = 0,
) -> RegularityResult:
    """Compare one-sided s-slopes of the exponent at s = ln(rho): the
    second half of the one-centre :func:`acceleration_windows`."""
    return acceleration_windows(spec, [rho], h, n, samples, seed)[0][1]

