"""Quasiperiodic cocycle generator families, iteration with renormalization,
Lyapunov-exponent estimation, and the square-root normalization of the
squared-variable family off the unit circle.

Generator families (y = rho * exp(2*pi*i*theta), rotation multiplier
exp(2*pi*i*freq)):

* ``jonquieres_a``:   [[alpha, y],  [1, 1]]
* ``jonquieres_b``:   [[alpha, y^2],[1, 1]]
* ``btilde``:         the previous divided by a continuous branch of
  sqrt(alpha - y^2); requires rho != 1
* ``schrodinger``:    [[E - v(y), -1], [1, 0]] with a cosine-polynomial
  potential extended analytically off the unit circle
* ``diagonal_power``: [[y, 0], [0, 1/y]] (closed-form L(rho) = |ln rho|)
* ``constant``:       a fixed matrix

The formulas are defined once, in ``_kernels_py.generator_entries``
(vectorized over points y); every evaluation here goes through it, by way
of :func:`generator_values` (phase -> y -> matrix).  Estimates
at several radii (``lyapunov_many``, ``phase_values_many``) come from one
kernel call that runs every radius on the same phases.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

from . import _kernels_py as kernels
from ._lazy import np
from .algebra import GOLDEN_FREQ, KINDS, check_nonresonant, default_alpha
from ._kernels_py import check_radii, sqrt_branch_values
from .errors import SingularFactor


@dataclass(frozen=True, eq=False)
class CocycleSpec:
    """A generator family plus its parameters.

    ``alpha`` is only meaningful for the Jonquieres kinds, ``energy`` and
    ``potential`` (cosine coefficients: a0, a1, ...) for ``schrodinger``,
    ``matrix`` (any 2x2 array-like, kept as a read-only complex array) for
    ``constant``.  Instances are validated on construction, the radius by
    :func:`check_radii`, whose docstring shows why a ``btilde`` radius
    other than 1 needs no branch check.
    """

    kind: str
    alpha: complex = field(default_factory=default_alpha)
    rho: float = 1.0
    freq: float = GOLDEN_FREQ
    energy: float = 0.0
    potential: tuple = ()
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown cocycle kind {self.kind!r}")
        check_radii(self.kind, [self.rho])
        check_nonresonant(self.freq)
        # written so that NaN fails
        if self.kind in kernels.ROW_POWER and not abs(abs(self.alpha) - 1.0) <= 1e-12:
            raise ValueError("|alpha| must equal 1 to 1e-12")
        if self.kind == "constant" and self.matrix is None:
            raise ValueError("constant kind requires a matrix")
        if self.matrix is not None:
            matrix = np.array(self.matrix, dtype=np.complex128)
            if matrix.shape != (2, 2):
                raise ValueError(f"matrix has shape {matrix.shape}, want (2, 2)")
            matrix.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "potential", tuple(float(c) for c in self.potential))

    def multiplier(self) -> complex:
        return cmath.exp(2j * math.pi * self.freq)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Phase-averaged (1/n) log-norm of the n-step product.

    ``half_n_value`` is the same estimator at n // 2 on the same
    trajectories; |value - half_n_value| is the caller-facing structural
    error, to be added to ``stderr``.  Raw values are reported (small
    negatives possible for non-unimodular families; nothing is clamped).
    """

    value: float
    n: int
    samples: int
    half_n_value: float
    stderr: float

    @property
    def total_error(self) -> float:
        return self.stderr + abs(self.value - self.half_n_value)


def generator_values(spec: CocycleSpec, thetas) -> np.ndarray:
    """Generator matrices at y = rho * exp(2*pi*i*theta), one (2, 2) block
    per phase in ``thetas``: an (m, 2, 2) complex array for m phases."""
    kind, alpha, rho, _, energy, potential, cmat = _kernel_args(spec, float(spec.rho))
    thetas = np.asarray(thetas, dtype=np.float64)
    g = np.empty((2, 2, len(thetas)), dtype=np.complex128)
    y = rho * np.exp(2j * np.pi * thetas)
    kernels.generator_entries(kind, alpha, rho, energy, potential, cmat, y, g)
    return g.transpose(2, 0, 1)


def _kernel_args(spec: CocycleSpec, rho):
    # the kernel arguments before thetas, at the radii rho
    return (spec.kind, complex(spec.alpha), rho, float(spec.freq), float(spec.energy),
            np.asarray(spec.potential, dtype=np.float64), spec.matrix)


def iterate(spec: CocycleSpec, theta: float, n: int) -> tuple[np.ndarray, float]:
    """n-step product A(theta + (n-1) freq) ... A(theta), renormalized.

    Returns (P, S), P a (2, 2) array, with the exact product equal to
    exp(S) * P up to round-off and P of Frobenius norm 1.  The empty
    product (n = 0) is the identity, returned as (id / sqrt(2), ln sqrt(2)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.eye(2, dtype=np.complex128) / math.sqrt(2.0), 0.5 * math.log(2.0)
    theta = theta % 1.0
    _, s_full, p_full = kernels.cocycle_sums(*_kernel_args(spec, float(spec.rho)),
                                             np.array([theta]), n)
    p = p_full[0]
    if spec.kind == "btilde":
        # the kernel's btilde direction is the jonquieres_b one: this
        # product's times the unit phase prod_k b_k / |b_k| at its phases
        phases = theta + kernels.step_phases(np.arange(n), spec.freq)
        y = spec.rho * np.exp(2j * np.pi * phases)
        b = sqrt_branch_values(spec.alpha, spec.rho, y)
        p = p / np.prod(b / np.abs(b))
    return p, float(s_full[0])


def inverse_iterate(spec: CocycleSpec, theta: float, n: int) -> tuple[np.ndarray, float]:
    """Backward product A_{-n}(y) = A_n(beta^{-n} y)^{-1}, renormalized
    as in :func:`iterate`.

    Raises :class:`SingularFactor` with the first offending step index
    (1 to n) when a factor is numerically singular (relative det below
    1e-12).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.eye(2, dtype=np.complex128) / math.sqrt(2.0), 0.5 * math.log(2.0)
    phases = np.mod(theta - np.arange(1, n + 1) * spec.freq, 1.0)
    g = generator_values(spec, phases)
    frob2 = (np.abs(g) ** 2).sum(axis=(1, 2))
    singular = np.abs(np.linalg.det(g)) <= 1e-12 * np.maximum(1e-300, frob2)
    if singular.any():
        raise SingularFactor(int(np.argmax(singular)) + 1)
    p = np.eye(2, dtype=np.complex128)
    s = 0.0
    for g_inv in np.linalg.inv(g):
        p = g_inv @ p
        nrm = np.linalg.norm(p)
        s += math.log(nrm)
        p = p / nrm
    return p, s


def phase_samples(samples: int, seed: int) -> np.ndarray:
    """Low-discrepancy phases frac(offset + j * golden) with a seeded offset."""
    offset = random.Random(seed).random()
    return np.mod(offset + np.arange(samples) * GOLDEN_FREQ, 1.0)


def phase_values_many(
    spec: CocycleSpec, rhos, n: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase (1/n) log Frobenius norms at n and n//2 for each radius in
    ``rhos``: two (len(rhos), samples) arrays, row r for radius rhos[r].

    The radii run the same phases, so rows pair phase by phase; all rows
    come from one kernel call, which checks the radii, the generator bound
    and the sums.  The exponent does not depend on the matrix norm, so the
    Frobenius norm the kernel renormalizes by is the only one.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    thetas = np.tile(phase_samples(samples, seed), len(rhos))
    s_half, s_full, _ = kernels.cocycle_sums(
        *_kernel_args(spec, np.repeat(rhos, samples)), thetas, n
    )
    shape = (len(rhos), samples)
    return (s_half / (n // 2)).reshape(shape), (s_full / n).reshape(shape)


def lyapunov_phase_values(
    spec: CocycleSpec, n: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase (1/n) log-norms at n and n//2 (the raw estimator data):
    :func:`phase_values_many` at ``spec.rho`` alone."""
    half_vals, vals = phase_values_many(spec, [spec.rho], n, samples, seed)
    return half_vals[0], vals[0]


def lyapunov_many(
    spec: CocycleSpec, rhos, n: int, samples: int, seed: int
) -> list[LyapunovEstimate]:
    """Phase-averaged Lyapunov-exponent estimates, one per radius in
    ``rhos``, from one kernel call (:func:`phase_values_many`).

    Each estimate is the :func:`phase_mean` over ``samples``
    low-discrepancy phases of (1/n) ln ||A_n(y)||, with the mean of the
    same phases' values at n // 2.
    """
    half_rows, rows = phase_values_many(spec, rhos, n, samples, seed)
    estimates = []
    for half_vals, vals in zip(half_rows, rows):
        value, stderr = phase_mean(vals)
        estimates.append(LyapunovEstimate(value=value, n=n, samples=samples, stderr=stderr,
                                          half_n_value=float(np.mean(half_vals))))
    return estimates


def phase_mean(values) -> tuple[float, float]:
    """The mean of per-phase values and its standard error, (mean,
    stderr), with stderr 0.0 for a single value: the one phase statistic
    of the package, so every phase average it prints is NumPy's pairwise
    float64 sum."""
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, stderr


def lyapunov(spec: CocycleSpec, n: int, samples: int, seed: int) -> LyapunovEstimate:
    """Phase-averaged Lyapunov-exponent estimate at ``spec.rho``: the
    one-radius case of :func:`lyapunov_many`."""
    return lyapunov_many(spec, [spec.rho], n, samples, seed)[0]


def two_step_limit_check(alpha: complex, freq: float, rho: float) -> tuple[np.ndarray, float]:
    """Average two-step normalized product and its sup-distance from the
    large-radius limit, over 720 equally spaced phases.

    With m = exp(2*pi*i*freq) the two-step product B~(m y) B~(y) tends, as
    rho grows, to the unit-determinant matrix -(1/m) [[m^2, alpha + m^2],
    [0, 1]]; the deviation reported here is the sup over theta of the
    entrywise-absolute-sum distance and must shrink as rho grows.
    """
    if rho < 10.0:
        raise ValueError("two-step limit check requires rho >= 10")
    spec = CocycleSpec(kind="btilde", alpha=alpha, rho=rho, freq=freq)
    m = spec.multiplier()
    limit = np.array([[-m, -(alpha + m * m) / m], [0j, -1.0 / m]])
    thetas = np.arange(720) / 720
    g1 = generator_values(spec, thetas)
    g2 = generator_values(spec, np.mod(thetas + freq, 1.0))
    prods = g2 @ g1
    worst = float(np.abs(prods - limit).sum(axis=(1, 2)).max())
    return prods.mean(axis=0), worst
