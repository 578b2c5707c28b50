"""The two-parameter family of fibered birational maps on P1 x C:

    f(x, y) = ((alpha x + y) / (x + 1), beta y),   |alpha| = |beta| = 1,

its orbits (with indeterminacy tracking), the matrix/map correspondence,
the semiconjugacy from the squared-variable model, the inverted square map
G = sigma f^2 sigma with sigma = (1/x, 1/y), fixed points, and rotation
domain (orbit-closure rank) classification by box counting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .algebra import (
    INFINITY,
    MapParams,
    chordal,
    is_infinity,
    projective_action,
)
from .cocycle import CocycleSpec, generator_values
from .errors import IndeterminateAction, IndeterminatePoint, InsufficientPoints, Overflow


@dataclass(frozen=True)
class PointP1xC:
    """Point with projective first coordinate and nonzero fiber coordinate."""

    x: object  # complex or INFINITY
    y: complex

    def __post_init__(self):
        if self.y == 0:
            raise ValueError("orbit points must have y != 0")


@dataclass(frozen=True, eq=False)
class OrbitRecord:
    u: np.ndarray  # the kernel's arrays: x = u where v == 1, infinity
    v: np.ndarray  # where v == 0 (see orbit_coordinates)
    y: np.ndarray
    indeterminacy_hits: tuple  # of (step, distance)
    escaped: bool  # some x passed through infinity (legal, tracked)


@dataclass(frozen=True)
class ClosureClassification:
    rank: int
    slopes: tuple  # per-octave log2 box-count ratios over the full ladder
    confidence: float
    window: tuple  # surviving octave indices k (scale 2^-k)
    counts: tuple  # box counts N(2^-k) over the full ladder


def cocycle_matrix(p: MapParams, y: complex) -> np.ndarray:
    """The x-fiber Moebius matrix [[alpha, y], [1, 1]] of the map."""
    return np.array([[p.alpha, y], [1.0, 1.0]], dtype=np.complex128)


def apply_f(p: MapParams, q: PointP1xC) -> PointP1xC:
    """One step of the map; exact evaluation at (-1, alpha) raises
    :class:`IndeterminatePoint` (the base point of the family)."""
    try:
        x_next = projective_action(cocycle_matrix(p, q.y), q.x)
    except IndeterminateAction:
        raise IndeterminatePoint("f is indeterminate exactly at (-1, alpha)")
    return PointP1xC(x=x_next, y=p.beta * q.y)


def _indeterminacy_distance(x, y, alpha: complex) -> float:
    return math.hypot(chordal(x, -1.0 + 0j), abs(y - alpha))


def orbit(p: MapParams, q: PointP1xC, n: int, dist_tol: float = 1e-8) -> OrbitRecord:
    """n-step orbit of f with indeterminacy-proximity logging.

    Points 0..n-1 are checked before their step.  Close approaches to
    (-1, alpha) are recorded, never fatal; an exact hit truncates the orbit
    at the step where it happened and is logged once as (step, 0.0).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not dist_tol >= 0.0:  # NaN fails too
        raise ValueError(f"dist_tol must be nonnegative, got {dist_tol!r}")
    u, v, y = orbit_coordinates(p, q, n)
    # the distance is at least |y - alpha|; the scalar distance decides
    near = np.flatnonzero(np.abs(y[: min(len(u), n)] - p.alpha) < 2.0 * dist_tol)
    hits = []
    for k in near.tolist():
        x = complex(u[k]) if v[k] else INFINITY
        d = _indeterminacy_distance(x, complex(y[k]), p.alpha)
        if d < dist_tol:
            hits.append((k, d))
    if len(u) <= n and hits[-1:] != [(len(u) - 1, 0.0)]:
        hits.append((len(u) - 1, 0.0))
    return OrbitRecord(u=u, v=v, y=y, indeterminacy_hits=tuple(hits),
                       escaped=bool((v[1:] == 0).any()))


def matrix_orbit_equivalence(p: MapParams, q: PointP1xC, n: int) -> float:
    """Max chordal deviation between the orbit's x-coordinates and the
    projective action of the renormalized matrix products on x0.

    The matrix products are renormalized every step; scalars cancel in the
    projective action, so the comparison is overflow-free.
    """
    u, v, _ = orbit_coordinates(p, q, n)
    if len(u) <= n:
        raise IndeterminatePoint("f is indeterminate exactly at (-1, alpha)")
    rho = abs(q.y)
    theta0 = (cmath.phase(q.y) / (2.0 * math.pi)) % 1.0
    spec = CocycleSpec(kind="jonquieres_a", alpha=p.alpha, rho=rho, freq=p.freq)
    gens = generator_values(spec, np.mod(theta0 + np.arange(n) * p.freq, 1.0))
    prod = np.eye(2, dtype=np.complex128)
    worst = 0.0
    for g, x, finite in zip(gens, u[1:].tolist(), v[1:].tolist()):
        prod = g @ prod
        prod = prod / np.linalg.norm(prod)
        x_mat = projective_action(prod, q.x)
        worst = max(worst, chordal(x if finite else INFINITY, x_mat))
    return worst


def semiconjugacy_check(p: MapParams, q: PointP1xC, n: int, other_root: bool = False) -> float:
    """Deviation of pi(g^k) from f^k(pi) for k <= n, where pi(x, y) =
    (x, y^2) and g(x, y) = ((alpha x + y^2)/(x + 1), beta^(1/2) y).

    ``other_root`` exercises the second square root -beta^(1/2), which
    semiconjugates equally.  Chordal metric in x, absolute in y.
    """
    gamma = -p.beta_sqrt if other_root else p.beta_sqrt
    beta = gamma * gamma
    gx, gy = q.x, q.y
    try:
        fq = PointP1xC(x=q.x, y=q.y * q.y)
    except ValueError:
        raise ValueError("start point needs y != 0")
    worst = 0.0
    fp = MapParams(alpha=p.alpha, beta=beta, freq=p.freq)
    for _ in range(n):
        # one g step in projective x-coordinates
        if is_infinity(gx):
            num, den = p.alpha, 1.0 + 0j
        else:
            num, den = p.alpha * gx + gy * gy, gx + 1.0
        gx = INFINITY if den == 0 else num / den
        gy = gamma * gy
        fq = apply_f(fp, fq)
        worst = max(worst, chordal(gx, fq.x) + abs(gy * gy - fq.y))
    return worst


@dataclass(frozen=True)
class InvertedSquareMap:
    """G = sigma f^2 sigma in closed form:

        G(x, y) = ((x(1 + y) + (alpha + 1) y) /
                   (beta + (alpha + beta) x + alpha^2 y),  y / beta^2)

    Nothing is checked at construction.  Tier-1 checks the closed form
    against sigma f f sigma (``TestInvertedSquareMap::
    test_composition_identity``) and the triangular Jacobian at the origin,
    with diagonal (1/beta, 1/beta^2), against a finite-difference oracle
    (``test_jacobian_eigenvalues_against_fd_oracle``)."""

    params: MapParams

    def apply(self, x: complex, y: complex):
        p = self.params
        num = x * (1.0 + y) + (p.alpha + 1.0) * y
        den = p.beta + (p.alpha + p.beta) * x + p.alpha**2 * y
        return num / den, y / p.beta**2

    def jacobian_origin(self):
        """Exact DG(0, 0): [[1/beta, (alpha+1)/beta], [0, 1/beta^2]]."""
        p = self.params
        return (
            (1.0 / p.beta, (p.alpha + 1.0) / p.beta),
            (0j, 1.0 / p.beta**2),
        )


@dataclass(frozen=True)
class FixedPoint:
    x: object
    y: complex
    which_map: str  # "f" or "G"
    residual: float


def fixed_points(p: MapParams) -> tuple:
    """The three fixed points: (0,0) and (alpha-1, 0) of f, and the origin
    of G (the image under inversion of f^2's fixed point at infinity).
    Each residual is reported, not re-verified: all three come from closed
    forms, and ``TestFixedPoints::test_all_verified`` bounds them by
    1e-12."""
    out = []
    mat = cocycle_matrix(p, 0j)
    for x0 in (0j, p.alpha - 1.0):
        x1 = projective_action(mat, x0)
        res = chordal(x1, x0)  # y = 0 fiber is preserved exactly
        out.append(FixedPoint(x=x0, y=0j, which_map="f", residual=res))
    gx, gy = InvertedSquareMap(params=p).apply(0j, 0j)
    out.append(FixedPoint(x=0j, y=0j, which_map="G", residual=abs(gx) + abs(gy)))
    return tuple(out)


def orbit_coordinates(
    p: MapParams, q: PointP1xC, n: int, which: str = "f"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbit arrays (u, v, y) of ``which`` ("f", "g" or "f2") from
    ``kernels.orbit_points``: x is (x, 1) or infinity (1, 0); fewer than
    n + 1 points means an exact indeterminacy hit truncated the orbit."""
    num, den = (1.0 + 0j, 0j) if is_infinity(q.x) else (complex(q.x), 1.0 + 0j)
    u, v, y, _count = kernels.orbit_points(which, p.alpha, p.beta, num, den, q.y, int(n))
    if not (np.isfinite(u).all() and np.isfinite(y).all()):
        raise Overflow(f"the {which} orbit left the floating-point range")
    return u, v, y


def _spread_bits(idx: np.ndarray) -> np.ndarray:
    """Bit i of each 16-bit index moved to bit 4i of a uint64."""
    x = idx.astype(np.uint64)
    for shift, mask in ((24, 0x000000FF000000FF), (12, 0x000F000F000F000F),
                        (6, 0x0303030303030303), (3, 0x1111111111111111)):
        x = (x | (x << np.uint64(shift))) & np.uint64(mask)
    return x


def boxcount_rank(x: np.ndarray, y: np.ndarray, max_octave: int = 16) -> ClosureClassification:
    """Box-counting rank of a point cloud given by two complex coordinate
    arrays, in normalized R^4.

    The four real coordinates are each rescaled to unit diameter; occupied
    boxes are counted on the dyadic ladder eps_k = 2^-k.  The ladder is
    sampled while the points still average >= 1.05 per occupied box; the
    three coarsest sampled octaves (curvature-biased) and the two finest
    (sampling-limited) are discarded, and the rank is the rounded median
    slope over the surviving window.

    The cloud is quantized once, at the finest octave K = max_octave: each
    coordinate u in [0, 1] gets the cell index min(floor(u 2^K), 2^K - 1),
    and the bits of the four indices are interleaved into one uint64
    Morton key (K <= 16, so 4 K bits fit).  Multiplying by a power of two
    is exact, so floor(u 2^k) = floor(u 2^K) >> (K - k); the clamp at u = 1
    commutes with the shift, since (2^K - 1) >> (K - k) = 2^k - 1 and the
    shift is monotone.  The box of a point at octave k is therefore the key
    prefix key >> 4 (K - k), and after one sort of the keys the box count
    at octave k is one plus the number of changes between neighbouring
    prefixes: the same count as per-octave quantization, exactly.
    """
    if not 0 <= max_octave <= 16:
        raise ValueError("max_octave must lie in [0, 16]: four cell indices share a 64-bit key")
    npts = len(x)
    cells = 1 << max_octave
    key = np.zeros(npts, dtype=np.uint64)
    # each coordinate quantized on its own, as a contiguous 1-D array
    for axis, part in enumerate((x.real, x.imag, y.real, y.imag)):
        coord = np.ascontiguousarray(part)
        lo = coord.min()
        span = (coord.max() - lo) or 1.0
        unit = (coord - lo) / span
        idx = np.minimum((unit * cells).astype(np.int64), cells - 1)
        key |= _spread_bits(idx) << np.uint64(3 - axis)
    key.sort()

    counts = []
    ladder = []
    for k in range(max_octave + 1):
        prefix = key >> np.uint64(4 * (max_octave - k))
        nboxes = 1 + int(np.count_nonzero(prefix[1:] != prefix[:-1]))
        if k > 0 and 1.05 * nboxes > npts:
            break
        counts.append(nboxes)
        ladder.append(k)
    counts_arr = np.array(counts, dtype=float)
    slopes = tuple(float(t) for t in np.log2(counts_arr[1:] / counts_arr[:-1]))

    window = ladder[3:-2]
    if len(window) < 3:
        raise InsufficientPoints(
            f"only {len(window)} surviving octaves (ladder {ladder})"
        )
    w_lo, w_hi = window[0], window[-1]
    if counts[w_hi] < 10 * counts[w_lo]:
        raise InsufficientPoints("surviving window spans < 10x box-count growth")
    window_slopes = [slopes[k] for k in range(w_lo, w_hi)]
    med = float(np.median(window_slopes))
    rank = int(round(med))
    confidence = max(0.0, 1.0 - abs(med - rank))
    return ClosureClassification(
        rank=rank,
        slopes=slopes,
        confidence=confidence,
        window=tuple(window),
        counts=tuple(int(c) for c in counts),
    )


def classify_orbit_closure(
    p: MapParams, q: PointP1xC, n: int, which: str = "f"
) -> ClosureClassification:
    """Box-counting rank of the orbit closure (see :func:`boxcount_rank`).

    Near the origin the map is linearizable, so an orbit of the map itself
    should classify as rank 2 (torus) and an orbit of the inverted square
    map as rank 1 (circle).
    """
    if n < 1000:
        raise ValueError("closure classification needs a long orbit")
    u, v, y = orbit_coordinates(p, q, n, which)
    finite = v != 0
    return boxcount_rank(u[finite], y[finite])
