"""The NumPy kernels: the two hot paths, renormalized cocycle products
batched over trajectories (each with its own phase and radius) and long
map orbits in projective x-coordinates.

``generator_entries`` is the one definition of the cocycle generator
families (at given points y), with ``sqrt_branch_values`` for the
square-root normalization; ``generators`` evaluates them at phases.  The
kernel and ``cocycle`` evaluate every generator through them, so this
module imports nothing from the package.
"""

import cmath
import math

import numpy as np


def sqrt_branch_values(alpha, rho, y):
    """Closed-form continuous branch of sqrt(alpha - y^2) on |y| = rho != 1.

    ``rho`` is a scalar or one radius per entry of ``y``.  Where rho < 1,
    alpha - y^2 winds 0 times about the origin and the branch through
    sqrt(alpha) at y = 0 is used; where rho > 1 it winds twice and the
    branch is i y sqrt(1 - alpha / y^2).
    """
    inside = np.asarray(rho) < 1.0
    if inside.all():
        return np.sqrt(complex(alpha)) * np.sqrt(1.0 - y * y / alpha)
    outside = 1j * y * np.sqrt(1.0 - alpha / (y * y))
    if not inside.any():
        return outside
    small = np.sqrt(complex(alpha)) * np.sqrt(1.0 - y * y / alpha)
    return np.where(inside, small, outside)


def generators(kind, alpha, rho, energy, potential, cmat, phases):
    """Generator matrices at y = rho * exp(2 pi i phase): an (m, 2, 2)
    complex array for m phases.  ``rho`` is a scalar or one radius per
    phase."""
    phases = np.asarray(phases, dtype=np.float64)
    g = np.empty((2, 2, len(phases)), dtype=np.complex128)
    y = rho * np.exp(2j * np.pi * phases)
    generator_entries(kind, alpha, rho, energy, potential, cmat, y, g)
    return g.transpose(2, 0, 1)


def generator_entries(kind, alpha, rho, energy, potential, cmat, y, out):
    """Write entry (i, j) of the ``kind`` generator at the points ``y``
    into out[i, j]; ``out`` has shape (2, 2) + y.shape.

    ``rho`` is |y| (a scalar or an array that broadcasts against ``y``);
    only btilde reads it, to pick its square-root branch.  ``cmat`` is the
    constant kind's (2, 2) matrix; the other kinds ignore it.
    """
    if kind == "constant":
        out[:] = np.reshape(cmat, (2, 2) + (1,) * y.ndim)
    elif kind in ("jonquieres_a", "jonquieres_b"):
        out[0, 0] = alpha
        out[0, 1] = y if kind == "jonquieres_a" else y * y
        out[1] = 1.0
    elif kind == "btilde":
        # the jonquieres_b generator divided by the branch
        b = sqrt_branch_values(alpha, rho, y)
        np.divide(alpha, b, out=out[0, 0])
        np.divide(y * y, b, out=out[0, 1])
        np.divide(1.0, b, out=out[1, 0])
        out[1, 1] = out[1, 0]
    elif kind == "schrodinger":
        # v(y) = a0 + sum_k a_k * (y**k + y**-k) / 2, the analytic extension
        # of the cosine polynomial off the unit circle
        v = np.zeros_like(y)
        if len(potential):
            v += potential[0]
            p = np.ones_like(y)
            for c in potential[1:]:
                p = p * y
                v += c * 0.5 * (p + 1.0 / p)
        out[0, 0] = energy - v
        out[0, 1] = -1.0
        out[1, 0] = 1.0
        out[1, 1] = 0.0
    elif kind == "diagonal_power":
        out[0, 0] = y
        out[0, 1] = 0.0
        out[1, 0] = 0.0
        out[1, 1] = 1.0 / y
    else:
        raise ValueError(f"unknown kind {kind!r}")


# generator entries are filled for this many trajectory-steps at a time:
# 64 KB per complex array, whatever the number of trajectories
BLOCK_ENTRIES = 4096
# between two renormalizations a product's Frobenius norm stays inside
# [1e-150, 1e150], so the squared entries that make up the norm stay
# normal floats; ln 2 is room for the identity's norm, sqrt 2, and rounding
LOG_NORM_RANGE = 150.0 * math.log(10.0) - math.log(2.0)


def renormalization_intervals(kind, alpha, rho, energy, potential, cmat):
    """Steps between renormalizations of a trajectory at each radius in
    ``rho``: the largest k in (1, 2, 4, 8) with k * b <= LOG_NORM_RANGE.

    b is a closed-form bound, over every phase, on how far one step can
    move the log Frobenius norm of a product: a step multiplies it by at
    most |A|_F and at least sigma_min(A) >= |det A| / |A|_F, so
    b = max(ln G, ln(G / D)) with G >= |A|_F and D <= |det A| (|alpha| = 1):

    * jonquieres_a: G^2 = 3 + rho^2, D = |1 - rho|;
    * jonquieres_b and btilde (whose kernel products are jonquieres_b
      products): G^2 = 3 + rho^4, D = |1 - rho^2|;
    * schrodinger: G^2 = V^2 + 2 with V = |E| + |a0|
      + sum_k |a_k| (rho^k + rho^-k) / 2, D = 1;
    * diagonal_power: G^2 = rho^2 + rho^-2, D = 1;
    * constant: the matrix's own norm and determinant.

    k = 1, so every step renormalizes, where D = 0 (jonquieres at
    rho = 1, a singular constant), where the bound is not finite, and
    where two steps could leave the range (jonquieres_b at rho = 1e75,
    where G = 1e150).

    This is the closed-form bound, one k per radius.  ``cocycle_sums``
    tightens the D = 0 of jonquieres at rho = 1 per trajectory, over the
    steps it runs (``unit_circle_intervals``).
    """
    rho = np.asarray(rho, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if kind == "constant":
            c = np.asarray(cmat, dtype=np.complex128)
            frob2 = np.full(rho.shape, float(np.sum(np.abs(c) ** 2)))
            det = np.full(rho.shape, abs(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]))
        elif kind == "jonquieres_a":
            frob2 = 3.0 + rho**2
            det = np.abs(1.0 - rho)
        elif kind in ("jonquieres_b", "btilde"):
            frob2 = 3.0 + rho**4
            det = np.abs(1.0 - rho**2)
        elif kind == "schrodinger":
            bound = abs(energy) + (abs(potential[0]) if len(potential) else 0.0)
            for k, c in enumerate(potential[1:], start=1):
                bound = bound + abs(c) * 0.5 * (rho**k + rho**-k)
            frob2 = bound * bound + 2.0
            det = np.ones(rho.shape)
        elif kind == "diagonal_power":
            frob2 = rho**2 + rho**-2
            det = np.ones(rho.shape)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        log_g = 0.5 * np.log(frob2)
        per_step = np.maximum(log_g, log_g - np.log(det))
    return _largest_intervals(per_step)


def _largest_intervals(per_step):
    """The largest k in (1, 2, 4, 8) with k * per_step <= LOG_NORM_RANGE;
    1 where per_step is not finite."""
    k = np.ones(per_step.shape, dtype=np.int64)
    for interval in (2, 4, 8):
        k[interval * per_step <= LOG_NORM_RANGE] = interval
    return k


# margin on the closed form of |alpha - y^w| on |y| = 1 below: the closed
# form and the generator entries alpha, y and y^w each round to a few 1e-16
UNIT_CIRCLE_MARGIN = 1e-12


def unit_circle_det_bounds(kind, alpha, thetas, freq, n):
    """Lower bound, for each starting phase in ``thetas``, on |det A_j| over
    the steps j < n of a jonquieres trajectory at rho = 1.

    There det A_j = alpha - y_j^w, with w = 1 for jonquieres_a and w = 2 for
    jonquieres_b and btilde, y_j = exp(2 pi i phi_j) and phi_j the kernel's
    own phase.  With a = arg(alpha) / 2 pi,
    |alpha - y_j^w| >= 2 sqrt|alpha| |sin pi (w phi_j - a)|, which grows
    with the distance of w phi_j - a to the nearest integer; one pass over
    the steps, BLOCK_ENTRIES phase-steps at a time, takes the smallest
    distance.  UNIT_CIRCLE_MARGIN is subtracted, so a bound <= 0 means that
    y_j^w may equal alpha up to rounding.
    """
    w = 1 if kind == "jonquieres_a" else 2
    a = cmath.phase(alpha) / (2.0 * math.pi)
    nearest = np.full(len(thetas), 0.5)
    block = max(1, BLOCK_ENTRIES // max(1, len(thetas)))
    for start in range(0, n, block):
        # the kernel's phases, computed as it computes them
        x = thetas + (np.arange(start, min(n, start + block)) * freq)[:, None]
        x -= np.floor(x)
        x *= w
        x -= a
        x -= np.rint(x)
        np.minimum(nearest, np.abs(x).min(axis=0), out=nearest)
    return 2.0 * math.sqrt(abs(alpha)) * np.sin(np.pi * nearest) - UNIT_CIRCLE_MARGIN


def unit_circle_intervals(kind, alpha, rho, freq, thetas, n, intervals):
    """``intervals`` with each jonquieres trajectory at rho = 1 given the
    largest k its own steps allow.

    The closed form's D = min |det A| over the whole unit circle is 0 there,
    so ``renormalization_intervals`` gives k = 1.  This puts
    ``unit_circle_det_bounds`` in place of D, the same bound
    b = max(ln G, ln(G / D)) with G = 2, and keeps k = 1 where that D <= 0.
    It depends only on each trajectory's phase, radius, freq and n.
    """
    on_circle = rho == 1.0
    if kind not in ("jonquieres_a", "jonquieres_b", "btilde") or not on_circle.any():
        return intervals
    det = unit_circle_det_bounds(kind, alpha, thetas[on_circle], freq, n)
    # G^2 = 3 + rho^2 (jonquieres_a) or 3 + rho^4 = 4 at rho = 1
    log_g = math.log(2.0)
    per_step = np.full(det.shape, np.inf)
    certified = det > 0.0
    per_step[certified] = np.maximum(log_g, log_g - np.log(det[certified]))
    intervals = intervals.copy()
    intervals[on_circle] = _largest_intervals(per_step)
    return intervals


def _renormalize(p, a, s):
    """Divide each product in ``p`` (2, 2, m) by its Frobenius norm and
    add the log of that norm to ``s``; ``a`` is a (2, 2, m) buffer."""
    np.abs(p, out=a)
    a *= a
    nrm = np.sqrt(a[0, 0] + a[0, 1] + a[1, 0] + a[1, 1])
    s += np.log(nrm)
    # NumPy divides a complex by a real c as a product with 1 / c, so
    # this is p /= nrm to the bit, without the complex division
    p *= 1.0 / nrm


def cocycle_sums(kind, alpha, rho, freq, energy, potential, cmat, thetas, n):
    """Renormalized n-step products of the ``kind`` family (a name in
    ``cocycle.KINDS``), one trajectory per starting phase in ``thetas``.

    ``rho`` is a scalar or one radius per trajectory, so one call can carry
    several radii.  Returns ``(s_half, s_full, p_full)`` where the n-step
    product equals exp(s_full) * p_full with p_full Frobenius-normalized;
    s_half is the log-norm sum recorded at step n // 2.  Each trajectory's
    numbers depend only on its own phase and radius, so a batch of radii
    returns, bit for bit, what one call per radius returns.

    * exp(2 pi i phase) is computed once per distinct starting phase and
      step, and scaled by each trajectory's radius.
    * Generator entries are filled (by ``generator_entries``) for blocks of
      steps of at most BLOCK_ENTRIES = 4096 trajectory-steps, so the
      per-step loop runs the 2x2 product alone.
    * A trajectory renormalizes every k steps, k from
      ``renormalization_intervals``: a closed-form bound on the generators
      keeps every unnormalized stretch inside [1e-150, 1e150].  At
      rho = 1, where det A = alpha - y^w vanishes somewhere on the circle,
      a jonquieres trajectory takes its k from the smallest |det A| over
      its own n steps (``unit_circle_intervals``).  k is 1 where the
      shrinkage cannot be bounded (a singular constant, or y_j^w = alpha
      up to rounding at some step j < n at rho = 1) or the growth is too
      large (jonquieres_b at rho = 1e75).  Every trajectory also
      renormalizes at n // 2 and at n.
      Trajectories are grouped by k, so a k = 1 group renormalizes alone.
    * btilde runs on the jonquieres_b matrices: B~ = B / b with
      |b| = |alpha - y^2|^(1/2) on either branch, so its s is the
      jonquieres_b s minus 1/2 sum_k ln|alpha - y_k^2|.  Its p is the
      jonquieres_b direction, which is the btilde p times the unit phase
      prod_k b_k / |b_k|; ``cocycle.iterate`` divides that phase out.
    """
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    m = len(thetas)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim == 0:
        rho = np.full(m, float(rho))
    elif rho.shape != (m,):
        raise ValueError(f"rho has shape {rho.shape}, want a scalar or ({m},)")
    btilde = kind == "btilde"
    family = "jonquieres_b" if btilde else kind
    # sorted by interval, the trajectories renormalized after c steps are a
    # prefix: those whose k divides c, that is k <= the power of 2 in c.
    # ends[c % 8] is that prefix's length: k <= 8 when 8 divides c, k <= 4
    # when c = 4 mod 8, k <= 2 when c = 2 or 6 mod 8, and k = 1 otherwise
    intervals = renormalization_intervals(kind, alpha, rho, energy, potential, cmat)
    intervals = unit_circle_intervals(kind, alpha, rho, freq, thetas, n, intervals)
    order = np.argsort(intervals, kind="stable")
    ends = np.searchsorted(
        intervals[order], [8, 1, 2, 1, 4, 1, 2, 1], side="right"
    ).tolist()
    thetas, rho = thetas[order], rho[order]
    starts, inverse = np.unique(thetas, return_inverse=True)
    half = n // 2
    # p[i, j] is entry (i, j) of every trajectory's product
    p = np.zeros((2, 2, m), dtype=np.complex128)
    p[0, 0] = 1.0
    p[1, 1] = 1.0
    q = np.empty_like(p)
    t = np.empty_like(p)
    a = np.empty((2, 2, m))
    s = np.zeros(m)
    s_half = np.full(m, 0.5 * np.log(2.0))
    # btilde: running sums of ln|alpha - y_k^2|, in step order
    logb = np.zeros(m)
    logb_half = np.zeros(m)
    block = max(1, BLOCK_ENTRIES // max(1, m))
    g = np.empty((2, 2, block, m), dtype=np.complex128)
    for start in range(0, n, block):
        steps = min(block, n - start)
        # x - floor(x) is np.mod(x, 1.0) to the bit, at a fifth of the cost
        phases = starts + (np.arange(start, start + steps) * freq)[:, None]
        phases -= np.floor(phases)
        y = rho * np.exp(2j * np.pi * phases)[:, inverse]
        gb = g[:, :, :steps]
        generator_entries(family, alpha, rho, energy, potential, cmat, y, gb)
        if btilde:
            terms = np.log(np.abs(alpha - y * y))
            terms[0] += logb
            # a one-step block (more than BLOCK_ENTRIES trajectories) is
            # its own running sum
            if steps > 1:
                np.add.accumulate(terms, axis=0, out=terms)
            if start < half <= start + steps:
                logb_half = terms[half - 1 - start].copy()
            logb = terms[-1].copy()
        # column j of every generator, as (2, steps, m)
        col0, col1 = gb[:, 0], gb[:, 1]
        for j in range(steps):
            # q[i, l] = g[i, 0] * p[0, l] + g[i, 1] * p[1, l]
            np.multiply(col0[:, j, None], p[0], out=q)
            np.multiply(col1[:, j, None], p[1], out=t)
            q += t
            p, q = q, p
            c = start + j + 1
            e = m if c == half or c == n else ends[c % 8]
            if e:
                _renormalize(p[..., :e], a[..., :e], s[:e])
            if c == half:
                s_half = s.copy()
    if btilde:
        s = s - 0.5 * logb
        s_half = s_half - 0.5 * logb_half
    back = np.empty_like(order)
    back[order] = np.arange(m)
    return s_half[back], s[back], p[..., back].transpose(2, 0, 1)


def orbit_points(which, alpha, beta, x_num, x_den, y0, n):
    """Iterate the map ``which`` ("f", "g" or "f2") n times in projective
    x-coordinates (u : v), normalized by v: a finite x is (x, 1), and
    infinity is exactly (1, 0), taken when the new v is an exact 0.

    f steps use ``maps.apply_f``'s arithmetic, so f orbits are its numbers
    to the bit, and a passage through infinity is exact (normalizing by the
    larger modulus left v a few ulps off 0).  Returns ``(u, v, y, count)``;
    count < n + 1 only when an exact indeterminacy hit (u = v = 0)
    truncated the orbit.
    """
    if which not in ("f", "g", "f2"):
        raise ValueError(f"unknown map {which!r}")
    u, v, ys = np.empty((3, n + 1), dtype=np.complex128)
    a, b, one = complex(alpha), complex(beta), 1.0 + 0j
    cu, cv, cy = complex(x_num), complex(x_den), complex(y0)
    if cv != 1:
        cu, cv = (one, 0j) if cv == 0 else (cu / cv, one)
    u[0], v[0], ys[0] = cu, cv, cy
    substeps = 2 if which == "f2" else 1
    for count in range(1, n + 1):
        for _ in range(substeps):
            if which == "g":
                nu = (1.0 + cy) * cu + (a + 1.0) * cy * cv
                nv = (a + b) * cu + (b + a * a * cy) * cv
                cy = cy / (b * b)
            else:
                # projective_action of [[alpha, y], [1, 1]], as apply_f
                nu, nv = (a * cu + cy, one * cu + one) if cv else (a, one)
                cy = b * cy
            if nv != 0:
                cu, cv = nu / nv, one
            elif nu != 0:
                cu, cv = one, 0j
            else:
                return u[:count], v[:count], ys[:count], count
        u[count], v[count], ys[count] = cu, cv, cy
    return u, v, ys, n + 1
