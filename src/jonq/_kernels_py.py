"""The NumPy kernels: the two hot paths, renormalized cocycle products
batched over trajectories (each with its own phase and radius) and long
map orbits in projective x-coordinates.

``generator_entries`` is the one definition of the cocycle generator
families (at given points y), with ``sqrt_branch_values`` for the
square-root normalization.  ``cocycle.generator_values`` evaluates every
generator through them, and so does the kernel, but for the jonquieres
row update, which holds only the one entry that depends on y, y or y^2,
as a per-trajectory constant times a per-step factor.  This module
imports nothing from the package but its lazy NumPy binding,
``_lazy.np``.  ``generator_bounds`` is the one closed-form bound on the
matrices the kernel multiplies: it sets both the renormalization interval
and ``cocycle``'s ``Overflow`` check.
"""

import cmath
import math

from ._lazy import np


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


def generator_entries(kind, alpha, rho, energy, potential, cmat, y, out):
    """Write entry (i, j) of the ``kind`` generator at the points ``y``
    into out[i, j]; ``out`` has shape (2, 2) + y.shape.

    ``rho`` is |y| (a scalar or an array that broadcasts against ``y``);
    only btilde reads it, to pick its square-root branch.  ``cmat`` is the
    constant kind's (2, 2) matrix; the other kinds ignore it.
    """
    if kind == "constant":
        out[:] = np.reshape(cmat, (2, 2) + (1,) * y.ndim)
    elif kind == "btilde":
        # the jonquieres_b generator divided by the branch
        b = sqrt_branch_values(alpha, rho, y)
        np.divide(alpha, b, out=out[0, 0])
        np.divide(y * y, b, out=out[0, 1])
        np.divide(1.0, b, out=out[1, 0])
        out[1, 1] = out[1, 0]
    elif kind in ROW_POWER:
        out[0, 0] = alpha
        out[0, 1] = y if ROW_POWER[kind] == 1 else y * y
        out[1] = 1.0
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


# a pass of cocycle_sums runs up to this many columns (trajectories times
# chunks, and at least one chunk), and a block of generators holds this
# many 2x2 generators, 256 KB: BLOCK_ENTRIES column-steps of four entries,
# or four times as many of the jonquieres row update's one moving entry,
# each one complex multiply of a per-trajectory constant and a per-step
# factor
BLOCK_ENTRIES = 4096
# between two renormalizations a product's Frobenius norm stays inside
# [1e-150, 1e150], so the squared entries that make up the norm stay
# normal floats; ln 2 is room for the identity's norm, sqrt 2, and
# rounding.  k steps of growth at most b each fit when k b <= this, so a
# chunk renormalizes every 128 steps where b <= 2.69
LOG_NORM_RANGE = 150.0 * math.log(10.0) - math.log(2.0)


# the kinds whose products run as the row update, by the power w in their
# moving entry y^w (btilde's products are jonquieres_b products): det A =
# alpha - y^w
ROW_POWER = {"jonquieres_a": 1, "jonquieres_b": 2, "btilde": 2}


def generator_bounds(kind, alpha, rho, energy, potential, cmat):
    """Closed-form bounds, over every phase, on the matrices the kernel
    multiplies at each radius in ``rho``: ``(log_g, det)``, two arrays
    shaped like ``rho``, with G = exp(log_g) >= |A|_F and
    0 <= det <= |det A| (|alpha| = 1).  Per kind:

    * jonquieres_a, jonquieres_b and btilde (whose kernel products are
      jonquieres_b products), with w from ``ROW_POWER``:
      G^2 = 3 + rho^(2w), D = |1 - rho^w|;
    * schrodinger: G^2 = V^2 + 2 with V = |E| + |a0|
      + sum_k |a_k| (rho^k + rho^-k) / 2, D = 1;
    * diagonal_power: G^2 = rho^2 + rho^-2, D = 1;
    * constant: the matrix's own squared norm and determinant.

    log_g is 0.5 ln G^2 with ln G^2 summed in logs (``np.logaddexp``; ln 0
    is -inf, which adds nothing), so it is finite at every positive radius.
    D is a float, and may pass the float range, as inf.  No case warns.
    """
    rho = np.asarray(rho, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_rho = np.log(rho)
        det = 1.0
        if kind == "constant":
            c = np.asarray(cmat, dtype=np.complex128)
            log_g2 = np.logaddexp.reduce(2.0 * np.log(np.abs(c)), axis=None)
            det = abs(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
            if math.isnan(det):
                # both products overflowed (inf - inf): take them at a
                # power-of-two scale that keeps them finite
                scale = 2.0 ** -math.frexp(float(np.abs(c).max()))[1]
                m = c * scale
                det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) / scale / scale
        elif kind in ROW_POWER:
            w = ROW_POWER[kind]
            log_g2 = np.logaddexp(math.log(3.0), 2 * w * log_rho)
            det = np.abs(1.0 - rho**w)
        elif kind == "schrodinger":
            log_v = np.logaddexp.reduce(np.log(np.abs([energy, *potential[:1]])))
            for k, c in enumerate(potential[1:], start=1):
                log_v = np.logaddexp(log_v, np.log(abs(c) * 0.5)
                                     + np.logaddexp(k * log_rho, -k * log_rho))
            log_g2 = np.logaddexp(2.0 * log_v, math.log(2.0))
        elif kind == "diagonal_power":
            log_g2 = np.logaddexp(2.0 * log_rho, -2.0 * log_rho)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return (np.broadcast_to(0.5 * log_g2, rho.shape).copy(),
                np.broadcast_to(det, rho.shape).copy())


def renormalization_intervals(kind, alpha, rho, freq, energy, potential, cmat,
                              thetas, n):
    """Steps between renormalizations of each trajectory (a radius in
    ``rho`` and a starting phase in ``thetas``, run for n steps): the
    largest k in (1, 2, 4, ..., 128) with k * b <= LOG_NORM_RANGE.

    b bounds how far one step can move the log Frobenius norm of a
    product: a step multiplies it by at most |A|_F and at least
    sigma_min(A) >= |det A| / |A|_F, so b = max(ln G, ln(G / D)) with G
    and D from ``generator_bounds``.  At rho = 1, where det A = alpha - y^w
    vanishes somewhere on the circle and the closed form's D is 0, a
    jonquieres trajectory takes D from its own steps:
    ``unit_circle_det_bounds``, clamped at 0.

    k = 1 (every step renormalizes) where D = 0, where b is not finite,
    and where two steps could leave the range (jonquieres_b at
    rho = 1e75, G = 1e150); k = 128 where b <= 2.69 (jonquieres_b at
    rho < 0.93 and at 1.07 < rho < 3.8).  A trajectory's k depends only on
    its phase, radius, freq and n.
    """
    log_g, det = generator_bounds(kind, alpha, rho, energy, potential, cmat)
    on_circle = rho == 1.0
    if kind in ROW_POWER and on_circle.any():
        det[on_circle] = np.maximum(
            unit_circle_det_bounds(kind, alpha, thetas[on_circle], freq, n), 0.0
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        per_step = np.maximum(log_g, log_g - np.log(det))
    k = np.ones(per_step.shape, dtype=np.int64)
    for interval in (2, 4, 8, 16, 32, 64, 128):
        k[interval * per_step <= LOG_NORM_RANGE] = interval
    return k


# margin on the closed form of |alpha - y^w| on |y| = 1 below: the closed
# form and the generator entries alpha, y and y^w each round to a few 1e-16
UNIT_CIRCLE_MARGIN = 1e-12


def step_phases(steps, freq):
    """x_j = j freq mod 1 at the step indices ``steps`` (an integer array):
    step j of a trajectory that starts at phase theta is at the point
    y_j = rho e^(2 pi i theta) e^(2 pi i x_j), whichever chunk runs it."""
    x = steps * freq
    # x - floor(x) is np.mod(x, 1.0) to the bit, at a fifth of the cost
    x -= np.floor(x)
    return x


def unit_circle_det_bounds(kind, alpha, thetas, freq, n):
    """Lower bound, for each starting phase in ``thetas``, on |det A_j| over
    the steps j < n of a jonquieres trajectory at rho = 1.

    There det A_j = alpha - y_j^w, with w from ``ROW_POWER``,
    y_j = exp(2 pi i phi_j) and phi_j = theta + ``step_phases``.  With
    a = arg(alpha) / 2 pi,
    |alpha - y_j^w| >= 2 sqrt|alpha| |sin pi (w phi_j - a)|, which grows
    with the distance of w phi_j - a to the nearest integer; one pass over
    the steps, in blocks of the row update's 4 * BLOCK_ENTRIES phase-steps,
    takes the smallest distance (a minimum, so any block length gives the
    same bits).  UNIT_CIRCLE_MARGIN is subtracted, so a bound <= 0 means
    that y_j^w may equal alpha up to rounding.
    """
    w = ROW_POWER[kind]
    a = cmath.phase(alpha) / (2.0 * math.pi)
    nearest = np.full(len(thetas), 0.5)
    block = max(1, 4 * BLOCK_ENTRIES // max(1, len(thetas)))
    for start in range(0, n, block):
        x = thetas + step_phases(np.arange(start, min(n, start + block)), freq)[:, None]
        x *= w
        x -= a
        x -= np.rint(x)
        np.minimum(nearest, np.abs(x).min(axis=0), out=nearest)
    return 2.0 * math.sqrt(abs(alpha)) * np.sin(np.pi * nearest) - UNIT_CIRCLE_MARGIN


def _renormalize(p, a, s):
    """Divide each product in ``p`` (2, 2, ...) by its Frobenius norm and
    add the log of that norm to ``s`` (shaped like p[0, 0]); ``a`` is a
    real buffer of p's shape."""
    np.abs(p, out=a)
    a *= a
    nrm = np.sqrt(a[0, 0] + a[0, 1] + a[1, 0] + a[1, 1])
    s += np.log(nrm)
    # NumPy divides a complex by a real c as a product with 1 / c, so
    # this is p /= nrm to the bit, without the complex division
    p *= 1.0 / nrm


def _abs_det(p):
    """|det| of each 2x2 matrix in ``p`` (2, 2, ...)."""
    return np.abs(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])


# btilde's log-norm is -1/2 ln|det p| only where |det p| >= DET_FLOOR
# (|B~_n|_F <= 32): det p is a difference of products of entries of norm
# at most 1, each rounded in the product, so it errs by an absolute amount
# and -1/2 ln|det p| by that over |det p|.  Below the floor the
# determinant of a nearly rank-1 p cancels (to 0 at freq = 0.5 + 1e-11),
# and such trajectories sum their log-determinants directly
DET_FLOOR = 2.0**-10


# the part size is the threshold: cocycle_sums runs its batch in parts,
# one per usable CPU, none with fewer than FORK_STEPS // 2 trajectory-steps
# or 2 trajectories, so below FORK_STEPS trajectory-steps (m n) in one
# part, in process.  On a 2-CPU x86 host, in process, the split lost at
# 1.3e6 steps (64 trajectories at n = 2e4), tied at 9e5 (448 at n = 2000),
# won from 2.6e6 (128 at n = 2e4) and gained 30-40% from 5.1e6 up to the
# default accel grid's 1.5e8.  A benchmark accel op (192 trajectories,
# 3.8e6) gained in process but not in a fresh process, 0.21 s either way,
# so it stays below the threshold
FORK_STEPS = 4_000_000


def chunk_bounds(n):
    """Step boundaries of the chunks that ``cocycle_sums`` runs from the
    identity: [0, n // 2) and [n // 2, n) are each split evenly into
    min(8, length // 128) chunks, and a half shorter than 256 steps is one
    chunk.  So a chunk has at least 128 steps or is a whole half, n // 2
    is a boundary whenever n >= 2, and n = 2e4 runs 16 chunks of 1250."""
    half = n // 2
    bounds = [0]
    for lo, hi in ((0, half), (half, n)):
        if hi > lo:
            count = min(8, max(1, (hi - lo) // 128))
            bounds += [lo + (hi - lo) * i // count for i in range(1, count + 1)]
    return bounds


def cocycle_sums(kind, alpha, rho, freq, energy, potential, cmat, thetas, n):
    """Renormalized n-step products of the ``kind`` family (a name in
    ``cocycle.KINDS``), one trajectory per starting phase in ``thetas``.

    ``rho`` is a scalar or one radius per trajectory, so one call can carry
    several radii.  Returns ``(s_half, s_full, p_full)`` where the n-step
    product equals exp(s_full) * p_full with p_full Frobenius-normalized;
    s_half is the log-norm sum of the product of the first n // 2 steps.

    * Chunks.  By the cocycle property
      A_n(theta) = A_(n-t)(theta + t freq) A_t(theta), the run is cut into
      the step ranges of ``chunk_bounds(n)`` (n // 2 is always a boundary).
      Every chunk of every trajectory runs from the identity, side by side
      with the others as extra columns of one per-step loop
      (``chunk_products``), and the normalized chunk products are
      multiplied into a running product in step order, which renormalizes
      after each; s_half is its sum after the first half's chunks.
    * Passes.  A pass runs as many chunks as fit in BLOCK_ENTRIES = 4096
      columns (trajectories times chunks), and at least one, and is folded
      into the running product as soon as it ends.  So 192 trajectories at
      n = 2e4 run one pass of 1250 steps, and more than 4096 trajectories
      run one chunk per pass, n steps in all, with the work and memory of
      an unchunked loop.
    * Each trajectory's numbers depend only on its own phase, radius and
      n, so a batch of radii returns, bit for bit, what one call per radius
      returns: the chunks, where a chunk renormalizes and the fold order
      depend on n and the trajectory alone, the passes only decide which
      columns run side by side, and every operation is elementwise.
    * Processes.  The batch runs as contiguous parts, one per usable CPU
      but none with fewer than FORK_STEPS // 2 trajectory-steps, side by
      side in forked processes (``_fork.fork_map``), joined in input order:
      by the bullet above, with the bits of one process.  Below FORK_STEPS
      trajectory-steps that is one part, run in this process.
    * Step j's point is y_j = rho e^(2 pi i theta) e^(2 pi i x_j), with
      x_j from ``step_phases``.  So y_j^p (p = w from ``ROW_POWER``
      for the row-update kinds, else 1) is one complex multiply of a
      per-trajectory constant, (rho e^(2 pi i theta))^p, and one exp per
      chunk and step, e^(2 pi i p x_j), into a preallocated buffer.
    * jonquieres_a and jonquieres_b step as a row update: the generator is
      [[alpha, w], [1, 1]] with w = y^p, so row 0 <- alpha row 0 + w row 1
      and row 1 <- row 0 + row 1, with the 2x2 product's roundings, and a
      block holds the one moving entry for up to 4 * BLOCK_ENTRIES
      column-steps.  The other kinds fill all four entries (by
      ``generator_entries``) for blocks of at most BLOCK_ENTRIES
      column-steps and step by the 2x2 product.  A block is one step when a
      pass has more columns, so the per-step loop runs the step alone.
    * A chunk renormalizes every k of its own steps (k = 1, 2, 4, ...,
      128), counted from its start, and at its end, with k from
      ``renormalization_intervals``, which keeps every unnormalized stretch
      inside [1e-150, 1e150].  Trajectories are grouped by k, so after step
      c of a chunk the ones that renormalize (k divides c) are a prefix.
    * btilde runs as jonquieres_b: B~ = B / b with b^2 = alpha - y^2 =
      det A on either branch, so |prod_k b_k|^2 = |det B_n|.  With B_n =
      e^s p, |det B_n| = e^(2s) |det p| and |B~_n|_F = e^s / |prod_k b_k|
      = |det p|^(-1/2): btilde's s_half and s_full are -1/2 ln|det p| of
      the normalized running product at n // 2 (the identity's 1/2 where
      n // 2 = 0) and at n.  A trajectory whose |det p| falls below
      DET_FLOOR at either one takes jonquieres_b's s minus 1/4 of
      ``log_det_sums``, the direct sum of the log-determinants, instead.
      Its p is the jonquieres_b direction, the btilde p times the unit
      phase prod_k b_k / |b_k|, which ``cocycle.iterate`` divides out.
    """
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    m = len(thetas)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim == 0:
        rho = np.full(m, float(rho))
    elif rho.shape != (m,):
        raise ValueError(f"rho has shape {rho.shape}, want a scalar or ({m},)")
    # contiguous parts of the batch side by side, joined in input order; a
    # trajectory of n = 0 steps counts as one
    from ._fork import fork_map, ranges

    def part(r):
        return _batch_sums(kind, alpha, rho[r[0]:r[1]], freq, energy, potential,
                           cmat, thetas[r[0]:r[1]], n)

    parts = fork_map(part, ranges(m, max(2, math.ceil(FORK_STEPS / (2 * max(1, n))))))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _batch_sums(kind, alpha, rho, freq, energy, potential, cmat, thetas, n):
    """``cocycle_sums`` of one batch in this process: ``rho`` has one
    radius per phase in ``thetas``."""
    m = len(thetas)
    intervals = renormalization_intervals(kind, alpha, rho, freq, energy,
                                          potential, cmat, thetas, n)
    order = np.argsort(intervals, kind="stable")
    thetas, rho, intervals = thetas[order], rho[order], intervals[order]
    half = n // 2
    family = "jonquieres_b" if kind == "btilde" else kind
    # the running product, over the chunks folded in so far
    p = np.zeros((2, 2, m), dtype=np.complex128)
    p[0, 0] = p[1, 1] = 1.0
    s = np.zeros(m)
    s_half = np.full(m, 0.5 * np.log(2.0))
    # |det p| of the running product at n // 2, for btilde
    det_half = np.full(m, 0.5)
    bounds = chunk_bounds(n)
    chunks = list(zip(bounds[:-1], bounds[1:]))
    per_pass = max(1, BLOCK_ENTRIES // max(1, m))
    for first in range(0, len(chunks), per_pass):
        # longest first, as chunk_products wants them
        group = sorted(chunks[first:first + per_pass], key=lambda c: c[0] - c[1])
        chunk_p, chunk_s = chunk_products(
            family, alpha, rho, freq, energy, potential, cmat, thetas, intervals, group
        )
        # fold the pass in, in step order, with the step loop's product
        for i in sorted(range(len(group)), key=lambda i: group[i][0]):
            g = chunk_p[:, :, i]
            p = g[:, 0, None] * p[0] + g[:, 1, None] * p[1]
            s += chunk_s[i]
            _renormalize(p, np.empty(p.shape), s)
            if group[i][1] == half:
                s_half = s.copy()
                det_half = _abs_det(p)
    if kind == "btilde":
        dets = np.array([det_half, _abs_det(p)])
        with np.errstate(divide="ignore"):
            sums = -0.5 * np.log(dets)
        low = np.flatnonzero(dets.min(axis=0) < DET_FLOOR)
        if len(low):
            logs = log_det_sums(alpha, rho[low], freq, thetas[low], n)
            sums[:, low] = [s_half[low], s[low]] - 0.25 * np.array(logs)
        s_half, s = sums
    back = np.empty_like(order)
    back[order] = np.arange(m)
    return s_half[back], s[back], p[..., back].transpose(2, 0, 1)


def log_det_sums(alpha, rho, freq, thetas, n):
    """Sums of ln|alpha - y_j^2|^2 over the steps j < n // 2 and j < n of
    each trajectory (``thetas``, one radius each in ``rho``): ``(half,
    full)``, one log per trajectory-step, at the kernel's points
    y_j = rho e^(2 pi i (theta + x_j)), x_j from ``step_phases``.

    With a = arg(alpha) / 2 pi, |alpha - y^2|^2 =
    (|alpha| - rho^2)^2 + 4 |alpha| rho^2 sin^2(pi (2 phase - a)) has no
    cancellation near y^2 = alpha; the sine comes by angle addition, from
    pi (2 theta - a) once per trajectory and 2 pi x_j once per step.  Each
    term is added in step order to the running sum of its 128-step segment
    (counted from 0 and from n // 2), and the segments in step order, so
    the grouping is fixed by the step index, whatever the batch or block,
    and a batch returns, bit for bit, what one call per radius returns.
    """
    offset, scale = (abs(alpha) - rho * rho) ** 2, 4.0 * abs(alpha) * rho * rho
    u = np.pi * (2.0 * thetas - cmath.phase(alpha) / (2.0 * math.pi))
    sin_u, cos_u = np.sin(u), np.cos(u)
    m, half = len(thetas), n // 2
    block = max(1, min(128, 4 * BLOCK_ENTRIES // max(1, m)))
    terms = np.empty((2, block, m))
    segment, total, half_total = np.zeros((3, m))
    ends = sorted({*range(0, half, 128), *range(half, n, 128), n})
    for lo, hi in zip(ends[:-1], ends[1:]):
        segment[:] = 0.0
        for start in range(lo, hi, block):
            x = 2.0 * np.pi * step_phases(np.arange(start, min(hi, start + block)), freq)
            sine, tmp = terms[:, :len(x)]
            np.multiply(np.sin(x)[:, None], cos_u, out=sine)
            np.multiply(np.cos(x)[:, None], sin_u, out=tmp)
            sine += tmp
            sine *= sine
            sine *= scale
            sine += offset
            np.log(sine, out=sine)
            # one row at a time: np.add.accumulate over a short axis runs
            # one inner loop per column
            for row in sine:
                segment += row
        total += segment
        if hi == half:
            half_total[:] = total
    return half_total, total


def chunk_products(kind, alpha, rho, freq, energy, potential, cmat, thetas,
                   intervals, chunks):
    """The step ranges ``chunks`` [(lo, hi), ...], longest first, of every
    trajectory, each run from the identity and renormalized as
    ``cocycle_sums`` describes, side by side: one pass of its loop.

    The trajectories (``thetas``, ``rho``) come sorted by their
    renormalization ``intervals``.  Returns ``(p, s)``: exp(s[h]) p[:, :, h]
    is chunk h's product, with p[:, :, h] (shape (2, 2, m))
    Frobenius-normalized.
    """
    # the jonquieres products run as a row update, whose block holds y^power,
    # the others as a 2x2 product, whose block holds every entry, read from y
    row_step = kind in ROW_POWER
    power = ROW_POWER.get(kind, 1)
    # sorted by interval, the trajectories renormalized after c steps are a
    # prefix: those whose k divides c, that is k <= the largest power of 2
    # that divides c.  ends[i] is that prefix's length when that power is
    # 2^i (i <= 7)
    ends = np.searchsorted(intervals, [1 << i for i in range(8)], side="right").tolist()
    # y^power at step j: the trajectory's (rho e^(2 pi i theta))^power times
    # the step's e^(2 pi i power x), x = j freq mod 1
    start = rho * np.exp(2j * np.pi * thetas)
    if power == 2:
        start = start * start
    lo = np.array([chunk[0] for chunk in chunks])
    lengths = [hi - first for first, hi in chunks]
    c, m = len(lengths), len(rho)
    # p[i, j, h] is entry (i, j) of every trajectory's chunk h; since the
    # chunks come longest first, those still running are a prefix of h
    p = np.zeros((2, 2, c, m), dtype=np.complex128)
    p[0, 0] = p[1, 1] = 1.0
    # the step's scratch: one row in the row update, else a 2x2 product
    t = np.empty_like(p[0] if row_step else p)
    a = np.empty(p.shape)
    s = np.zeros((c, m))
    # a block holds BLOCK_ENTRIES generators: four entries per column-step,
    # or one, the moving entry, in the row update
    block = max(1, BLOCK_ENTRIES * (4 if row_step else 1) // max(1, c * m))
    ybuf = np.empty((block, c, m), dtype=np.complex128)
    if not row_step:
        g = np.empty((2, 2, block, c, m), dtype=np.complex128)
        q = np.empty_like(p)
    done, live = 0, c
    while live:
        # a block ends at every chunk end
        stop = min(done + block, lengths[live - 1])
        steps = stop - done
        # x = j freq mod 1 for every chunk and step of a full block
        x = step_phases(lo + np.arange(done, done + block)[:, None], freq)
        # one complex multiply per column-step, over the whole buffer: NumPy
        # rounds a one-element complex product without the fused
        # multiply-add of its array loop, and the buffer (block * c * m
        # entries) never holds just one, so a lone trajectory or any block
        # gets a batch's bits.  Which loops fuse is fixed by NumPy's CPU
        # dispatch level, so this, like the bits, holds per level
        np.multiply(np.exp(2j * np.pi * (power * x))[..., None], start, out=ybuf)
        y = ybuf[:steps, :live]
        if not row_step:
            gb = g[:, :, :steps, :live]
            generator_entries(kind, alpha, rho, energy, potential, cmat, y, gb)
            # column j of every generator, as (2, steps, live, m)
            col0, col1, qv = gb[:, 0], gb[:, 1], q[:, :, :live]
        pv, tv = p[:, :, :live], t[..., :live, :]
        row0, row1 = pv
        for j in range(steps):
            if row_step:
                # [[alpha, w], [1, 1]] p: row 0 <- alpha row 0 + w row 1 and
                # row 1 <- row 0 + row 1, each product rounded as the 2x2
                # product rounds it (generator entry first) at the same
                # NumPy dispatch level
                np.multiply(y[j], row1, out=tv)
                row1 += row0
                np.multiply(alpha, row0, out=row0)
                row0 += tv
            else:
                # q[i, l] = g[i, 0] * p[0, l] + g[i, 1] * p[1, l]
                np.multiply(col0[:, j, None], pv[0], out=qv)
                np.multiply(col1[:, j, None], pv[1], out=tv)
                qv += tv
                p, q, pv, qv = q, p, qv, pv
            count = done + j + 1
            running = live
            if count == lengths[live - 1]:
                # the chunks that end here renormalize in full, and both
                # buffers of the 2x2 product keep their product, which no
                # later step touches
                running = lengths.index(count)
                _renormalize(pv[:, :, running:], a[:, :, running:live], s[running:live])
                if not row_step:
                    q[:, :, running:live] = p[:, :, running:live]
            e = ends[min(7, (count & -count).bit_length() - 1)]
            if e and running:
                _renormalize(pv[:, :, :running, :e], a[:, :, :running, :e],
                             s[:running, :e])
        done, live = stop, running
    return p, s


def orbit_points(which, alpha, beta, x0, y0, n):
    """Iterate the map ``which`` ("f" or "g") n times from (x0, y0), x0
    None for infinity: each step is the projective action on x of the
    map's fiber matrix in the arithmetic of its one-step function,
    ``maps.apply_f`` or ``maps.InvertedSquareMap.apply``, so the orbits are
    theirs to the bit, and x is infinity where the denominator is an exact
    0.  Returns ``(u, finite, y, count)``: x = u where the boolean mask
    ``finite`` holds (u = 1 elsewhere); count < n + 1 only when an exact
    indeterminacy hit (numerator and denominator 0) truncated the orbit.
    """
    if which not in ("f", "g"):
        raise ValueError(f"unknown map {which!r}")
    u, ys = np.empty((2, n + 1), dtype=np.complex128)
    finite = np.empty(n + 1, dtype=bool)
    a, b, one = complex(alpha), complex(beta), 1.0 + 0j
    cu, fin = (one, False) if x0 is None else (complex(x0), True)
    cy = complex(y0)
    u[0], finite[0], ys[0] = cu, fin, cy
    count = n + 1
    # G's matrix constants; every product keeps its left-to-right order
    g, a1, ab, aa, bb = which == "g", a + 1.0, a + b, a * a, b * b
    for k in range(1, n + 1):
        if g:
            m00 = 1.0 + cy
            nu, nv = (m00 * cu + a1 * cy, ab * cu + (b + aa * cy)) if fin else (m00, ab)
            cy = cy / bb
        else:
            nu, nv = (a * cu + cy, one * cu + one) if fin else (a, one)
            cy = b * cy
        if nv != 0:
            cu, fin = nu / nv, True
        elif nu != 0:
            cu, fin = one, False
        else:
            count = k
            break
        u[k], finite[k], ys[k] = cu, fin, cy
    return u[:count], finite[:count], ys[:count], count
