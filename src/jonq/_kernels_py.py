"""The NumPy kernels: the two hot paths, renormalized cocycle products
batched over trajectories (each with its own phase and radius) and long
map orbits in projective x-coordinates.

``generators`` is the one definition of the cocycle generator families,
with ``sqrt_branch_values`` for the square-root normalization.  ``cocycle``
evaluates every generator through it, so this module imports nothing from
the package.
"""

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


def generators(kind, alpha, rho, energy, potential, cmat, phases, out=None):
    """Generator matrices at y = rho * exp(2 pi i phase): an (m, 2, 2)
    complex array for m phases.

    ``rho`` is a scalar or one radius per phase.  ``out``, when given, is a
    (2, 2, m) complex buffer that receives the entries component by
    component; the result is then a view of it.
    """
    phases = np.asarray(phases, dtype=np.float64)
    g = np.empty((2, 2, len(phases)), dtype=np.complex128) if out is None else out
    if kind == "constant":
        g[:] = np.reshape(cmat, (2, 2, 1))
        return g.transpose(2, 0, 1)
    y = rho * np.exp(2j * np.pi * phases)
    if kind in ("jonquieres_a", "jonquieres_b"):
        g[0, 0] = alpha
        g[0, 1] = y if kind == "jonquieres_a" else y * y
        g[1] = 1.0
    elif kind == "btilde":
        # the jonquieres_b generator divided by the branch
        b = sqrt_branch_values(alpha, rho, y)
        np.divide(alpha, b, out=g[0, 0])
        np.divide(y * y, b, out=g[0, 1])
        np.divide(1.0, b, out=g[1, 0])
        g[1, 1] = g[1, 0]
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
        g[0, 0] = energy - v
        g[0, 1] = -1.0
        g[1, 0] = 1.0
        g[1, 1] = 0.0
    elif kind == "diagonal_power":
        g[0, 0] = y
        g[0, 1] = 0.0
        g[1, 0] = 0.0
        g[1, 1] = 1.0 / y
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return g.transpose(2, 0, 1)


def cocycle_sums(kind, alpha, rho, freq, energy, potential, cmat, thetas, n):
    """Renormalized n-step products of the ``kind`` family (a name in
    ``cocycle.KINDS``), one trajectory per starting phase in ``thetas``.

    ``rho`` is a scalar or one radius per trajectory, so one call can carry
    several radii.  Returns ``(s_half, s_full, p_half, p_full)`` where the
    product equals exp(s) * p with p Frobenius-normalized; the *_half
    values are recorded at step n // 2.  Each trajectory's numbers depend
    only on its own phase and radius.
    """
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    m = len(thetas)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim == 0:
        rho = np.full(m, float(rho))
    elif rho.shape != (m,):
        raise ValueError(f"rho has shape {rho.shape}, want a scalar or ({m},)")
    half = n // 2
    # p[i, j] is entry (i, j) of every trajectory's product
    p = np.zeros((2, 2, m), dtype=np.complex128)
    p[0, 0] = 1.0
    p[1, 1] = 1.0
    q = np.empty_like(p)
    g = np.empty_like(p)
    t = np.empty((2, m), dtype=np.complex128)
    a = np.empty((4, m))
    s = np.zeros(m)
    log_sqrt2 = 0.5 * np.log(2.0)
    s_half = np.full(m, log_sqrt2)
    p_half = p / np.sqrt(2.0)
    for k in range(n):
        # x - floor(x) is np.mod(x, 1.0) to the bit, at a fifth of the cost
        phases = thetas + k * freq
        phases -= np.floor(phases)
        generators(kind, alpha, rho, energy, potential, cmat, phases, out=g)
        # row i of g @ p: g[i, 0] * p[0] + g[i, 1] * p[1]
        for i in range(2):
            np.multiply(g[i, 0], p[0], out=q[i])
            np.multiply(g[i, 1], p[1], out=t)
            q[i] += t
        p, q = q, p
        np.abs(p.reshape(4, m), out=a)
        a *= a
        nrm = np.sqrt(a[0] + a[1] + a[2] + a[3])
        s += np.log(nrm)
        # NumPy divides a complex by a real c as a product with 1 / c, so
        # this is p /= nrm to the bit, without the complex division
        p *= 1.0 / nrm
        if k + 1 == half:
            s_half = s.copy()
            p_half = p.copy()
    return s_half, s, p_half.transpose(2, 0, 1), p.transpose(2, 0, 1)


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
