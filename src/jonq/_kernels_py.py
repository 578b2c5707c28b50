"""The NumPy kernels: the two hot paths, renormalized cocycle products
batched over phase samples and long map orbits in projective
x-coordinates.

``generators`` is the one definition of the cocycle generator families,
with ``sqrt_branch_values`` for the square-root normalization.  ``cocycle``
evaluates every generator through it, so this module imports nothing from
the package.
"""

import numpy as np


def sqrt_branch_values(alpha, rho, y):
    """Closed-form continuous branch of sqrt(alpha - y^2) on |y| = rho != 1.

    For rho < 1, alpha - y^2 winds 0 times about the origin and the branch
    through sqrt(alpha) at y = 0 is used; for rho > 1 it winds twice and
    the branch is i y sqrt(1 - alpha / y^2).
    """
    if rho < 1.0:
        return np.sqrt(complex(alpha)) * np.sqrt(1.0 - y * y / alpha)
    return 1j * y * np.sqrt(1.0 - alpha / (y * y))


def generators(kind, alpha, rho, energy, potential, cmat, phases):
    """Generator matrices at y = rho * exp(2 pi i phase): an (m, 2, 2)
    complex array for m phases."""
    phases = np.asarray(phases, dtype=np.float64)
    g = np.empty((len(phases), 2, 2), dtype=np.complex128)
    if kind == "constant":
        g[:] = np.reshape(cmat, (2, 2))
        return g
    y = rho * np.exp(2j * np.pi * phases)
    if kind in ("jonquieres_a", "jonquieres_b", "btilde"):
        g[:, 0, 0] = alpha
        g[:, 0, 1] = y if kind == "jonquieres_a" else y * y
        g[:, 1, :] = 1.0
        if kind == "btilde":
            g /= sqrt_branch_values(alpha, rho, y)[:, None, None]
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
        g[:, 0, 0] = energy - v
        g[:, 0, 1] = -1.0
        g[:, 1, 0] = 1.0
        g[:, 1, 1] = 0.0
    elif kind == "diagonal_power":
        g[:, 0, 0] = y
        g[:, 0, 1] = 0.0
        g[:, 1, 0] = 0.0
        g[:, 1, 1] = 1.0 / y
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return g


def cocycle_sums(kind, alpha, rho, freq, energy, potential, cmat, thetas, n):
    """Renormalized n-step products of the ``kind`` family (a name in
    ``cocycle.KINDS``) for each starting phase.

    Returns ``(s_half, s_full, p_half, p_full)`` where the product equals
    exp(s) * p with p Frobenius-normalized; the *_half values are recorded
    at step n // 2.
    """
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    m = len(thetas)
    half = n // 2
    p = np.zeros((m, 2, 2), dtype=np.complex128)
    p[:, 0, 0] = 1.0
    p[:, 1, 1] = 1.0
    s = np.zeros(m)
    log_sqrt2 = 0.5 * np.log(2.0)
    s_half = np.full(m, log_sqrt2)
    p_half = p.copy() / np.sqrt(2.0)
    for k in range(n):
        g = generators(kind, alpha, rho, energy, potential, cmat,
                       np.mod(thetas + k * freq, 1.0))
        p = np.einsum("mij,mjk->mik", g, p)
        nrm = np.sqrt((np.abs(p) ** 2).sum(axis=(1, 2)))
        s += np.log(nrm)
        p /= nrm[:, None, None]
        if k + 1 == half:
            s_half = s.copy()
            p_half = p.copy()
    return s_half, s, p_half, p


def orbit_points(which, alpha, beta, x_num, x_den, y0, n):
    """Iterate the map ``which`` ("f", "g" or "f2") n times in projective
    x-coordinates (u : v).

    The pair is renormalized by the larger modulus each step, so a passage
    through infinity is an ordinary event.  Returns ``(u, v, y, count)``;
    count < n + 1 only when an exact indeterminacy hit (u = v = 0)
    truncated the orbit.
    """
    if which not in ("f", "g", "f2"):
        raise ValueError(f"unknown map {which!r}")
    u = np.empty(n + 1, dtype=np.complex128)
    v = np.empty(n + 1, dtype=np.complex128)
    ys = np.empty(n + 1, dtype=np.complex128)
    a = complex(alpha)
    b = complex(beta)
    cu, cv, cy = complex(x_num), complex(x_den), complex(y0)
    nm = max(abs(cu), abs(cv))
    if nm > 0:
        cu /= nm
        cv /= nm
    u[0], v[0], ys[0] = cu, cv, cy
    count = 1
    substeps = 2 if which == "f2" else 1
    for k in range(n):
        for _ in range(substeps):
            if which == "g":
                nu = (1.0 + cy) * cu + (a + 1.0) * cy * cv
                nv = (a + b) * cu + (b + a * a * cy) * cv
                ny = cy / (b * b)
            else:
                nu = a * cu + cy * cv
                nv = cu + cv
                ny = b * cy
            nm = max(abs(nu), abs(nv))
            if nm == 0.0:
                return u[:count], v[:count], ys[:count], count
            cu, cv, cy = nu / nm, nv / nm, ny
        u[count], v[count], ys[count] = cu, cv, cy
        count += 1
    return u, v, ys, count
