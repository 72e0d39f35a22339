"""Scalar Hermite-kernel Fredholm machinery for a single GUE matrix.

Independent oracle path: it shares only the oscillator table `phi_matrix` and
the ray grid with the 2x2 block engine, and none of `kernel` or `fredholm`.
Its kernel is the direct partial sum K_n(x, y) = sum_{k<n} phi_k(x) phi_k(y),
one matrix product on the oscillator table, not the engine's
Christoffel-Darboux form.  Provides the largest-eigenvalue probability
det(I - K_n) on (xi, inf), endpoint scalars (resolvent value r, q, p and the
inner products u, w), and the Painleve IV combination those quantities
satisfy,

    (X')^2 - 2 X^2 (X - 4n) - G1^2 = 0,
    X = -2 r',   G1 = 4 (r - xi r'),

which is the one-matrix limit of the coupled third-order systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import phi_matrix
from .quadrature import DEFAULT_M, ray_grid

__all__ = ["OneMatrixData", "solve_one_matrix", "painleve_iv_residual"]


@dataclass
class OneMatrixData:
    n: int
    xi: float
    log_prob: float
    r: float        # R(xi, xi) = d/dxi ln P
    q: float
    p: float
    u: float
    w: float

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)


def solve_one_matrix(n: int, xi: float, m: int = DEFAULT_M) -> OneMatrixData:
    """Scalar Nystrom solve of det(I - K_n) on (xi, inf)."""
    import scipy.linalg as sla       # loaded by the oracle only
    grid = ray_grid(xi, n, m)
    z, wts = grid.nodes, grid.weights
    sw = np.sqrt(wts)
    # phi_0..phi_n at the nodes, then at xi; K_n on (z, xi) x (z, xi).
    pm = phi_matrix(n, np.append(z, xi))
    kall = pm[:n].T @ pm[:n]
    kmat = sw[:, None] * kall[:m, :m] * sw[None, :]
    mat = np.eye(m) - kmat
    lu, piv = sla.lu_factor(mat)
    diag = np.diag(lu)
    perm_sign = 1 if np.sum(piv != np.arange(m)) % 2 == 0 else -1
    if perm_sign * np.prod(np.sign(diag)) <= 0:
        raise RuntimeError("one-matrix determinant lost positivity")
    log_prob = float(np.sum(np.log(np.abs(diag))))
    r_disc = sla.lu_solve((lu, piv), kmat) / (sw[:, None] * sw[None, :])

    scale = (n / 2.0) ** 0.25
    phi_g, phi_xi = scale * pm[n, :m], scale * pm[n, m]
    psi_g, psi_xi = scale * pm[n - 1, :m], scale * pm[n - 1, m]

    # Resolvent row at the endpoint: R(xi, z_b) = K + K W R
    krow = kall[m, :m]
    rrow = krow + (krow * wts) @ r_disc
    r_val = float(kall[m, m] + (rrow * wts) @ krow)

    q_val = float(phi_xi + (rrow * wts) @ phi_g)
    p_val = float(psi_xi + (rrow * wts) @ psi_g)
    q_grid = phi_g + r_disc @ (wts * phi_g)
    p_grid = psi_g + r_disc @ (wts * psi_g)
    u_val = float((wts * phi_g) @ q_grid)
    w_val = float((wts * psi_g) @ p_grid)

    return OneMatrixData(
        n=n, xi=xi, log_prob=log_prob, r=r_val, q=q_val, p=p_val, u=u_val, w=w_val
    )


def painleve_iv_residual(n: int, xi: float, m: int = DEFAULT_M) -> tuple[float, float]:
    """Painleve IV combination for one-matrix GUE: (residual, scale).

    All derivatives come from the scalar first-order system:
        r'  = -2 p q
        q'  = -xi q + 2 p (b - u)
        p'  =  xi p - 2 q (b + w),      b = sqrt(n/2).
    """
    d = solve_one_matrix(n, xi, m)
    b = math.sqrt(n / 2.0)
    rp = -2.0 * d.p * d.q
    x_val = 4.0 * d.p * d.q
    xp = 8.0 * (d.p**2 * (b - d.u) - d.q**2 * (b + d.w))
    g1 = 4.0 * (d.r - xi * rp)
    terms = (xp**2, 2.0 * x_val**2 * (x_val - 4.0 * n), g1**2)
    residual = terms[0] - terms[1] - terms[2]
    scale = max(abs(t) for t in terms)
    return residual, scale
