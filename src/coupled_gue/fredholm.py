"""Nystrom discretization of the extended Hermite kernel on J1 (+) J2.

solve() produces ln P = ln det(I - K^J) through a pivoted LU factorization
with explicit sign tracking, the discrete resolvent, and enough cached grid
data to interpolate the resolvent kernel anywhere (Gauss nodes exclude the
ray endpoints, so endpoint values are always interpolated).

endpoint_data() evaluates the 2x2 endpoint matrices of the theory: the
resolvent values r and its partials, the functions q, p, q~, p~ obtained by
applying the resolvent to the scaled oscillator functions

    phi = (n/2)^(1/4) phi_n,     psi = (n/2)^(1/4) phi_{n-1},

the inner-product matrices u, w, and the combinations U_hat, W_hat.

Every kernel value comes from the block formulas of `kernel` applied to
oscillator rows evaluated once per call: the assembly evaluates the rows at
the 2m nodes; endpoint_data() evaluates them at the nodes and at (xi_1, xi_2),
with the derivative rows at (xi_1, xi_2), and builds each kernel row, column
and their x-derivatives once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .hermite import dphi_from_phi, phi_matrix
from .kernel import KernelParams, block_dx_from_rows, block_from_rows, kernel_k_max
from .quadrature import QuadratureGrid, ray_grid

__all__ = [
    "FredholmError",
    "FredholmSolution",
    "EndpointData",
    "solve",
    "resolvent_at",
    "endpoint_data",
]

SIGMA3 = np.diag([1.0, -1.0])
THETA = np.ones((2, 2))
I2 = np.eye(2)


class FredholmError(RuntimeError):
    """Numerical failure of the determinant computation (sign/singularity)."""

    def __init__(self, msg: str, cond: float = math.nan):
        super().__init__(msg)
        self.cond = cond


@dataclass
class FredholmSolution:
    """Discretized solve at one parameter point (immutable after build)."""

    params: KernelParams
    m: int
    grids: tuple[QuadratureGrid, QuadratureGrid]
    nodes: np.ndarray        # (2m,) quadrature nodes, ray 1 then ray 2
    weights: np.ndarray      # (2m,) positive weights
    blocks: np.ndarray       # (2m,) ray label, 1 or 2
    kmat: np.ndarray         # (2m, 2m) weight-symmetrized kernel
    log_prob: float          # ln det(I - kmat)
    sign: int
    cond: float              # 1-norm condition estimate of I - kmat
    r_disc: np.ndarray       # unsymmetrized resolvent values R(z_a, z_b)

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)


@dataclass
class EndpointData:
    """2x2 endpoint matrices at (xi_1, xi_2)."""

    params: KernelParams
    r: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray
    q: np.ndarray
    p: np.ndarray
    qt: np.ndarray
    pt: np.ndarray
    u: np.ndarray
    w: np.ndarray
    U_hat: np.ndarray
    W_hat: np.ndarray


def _ray_tables(nodes: np.ndarray, blocks: np.ndarray, pz: np.ndarray) -> list:
    """Per ray b = 1, 2: its mask, its nodes and its columns of the oscillator table pz.

    The columns are copied in C order: a boolean index on axis 1 returns a
    Fortran-ordered copy, which makes einsum sum in another order.
    """
    return [(mb, nodes[mb], np.compress(mb, pz, axis=1)) for mb in (blocks == 1, blocks == 2)]


def _assemble(p: KernelParams, nodes: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Unsymmetrized kernel matrix K_{blk(a),blk(b)}(z_a, z_b)."""
    size = nodes.size
    rays = _ray_tables(nodes, blocks, phi_matrix(kernel_k_max(p.n, p.c), nodes))
    kfull = np.empty((size, size))
    for bi, (ia, za, pa) in enumerate(rays, 1):
        for bj, (jb, zb, pb) in enumerate(rays, 1):
            kfull[np.ix_(ia, jb)] = block_from_rows(
                bi, bj, za[:, None], zb[None, :], pa[:, :, None], pb[:, None, :], p
            )
    return kfull


def solve(p: KernelParams, m: int = 64) -> FredholmSolution:
    """Solve the Nystrom system at parameter point p with m nodes per ray."""
    if m < 8:
        raise ValueError(f"m must be >= 8, got {m}")
    g1 = ray_grid(p.xi1, p.n, m)
    g2 = ray_grid(p.xi2, p.n, m)
    nodes = np.concatenate([g1.nodes, g2.nodes])
    weights = np.concatenate([g1.weights, g2.weights])
    blocks = np.concatenate([np.ones(m, dtype=int), 2 * np.ones(m, dtype=int)])

    kfull = _assemble(p, nodes, blocks)
    sw = np.sqrt(weights)
    kmat = sw[:, None] * kfull * sw[None, :]

    ident = np.eye(2 * m)
    mat = ident - kmat
    anorm = np.linalg.norm(mat, 1)
    lu, piv = sla.lu_factor(mat)
    diag = np.diag(lu)

    rcond, info = sla.lapack.dgecon(lu, anorm, norm="1")
    cond = math.inf if rcond == 0.0 else 1.0 / rcond

    if np.any(diag == 0.0):
        raise FredholmError("I - K is numerically singular", cond=cond)
    perm_sign = 1 if np.sum(piv != np.arange(2 * m)) % 2 == 0 else -1
    sign = perm_sign * (1 if np.prod(np.sign(diag)) > 0 else -1)
    if sign <= 0:
        raise FredholmError(
            f"det(I - K) has non-positive sign (cond ~ {cond:.3e})", cond=cond
        )
    log_prob = float(np.sum(np.log(np.abs(diag))))

    r_disc = sla.lu_solve((lu, piv), kmat) / (sw[:, None] * sw[None, :])

    return FredholmSolution(
        params=p,
        m=m,
        grids=(g1, g2),
        nodes=nodes,
        weights=weights,
        blocks=blocks,
        kmat=kmat,
        log_prob=log_prob,
        sign=sign,
        cond=cond,
        r_disc=r_disc,
    )


def _along_grid(p: KernelParams, rays: list, formula, i: int, j: int, x: float,
                ax: np.ndarray) -> np.ndarray:
    """formula(i, j, x, z_b, ax, rows at z_b) over the grid, the block index 0 set to blk(b).

    formula is block_from_rows or block_dx_from_rows, ax its rows at x, and
    rays the per-ray tables of _ray_tables.  j = 0 gives the row
    K_{i,blk(b)}(x, z_b).  i = 0 gives K_{blk(b),j}(x, z_b), which is the column
    K_{blk(b),j}(z_b, x) because every block is symmetric in its two arguments.
    """
    out = np.empty(rays[0][0].size)
    for b, (mb, zb, pb) in enumerate(rays, 1):
        out[mb] = formula(i or b, j or b, x, zb, ax, pb, p)
    return out


def _grid_tables(sol: FredholmSolution, points) -> tuple[np.ndarray, list, np.ndarray]:
    """Oscillator rows phi_0..phi_K at the nodes, split per ray, and at the points."""
    k_max = kernel_k_max(sol.params.n, sol.params.c)
    pz = phi_matrix(k_max, sol.nodes)
    rays = _ray_tables(sol.nodes, sol.blocks, pz)
    return pz, rays, phi_matrix(k_max, np.asarray(points, dtype=float))


def resolvent_at(sol: FredholmSolution, i: int, j: int, x: float, y: float) -> float:
    """Nystrom interpolation of the resolvent kernel R_ij(x, y)."""
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"block indices must be 1 or 2, got ({i}, {j})")
    _, rays, pxy = _grid_tables(sol, [x, y])
    krow = _along_grid(sol.params, rays, block_from_rows, i, 0, x, pxy[:, 0])
    kcol = _along_grid(sol.params, rays, block_from_rows, 0, j, y, pxy[:, 1])
    rrow = krow + (krow * sol.weights) @ sol.r_disc  # R = K + K W R
    kxy = block_from_rows(i, j, x, y, pxy[:, 0], pxy[:, 1], sol.params)
    return float(kxy + (rrow * sol.weights) @ kcol)


def endpoint_data(sol: FredholmSolution) -> EndpointData:
    p = sol.params
    n = p.n
    xi = (p.xi1, p.xi2)
    scale = (n / 2.0) ** 0.25

    pz, rays, pxi = _grid_tables(sol, xi)
    dpxi = dphi_from_phi(pxi, np.asarray(xi))
    phi_g = scale * pz[n]          # phi at the grid nodes
    psi_g = scale * pz[n - 1]      # psi at the grid nodes
    phi_xi = scale * pxi[n]
    psi_xi = scale * pxi[n - 1]

    wts = sol.weights
    masks = [mb for mb, _, _ in rays]

    # On-grid Q, P (columns j = 1, 2):  Q_.j(z_a) = delta phi + int R phi
    q_grid = np.zeros((sol.nodes.size, 2))
    p_grid = np.zeros((sol.nodes.size, 2))
    for j in range(2):
        mj = masks[j]
        q_grid[:, j] = mj * phi_g + sol.r_disc[:, mj] @ (wts[mj] * phi_g[mj])
        p_grid[:, j] = mj * psi_g + sol.r_disc[:, mj] @ (wts[mj] * psi_g[mj])

    # Kernel rows K_{i,.}(xi_i, .), columns K_{.,j}(., xi_j) and their
    # derivatives; d/dy K_{.,j}(z, y) = (d/dx K_{.,j})(y, z) by symmetry.
    krow, kcol, dkrow, dkcol = [], [], [], []
    for k in range(2):
        a, da = pxi[:, k], dpxi[:, k]
        krow.append(_along_grid(p, rays, block_from_rows, k + 1, 0, xi[k], a))
        kcol.append(_along_grid(p, rays, block_from_rows, 0, k + 1, xi[k], a))
        dkrow.append(_along_grid(p, rays, block_dx_from_rows, k + 1, 0, xi[k], da))
        dkcol.append(_along_grid(p, rays, block_dx_from_rows, 0, k + 1, xi[k], da))
    rrow = [kr + (kr * wts) @ sol.r_disc for kr in krow]    # R = K + K W R
    rcol = [kc + sol.r_disc @ (wts * kc) for kc in kcol]    # R = K + R W K

    qm = np.zeros((2, 2))
    pmx = np.zeros((2, 2))
    qt = np.zeros((2, 2))
    ptm = np.zeros((2, 2))
    um = np.zeros((2, 2))
    wm = np.zeros((2, 2))
    rm = np.zeros((2, 2))
    rxm = np.zeros((2, 2))
    rym = np.zeros((2, 2))

    for i in range(2):
        for j in range(2):
            mj = masks[j]
            mi = masks[i]
            delta = 1.0 if i == j else 0.0
            qm[i, j] = delta * phi_xi[i] + (rrow[i][mj] * wts[mj]) @ phi_g[mj]
            pmx[i, j] = delta * psi_xi[i] + (rrow[i][mj] * wts[mj]) @ psi_g[mj]
            qt[i, j] = delta * phi_xi[j] + (wts[mi] * phi_g[mi]) @ rcol[j][mi]
            ptm[i, j] = delta * psi_xi[j] + (wts[mi] * psi_g[mi]) @ rcol[j][mi]
            um[i, j] = (wts[mi] * phi_g[mi]) @ q_grid[mi, j]
            wm[i, j] = (wts[mi] * psi_g[mi]) @ p_grid[mi, j]

            bi, bj = i + 1, j + 1
            kij = block_from_rows(bi, bj, xi[i], xi[j], pxi[:, i], pxi[:, j], p)
            rm[i, j] = kij + (rrow[i] * wts) @ kcol[j]
            kij_x = block_dx_from_rows(bi, bj, xi[i], xi[j], dpxi[:, i], pxi[:, j], p)
            rxm[i, j] = kij_x + (dkrow[i] * wts) @ rcol[j]
            kij_y = block_dx_from_rows(bi, bj, xi[j], xi[i], dpxi[:, j], pxi[:, i], p)
            rym[i, j] = kij_y + (rrow[i] * wts) @ dkcol[j]

    sig = p.sigma
    sig_m = sig * SIGMA3
    w_hatted = (I2 - sig_m) @ wm @ (I2 + sig_m) / (1.0 - sig * sig)
    u_hat = math.sqrt(n / 2.0) * THETA - THETA @ um @ THETA
    w_hat = math.sqrt(n / 2.0) * THETA + THETA @ w_hatted @ THETA

    return EndpointData(
        params=p,
        r=rm,
        r_x=rxm,
        r_y=rym,
        q=qm,
        p=pmx,
        qt=qt,
        pt=ptm,
        u=um,
        w=wm,
        U_hat=u_hat,
        W_hat=w_hat,
    )
