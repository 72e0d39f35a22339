"""Nystrom discretization of the extended Hermite kernel on J1 (+) J2.

solve() produces ln P = ln det(I - K^J) through one pivoted LU factorization
of I - kmat, kmat = S K S with S = diag(sqrt w), with explicit sign tracking.
It keeps the LU factors and S, and nothing else of size (2m, 2m): the
discrete resolvent R = K + K W R is never formed.  Every resolvent value is a
solve against those factors, through

    I + R W = (I - K W)^-1 = S^-1 (I - kmat)^-1 S,

and its transpose for the rows R(x, z_b).  A solve that is never asked for a
resolvent value solves for no right-hand side.  resolvent_at() interpolates
the resolvent kernel anywhere (Gauss nodes exclude the ray endpoints, so
endpoint values are always interpolated) with one transposed solve.

endpoint_data() evaluates the 2x2 endpoint matrices of the theory: the
resolvent values r and its partials, the functions q, p, q~, p~ obtained by
applying the resolvent to the scaled oscillator functions

    phi = (n/2)^(1/4) phi_n,     psi = (n/2)^(1/4) phi_{n-1},

the inner-product matrices u, w, and the combinations U_hat, W_hat.  It
solves for 8 right-hand sides: q and p on the grid (4) and the resolvent
columns at xi_1, xi_2 (2) in one solve, and the rows (2) in one transposed
solve.

Every kernel value comes from the block formulas of `kernel` applied to
oscillator rows evaluated once per call: the assembly evaluates the rows at
the 2m nodes; endpoint_data() evaluates them at the nodes and at (xi_1, xi_2)
together, with the derivative rows at (xi_1, xi_2).  It builds each kernel
row, column and their x-derivatives once, along the grid extended by the two
endpoints, so the point values K_ij(xi_i, xi_j) and their partials come with
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .hermite import dphi_from_phi, phi_matrix
from .kernel import KernelParams, block_dx_from_rows, block_from_rows, kernel_k_max
from .quadrature import DEFAULT_M, ray_grid

__all__ = [
    "FredholmError",
    "FredholmSolution",
    "EndpointData",
    "uw_hats",
    "diag2",
    "solve",
    "resolvent_at",
    "endpoint_data",
]

SIGMA3 = np.diag([1.0, -1.0])
THETA = np.ones((2, 2))
I2 = np.eye(2)


def diag2(a, b) -> np.ndarray:
    """diag(a, b) at each point: arrays a, b of shape (...) give (..., 2, 2)."""
    d = np.zeros(np.shape(a) + (2, 2))
    d[..., 0, 0] = a
    d[..., 1, 1] = b
    return d


class FredholmError(RuntimeError):
    """Numerical failure of the determinant computation (sign, singularity, ln P > 0)."""

    def __init__(self, msg: str, cond: float = math.nan):
        super().__init__(msg)
        self.cond = cond


@dataclass
class FredholmSolution:
    """Discretized solve at one parameter point (immutable after build)."""

    params: KernelParams
    m: int
    nodes: np.ndarray        # (2m,) quadrature nodes, ray 1 then ray 2
    weights: np.ndarray      # (2m,) positive weights
    blocks: np.ndarray       # (2m,) ray label, 1 or 2
    sqrt_w: np.ndarray       # (2m,) square roots of the weights, S = diag(sqrt_w)
    lu: np.ndarray           # (2m, 2m) LU factors of I - kmat, kmat = S K S
    piv: np.ndarray          # (2m,) pivot indices of lu
    log_prob: float          # ln det(I - kmat); solve() raises unless 0 < det <= 1
    cond: float              # 1-norm condition estimate of I - kmat

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)


@dataclass
class EndpointData:
    """2x2 endpoint matrices at (xi_1, xi_2): (2, 2) arrays at one point, or
    (..., 2, 2) stacks whose params hold (...) arrays of c, xi1 and xi2."""

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

    def take(self, i, params: KernelParams) -> "EndpointData":
        """Point i of a stack, with that point's params."""
        return EndpointData(params, *(getattr(self, f.name)[i] for f in fields(self)[1:]))


def uw_hats(n: int, sig, u, w) -> tuple:
    """(U_hat, W_hat) from u and w, at one point or on a stack; sig is sigma,
    shaped to broadcast against the (..., 2, 2) matrices."""
    sig_m = sig * SIGMA3
    w_hatted = (I2 - sig_m) @ w @ (I2 + sig_m) / (1.0 - sig * sig)
    return (math.sqrt(n / 2.0) * THETA - THETA @ u @ THETA,
            math.sqrt(n / 2.0) * THETA + THETA @ w_hatted @ THETA)


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


def solve(p: KernelParams, m: int = DEFAULT_M) -> FredholmSolution:
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

    import scipy.linalg as sla       # loaded by the Nystrom route only

    mat = np.eye(2 * m) - kmat
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
    if log_prob > 0.0:
        raise FredholmError(
            f"ln det(I - K) = {log_prob:.6g} > 0, a probability above 1 "
            f"(cond ~ {cond:.3e})", cond=cond
        )

    return FredholmSolution(
        params=p,
        m=m,
        nodes=nodes,
        weights=weights,
        blocks=blocks,
        sqrt_w=sw,
        lu=lu,
        piv=piv,
        log_prob=log_prob,
        cond=cond,
    )


def _resolve(sol: FredholmSolution, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """(I + R W) rhs, or with trans=1 (I + W R)^T rhs, from the LU factors.

    R = K + K W R is the discrete resolvent, so I + R W = (I - K W)^-1 =
    S^-1 (I - kmat)^-1 S, and (I + W R)^T = S^-1 (I - kmat)^-T S.  rhs holds
    one right-hand side per column, shape (2m, k).
    """
    import scipy.linalg as sla

    sw = sol.sqrt_w[:, None]
    return sla.lu_solve((sol.lu, sol.piv), sw * rhs, trans=trans) / sw


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


def _grid_tables(sol: FredholmSolution, points, labels) -> tuple[np.ndarray, list]:
    """Oscillator rows phi_0..phi_K at the nodes then the points, and the per-ray tables.

    Each point joins the ray its label names, so a row or column that
    _along_grid builds from these tables holds, after its 2m grid values, the
    kernel values at the points.
    """
    z = np.concatenate([sol.nodes, points])
    pz = phi_matrix(kernel_k_max(sol.params.n, sol.params.c), z)
    return pz, _ray_tables(z, np.concatenate([sol.blocks, labels]), pz)


def resolvent_at(sol: FredholmSolution, i: int, j: int, x: float, y: float) -> float:
    """Nystrom interpolation of the resolvent kernel R_ij(x, y)."""
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"block indices must be 1 or 2, got ({i}, {j})")
    size = sol.nodes.size
    pz, rays = _grid_tables(sol, [x, y], [i, j])
    krow = _along_grid(sol.params, rays, block_from_rows, i, 0, x, pz[:, size])
    kcol = _along_grid(sol.params, rays, block_from_rows, 0, j, y, pz[:, size + 1])
    rrow = _resolve(sol, krow[:size, None], trans=1)[:, 0]  # R = K + K W R
    return float(krow[size + 1] + (rrow * sol.weights) @ kcol[:size])


def endpoint_data(sol: FredholmSolution) -> EndpointData:
    p = sol.params
    n = p.n
    xi = (p.xi1, p.xi2)
    scale = (n / 2.0) ** 0.25
    size = sol.nodes.size

    pz, rays = _grid_tables(sol, xi, [1, 2])
    pxi = pz[:, size:]
    dpxi = dphi_from_phi(pxi, np.asarray(xi))
    phi = scale * pz[n]            # phi at the nodes, then at (xi_1, xi_2)
    psi = scale * pz[n - 1]        # psi likewise
    phi_g, phi_xi = phi[:size], phi[size:]
    psi_g, psi_xi = psi[:size], psi[size:]

    wts = sol.weights
    masks = np.stack([sol.blocks == 1, sol.blocks == 2], axis=1)
    mphi = masks * phi_g[:, None]  # column j: phi on ray j, 0 elsewhere
    mpsi = masks * psi_g[:, None]
    wphi = wts[:, None] * mphi
    wpsi = wts[:, None] * mpsi

    # Kernel rows K_{i,.}(xi_i, .), columns K_{.,j}(., xi_j) and their
    # derivatives, each followed by its values at (xi_1, xi_2);
    # d/dy K_{.,j}(z, y) = (d/dx K_{.,j})(y, z) by symmetry.
    krow, kcol, dkrow, dkcol = (np.empty((2, size + 2)) for _ in range(4))
    for k in range(2):
        a, da = pxi[:, k], dpxi[:, k]
        krow[k] = _along_grid(p, rays, block_from_rows, k + 1, 0, xi[k], a)
        kcol[k] = _along_grid(p, rays, block_from_rows, 0, k + 1, xi[k], a)
        dkrow[k] = _along_grid(p, rays, block_dx_from_rows, k + 1, 0, xi[k], da)
        dkcol[k] = _along_grid(p, rays, block_dx_from_rows, 0, k + 1, xi[k], da)

    # (I + R W) applied to mask_j phi and mask_j psi gives Q_.j and P_.j on the
    # grid, applied to K_{.,j}(., xi_j) the column R_{.,j}(., xi_j) (R = K + R W K);
    # the transposed solve gives the rows R_{i,.}(xi_i, .) (R = K + K W R).
    solved = _resolve(sol, np.hstack([mphi, mpsi, kcol[:, :size].T]))
    q_grid, p_grid, rcol = solved[:, :2], solved[:, 2:4], solved[:, 4:]
    rrow_w = _resolve(sol, krow[:, :size].T, trans=1) * wts[:, None]

    qm = np.diag(phi_xi) + rrow_w.T @ mphi
    pmx = np.diag(psi_xi) + rrow_w.T @ mpsi
    qt = np.diag(phi_xi) + wphi.T @ rcol
    ptm = np.diag(psi_xi) + wpsi.T @ rcol
    um = wphi.T @ q_grid
    wm = wpsi.T @ p_grid
    rm = krow[:, size:] + rrow_w.T @ kcol[:, :size].T
    rxm = dkrow[:, size:] + (dkrow[:, :size] * wts) @ rcol
    rym = dkcol[:, size:].T + rrow_w.T @ dkcol[:, :size].T

    u_hat, w_hat = uw_hats(n, p.sigma, um, wm)

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
