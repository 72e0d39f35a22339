"""Closed-form Gram route: ln P and the endpoint matrices from one 2n x 2n matrix.

Every block of the extended Hermite kernel is a diagonal sum over the
oscillator functions,

    K_ab(x, y) = sum_k phi_k(x) D_ab[k] phi_k(y),
    D_11 = D_22 = 1 (k < n),   D_21 = c^(n-k) (k < n),   D_12 = -c^(k-n) (k >= n),

so K = A B with B f = (int_{J_b} phi f_b)_b and A z = (phi^T sum_b D_ab z_b)_a,
on the rays J_a = (xi_a, inf).  By det(I - AB) = det(I - BA),

    det(I - K) = det(I - G D) = det(I - D G),    G = diag(G_1, G_2),

with the Gram matrices G_a[j, k] = int_{J_a} phi_j phi_k = delta_jk - H_a[j, k]
and H_a[j, k] = int_{-inf}^{xi_a} phi_j phi_k.  Write lo for the indices
k < n and hi for k >= n.  In I - D G the block-2 hi rows are identity rows,
and the block-1 hi rows are an identity pivot; one Schur step on it, and
then subtracting C times the block-1 lo rows from the block-2 lo rows, leaves

    P = det M,   M = [[H_1, T], [-C, H_2]]                 (2n x 2n)
    H_a = H_a[lo, lo],   C = diag(c^(n-k)),
    T = sum_{l >= n} c^(l-n) H_1[lo, l] H_2[lo, l]^T.

Every coefficient is at most 1, and no c^(-n) appears.  The tail sum stops at
l = n + t with c^t < TAIL_EPS (1 - c), as in the benchmark's reference.

solve() factors M with its block rows and block columns both swapped,
[[H_2, -C], [T, H_1]], which has the same determinant.  When either ray lies
far right of the spectral edge, T vanishes and partial pivoting keeps every
pivot inside an H block, so ln P has no c-dependent rounding in that
one-matrix limit.  (In the order of M the first block column holds H_1 and
-C, and a pivot taken from -C mixes c into ln P; a c-difference nested in
two endpoint differences, as in `avm`, amplifies that by 1/(h_c h_xi^2).)

The resolvent is R_ab(x, y) = phi(x)^T X_ab phi(y), X = (I - D G)^(-1) D, so
each endpoint matrix is a contraction of a solution z of (I - D G) z = D b.
For b = e_j (x) w the same elimination gives z_2[hi] = 0 and

    M [z_1[lo]; z_2[lo]] = [b_1[lo] - H_1[lo, hi] b_1[hi];  b_2[lo] - C b_1[lo]]
    z_1[l] = b_1[l] + c^(l-n) H_2[lo, l] . z_2[lo]          (l >= n)

with D b in place of b.  endpoint_data() solves for the 8 right-hand sides
w = phi(xi_j), phi'(xi_j), G_j[:, n], G_j[:, n-1] (j = 1, 2) against the one
LU (in the swapped order) and contracts each z_i with the same four vectors at xi_i: r, r_x,
r_y, q and p contract with phi(xi_i) or phi'(xi_i); q~, p~, u and w
contract with G_i[:, n] or G_i[:, n-1].  The identity part of (I - K)^(-1)
adds the delta_ij terms of q, p, q~, p~, u and w.

Per ray the tables are phi_k(xi) and phi_k'(xi) for k <= n + t, by a scalar
recurrence, and rows 0..n of H; the columns n and n-1 are those rows by
symmetry.  Off the diagonal the oscillator equation
phi_k'' = (x^2 - 2k - 1) phi_k gives the Wronskian form

    H[j, l] = (phi_l phi_j' - phi_j phi_l')(xi) / (2 (l - j)).

The diagonal takes the small side: h_k = int_{-inf}^{-|xi|} phi_k^2 runs from
h_0 = erfc(|xi|)/2 by h_{k+1} = h_k - phi_k phi_{k+1}(-|xi|) / sqrt(2(k+1)),
which adds positive terms only.  For xi <= 0 that is H[k, k], for xi > 0 it is
G[k, k] (phi_k^2 is even), and the other one is 1 minus it.  So the G rows
used for q~, p~, u and w never form 1 - H[k, k] where H[k, k] is close to 1.

No entry depends on t, so a table built for a longer tail serves a shorter
one by a prefix read, with the same numbers (RayTables).  A table stores its
four endpoint vectors as one (k_max + 1, 4) block, the right-hand sides of
endpoint_data.  Told the widest coupling a stencil reaches (RayTables.reach),
RayTables builds each endpoint's table once.

solve() calls LAPACK directly: dgetrf on M (after the finiteness check that
scipy's lu_factor makes), dgetrs for the 8 right-hand sides.  The condition
estimate (dgecon) is computed only when GramSolution.cond is read, and on
the paths that raise FredholmError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .fredholm import I2, SIGMA3, THETA, EndpointData, FredholmError
from .kernel import KernelParams

__all__ = ["TAIL_EPS", "tail_length", "RayTable", "RayTables", "GramSolution",
           "solve", "endpoint_data"]

# The K_12 tail stops once c^t / (1 - c) drops below this; |phi_k| < 1.
TAIL_EPS = 1e-18

_LOG_PI_4 = 0.25 * math.log(math.pi)


def tail_length(c: float) -> int:
    """Smallest t with c^t < TAIL_EPS (1 - c); at least 1, as TAIL_EPS < 1."""
    return math.floor(math.log(TAIL_EPS * (1.0 - c)) / math.log(c)) + 1


@dataclass(frozen=True)
class RayTable:
    """Closed-form tables at one ray endpoint xi, for oscillator indices 0..k_max."""

    v: np.ndarray   # (k_max + 1, 4) columns phi_k(xi), phi_k'(xi), G[k, n], G[k, n - 1]
    h: np.ndarray   # (n + 1, k_max + 1) rows 0..n of H

    @property
    def k_max(self) -> int:
        return self.v.shape[0] - 1

    def prefix(self, k_max: int) -> "RayTable":
        k = k_max + 1
        return RayTable(self.v[:k], self.h[:, :k])


# Recurrence coefficients sqrt(2/(k+1)) and sqrt(k/(k+1)) for k < len, and
# sqrt(2k) for k < _SQRT_2K.size; grown on demand, shared by every table.
_REC_A: list = []
_REC_B: list = []
_SQRT_2K = np.zeros(1)


def _coefficients(k_max: int) -> None:
    global _SQRT_2K
    for k in range(len(_REC_A), k_max):
        _REC_A.append(math.sqrt(2.0 / (k + 1)))
        _REC_B.append(math.sqrt(k / (k + 1.0)))
    if _SQRT_2K.size <= k_max:
        _SQRT_2K = np.sqrt(2.0 * np.arange(2 * k_max + 1))


def ray_table(n: int, xi: float, k_max: int) -> RayTable:
    """The tables at xi for a matrix size n; k_max >= n."""
    _coefficients(k_max)
    p0 = math.exp(-0.5 * xi * xi - _LOG_PI_4)
    p1 = math.sqrt(2.0) * xi * p0
    phi = [p0, p1]
    for a, b in zip(_REC_A[1:k_max], _REC_B[1:k_max]):
        p0, p1 = p1, a * xi * p1 - b * p0
        phi.append(p1)

    # small[k] = int_{-inf}^{-|xi|} phi_k^2; phi_k phi_{k+1} is odd
    sign = 1.0 if xi <= 0.0 else -1.0
    small = [0.5 * math.erfc(abs(xi))]
    for k in range(n):
        small.append(small[k] - sign * phi[k] * phi[k + 1] / math.sqrt(2.0 * (k + 1)))
    small = np.array(small)
    h_diag, g_diag = (small, 1.0 - small) if xi <= 0.0 else (1.0 - small, small)

    phi = np.array(phi)
    dphi = -xi * phi
    dphi[1:] += _SQRT_2K[1:k_max + 1] * phi[:-1]
    rows = np.arange(n + 1)
    den = 2.0 * (np.arange(k_max + 1)[None, :] - rows[:, None])
    den[rows, rows] = 1.0          # the Wronskian form holds off the diagonal only
    h = (phi[None, :] * dphi[:n + 1, None] - phi[:n + 1, None] * dphi[None, :]) / den
    h[rows, rows] = h_diag
    v = np.empty((k_max + 1, 4))
    v[:, 0], v[:, 1], v[:, 2], v[:, 3] = phi, dphi, -h[n], -h[n - 1]
    v[n, 2], v[n - 1, 3] = g_diag[n], g_diag[n - 1]
    return RayTable(v, h)


class RayTables:
    """Ray tables at one matrix size n, one per endpoint value.

    A table is built at the largest k_max asked for so far, and at least at
    the tail of the widest coupling announced by reach(); a smaller k_max
    reads its prefix, which holds the same numbers a fresh build would.
    """

    def __init__(self, n: int):
        self.n = n
        self.k_min = 0
        self._tables: dict = {}
        self._powers: dict = {}

    def reach(self, c: float) -> None:
        """Build every later table long enough for the K_12 tail at coupling c."""
        self.k_min = max(self.k_min, self.n + tail_length(c))

    def powers(self, c: float) -> tuple:
        """(c^(l-n) for l = n..n + t, -c^(n-k) for k < n) at c, computed once per c."""
        pw = self._powers.get(c)
        if pw is None:
            pw = self._powers[c] = (c ** np.arange(tail_length(c) + 1.0),
                                    -(c ** (self.n - np.arange(self.n, dtype=float))))
        return pw

    def get(self, xi: float, k_max: int) -> RayTable:
        tab = self._tables.get(xi)
        if tab is None or tab.k_max < k_max:
            tab = self._tables[xi] = ray_table(self.n, xi, max(k_max, self.k_min))
        return tab if tab.k_max == k_max else tab.prefix(k_max)


_getrf, _getrs, _gecon = sla.get_lapack_funcs(("getrf", "getrs", "gecon"), dtype=np.float64)


def _cond(mat: np.ndarray, lu: np.ndarray) -> float:
    """1-norm condition estimate of mat from its LU factors (LAPACK dgecon)."""
    rcond, _ = _gecon(lu, np.linalg.norm(mat, 1), norm="1")
    return math.inf if rcond == 0.0 else 1.0 / rcond


@dataclass
class GramSolution:
    """LU of M at one parameter point, with the ray tables it was built from."""

    params: KernelParams
    rays: tuple          # (RayTable at xi_1, RayTable at xi_2), indices 0..n + t
    tail: np.ndarray     # (t + 1,) c^(l-n) for l = n..n + t
    mat: np.ndarray      # (2n, 2n) [[H_2, -C], [T, H_1]], kept for cond
    lu: np.ndarray       # (2n, 2n) LU factors of mat
    piv: np.ndarray      # (2n,) pivot indices of lu
    log_prob: float      # ln det M; solve() raises unless 0 < det M <= 1

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)

    @cached_property
    def cond(self) -> float:
        """1-norm condition estimate of M, computed when first read."""
        return _cond(self.mat, self.lu)


def solve(p: KernelParams, tables: RayTables | None = None) -> GramSolution:
    """Factor M at p; the ray tables come from (and go to) `tables` when given."""
    n, c = p.n, p.c
    if tables is None:
        tables = RayTables(n)
    elif tables.n != n:
        raise ValueError(f"ray tables are for n={tables.n}, not n={n}")
    tail, minus_c = tables.powers(c)
    k_max = n + tail.size - 1
    rays = (tables.get(p.xi1, k_max), tables.get(p.xi2, k_max))
    h1, h2 = (r.h[:n] for r in rays)
    # M with both block rows and block columns swapped (the same determinant)
    mat = np.empty((2 * n, 2 * n))
    mat[:n, :n] = h2[:, :n]
    mat[:n, n:] = 0.0
    lo = np.arange(n)
    mat[lo, n + lo] = minus_c
    mat[n:, :n] = (h1[:, n:] * tail) @ h2[:, n:].T
    mat[n:, n:] = h1[:, :n]

    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = _getrf(mat)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    if info > 0:                      # a pivot is exactly zero
        raise FredholmError("M is numerically singular", cond=_cond(mat, lu))
    diag = lu.diagonal()
    # det M < 0 iff the row swaps and the negative pivots are odd in number
    if (np.count_nonzero(piv != np.arange(2 * n)) + np.count_nonzero(diag < 0.0)) % 2:
        cond = _cond(mat, lu)
        raise FredholmError(f"det M has non-positive sign (cond ~ {cond:.3e})", cond=cond)
    log_prob = float(np.log(np.abs(diag)).sum())
    if log_prob > 0.0:
        cond = _cond(mat, lu)
        raise FredholmError(
            f"ln det M = {log_prob:.6g} > 0, a probability above 1 (cond ~ {cond:.3e})",
            cond=cond)
    return GramSolution(p, rays, tail, mat, lu, piv, log_prob)


def _diag2(a: float, b: float) -> np.ndarray:
    return np.array([[a, 0.0], [0.0, b]])


def endpoint_data(sol: GramSolution) -> EndpointData:
    """The 2x2 endpoint matrices at sol's point, from 8 solves against its LU."""
    p = sol.params
    n = p.n
    s = (n / 2.0) ** 0.25
    r1, r2 = sol.rays
    e = sol.tail[:, None]
    v1, v2 = r1.v, r2.v                # columns phi, phi', G[:, n], G[:, n-1]
    b1hi = -e * v2[n:]                 # b_1[hi] of D b for b = e_2 (x) w; 0 for e_1

    # in the swapped order: block-2 equations and z_2[lo] first
    rhs = np.zeros((2 * n, 8), order="F")
    rhs[:n, 4:] = v2[:n]
    rhs[n:, :4] = v1[:n]
    rhs[n:, 4:] = -r1.h[:n, n:] @ b1hi
    z, _ = _getrs(sol.lu, sol.piv, rhs, overwrite_b=True)
    z2lo, z1lo = z[:n], z[n:]
    z1hi = e * (r2.h[:n, n:].T @ z2lo)
    z1hi[:, 4:] += b1hi

    # x[i, a, j, b]: vector a at xi_i contracted with z_i for w = vector b at xi_j
    x = np.stack([v1[:n].T @ z1lo + v1[n:].T @ z1hi, v2[:n].T @ z2lo])
    x = x.reshape(2, 4, 2, 4)
    phi_n = _diag2(v1[n, 0], v2[n, 0])
    phi_m = _diag2(v1[n - 1, 0], v2[n - 1, 0])

    um = s * s * (_diag2(v1[n, 2], v2[n, 2]) + x[:, 2, :, 2])
    wm = s * s * (_diag2(v1[n - 1, 3], v2[n - 1, 3]) + x[:, 3, :, 3])
    sig = p.sigma
    sig_m = sig * SIGMA3
    w_hatted = (I2 - sig_m) @ wm @ (I2 + sig_m) / (1.0 - sig * sig)
    return EndpointData(
        params=p,
        r=x[:, 0, :, 0],
        r_x=x[:, 1, :, 0],
        r_y=x[:, 0, :, 1],
        q=s * (phi_n + x[:, 0, :, 2]),
        p=s * (phi_m + x[:, 0, :, 3]),
        qt=s * (phi_n + x[:, 2, :, 0]),
        pt=s * (phi_m + x[:, 3, :, 0]),
        u=um,
        w=wm,
        U_hat=math.sqrt(n / 2.0) * THETA - THETA @ um @ THETA,
        W_hat=math.sqrt(n / 2.0) * THETA + THETA @ w_hatted @ THETA,
    )
