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
w = phi(xi_j), phi'(xi_j), G_j[:, n], G_j[:, n-1] (j = 1, 2) against M (in
the swapped order) and contracts each z_i with the same four vectors at
xi_i: r, r_x, r_y, q and p contract with phi(xi_i) or phi'(xi_i); q~, p~, u
and w contract with G_i[:, n] or G_i[:, n-1].  The identity part of
(I - K)^(-1) adds the delta_ij terms of q, p, q~, p~, u and w.

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
one by a prefix read, with the same numbers.  A table stores its four
endpoint vectors as one (k_max + 1, 4) block, the right-hand sides of
endpoint_data.  A batch builds the tables it reads: one per endpoint value,
at the tail of its widest coupling, and keeps none after.  So when one batch
holds every point of a `residuals` center, each endpoint's table is built
once.  A coupling whose tail is longer than MAX_TAIL raises TailError before
any table is built.

Points come in batches at one n, on a leading point axis (the stencil points
of `residuals`).  ray_tables() builds the tables of a batch's endpoints in
one call, stacked past the per-endpoint recurrences.  solve_batch() forms
the M of a batch as one stack per coupling value (one tail length), with the
T blocks as one stacked matmul, and endpoint_batch() contracts around the
solves with stacked matmuls.  The linear algebra is numpy.linalg on stacks,
which calls LAPACK once per matrix: solve_batch() reads every point's sign
and ln |det M| from one np.linalg.slogdet (after a finiteness check), and
endpoint_batch() solves each coupling's 8 right-hand sides per point with
one np.linalg.solve on the kept M.  So a point has the same bits alone and
in any batch, and the first failing point of a batch raises its
FredholmError.  solve() and endpoint_data() are batches of one.  The
condition estimate (dgecon on scipy's LU of M) is computed only when
GramSolution.cond is read, and on the paths that raise FredholmError; it is
the only use of scipy here, and it loads scipy.linalg when first run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fredholm import EndpointData, FredholmError, diag2, uw_hats
from .kernel import KernelParams

__all__ = ["TAIL_EPS", "MAX_TAIL", "TailError", "tail_length", "RayTable", "GramSolution",
           "ray_tables", "solve_batch", "solve", "endpoint_batch", "endpoint_data"]

# The K_12 tail stops once c^t / (1 - c) drops below this; |phi_k| < 1.
TAIL_EPS = 1e-18
# The longest tail a batch takes, so c < 0.99533 (0.995 takes 9326 terms,
# 0.999999 would take 5.5e7): each endpoint's table holds (n + 1) (n + t + 1)
# entries, and the recurrence runs n + t steps.
MAX_TAIL = 10_000

_LOG_PI_4 = 0.25 * math.log(math.pi)


def tail_length(c: float) -> int:
    """Smallest t with c^t < TAIL_EPS (1 - c); at least 1, as TAIL_EPS < 1."""
    return math.floor(math.log(TAIL_EPS * (1.0 - c)) / math.log(c)) + 1


class TailError(ValueError):
    """A coupling whose K_12 tail is longer than MAX_TAIL."""


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
        return self if k == self.v.shape[0] else RayTable(self.v[:k], self.h[:, :k])


def ray_tables(n: int, xis: list, k_max: int) -> list:
    """The tables at each endpoint of xis for a matrix size n; k_max >= n.

    The recurrences along k (phi_k, and the small-side diagonal) each run
    once, on a vector across the endpoints; phi_0 and erfc take math.exp
    and math.erfc per endpoint, since np.exp is not math.exp bit for bit.
    """
    x = np.array(xis, dtype=float)
    ks = np.arange(k_max, dtype=float)
    rec_a = np.sqrt(2.0 / (ks + 1.0))
    rec_b = np.sqrt(ks / (ks + 1.0)).tolist()
    phis = list(np.empty((k_max + 1, x.size)))     # phi_k at every endpoint
    phis[0][:] = [math.exp(-0.5 * xi * xi - _LOG_PI_4) for xi in xis]
    phis[1][:] = math.sqrt(2.0) * x * phis[0]
    axi = np.multiply.outer(rec_a, x)
    for k in range(1, k_max):
        np.subtract(axi[k] * phis[k], rec_b[k] * phis[k - 1], out=phis[k + 1])
    # small[k] = int_{-inf}^{-|xi|} phi_k^2; phi_k phi_{k+1} is odd
    sign = np.where(x <= 0.0, 1.0, -1.0)
    small = [np.array([0.5 * math.erfc(abs(xi)) for xi in xis])]
    for k in range(n):
        small.append(small[k] - sign * phis[k] * phis[k + 1] / math.sqrt(2.0 * (k + 1)))
    # endpoint-major and C-ordered from here, as the tables are read (a
    # matmul's BLAS path, and so its bits, can depend on operand layout)
    phi, small = (np.ascontiguousarray(np.array(a).T) for a in (phis, small))
    xi = x[:, None]
    lower = xi <= 0.0
    h_diag = np.where(lower, small, 1.0 - small)
    g_diag = np.where(lower, 1.0 - small, small)

    dphi = -xi * phi
    dphi[:, 1:] += np.sqrt(2.0 * np.arange(1, k_max + 1)) * phi[:, :-1]
    rows = np.arange(n + 1)
    den = 2.0 * (np.arange(k_max + 1)[None, :] - rows[:, None])
    den[rows, rows] = 1.0          # the Wronskian form holds off the diagonal only
    h = (phi[:, None, :] * dphi[:, :n + 1, None] - phi[:, :n + 1, None] * dphi[:, None, :]) / den
    h[:, rows, rows] = h_diag
    v = np.empty((len(xis), k_max + 1, 4))
    v[..., 0], v[..., 1], v[..., 2], v[..., 3] = phi, dphi, -h[:, n], -h[:, n - 1]
    v[:, n, 2], v[:, n - 1, 3] = g_diag[:, n], g_diag[:, n - 1]
    return [RayTable(vi, hi) for vi, hi in zip(v, h)]


def _cond(mat: np.ndarray) -> float:
    """1-norm condition estimate of mat: LAPACK dgecon on its dgetrf factors.

    scipy.linalg is imported here, so a run that reads no condition number
    never loads it.
    """
    import scipy.linalg as sla

    getrf, gecon = sla.get_lapack_funcs(("getrf", "gecon"), dtype=np.float64)
    rcond, _ = gecon(getrf(mat)[0], np.linalg.norm(mat, 1), norm="1")
    return math.inf if rcond == 0.0 else 1.0 / rcond


@dataclass
class GramSolution:
    """M at one parameter point, its ln det, and the ray tables it was built from."""

    params: KernelParams
    rays: tuple          # (RayTable at xi_1, RayTable at xi_2), indices 0..n + t
    tail: np.ndarray     # (t + 1,) c^(l-n) for l = n..n + t
    mat: np.ndarray      # (2n, 2n) [[H_2, -C], [T, H_1]], for endpoint solves and cond
    log_prob: float      # ln det M; solve() raises unless 0 < det M <= 1

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)

    @cached_property
    def cond(self) -> float:
        """1-norm condition estimate of M, computed when first read."""
        return _cond(self.mat)


def solve_batch(ps: list) -> list:
    """M and ln det M at each point of ps (one n), in the order of ps.

    The batch builds the tables of its endpoints in one ray_tables call, at
    the tail of its widest coupling, and each coupling reads their prefix;
    a tail longer than MAX_TAIL raises TailError first.  M is one stack per
    coupling value, whose T blocks are one stacked matmul.  The signs and
    ln |det M| come from one np.linalg.slogdet on the stack of every M,
    which factors each M alone, so a point's bits do not depend on the
    batch.  Points at more than one n, or a non-finite M, raise ValueError,
    and otherwise the first point of ps that fails raises its FredholmError.
    """
    n = ps[0].n
    if any(p.n != n for p in ps):
        raise ValueError(f"a batch is at one n, got n={sorted({p.n for p in ps})}")
    groups: dict = {}
    for i, p in enumerate(ps):
        groups.setdefault(p.c, []).append(i)
    c_max = max(groups, key=tail_length)
    t_max = tail_length(c_max)
    if t_max > MAX_TAIL:
        raise TailError(f"c={c_max} needs a K_12 tail of {t_max} terms, "
                        f"more than the {MAX_TAIL} a batch takes")
    xis = list(dict.fromkeys(xi for p in ps for xi in (p.xi1, p.xi2)))
    tables = dict(zip(xis, ray_tables(n, xis, n + t_max)))
    mats, rays, tails = ([None] * len(ps) for _ in range(3))
    for c, idx in groups.items():
        tail = c ** np.arange(tail_length(c) + 1.0)      # c^(l-n), l = n..n + t
        k_max = n + tail.size - 1
        ray = [(tables[ps[i].xi1].prefix(k_max), tables[ps[i].xi2].prefix(k_max)) for i in idx]
        h1 = np.stack([r1.h[:n] for r1, _ in ray])
        h2 = np.stack([r2.h[:n] for _, r2 in ray])
        # M with both block rows and block columns swapped (the same determinant)
        mat = np.empty((len(idx), 2 * n, 2 * n))
        mat[:, :n, :n] = h2[:, :, :n]
        mat[:, :n, n:] = 0.0
        lo = np.arange(n)
        mat[:, lo, n + lo] = -(c ** (n - np.arange(n, dtype=float)))
        mat[:, n:, :n] = (h1[:, :, n:] * tail) @ h2[:, :, n:].transpose(0, 2, 1)
        mat[:, n:, n:] = h1[:, :, :n]
        for j, i in enumerate(idx):
            mats[i], rays[i], tails[i] = mat[j], ray[j], tail

    stack = np.stack(mats)
    if not np.isfinite(stack).all():
        raise ValueError("array must not contain infs or NaNs")
    signs, log_dets = np.linalg.slogdet(stack)
    sols = []
    for p, ray, tail, mat, sign, log_prob in zip(
            ps, rays, tails, mats, signs.tolist(), log_dets.tolist()):
        if sign == 0.0:                   # a pivot is exactly zero
            raise FredholmError("M is numerically singular", cond=_cond(mat))
        if sign < 0.0:
            cond = _cond(mat)
            raise FredholmError(f"det M has non-positive sign (cond ~ {cond:.3e})", cond=cond)
        if log_prob > 0.0:
            cond = _cond(mat)
            raise FredholmError(
                f"ln det M = {log_prob:.6g} > 0, a probability above 1 (cond ~ {cond:.3e})",
                cond=cond)
        sols.append(GramSolution(p, ray, tail, mat, log_prob))
    return sols


def solve(p: KernelParams) -> GramSolution:
    """M and ln det M at p, as a batch of one."""
    return solve_batch([p])[0]


def endpoint_batch(sols: list) -> EndpointData:
    """The endpoint matrices at each solution's point (one n), stacked on a
    leading axis in the order of sols: each field is (len(sols), 2, 2), and
    params holds arrays of c, xi1 and xi2.

    Each coupling value (a tail length) solves the 8 right-hand sides of
    its points with one np.linalg.solve on their stacked M, which factors
    each M alone; the contractions around it are stacked matmuls.
    """
    n = sols[0].params.n
    s = (n / 2.0) ** 0.25
    x = np.empty((len(sols), 2, 4, 8))
    top = np.empty((len(sols), 2, 2, 4))    # rows n - 1 and n of v at xi_1 and xi_2
    groups: dict = {}
    for i, sol in enumerate(sols):
        groups.setdefault(sol.params.c, []).append(i)
    for idx in groups.values():
        g = [sols[i] for i in idx]
        e = g[0].tail[:, None]
        v1 = np.stack([sol.rays[0].v for sol in g])     # columns phi, phi', G[:, n], G[:, n-1]
        v2 = np.stack([sol.rays[1].v for sol in g])
        b1hi = -e * v2[:, n:]             # b_1[hi] of D b for b = e_2 (x) w; 0 for e_1

        # in the swapped order: block-2 equations and z_2[lo] first
        rhs = np.zeros((len(g), 2 * n, 8))
        rhs[:, :n, 4:] = v2[:, :n]
        rhs[:, n:, :4] = v1[:, :n]
        rhs[:, n:, 4:] = -np.stack([sol.rays[0].h[:n, n:] for sol in g]) @ b1hi
        z = np.linalg.solve(np.stack([sol.mat for sol in g]), rhs)
        z2lo, z1lo = z[:, :n], z[:, n:]
        h2hi = np.stack([sol.rays[1].h[:n, n:] for sol in g])
        z1hi = e * (h2hi.transpose(0, 2, 1) @ z2lo)
        z1hi[:, :, 4:] += b1hi

        # x[., i, a, j, b]: vector a at xi_i contracted with z_i for w = vector b at xi_j
        vt1, vt2 = v1.transpose(0, 2, 1), v2.transpose(0, 2, 1)
        x[idx, 0] = vt1[:, :, :n] @ z1lo + vt1[:, :, n:] @ z1hi
        x[idx, 1] = vt2[:, :, :n] @ z2lo
        top[idx, 0], top[idx, 1] = v1[:, n - 1:n + 1], v2[:, n - 1:n + 1]
    x = x.reshape(-1, 2, 4, 2, 4)
    phi_n = diag2(top[:, 0, 1, 0], top[:, 1, 1, 0])
    phi_m = diag2(top[:, 0, 0, 0], top[:, 1, 0, 0])

    um = s * s * (diag2(top[:, 0, 1, 2], top[:, 1, 1, 2]) + x[:, :, 2, :, 2])
    wm = s * s * (diag2(top[:, 0, 0, 3], top[:, 1, 0, 3]) + x[:, :, 3, :, 3])
    p = KernelParams(n, *(np.array([getattr(sol.params, a) for sol in sols])
                          for a in ("c", "xi1", "xi2")))
    u_hat, w_hat = uw_hats(n, p.sigma[:, None, None], um, wm)
    return EndpointData(
        params=p,
        r=x[:, :, 0, :, 0],
        r_x=x[:, :, 1, :, 0],
        r_y=x[:, :, 0, :, 1],
        q=s * (phi_n + x[:, :, 0, :, 2]),
        p=s * (phi_m + x[:, :, 0, :, 3]),
        qt=s * (phi_n + x[:, :, 2, :, 0]),
        pt=s * (phi_m + x[:, :, 3, :, 0]),
        u=um,
        w=wm,
        U_hat=u_hat,
        W_hat=w_hat,
    )


def endpoint_data(sol: GramSolution) -> EndpointData:
    """The 2x2 endpoint matrices at sol's point: point 0 of a batch of one."""
    return endpoint_batch([sol]).take(0, sol.params)
