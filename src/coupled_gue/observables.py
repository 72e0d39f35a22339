"""Scalar and matrix observables assembled from endpoint data.

Everything here is exact algebra per parameter point (no finite
differences): the hatted matrix variables, the quartet (X+, X-, Phi, G),
the first-order derivative matrices of r from the closed system

    D+ r          = -p(I+s)Theta qt - q Theta(I-s) pt - [s xi, r]
    (sigma) D- r  =  q Theta(I-s) pt - p(I+s) Theta qt - [xi, r]

(s the matrix sigma), and the full tower of derived scalars used by the
residual suite, through the final composite quantities that eliminate all
auxiliary variables.

Every function takes one point or a stack of them on a leading axis: the
2x2 matrices of `EndpointData` as (..., 2, 2) arrays and its params as (...)
arrays (`gram.endpoint_batch`), or (2, 2) matrices and floats at one point
(the Nystrom `scan`), and reads the point from the data's params.  Per-point
scalars scale the matrices as (..., 1, 1), matrices multiply by `@` and
entries read as [..., i, j], so a point's bits do not depend on the stack
it is in.  A square is `square(x)`, C's pow(x, 2), which Python's float ** 2
calls; numpy's ** 2 on arrays rounds x * x instead, which differs in the
last bit for about 1 in 1000 arguments.

Notation notes.  sigma denotes both the scalar (1-c)/(1+c) and the matrix
sigma*sigma_3; the code keeps them apart as `sig` and `sig_m`.  The sign
convention X_3 = -2 D+ r_3 = -2 D- r_t is the one forced by r_t = D+ T,
r_3 = D- T; both routes are cross-checked at runtime.

Theorem 1's U and W scale Tr U_hat and Tr W_hat by factors whose powers of
(1-c^2) cancel those of tau_{n+-1}/tau_n: one pair of constants per n, with
product 1/4, and none computed per coupling value (`_uw_scales`).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fredholm import SIGMA3, THETA, I2, EndpointData, diag2

__all__ = [
    "MatrixQuartet",
    "DerivedQuantities",
    "build_quartet",
    "build_derived",
    "tau_ratios",
    "hatted_vars",
    "r_derivatives",
    "a_matrix",
    "log_tau_n",
    "tau_ratio_consts",
    "final_composites",
    "theorem1_uw",
    "square",
]

# Relative disagreement between redundant routes that triggers a warning.
_XCHECK_TOL = 1e-7


@dataclass
class MatrixQuartet:
    X_plus: np.ndarray
    X_minus: np.ndarray
    Phi: np.ndarray
    G: np.ndarray


@dataclass
class DerivedQuantities:
    """Scalar observables at one parameter point, or (...) arrays over a stack.

    warnings holds the failed cross-checks, a list of messages at one point
    and one such list per point over a stack."""

    r_t: float
    r_3: float
    dp_r: np.ndarray      # D+ r (2x2, from the first-order system)
    dm_r: np.ndarray      # D- r
    dp_rt: float          # D+ r_t = D+^2 T
    dp_r3: float          # D+ r_3 = D+ D- T
    dm_rt: float          # D- r_t = D+ D- T
    dm_r3: float          # D- r_3 = D-^2 T
    A2: float
    D_plus: float         # D+ A^2
    D_minus: float        # D- A^2
    X_t: float
    X_3: float
    Phi_t: float
    Phi_3: float
    G_t: float
    G_3: float
    H_t: float
    H_3: float
    A_plus: float
    A_minus: float
    F_hat: float
    J: float
    R_t: float
    R_3: float
    sigma2: float
    DpX3: float           # D+ X_3 (exact, via Phi_3 + 2 sigma^2 D- A^2)
    DmX3: float           # D- X_3
    Xp_a2: float          # (X+)_a^2 as a scalar
    Xm_a2: float          # (X-)_a^2
    C_a: float            # sigma_3 [(X+)_a, (X-)_a] scalar part
    tr_U: float
    tr_W: float
    # final composites (exact route)
    F_t: float = 0.0
    F_3: float = 0.0
    Delta: float = 0.0
    J_plus: float = 0.0
    J_minus: float = 0.0
    J_A: float = 0.0
    P_x: float = 0.0
    P_t: float = 0.0
    P_3: float = 0.0
    P_plus: float = 0.0
    P_a: float = 0.0
    S_t: float = 0.0
    S_3: float = 0.0
    J_a: float = 0.0
    P_hat_A: float = 0.0
    I_a: float = 0.0
    warnings: list = field(default_factory=list)


SCALAR_FIELDS = [
    "r_t", "r_3", "dp_rt", "dp_r3", "dm_rt", "dm_r3", "A2", "D_plus", "D_minus",
    "X_t", "X_3", "Phi_t", "Phi_3", "G_t", "G_3", "H_t", "H_3", "A_plus",
    "A_minus", "F_hat", "J", "R_t", "R_3", "sigma2", "tr_U", "tr_W",
    "F_t", "F_3", "Delta", "J_plus", "J_minus", "J_A", "P_x", "P_t", "P_3",
    "P_plus", "P_a", "S_t", "S_3", "J_a", "P_hat_A", "I_a",
]


def square(x):
    """x ** 2 elementwise, rounded as Python's float ** 2 rounds it (C pow).

    A float (numpy's float64 is one) takes ** itself; on an array numpy's
    ** 2 would round x * x, so arrays take float_power."""
    return x ** 2 if isinstance(x, float) else np.float_power(x, 2.0)


def _m(x):
    """A value per point, (...) -> (..., 1, 1), to scale that point's 2x2 matrices."""
    return np.asarray(x)[..., None, None]


def hatted_vars(e: EndpointData):
    """q^, p^, qt^, pt^ of the reduced matrix system."""
    sig = e.params.sigma
    sig_m = _m(sig) * SIGMA3
    denom = _m(1.0 - sig * sig)
    q_hat = e.q @ THETA
    qt_hat = THETA @ e.qt
    p_hat = (I2 - sig_m) @ e.p @ (I2 + sig_m) / denom @ THETA
    pt_hat = THETA @ ((I2 - sig_m) @ e.pt @ (I2 + sig_m)) / denom
    return q_hat, p_hat, qt_hat, pt_hat


def a_matrix(r: np.ndarray, sig: float) -> np.ndarray:
    """Anti-diagonal matrix A = [sigma_3, r - [s, r]/2] / (1 - sigma^2)."""
    sig_m = _m(sig) * SIGMA3
    inner = r - 0.5 * (sig_m @ r - r @ sig_m)
    return (SIGMA3 @ inner - inner @ SIGMA3) / _m(1.0 - sig * sig)


def r_derivatives(e: EndpointData) -> tuple[np.ndarray, np.ndarray]:
    """(D+ r, D- r) from the first-order system; no finite differences."""
    p = e.params
    sig = p.sigma
    sig_m = _m(sig) * SIGMA3
    xi_m = diag2(p.xi1, p.xi2)
    t1 = e.p @ (I2 + sig_m) @ THETA @ e.qt
    t2 = e.q @ THETA @ (I2 - sig_m) @ e.pt
    sig_xi = sig_m @ xi_m
    dp_r = -t1 - t2 - (sig_xi @ e.r - e.r @ sig_xi)
    dm_r = (t2 - t1 - (xi_m @ e.r - e.r @ xi_m)) / _m(sig)
    return dp_r, dm_r


def build_quartet(e: EndpointData, hats: tuple | None = None) -> MatrixQuartet:
    """The quartet at e; hats = hatted_vars(e) when the caller has it."""
    q_hat, p_hat, qt_hat, pt_hat = hats or hatted_vars(e)
    qp = q_hat @ pt_hat
    pq = p_hat @ qt_hat
    phi = 2.0 * (p_hat @ e.U_hat @ pt_hat - q_hat @ e.W_hat @ qt_hat)
    g = 2.0 * (p_hat @ e.U_hat @ pt_hat + q_hat @ e.W_hat @ qt_hat)
    return MatrixQuartet(X_plus=qp + pq, X_minus=qp - pq, Phi=phi, G=g)


def _trace(m: np.ndarray):
    """np.trace of each 2x2 matrix, bit for bit: numpy's sum starts from
    +0.0, which turns a -0.0 + -0.0 diagonal into +0.0."""
    return 0.0 + m[..., 0, 0] + m[..., 1, 1]


def _tr3(m: np.ndarray):
    return m[..., 0, 0] - m[..., 1, 1]


def _anti_comm_trace(a: np.ndarray, b: np.ndarray):
    """tr{A_a, B_a} for anti-diagonal 2x2 matrices."""
    return 2.0 * (a[..., 0, 1] * b[..., 1, 0] + a[..., 1, 0] * b[..., 0, 1])


def final_composites(
    *, phi_t, phi_3, dp_a2, dm_a2, x_t, x_3, a2, f_hat, j, h_t, h_3, sigma2
) -> dict:
    """Final composite quantities; derivatives are passed in so the exact
    and finite-difference routes can share the assembly."""
    sq = square
    f_t = f_hat + 2.0 * a2
    f_3 = f_hat + 2.0 * sigma2 * a2
    delta = f_t * sq(h_t) - f_3 * sq(h_3)
    j_plus = 2.0 * sigma2 * (2.0 * sq(dp_a2) + a2 * j)
    j_minus = 2.0 * (2.0 * sigma2 * sq(dm_a2) + a2 * j)
    j_cross = dp_a2 * dm_a2 - 2.0 * x_3 * sq(a2)
    j_a_cap = 4.0 * sigma2 * j_cross
    p_x = phi_t * phi_3 - h_t * h_3 - 2.0 * x_3 * x_t * f_hat - j_a_cap
    p_t = sq(phi_t) - sq(h_t) - (2.0 * sq(x_3) + j) * f_hat - j_plus
    p_3 = sq(phi_3) - sq(h_3) - (2.0 * sq(x_3) + j) * f_hat - j_minus
    return {
        "F_t": f_t,
        "F_3": f_3,
        "Delta": delta,
        "J_plus": j_plus,
        "J_minus": j_minus,
        "J_A": j_a_cap,
        "P_x": p_x,
        "P_t": p_t,
        "P_3": p_3,
        "P_plus": f_t * p_t + f_3 * p_3,
        "P_a": sq(h_3) * p_t + sq(h_t) * p_3 - 2.0 * h_t * h_3 * p_x,
        "S_t": a2 * phi_t - f_hat * dp_a2,
        "S_3": a2 * phi_3 - f_hat * dm_a2,
        "J_a": h_3 * phi_t - h_t * phi_3,
        "P_hat_A": sq(h_3) * j_plus + sq(h_t) * j_minus + 8.0 * sigma2 * h_t * h_3 * j_cross,
        "I_a": j * (2.0 * (sq(dp_a2) + sigma2 * sq(dm_a2)) + a2 * j)
        + 16.0 * sigma2 * a2 * x_3 * (dp_a2 * dm_a2 - x_3 * sq(a2)),
    }


def _route_warnings(checks) -> list:
    """Per point, a message for each failed cross-check (name, value, other
    route, bound): a list at one point, a list of them over a 1-D stack."""
    shape = np.shape(checks[0][1])
    msgs = [[] for _ in range(math.prod(shape))]
    failed = [abs(a - b) > bound for _, a, b, bound in checks]
    if np.logical_or.reduce(failed, axis=None):
        for (name, a, b, _), bad in zip(checks, failed):
            a, b = np.ravel(a), np.ravel(b)
            for i in np.flatnonzero(bad):
                msgs[i].append(f"{name} routes disagree: {a[i]:.6e} vs {b[i]:.6e}")
    return msgs[0] if shape == () else msgs


def build_derived(e: EndpointData, q: MatrixQuartet) -> DerivedQuantities:
    p = e.params
    sig = p.sigma
    sigma2 = sig * sig
    xi_p = p.xi1 + p.xi2
    xi_m = p.xi1 - p.xi2

    r_t = _trace(e.r)
    r_3 = _tr3(e.r)
    dp_r, dm_r = r_derivatives(e)
    dp_rt = _trace(dp_r)
    dp_r3 = _tr3(dp_r)
    dm_rt = _trace(dm_r)
    dm_r3 = _tr3(dm_r)

    a_mat = a_matrix(e.r, sig)
    a_tilde = _m(sig) * a_mat
    a2 = a_mat[..., 0, 1] * a_mat[..., 1, 0]
    dp_a = a_matrix(dp_r, sig)
    dm_a = a_matrix(dm_r, sig)
    d_plus = dp_a[..., 0, 1] * a_mat[..., 1, 0] + a_mat[..., 0, 1] * dp_a[..., 1, 0]
    d_minus = dm_a[..., 0, 1] * a_mat[..., 1, 0] + a_mat[..., 0, 1] * dm_a[..., 1, 0]

    x_t = -2.0 * dp_rt - 2.0 * sigma2 * a2
    x_3 = -2.0 * dp_r3
    bound = _XCHECK_TOL * np.maximum(np.maximum(np.abs(x_t), np.abs(x_3)), 1e-30)
    checks = [("X_t", x_t, -2.0 * dm_r3 - 2.0 * a2, bound), ("X_3", x_3, -2.0 * dm_rt, bound)]

    phi_t = _trace(q.Phi)
    phi_3 = _tr3(q.Phi)
    xp_a = q.X_plus
    xm_a = q.X_minus
    a_plus = _anti_comm_trace(a_tilde, xp_a)
    a_minus = -_anti_comm_trace(a_mat, xm_a)
    h_t = 4.0 * r_t - 2.0 * xi_p * dp_rt + xi_m * x_3
    h_3 = 4.0 * r_3 - 2.0 * xi_m * dm_r3 + xi_p * x_3
    g_t = h_t + a_plus
    g_3 = h_3 + a_minus
    bound = _XCHECK_TOL * np.maximum(np.maximum(np.abs(g_t), np.abs(g_3)), 1e-30)
    checks += [("G_t", g_t, _trace(q.G), bound), ("G_3", g_3, _tr3(q.G), bound)]

    f_hat = x_t - 4.0 * p.n
    j_val = square(x_t) - square(x_3) - 4.0 * sigma2 * square(a2)

    return DerivedQuantities(
        r_t=r_t,
        r_3=r_3,
        dp_r=dp_r,
        dm_r=dm_r,
        dp_rt=dp_rt,
        dp_r3=dp_r3,
        dm_rt=dm_rt,
        dm_r3=dm_r3,
        A2=a2,
        D_plus=d_plus,
        D_minus=d_minus,
        X_t=x_t,
        X_3=x_3,
        Phi_t=phi_t,
        Phi_3=phi_3,
        G_t=g_t,
        G_3=g_3,
        H_t=h_t,
        H_3=h_3,
        A_plus=a_plus,
        A_minus=a_minus,
        F_hat=f_hat,
        J=j_val,
        R_t=4.0 * r_t - 2.0 * xi_p * dp_rt,
        R_3=4.0 * r_3 - 2.0 * xi_m * dm_r3,
        sigma2=sigma2,
        DpX3=phi_3 + 2.0 * sigma2 * d_minus,
        DmX3=phi_t + 2.0 * d_plus,
        Xp_a2=xp_a[..., 0, 1] * xp_a[..., 1, 0],
        Xm_a2=xm_a[..., 0, 1] * xm_a[..., 1, 0],
        C_a=xp_a[..., 0, 1] * xm_a[..., 1, 0] - xm_a[..., 0, 1] * xp_a[..., 1, 0],
        tr_U=_trace(e.U_hat),
        tr_W=_trace(e.W_hat),
        warnings=_route_warnings(checks),
        **final_composites(
            phi_t=phi_t, phi_3=phi_3, dp_a2=d_plus, dm_a2=d_minus,
            x_t=x_t, x_3=x_3, a2=a2, f_hat=f_hat, j=j_val, h_t=h_t, h_3=h_3,
            sigma2=sigma2,
        ),
    )


@functools.lru_cache(maxsize=4096)
def log_tau_n(n: int, c: float) -> float:
    """ln of the whole-domain two-matrix normalization integral (cached per (n, c))."""
    val = 0.5 * n * math.log(math.pi) - 0.5 * n * (n - 1) * math.log(2.0)
    val += sum(math.lgamma(j + 1) for j in range(1, n))
    val -= 0.5 * n * n * math.log1p(-c * c)
    return val


def tau_ratio_consts(n: int, c: float) -> tuple[float, float]:
    """Whole-domain ratios (tau_{n+1}/tau_n, tau_{n-1}/tau_n)."""
    up = math.exp(log_tau_n(n + 1, c) - log_tau_n(n, c))
    dn = math.exp(log_tau_n(n - 1, c) - log_tau_n(n, c))
    return up, dn


def tau_ratios(e: EndpointData) -> tuple[float, float]:
    """Restricted-integral ratios tau_{n+1}^J/tau_n^J and tau_{n-1}^J/tau_n^J,

    reconstructed from Tr U_hat = sqrt(2n) (tau_{n+1}^J/tau_{n+1}) / (tau_n^J/tau_n)
    and its W_hat counterpart."""
    root = math.sqrt(2.0 * e.params.n)
    up_c, dn_c = tau_ratio_consts(e.params.n, e.params.c)
    return _trace(e.U_hat) / root * up_c, _trace(e.W_hat) / root * dn_c


def _uw_scales(n: int) -> tuple[float, float]:
    """(f_U, f_W), the factors of Tr U_hat in U and of Tr W_hat in W.  The powers
    of (1-c^2) cancel: f_U = (1-c^2)^(n+1/2) (tau_{n+1}/tau_n) / sqrt(2n) =
    sqrt(pi) n! / (2^n sqrt(2n)) and f_W = 1 / (4 f_U) at every c.
    OverflowError where f_W is not a normal float, that is n >= 197."""
    log_fu = math.lgamma(n + 1) - n * math.log(2.0) + 0.5 * math.log(math.pi / (2.0 * n))
    fu = math.exp(log_fu) if log_fu < 709.0 else math.inf    # exp overflows from 709.78
    if 0.25 / fu < sys.float_info.min:
        raise OverflowError(f"theorem 1's U and W scales overflow a float at n={n}")
    return fu, 0.25 / fu


def theorem1_uw(e: EndpointData, hats: tuple | None = None) -> dict:
    """U, W of the Toda-side system and their exact first derivatives.

    U = U_n (1-c^2)^(n+1/2), W = W_n (1-c^2)^-(n-1/2); the derivative
    matrices come from D+- U_hat = qt^ (sigma_3) q^, D+- W_hat = -pt^ (sigma_3) p^;
    hats = hatted_vars(e) when the caller has it.  The factors of the traces
    are one pair of floats per n, f_U f_W = 1/4, none per coupling value."""
    fu, fw = _uw_scales(e.params.n)
    q_hat, p_hat, qt_hat, pt_hat = hats or hatted_vars(e)
    return {
        "U": fu * _trace(e.U_hat),
        "W": fw * _trace(e.W_hat),
        "DpU": fu * _trace(qt_hat @ q_hat),
        "DmU": fu * _trace(qt_hat @ SIGMA3 @ q_hat),
        "DpW": -fw * _trace(pt_hat @ p_hat),
        "DmW": -fw * _trace(pt_hat @ SIGMA3 @ p_hat),
    }
