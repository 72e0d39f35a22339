"""The 2x2-block extended Hermite kernel, from precomputed oscillator rows.

Blocks, for coupling c in (0, 1) and matrix size n:

    K_11 = K_22 = sum_{k<n} phi_k(x) phi_k(y)          (Christoffel-Darboux)
    K_21       = sum_{k<n} c^(n-k) phi_k(x) phi_k(y)
    K_12       = -c^(-n) * sum_{k>=n} c^k phi_k(x) phi_k(y)

The infinite sum in K_12 is evaluated through the Mehler closed form

    sum_{k>=0} c^k phi_k(x) phi_k(y)
        = (pi (1-c^2))^(-1/2) exp[(4xyc - (x^2+y^2)(1+c^2)) / (2(1-c^2))]

minus the first n terms.  For very small c that subtraction loses all
precision against the c^(-n) prefactor, so below C_DIRECT the tail is summed
directly (a short geometric sum there).  `_coef` holds, per block, the
coefficients of the oscillator sum and the Mehler prefactor, so it alone
chooses the K_12 route.

`block_from_rows` and `block_dx_from_rows` hold the block formulas and their
x-derivatives.  They read the oscillator rows phi_0..phi_K at x and y, with
K = `kernel_k_max(n, c)`, so a caller that needs many blocks at the same
abscissae (the Nystrom matrix, the endpoint rows and columns) evaluates the
recurrence once.  `kernel_block` and `kernel_block_dx` evaluate the rows
themselves; they are the evaluation API for points and small arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import dphi_from_phi, phi_matrix

__all__ = [
    "KernelParams",
    "mehler_sum",
    "kernel_k_max",
    "block_from_rows",
    "block_dx_from_rows",
    "kernel_block",
    "kernel_block_dx",
]

# Below this coupling the K_12 tail is summed directly instead of via Mehler.
C_DIRECT = 0.05

# Arguments closer than this (relative) use the confluent form of the
# Christoffel-Darboux kernel.
_CONFLUENT_TOL = 1e-7


@dataclass(frozen=True)
class KernelParams:
    """One probability evaluation: size n, coupling c, endpoints (xi1, xi2).

    c, xi1 and xi2 may also be arrays of one shape, a stack of evaluations at
    one n (the params of a stacked `EndpointData`)."""

    n: int
    c: float
    xi1: float
    xi2: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not np.logical_and(0.0 < self.c, self.c < 1.0).all():
            raise ValueError(f"c must be in (0, 1), got {self.c}")
        if not (np.isfinite(self.xi1) & np.isfinite(self.xi2)).all():
            raise ValueError("endpoints must be finite")

    @property
    def sigma(self) -> float:
        """Scalar sigma = (1-c)/(1+c)."""
        return (1.0 - self.c) / (1.0 + self.c)

    @property
    def sigma2(self) -> float:
        return self.sigma**2


def mehler_sum(c: float, x, y):
    """Full geometric-weighted sum over all k >= 0 (Mehler closed form)."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one_m = 1.0 - c * c
    expo = (4.0 * x * y * c - (x * x + y * y) * (1.0 + c * c)) / (2.0 * one_m)
    out = np.exp(expo) / math.sqrt(math.pi * one_m)
    return float(out) if out.ndim == 0 else out


def _tail_terms(n: int, c: float) -> int:
    """Number of direct tail terms for truncation error below ~1e-20."""
    return n + max(8, int(math.ceil(-46.0 / math.log(c))))


def kernel_k_max(n: int, c: float) -> int:
    """Highest oscillator index the block formulas read at (n, c)."""
    k0, coef, _ = _coef(1, 2, n, c)
    return max(n, k0 + coef.size - 1)


def _weighted_sum(coef: np.ndarray, k0: int, ax: np.ndarray, py: np.ndarray):
    """sum_k coef_{k-k0} a_k(x) phi_k(y) over k = k0 .. k0 + len(coef) - 1."""
    k1 = k0 + coef.size
    return np.einsum("k,k...,k...->...", coef, ax[k0:k1], py[k0:k1])


def _coef(i: int, j: int, n: int, c: float):
    """Block (i, j) as sum_k coef_{k-k0} phi_k(x) phi_k(y) - mehler * Mehler(x, y).

    Returns (k0, coef, mehler); mehler is None except on the Mehler route of
    K_12.  This is the one place the K_12 route is chosen:

        K_11 = K_22:   k0 = 0, coef = 1                       (k < n)
        K_21:          k0 = 0, coef = c^(n-k)                  (k < n)
        K_12, c <  C_DIRECT:  k0 = n, coef = -c^(k-n)  (k = n .. _tail_terms)
        K_12, c >= C_DIRECT:  k0 = 0, coef = c^(k-n)   (k < n), mehler = c^(-n)
    """
    if i == j:
        return 0, np.ones(n), None
    if i == 2:
        return 0, c ** (float(n) - np.arange(n)), None
    if c < C_DIRECT:
        ks = np.arange(n, _tail_terms(n, c) + 1)
        return n, -(c ** (ks - n)), None
    return 0, c ** (np.arange(n) - float(n)), c ** (-n)


def _christoffel_darboux(n: int, x, y, px, py):
    """sum_{k<n} phi_k(x) phi_k(y) in Christoffel-Darboux form.

    The confluent x = y limit is n phi_{n-1}^2 - sqrt(n(n-1)) phi_{n-2} phi_n;
    a narrow band around the diagonal falls back to the direct partial sum,
    which is exact and free of cancellation.
    """
    b = math.sqrt(n / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cd = b * (px[n] * py[n - 1] - px[n - 1] * py[n]) / (x - y)
    near = np.abs(x - y) < _CONFLUENT_TOL * (1.0 + np.abs(x) + np.abs(y))
    if np.any(near):
        direct = np.einsum("k...,k...->...", px[:n], py[:n])
        cd = np.where(near, direct, cd)
    return cd


def block_from_rows(i: int, j: int, x, y, px, py, p: KernelParams):
    """Kernel block (i, j) at (x, y), which broadcast together.

    px, py are the oscillator rows phi_0..phi_K at x and y (leading axis k,
    K >= kernel_k_max(n, c)); the block indices must be 1 or 2.  The diagonal
    blocks take the Christoffel-Darboux form, the others the table of _coef.
    """
    if i == j:
        return _christoffel_darboux(p.n, x, y, px, py)
    k0, coef, mehler = _coef(i, j, p.n, p.c)
    out = _weighted_sum(coef, k0, px, py)
    return out if mehler is None else out - mehler * mehler_sum(p.c, x, y)


def block_dx_from_rows(i: int, j: int, x, y, dpx, py, p: KernelParams):
    """d/dx of kernel block (i, j) at (x, y), from the rows dphi_k(x), phi_k(y).

    Every block differentiates its _coef sum term by term (the diagonal
    blocks the direct partial sum, not the Christoffel-Darboux quotient); the
    Mehler route of K_12 also differentiates the closed form.
    """
    c = p.c
    k0, coef, mehler = _coef(i, j, p.n, c)
    out = _weighted_sum(coef, k0, dpx, py)
    if mehler is None:
        return out
    one_m = 1.0 - c * c
    dmehler = mehler_sum(c, x, y) * (4.0 * y * c - 2.0 * x * (1.0 + c * c)) / (2.0 * one_m)
    return out - mehler * dmehler


def _check_blocks(i: int, j: int) -> None:
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"block indices must be 1 or 2, got ({i}, {j})")


def kernel_block(i: int, j: int, x, y, p: KernelParams):
    """Vectorized kernel block; x and y broadcast together."""
    _check_blocks(i, j)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = kernel_k_max(p.n, p.c)
    return block_from_rows(i, j, x, y, phi_matrix(k, x), phi_matrix(k, y), p)


def kernel_block_dx(i: int, j: int, x, y, p: KernelParams):
    """d/dx of kernel block (i, j).  Used for resolvent endpoint partials."""
    _check_blocks(i, j)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = kernel_k_max(p.n, p.c)
    dpx = dphi_from_phi(phi_matrix(k, x), x)
    return block_dx_from_rows(i, j, x, y, dpx, phi_matrix(k, y), p)
