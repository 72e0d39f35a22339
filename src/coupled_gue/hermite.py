"""Stable evaluation of harmonic oscillator eigenfunctions.

The orthonormal oscillator functions phi_k(x) = p_k(x) exp(-x^2/2), with p_k
the normalized Hermite polynomials, are the building block of every kernel
entry in this package.  The recurrence is carried on the Gaussian-damped
phi_k themselves (which stay O(1)) rather than on raw Hermite polynomials,
so there is no overflow even for large k and |x|.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["phi_matrix", "dphi_from_phi"]

# phi_0(x) = pi^(-1/4) exp(-x^2/2); computed in one exponential to avoid
# underflow of the product of two small factors.
_LOG_PI_4 = 0.25 * math.log(math.pi)


def phi_matrix(k_max: int, x: np.ndarray) -> np.ndarray:
    """Vectorized recurrence: rows k = 0..k_max, columns the abscissae."""
    x = np.asarray(x, dtype=float)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if not np.all(np.isfinite(x)):
        raise ValueError("abscissae must be finite")
    out = np.empty((k_max + 1,) + x.shape)
    out[0] = np.exp(-0.5 * x * x - _LOG_PI_4)
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, k_max):
        out[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * x * out[k]
            - math.sqrt(k / (k + 1.0)) * out[k - 1]
        )
    return out


def dphi_from_phi(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d phi_k / dx = -x phi_k + sqrt(2k) phi_{k-1}, from phi = phi_matrix(k_max, x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(phi)
    out[0] = -x * phi[0]
    for k in range(1, phi.shape[0]):
        out[k] = -x * phi[k] + math.sqrt(2.0 * k) * phi[k - 1]
    return out

