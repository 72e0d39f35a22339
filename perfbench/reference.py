"""Independent ln P reference for the benchmark's correctness check.

ln P = ln det(I - K) for the 2x2-block extended Hermite kernel on the rays
(xi_1, inf) and (xi_2, inf), built here from numpy and scipy alone: it has
its own oscillator recurrence, its own ray truncation and node count, and it
sums the K_12 tail term by term instead of through the Mehler closed form, so
it shares no code path with `coupled_gue.kernel`, `coupled_gue.fredholm` or
`coupled_gue.quadrature`.

    K_11 = K_22 = sum_{k<n} phi_k(x) phi_k(y)
    K_21        = sum_{k<n} c^(n-k) phi_k(x) phi_k(y)
    K_12        = -sum_{k>=n} c^(k-n) phi_k(x) phi_k(y)

Each value is computed at two node counts and returned with their gap (the
m-convergence gap), so a check can tell a wrong program value from an
unconverged reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

__all__ = ["RefValue", "OracleError", "Reference", "oscillators"]

# Truncation of each ray beyond max(sqrt(4n+2), xi): wider than the program's.
MARGIN = 12.0
# The K_12 tail stops once c^(k-n)/(1-c) drops below this; |phi_k| < 1.
TAIL_EPS = 1e-18
# Node-count pairs tried in turn until the pair agrees to GAP_MAX.
M_PAIRS = ((128, 192), (256, 384))
GAP_MAX = 1e-9

_LOG_PI_4 = 0.25 * math.log(math.pi)


class OracleError(RuntimeError):
    """The reference could not produce a converged, positive determinant."""


@dataclass(frozen=True)
class RefValue:
    log_prob: float   # value at the larger node count of the accepted pair
    gap: float        # |ln P(m_lo) - ln P(m_hi)|
    m: int            # the larger node count


def oscillators(k_max: int, x: np.ndarray) -> np.ndarray:
    """phi_0..phi_{k_max} at x (rows k), by the normalized three-term recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((k_max + 1, x.size))
    out[0] = np.exp(-0.5 * x * x - _LOG_PI_4)
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, k_max + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def tail_terms(n: int, c: float) -> int:
    """Highest oscillator index the K_12 tail needs at coupling c."""
    return n + int(math.ceil(math.log(TAIL_EPS * (1.0 - c)) / math.log(c)))


class Reference:
    """ln P oracle with per-ray caches; call clear() between unrelated requests."""

    def __init__(self):
        self._rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rays: dict[tuple, np.ndarray] = {}

    def clear(self) -> None:
        self._rays.clear()

    def _ray(self, xi: float, n: int, m: int, k_max: int) -> np.ndarray:
        """sqrt(w_a) phi_k(x_a) on the ray grid, rows k = 0..k_max."""
        key = (xi, n, m)
        cached = self._rays.get(key)
        if cached is not None and cached.shape[0] > k_max:
            return cached[: k_max + 1]
        if m not in self._rules:
            self._rules[m] = np.polynomial.legendre.leggauss(m)
        t, w = self._rules[m]
        half = 0.5 * (max(math.sqrt(4.0 * n + 2.0), xi) + MARGIN - xi)
        phi = oscillators(k_max, xi + half * (t + 1.0)) * np.sqrt(half * w)
        self._rays[key] = phi
        return phi

    def log_det(self, n: int, c: float, xi1: float, xi2: float, m: int) -> float:
        """ln det(I - K) discretized with m nodes per ray."""
        k_hi = tail_terms(n, c)
        a = self._ray(xi1, n, m, k_hi)
        b = self._ray(xi2, n, m, k_hi)
        mat = np.empty((2 * m, 2 * m))
        mat[:m, :m] = -(a[:n].T @ a[:n])
        mat[m:, m:] = -(b[:n].T @ b[:n])
        mat[m:, :m] = -((b[:n] * (c ** (n - np.arange(n)))[:, None]).T @ a[:n])
        mat[:m, m:] = (a[n:] * (c ** np.arange(k_hi + 1 - n))[:, None]).T @ b[n:]
        mat[np.diag_indices(2 * m)] += 1.0
        lu, piv = sla.lu_factor(mat, check_finite=False)
        diag = np.diag(lu)
        swaps = np.count_nonzero(piv != np.arange(2 * m))
        if (swaps + np.count_nonzero(diag < 0.0)) % 2 or np.any(diag == 0.0):
            raise OracleError(f"det(I - K) <= 0 at n={n}, c={c}, xi=({xi1}, {xi2}), m={m}")
        return float(np.sum(np.log(np.abs(diag))))

    def log_prob(self, n: int, c: float, xi1: float, xi2: float) -> RefValue:
        """ln P with its m-convergence gap; raises OracleError if unconverged."""
        gap = math.inf
        for m_lo, m_hi in M_PAIRS:
            hi = self.log_det(n, c, xi1, xi2, m_hi)
            gap = abs(self.log_det(n, c, xi1, xi2, m_lo) - hi)
            if gap <= GAP_MAX:
                return RefValue(log_prob=hi, gap=gap, m=m_hi)
        raise OracleError(
            f"reference unconverged at n={n}, c={c}, xi=({xi1}, {xi2}): gap {gap:.2e}"
        )
