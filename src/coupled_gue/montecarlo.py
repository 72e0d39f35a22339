"""Monte Carlo sampler of the coupled-GUE pair.

Implementation-independent estimate of the joint probability
P(lmax(M1) <= xi1, lmax(M2) <= xi2) by direct sampling of the matrix pair:
M1 Hermitian with density ~ exp(-Tr M1^2), M2 = c M1 + sqrt(1-c^2) M',
M' an independent draw from the same law.

The entry variances (diagonal 1/2, off-diagonal real/imag parts 1/4) are
pinned by the n=1 marginal P(lambda <= xi) = (1 + erf xi)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MIN_SAMPLES", "McEstimate", "sample_pair", "estimate_joint"]

MIN_SAMPLES = 1000
_BATCH = 20_000


@dataclass
class McEstimate:
    p_hat: float
    stderr: float
    n_samples: int
    seed: int


def _draw_hermitian(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """size Hermitian matrices with density ~ exp(-Tr M^2)."""
    diag = rng.standard_normal((size, n)) * math.sqrt(0.5)
    re = rng.standard_normal((size, n, n)) * 0.5
    im = rng.standard_normal((size, n, n)) * 0.5
    m = np.zeros((size, n, n), dtype=complex)
    iu = np.triu_indices(n, k=1)
    m[:, iu[0], iu[1]] = re[:, iu[0], iu[1]] + 1j * im[:, iu[0], iu[1]]
    m = m + np.conj(np.swapaxes(m, 1, 2))
    m[:, np.arange(n), np.arange(n)] = diag
    return m


def _largest_eig(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(m)[..., -1]


def sample_pair(n: int, c: float, rng: np.random.Generator,
                size: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalues (lmax1, lmax2) of `size` coupled draws."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c}")
    m1 = _draw_hermitian(rng, n, size)
    m2 = c * m1 + math.sqrt(1.0 - c * c) * _draw_hermitian(rng, n, size)
    return _largest_eig(m1), _largest_eig(m2)


def estimate_joint(n: int, c: float, xi1: float, xi2: float,
                   n_samples: int, seed: int) -> McEstimate:
    """Fraction of samples with lmax1 <= xi1 and lmax2 <= xi2."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    rng = np.random.default_rng(seed)
    hits = 0
    left = n_samples
    while left > 0:
        size = min(_BATCH, left)
        l1, l2 = sample_pair(n, c, rng, size)
        hits += int(np.count_nonzero((l1 <= xi1) & (l2 <= xi2)))
        left -= size
    p_hat = hits / n_samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return McEstimate(p_hat=p_hat, stderr=stderr, n_samples=n_samples, seed=seed)
