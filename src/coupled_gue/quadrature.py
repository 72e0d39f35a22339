"""Gauss-Legendre quadrature and grids on the semi-infinite rays (xi, inf).

Each ray is truncated at X_max = max(sqrt(4n+2), xi) + 5: the classical
turning point of every oscillator function that enters the kernel plus a
Gaussian-decay margin.  The neglected tail of phi_{2n}^2 beyond X_max is at
most 2e-22 (at n=1; it shrinks as n grows), far below working accuracy.  A
wider margin buys nothing in the tail and only stretches the single panel the
m nodes must resolve: with + 8 the 32-node rule is pre-asymptotic at deep-tail
points such as (n=3, xi=(-1, 12)).

The m-point rule on [-1, 1] is built once per m and cached; its arrays are
read-only, so every caller shares them safely.  DEFAULT_M is the node count
per ray that every solve uses unless told otherwise.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["DEFAULT_M", "QuadratureGrid", "gauss_legendre", "ray_grid"]

DEFAULT_M = 64


@dataclass
class QuadratureGrid:
    """Nodes/weights of a Gauss-Legendre rule mapped onto (xi, x_max)."""

    xi: float
    x_max: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def m(self) -> int:
        return self.nodes.size


@functools.lru_cache(maxsize=None)
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(m)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [-1, 1] (cached, read-only)."""
    if not 1 <= m <= 512:
        raise ValueError(f"m must be in [1, 512], got {m}")
    return _legendre_rule(operator.index(m))


def ray_grid(xi: float, n: int, m: int) -> QuadratureGrid:
    """Affine Gauss-Legendre grid on [xi, X_max] for matrix size n."""
    if m < 8:
        raise ValueError(f"m must be >= 8, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not np.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    x_max = max(math.sqrt(4.0 * n + 2.0), xi) + 5.0
    t, w = gauss_legendre(m)
    half = 0.5 * (x_max - xi)
    nodes = xi + half * (t + 1.0)
    weights = half * w
    return QuadratureGrid(xi=xi, x_max=x_max, nodes=nodes, weights=weights)
