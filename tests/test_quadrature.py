import math

import numpy as np
import pytest

from coupled_gue.hermite import phi_matrix
from coupled_gue.quadrature import gauss_legendre, ray_grid


def test_midpoint_rule():
    x, w = gauss_legendre(1)
    assert x[0] == pytest.approx(0.0, abs=1e-15)
    assert w[0] == pytest.approx(2.0, abs=1e-15)


def test_two_point_rule():
    x, w = gauss_legendre(2)
    assert np.allclose(np.sort(x), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], atol=1e-15)
    # exact through cubics
    for k in range(4):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(w * x**k) == pytest.approx(exact, abs=1e-15)


def test_monomial_exactness_m40():
    x, w = gauss_legendre(40)
    assert np.sum(w * x**4) == pytest.approx(2.0 / 5.0, abs=1e-14)
    # degree 2m-1 = 79 still exact
    assert np.sum(w * x**78) == pytest.approx(2.0 / 79.0, rel=1e-13)


def test_gauss_legendre_range_errors():
    for m in (0, -3, 513):
        with pytest.raises(ValueError):
            gauss_legendre(m)


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = gauss_legendre(64)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    x2, w2 = gauss_legendre(64)
    assert np.array_equal(x, x2) and np.array_equal(w, w2)
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_ray_grid_examples():
    # X_max = max(sqrt(4n+2), xi) + 5; n=2 puts the turning point at sqrt(10)
    g = ray_grid(0.0, 2, 8)
    assert g.x_max == pytest.approx(math.sqrt(10.0) + 5.0, abs=1e-14)
    assert g.m == 8
    # xi = 20 lies beyond the turning point, so the xi branch applies
    g = ray_grid(20.0, 2, 8)
    assert g.x_max == pytest.approx(25.0, abs=1e-14)


def test_ray_grid_invariants():
    for xi, n, m in ((-2.0, 3, 16), (0.5, 1, 64), (4.0, 10, 33)):
        g = ray_grid(xi, n, m)
        assert np.all(g.weights > 0)
        assert np.all(np.diff(g.nodes) > 0)
        assert xi < g.nodes[0]
        assert g.nodes[-1] < g.x_max
        assert np.sum(g.weights) == pytest.approx(g.x_max - xi, abs=1e-12)


def test_ray_grid_errors():
    with pytest.raises(ValueError):
        ray_grid(0.0, 2, 7)
    with pytest.raises(ValueError):
        ray_grid(0.0, 0, 16)
    with pytest.raises(ValueError):
        ray_grid(math.inf, 2, 16)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50])
def test_truncation_tail_negligible(n):
    # neglected tail of phi_{2n}^2 beyond X_max, by dense quadrature on
    # [X_max, X_max + 20]; beyond that the integrand is below 1e-300
    g = ray_grid(0.0, n, 8)
    t, w = gauss_legendre(400)
    half = 10.0
    xs = g.x_max + half * (t + 1.0)
    vals = phi_matrix(2 * n, xs)[2 * n]
    tail = np.sum(half * w * vals**2)
    assert tail < 1e-16
