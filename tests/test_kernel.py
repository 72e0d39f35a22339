import math

import numpy as np
import pytest

from coupled_gue.hermite import phi_matrix
from coupled_gue.kernel import (
    C_DIRECT,
    KernelParams,
    kernel_block,
    kernel_block_dx,
    mehler_sum,
)


def direct_geometric_sum(c, x, y, k_max=300, k_min=0, shift=0):
    """Brute-force oracle: sum_{k=k_min}^{k_max} c^(k-shift) phi_k(x) phi_k(y)."""
    px = phi_matrix(k_max, np.asarray(x, dtype=float))
    py = phi_matrix(k_max, np.asarray(y, dtype=float))
    ks = np.arange(k_min, k_max + 1)
    return np.einsum("k,k...,k...->...", c ** (ks - float(shift)), px[k_min:], py[k_min:])


def entry(i, j, x, y, p):
    return float(kernel_block(i, j, x, y, p))


def test_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0, 0.5, 0.0, 0.0)
    for c in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            KernelParams(1, c, 0.0, 0.0)
    with pytest.raises(ValueError):
        KernelParams(1, 0.5, math.nan, 0.0)
    p = KernelParams(2, 0.5, 0.0, 0.3)
    assert p.sigma == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p.sigma2 == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_mehler_small_c_limit():
    x, y = 0.7, -1.2
    phi0 = lambda t: math.pi**-0.25 * math.exp(-0.5 * t * t)
    assert mehler_sum(1e-13, x, y) == pytest.approx(phi0(x) * phi0(y), rel=1e-10)


def test_mehler_against_direct_sum():
    assert mehler_sum(0.5, 0.3, -0.2) == pytest.approx(
        float(direct_geometric_sum(0.5, 0.3, -0.2)), abs=1e-13
    )


def test_mehler_positive_on_diagonal():
    assert mehler_sum(0.5, 1.0, 1.0) > 0.0


def test_mehler_input_error():
    with pytest.raises(ValueError):
        mehler_sum(1.0, 0.0, 0.0)


@pytest.mark.parametrize("c", [0.03, C_DIRECT, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block12_closed_form_vs_direct(c, n):
    """Both K_12 routes (direct tail below C_DIRECT, Mehler from it on) against brute force."""
    xs = np.linspace(-4.0, 8.0, 9)
    p = KernelParams(n, c, 0.0, 0.0)
    for x in xs:
        for y in xs[::2]:
            direct = -float(direct_geometric_sum(c, x, y, 300, k_min=n, shift=n))
            assert entry(1, 2, x, y, p) == pytest.approx(direct, abs=1e-12)


def test_diagonal_block_n1_at_zero():
    p = KernelParams(1, 0.5, 0.0, 0.0)
    assert entry(1, 1, 0.0, 0.0, p) == pytest.approx(
        math.pi**-0.5, abs=1e-15
    )
    assert entry(2, 2, 0.0, 0.0, p) == entry(1, 1, 0.0, 0.0, p)


def test_block12_n1_at_zero():
    p = KernelParams(1, 0.5, 0.0, 0.0)
    expected = -2.0 * (mehler_sum(0.5, 0.0, 0.0) - math.pi**-0.5)
    assert entry(1, 2, 0.0, 0.0, p) == pytest.approx(expected, abs=1e-13)


def test_block21_weighted_partial_sum():
    n, c = 3, 0.4
    p = KernelParams(n, c, 0.0, 0.0)
    x, y = 0.7, -0.3
    px = phi_matrix(n - 1, np.array([x]))[:, 0]
    py = phi_matrix(n - 1, np.array([y]))[:, 0]
    expected = float(np.sum(c ** (n - np.arange(n)) * px * py))
    assert entry(2, 1, x, y, p) == pytest.approx(expected, abs=1e-14)


def test_block21_coupling_to_one_limit():
    pa = KernelParams(2, 1.0 - 1e-9, 0.1, 0.4)
    assert entry(2, 1, 0.3, 0.9, pa) == pytest.approx(
        entry(1, 1, 0.3, 0.9, pa), rel=1e-7
    )


@pytest.mark.parametrize("blocks", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_block_argument_symmetry(blocks):
    i, j = blocks
    p = KernelParams(3, 0.6, 0.0, 0.0)
    for x, y in ((0.2, 1.7), (-1.0, 3.3), (5.0, -0.4)):
        assert entry(i, j, x, y, p) == pytest.approx(
            entry(i, j, y, x, p), rel=1e-13, abs=1e-15
        )


def test_christoffel_darboux_vs_partial_sum():
    """The diagonal block, with its confluent pairs, against the direct partial sum."""
    for n in (1, 2, 5):
        p = KernelParams(n, 0.5, 0.0, 0.0)
        for x, y in ((0.1, 2.0), (1.0, 1.0 + 1e-9), (0.5, 0.5), (-2.0, 4.0)):
            direct = float(phi_matrix(n - 1, np.array([x]))[:, 0]
                           @ phi_matrix(n - 1, np.array([y]))[:, 0])
            assert entry(1, 1, x, y, p) == pytest.approx(direct, abs=1e-13)


def test_kernel_block_invalid_block():
    p = KernelParams(1, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        entry(0, 1, 0.0, 0.0, p)
    with pytest.raises(ValueError):
        entry(1, 3, 0.0, 0.0, p)
    with pytest.raises(ValueError):
        kernel_block_dx(3, 1, 0.0, 0.0, p)


@pytest.mark.parametrize("blocks", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("c", [0.03, 0.5, 0.8])
def test_kernel_dx_matches_fd(blocks, c):
    i, j = blocks
    p = KernelParams(2, c, 0.0, 0.0)
    h = 1e-6
    for x, y in ((0.3, 1.1), (-1.2, 2.5)):
        fd = (entry(i, j, x + h, y, p) - entry(i, j, x - h, y, p)) / (2 * h)
        assert float(kernel_block_dx(i, j, x, y, p)) == pytest.approx(fd, abs=5e-9)
