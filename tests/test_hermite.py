import math

import numpy as np
import pytest
from scipy.special import eval_hermite

from coupled_gue.hermite import dphi_from_phi, phi_matrix
from coupled_gue.quadrature import gauss_legendre


def phi_reference(k, x):
    """Direct formula: normalized Hermite polynomial times Gaussian."""
    norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return eval_hermite(k, x) * math.exp(-0.5 * x * x) / norm


def phi_at(k_max, x):
    """phi_0..phi_{k_max} at the single abscissa x."""
    return phi_matrix(k_max, np.array([x]))[:, 0]


def test_phi0_at_zero():
    assert phi_at(0, 0.0)[0] == pytest.approx(math.pi**-0.25, abs=1e-15)


def test_phi1_at_zero_odd():
    assert phi_at(1, 0.0)[1] == 0.0


def test_phi2_at_zero():
    # H_2 = 4x^2 - 2 with norm sqrt(2^2 2! sqrt(pi))
    expected = -2.0 / math.sqrt(8.0 * math.sqrt(math.pi))
    assert phi_at(2, 0.0)[2] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(-0.53112, abs=1e-5)


@pytest.mark.parametrize("x", [-3.1, -0.5, 0.0, 1.7, 5.3])
def test_recurrence_residual_machine_precision(x):
    phi = phi_at(50, x)
    for k in range(1, 50):
        lhs = phi[k + 1]
        rhs = math.sqrt(2.0 / (k + 1)) * x * phi[k] - math.sqrt(k / (k + 1.0)) * phi[k - 1]
        assert abs(lhs - rhs) <= 1e-15 * max(1.0, abs(lhs))


def test_reference_formula_agreement():
    xs = np.array([-2.5, -1.0, 0.3, 2.0, 4.0])
    vals = phi_matrix(12, xs)
    for k in range(13):
        for j, x in enumerate(xs):
            assert vals[k, j] == pytest.approx(phi_reference(k, x), abs=1e-12)


def test_uniform_bound():
    xs = np.linspace(-30.0, 30.0, 601)
    vals = phi_matrix(200, xs)
    assert np.max(np.abs(vals)) <= 1.0


def test_no_overflow_large_arguments():
    vals = phi_matrix(1000, np.array([-40.0, 40.0]))
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(dphi_from_phi(vals, np.array([-40.0, 40.0]))))


def test_orthonormality_with_quadrature():
    # phi_k for k <= 30 live inside |x| <= sqrt(61) + margin
    t, w = gauss_legendre(400)
    half = 20.0
    xs = half * t
    ws = half * w
    vals = phi_matrix(30, xs)
    gram = (vals * ws) @ vals.T
    assert np.max(np.abs(gram - np.eye(31))) < 1e-10


def test_dphi_examples():
    dphi = dphi_from_phi(phi_matrix(2, np.array([0.0])), np.array([0.0]))[:, 0]
    assert dphi[0] == 0.0
    expected = math.sqrt(2.0) * math.pi**-0.25
    assert dphi[1] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(1.06225, abs=1e-5)


@pytest.mark.parametrize("x", [-3.0, 0.0, 2.0, 5.0])
def test_dphi_matches_central_differences(x):
    h = 1e-5
    up = phi_at(30, x + h)
    dn = phi_at(30, x - h)
    dphi = dphi_from_phi(phi_matrix(30, np.array([x])), np.array([x]))[:, 0]
    for k in range(31):
        fd = (up[k] - dn[k]) / (2 * h)
        assert abs(dphi[k] - fd) < 1e-8


def test_dphi_from_phi_on_a_grid():
    """Each column of dphi_from_phi on a vector of abscissae is its one-point value."""
    xs = np.array([-2.0, 0.5, 3.0])
    dm = dphi_from_phi(phi_matrix(10, xs), xs)
    for j, x in enumerate(xs):
        one = dphi_from_phi(phi_matrix(10, np.array([x])), np.array([x]))[:, 0]
        assert np.array_equal(dm[:, j], one)


def test_input_errors():
    with pytest.raises(ValueError):
        phi_matrix(-1, np.array([0.0]))
    with pytest.raises(ValueError):
        phi_matrix(3, np.array([0.0, math.nan]))
    with pytest.raises(ValueError):
        phi_matrix(3, math.inf)
