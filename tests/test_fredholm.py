import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import erf
from scipy.stats import multivariate_normal

from coupled_gue import KernelParams, solve, resolvent_at
from coupled_gue.kernel import kernel_block
from coupled_gue.fredholm import THETA, FredholmError
from coupled_gue.observables import hatted_vars, r_derivatives
from coupled_gue.onematrix import solve_one_matrix


def bvn_cdf(xi1, xi2, c):
    """n=1 oracle: (lmax1, lmax2) is bivariate normal with correlation c."""
    cov = [[0.5, 0.5 * c], [0.5 * c, 0.5]]
    return float(multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([xi1, xi2]))


def test_orthant_oracle(bank):
    sol = bank.sol(1, 0.5, 0.0, 0.0)
    target = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    assert target == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sol.prob == pytest.approx(target, abs=1e-8)


@pytest.mark.parametrize("c", [0.3, 0.8])
@pytest.mark.parametrize("xi", [(-0.5, 0.7), (0.4, 0.4), (1.2, -0.3)])
def test_n1_bivariate_normal_law(bank, c, xi):
    sol = bank.sol(1, c, xi[0], xi[1])
    assert sol.prob == pytest.approx(bvn_cdf(xi[0], xi[1], c), abs=2e-7)


def test_empty_constraint(bank):
    sol = bank.sol(3, 0.7, 12.0, 12.0)
    assert abs(sol.prob - 1.0) <= 1e-12
    assert sol.log_prob <= 1e-12


def test_one_matrix_reduction(bank):
    sol = bank.sol(2, 0.6, 0.5, 12.0)
    om = solve_one_matrix(2, 0.5, 64)
    assert sol.prob == pytest.approx(om.prob, abs=1e-8)


def test_n1_marginal_is_erf_law(bank):
    for xi in (-1.0, 0.4):
        sol = bank.sol(1, 0.3, xi, 12.0)
        assert sol.prob == pytest.approx((1.0 + erf(xi)) / 2.0, abs=1e-10)


def test_exchange_symmetry(bank):
    a = bank.sol(3, 0.7, 0.2, -0.5).log_prob
    b = bank.sol(3, 0.7, -0.5, 0.2).log_prob
    assert abs(a - b) <= 1e-10


def test_monotone_in_each_endpoint(bank):
    ps = [bank.sol(2, 0.5, x, 0.3).prob for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert all(a <= b + 1e-14 for a, b in zip(ps, ps[1:]))
    ps = [bank.sol(2, 0.5, 0.3, x).prob for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert all(a <= b + 1e-14 for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decoupling_limit(bank, n):
    joint = bank.sol(n, 1e-9, 0.3, -0.2).prob
    indep = solve_one_matrix(n, 0.3, 64).prob * solve_one_matrix(n, -0.2, 64).prob
    assert abs(joint - indep) <= 1e-8


def test_solution_invariants(bank):
    sol = bank.sol(2, 0.5, 0.0, 0.3)
    assert sol.log_prob < 0.0
    assert math.isfinite(sol.cond)
    assert np.all(sol.weights > 0)


def test_solve_input_errors():
    with pytest.raises(ValueError):
        solve(KernelParams(2, 0.5, 0.0, 0.3), m=7)


def test_log_prob_above_zero_is_rejected():
    # K_12 cancellation at n=50, small c: the float64 determinant comes out
    # positive but far above 1 (ln P = +770, cond ~ 3e50); no probability is
    with pytest.raises(FredholmError, match="> 0") as exc:
        solve(KernelParams(50, 0.12, 0.0, 0.3))
    assert exc.value.cond > 1e40


def _nystrom_kernel(sol):
    """Unsymmetrized Nystrom matrix K_{blk(a),blk(b)}(z_a, z_b), from kernel_block."""
    p = sol.params
    kfull = np.empty((sol.nodes.size, sol.nodes.size))
    for bi in (1, 2):
        for bj in (1, 2):
            ia, jb = sol.blocks == bi, sol.blocks == bj
            kfull[np.ix_(ia, jb)] = kernel_block(
                bi, bj, sol.nodes[ia][:, None], sol.nodes[jb][None, :], p
            )
    return kfull


@pytest.mark.parametrize("c", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("n", [2, 10, 20])
def test_resolvent_reproduces_grid_values(bank, n, c):
    x0 = math.sqrt(2.0 * n)
    sol = bank.sol(n, c, x0 - 1.5, x0 - 1.0)
    kfull = _nystrom_kernel(sol)
    r_disc = np.linalg.solve(np.eye(kfull.shape[0]) - kfull * sol.weights, kfull)  # R = K + K W R
    tol = 1e-14 * sol.cond * max(1.0, np.max(np.abs(r_disc)))
    for a in (0, 17, 64, 100):
        i = int(sol.blocks[a])
        for b in (3, 40, 90):
            j = int(sol.blocks[b])
            got = resolvent_at(sol, i, j, sol.nodes[a], sol.nodes[b])
            assert abs(got - r_disc[a, b]) <= tol


def test_solution_holds_only_the_lu_factor_as_a_matrix(bank):
    # ln P and every resolvent value come from the LU factors of I - S K S;
    # no other (2m, 2m) array (kernel, resolvent) is kept per point
    sol = bank.sol(10, 0.5, 4.0, 4.5)
    size = sol.nodes.size
    square = [f.name for f in dataclasses.fields(sol)
              if np.shape(getattr(sol, f.name)) == (size, size)]
    assert square == ["lu"]
    kmat = sol.sqrt_w[:, None] * _nystrom_kernel(sol) * sol.sqrt_w[None, :]
    undone = sla.lu_solve((sol.lu, sol.piv), np.eye(size) - kmat)
    assert np.max(np.abs(undone - np.eye(size))) <= 1e-12 * sol.cond
    assert sol.log_prob == float(np.sum(np.log(np.abs(np.diag(sol.lu)))))


@pytest.mark.parametrize("c", [0.03, 0.5])
@pytest.mark.parametrize("n", [2, 10, 20])
def test_endpoint_partials_match_resolvent_differences(bank, n, c):
    # c = 0.03 takes the direct K_12 tail, c = 0.5 the Mehler route
    x1 = math.sqrt(2.0 * n)
    xi = (x1, x1 + 0.3)
    sol = bank.sol(n, c, *xi)
    e = bank.end(n, c, *xi)
    h = 1e-5
    for i in (1, 2):
        for j in (1, 2):
            x, y = xi[i - 1], xi[j - 1]
            fd_x = (resolvent_at(sol, i, j, x + h, y) - resolvent_at(sol, i, j, x - h, y)) / (2 * h)
            fd_y = (resolvent_at(sol, i, j, x, y + h) - resolvent_at(sol, i, j, x, y - h)) / (2 * h)
            assert abs(e.r_x[i - 1, j - 1] - fd_x) <= 1e-5
            assert abs(e.r_y[i - 1, j - 1] - fd_y) <= 1e-5


def test_resolvent_vanishes_empty_rays(bank):
    sol = bank.sol(2, 0.5, 12.0, 12.0)
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert abs(resolvent_at(sol, i, j, 12.5, 13.0)) < 1e-12


def test_resolvent_invalid_block(bank):
    sol = bank.sol(2, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError):
        resolvent_at(sol, 0, 1, 0.0, 0.0)


def test_r11_erf_oracle_weak_coupling(bank):
    e = bank.end(1, 1e-9, 0.0, 5.0)
    assert e.r[0, 0] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-9)


def test_r_diagonal_is_gradient_of_log_prob(bank):
    n, c, x1, x2 = 2, 0.5, 0.0, 0.3
    e = bank.end(n, c, x1, x2)
    h = 1e-4
    fd1 = (bank.sol(n, c, x1 + h, x2).log_prob - bank.sol(n, c, x1 - h, x2).log_prob) / (2 * h)
    fd2 = (bank.sol(n, c, x1, x2 + h).log_prob - bank.sol(n, c, x1, x2 - h).log_prob) / (2 * h)
    assert abs(e.r[0, 0] - fd1) <= 1e-7
    assert abs(e.r[1, 1] - fd2) <= 1e-7


def test_trace_r_is_dplus_log_prob(bank):
    n, c, x1, x2 = 2, 0.5, 0.1, 0.4
    e = bank.end(n, c, x1, x2)
    h = 1e-4
    fd = (bank.sol(n, c, x1 + h, x2 + h).log_prob
          - bank.sol(n, c, x1 - h, x2 - h).log_prob) / (2 * h)
    assert abs(np.trace(e.r) - fd) <= 1e-7


def test_endpoint_empty_ray_limits(bank):
    n = 2
    e = bank.end(n, 0.5, 12.0, 12.0)
    assert np.max(np.abs(e.u)) < 1e-12
    assert np.max(np.abs(e.w)) < 1e-12
    root = math.sqrt(2.0 * n)
    assert np.trace(e.U_hat) == pytest.approx(root, abs=1e-10)
    assert np.trace(e.W_hat) == pytest.approx(root, abs=1e-10)
    assert np.allclose(e.U_hat, root / 2.0 * THETA, atol=1e-10)


def test_matrix_first_integrals(bank):
    n = 2
    e = bank.end(n, 0.5, 0.0, 0.3)
    q_hat, p_hat, qt_hat, pt_hat = hatted_vars(e)
    rhs1 = n * THETA - e.W_hat @ e.U_hat
    rhs2 = n * THETA - e.U_hat @ e.W_hat
    scale = np.max(np.abs(rhs1))
    assert np.max(np.abs(pt_hat @ q_hat - rhs1)) <= 1e-9 * scale
    assert np.max(np.abs(qt_hat @ p_hat - rhs2)) <= 1e-9 * scale


def test_first_order_system_three_routes(bank):
    # dynamic route (q, p system) vs kinematic (r_x, r_y) vs finite differences
    n, c, x1, x2 = 2, 0.5, 0.1, 0.4
    e = bank.end(n, c, x1, x2)
    dp_r, dm_r = r_derivatives(e)
    kin_p = e.r_x + e.r_y - e.r @ e.r
    assert np.max(np.abs(dp_r - kin_p)) < 1e-10
    sig = e.params.sigma
    sig_m = sig * np.diag([1.0, -1.0])
    kin_m = (sig_m @ e.r_x + e.r_y @ sig_m - e.r @ sig_m @ e.r) / sig
    assert np.max(np.abs(dm_r - kin_m)) < 1e-10
    h = 1e-5
    fd_p = (bank.end(n, c, x1 + h, x2 + h).r - bank.end(n, c, x1 - h, x2 - h).r) / (2 * h)
    fd_m = (bank.end(n, c, x1 + h, x2 - h).r - bank.end(n, c, x1 - h, x2 + h).r) / (2 * h)
    assert np.max(np.abs(dp_r - fd_p)) < 1e-8
    assert np.max(np.abs(dm_r - fd_m)) < 1e-8


def test_quadrature_convergence_default_point(bank):
    a = bank.sol(2, 0.5, 0.0, 0.3, m=32).log_prob
    b = bank.sol(2, 0.5, 0.0, 0.3, m=64).log_prob
    assert abs(a - b) < 1e-10


def test_one_matrix_painleve_iv(bank):
    # scalar machinery satisfies the sigma-form of Painleve IV
    from coupled_gue.onematrix import painleve_iv_residual

    for n in (1, 2, 3):
        for xi in (-0.5, 0.0, 1.0):
            res, scale = painleve_iv_residual(n, xi, 64)
            assert abs(res) <= 1e-9 * scale


def test_one_matrix_oracle_shares_no_engine_code():
    """The oracle builds its own kernel: it holds nothing defined in kernel or fredholm."""
    import coupled_gue.onematrix as om

    engine = {"coupled_gue.kernel", "coupled_gue.fredholm"}
    borrowed = [name for name, obj in vars(om).items()
                if getattr(obj, "__module__", None) in engine
                or getattr(obj, "__name__", None) in engine]
    assert borrowed == []
