import math

import numpy as np
import pytest

from coupled_gue import KernelParams
from coupled_gue.fredholm import SIGMA3, I2
from coupled_gue.observables import (
    a_matrix,
    build_quartet,
    hatted_vars,
    log_tau_n,
    tau_ratio_consts,
    tau_ratios,
    theorem1_uw,
    _uw_scales,
)
from coupled_gue.onematrix import solve_one_matrix

from conftest import rel_gap

CENTER = (2, 0.5, 0.1, 0.4)


def comm(a, b):
    return a @ b - b @ a


def acomm(a, b):
    return a @ b + b @ a


def anti(m):
    return np.array([[0.0, m[0, 1]], [m[1, 0], 0.0]])


@pytest.fixture(scope="module")
def ctx(bank):
    n, c, x1, x2 = CENTER
    e = bank.end(*CENTER)
    q = build_quartet(e)
    d = bank.derived(*CENTER)
    return e, q, d


def test_quartet_determinant_degeneracies(ctx):
    _, q, _ = ctx
    for m in (q.X_plus + q.X_minus, q.X_plus - q.X_minus, q.Phi + q.G, q.Phi - q.G):
        scale = max(np.max(np.abs(m)) ** 2, 1e-30)
        assert abs(np.linalg.det(m)) <= 1e-9 * scale


def test_hatted_variables_degenerate(ctx):
    e, _, _ = ctx
    for m in (*hatted_vars(e), e.U_hat, e.W_hat):
        scale = max(np.max(np.abs(m)) ** 2, 1e-30)
        assert abs(np.linalg.det(m)) <= 1e-12 * scale


def test_trace_x_minus_vanishes(ctx):
    _, q, _ = ctx
    assert abs(np.trace(q.X_minus)) <= 1e-10 * np.max(np.abs(q.X_minus))


def test_full_matrix_first_integrals(ctx):
    # [X+, G] = {X-, Phi};  [X+, Phi] = {X-, G};
    # [Phi, G] = {X-, 3X+^2 - 8nX+ + X-^2} - [X+, [X+, X-]]
    _, q, _ = ctx
    n = CENTER[0]
    i1 = comm(q.X_plus, q.G) - acomm(q.X_minus, q.Phi)
    i2 = comm(q.X_plus, q.Phi) - acomm(q.X_minus, q.G)
    rhs3 = acomm(
        q.X_minus,
        3.0 * q.X_plus @ q.X_plus - 8.0 * n * q.X_plus + q.X_minus @ q.X_minus,
    ) - comm(q.X_plus, comm(q.X_plus, q.X_minus))
    i3 = comm(q.Phi, q.G) - rhs3
    scale = max(np.max(np.abs(q.Phi @ q.G)), np.max(np.abs(rhs3)))
    assert np.max(np.abs(i1)) <= 1e-8 * scale
    assert np.max(np.abs(i2)) <= 1e-8 * scale
    assert np.max(np.abs(i3)) <= 1e-8 * scale


def test_redundant_route_consistency(ctx):
    _, _, d = ctx
    assert not d.warnings
    # X_t, X_3 both ways
    assert rel_gap(d.X_t, -2.0 * d.dm_r3 - 2.0 * d.A2) < 1e-10
    assert rel_gap(d.X_3, -2.0 * d.dm_rt) < 1e-10


def test_x_minus_diagonal_part(ctx):
    # (X-)_d = -A^2 sigma (matrix)
    e, q, d = ctx
    sig = e.params.sigma
    assert q.X_minus[0, 0] == pytest.approx(-d.A2 * sig, rel=1e-9)
    assert q.X_minus[1, 1] == pytest.approx(d.A2 * sig, rel=1e-9)


def test_a_squared_identity(ctx):
    # A^2 = (D+ r_t - D- r_3)/(1 - sigma^2), and it is non-negative
    e, _, d = ctx
    sig2 = d.sigma2
    assert rel_gap(d.A2, (d.dp_rt - d.dm_r3) / (1.0 - sig2)) < 1e-9
    assert d.A2 >= -1e-10


def test_a_squared_vs_mixed_fd(bank):
    n, c, x1, x2 = CENTER
    d = bank.derived(*CENTER)
    h = 1e-3
    mixed = (
        bank.sol(n, c, x1 + h, x2 + h).log_prob
        - bank.sol(n, c, x1 + h, x2 - h).log_prob
        - bank.sol(n, c, x1 - h, x2 + h).log_prob
        + bank.sol(n, c, x1 - h, x2 - h).log_prob
    ) / (4.0 * h * h)
    assert rel_gap(d.A2, 4.0 * mixed / (1.0 - d.sigma2)) < 1e-6


def test_quartet_derivative_equations_vs_fd(bank):
    # Xsys: D+ X+ = Phi - [xi + At, X-] checked against finite differences
    n, c, x1, x2 = CENTER
    e = bank.end(*CENTER)
    q = build_quartet(e)
    h = 5e-3
    coef = [(1.0 / 12, -2), (-2.0 / 3, -1), (2.0 / 3, 1), (-1.0 / 12, 2)]
    fd = sum(
        w * build_quartet(bank.end(n, c, x1 + o * h, x2 + o * h)).X_plus
        for w, o in coef
    ) / h
    xi_m = np.diag([x1, x2])
    a_tilde = e.params.sigma * a_matrix(e.r, e.params.sigma)
    rhs = q.Phi - comm(xi_m + a_tilde, q.X_minus)
    assert np.max(np.abs(fd - rhs)) <= 1e-7 * max(1.0, np.max(np.abs(rhs)))


def test_ra_equations(ctx):
    # sigma_3 D+ A = -(X+)_a - xi_+ At;  sigma D- A = X_a - xi_- A
    e, q, d = ctx
    x1, x2 = e.params.xi1, e.params.xi2
    sig = e.params.sigma
    dp_a = a_matrix(d.dp_r, sig)
    dm_a = a_matrix(d.dm_r, sig)
    lhs1 = SIGMA3 @ dp_a
    a_mat = a_matrix(e.r, sig)
    rhs1 = -anti(q.X_plus) - (x1 + x2) * (sig * a_mat)
    assert np.max(np.abs(lhs1 - rhs1)) <= 1e-8 * max(1.0, np.max(np.abs(rhs1)))
    lhs2 = sig * SIGMA3 @ dm_a
    rhs2 = anti(q.X_minus) - (x1 - x2) * a_mat
    assert np.max(np.abs(lhs2 - rhs2)) <= 1e-8 * max(1.0, np.max(np.abs(rhs2)))


def test_scalar_first_integrals(ctx):
    # appendix system: (A+), (A-), (Ca), (Ax) with exact derivatives
    _, _, d = ctx
    s2 = d.sigma2
    checks = [
        (16.0 * s2 * d.A2 * d.Xp_a2, d.A_plus**2 - 4.0 * s2 * d.D_plus**2),
        (16.0 * d.A2 * d.Xm_a2, d.A_minus**2 - 4.0 * s2 * d.D_minus**2),
        (4.0 * d.A2 * d.C_a, -d.A_plus * d.D_minus + d.A_minus * d.D_plus),
        (d.A_plus * d.A_minus,
         4.0 * s2 * (d.D_plus * d.D_minus - 2.0 * d.X_3 * d.A2**2)),
    ]
    for lhs, rhs in checks:
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), abs(rhs), 1e-30)


def test_pm_b_first_integrals(ctx):
    # (+B), (-B), (B+), and the scalar relation (x)
    _, _, d = ctx
    checks = [
        (2.0 * d.F_hat * (4.0 * d.Xp_a2 + d.X_3**2), d.Phi_t**2 - d.G_t**2),
        (2.0 * d.F_hat * (4.0 * d.Xm_a2 + d.X_3**2), d.Phi_3**2 - d.G_3**2),
        (4.0 * (d.Xp_a2 + d.Xm_a2), d.J),
        (d.Phi_t * d.Phi_3 - d.G_t * d.G_3, 2.0 * d.X_3 * d.X_t * d.F_hat),
    ]
    for lhs, rhs in checks:
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), abs(rhs))


def test_anti_diagonal_relations(ctx):
    # (XXa), (I1a), (I2a), and the (Ix) scalar consequence
    e, q, d = ctx
    sig = e.params.sigma
    n = e.params.n
    xp_a, xm_a = anti(q.X_plus), anti(q.X_minus)
    phi_a, g_a = anti(q.Phi), anti(q.G)
    lhs = acomm(xp_a, xm_a)
    rhs = sig * d.X_3 * d.A2 * I2
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(rhs)), 1e-30)
    i1a = d.X_3 * g_a - (d.G_3 * xp_a + d.Phi_t * SIGMA3 @ xm_a)
    i2a = d.X_3 * phi_a - (d.Phi_3 * xp_a + d.G_t * SIGMA3 @ xm_a)
    scale = max(np.max(np.abs(d.X_3 * g_a)), np.max(np.abs(d.X_3 * phi_a)))
    assert np.max(np.abs(i1a)) <= 1e-7 * scale
    assert np.max(np.abs(i2a)) <= 1e-7 * scale
    # X_-^2 is scalar times identity; its scalar part is tr(X_-^2)/2
    xm_sq = float(np.trace(q.X_minus @ q.X_minus)) / 2.0
    ix = d.Phi_t * d.Phi_3 - d.G_t * d.G_3 - d.X_3 * (
        (3.0 * d.X_t**2 + d.X_3**2) / 2.0 - 8.0 * n * d.X_t
        + 2.0 * d.Xp_a2 + 2.0 * xm_sq
    )
    assert abs(ix) <= 1e-7 * max(abs(d.Phi_t * d.Phi_3), abs(d.G_t * d.G_3))


def test_phi_g_quadratic_relations(ctx):
    # (TG2+), (TGaa), (TG2-), (Ga2), (Ta2), (TG), (GX+a), (GX-a), (aTG)
    e, q, d = ctx
    n = e.params.n
    phi_a, g_a = anti(q.Phi), anti(q.G)
    phia2 = float(phi_a[0, 1] * phi_a[1, 0])
    ga2 = float(g_a[0, 1] * g_a[1, 0])
    # 2{Phi_a, G_a} is scalar: twice the anti-diagonal cross products
    tg_anti = float(np.trace(acomm(phi_a, g_a)))
    checks = [
        (4.0 * (phia2 + ga2), d.Phi_t**2 - d.Phi_3**2 + d.G_t**2 - d.G_3**2),
        (tg_anti, d.G_t * d.Phi_t - d.G_3 * d.Phi_3),
        (4.0 * (ga2 - phia2),
         d.Phi_t**2 + d.Phi_3**2 - d.G_t**2 - d.G_3**2
         - 4.0 * d.X_t**2 * (d.X_t - 4.0 * n)),
        (d.X_3**2 * ga2,
         d.G_3**2 * d.Xp_a2 - d.Phi_t**2 * d.Xm_a2 - d.Phi_t * d.G_3 * d.C_a),
        (d.X_3**2 * phia2,
         d.Phi_3**2 * d.Xp_a2 - d.G_t**2 * d.Xm_a2 - d.Phi_3 * d.G_t * d.C_a),
        (d.G_3 * (4.0 * d.Xp_a2 + d.X_3**2),
         2.0 * d.Phi_t * d.C_a + d.X_3 * d.X_t * d.G_t),
        (d.G_t * (4.0 * d.Xm_a2 + d.X_3**2),
         d.X_3 * d.X_t * d.G_3 - 2.0 * d.Phi_3 * d.C_a),
        (d.Phi_t * d.G_3 - d.Phi_3 * d.G_t, 4.0 * d.F_hat * d.C_a),
    ]
    for lhs, rhs in checks:
        assert abs(lhs - rhs) <= 1e-7 * max(abs(lhs), abs(rhs), 1e-30)


def test_lemma_tr_grid(bank):
    for n in (2, 3, 5):
        for c in (0.2, 0.5, 0.8):
            for x1, x2 in ((-1.0, 0.0), (0.0, 1.0), (1.0, -1.0)):
                e = bank.end(n, c, x1, x2)
                lhs = float(np.trace(e.U_hat @ e.W_hat))
                rhs = float(np.trace(e.U_hat)) * float(np.trace(e.W_hat))
                assert rel_gap(lhs, rhs) <= 1e-9


def test_tau_ratio_whole_domain_product(bank):
    for n in (1, 2, 3):
        for c in (0.2, 0.8):
            e = bank.end(n, c, 12.0, 12.0)
            up, dn = tau_ratios(e)
            assert up * dn == pytest.approx(n / (2.0 * (1.0 - c * c)), abs=1e-9)


def test_tau_ratios_vs_independent_solves(bank):
    n, c, x1, x2 = 2, 0.5, 0.4, -0.2
    e = bank.end(n, c, x1, x2)
    up, dn = tau_ratios(e)
    up_c, dn_c = tau_ratio_consts(n, c)
    up_ind = bank.sol(n + 1, c, x1, x2).prob / bank.sol(n, c, x1, x2).prob * up_c
    dn_ind = bank.sol(n - 1, c, x1, x2).prob / bank.sol(n, c, x1, x2).prob * dn_c
    assert rel_gap(up, up_ind) <= 1e-7
    assert rel_gap(dn, dn_ind) <= 1e-7


def test_tau_ratio_one_matrix_limit(bank):
    # c -> 0, xi2 -> inf: ratio reduces to the one-matrix ratio at xi1
    n, c, xi = 2, 1e-9, 0.4
    e = bank.end(n, c, xi, 12.0)
    up, _ = tau_ratios(e)
    up_c, _ = tau_ratio_consts(n, c)
    om = solve_one_matrix(n, xi, 64).prob
    om_up = solve_one_matrix(n + 1, xi, 64).prob
    assert rel_gap(up, om_up / om * up_c) <= 1e-7


def test_log_tau_closed_form():
    # tau_{n+1} tau_{n-1} / tau_n^2 = n / (2 (1-c^2))
    for n in (1, 2, 5):
        for c in (0.2, 0.7):
            val = math.exp(
                log_tau_n(n + 1, c) + log_tau_n(n - 1, c) - 2.0 * log_tau_n(n, c)
            )
            assert val == pytest.approx(n / (2.0 * (1.0 - c * c)), rel=1e-13)


def test_uw_scales_are_the_per_coupling_factors():
    for n in (1, 2, 5, 10, 20, 50, 100, 120):
        fu, fw = _uw_scales(n)
        assert abs(fu * fw - 0.25) <= 2 * math.ulp(0.25)
        for c in (0.05, 0.5, 0.95):
            # the per-coupling form, whose powers of (1-c^2) cancel those of the tau ratios
            up_c, dn_c = tau_ratio_consts(n, c)
            root = math.sqrt(2.0 * n)
            assert rel_gap(fu, (1.0 - c * c) ** (n + 0.5) * up_c / root) <= 1e-11, (n, c)
            assert rel_gap(fw, (1.0 - c * c) ** (-(n - 0.5)) * dn_c / root) <= 1e-11, (n, c)


def test_theorem1_uw_derivatives_vs_fd(bank):
    n, c, x1, x2 = CENTER
    uw = theorem1_uw(bank.end(*CENTER))
    h = 5e-3
    coef = [(1.0 / 12, -2), (-2.0 / 3, -1), (2.0 / 3, 1), (-1.0 / 12, 2)]

    def u_at(a, b):
        e = bank.end(n, c, a, b)
        return theorem1_uw(e)

    fd_p = sum(w * u_at(x1 + o * h, x2 + o * h)["U"] for w, o in coef) / h
    fd_m = sum(w * u_at(x1 + o * h, x2 - o * h)["U"] for w, o in coef) / h
    assert abs(uw["DpU"] - fd_p) < 1e-9 * max(1.0, abs(fd_p))
    assert abs(uw["DmU"] - fd_m) < 1e-9 * max(1.0, abs(fd_m))
    fd_p = sum(w * u_at(x1 + o * h, x2 + o * h)["W"] for w, o in coef) / h
    fd_m = sum(w * u_at(x1 + o * h, x2 - o * h)["W"] for w, o in coef) / h
    assert abs(uw["DpW"] - fd_p) < 1e-8 * max(1.0, abs(fd_p))
    assert abs(uw["DmW"] - fd_m) < 1e-8 * max(1.0, abs(fd_m))


def test_u_w_derivative_products(bank):
    # D+ u = -qt q and D+ U_hat = qt^ q^ against finite differences
    n, c, x1, x2 = CENTER
    e = bank.end(*CENTER)
    h = 1e-5
    ep = bank.end(n, c, x1 + h, x2 + h)
    em = bank.end(n, c, x1 - h, x2 - h)
    fd_u = (ep.u - em.u) / (2 * h)
    assert np.max(np.abs(fd_u + e.qt @ e.q)) < 1e-7
    fd_uhat = (ep.U_hat - em.U_hat) / (2 * h)
    q_hat, p_hat, qt_hat, pt_hat = hatted_vars(e)
    assert np.max(np.abs(fd_uhat - qt_hat @ q_hat)) < 1e-7
    fd_what = (ep.W_hat - em.W_hat) / (2 * h)
    assert np.max(np.abs(fd_what + pt_hat @ p_hat)) < 1e-7


def test_size_recursion_kernel_relations():
    # rank-1 projection recursions between kernel sizes n and n+1:
    # K_{n+1} e_L - e_L K_n = e_L Theta phi_n(x) phi_n(y)  and the e_U twin
    from coupled_gue.fredholm import THETA
    from coupled_gue.hermite import phi_matrix
    from coupled_gue.kernel import kernel_block

    n, c = 2, 0.5
    e_l, e_u = np.diag([1.0, c]), np.diag([c, 1.0])
    assert np.allclose(e_l @ e_u, c * I2)

    def kmat(nn, x, y):
        p = KernelParams(nn, c, 0.0, 0.0)
        return np.array([[float(kernel_block(i, j, x, y, p)) for j in (1, 2)]
                         for i in (1, 2)])

    for x, y in ((0.4, 1.3), (-1.0, 2.2)):
        phi_xy = (phi_matrix(n, np.array([x]))[n][0]
                  * phi_matrix(n, np.array([y]))[n][0])
        lhs = kmat(n + 1, x, y) @ e_l - e_l @ kmat(n, x, y)
        assert np.max(np.abs(lhs - e_l @ THETA * phi_xy)) < 1e-14
        lhs = e_u @ kmat(n + 1, x, y) - kmat(n, x, y) @ e_u
        assert np.max(np.abs(lhs - THETA @ e_u * phi_xy)) < 1e-14


def test_size_recursion_resolvent_relations(bank):
    # r_{n+1} e_L - e_L r_n = e_L q_n (I - Theta u_n)^(-1) Theta qt_n,
    # its e_U twin, and I + Theta w^_{n+1} = (I - Theta u_n)^(-1);
    # bare (unscaled) endpoint functions enter these.
    from coupled_gue.fredholm import THETA

    n, c, x1, x2 = 2, 0.5, 0.1, 0.6
    e_l, e_u = np.diag([1.0, c]), np.diag([c, 1.0])
    en = bank.end(n, c, x1, x2)
    en1 = bank.end(n + 1, c, x1, x2)
    scale = (n / 2.0) ** 0.25
    q_bare = en.q / scale
    qt_bare = en.qt / scale
    u_bare = en.u / math.sqrt(n / 2.0)
    w1_bare = en1.w / math.sqrt((n + 1) / 2.0)

    core = np.linalg.inv(I2 - THETA @ u_bare)
    lhs = en1.r @ e_l - e_l @ en.r
    rhs = e_l @ q_bare @ core @ THETA @ qt_bare
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))
    lhs = e_u @ en1.r - en.r @ e_u
    rhs = q_bare @ THETA @ np.linalg.inv(I2 - u_bare @ THETA) @ qt_bare @ e_u
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    w_hat1 = e_u @ w1_bare @ e_l / c
    assert np.max(np.abs(I2 + THETA @ w_hat1 - core)) <= 1e-10 * np.max(np.abs(core))


def test_derived_empty_limit(bank):
    d = bank.derived(2, 0.5, 12.0, 12.0)
    for name in ("X_t", "X_3", "A2", "G_t", "G_3"):
        assert abs(getattr(d, name)) < 1e-10
    assert d.F_hat == pytest.approx(-8.0, abs=1e-10)  # -4n


def test_sigma_constant():
    p = KernelParams(2, 0.5, 0.0, 0.0)
    assert p.sigma2 == pytest.approx(1.0 / 9.0, abs=1e-15)
