"""Acceptance suite: one test per exit criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Parameter grids operate where the discretization is well conditioned:
the 27-point identity grid uses endpoint pairs shifted with the spectral
edge, xi = offset + sqrt(2n) - 1/2.

Criterion 12 is asserted literally (m: 32 -> 64 changes ln P by < 1e-10 at
every parameter point the other criteria solve at).  Its tightest points are
the two deepest-tail points pinned by criterion 3 (n=3, xi=(-1, 12)), where
ln P ~ -13.  Each ray is one Gauss-Legendre panel on [xi, X_max]; the error
there sits in the K_11 panel of ray 1.  With a truncation margin of + 8 that
panel was [-1, sqrt(14)+8 = 11.74], while every phi_k with k < n is
negligible beyond about 8.7, so 32 nodes were pre-asymptotic on the stretched
panel and the determinant amplified their error to a 32->64 gap of 6.3e-8.
The + 5 margin keeps the neglected tail below 2e-22 and brings that gap to
3.7e-11.  At these points ln P carries a rounding floor of about eps/P ~ 1e-10:
the 64 -> 128 change there is 8e-11.
"""

import math

import numpy as np

from coupled_gue.fredholm import THETA
from coupled_gue.montecarlo import estimate_joint
from coupled_gue.observables import (
    build_quartet,
    hatted_vars,
    tau_ratio_consts,
    tau_ratios,
)
from coupled_gue.onematrix import solve_one_matrix
from coupled_gue.residuals import (
    PointCache,
    evaluate,
    painleve_boundary_check,
    richardson,
)

from conftest import rel_gap

M = 64

GRID_OFFSETS = [(-0.6, 0.0), (0.2, 0.8), (1.0, 0.2)]
GRID_N = (2, 3, 5)
GRID_C = (0.2, 0.5, 0.8)

UNIREL_PAIRS = [(0.9, 1.5), (1.7, 2.3), (2.5, 1.7)]
UNIREL_C = (0.3, 0.5, 0.7)

FD_CENTER = (0.0, 0.3, 0.5)
FD_EQS = [
    "thm1_00", "thm1_pt", "thm1_mt", "thm1_ps", "thm1_ms", "avm", "f4t",
    "cor_Ax", "cor_pm1", "cor_pm2", "cor_pm3", "cor_a",
    "fin_Axx", "fin_Ap2", "fin_Am2", "fin_aa", "fin_Px", "fin_Pp", "fin_Pa",
    "app_S", "app_Tt3", "app_pTt", "app_mT3", "app_DDA",
    "app_pB", "app_mB", "app_Bp", "app_Ap", "app_Am", "app_Ca",
]

CCOM_C = (0.3, 0.5, 0.7)
CCOM_XI = (0.3, -0.2)
PIV_XI1 = (-0.5, 0.0, 0.5)
MC_SEED = 20240601


def grid_pairs(n):
    shift = math.sqrt(2.0 * n) - 0.5
    return [(a + shift, b + shift) for a, b in GRID_OFFSETS]


def identity_grid():
    return [
        (n, c, x1, x2)
        for n in GRID_N
        for c in GRID_C
        for x1, x2 in grid_pairs(n)
    ]


def all_solve_points():
    """Every (n, c, xi1, xi2) parameter point criteria 1-11 solve at."""
    pts = {(1, 0.5, 0.0, 0.0)}
    for n in (1, 2, 3, 5):
        for c in GRID_C:
            pts.add((n, c, 12.0, 12.0))
    for n in (1, 2, 3):
        for c in (0.3, 0.7):
            for x1 in (-1.0, 0.0, 1.0):
                pts.add((n, c, x1, 12.0))
    for n in (1, 2, 3):  # unirel needs the n-1, n, n+1 solves
        for c in UNIREL_C:
            for xi in UNIREL_PAIRS:
                pts.add((n, c, *xi))
    pts.update(identity_grid())
    pts.add((2, FD_CENTER[2], FD_CENTER[0], FD_CENTER[1]))
    for c in CCOM_C:
        pts.add((2, c, *CCOM_XI))
    for x1 in PIV_XI1:
        pts.add((2, 0.5, x1, 12.0))
    for n in (2, 3):
        pts.add((n, 0.5, 0.5, 0.5))
    return sorted(pts)


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_orthant_oracle(bank):
    target = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    p = bank.sol(1, 0.5, 0.0, 0.0, M).prob
    gap = abs(p - target)
    ok = _verdict(1, gap <= 1e-8, f"orthant P=1/3, |gap|={gap:.2e}")
    assert ok


def test_criterion_02_whole_domain_normalization(bank):
    worst = 0.0
    for n in (1, 2, 3, 5):
        for c in GRID_C:
            e = bank.end(n, c, 12.0, 12.0, M)
            up, dn = tau_ratios(e, e.params)
            worst = max(worst, abs(up * dn - n / (2.0 * (1.0 - c * c))))
    ok = _verdict(2, worst <= 1e-8, f"tau product n/(2(1-c^2)), worst gap {worst:.2e}")
    assert ok


def test_criterion_03_one_matrix_limit(bank):
    worst = 0.0
    for n in (1, 2, 3):
        for c in (0.3, 0.7):
            for x1 in (-1.0, 0.0, 1.0):
                joint = bank.sol(n, c, x1, 12.0, M).prob
                scalar = solve_one_matrix(n, x1, M).prob
                worst = max(worst, abs(joint - scalar))
    ok = _verdict(3, worst <= 1e-8, f"one-matrix reduction, worst |dP|={worst:.2e}")
    assert ok


def test_criterion_04_unirel_tau_ratios(bank):
    n = 2
    worst = 0.0
    for c in UNIREL_C:
        up_c, dn_c = tau_ratio_consts(n, c)
        for x1, x2 in UNIREL_PAIRS:
            e = bank.end(n, c, x1, x2, M)
            up, dn = tau_ratios(e, e.params)
            pn = bank.sol(n, c, x1, x2, M).prob
            up_ind = bank.sol(n + 1, c, x1, x2, M).prob / pn * up_c
            dn_ind = bank.sol(n - 1, c, x1, x2, M).prob / pn * dn_c
            worst = max(worst, rel_gap(up, up_ind), rel_gap(dn, dn_ind))
    ok = _verdict(4, worst <= 1e-7, f"tau ratios vs size n+-1 solves, worst rel {worst:.2e}")
    assert ok


def test_criterion_05_lemma_tr(bank):
    worst = 0.0
    for n, c, x1, x2 in identity_grid():
        e = bank.end(n, c, x1, x2, M)
        lhs = float(np.trace(e.U_hat @ e.W_hat))
        rhs = float(np.trace(e.U_hat)) * float(np.trace(e.W_hat))
        worst = max(worst, rel_gap(lhs, rhs))
    ok = _verdict(5, worst <= 1e-9, f"Tr(UW)=TrU TrW over 27 points, worst rel {worst:.2e}")
    assert ok


def test_criterion_06_first_integrals_and_degeneracies(bank):
    worst = 0.0
    for n, c, x1, x2 in identity_grid():
        e = bank.end(n, c, x1, x2, M)
        q_hat, p_hat, qt_hat, pt_hat = hatted_vars(e)
        rhs1 = n * THETA - e.W_hat @ e.U_hat
        rhs2 = n * THETA - e.U_hat @ e.W_hat
        scale = max(np.max(np.abs(rhs1)), 1e-30)
        worst = max(worst, np.max(np.abs(pt_hat @ q_hat - rhs1)) / scale)
        worst = max(worst, np.max(np.abs(qt_hat @ p_hat - rhs2)) / scale)
        quartet = build_quartet(e)
        for mm in (quartet.X_plus + quartet.X_minus, quartet.X_plus - quartet.X_minus,
                   quartet.Phi + quartet.G, quartet.Phi - quartet.G):
            worst = max(worst, abs(np.linalg.det(mm)) / max(np.max(np.abs(mm)) ** 2, 1e-30))
    ok = _verdict(6, worst <= 1e-8, f"first integrals/det degeneracies, worst {worst:.2e}")
    assert ok


def test_criterion_07_fd_free_residuals():
    worst = 0.0
    for n, c, x1, x2 in identity_grid():
        cache = PointCache(n)
        for rep in evaluate(cache, (x1, x2, c), ids=["toda00", "cor_x"]):
            assert rep.status == "ok", (n, c, x1, x2, rep.equation)
            worst = max(worst, rep.relative)
    ok = _verdict(7, worst <= 1e-6, f"boundary-Toda and (x), worst rel {worst:.2e}")
    assert ok


def test_criterion_08_fd_residuals_with_convergence_order():
    cache = PointCache(2)
    bad = []
    worst = 0.0
    for rep in evaluate(cache, FD_CENTER, ids=FD_EQS):
        assert rep.status == "ok", rep.equation
        worst = max(worst, rep.relative)
        if rep.relative > 1e-4:
            bad.append((rep.equation, "tol", rep.relative))
    for eq in FD_EQS:
        info = richardson(cache, FD_CENTER, eq)
        if not info["ok"]:
            bad.append((eq, "order", info["slopes"]))
    ok = _verdict(8, not bad,
                  f"{len(FD_EQS)} FD residuals <= 1e-4 (worst {worst:.2e}) "
                  f"with Richardson order; issues: {bad}")
    assert ok


def test_criterion_09_ccom():
    worst = 0.0
    for c in CCOM_C:
        cache = PointCache(2)
        for rep in evaluate(cache, (*CCOM_XI, c), ids=["ccom_p", "ccom_m"]):
            assert rep.status == "ok"
            worst = max(worst, rep.relative)
    ok = _verdict(9, worst <= 1e-5, f"commutator vs 2c dc identities, worst rel {worst:.2e}")
    assert ok


def test_criterion_10_painleve_iv_boundary():
    worst_gap = 0.0
    worst_avm = 0.0
    for x1 in PIV_XI1:
        out = painleve_boundary_check(2, x1, 0.5, M)
        assert abs(out["one_matrix"]) <= 1e-5
        for name in ("P_t", "P_3", "P_x", "final_Px", "final_Pplus"):
            worst_gap = max(worst_gap, out[name + "_gap"])
        worst_avm = max(worst_avm, out["avm_relative"])
    ok = _verdict(10, worst_gap <= 1e-5 and worst_avm <= 1e-8,
                  f"Painleve IV boundary, worst gap {worst_gap:.2e}, "
                  f"AvM rel {worst_avm:.2e}")
    assert ok


def test_criterion_11_monte_carlo_cross_validation(bank):
    results = []
    for n in (2, 3):
        est = estimate_joint(n, 0.5, 0.5, 0.5, 200_000, seed=MC_SEED)
        p_num = bank.sol(n, 0.5, 0.5, 0.5, M).prob
        results.append((n, abs(est.p_hat - p_num), 4.0 * est.stderr))
    ok_all = all(gap <= bound for _, gap, bound in results)
    detail = ", ".join(f"n={n}: |dP|={g:.2e} vs 4se={b:.2e}" for n, g, b in results)
    ok = _verdict(11, ok_all, f"MC cross-validation, {detail}")
    assert ok


def test_criterion_12_quadrature_convergence(bank):
    failures = []
    for n, c, x1, x2 in all_solve_points():
        gap = abs(bank.sol(n, c, x1, x2, 32).log_prob
                  - bank.sol(n, c, x1, x2, 64).log_prob)
        if gap >= 1e-10:
            failures.append(((n, c, x1, x2), gap))
    detail = (f"32->64 ln P gaps at {len(all_solve_points())} points; "
              f"failures: {[(p, f'{g:.2e}') for p, g in failures]}")
    ok = _verdict(12, not failures, detail)
    assert ok, (
        "the 32-node rule is pre-asymptotic at the deep-tail points pinned "
        "by criterion 3; see the module docstring for the analysis"
    )
