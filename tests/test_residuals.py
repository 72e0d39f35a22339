import dataclasses
import json
import math

import pytest

from coupled_gue import gram, residuals
from coupled_gue.residuals import (
    DEFAULT_STENCIL,
    EQUATION_IDS,
    HIGHER_ORDER_IDS,
    PointCache,
    Stencil,
    evaluate,
    painleve_boundary_check,
    richardson,
)

CENTER = (0.0, 0.3, 0.5)
THM1_IDS = ["thm1_00", "thm1_pt", "thm1_mt", "thm1_ps", "thm1_ms"]
COR_IDS = ["cor_x", "cor_Ax", "cor_pm1", "cor_pm2", "cor_pm3", "cor_a"]
FIN_IDS = ["fin_Axx", "fin_Ap2", "fin_Am2", "fin_aa", "fin_Px", "fin_Pp", "fin_Pa"]
APP_IDS = [i for i in EQUATION_IDS if i.startswith("app_")]


@pytest.fixture(scope="module")
def cache():
    return PointCache(2)


def test_all_default_equations_pass(cache):
    reports = evaluate(cache, CENTER)
    assert len(reports) == len(EQUATION_IDS)
    for r in reports:
        assert r.status == "ok", r.equation
        assert r.passed, (r.equation, r.relative)


def test_fd_free_residuals_independent_of_stencil(cache):
    for eq in ("toda00", "app_Bp"):
        vals = [
            evaluate(cache, CENTER, Stencil(h_xi=h, h_c=1e-3), ids=[eq])[0]
            for h in (5e-3, 2e-2)
        ]
        assert vals[0].residual == vals[1].residual


def test_boundary_toda_trivial_limit(cache):
    rep = evaluate(cache, (12.0, 12.0, 0.5), ids=["toda00"])[0]
    assert rep.relative <= 1e-9


def test_boundary_toda_converged_in_tail_length(monkeypatch):
    # doubling the K_12 tail of the Gram route leaves the residual at its floor
    short = evaluate(PointCache(2), CENTER, ids=["toda00"])[0]
    tail = gram.tail_length
    monkeypatch.setattr(gram, "tail_length", lambda c: 2 * tail(c))
    long = evaluate(PointCache(2), CENTER, ids=["toda00"])[0]
    assert abs(long.residual - short.residual) <= 1e-13 * short.scale
    assert long.relative <= 1e-6


@pytest.mark.parametrize("n, center, ids", [
    (2, (0.0, 0.3, 0.5), None),
    (5, (3.1364, 1.4037, 0.6791), HIGHER_ORDER_IDS),
    (2, (0.0, 0.3, 0.5), ["ccom_p"]),
], ids=["default", "fifth-order", "subset"])
def test_one_gram_batch_per_center(monkeypatch, n, center, ids):
    # the recording pass computes nothing, and every point it records is
    # computed in the one batch that follows it
    cache = PointCache(n)
    calls = []

    def counted(batch):
        def wrapper(arg, *rest):
            calls.append((batch.__name__, len(arg), cache._record is not None))
            return batch(arg, *rest)
        return wrapper

    for name in ("solve_batch", "endpoint_batch"):
        monkeypatch.setattr(residuals, name, counted(getattr(residuals, name)))
    evaluate(cache, center, ids=ids)
    assert [(name, recording) for name, _, recording in calls] == \
        [("solve_batch", False), ("endpoint_batch", False)]
    assert calls[0][1] == len(cache._T)


@pytest.mark.parametrize("n, center", [(20, (4.0, 4.5, 0.1)), (50, (9.0, 9.5, 0.2))])
def test_a_point_held_for_ln_p_only_is_solved_again_for_its_row(monkeypatch, n, center):
    # the center and its c-neighbours are first read for ln P only, then
    # evaluate reads their rows; two points evaluate reads for ln P only are
    # held too, and are not solved again
    x1, x2, c = center
    t_only = [(x1, x2, cc) for cc in (c, c + DEFAULT_STENCIL.h_c, c - DEFAULT_STENCIL.h_c)]
    fresh = PointCache(n)
    want = json.dumps([r.to_dict() for r in evaluate(fresh, center)])
    kept_t = [key for key in fresh._T if key not in fresh._rows][:2]
    cache = PointCache(n)
    cache.batched(lambda: [cache.T(*key) for key in t_only + kept_t])
    held = set(cache._T)
    solved = []
    solve = residuals.solve_batch

    def kept(ps):
        solved.append([(p.xi1, p.xi2, p.c) for p in ps])
        return solve(ps)

    monkeypatch.setattr(residuals, "solve_batch", kept)
    got = json.dumps([r.to_dict() for r in evaluate(cache, center)])
    assert solved == [[key for key in fresh._T if key in fresh._rows or key not in held]]
    assert set(t_only) <= set(solved[0])
    assert len(kept_t) == 2 and not set(kept_t) & set(solved[0])
    assert got == want


def test_a_read_the_recording_missed_raises():
    cache = PointCache(2)
    with pytest.raises(KeyError):
        cache.point(*CENTER)
    # reads that depend on the values: the second pass reads a row the first did not
    with pytest.raises(KeyError):
        cache.batched(lambda: math.isnan(cache.T(*CENTER)) or cache.point(*CENTER))


def test_theorem1_reports(cache):
    reports = evaluate(cache, CENTER, ids=THM1_IDS)
    assert [r.equation for r in reports] == THM1_IDS
    for r in reports:
        assert r.relative <= 1e-5, (r.equation, r.relative)


@pytest.mark.parametrize("center", [
    (7.405963885845, 7.035718991962, 0.51427486728),
    (7.462907270274, 7.229898620612, 0.36460914991),
    (7.084195992772, 6.978156975943, 0.320312568146),
])
def test_theorem1_c_differences_at_n10(center):
    # the c-differences divide any change of U's or W's scale between c +- h_c
    # by 2 h_c, so the scales must not vary with c, not even in their last bits
    for r in evaluate(PointCache(10), center, ids=THM1_IDS[1:]):
        if r.status == "ok":
            assert r.relative <= 1e-5, (r.equation, r.relative)


def test_theorem1_one_matrix_limit(cache):
    # xi2 -> +inf reduces the system to the single-matrix equations
    for r in evaluate(cache, (0.0, 12.0, 0.5), ids=THM1_IDS):
        assert r.relative <= 1e-5, (r.equation, r.relative)


def test_theorem1_c_step_halving(cache):
    info = richardson(cache, CENTER, "thm1_pt")
    assert info["ok"]
    assert any(abs(s - 2.0) <= 0.4 for s in info["slopes"])


def test_theorem1_stencil_c_guard(cache):
    with pytest.raises(ValueError):
        evaluate(cache, (0.0, 0.3, 0.0015), ids=THM1_IDS)


def test_avm_generic_point(cache):
    rep = evaluate(cache, CENTER, ids=["avm"])[0]
    assert rep.status == "ok"
    assert rep.relative <= 1e-4
    assert abs(rep.extras["F"]) > 1e-3  # denominator bounded away from zero


def test_avm_trivial_in_one_matrix_limit(cache):
    rep = evaluate(cache, (0.0, 12.0, 0.5), ids=["avm"])[0]
    assert rep.relative <= 1e-8


def test_f4t_generic_and_cross_formalism(cache):
    rep = evaluate(cache, CENTER, ids=["f4t"])[0]
    assert rep.relative <= 1e-4
    # Toda-route evaluation equals the 2Fhat*(Tt3) - (x) combination of the
    # matrix-kernel route after the /64 rescaling
    assert abs(rep.extras["combo_diff"]) <= 1e-5 * rep.scale


def test_f4t_trivial_at_infinity(cache):
    rep = evaluate(cache, (12.0, 12.0, 0.5), ids=["f4t"])[0]
    assert abs(rep.residual) <= 1e-10


def test_corollary_main_reports(cache):
    reports = evaluate(cache, CENTER, ids=COR_IDS)
    ids = [r.equation for r in reports]
    assert ids == COR_IDS
    assert reports[0].relative <= 1e-7  # (x) is FD-free
    for r in reports[1:]:
        assert r.relative <= 1e-5


def test_corollary_x_degenerate_on_diagonal(cache):
    # X_3 vanishes on xi1 = xi2; the check must be skipped, not failed
    reports = evaluate(cache, (0.2, 0.2, 0.5), ids=COR_IDS)
    by_id = {r.equation: r for r in reports}
    assert by_id["cor_x"].status == "degenerate"
    assert by_id["cor_x"].passed is None


def test_ccom_pair(cache):
    for c in (0.3, 0.5, 0.7):
        for rep in evaluate(cache, (0.3, -0.2, c), ids=["ccom_p", "ccom_m"]):
            assert rep.relative <= 1e-5, (rep.equation, c, rep.relative)


def test_ccom_trivial_limit(cache):
    for rep in evaluate(cache, (12.0, 12.0, 0.5), ids=["ccom_p", "ccom_m"]):
        assert rep.status == "degenerate" or abs(rep.residual) <= 1e-9


def test_ccom_a_pm_correspondences(cache):
    # A+ = 4((1-c^2) dc r_t - xi_+ sigma^2 A^2);
    # A- = -4((1-c^2) dc r_3 + xi_- A^2)
    x1, x2, c = CENTER
    hc = 1e-3
    d, up, down = cache.batched(lambda: [cache.point(x1, x2, cc) for cc in (c, c + hc, c - hc)])
    dcrt = (up.r_t - down.r_t) / (2 * hc)
    dcr3 = (up.r_3 - down.r_3) / (2 * hc)
    ap = 4.0 * ((1 - c * c) * dcrt - (x1 + x2) * d.sigma2 * d.A2)
    am = -4.0 * ((1 - c * c) * dcr3 + (x1 - x2) * d.A2)
    assert abs(d.A_plus - ap) <= 1e-5 * max(1.0, abs(d.A_plus))
    assert abs(d.A_minus - am) <= 1e-5 * max(1.0, abs(d.A_minus))


def test_final_four_reports(cache):
    reports = evaluate(cache, CENTER, ids=FIN_IDS)
    assert [r.equation for r in reports] == FIN_IDS
    for r in reports:
        assert r.relative <= 1e-5, (r.equation, r.relative)


def test_final_four_degenerate_guard(cache):
    # at xi2 -> inf, Delta -> 0: the one-matrix degeneration is skipped
    reports = evaluate(cache, (0.0, 12.0, 0.5), ids=FIN_IDS)
    assert all(r.status == "degenerate" for r in reports)


def test_appendix_reports(cache):
    reports = evaluate(cache, CENTER, ids=APP_IDS)
    for r in reports:
        assert r.relative <= 1e-4, (r.equation, r.relative)


def test_higher_order_equations(cache):
    reports = evaluate(cache, CENTER, ids=HIGHER_ORDER_IDS, include_higher=True)
    for r in reports:
        assert r.relative <= 1e-2, (r.equation, r.relative)


def test_richardson_fourth_order(cache):
    for eq in ("cor_Ax", "app_S", "fin_Px"):
        info = richardson(cache, CENTER, eq)
        assert info["ok"], info
        assert any(abs(s - 4.0) <= 0.8 for s in info["slopes"])


def test_richardson_fifth_order(cache):
    # both steps scale, so the 2nd-order truncation shows in every id
    for eq in HIGHER_ORDER_IDS:
        info = richardson(cache, CENTER, eq)
        assert info["ok"], info
        assert all(abs(s - 2.0) <= 0.4 for s in info["slopes"]), info


def test_appendix_c_reduction_identity(cache):
    # D+ applied to the (x) expression equals
    # D- X_t * (+Tt expression) + 2 Fhat X_3 D+ X_t * (Tt3 expression)
    # modulo lower-order residual noise.
    x1, x2, c = CENTER
    st = DEFAULT_STENCIL
    h = st.h_xi
    coef = [(1.0 / 12, -2), (-2.0 / 3, -1), (2.0 / 3, 1), (-1.0 / 12, 2)]

    def x_expr(a, b):
        d = cache.point(a, b, c)
        return d.Phi_t * d.Phi_3 - 2.0 * d.X_t * d.X_3 * d.F_hat - d.G_t * d.G_3

    def dfield(name, direction):
        f = cache.f(name)
        return sum(w * f(x1 + o * h * direction[0], x2 + o * h * direction[1], c)
                   for w, o in coef) / h

    def sides():
        dp_x_expr = sum(w * x_expr(x1 + o * h, x2 + o * h) for w, o in coef) / h
        d = cache.point(*CENTER)
        ptt_expr = (2.0 * d.F_hat * d.X_3 * dfield("Phi_t", (1, 1))
                    - 2.0 * d.F_hat * (d.DpX3 * d.Phi_t - d.R_t * d.G_3
                                       + (x1 + x2) * d.X_3 * d.G_t)
                    - d.X_3 * (d.Phi_t**2 - d.G_t**2))
        tt3_expr = (dfield("Phi_3", (1, 1)) - (x1 - x2) * d.G_t - (x1 + x2) * d.G_3
                    - d.X_3 * (3.0 * d.X_t - 8.0 * cache.n))
        # expressions enter at senior-term-normalization: (+Tt)/(2 Fhat X_3)
        # carries unit coefficient on D+ Phi_t, (Tt3) on D+ Phi_3
        combo = (d.Phi_3 * ptt_expr / (2.0 * d.F_hat * d.X_3)
                 + d.Phi_t * tt3_expr)
        scale = max(abs(d.Phi_t * d.Phi_3), abs(2.0 * d.F_hat * d.X_t * d.X_3), 1.0)
        return dp_x_expr, combo, scale

    dp_x_expr, combo, scale = cache.batched(sides)
    assert abs(dp_x_expr - combo) <= 1e-3 * scale


def test_pa_over_delta_vanishes_in_tail(cache):
    # |A^2 P_a / Delta| -> 0 monotonically as xi2 grows
    from coupled_gue.observables import final_composites
    from coupled_gue.residuals import _fd_thirds

    prev = math.inf
    for x2 in (1.5, 2.5, 3.5, 4.5):
        center = (0.0, x2, 0.5)
        d, fd = cache.batched(lambda: (cache.point(*center),
                                       _fd_thirds(cache, center, DEFAULT_STENCIL)))
        comp = final_composites(
            phi_t=fd["phi_t"], phi_3=fd["phi_3"], dp_a2=fd["dp_a2"],
            dm_a2=fd["dm_a2"], x_t=d.X_t, x_3=d.X_3, a2=d.A2,
            f_hat=d.F_hat, j=d.J, h_t=d.H_t, h_3=d.H_3, sigma2=d.sigma2,
        )
        ratio = abs(d.A2 * comp["P_a"] / comp["Delta"])
        assert ratio < prev
        prev = ratio
    assert prev < 1e-12


def test_report_serialization(cache):
    rep = evaluate(cache, CENTER, ids=["toda00"])[0]
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(blob)
    for key in ("equation", "center", "residual", "scale", "relative",
                "tolerance", "passed"):
        assert key in back


def test_report_dict_is_asdict_without_the_deep_copy(cache):
    for rep in evaluate(cache, CENTER, include_higher=True):
        d = rep.to_dict()
        assert json.dumps(d, sort_keys=True) == json.dumps(dataclasses.asdict(rep), sort_keys=True)
        d["center"]["n"] = -1
        d["extras"]["added"] = 1.0
        assert rep.center["n"] == 2
        assert "added" not in rep.extras


def test_unknown_equation_id(cache):
    with pytest.raises(ValueError):
        evaluate(cache, CENTER, ids=["nope"])


def test_painleve_boundary(cache):
    out = painleve_boundary_check(2, 0.0, 0.5)
    assert abs(out["one_matrix"]) <= 1e-5
    for name in ("P_t", "P_3", "P_x", "final_Px", "final_Pplus"):
        assert out[name + "_gap"] <= 1e-5, name
    assert out["avm_relative"] <= 1e-8


def test_stencil_validation():
    with pytest.raises(ValueError):
        Stencil(h_xi=0.0)
    Stencil().check_c(0.5)
    with pytest.raises(ValueError):
        Stencil(h_c=0.3).check_c(0.5)
