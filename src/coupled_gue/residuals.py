"""Numerical residual evaluation for every PDE and first integral.

Each equation is evaluated on a (xi1, xi2, c) stencil around a center
point.  Quantities up to second derivatives of ln tau come exact from the
closed first-order system (see observables); only the highest derivative of
each equation is taken by finite differences of those exact fields:
4th-order central stencils in the endpoint directions, 2nd-order in the
coupling c.  The fifth-order equations (HIGHER_ORDER_IDS) nest more
differences, so they take 2nd-order stencils at 4x both steps.  Reports
carry the residual, the magnitude scale of the constituent terms, and the
relative residual, which is what tolerances apply to.

Every point value comes from the closed-form Gram route (`gram`), with no
quadrature.  A PointCache holds values only: T = ln P + ln tau_n per stencil
point, and a row of observables per point whose row was read.

A field is a function of one point (xi1, xi2, c), and _d_dir and _d_c sum
its values at their offsets, in the order of the offsets.  The evaluators
are the only code that knows the stencils: evaluate() runs the requested
groups twice, through PointCache.batched.  In the first, recording pass
every value reads NaN, and the cache notes every point the groups read and
whether they read its row or only T.  What the cache lacks of those reads
is then computed as one batch, and a batch builds the tables it reads:
their ray tables, M and ln det M (`gram.solve_batch`), then, at the points
whose row was read, the endpoint matrices (`gram.endpoint_batch`) and the
observables on the same leading point axis, which become one row of Python
floats per point.  The second pass runs the groups on those values.  A
point has the same bits in any batch, so every residual has the bits of a
point-by-point evaluation.

Equations whose natural scale collapses at a center (empty-constraint
limits xi -> inf, or the X_3 = 0 locus xi1 = xi2) are downgraded to
status "degenerate" instead of producing meaningless ratios.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .kernel import KernelParams
from .gram import endpoint_batch, solve_batch
from .observables import (
    DerivedQuantities,
    build_quartet,
    build_derived,
    hatted_vars,
    theorem1_uw,
    log_tau_n,
    final_composites,
    square,
)
from .onematrix import painleve_iv_residual
from .quadrature import DEFAULT_M

__all__ = [
    "Stencil",
    "StencilError",
    "ResidualReport",
    "PointCache",
    "EQUATION_IDS",
    "HIGHER_ORDER_IDS",
    "evaluate",
    "richardson",
    "painleve_boundary_check",
]

# 4th/2nd-order central first-derivative stencils: (offsets, weights)
_D1 = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12, -2.0 / 3, 2.0 / 3, -1.0 / 12)),
}

_DEGENERATE_SCALE = 1e-13
_X3_GUARD = 1e-7
_A2_GUARD = 1e-10
_FHAT_GUARD = 1e-10
_DELTA_GUARD = 1e-12


class StencilError(ValueError):
    """A stencil that cannot be evaluated: a step that is not positive and
    finite, or a c-difference that leaves (0, 1) at the center."""


@dataclass(frozen=True)
class Stencil:
    """FD steps around a center: h_xi along the endpoints, h_c along c."""

    h_xi: float = 5e-3
    h_c: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.h_xi < math.inf and 0.0 < self.h_c < math.inf):
            raise StencilError("stencil steps must be positive and finite")

    def check_c(self, c: float) -> None:
        if not (0.0 < c - 2 * self.h_c and c + 2 * self.h_c < 1.0):
            raise StencilError(f"c={c} too close to (0,1) boundary for h_c={self.h_c}")

    def scaled(self, f: float) -> "Stencil":
        return Stencil(h_xi=f * self.h_xi, h_c=f * self.h_c)


DEFAULT_STENCIL = Stencil()


@dataclass
class ResidualReport:
    equation: str
    center: dict
    residual: float
    scale: float
    relative: float
    tolerance: float
    passed: bool | None   # None when the check was skipped as degenerate
    status: str = "ok"
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields as a dict, as dataclasses.asdict gives them; center and
        extras are copied, their values are numbers."""
        return {
            "equation": self.equation,
            "center": dict(self.center),
            "residual": self.residual,
            "scale": self.scale,
            "relative": self.relative,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "status": self.status,
            "extras": dict(self.extras),
        }


# One point's values as Python floats, its 2x2 matrices as nested lists: the
# fields of DerivedQuantities, theorem 1's U and W with their first
# derivatives, and r.  The recording pass reads NaN in every value.
_Row = namedtuple("_Row", [f.name for f in fields(DerivedQuantities)]
                  + ["U", "W", "DpU", "DmU", "DpW", "DmW", "r"])
_NAN_ROW = _Row._make([[math.nan] * 2] * 2 if k in ("r", "dp_r", "dm_r") else math.nan
                      for k in _Row._fields)


class PointCache:
    """The values of the Gram route per (xi1, xi2, c) at one n, shared by all
    residuals: T = ln P + ln tau_n at every point a batch solved, and the row
    of values at every point whose row was read.

    Only batched() fills it.  A batch builds the ray tables it reads, so a
    batched() run builds each of its endpoints' tables once.
    """

    def __init__(self, n: int):
        self.n = n
        self._T: dict = {}
        self._rows: dict = {}
        self._record = None     # key -> whether its row was read, during a recording pass

    def point(self, xi1: float, xi2: float, c: float) -> _Row:
        """The point's row of values."""
        key = (xi1, xi2, c)
        if self._record is not None:
            self._record[key] = True
            return _NAN_ROW
        return self._rows[key]

    def T(self, xi1: float, xi2: float, c: float) -> float:
        """ln P + ln tau_n at the point."""
        key = (xi1, xi2, c)
        if self._record is not None:
            self._record.setdefault(key, False)
            return math.nan
        return self._T[key]

    def batched(self, run):
        """run() twice, and the second result.  The first, recording pass
        reads NaN for every value and notes every point run reads, and
        whether it reads the row or only T.  One batch then computes what
        the cache lacks of those reads: it solves each such point, one held
        for T only and now read for its row included (a point has the same
        bits in any batch), and builds the rows that were read.  The second
        pass reads the values.  Which points run reads must not depend on
        their values: a read the recording missed raises KeyError.  Not
        reentrant."""
        self._record = {}
        try:
            run()
            recorded = self._record
        finally:
            self._record = None
        todo = [k for k, observed in recorded.items()
                if k not in (self._rows if observed else self._T)]
        if todo:
            sols = solve_batch([KernelParams(self.n, c, x1, x2) for x1, x2, c in todo])
            for key, sol in zip(todo, sols):
                self._T[key] = sol.log_prob + log_tau_n(self.n, key[2])
            seen = [(key, sol) for key, sol in zip(todo, sols) if recorded[key]]
            if seen:
                e = endpoint_batch([sol for _, sol in seen])
                hats = hatted_vars(e)
                vals = {**vars(build_derived(e, build_quartet(e, hats), e.params)),
                        **theorem1_uw(e, e.params, hats), "r": e.r}
                cols = (vals[k] for k in _Row._fields)
                rows = zip(*(v.tolist() if isinstance(v, np.ndarray) else v for v in cols))
                self._rows.update(zip((key for key, _ in seen), map(_Row._make, rows)))
        return run()

    def f(self, name: str):
        """The field (xi1, xi2, c) -> the value `name` of the point's row."""
        return lambda x1, x2, c: getattr(self.point(x1, x2, c), name)


def _d_dir(f, x1, x2, c, direction, h, order=4):
    """Directional derivative along `direction` in the xi-plane."""
    dx1, dx2 = direction
    return sum(w * f(x1 + o * h * dx1, x2 + o * h * dx2, c) for o, w in zip(*_D1[order])) / h


def _d_c(f, x1, x2, c, hc):
    return (f(x1, x2, c + hc) - f(x1, x2, c - hc)) / (2.0 * hc)


def _a0(x1, x2, c, d1, d2, dc, tilde=False):
    """A_0 = x1 D_1 + c^2 x2 D_2 - (1-c^2) c D_c on given partials; tilde: At_0 (1 <-> 2)."""
    if tilde:
        x1, x2, d1, d2 = x2, x1, d2, d1
    return x1 * d1 + c * c * x2 * d2 - (1.0 - c * c) * c * dc


def _mk_report(eq, cache, center, residual, terms, tol, status="ok", extras=None):
    x1, x2, c = center
    scale = max((abs(t) for t in terms), default=0.0)
    if status == "ok" and scale < _DEGENERATE_SCALE:
        status = "degenerate"
    if status == "ok":
        relative = float(abs(residual) / scale)
        passed = bool(relative <= tol)
    else:
        relative = math.nan
        passed = None
    return ResidualReport(
        equation=eq,
        center={"n": cache.n, "c": c, "xi1": x1, "xi2": x2},
        residual=float(residual),
        scale=float(scale),
        relative=float(relative),
        tolerance=tol,
        passed=passed,
        status=status,
        extras={k: float(v) for k, v in (extras or {}).items()},
    )


def _degenerate_guard(eq_id, d, *, x3=False, a2f=False, delta=None):
    """Return a degenerate-status string or 'ok'."""
    if x3 and abs(d.X_3) < _X3_GUARD * max(1.0, abs(d.X_t)):
        return "degenerate"
    if a2f and (abs(d.A2) < _A2_GUARD or abs(d.F_hat) < _FHAT_GUARD):
        return "degenerate"
    if delta is not None and abs(delta) < _DELTA_GUARD:
        return "degenerate"
    return "ok"


# --------------------------------------------------------------------------
# FD-free residuals
# --------------------------------------------------------------------------

def _eval_toda00(cache, center, st, eq_id="toda00", tol=1e-6):
    x1, x2, c = center
    d = cache.point(x1, x2, c)
    sig2 = d.sigma2
    lhs = (1.0 + c) ** 2 / 4.0 * (d.dp_rt - sig2 * d.dm_r3)
    uw_prod = d.tr_U * d.tr_W / 4.0
    t_uw = 4.0 * c * uw_prod
    t_n = 2.0 * c * cache.n
    return [
        _mk_report(eq_id, cache, center, lhs - t_uw + t_n, [lhs, t_uw, t_n], tol)
    ]


def _eval_cor_x(cache, center, st, tol=1e-6):
    x1, x2, c = center
    d = cache.point(x1, x2, c)
    terms = [d.Phi_t * d.Phi_3, 2.0 * d.X_t * d.X_3 * d.F_hat, d.G_t * d.G_3]
    res = terms[0] - terms[1] - terms[2]
    status = _degenerate_guard("cor_x", d, x3=True)
    return [_mk_report("cor_x", cache, center, res, terms, tol, status)]


# --------------------------------------------------------------------------
# Toda-side system (theorem-1 AKNS equations), AvM, F4T
# --------------------------------------------------------------------------

def _a2t_exact(d, c, tilde=False):
    """A^2 T or At^2 T from exact second derivatives."""
    sig = math.sqrt(d.sigma2)
    s = -1.0 if tilde else 1.0
    return square(1.0 + c) / 4.0 * (
        d.dp_rt + 2.0 * s * sig * d.dp_r3 + d.sigma2 * d.dm_r3
    )


def _eval_theorem1(cache, center, st, tol=1e-4):
    x1, x2, c = center
    st.check_c(c)
    d = cache.point(x1, x2, c)
    a2t = _a2t_exact(d, c)
    at2t = _a2t_exact(d, c, tilde=True)

    def a_of(which, sign):
        """A (sign +1) or At (sign -1) applied to the field U or W."""
        def fval(a, b, cc):
            s = (1.0 - cc) / (1.0 + cc)
            u = cache.point(a, b, cc)
            return (1.0 + cc) / 2.0 * (getattr(u, "Dp" + which)
                                       + sign * s * getattr(u, "Dm" + which))
        return fval

    reports = _eval_toda00(cache, center, st, eq_id="thm1_00", tol=1e-6)
    for which, sgn, ids in (("U", +1.0, ("thm1_pt", "thm1_ps")),
                            ("W", -1.0, ("thm1_mt", "thm1_ms"))):
        val, dp, dm = (getattr(d, pre + which) for pre in ("", "Dp", "Dm"))
        d1 = (dp + dm) / 2.0
        d2 = (dp - dm) / 2.0
        dc = _d_c(cache.f(which), x1, x2, c, st.h_c)
        a0 = _a0(x1, x2, c, d1, d2, dc)
        at0 = _a0(x1, x2, c, d1, d2, dc, tilde=True)
        a2v = _d_dir(a_of(which, 1.0), x1, x2, c, (1.0, c), st.h_xi)
        at2v = _d_dir(a_of(which, -1.0), x1, x2, c, (c, 1.0), st.h_xi)
        res_t = a2v + 2.0 * sgn * a0 + 2.0 * a2t * val
        res_s = at2v + 2.0 * sgn * at0 + 2.0 * at2t * val
        reports.append(
            _mk_report(ids[0], cache, center, res_t,
                       [a2v, 2.0 * a0, 2.0 * a2t * val], tol)
        )
        reports.append(
            _mk_report(ids[1], cache, center, res_s,
                       [at2v, 2.0 * at0, 2.0 * at2t * val], tol)
        )
    return reports


def _a0t_field(cache, hc, tilde=False):
    """A_0 T (or At_0 T) as a field; the c-derivative is 2nd-order FD."""
    def fval(x1, x2, c):
        d = cache.point(x1, x2, c)
        r_t, r_3 = d.r_t, d.r_3
        return _a0(x1, x2, c, (r_t + r_3) / 2.0, (r_t - r_3) / 2.0,
                   _d_c(cache.T, x1, x2, c, hc), tilde)

    return fval


def _g_field(cache, st, tilde=False, order=4):
    """G = A T - At A_0 T / (2c) as a field; tilde: G~ = At T - A At_0 T / (2c).

    A = D_1 + c D_2 = (1+c)/2 (D_+ + sigma D_-), At = c D_1 + D_2 (1 <-> 2).
    """
    a0t = _a0t_field(cache, st.h_c, tilde)
    sign = -1.0 if tilde else 1.0

    def fval(a, b, cc):
        d = cache.point(a, b, cc)
        s = math.sqrt(d.sigma2)
        a_t = (1.0 + cc) / 2.0 * (d.r_t + sign * s * d.r_3)
        dirv = (1.0, cc) if tilde else (cc, 1.0)
        return a_t - _d_dir(a0t, a, b, cc, dirv, st.h_xi, order) / (2.0 * cc)

    return fval


def _f_field(cache):
    n = cache.n

    def fval(x1, x2, c):
        d = cache.point(x1, x2, c)
        s2 = d.sigma2
        return (d.dp_rt - s2 * d.dm_r3) / (4.0 * (1.0 - s2)) + n / 2.0

    return fval


def _eval_avm(cache, center, st, tol=1e-4):
    x1, x2, c = center
    st.check_c(c)
    ff = _f_field(cache)

    def g_over_f(tilde):
        g_f = _g_field(cache, st, tilde)
        return lambda a, b, cc: g_f(a, b, cc) / ff(a, b, cc)

    f0 = ff(x1, x2, c)
    status = "degenerate" if abs(f0) < _FHAT_GUARD else "ok"
    lhs = _d_dir(g_over_f(True), x1, x2, c, (1.0, c), st.h_xi)
    rhs = _d_dir(g_over_f(False), x1, x2, c, (c, 1.0), st.h_xi)
    return [
        _mk_report("avm", cache, center, lhs - rhs, [lhs, rhs], tol, status,
                   extras={"lhs": lhs, "rhs": rhs, "F": f0})
    ]


def _eval_f4t(cache, center, st, tol=1e-4):
    x1, x2, c = center
    st.check_c(c)
    n = cache.n
    ff = _f_field(cache)
    rt_f = cache.f("r_t")
    r3_f = cache.f("r_3")

    def gp(a, b, cc):
        d = cache.point(a, b, cc)
        s2 = d.sigma2
        xp_, xm_ = a + b, a - b
        dcrt = _d_c(rt_f, a, b, cc, st.h_c)
        return (0.5 * d.r_t - 0.25 * xp_ * d.dp_rt - 0.25 * xm_ * d.dp_r3
                + 0.5 * (1.0 - cc * cc) * dcrt
                - 0.5 * xp_ * s2 * (d.dp_rt - d.dm_r3) / (1.0 - s2))

    def gm(a, b, cc):
        d = cache.point(a, b, cc)
        s2 = d.sigma2
        xp_, xm_ = a + b, a - b
        dcr3 = _d_c(r3_f, a, b, cc, st.h_c)
        return (0.5 * d.r_3 - 0.25 * xm_ * d.dm_r3 - 0.25 * xp_ * d.dp_r3
                - 0.5 * (1.0 - cc * cc) * dcr3
                - 0.5 * xm_ * (d.dp_rt - d.dm_r3) / (1.0 - s2))

    d0 = cache.point(x1, x2, c)
    f0 = ff(x1, x2, c)
    gp0 = gp(x1, x2, c)
    gm0 = gm(x1, x2, c)
    dpf = _d_dir(ff, x1, x2, c, (1, 1), st.h_xi)
    dmf = _d_dir(ff, x1, x2, c, (1, -1), st.h_xi)

    def dmf_field(a, b, cc):
        return _d_dir(ff, a, b, cc, (1, -1), st.h_xi)

    dpdmf = _d_dir(dmf_field, x1, x2, c, (1, 1), st.h_xi)
    xp_, xm_ = x1 + x2, x1 - x2
    terms = [
        2.0 * f0 * dpdmf,
        dpf * dmf,
        gp0 * gm0,
        2.0 * f0 * (xm_ * gp0 + xp_ * gm0),
        8.0 * d0.dp_r3 * f0 * f0,
    ]
    res = terms[0] - terms[1] + terms[2] + terms[3] + terms[4]
    # cross-formalism check: 2 Fhat * (Tt3) - (x), rescaled by 64, matches
    dpdmxt = _d_dir(
        lambda a, b, cc: _d_dir(cache.f("X_t"), a, b, cc, (1, -1), st.h_xi),
        x1, x2, c, (1, 1), st.h_xi,
    )
    tt3_expr = dpdmxt - xm_ * d0.G_t - xp_ * d0.G_3 - d0.X_3 * (3.0 * d0.X_t - 8.0 * n)
    x_expr = d0.Phi_t * d0.Phi_3 - 2.0 * d0.X_t * d0.X_3 * d0.F_hat - d0.G_t * d0.G_3
    combo = (2.0 * d0.F_hat * tt3_expr - x_expr) / 64.0
    return [
        _mk_report("f4t", cache, center, res, terms, tol,
                   extras={"tw_combo": combo, "combo_diff": res - combo})
    ]


# --------------------------------------------------------------------------
# Corollary system, ccom, final-four, appendix equations (TW side)
# --------------------------------------------------------------------------

def _fd_thirds(cache, center, st):
    """FD values of the four senior derivatives on exact fields."""
    x1, x2, c = center
    xt_f = cache.f("X_t")
    a2_f = cache.f("A2")
    return {
        "phi_t": _d_dir(xt_f, x1, x2, c, (1, 1), st.h_xi),
        "phi_3": _d_dir(xt_f, x1, x2, c, (1, -1), st.h_xi),
        "dp_a2": _d_dir(a2_f, x1, x2, c, (1, 1), st.h_xi),
        "dm_a2": _d_dir(a2_f, x1, x2, c, (1, -1), st.h_xi),
    }


def _p_third(d, fd):
    """(P_t, P_3) of the third-order system on FD senior derivatives."""
    return tuple(fd[phi] ** 2 - d.F_hat * (2.0 * d.X_3**2 + d.J) - g**2
                 for phi, g in (("phi_t", d.G_t), ("phi_3", d.G_3)))


def _composites(d, fd):
    """final_composites on the exact fields of d and FD senior derivatives."""
    return final_composites(
        phi_t=fd["phi_t"], phi_3=fd["phi_3"], dp_a2=fd["dp_a2"], dm_a2=fd["dm_a2"],
        x_t=d.X_t, x_3=d.X_3, a2=d.A2, f_hat=d.F_hat, j=d.J,
        h_t=d.H_t, h_3=d.H_3, sigma2=d.sigma2,
    )


def _eval_corollary(cache, center, st, tol=1e-4):
    x1, x2, c = center
    d = cache.point(x1, x2, c)
    fd = _fd_thirds(cache, center, st)
    sig2 = d.sigma2
    reports = _eval_cor_x(cache, center, st)

    status = _degenerate_guard("cor", d, x3=True, a2f=True)

    t_ax = [4.0 * sig2 * fd["dp_a2"] * fd["dm_a2"],
            8.0 * sig2 * d.X_3 * d.A2**2,
            d.A_plus * d.A_minus]
    res_ax = t_ax[0] - t_ax[1] - t_ax[2]
    reports.append(_mk_report("cor_Ax", cache, center, res_ax, t_ax, tol, status))

    p_t, p_3 = _p_third(d, fd)
    d_t = 4.0 * sig2 * fd["dp_a2"] ** 2 + 2.0 * sig2 * d.A2 * d.J - d.A_plus**2
    d_3 = 4.0 * sig2 * fd["dm_a2"] ** 2 + 2.0 * d.A2 * d.J - d.A_minus**2
    e1 = 2.0 * sig2 * d.A2 * p_t
    e2 = -2.0 * sig2 * d.A2 * p_3
    e3 = -d.F_hat * d_t
    e4 = sig2 * d.F_hat * d_3
    for eq, lhs, rhs in (("cor_pm1", e1, e2), ("cor_pm2", e2, e3),
                         ("cor_pm3", e3, e4)):
        reports.append(
            _mk_report(eq, cache, center, lhs - rhs, [e1, e2, e3, e4], tol, status)
        )

    t_a = [d.F_hat * fd["dp_a2"] * d.A_minus,
           d.F_hat * fd["dm_a2"] * d.A_plus,
           d.A2 * d.G_3 * fd["phi_t"],
           d.A2 * d.G_t * fd["phi_3"]]
    res_a = (t_a[0] - t_a[1]) - (t_a[2] - t_a[3])
    reports.append(_mk_report("cor_a", cache, center, res_a, t_a, tol, status))
    return reports


def _eval_ccom(cache, center, st, tol=1e-5):
    x1, x2, c = center
    st.check_c(c)
    d = cache.point(x1, x2, c)
    r = d.r
    lhs_p = r[0][1] * d.dp_r[1][0] - d.dp_r[0][1] * r[1][0]
    lhs_m = r[0][1] * d.dm_r[1][0] - d.dm_r[0][1] * r[1][0]
    rhs_p = -2.0 * c * _d_c(cache.f("r_t"), x1, x2, c, st.h_c)
    rhs_m = 2.0 * c * _d_c(cache.f("r_3"), x1, x2, c, st.h_c)
    return [
        _mk_report("ccom_p", cache, center, lhs_p - rhs_p, [lhs_p, rhs_p], tol),
        _mk_report("ccom_m", cache, center, lhs_m - rhs_m, [lhs_m, rhs_m], tol),
    ]


def _eval_final_four(cache, center, st, tol=1e-4):
    x1, x2, c = center
    d = cache.point(x1, x2, c)
    fd = _fd_thirds(cache, center, st)
    sig2 = d.sigma2
    comp = _composites(d, fd)
    delta = comp["Delta"]
    status = _degenerate_guard("fin", d, x3=True, a2f=True, delta=delta)
    l1 = d.H_t * comp["P_plus"] - 2.0 * comp["F_3"] * d.H_3 * comp["P_x"]
    l2 = 2.0 * comp["F_t"] * d.H_t * comp["P_x"] - d.H_3 * comp["P_plus"]
    reports = []

    t = [l1 * l2, 4.0 * delta**2 * comp["J_A"]]
    reports.append(_mk_report("fin_Axx", cache, center, t[0] - t[1], t, tol, status))

    t = [l1 * l1, 4.0 * delta**2 * comp["J_plus"], 8.0 * delta * sig2 * d.A2 * comp["P_a"]]
    reports.append(_mk_report("fin_Ap2", cache, center, t[0] - t[1] + t[2], t, tol, status))

    t = [l2 * l2, 4.0 * delta**2 * comp["J_minus"], 8.0 * delta * d.A2 * comp["P_a"]]
    reports.append(_mk_report("fin_Am2", cache, center, t[0] - t[1] - t[2], t, tol, status))

    t = [comp["S_3"] * l1, comp["S_t"] * l2, 2.0 * d.A2 * delta * comp["J_a"]]
    reports.append(_mk_report("fin_aa", cache, center, t[0] - t[1] - t[2], t, tol, status))

    ratio = d.A2 * comp["P_a"] / delta if status == "ok" else 0.0
    t = [comp["P_x"] ** 2, comp["P_hat_A"], 2.0 * (d.H_t**2 - sig2 * d.H_3**2) * ratio]
    reports.append(_mk_report("fin_Px", cache, center, t[0] - t[1] - t[2], t, tol, status))

    t = [comp["P_plus"] ** 2,
         4.0 * (comp["F_t"] * comp["F_3"] * comp["P_hat_A"]
                + delta * (comp["F_t"] * comp["J_plus"] - comp["F_3"] * comp["J_minus"])),
         8.0 * (comp["F_3"] ** 2 * d.H_3**2 - sig2 * comp["F_t"] ** 2 * d.H_t**2) * ratio]
    reports.append(_mk_report("fin_Pp", cache, center, t[0] - t[1] - t[2], t, tol, status))

    t = [d.A2 * comp["P_a"] ** 2,
         2.0 * delta * comp["P_a"] * (fd["dp_a2"] ** 2 - sig2 * fd["dm_a2"] ** 2),
         delta**2 * comp["I_a"]]
    reports.append(_mk_report("fin_Pa", cache, center, t[0] - t[1] - t[2], t, tol, status))
    return reports


def _eval_appendix(cache, center, st, tol=1e-4):
    x1, x2, c = center
    n = cache.n
    d = cache.point(x1, x2, c)
    fd = _fd_thirds(cache, center, st)
    sig2 = d.sigma2
    xp_, xm_ = x1 + x2, x1 - x2
    reports = []
    status3 = _degenerate_guard("app", d, x3=True)

    dpdmx3 = _d_dir(cache.f("DmX3"), x1, x2, c, (1, 1), st.h_xi)
    t = [d.X_3 * dpdmx3, d.DpX3 * d.DmX3, d.R_t * d.R_3,
         (d.X_3 + xp_ * xm_) * d.X_3**2]
    reports.append(_mk_report("app_S", cache, center, t[0] - t[1] + t[2] - t[3],
                              t, tol, status3))

    dp_phi3 = _d_dir(cache.f("Phi_3"), x1, x2, c, (1, 1), st.h_xi)
    t = [dp_phi3, xm_ * d.G_t, xp_ * d.G_3, d.X_3 * (3.0 * d.X_t - 8.0 * n)]
    reports.append(_mk_report("app_Tt3", cache, center, t[0] - t[1] - t[2] - t[3],
                              t, tol))

    dp_phit = _d_dir(cache.f("Phi_t"), x1, x2, c, (1, 1), st.h_xi)
    t = [2.0 * d.F_hat * d.X_3 * dp_phit,
         2.0 * d.F_hat * (d.DpX3 * d.Phi_t - d.R_t * d.G_3 + xp_ * d.X_3 * d.G_t),
         d.X_3 * (d.Phi_t**2 - d.G_t**2)]
    reports.append(_mk_report("app_pTt", cache, center, t[0] - t[1] - t[2],
                              t, tol, status3))

    dm_phi3 = _d_dir(cache.f("Phi_3"), x1, x2, c, (1, -1), st.h_xi)
    t = [2.0 * d.F_hat * d.X_3 * dm_phi3,
         2.0 * d.F_hat * (d.DmX3 * d.Phi_3 - d.R_3 * d.G_t + xm_ * d.X_3 * d.G_3),
         d.X_3 * (d.Phi_3**2 - d.G_3**2)]
    reports.append(_mk_report("app_mT3", cache, center, t[0] - t[1] - t[2],
                              t, tol, status3))

    dpdm_a2 = _d_dir(cache.f("D_minus"), x1, x2, c, (1, 1), st.h_xi)
    t = [-2.0 * sig2 * dpdm_a2,
         -(6.0 * sig2 * d.X_3 * d.A2 - xm_ * d.A_plus - sig2 * xp_ * d.A_minus)]
    reports.append(_mk_report("app_DDA", cache, center, t[0] - t[1], t, tol))

    dp_gt = _d_dir(cache.f("G_t"), x1, x2, c, (1, 1), st.h_xi)
    t = [d.X_3 * dp_gt, d.DpX3 * d.G_t, d.R_t * d.Phi_3, xp_ * d.X_3 * d.Phi_t]
    reports.append(_mk_report("app_pGt", cache, center, t[0] - t[1] + t[2] - t[3],
                              t, tol, status3))

    dm_g3 = _d_dir(cache.f("G_3"), x1, x2, c, (1, -1), st.h_xi)
    t = [d.X_3 * dm_g3, d.DmX3 * d.G_3, d.R_3 * d.Phi_t, xm_ * d.X_3 * d.Phi_3]
    reports.append(_mk_report("app_mG3", cache, center, t[0] - t[1] + t[2] - t[3],
                              t, tol, status3))

    # first integrals, FD route for the derivative factors
    t = [2.0 * d.F_hat * (4.0 * d.Xp_a2 + d.X_3**2), fd["phi_t"] ** 2, d.G_t**2]
    reports.append(_mk_report("app_pB", cache, center, t[0] - t[1] + t[2], t, tol))
    t = [2.0 * d.F_hat * (4.0 * d.Xm_a2 + d.X_3**2), fd["phi_3"] ** 2, d.G_3**2]
    reports.append(_mk_report("app_mB", cache, center, t[0] - t[1] + t[2], t, tol))
    t = [4.0 * (d.Xp_a2 + d.Xm_a2), d.J]
    reports.append(_mk_report("app_Bp", cache, center, t[0] - t[1], t, tol))
    t = [16.0 * sig2 * d.A2 * d.Xp_a2, d.A_plus**2, 4.0 * sig2 * fd["dp_a2"] ** 2]
    reports.append(_mk_report("app_Ap", cache, center, t[0] - t[1] + t[2], t, tol))
    t = [16.0 * d.A2 * d.Xm_a2, d.A_minus**2, 4.0 * sig2 * fd["dm_a2"] ** 2]
    reports.append(_mk_report("app_Am", cache, center, t[0] - t[1] + t[2], t, tol))
    t = [4.0 * d.A2 * d.C_a, d.A_minus * fd["dp_a2"], d.A_plus * fd["dm_a2"]]
    reports.append(_mk_report("app_Ca", cache, center, t[0] - t[1] + t[2], t, tol))
    return reports


# --------------------------------------------------------------------------
# Higher-order Toda-side equations (5th order in T): 2nd-order stencil, 4x steps
# --------------------------------------------------------------------------

def _eval_higher(cache, center, st, tol=1e-2):
    x1, x2, c = center
    st = st.scaled(4.0)
    st.check_c(c)
    h, hc = st.h_xi, st.h_c
    ff = _f_field(cache)
    u_f, w_f = cache.f("U"), cache.f("W")

    def a_dir(cc, tilde):
        """Direction of A = D_1 + c D_2, or of At = c D_1 + D_2."""
        return (cc, 1.0) if tilde else (1.0, cc)

    def a0_apply(f, a, b, cc, tilde):
        d1v = _d_dir(f, a, b, cc, (1, 0), h, 2)
        d2v = _d_dir(f, a, b, cc, (0, 1), h, 2)
        return _a0(a, b, cc, d1v, d2v, _d_c(f, a, b, cc, hc), tilde)

    def t_and_ag0(tilde, t_id, ag0_id):
        """app_T1 and app_AG0 along A; with tilde, app_T2 and app_tAG0 along At."""
        a0t = _a0t_field(cache, hc, tilde)
        g_f = _g_field(cache, st, tilde, order=2)

        def a2t(a, b, cc):
            return _a2t_exact(cache.point(a, b, cc), cc, tilde)

        def af(a, b, cc):
            return _d_dir(ff, a, b, cc, a_dir(cc, tilde), h, 2)

        def g0(a, b, cc):
            """G0 = W A0 U - U A0 W, or its dual with At_0."""
            u = cache.point(a, b, cc)
            return (u.W * a0_apply(u_f, a, b, cc, tilde)
                    - u.U * a0_apply(w_f, a, b, cc, tilde))

        def t_inner(a, b, cc):
            a2f_ = _d_dir(af, a, b, cc, a_dir(cc, tilde), h, 2)
            afv = af(a, b, cc)
            gv = g_f(a, b, cc)
            fv = ff(a, b, cc)
            return (-a2f_ - 4.0 * a0t(a, b, cc)
                    - 4.0 * a2t(a, b, cc) * fv + (afv * afv - gv * gv) / fv)

        def ag0_inner(a, b, cc):
            afv = af(a, b, cc)
            gv = g_f(a, b, cc)
            return g0(a, b, cc) + (afv * afv - gv * gv) / (4.0 * ff(a, b, cc)) \
                - 2.0 * a0t(a, b, cc)

        def dual_inner(a, b, cc):
            a2tv = a2t(a, b, cc)
            return (0.5 / cc) * a2tv * a2tv + (1.0 / cc) * (
                a0_apply(a0t, a, b, cc, tilde) + 2.0 * a0t(a, b, cc)
            )

        rhs = -_d_dir(dual_inner, x1, x2, c, a_dir(c, not tilde), h, 2)
        lhs = _d_dir(t_inner, x1, x2, c, a_dir(c, tilde), h, 2)
        yield _mk_report(t_id, cache, center, lhs - rhs, [lhs, rhs], tol)
        # the AG0 right side is half the T one; scaling by 0.5 is exact in floating point
        lhs = _d_dir(ag0_inner, x1, x2, c, a_dir(c, tilde), h, 2)
        rhs = 0.5 * rhs
        yield _mk_report(ag0_id, cache, center, lhs - rhs, [lhs, rhs], tol)

    return [*t_and_ag0(False, "app_T1", "app_AG0"), *t_and_ag0(True, "app_T2", "app_tAG0")]


# --------------------------------------------------------------------------
# Registry and drivers
# --------------------------------------------------------------------------

# id -> (group evaluator, nominal FD convergence order; 0 = FD-free)
_GROUPS = {
    "toda00": (_eval_toda00, 0),
    "cor_x": (_eval_corollary, 0),
    "thm1_00": (_eval_theorem1, 0),
    "thm1_pt": (_eval_theorem1, 2),
    "thm1_mt": (_eval_theorem1, 2),
    "thm1_ps": (_eval_theorem1, 2),
    "thm1_ms": (_eval_theorem1, 2),
    "avm": (_eval_avm, 2),
    "f4t": (_eval_f4t, 2),
    "cor_Ax": (_eval_corollary, 4),
    "cor_pm1": (_eval_corollary, 4),
    "cor_pm2": (_eval_corollary, 4),
    "cor_pm3": (_eval_corollary, 4),
    "cor_a": (_eval_corollary, 4),
    "ccom_p": (_eval_ccom, 2),
    "ccom_m": (_eval_ccom, 2),
    "fin_Axx": (_eval_final_four, 4),
    "fin_Ap2": (_eval_final_four, 4),
    "fin_Am2": (_eval_final_four, 4),
    "fin_aa": (_eval_final_four, 4),
    "fin_Px": (_eval_final_four, 4),
    "fin_Pp": (_eval_final_four, 4),
    "fin_Pa": (_eval_final_four, 4),
    "app_S": (_eval_appendix, 4),
    "app_Tt3": (_eval_appendix, 4),
    "app_pTt": (_eval_appendix, 4),
    "app_mT3": (_eval_appendix, 4),
    "app_DDA": (_eval_appendix, 4),
    "app_pGt": (_eval_appendix, 4),
    "app_mG3": (_eval_appendix, 4),
    "app_pB": (_eval_appendix, 4),
    "app_mB": (_eval_appendix, 4),
    "app_Bp": (_eval_appendix, 0),
    "app_Ap": (_eval_appendix, 4),
    "app_Am": (_eval_appendix, 4),
    "app_Ca": (_eval_appendix, 4),
    "app_T1": (_eval_higher, 2),
    "app_T2": (_eval_higher, 2),
    "app_AG0": (_eval_higher, 2),
    "app_tAG0": (_eval_higher, 2),
}

HIGHER_ORDER_IDS = ["app_T1", "app_T2", "app_AG0", "app_tAG0"]
EQUATION_IDS = [k for k in _GROUPS if k not in HIGHER_ORDER_IDS]


def evaluate(cache, center, stencil=None, ids=None, include_higher=False):
    """Evaluate residual reports for the requested equation ids, in their order.

    The groups run through cache.batched, so the points of all their
    stencils are computed as one batch."""
    st = stencil or DEFAULT_STENCIL
    if ids is None:
        ids = list(EQUATION_IDS) + (HIGHER_ORDER_IDS if include_higher else [])
    unknown = [i for i in ids if i not in _GROUPS]
    if unknown:
        raise ValueError(f"unknown equation ids: {unknown}")
    groups = list(dict.fromkeys(_GROUPS[eq][0] for eq in ids))
    wanted = set(ids)
    reports = cache.batched(lambda: [r for fn in groups for r in fn(cache, center, st)
                                     if r.equation in wanted])
    order = {eq: k for k, eq in enumerate(ids)}
    reports.sort(key=lambda r: order[r.equation])
    return reports


def richardson(cache, center, eq_id, stencil=None, factors=(8.0, 4.0, 2.0),
               floor=1e-10, slope_tol=0.2):
    """Step-halving convergence diagnostic for one equation.

    Residuals are measured on a ladder of stencils scaled by `factors`; the
    observed slope log2(res(2h)/res(h)) is compared against the stencil's
    nominal order.  The fifth-order ids take 2nd-order stencils in both
    directions, so their ladder scales both steps.  Pairs whose residuals
    sit below `floor` (relative) are noise-dominated and skipped; if no pair
    is measurable the equation is already at the rounding floor, which
    satisfies the requirement vacuously (status 'floor').
    """
    st = stencil or DEFAULT_STENCIL
    order = _GROUPS[eq_id][1]
    rels = []
    for f in factors:
        # scale only the step whose truncation order is being measured:
        # h_c for the 2nd-order (coupling) stencils, h_xi for the 4th-order
        # endpoint stencils, both for the fifth-order ids.
        if eq_id in HIGHER_ORDER_IDS:
            sc = st.scaled(f)
        elif order == 2:
            sc = Stencil(h_xi=st.h_xi, h_c=f * st.h_c)
        elif order == 4:
            sc = Stencil(h_xi=f * st.h_xi, h_c=st.h_c)
        else:
            sc = st
        rep = evaluate(cache, center, sc, ids=[eq_id])[0]
        if rep.status != "ok":
            return {"equation": eq_id, "status": rep.status, "order": order,
                    "relatives": [], "slopes": [], "ok": True}
        rels.append(rep.relative)
    slopes = []
    for a, b, fa, fb in zip(rels[:-1], rels[1:], factors[:-1], factors[1:]):
        if a > floor and b > floor:
            slopes.append(math.log(a / b, fa / fb))
    if order == 0 or not slopes:
        status = "floor" if not slopes or order == 0 else "ok"
        return {"equation": eq_id, "status": status, "order": order,
                "relatives": rels, "slopes": slopes, "ok": True}
    ok = any(abs(s - order) <= slope_tol * order for s in slopes)
    return {"equation": eq_id, "status": "ok", "order": order,
            "relatives": rels, "slopes": slopes, "ok": ok}


def painleve_boundary_check(n, xi1, c, m=DEFAULT_M, xi2=12.0, stencil=None):
    """One-matrix boundary behavior at xi2 -> +inf.

    The coupled composites P_t, P_3, P_x (third-order system) and P_x, the
    normalized P_plus (final system) all converge to the one-matrix
    Painleve IV combination; each is compared, at the one-matrix scale,
    against an independent scalar-kernel evaluation.  m is the node count of
    that one-matrix Nystrom oracle; the coupled side takes the Gram route,
    its points, avm's included, as one batch.
    """
    st = stencil or DEFAULT_STENCIL
    cache = PointCache(n)
    center = (xi1, xi2, c)
    d, fd, rep = cache.batched(lambda: (cache.point(*center), _fd_thirds(cache, center, st),
                                        _eval_avm(cache, center, st)[0]))
    p1_res, p1_scale = painleve_iv_residual(n, xi1, m)

    p_t, p_3 = _p_third(d, fd)
    p_x = fd["phi_t"] * fd["phi_3"] - 2.0 * d.X_t * d.X_3 * d.F_hat - d.G_t * d.G_3
    comp = _composites(d, fd)
    p_plus_norm = comp["P_plus"] / (comp["F_t"] + comp["F_3"])
    out = {"one_matrix": p1_res / p1_scale, "scale": p1_scale}
    for name, val in (("P_t", p_t), ("P_3", p_3), ("P_x", p_x),
                      ("final_Px", comp["P_x"]), ("final_Pplus", p_plus_norm)):
        out[name] = val / p1_scale
        out[name + "_gap"] = abs(val - p1_res) / p1_scale
    out["avm_relative"] = rep.relative if rep.status == "ok" else 0.0
    out["avm_residual"] = rep.residual
    out["avm_scale"] = rep.scale
    return out
