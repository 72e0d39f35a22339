"""The closed-form Gram route against the golden set, the Nystrom engine and 50-digit values."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from coupled_gue import KernelParams, gram, residuals
from coupled_gue.fredholm import EndpointData, FredholmError
from coupled_gue.observables import (
    SCALAR_FIELDS, build_derived, build_quartet, hatted_vars, theorem1_uw)
from coupled_gue.residuals import PointCache, evaluate

GOLDEN = json.loads((Path(__file__).parent / "golden_values.json").read_text())
MATRICES = ("r", "r_x", "r_y", "q", "p")

# Golden points where the Gram route and the recorded ln P differ by more than
# 1e-13, and a 50-digit evaluation of ln det M puts the recorded value further
# off (the Nystrom values were recorded at m = 64):
#   (n, c)       golden error   Gram error
#   (5, 0.9)     3.7e-12        1.3e-14
#   (10, 0.9)    2.8e-11        3.1e-14
#   (20, 0.9)    2.9e-9         6.9e-12
#   (10, 0.03)   9.8e-14        3.0e-14
#   (20, 0.03)   7.4e-13        1.3e-13
LOOSE = {(5, 0.9, 0.1623), (10, 0.9, 1.4721), (20, 0.9, 3.3246),
         (10, 0.03, 2.4721), (20, 0.03, 4.3246)}
TIGHT = [g for g in GOLDEN if (g["n"], g["c"], g["xi"][0]) not in LOOSE]

# ln P at n = 50, xi = (9, 9.5), where the Nystrom K_12 cancels: a 50-digit
# mpmath evaluation of ln det M with a tail of c^t < 1e-45.
K12_POINTS = {
    0.05: -2.25091236640676782837975621659,
    0.1: -2.24618468876594227805897688001,
    0.14: -2.24180492569125771374534992757,
    0.2: -2.2340693706299019011741126741,
}


def _point_id(g):
    return f"n{g['n']}-c{g['c']}-xi{g['xi'][0]}_{g['xi'][1]}"


def test_tight_set_is_25_points():
    assert len(TIGHT) == 25


@pytest.mark.parametrize("g", TIGHT, ids=_point_id)
def test_golden_point(g):
    sol = gram.solve(KernelParams(g["n"], g["c"], *g["xi"]))
    assert abs(sol.log_prob - g["ln_P"]) <= 1e-13
    e = gram.endpoint_data(sol)
    for name in MATRICES:
        want = np.array(g[name])
        got = getattr(e, name)
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want))), name


@pytest.mark.parametrize("g", TIGHT, ids=_point_id)
def test_tilde_and_inner_products_match_nystrom(g, bank):
    e = gram.endpoint_data(gram.solve(KernelParams(g["n"], g["c"], *g["xi"])))
    ref = bank.end(g["n"], g["c"], *g["xi"])
    for name in ("qt", "pt", "u", "w", "U_hat", "W_hat"):
        want = getattr(ref, name)
        got = getattr(e, name)
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want))), name


def test_doubled_tail_moves_no_golden_ln_p(monkeypatch):
    short = [gram.solve(KernelParams(g["n"], g["c"], *g["xi"])).log_prob for g in GOLDEN]
    tail = gram.tail_length
    monkeypatch.setattr(gram, "tail_length", lambda c: 2 * tail(c))
    long = [gram.solve(KernelParams(g["n"], g["c"], *g["xi"])).log_prob for g in GOLDEN]
    assert max(abs(a - b) for a, b in zip(short, long)) < 1e-13


class _WithWideCoupling(PointCache):
    """A cache whose batches also read ln P at c = 0.9, at the endpoints (0, 0.3)."""

    def batched(self, run):
        return super().batched(lambda: (self.T(0.0, 0.3, 0.9), run())[1])


def test_table_prefix_reads_give_identical_reports(monkeypatch):
    center = (0.0, 0.3, 0.5)

    def blob(cache):
        return json.dumps([r.to_dict() for r in evaluate(cache, center)], sort_keys=True)

    fresh = blob(PointCache(2))
    k_maxes = []
    build = gram.ray_tables

    def counted(n, xis, k_max):
        k_maxes.append(k_max)
        return build(n, xis, k_max)

    sols = []
    solve = residuals.solve_batch

    def kept(ps):
        out = solve(ps)
        sols.extend(out)
        return out

    monkeypatch.setattr(gram, "ray_tables", counted)
    monkeypatch.setattr(residuals, "solve_batch", kept)
    assert blob(_WithWideCoupling(2)) == fresh
    # one batch, its tables built at the tail of c = 0.9 and read by the
    # center's points as a shorter prefix
    assert k_maxes == [2 + gram.tail_length(0.9)]
    at_center = [s for s in sols if (s.params.xi1, s.params.xi2, s.params.c) == center]
    assert [s.rays[0].k_max for s in at_center] == [2 + gram.tail_length(0.5)]


@pytest.mark.parametrize("c", sorted(K12_POINTS))
def test_k12_cancellation_points(c):
    sol = gram.solve(KernelParams(50, c, 9.0, 9.5))
    assert abs(sol.log_prob - K12_POINTS[c]) <= 1e-12
    assert sol.cond < 100.0


def test_swap_symmetry():
    for n, c, x1, x2 in ((10, 0.1, 3.5, 4.2), (20, 0.2, 5.0, 6.1), (50, 0.05, 9.0, 9.5)):
        a = gram.solve(KernelParams(n, c, x1, x2)).log_prob
        b = gram.solve(KernelParams(n, c, x2, x1)).log_prob
        assert abs(a - b) <= 1e-13


def test_one_matrix_limit_is_exactly_c_independent():
    # far right ray 2: T vanishes and the pivots stay in the H blocks
    vals = {gram.solve(KernelParams(2, c, -0.5, 12.0)).log_prob for c in (0.3, 0.5, 0.501, 0.7)}
    assert len(vals) == 1


def _mixed_batch(n):
    """Points near the edge sqrt(2n) at three couplings (three tail lengths),
    interleaved, with one ray far right of the edge."""
    edge = math.sqrt(2.0 * n)
    ps = [KernelParams(n, c, edge + d1, edge + d2)
          for d1, d2 in ((-0.6, 0.4), (0.3, -0.2)) for c in (0.1, 0.5, 0.9)]
    ps.insert(3, KernelParams(n, 0.5, edge - 0.3, edge + 12.0))
    return ps


BATCHES = {f"n{n}": _mixed_batch(n) for n in (2, 5, 10, 20)}
BATCHES["k12"] = [KernelParams(50, 0.2, 9.0, 9.5), KernelParams(50, 0.5, 9.2, 9.6),
                  KernelParams(50, 0.2, 9.5, 9.0)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_a_point_has_the_same_bits_alone_and_in_a_batch(name):
    ps = BATCHES[name]
    sols = gram.solve_batch(ps)
    e = gram.endpoint_batch(sols)
    hats = hatted_vars(e)
    der = build_derived(e, build_quartet(e, hats), e.params)
    uw = theorem1_uw(e, e.params, hats)
    for i, p in enumerate(ps):
        sol = gram.solve(p)
        e1 = gram.endpoint_data(sol)
        hats1 = hatted_vars(e1)
        der1 = build_derived(e1, build_quartet(e1, hats1), p)
        uw1 = theorem1_uw(e1, p, hats1)
        assert _bits(sols[i].log_prob) == _bits(sol.log_prob), p
        for f in dataclasses.fields(EndpointData)[1:]:
            assert _bits(getattr(e, f.name)[i]) == _bits(getattr(e1, f.name)), (p, f.name)
        for field in SCALAR_FIELDS:
            assert _bits(getattr(der, field)[i]) == _bits(getattr(der1, field)), (p, field)
        for key, val in uw1.items():
            assert _bits(uw[key][i]) == _bits(val), (p, key)


def test_route_warnings_are_per_point():
    ps = BATCHES["n5"][:3]
    e = gram.endpoint_batch(gram.solve_batch(ps))
    q = build_quartet(e)
    q.G = q.G.copy()
    q.G[1] += 1.0                           # only point 1's trace of G disagrees
    d = build_derived(e, q, e.params)
    assert [len(w) for w in d.warnings] == [0, 1, 0]
    assert d.warnings[1][0].startswith("G_t routes disagree")
    e1 = e.take(1, ps[1])
    alone = build_derived(e1, dataclasses.replace(build_quartet(e1), G=q.G[1]), ps[1])
    assert alone.warnings == d.warnings[1]


def _count_calls(monkeypatch, name, size):
    """The (size, size) matrices passed to np.linalg.<name>, one bytes entry each."""
    seen = []
    fn = getattr(np.linalg, name)

    def counted(a, *args):
        if a.shape[-2:] == (size, size):
            seen.extend(m.tobytes() for m in a.reshape(-1, size, size))
        return fn(a, *args)

    monkeypatch.setattr(np.linalg, name, counted)
    return seen


def test_each_point_is_factored_once(monkeypatch):
    # every point's M enters one determinant, and the M of every point whose
    # endpoint data is read enters one solve
    dets = _count_calls(monkeypatch, "slogdet", 10)
    solves = _count_calls(monkeypatch, "solve", 10)
    observed = []
    batch = residuals.endpoint_batch

    def kept(sols):
        observed.extend(sols)
        return batch(sols)

    monkeypatch.setattr(residuals, "endpoint_batch", kept)
    cache = PointCache(5)
    evaluate(cache, (3.1, 2.5, 0.55), include_higher=True)
    assert 0 < len(observed) < len(cache._T)
    assert len(dets) == len(set(dets)) == len(cache._T)
    assert len(solves) == len(set(solves)) == len(observed)
    assert set(solves) == {sol.mat.tobytes() for sol in observed}


def test_a_batch_is_at_one_n():
    with pytest.raises(ValueError, match="one n"):
        gram.solve_batch([KernelParams(3, 0.5, 0.0, 0.3), KernelParams(2, 0.5, 0.0, 0.3)])


def test_a_tail_over_the_cap_raises_before_any_table(monkeypatch):
    def refused(*args):
        raise AssertionError("ray_tables ran")

    monkeypatch.setattr(gram, "ray_tables", refused)
    assert gram.tail_length(0.995) <= gram.MAX_TAIL < gram.tail_length(0.996)
    with pytest.raises(gram.TailError, match="c=0.996 needs"):
        gram.solve_batch([KernelParams(2, 0.5, 0.0, 0.3), KernelParams(2, 0.996, 0.0, 0.3)])


def _eager_m_and_cond(p):
    """M in the swapped order, built from the ray tables, and its condition
    estimate computed eagerly: dgecon on scipy's lu_factor of M."""
    n, c = p.n, p.c
    k_max = n + gram.tail_length(c)
    h1, h2 = (tab.h[:n] for tab in gram.ray_tables(n, [p.xi1, p.xi2], k_max))
    tail = c ** np.arange(k_max - n + 1.0)
    mat = np.empty((2 * n, 2 * n))
    mat[:n, :n] = h2[:, :n]
    mat[:n, n:] = np.diag(-(c ** (n - np.arange(n, dtype=float))))
    mat[n:, :n] = (h1[:, n:] * tail) @ h2[:, n:].T
    mat[n:, n:] = h1[:, :n]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)   # an exactly singular M
        lu, _ = sla.lu_factor(mat)
    rcond, _ = sla.lapack.dgecon(lu, np.linalg.norm(mat, 1), norm="1")
    return mat, (math.inf if rcond == 0.0 else 1.0 / rcond)


@pytest.mark.parametrize("g", GOLDEN, ids=_point_id)
def test_cond_on_demand_is_the_eager_estimate(g):
    p = KernelParams(g["n"], g["c"], *g["xi"])
    sol = gram.solve(p)
    assert "cond" not in vars(sol)          # not computed until read
    mat, cond = _eager_m_and_cond(p)
    assert np.array_equal(sol.mat, mat)
    assert sol.cond == cond


@pytest.mark.parametrize("args, match", [
    ((2, 0.5, -40.0, -40.0), "singular"),
    ((50, 0.12, 0.0, 0.3), "non-positive sign"),
    ((50, 0.9, -2.0, -2.0), "non-positive sign"),
])
def test_fredholm_errors_carry_cond(args, match):
    p = KernelParams(*args)
    with pytest.raises(FredholmError, match=match) as exc:
        gram.solve(p)
    assert exc.value.cond == _eager_m_and_cond(p)[1]


def test_probability_above_one_carries_cond(monkeypatch):
    # no point is known where ln det M rounds above 0, so scale the determinant up
    slogdet = np.linalg.slogdet

    def scaled(a):
        sign, log_det = slogdet(a)
        return sign, log_det + math.log(1e3)

    monkeypatch.setattr(np.linalg, "slogdet", scaled)
    with pytest.raises(FredholmError, match="> 0") as exc:
        gram.solve(KernelParams(2, 0.5, 2.0, 2.5))
    assert exc.value.cond >= 1.0


# The fifth-order ids at the default center, and c + h_c at c = 0.401, need a
# longer K_12 tail than the first point evaluated, at c.
@pytest.mark.parametrize("n, center, higher", [
    (2, (0.0, 0.3, 0.5), False),
    (2, (0.0, 0.3, 0.5), True),
    (10, (5.0, 5.5, 0.401), False),
])
def test_one_table_build_per_endpoint(monkeypatch, n, center, higher):
    assert gram.tail_length(0.402) > gram.tail_length(0.401)
    builds = []
    build = gram.ray_tables

    def counted(n_, xis, k_max):
        builds.extend(xis)
        return build(n_, xis, k_max)

    monkeypatch.setattr(gram, "ray_tables", counted)
    cache = PointCache(n)
    evaluate(cache, center, include_higher=higher)
    endpoints = {xi for key in cache._T for xi in key[:2]}
    assert sorted(builds) == sorted(endpoints)
