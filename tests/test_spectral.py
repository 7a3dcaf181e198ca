import math

import numpy as np
import pytest

import tsurf
from tsurf import solve_entropy, spectral_radius, truncated_scc, v_weights
from tsurf.spectral import default_cutoffs, weight_matrix

from oracles import bisect_lambda_one, five_product_power_iteration, scipy_truncated_scc


def test_complete3_entropy_is_log3(C3):
    est = solve_entropy(C3, cutoffs=[1.0])
    assert est.converged
    assert abs(est.h - math.log(3)) < 1e-10


def test_complete_m_entropy_is_log_m():
    for m in (2, 5, 11):
        G = tsurf.complete_graph(m)
        assert abs(solve_entropy(G, cutoffs=[1.0]).h - math.log(m)) < 1e-9


def test_complete3_weights_uniform(C3):
    ids, w = v_weights(C3, cutoff=1.0)
    assert len(ids) == 3
    assert np.allclose(w, 1 / 3, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_spectral_radius_against_dense_eig():
    rng = np.random.default_rng(5)
    for n in (4, 17, 40):
        A = rng.random((n, n))
        res = spectral_radius(A, tol=1e-13)
        dense = max(abs(np.linalg.eigvals(A)))
        assert res.lam == pytest.approx(dense, rel=1e-9)
        # left/right vectors: Av = lam v, normalized u.v = 1, sum v = 1
        assert np.allclose(A @ res.v, res.lam * res.v, atol=1e-9 * res.lam)
        assert res.u @ res.v == pytest.approx(1.0, abs=1e-10)
        assert res.v.sum() == pytest.approx(1.0, abs=1e-12)


def test_reused_products_keep_the_iterates(G9):
    # two products per iteration instead of five, with identical floats
    W = weight_matrix(G9, 2.5)
    for A in (np.random.default_rng(3).random((25, 25)), W.matrix()):
        res = spectral_radius(A)
        lam, u, v, r, it = five_product_power_iteration(A)
        assert (res.lam, res.residual, res.iterations) == (lam, r, it)
        assert np.array_equal(res.u, u) and np.array_equal(res.v, v)


def test_spectral_radius_periodic_matrix():
    # 2-cycle: plain power iteration would oscillate, the shift must not
    A = np.array([[0.0, 2.0], [0.5, 0.0]])
    res = spectral_radius(A)
    assert res.lam == pytest.approx(1.0, abs=1e-11)


def test_single_loop_has_no_growth():
    # lambda(sigma) = e^{-sigma} never exceeds 1, so there is no bracket:
    # a one-cycle graph carries zero entropy and the solver says so
    G = tsurf.complete_graph(1)
    with pytest.raises(tsurf.BracketFailure):
        solve_entropy(G, cutoffs=[1.0])


@pytest.mark.parametrize("graph", ["G9", "G36"])
def test_newton_rungs_match_bisection_oracle(graph, request):
    G = request.getfixturevalue(graph)
    est = solve_entropy(G)
    cutoffs = default_cutoffs(G)
    assert [p["cutoff"] for p in est.per_cutoff] == cutoffs
    for rung in est.per_cutoff:
        oracle = bisect_lambda_one(weight_matrix(G, 1.0, cutoff=rung["cutoff"]))
        assert abs(rung["h"] - oracle) <= 1e-12
        lo, hi = rung["bracket"]
        assert lo <= rung["h"] <= hi
        # a handful of eigensolves per rung, where bisection needs ~49
        assert rung["lambda_samples"] <= 12


@pytest.mark.parametrize("m", [2, 5, 11])
def test_newton_matches_bisection_oracle_complete(m):
    G = tsurf.complete_graph(m)
    h = solve_entropy(G, cutoffs=[1.0]).h
    assert abs(h - bisect_lambda_one(weight_matrix(G, 1.0, cutoff=1.0))) <= 1e-12


def test_rung_started_past_the_root(G9):
    # a decreasing ladder starts each rung above its root; the bracket and
    # the bisection fallback still find it
    est = solve_entropy(G9, cutoffs=[3.0, 2.0])
    oracle = bisect_lambda_one(weight_matrix(G9, 1.0, cutoff=2.0))
    assert abs(est.h - oracle) <= 1e-12
    assert est.converged


def test_warm_start_gives_the_same_perron_pair():
    rng = np.random.default_rng(7)
    A = rng.random((30, 30))
    cold = spectral_radius(A, tol=1e-13)
    near = spectral_radius(A + 0.05 * rng.random((30, 30)), tol=1e-13)
    warm = spectral_radius(A, tol=1e-13, start=(near.u, near.v))
    assert warm.lam == pytest.approx(cold.lam, rel=1e-12)
    assert np.allclose(warm.v, cold.v, atol=1e-12)
    assert np.allclose(warm.u, cold.u, atol=1e-11)
    assert warm.iterations < cold.iterations


def test_v_weights_default_is_the_single_full_rung(G9):
    ids, w = v_weights(G9)
    h = solve_entropy(G9, cutoffs=[G9.lengths.max()]).h
    ids2, w2 = v_weights(G9, h=h)
    assert np.array_equal(ids, ids2)
    assert np.allclose(w, w2, rtol=0, atol=1e-12)


def test_lambda_decreasing_in_sigma(G9):
    W = weight_matrix(G9, 2.0)
    lams = [spectral_radius(W.at(s)).lam for s in (2.0, 2.5, 3.0)]
    assert lams[0] > lams[1] > lams[2]


def test_ladder_monotone_and_value(G9):
    est = solve_entropy(G9, cutoffs=[2.0, 2.5, 3.0])
    hs = [p["h"] for p in est.per_cutoff]
    assert hs == sorted(hs)
    # full budget-9 graph (48 connections)
    assert est.h == pytest.approx(2.5123875940855984, abs=1e-9)
    assert est.per_cutoff[-1]["scc_size"] == 48


def test_scc_covers_everything_on_lshape(G9):
    ids = truncated_scc(G9)
    assert len(ids) == 48


def _scc_or_error(scc, G, cutoff):
    try:
        return scc(G, cutoff).tolist()
    except tsurf.EmptySCC as e:
        return str(e)


@pytest.mark.parametrize("surface, params, budget", [
    ("lshape", None, 49),
    ("slit_tori", None, 25),
    ("lshape", ("7/3", "5/2"), "121/4"),
])
def test_dense_scc_matches_scipy_oracle(surface, params, budget):
    S = tsurf.builtin_surface(surface, params=params)
    G = tsurf.build_concat_graph(S, budget)
    for L in np.unique(G.lengths):
        assert _scc_or_error(truncated_scc, G, L) == _scc_or_error(scipy_truncated_scc, G, L), L


@pytest.mark.parametrize("density", [0.02, 0.05, 0.1, 0.3])
def test_dense_scc_matches_scipy_oracle_on_random_graphs(density):
    # sparse random relations have many components, acyclic parts and
    # truncations without edges, which the surfaces above never produce
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 40
        rows = [np.flatnonzero(rng.random(n) < density) for _ in range(n)]
        G = tsurf.ConcatGraph(
            saddles=None, lengths=np.sort(rng.integers(1, 9, n)).astype(float),
            start=[0] * n, end=[0] * n,
            indptr=np.concatenate(([0], np.cumsum([len(r) for r in rows]))),
            succ=np.concatenate(rows), cone_k=[1], max_length_sq=None)
        for L in np.unique(G.lengths):
            assert _scc_or_error(truncated_scc, G, L) == _scc_or_error(scipy_truncated_scc, G, L), L


def test_scc_tie_takes_the_smallest_id():
    # two disjoint 2-cycles {0, 3} and {1, 2} of the same size
    G = tsurf.ConcatGraph(saddles=None, lengths=[1.0] * 4, start=[0] * 4,
                          end=[0] * 4, indptr=[0, 1, 2, 3, 4], succ=[3, 2, 1, 0],
                          cone_k=[1], max_length_sq=None)
    assert truncated_scc(G).tolist() == [0, 3]


def test_empty_scc_below_shortest_length(G9):
    with pytest.raises(tsurf.EmptySCC):
        truncated_scc(G9, 0.5)


def test_entropy_halves_under_doubling(lshape, G9):
    S2 = tsurf.scale_surface(lshape, 2)
    H = tsurf.build_concat_graph(S2, 36)
    h1 = solve_entropy(G9, cutoffs=[3.0]).h
    h2 = solve_entropy(H, cutoffs=[6.0]).h
    assert h2 == pytest.approx(h1 / 2, abs=1e-9)


def test_weight_symmetry_classes(G9):
    # connections with the same length play symmetric roles on this surface
    ids, w = v_weights(G9)
    lens = G9.lengths[ids]
    for L in np.unique(lens):
        grp = w[lens == L]
        assert np.allclose(grp, grp[0], rtol=1e-10)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_v_weight_audit_matches_bulk(G9):
    ids, w = v_weights(G9)
    # the audited single-saddle path runs the finite-difference cross-check
    s0 = int(ids[0])
    assert tsurf.v_weight(G9, s0) == pytest.approx(w[0], rel=1e-9)


def test_report_fields(G9):
    est = solve_entropy(G9, cutoffs=[2.0, 3.0])
    rep = est.report()
    assert rep["converged"] is True
    assert rep["cutoff"] == 3.0
    assert len(rep["per_cutoff"]) == 2
    assert rep["tail_estimate"] >= 0.0
