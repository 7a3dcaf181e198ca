import contextlib
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsurf
from tsurf import solve_entropy, spectral, spectral_radius, truncated_scc, v_weights
from tsurf.paths import Runs
from tsurf.spectral import default_cutoffs, weight_matrix

from oracles import (bisect_lambda_one, dense_spectral_radius,
                     dense_truncated_scc, dense_weight_matrix,
                     five_product_power_iteration, scipy_truncated_scc)


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
    W = dense_weight_matrix(G9, 2.5)
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
        G = tsurf.ConcatGraph.from_rows(
            rows, lengths=np.sort(rng.integers(1, 9, n)).astype(float),
            start=[0] * n, end=[0] * n, cone_k=[1])
        for L in np.unique(G.lengths):
            assert _scc_or_error(truncated_scc, G, L) == _scc_or_error(scipy_truncated_scc, G, L), L


def test_scc_tie_takes_the_smallest_id():
    # two disjoint 2-cycles {0, 3} and {1, 2} of the same size
    G = tsurf.ConcatGraph.from_rows([[3], [2], [1], [0]], lengths=[1.0] * 4,
                                    start=[0] * 4, end=[0] * 4, cone_k=[1])
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


@contextlib.contextmanager
def _dense_spectral_layer():
    """solve_entropy and v_weights on the dense oracles: the closure
    squaring for the component and m @ v, m.T @ u for the products."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "weight_matrix", dense_weight_matrix)
        mp.setattr(spectral, "spectral_radius", dense_spectral_radius)
        yield


@st.composite
def interval_relations(draw):
    """A random relation as runs over one or two cones: the saddles are
    ordered by start cone, and each saddle's successors are one cyclic
    range of the block of its end cone (two runs when it wraps). Lengths
    sorted, with repeats; the cutoff keeps a random prefix, possibly
    empty."""
    n = draw(st.integers(1, 14))
    cones = draw(st.integers(1, 2))
    start = draw(st.lists(st.integers(0, cones - 1), min_size=n, max_size=n))
    end = draw(st.lists(st.integers(0, cones - 1), min_size=n, max_size=n))
    lengths = sorted(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    order = sorted(draw(st.permutations(range(n))), key=lambda s: start[s])
    starts = [start[s] for s in order]
    ptr, lo, hi = [0], [], []
    for s in range(n):
        b0, b1 = bisect_left(starts, end[s]), bisect_right(starts, end[s])
        if b1 > b0:
            a = draw(st.integers(b0, b1 - 1))
            size = draw(st.integers(0, b1 - b0))
            for x, y in ((a, min(a + size, b1)), (b0, b0 + a + size - b1)):
                if x < y:
                    lo.append(x)
                    hi.append(y)
        ptr.append(len(lo))
    G = tsurf.ConcatGraph(None, np.array(lengths, dtype=float), start, end,
                          [1] * cones, Runs(order, ptr, lo, hi), None, None)
    cutoff = draw(st.sampled_from([0.5, *sorted(set(lengths))]))
    return G, float(cutoff)


@settings(max_examples=300, deadline=None)
@given(interval_relations(), st.floats(0.0, 3.0))
def test_runs_spectral_layer_matches_dense_oracles(case, sigma):
    G, cutoff = case
    got = _scc_or_error(truncated_scc, G, cutoff)
    assert got == _scc_or_error(scipy_truncated_scc, G, cutoff)
    assert got == _scc_or_error(dense_truncated_scc, G, cutoff)
    if isinstance(got, str):
        return
    W = weight_matrix(G, sigma, cutoff)
    D = dense_weight_matrix(G, sigma, cutoff)
    assert W.ids.tolist() == D.ids.tolist() == got
    m = D.matrix()
    x = np.random.default_rng(len(got)).random(W.size) + 0.5
    # every row and column of a component with a cycle has an entry
    assert np.allclose(W.dot(x), m @ x, rtol=1e-12, atol=0)
    assert np.allclose(W.tdot(x), m.T @ x, rtol=1e-12, atol=0)
    lam = spectral_radius(W).lam
    assert abs(lam - dense_spectral_radius(D).lam) <= 1e-12 * max(1.0, lam)


REAL_GRAPHS = [("lshape", 25), ("lshape", 49), ("lshape", 100), ("slit_tori", 25)]


@pytest.fixture(scope="module", params=REAL_GRAPHS,
                ids=[f"{name}-{budget}" for name, budget in REAL_GRAPHS])
def real_graph(request):
    name, budget = request.param
    return tsurf.build_concat_graph(tsurf.builtin_surface(name), budget)


def test_runs_scc_matches_both_oracles_on_surfaces(real_graph):
    G = real_graph
    for L in np.unique(G.lengths):
        got = _scc_or_error(truncated_scc, G, L)
        assert got == _scc_or_error(scipy_truncated_scc, G, L), L
        assert got == _scc_or_error(dense_truncated_scc, G, L), L


def test_runs_entropy_matches_dense_oracle_on_surfaces(real_graph):
    G = real_graph
    est = solve_entropy(G)
    ids, w = v_weights(G)
    lams = [spectral_radius(weight_matrix(G, p["h"], p["cutoff"])).lam
            for p in est.per_cutoff]
    with _dense_spectral_layer():
        dense = solve_entropy(G)
        dense_ids, dense_w = v_weights(G)
    dense_lams = [dense_spectral_radius(dense_weight_matrix(G, p["h"], p["cutoff"])).lam
                  for p in est.per_cutoff]
    assert np.allclose(lams, dense_lams, rtol=0, atol=1e-12)
    for p, q in zip(est.per_cutoff, dense.per_cutoff, strict=True):
        assert p["scc_size"] == q["scc_size"]
        assert abs(p["h"] - q["h"]) <= 1e-12
    assert np.array_equal(ids, dense_ids)
    assert np.allclose(w, dense_w, rtol=0, atol=1e-12)


def test_entropy_path_builds_no_stored_relation(lshape):
    # the successor relation stays as runs: no CSR, no k x k array
    G = tsurf.build_concat_graph(lshape, 100)
    solve_entropy(G)
    v_weights(G)
    W = weight_matrix(G, 2.5)
    assert W.size == 576
    assert all(np.ndim(a) == 1 for a in (W.rows, W.bounds, W.cols, W.weights))
    assert "_csr" not in vars(G)
    assert len(G.out) == G.n  # the census view expands on first use
    assert "_csr" in vars(G)
