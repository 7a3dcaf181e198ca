"""Concatenation graph, path census, exact circle lengths."""

import heapq
import math
from fractions import Fraction

import numpy as np
import pytest

import tsurf
from tsurf.paths import circle_csv

from oracles import pairwise_allowed


SQRT2 = math.sqrt(2.0)


def test_graph_shape(G9):
    assert len(G9.saddles) == 48
    assert G9.max_length_sq == Fraction(9)
    # out-lists sorted by (length, id)
    for i in range(len(G9.saddles)):
        outs = G9.out[i]
        keys = [(G9.lengths[j], j) for j in outs]
        assert keys == sorted(keys)


def test_out_degree_uniform(lshape, G2):
    # 3 same-holonomy targets plus 2 of 3 for every other holonomy class:
    # 4 classes at budget 1 (deg 3 + 3*2 = 9), 8 classes at budget 2
    G1 = tsurf.build_concat_graph(lshape, 1)
    assert {len(G1.out[i]) for i in range(len(G1.saddles))} == {9}
    assert {len(G2.out[i]) for i in range(len(G2.saddles))} == {17}


def test_allowed_requires_matching_endpoint(G9):
    for i, s in enumerate(G9.saddles):
        for j in G9.out[i]:
            assert s.end == G9.saddles[j].start


ORACLE_GRAPHS = [("lshape", None, 49), ("slit_tori", None, 25),
                 ("lshape", "7/3,5/2", Fraction(121, 4))]


@pytest.fixture(scope="module", params=ORACLE_GRAPHS,
                ids=["lshape-49", "slit_tori-25", "lshape_7_3_5_2-121_4"])
def oracle_graph(request):
    name, params, budget = request.param
    S = tsurf.builtin_surface(name, params.split(",") if params else None)
    return tsurf.build_concat_graph(S, budget)


def test_allowed_matches_pairwise_half_turn_test(oracle_graph):
    # every ordered pair, different cones included
    G = oracle_graph
    for i in range(G.n):
        got = [G.allowed(i, j) for j in range(G.n)]
        assert got == [pairwise_allowed(G, i, j) for j in range(G.n)], i


def test_out_lists_sorted_by_length_then_id(oracle_graph):
    G = oracle_graph
    for ids in G.out:
        keys = [(G.lengths[j], j) for j in ids]
        assert keys == sorted(keys)
        assert len(set(ids.tolist())) == len(ids)


def test_self_concatenation_recorded(G2):
    # going out the way you came in turns by the full cone angle minus 0,
    # which clears pi on both sides
    for i in range(len(G2.saddles)):
        assert G2.allowed(i, i)


def _brute_paths(G, x, R):
    """Reference enumerator: plain DFS, no vectorization."""
    found = []
    def rec(prefix, length):
        last = prefix[-1]
        for j in G.out[last]:
            nl = length + G.lengths[j]
            if nl <= R + 1e-12:
                found.append(nl)
                rec(prefix + [j], nl)
    for i in range(len(G.saddles)):
        if G.saddles[i].start == x and G.lengths[i] <= R + 1e-12:
            found.append(G.lengths[i])
            rec([i], G.lengths[i])
    return sorted(found)


def test_census_matches_brute_force(G9):
    census = tsurf.path_length_census(G9, 0, 3.0)
    brute = _brute_paths(G9, 0, 3.0)
    assert len(census.lengths) == len(brute)
    assert np.allclose(np.sort(census.lengths), brute, atol=1e-9)


def test_census_counts(G9):
    census = tsurf.path_length_census(G9, 0, 1.5)
    assert census.count(0.5) == 0
    assert census.count(1.0) == 12
    assert census.count(1.4) == 12
    assert census.count(1.5) == 24


def test_enumerate_paths_ordered(G9):
    gen = tsurf.enumerate_paths(G9, 0, 2.5)
    lens = [p.length for p in gen]
    assert lens == sorted(lens)
    assert len(lens) == tsurf.path_length_census(G9, 0, 2.5).count(2.5)


def test_circle_length_exact_values(G9):
    census = tsurf.path_length_census(G9, 0, 1.5)
    pi = math.pi
    assert tsurf.circle_length(G9, 0, 0.5, census) == pytest.approx(3 * pi, rel=1e-14)
    assert tsurf.circle_length(G9, 0, 1.0, census) == pytest.approx(6 * pi, rel=1e-14)
    # 12 paths of length 1 with terminal excess 2 each: S0=24, S1=24
    assert tsurf.circle_length(G9, 0, 1.4, census) == pytest.approx(
        pi * Fraction(138, 5), rel=1e-14)
    # the sqrt(2) connections enter at R=1.5: S0=48, S1=24+24*sqrt(2)
    assert tsurf.circle_length(G9, 0, 1.5, census) == pytest.approx(
        pi * (105 - 48 * SQRT2), rel=1e-14)


def test_ball_volume_exact_values(G9):
    census = tsurf.path_length_census(G9, 0, 1.5)
    pi = math.pi
    assert tsurf.ball_volume_closed(G9, 0, 0.5, census) == pytest.approx(
        0.75 * pi, rel=1e-14)
    assert tsurf.ball_volume_closed(G9, 0, 1.4, census) == pytest.approx(
        9.72 * pi, rel=1e-13)
    assert tsurf.ball_volume_closed(G9, 0, 1.5, census) == pytest.approx(
        pi * (114.75 - 72 * SQRT2), rel=1e-13)


def test_volume_is_integral_of_circle_length(G9):
    # V(R) = integral of circle length: check by fine Riemann sum
    census = tsurf.path_length_census(G9, 0, 2.0)
    rs = np.linspace(1e-6, 2.0, 20001)
    vals = tsurf.circle_length_grid(G9, 0, rs, census)
    riemann = np.trapezoid(vals, rs)
    assert riemann == pytest.approx(
        tsurf.ball_volume_closed(G9, 0, 2.0, census), rel=1e-6)


def test_circle_monotone_piecewise_affine(G9):
    census = tsurf.path_length_census(G9, 0, 2.0)
    rs = np.linspace(0.01, 2.0, 400)
    vals = tsurf.circle_length_grid(G9, 0, rs, census)
    assert np.all(np.diff(vals) > 0)
    # between breakpoints the slope equals 2*pi*(k_x + 1 + S0)
    slopes = np.diff(vals) / np.diff(rs)
    expect = np.array([tsurf.circle_slope(G9, 0, r, census) for r in rs[1:]])
    # slope mismatch only where a breakpoint falls inside the step
    ok = np.isclose(slopes, expect, rtol=1e-9)
    assert ok.mean() > 0.9


def test_truncation_error(G2):
    with pytest.raises(tsurf.TruncationError):
        tsurf.path_length_census(G2, 0, 5.0)
    with pytest.raises(tsurf.TruncationError):
        tsurf.circle_length(G2, 0, 5.0)


def test_scaled_surface_census(lshape, G9):
    S2 = tsurf.scale_surface(lshape, 2)
    H = tsurf.build_concat_graph(S2, 36)
    a = tsurf.path_length_census(G9, 0, 2.5)
    b = tsurf.path_length_census(H, 0, 5.0)
    assert a.count(2.5) == b.count(5.0)
    assert tsurf.circle_length(H, 0, 3.0) == pytest.approx(
        2 * tsurf.circle_length(G9, 0, 1.5), rel=1e-12)


def test_complete_graph_fixture(C3):
    assert C3.n == 3  # synthetic: no underlying surface geometry
    for i in range(3):
        assert sorted(C3.out[i]) == [0, 1, 2]
    # m^n paths of word length n, each of metric length n
    census = tsurf.path_length_census(C3, 0, 4.0)
    assert census.count(1.0) == 3
    assert census.count(2.0) == 3 + 9
    assert census.count(4.0) == 3 + 9 + 27 + 81


def test_circle_csv_golden(G9):
    text = circle_csv(G9, 0, [0.5, 1.0])
    lines = text.strip().split("\n")
    assert lines[0] == "R,N,circle_length,ball_volume"
    r, n, cl, bv = lines[1].split(",")
    assert (r, n) == ("0.5", "0")
    assert float(cl) == pytest.approx(3 * math.pi, rel=1e-15)
