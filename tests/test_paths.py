"""Concatenation graph, path census, exact circle lengths."""

import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsurf
from tsurf import CellGrid, circle_measure, paths, region_volume
from tsurf.paths import circle_csv
from tsurf.unfold import ConeDirection

from oracles import (cumsum_circle_formulas, enumerate_paths,
                     expanded_path_census, pairwise_allowed,
                     streamed_prefix_sums)


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
    want = np.array([[pairwise_allowed(G, i, j) for j in range(G.n)]
                     for i in range(G.n)])
    # every pair at once, and the rows of a list with repeats
    i, j = np.meshgrid(np.arange(G.n), np.arange(G.n), indexing="ij")
    assert np.array_equal(G.after.contains(i, j), want)
    ask = np.array([0, G.n - 1, 0, 3, 3, 1])
    t, ids = G.after.pairs(ask)
    assert [sorted(ids[t == k].tolist()) for k in range(len(ask))] == [
        np.flatnonzero(want[a]).tolist() for a in ask]


def test_out_lists_sorted_by_length_then_id(oracle_graph):
    G = oracle_graph
    for ids in G.out:
        keys = [(G.lengths[j], j) for j in ids]
        assert keys == sorted(keys)
        assert len(set(ids.tolist())) == len(ids)


def test_predecessor_runs_are_the_successor_relation_reversed(oracle_graph):
    # both sides are read off their own angular order by binary search
    G = oracle_graph
    rows, ids = G.after.pairs()
    back_rows, back_ids = G.before.pairs()
    assert (sorted(zip(rows.tolist(), ids.tolist()))
            == sorted(zip(back_ids.tolist(), back_rows.tolist())))
    # one cyclic range per saddle on either side
    assert np.diff(G.after.ptr).max() <= 2
    assert np.diff(G.before.ptr).max() <= 2


def test_edges_count_the_runs_without_the_csr(lshape):
    G = tsurf.build_concat_graph(lshape, 49)
    assert repr(G) == "ConcatGraph(n=264, edges=46728)"
    assert "out" not in vars(G)
    assert G.edges == sum(len(o) for o in G.out)


def test_censuses_step_along_the_runs(lshape):
    # the path census and the closed walks read the successor runs; neither
    # expands a stored relation on the graph
    G = tsurf.build_concat_graph(lshape, 9)
    tsurf.path_length_census(G, 0, 3.0)
    tsurf.enumerate_closed(G, 3)
    assert not {"_csr", "out"} & set(vars(G))


def test_censuses_do_not_depend_on_the_batch_size(G9, monkeypatch):
    # at 5 pairs a batch every row of G9 is longer than a batch
    census = tsurf.path_length_census(G9, 0, 3.0)
    closed = tsurf.enumerate_closed(G9, 3)
    monkeypatch.setattr(paths, "_BATCH", 5)
    small = tsurf.path_length_census(G9, 0, 3.0)
    for a in ("group_lengths", "group_saddle", "counts"):
        assert np.array_equal(getattr(small, a), getattr(census, a)), a
    small = tsurf.enumerate_closed(G9, 3)
    assert np.array_equal(small.lengths, closed.lengths)
    assert np.array_equal(small.counts, closed.counts)
    assert np.array_equal(small.visits(), closed.visits())


def test_rows_compress_into_runs_of_consecutive_ids():
    rows = [[0, 1, 2, 5, 7, 8], [], [4], [3, 2, 1], [], [], [], [], [6]]
    G = tsurf.ConcatGraph.from_rows(rows, lengths=[1.0] * 9, start=[0] * 9,
                                    end=[0] * 9, cone_k=[1])
    assert np.diff(G.after.ptr).tolist() == [3, 0, 1, 1, 0, 0, 0, 0, 1]
    assert [o.tolist() for o in G.out] == [sorted(r) for r in rows]
    assert all(G.after.contains(i, j) == (j in row) for i, row in enumerate(rows)
               for j in range(9))
    back_rows, back_ids = G.before.pairs()
    assert [back_ids[back_rows == j].tolist() for j in range(9)] == [
        [0], [0, 3], [0, 3], [3], [2], [0], [8], [0], [0]]
    # predecessors 0 and 3 of saddles 1 and 2: one run each
    assert np.diff(G.before.ptr).tolist() == [1, 2, 2, 1, 1, 1, 1, 1, 1]


def test_runs_pairs_and_contains_on_arrays():
    # row 0 is three runs of consecutive ids; rows 1 and 4 are empty
    rows = [[0, 1, 2, 5, 7, 8], [], [4], [3, 2, 1], [], [], [], [], [6]]
    G = tsurf.ConcatGraph.from_rows(rows, lengths=[1.0] * 9, start=[0] * 9,
                                    end=[0] * 9, cone_k=[1])
    ask = [0, 1, 0, 3, 4, 8, 0]
    t, ids = G.after.pairs(ask)
    assert np.all(np.diff(t) >= 0)
    assert [sorted(ids[t == k].tolist()) for k in range(len(ask))] == [
        sorted(rows[a]) for a in ask]
    t, ids = G.after.pairs([])
    assert len(t) == len(ids) == 0
    i, j = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
    assert np.array_equal(G.after.contains(i, j),
                          [[j in row for j in range(9)] for row in rows])
    assert G.after.contains([0, 0, 1, 3, 0], [8, 3, 0, 3, 5]).tolist() == [
        True, False, False, True, True]
    assert G.after.contains(0, 5) and not G.after.contains(1, 5)


def test_arc_run_at_excess_zero_is_the_opposite_direction():
    # At a point of angle 2*pi the range [pi, 2*pi*(k+1) - pi] is the one
    # direction opposite to q: one sector holds it, so the first and the
    # last key of the row coincide and the row must not wrap around the
    # cone's block.
    D = ConeDirection
    placed = [(0, D(0, 0, (1, 0))), (0, D(0, 0, (1, 1))), (0, D(0, 1, (-1, 0))),
              (0, D(0, 1, (-1, -1))), (0, D(0, 0, (1, 0))), (1, D(1, 0, (1, 0)))]
    query = [(0, D(0, 1, (-1, 0))), (0, D(0, 0, (1, 0)))]
    slot = {(1, 0): 0, (-1, 0): 1}
    runs = paths._arc_runs(lambda q: [slot[(-q.vec[0], -q.vec[1])]],
                           placed, query)
    t, ids = runs.pairs()
    assert sorted(ids[t == 0].tolist()) == [0, 4]
    assert ids[t == 1].tolist() == [2]


def test_self_concatenation_recorded(G2):
    # going out the way you came in turns by the full cone angle minus 0,
    # which clears pi on both sides
    for i in range(len(G2.saddles)):
        assert G2.after.contains(i, i)


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
    lens = [length for length, _ in enumerate_paths(G9, 0, 2.5)]
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


# Grouped census against the per-path oracle -----------------------------

CENSUS_CASES = [("lshape", None, 9, 3), ("lshape", None, 36, 6),
                ("complete3", None, None, 4), ("lshape", "7/3,5/2", 49, 7),
                ("slit_tori", None, 16, 4)]


@pytest.fixture(scope="module", params=CENSUS_CASES,
                ids=["lshape-9-3", "lshape-36-6", "complete3-4",
                     "lshape_7_3_5_2-49-7", "slit_tori-16-4"])
def census_case(request):
    name, params, budget, R = request.param
    if name == "complete3":
        G = tsurf.complete_graph(3)
    else:
        S = tsurf.builtin_surface(name, params.split(",") if params else None)
        G = tsurf.build_concat_graph(S, budget)
    return G, R, tsurf.path_length_census(G, 0, R), expanded_path_census(G, 0, R)


def test_grouped_census_expands_to_the_per_path_census(census_case):
    G, R, census, oracle = census_case
    for field in ("lengths", "terminal_saddle", "terminal_k"):
        got, want = getattr(census, field), getattr(oracle, field)
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field
    assert census.count(census.Rmax) == len(oracle.group_lengths)
    # groups of one level are merged on equal (terminal, length)
    assert len(census.group_lengths) < len(oracle.group_lengths)
    radii = np.arange(1, 10 * R + 1) / 10
    assert circle_csv(G, 0, radii, census) == circle_csv(G, 0, radii, oracle)


@pytest.mark.parametrize("small_blocks", [False, True])
def test_streamed_sums_equal_cumsum_over_paths(census_case, small_blocks):
    # the run-length sums against np.cumsum over the paths, and against the
    # block-streamed oracle; small blocks carry its running sums across a
    # few hundred blocks
    G, R, census, _ = census_case
    radii = np.concatenate((np.arange(1, 10 * R + 1) / 10, [R / 2, R / 3]))
    got = paths._circle_formulas(G, 0, radii, census)
    want = cumsum_circle_formulas(G, 0, radii, census)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    kt = census.group_k.astype(np.float64)
    terms = (kt * census.group_lengths, kt * census.group_lengths ** 2)
    idx = got[0]
    block = census.count(R) // 257 + 7 if small_blocks else 1 << 20
    streamed = streamed_prefix_sums(census, terms, idx, block)
    for w, row in zip(terms, streamed):
        assert paths._run_sums(w, census.counts, idx).tobytes() == row.tobytes()


def _dyadic(a, e):
    return st.builds(lambda a, e: a * 2.0 ** e, st.integers(*a), st.integers(*e))


# Dyadic terms: short ones, zero included, over a range of scales wider
# than the 53 bits of a sum, so that a term can be half an ulp of the sum
# (a tie) or less (a stall); and full 53-bit ones, whose last bit is half
# the ulp of a sum 2 to 4 times as large. Runs of up to 2**17 equal terms
# cross binades.
_terms = (_dyadic((0, 15), (-60, 8))
          | _dyadic((1 << 52, (1 << 53) - 1), (-60, -40)))
_runs = st.lists(st.tuples(_terms, st.integers(0, 9) | st.integers(0, 1 << 17)),
                 min_size=1, max_size=10)


@settings(max_examples=300, deadline=None)
@given(_runs, st.data())
def test_run_sums_equal_cumsum_of_expansion(runs, data):
    values = np.array([c for c, _ in runs])
    counts = np.array([n for _, n in runs], dtype=np.int64)
    total = int(counts.sum())
    drawn = data.draw(st.lists(st.integers(0, total), max_size=8))
    # 0, the total, duplicates, unsorted
    targets = np.array(drawn + [total, 0] + drawn[:2], dtype=np.int64)
    want = np.concatenate(([0.0], np.cumsum(np.repeat(values, counts))))
    got = paths._run_sums(values, counts, targets)
    assert got.tobytes() == want[targets].tobytes()


@pytest.mark.parametrize("name,budget,R", [("lshape", 9, 3),
                                           ("slit_tori", 16, 5 / 2)])
def test_measure_and_volume_same_bytes_from_either_census(name, budget, R):
    S = tsurf.builtin_surface(name)
    G = tsurf.build_concat_graph(S, budget)
    grid = CellGrid(S, 3)
    census = tsurf.path_length_census(G, 0, R)
    oracle = expanded_path_census(G, 0, R)
    a = circle_measure(G, 0, R, grid, census=census)
    b = circle_measure(G, 0, R, grid, census=oracle)
    assert a.to_csv() == b.to_csv()
    assert a.meta["arcs"] == 1 + census.count(R)
    cells = range(0, grid.num_cells, 2)
    assert (region_volume(G, 0, R, grid, cells, census=census)
            == region_volume(G, 0, R, grid, cells, census=oracle))


def test_large_census_counts_and_closed_forms():
    # 72,559,410 paths in one group per (word length, saddle); every length
    # is an integer, so the float sums are exact
    m, k, R = 6, 1, 10
    G = tsurf.complete_graph(m, k=k)
    census = tsurf.path_length_census(G, 0, float(R))
    assert census.count(10.0) == sum(m ** n for n in range(1, R + 1))
    assert len(census.group_lengths) <= m * R
    circle = 2 * math.pi * ((k + 1) * R
                            + sum(m ** n * k * (R - n) for n in range(1, R + 1)))
    ball = math.pi * ((k + 1) * R ** 2
                      + sum(m ** n * k * (R - n) ** 2 for n in range(1, R + 1)))
    assert tsurf.circle_length(G, 0, R, census) == circle
    assert tsurf.ball_volume_closed(G, 0, R, census) == ball
    # 2,199,023,255,550 paths, more than any expansion could hold; every
    # partial sum stays below 2**53, so the float sums are exact
    m, k, R = 2, 1, 40
    G = tsurf.complete_graph(m, k=k)
    census = tsurf.path_length_census(G, 0, float(R))
    assert census.count(R) == 2 ** (R + 1) - 2
    circle = 2 * math.pi * ((k + 1) * R
                            + sum(m ** n * k * (R - n) for n in range(1, R + 1)))
    ball = math.pi * ((k + 1) * R ** 2
                      + sum(m ** n * k * (R - n) ** 2 for n in range(1, R + 1)))
    assert tsurf.circle_length(G, 0, R, census) == circle
    assert tsurf.ball_volume_closed(G, 0, R, census) == ball


@pytest.mark.parametrize("values,counts", [
    # 1 + 2**-52 has an odd last bit and 2**-53 is half its ulp: the first
    # tie rounds up to an even last bit, every later one rounds away
    ([1 + 2.0 ** -52, 2.0 ** -53, 3 * 2.0 ** -53], [1, 1000, 1000]),
    # 2**53 - 2 + 1.25 rounds to 2**53 - 1, the top of its binade; the next
    # term rounds to 2**53 and the one after it to 2**53 + 2
    ([2.0 ** 53 - 2, 1.25], [1, 3]),
], ids=["ties", "binade-top"])
def test_run_sums_at_ties_and_binade_tops(values, counts):
    values, counts = np.array(values), np.array(counts)
    targets = np.arange(int(counts.sum()) + 1)
    want = np.concatenate(([0.0], np.cumsum(np.repeat(values, counts))))
    assert paths._run_sums(values, counts, targets).tobytes() == want.tobytes()


def test_counts_past_int64_raise():
    # 8**21 alone is 2**63: the int64 counts would wrap to a negative
    G = tsurf.complete_graph(8)
    assert (tsurf.path_length_census(G, 0, 20.0).count(20.0)
            == sum(8 ** n for n in range(1, 21)))
    with pytest.raises(tsurf.InvalidParams):
        tsurf.path_length_census(G, 0, 21.0)
    # the count fits, the sum of terminal excesses does not
    G = tsurf.complete_graph(8, k=8)
    census = tsurf.path_length_census(G, 0, 20.0)
    with pytest.raises(tsurf.InvalidParams):
        tsurf.circle_length(G, 0, 20.0, census)


def test_census_counts_beyond_its_bound_raise():
    # a census built up to R = 2 holds 3 + 9 paths; at R = 3 there are 39
    census = paths.path_length_census(tsurf.complete_graph(3), 0, 2.0)
    assert census.count(2.0) == 12
    assert census.groups(Fraction(2)) == 6
    for query in (census.count, census.groups):
        with pytest.raises(tsurf.TruncationError):
            query(3.0)


def test_census_count_at_its_own_bound_holds_the_paths_of_length_exactly_R():
    # the benchmark tracer reads census.count(census.Rmax); the float Rmax
    # stands for the exact bound 8/3, and 42 paths have length exactly 8/3
    S = tsurf.builtin_surface("lshape", ["7/3", "5/2"])
    G = tsurf.build_concat_graph(S, 9)
    census = tsurf.path_length_census(G, 0, Fraction(8, 3))
    keys = census.keys
    exact = [keys._rational(keys.vecs[k]) == Fraction(8, 3)
             for k in census.group_key.tolist()]
    assert census.counts[exact].sum() == 42
    assert census.count(census.Rmax) == census.count(Fraction(8, 3)) == 226
    assert sum(1 for _ in enumerate_paths(G, 0, Fraction(8, 3))) == 226
    # the float of the bound stands for it; any other float is its own
    # exact value
    assert census.count(float(Fraction(8, 3))) == 226
    assert census.count(math.nextafter(census.Rmax, 0)) == 226 - 42


def test_empty_radius_lists_give_empty_results():
    G = tsurf.complete_graph(3)
    assert paths.circle_length_grid(G, 0, []).shape == (0,)
    assert paths.ball_volume_grid(G, 0, []).shape == (0,)
    assert circle_csv(G, 0, []) == "R,N,circle_length,ball_volume\n"
