"""Closed-geodesic counts and statistics.

The census counts words from closed walks on exact length keys and lists
none. Its oracle is the Lyndon-word search `oracles.lyndon_census`, which
lists every word; a no-pruning brute force checks that search in turn, and
on the complete graphs necklace arithmetic counts the words directly.
"""

import itertools
import math
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tsurf
from tsurf import InvalidParams, TruncationError, enumerate_closed, occupancy, pi_stats
from tsurf.geodesics import _closing_costs, saddle_cell_lengths, stats_csv

from oracles import (brute_closed_words, dense_follows, dijkstra_return_bounds,
                     enumerate_paths, fraction_saddle_cell_lengths, is_primitive,
                     lyndon_census, per_word_pi_saddle, return_bounds,
                     reversal_permutation, slice_min_rotation, word_length,
                     word_lengths)


@pytest.fixture(scope="module")
def wide_lshape():
    # the L of the geodesic_weights benchmark, with little length sharing
    return tsurf.builtin_surface("lshape", [Fraction(7, 3), Fraction(5, 2)])


@pytest.fixture(scope="module")
def G_wide(wide_lshape):
    return tsurf.build_concat_graph(wide_lshape, Fraction(121, 4))


def random_graphs(density):
    """Seeded sparse relations with unequal lengths: partial cycles, dead
    ends and letters that no closed word can use, which the surfaces rarely
    show."""
    rng = np.random.default_rng(13)
    for _ in range(4):
        n = 10
        rows = [np.flatnonzero(rng.random(n) < density) for _ in range(n)]
        yield tsurf.ConcatGraph.from_rows(
            rows, lengths=np.sort(rng.uniform(1.0, 2.0, n)),
            start=[0] * n, end=[0] * n, cone_k=[1])


def test_complete3_counts(C3):
    census = enumerate_closed(C3, 4.0)
    assert census.pi(1.0) == 3
    assert census.pi(2.0) == 6
    assert census.pi(3.0) == 14
    assert census.pi(4.0) == 32


def test_complete3_necklace_formula(C3):
    # primitive necklaces over 3 symbols, oriented: sum over n <= T of
    # (1/n) sum_{d | n} mu(d) 3^{n/d}
    census = enumerate_closed(C3, 6.0)
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    def necklaces(n):
        return sum(mu[d] * 3 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
    total = 0
    for n in range(1, 7):
        total += necklaces(n)
        assert census.pi(float(n)) == total


def test_complete3_F_values(C3):
    census = enumerate_closed(C3, 4.0)
    assert census.F(1.0) == pytest.approx(3.0)
    assert census.F(2.0) == pytest.approx(12.0)
    assert census.F(3.0) == pytest.approx(39.0)
    assert census.F(4.0) == pytest.approx(120.0)


def test_brute_force_agreement_complete3(C3):
    brute = brute_closed_words(C3, 4.0)
    assert {g.word for g in lyndon_census(C3, 4.0).geodesics} == brute
    assert enumerate_closed(C3, 4.0).pi() == len(brute)


def test_brute_force_agreement_lshape(G9):
    T = 2.9
    brute = brute_closed_words(G9, T)
    assert {g.word for g in lyndon_census(G9, T).geodesics} == brute
    assert enumerate_closed(G9, T).pi() == len(brute)


def test_census_words_are_canonical_and_closed(G9):
    census = lyndon_census(G9, 3.0)
    for g in census.geodesics:
        assert g.word == slice_min_rotation(g.word)
        assert is_primitive(g.word)
        for a, b in zip(g.word, g.word[1:] + g.word[:1]):
            assert G9.after.contains(a, b)
        assert g.length == pytest.approx(
            word_length(G9.lengths, np.array(g.word)), rel=1e-12)


def test_census_closed_under_reversal(G9, lshape):
    perm = reversal_permutation(G9.saddles)
    census = lyndon_census(G9, 3.0)
    words = {g.word for g in census.geodesics}
    for g in census.geodesics:
        rev = slice_min_rotation(tuple(perm[s] for s in reversed(g.word)))
        assert rev in words


def test_saddle_share_sums_to_pi(G9):
    census = enumerate_closed(G9, 3.0)
    pis = census.pi_saddle()
    assert pis.sum() == pytest.approx(census.pi(), rel=1e-12)
    # and at an intermediate bound too
    assert census.pi_saddle(2.2).sum() == pytest.approx(census.pi(2.2), rel=1e-12)


def test_census_prefix_consistency(G9):
    big = enumerate_closed(G9, 3.0)
    small = enumerate_closed(G9, 2.4)
    assert big.pi(2.4) == small.pi()
    assert np.array_equal(big.visits(2.4), small.visits())
    assert big.F(2.4) == small.F()
    words = lyndon_census(G9, 3.0)
    assert {g.word for g in lyndon_census(G9, 2.4).geodesics} == {
        g.word for g in words.geodesics if g.length <= 2.4}


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
       st.integers(2, 4))
def test_powers_are_never_primitive(word, p):
    w = tuple(word)
    assert not is_primitive(w * p)


def test_long_words_need_no_recursion():
    # walks of ~1500 letters: the census steps one letter at a time and the
    # oracle search keeps its own stack
    G = tsurf.complete_graph(1, length=0.001)
    census = enumerate_closed(G, 1.5)
    assert census.pi() == 1
    assert census.lengths.tolist() == [0.001]
    assert lyndon_census(G, 1.5).geodesics[0].word == (0,)


def test_single_letters_primitive():
    assert is_primitive((3,))
    assert is_primitive((1, 2))
    assert not is_primitive((1, 1))
    assert is_primitive((1, 1, 2))


def test_saddle_cell_lengths_cover(G2, lshape):
    grid = tsurf.CellGrid(lshape, 2)
    cells = saddle_cell_lengths(G2, grid)
    assert set(cells) == set(range(G2.n))
    for sid, shares in cells.items():
        assert sum(shares.values()) == pytest.approx(float(G2.lengths[sid]), rel=1e-12)
        assert all(v > 0 for v in shares.values())


def test_occupancy_histogram(G9, lshape):
    grid = tsurf.CellGrid(lshape, 2)
    census = enumerate_closed(G9, 3.0)
    hist = occupancy(G9, census, grid)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(hist.masses >= 0)
    # support: only cells some census saddle actually crosses
    used = set()
    cl = saddle_cell_lengths(G9, grid)
    for g in lyndon_census(G9, 3.0).geodesics:
        for s in set(g.word):
            used |= set(cl[s])
    for cid in range(grid.num_cells):
        if cid not in used:
            assert hist.masses[cid] == 0.0


def test_pi_stats_and_csv(C3):
    census = enumerate_closed(C3, 5.0)
    stats = pi_stats(census, math.log(3))
    assert stats["pi"][-1] == census.pi()
    assert stats["h"] == pytest.approx(math.log(3))
    text = stats_csv(stats)
    assert text.splitlines()[0] == "T,pi,F,pi_h_T_ratio,F_h_ratio"
    assert len(text.splitlines()) == len(stats["T"]) + 1


def test_no_geodesics_below_systole(G2):
    census = enumerate_closed(G2, 0.9)
    assert census.pi() == 0


@pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
def test_lyndon_census_matches_brute_force_on_random_graphs(density):
    for G in random_graphs(density):
        words = [g.word for g in lyndon_census(G, 6.0).geodesics]
        assert len(words) == len(set(words))
        assert set(words) == brute_closed_words(G, 6.0)
        assert enumerate_closed(G, 6.0).pi() == len(words)


@pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
def test_path_census_matches_the_heap_oracle_on_random_graphs(density):
    # the sweep of the closed walks read with one root: the paths' dead
    # ends and unequal lengths, which the surfaces rarely show
    for G in random_graphs(density):
        for R in (Fraction(5, 2), 4, Fraction(11, 2)):
            census = tsurf.path_length_census(G, 0, R)
            want = Counter((length, ids[-1])
                           for length, ids in enumerate_paths(G, 0, R))
            assert Counter(zip(census.lengths.tolist(),
                               census.terminal_saddle.tolist())) == want
            assert census.count(R) == sum(want.values())


def test_length_bound_parses_before_it_compares(G9):
    census = enumerate_closed(G9, "3")
    assert census.bound == 3
    assert census.pi() == enumerate_closed(G9, 3).pi()
    with pytest.raises(InvalidParams):
        enumerate_closed(G9, "-1/2")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_complete_census_is_the_lyndon_words(m):
    G = tsurf.complete_graph(m)
    lyndon = {w for n in range(1, 8) for w in itertools.product(range(m), repeat=n)
              if is_primitive(w) and w == slice_min_rotation(w)}
    words = [g.word for g in lyndon_census(G, 7.0).geodesics]
    assert words == sorted(lyndon, key=lambda w: (len(w), w))
    census = enumerate_closed(G, 7.0)
    sizes = np.bincount([len(w) for w in lyndon], minlength=8)[1:]
    assert census.lengths.tolist() == [float(n) for n in range(1, 8) if sizes[n - 1]]
    assert census.counts.tolist() == [int(c) for c in sizes if c]


@pytest.mark.parametrize("T", [None, 2.2, 2.6, 0.5])
def test_visits_match_the_per_word_sum(G9, T):
    census = enumerate_closed(G9, 3.0)
    want = per_word_pi_saddle(lyndon_census(G9, 3.0), T)
    assert np.allclose(census.pi_saddle(T), want, rtol=1e-12, atol=0)
    assert np.allclose(census.visits(T) * G9.lengths, want, rtol=1e-12, atol=0)


def test_counts_beyond_the_census_bound_raise(C3):
    census = enumerate_closed(C3, 3.0)
    for count in (census.pi, census.F, census.pi_saddle, census.visits):
        count(3.0)
        with pytest.raises(TruncationError):
            count(3.5)
    with pytest.raises(InvalidParams):
        enumerate_closed(C3, 0)


def test_default_grid_stays_below_the_bound(slit):
    # the shortest closed geodesic is longer than T / 1.5 here
    G = tsurf.build_concat_graph(slit, 1)
    census = enumerate_closed(G, 1.0)
    stats = pi_stats(census, 1.0)
    lo = census.lengths[0]
    assert np.all(np.diff(stats["T"]) >= 0)
    assert lo <= stats["T"][0] and stats["T"][-1] == census.T
    assert stats["pi"][-1] == census.pi()


def _dijkstra_bounds(G, T):
    """The oracle's bounds of every anchor of length <= T, one Dijkstra
    per anchor."""
    rev = [[] for _ in range(G.n)]
    for s, row in enumerate(G.out):
        for j in row.tolist():
            rev[j].append(s)
    rows = []
    for anchor in range(G.n):
        if G.lengths[anchor] > T:
            break
        active = G.lengths <= T
        active[:anchor] = False
        closes = [False] * G.n
        for s in rev[anchor]:
            closes[s] = True
        rows.append(dijkstra_return_bounds(G, closes, active, rev))
    return np.array(rows).reshape(len(rows), G.n)


def _assert_bounds_match(G, T):
    got = return_bounds(G, T)
    want = _dijkstra_bounds(G, T)
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("graph, T", [("G9", 3.0), ("G_wide", 5.5),
                                      ("C3", 4.0)])
def test_return_bounds_match_dijkstra(request, graph, T):
    _assert_bounds_match(request.getfixturevalue(graph), T)


@pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
def test_return_bounds_match_dijkstra_on_random_graphs(density):
    for G in random_graphs(density):
        _assert_bounds_match(G, 6.0)


def _exact_length(G, word) -> float:
    """The length of a word as the correctly rounded float of the sum of
    the square roots of its letters' length_sq, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(Decimal(G.saddles[s].length_sq.numerator).sqrt()
                    / Decimal(G.saddles[s].length_sq.denominator).sqrt()
                    for s in word)
        return float(total)


def test_census_lengths_are_word_length_bit_for_bit(G36):
    # the oracle's lengths are word_length's; the census holds the exact
    # lengths of the same words, correctly rounded, with their word counts
    words = lyndon_census(G36, 4.5)
    census = enumerate_closed(G36, 4.5)
    assert census.pi() > 0
    exact = Counter()
    for g in words.geodesics:
        assert g.length == word_length(G36.lengths, g.word), g.word
        exact[_exact_length(G36, g.word)] += 1
    assert census.lengths.tolist() == sorted(exact)
    assert census.counts.tolist() == [exact[x] for x in sorted(exact)]


def test_word_lengths_match_word_length_on_random_words():
    # repeated letters whose products round, and up to 40 distinct letters,
    # where a dot kernel may sum in another order than column by column;
    # more words than one batch holds
    rng = np.random.default_rng(5)
    lengths = np.sort(rng.uniform(1.0, 7.0, 50))
    words = [tuple(rng.integers(0, 50, rng.integers(1, 60)).tolist())
             for _ in range(5000)]
    got = word_lengths(lengths, words)
    assert got.tolist() == [word_length(lengths, w) for w in words]
    assert word_lengths(lengths, []).shape == (0,)


@pytest.mark.parametrize("surface, budget, n", [
    ("lshape", 9, 2), ("lshape", 9, 3), ("wide_lshape", Fraction(121, 4), 2),
    ("slit", 16, 4), ("sheared_lshape", 4, 3)])
def test_saddle_cell_lengths_match_the_fraction_tracer(
        request, surface, budget, n):
    S = request.getfixturevalue(surface)
    G = tsurf.build_concat_graph(S, budget)
    grid = tsurf.CellGrid(S, n)
    got = saddle_cell_lengths(G, grid)
    want = fraction_saddle_cell_lengths(G, grid)
    assert list(got) == list(want)
    for sid in want:
        assert list(got[sid].items()) == list(want[sid].items()), sid


def test_saddle_cell_lengths_of_a_subset(G9, lshape):
    grid = tsurf.CellGrid(lshape, 2)
    every = saddle_cell_lengths(G9, grid)
    some = saddle_cell_lengths(G9, grid, [3, 0, 7])
    assert list(some) == [3, 0, 7]
    assert all(some[s] == every[s] for s in some)


def _midpoints(words, T, most=25):
    """Bounds midway between consecutive distinct values n * l(q) <= T
    (word q, n >= 1), where F and pi step: at most `most`, spread evenly."""
    lens = np.unique(words.lengths)
    steps = np.unique(np.concatenate(
        [lens * n for n in range(1, int(T / lens[0]) + 1)])) if len(lens) else lens
    # float sums of one exact length differ in their last bits
    steps = steps[(steps <= T) & np.concatenate(([True], np.diff(steps) > 1e-9))]
    mids = (steps[1:] + steps[:-1]) / 2
    pick = np.unique(np.linspace(0, len(mids) - 1, most).astype(int)) if len(mids) else []
    return [float(mids[i]) for i in pick]


def _assert_counts_match_the_oracle(G, T):
    census = enumerate_closed(G, T)
    words = lyndon_census(G, T)
    mids = _midpoints(words, float(T))
    assert mids
    for t in mids:
        assert census.pi(t) == words.pi(t), t
        assert census.F(t) == pytest.approx(words.F(t), rel=1e-12, abs=0), t
        assert np.allclose(census.visits(t), words.visits(t), rtol=1e-12, atol=0), t


@pytest.mark.parametrize("graph, T", [("C3", 6.0), ("G9", 3.0),
                                      ("G_wide", Fraction(11, 2))])
def test_counts_match_the_lyndon_oracle(request, graph, T):
    _assert_counts_match_the_oracle(request.getfixturevalue(graph), T)


@pytest.mark.parametrize("density", [0.15, 0.3, 0.5])
def test_counts_match_the_lyndon_oracle_on_random_graphs(density):
    for G in random_graphs(density):
        if lyndon_census(G, 6.0).pi():
            _assert_counts_match_the_oracle(G, 6.0)


def _necklaces(m: int, n: int) -> int:
    """Primitive necklaces of n letters over m symbols: (1/n) times the sum
    over d | n of mu(d) m^(n/d)."""
    def mobius(k):
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out
    return sum(mobius(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("m", [1, 2, 3])
def test_complete_graph_counts_are_the_necklace_numbers(m):
    # far past the oracle's reach; each letter is 1/m of the letters
    _assert_counts_match_the_oracle(tsurf.complete_graph(m), 7.0)
    census = enumerate_closed(tsurf.complete_graph(m), 20)
    necklaces = [_necklaces(m, n) for n in range(1, 21)]
    assert census.lengths.tolist() == [float(n) for n in range(1, 21) if necklaces[n - 1]]
    assert census.counts.tolist() == [c for c in necklaces if c]
    assert census.pi() == sum(necklaces)
    assert np.allclose(census.visits(), sum(necklaces) / m, rtol=1e-12, atol=0)


def test_exact_inclusion_at_rational_lengths(G_wide):
    # 96 words have length <= 8/3, 8 of them exactly 8/3, and a float
    # sum puts those 8 above float(8/3); at 11/3 the count is 640
    census = enumerate_closed(G_wide, Fraction(11, 3))
    assert census.pi() == 640
    assert census.pi(Fraction(8, 3)) == 96
    assert enumerate_closed(G_wide, Fraction(8, 3)).pi() == 96
    # float(8/3) is below 8/3, so the words of length 8/3 are not within it
    exact = census.counts[census.lengths == float(Fraction(8, 3))].sum()
    assert census.pi(float(Fraction(8, 3))) == 96 - exact
    # the oracle agrees just above the two bounds, before the next length
    words = lyndon_census(G_wide, 4.0)
    for T, want in ((Fraction(8, 3), 96), (Fraction(11, 3), 640)):
        nxt = words.lengths[words.lengths > float(T) + 1e-9][0]
        assert words.pi((float(T) + nxt) / 2) == want


def test_fraction_bounds_are_exact(C3):
    census = enumerate_closed(C3, Fraction(7, 2))
    assert census.pi(Fraction(3)) == census.pi(3.0) == 14
    assert census.F(Fraction(3)) == 39.0
    assert census.pi() == census.pi(3.5) == census.pi(census.T) == 14
    with pytest.raises(TruncationError):
        census.pi(Fraction(7, 2) + Fraction(1, 10 ** 30))


def test_closed_walk_counts_past_int64_raise():
    # 8^21 = 2^63 closed walks of 21 letters on the complete graph
    census = enumerate_closed(tsurf.complete_graph(8), 20)
    assert census.pi() == sum(_necklaces(8, n) for n in range(1, 21))
    with pytest.raises(InvalidParams):
        enumerate_closed(tsurf.complete_graph(8), 21)


@pytest.mark.parametrize("graph, T", [("G9", 3.0), ("G_wide", 5.5), ("C3", 4.0)])
def test_closing_costs_match_dijkstra(request, graph, T):
    G = request.getfixturevalue(graph)
    m = int(np.searchsorted(G.lengths, T, side="right"))
    follows = dense_follows(G, m)
    cost = _closing_costs(G, m)
    rev = [[] for _ in range(G.n)]
    for s, row in enumerate(G.out):
        for j in row.tolist():
            rev[j].append(s)
    active = G.lengths <= T
    for r in range(m):
        closes = [bool(s < m and follows[s, r]) for s in range(G.n)]
        want = dijkstra_return_bounds(G, closes, active, rev)[:m]
        got = cost[r] - G.lengths[:m]
        assert np.array_equal(np.isfinite(got), np.isfinite(want)), r
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12), r


def test_lshape_64_to_length_8_runs_in_seconds(lshape):
    # item 5 of the roadmap: the Lyndon search would list ~3e7 words here
    G = tsurf.build_concat_graph(lshape, 64)
    t0 = time.monotonic()
    census = enumerate_closed(G, 8)
    assert time.monotonic() - t0 < 10.0
    # the oracle's count at B = 36, T = 11/2
    assert census.pi(Fraction(11, 2)) == 98928
    assert census.pi() == 31848008
