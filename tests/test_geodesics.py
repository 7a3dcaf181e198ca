"""Closed-geodesic enumeration and statistics.

The complete-graph fixture has an independent check: primitive cyclic words
over m symbols are counted by necklace arithmetic, and a no-pruning DFS
reproduces the census from scratch.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tsurf
from tsurf import TruncationError, enumerate_closed, occupancy, pi_stats, word_length
from tsurf.geodesics import saddle_cell_lengths, stats_csv
from tsurf.unfold import reversal_permutation

from oracles import (brute_closed_words, is_primitive, per_word_pi_saddle,
                     slice_min_rotation)


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
    census = enumerate_closed(C3, 4.0)
    brute = brute_closed_words(C3, 4.0)
    assert {g.word for g in census.geodesics} == brute


def test_brute_force_agreement_lshape(G9):
    T = 2.9
    census = enumerate_closed(G9, T)
    brute = brute_closed_words(G9, T)
    assert {g.word for g in census.geodesics} == brute
    assert census.pi() == len(brute)


def test_census_words_are_canonical_and_closed(G9):
    census = enumerate_closed(G9, 3.0)
    for g in census.geodesics:
        assert g.word == slice_min_rotation(g.word)
        assert is_primitive(g.word)
        for a, b in zip(g.word, g.word[1:] + g.word[:1]):
            assert G9.allowed(a, b)
        assert g.length == pytest.approx(
            word_length(G9.lengths, np.array(g.word)), rel=1e-12)


def test_census_closed_under_reversal(G9, lshape):
    perm = reversal_permutation(G9.saddles)
    census = enumerate_closed(G9, 3.0)
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
    assert {g.word for g in small.geodesics} == {
        g.word for g in big.geodesics if g.length <= 2.4}


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
       st.integers(2, 4))
def test_powers_are_never_primitive(word, p):
    w = tuple(word)
    assert not is_primitive(w * p)


def test_long_words_need_no_recursion():
    # words of ~1500 letters: the search keeps its own stack
    census = enumerate_closed(tsurf.complete_graph(1, length=0.001), 1.5)
    assert census.pi() == 1
    assert census.geodesics[0].word == (0,)


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
    for g in census.geodesics:
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
    # sparse relations with unequal lengths: partial cycles, dead ends and
    # letters that no closed word can use, which the surfaces rarely show
    rng = np.random.default_rng(13)
    for _ in range(4):
        n = 10
        rows = [np.flatnonzero(rng.random(n) < density) for _ in range(n)]
        G = tsurf.ConcatGraph(
            saddles=None, lengths=np.sort(rng.uniform(1.0, 2.0, n)),
            start=[0] * n, end=[0] * n,
            indptr=np.concatenate(([0], np.cumsum([len(r) for r in rows]))),
            succ=np.concatenate(rows), cone_k=[1], max_length_sq=None)
        census = enumerate_closed(G, 6.0)
        words = [g.word for g in census.geodesics]
        assert len(words) == len(set(words))
        assert set(words) == brute_closed_words(G, 6.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_complete_census_is_the_lyndon_words(m):
    census = enumerate_closed(tsurf.complete_graph(m), 7.0)
    lyndon = {w for n in range(1, 8) for w in itertools.product(range(m), repeat=n)
              if is_primitive(w) and w == slice_min_rotation(w)}
    assert [g.word for g in census.geodesics] == sorted(lyndon, key=lambda w: (len(w), w))


@pytest.mark.parametrize("T", [None, 2.2, 2.6, 0.5])
def test_visits_match_the_per_word_sum(G9, T):
    census = enumerate_closed(G9, 3.0)
    want = per_word_pi_saddle(census, T)
    assert np.allclose(census.pi_saddle(T), want, rtol=1e-12, atol=0)
    assert np.allclose(census.visits(T) * G9.lengths, want, rtol=1e-12, atol=0)


def test_counts_beyond_the_census_bound_raise(C3):
    census = enumerate_closed(C3, 3.0)
    for count in (census.pi, census.F, census.pi_saddle, census.visits):
        count(3.0)
        with pytest.raises(TruncationError):
            count(3.5)


def test_default_grid_stays_below_the_bound(slit):
    # the shortest closed geodesic is longer than T / 1.5 here
    G = tsurf.build_concat_graph(slit, 1)
    census = enumerate_closed(G, 1.0)
    stats = pi_stats(census, 1.0)
    lo = census.lengths[0]
    assert np.all(np.diff(stats["T"]) >= 0)
    assert lo <= stats["T"][0] and stats["T"][-1] == census.T
    assert stats["pi"][-1] == census.pi()
