"""Closed-geodesic enumeration and statistics.

The complete-graph fixture has an independent check: primitive cyclic words
over m symbols are counted by necklace arithmetic, and a no-pruning DFS
reproduces the census from scratch.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tsurf
from tsurf import enumerate_closed, occupancy, pi_stats, word_length
from tsurf.geodesics import (GeodesicCensus, canonical_rotation, is_primitive,
                             saddle_cell_lengths, stats_csv)
from tsurf.unfold import reversal_permutation

from oracles import slice_min_rotation


def _brute_census(G, T):
    """All primitive closed words of metric length <= T, canonicalized.
    No pruning at all: every cyclic word is generated and filtered."""
    out = set()
    max_words = int(T / min(G.lengths)) + 1
    def extend(word, length):
        last = word[-1]
        if G.allowed(last, word[0]) and is_primitive(tuple(word)):
            out.add(canonical_rotation(tuple(word)))
        if len(word) >= max_words:
            return
        for j in G.out[last]:
            nl = length + float(G.lengths[j])
            if nl <= T:
                extend(word + [int(j)], nl)
    for s in range(G.n):
        if G.lengths[s] <= T:
            extend([s], float(G.lengths[s]))
    return out


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
    brute = _brute_census(C3, 4.0)
    assert {g.word for g in census.geodesics} == brute


def test_brute_force_agreement_lshape(G9):
    T = 2.9
    census = enumerate_closed(G9, T)
    brute = _brute_census(G9, T)
    assert {g.word for g in census.geodesics} == brute
    assert census.pi() == len(brute)


def test_census_words_are_canonical_and_closed(G9):
    census = enumerate_closed(G9, 3.0)
    for g in census.geodesics:
        assert g.word == canonical_rotation(g.word)
        assert g.primitive
        for a, b in zip(g.word, g.word[1:] + g.word[:1]):
            assert G9.allowed(a, b)
        assert g.length == pytest.approx(
            word_length(G9.lengths, np.array(g.word)), rel=1e-12)


def test_census_closed_under_reversal(G9, lshape):
    perm = reversal_permutation(G9.saddles)
    census = enumerate_closed(G9, 3.0)
    words = {g.word for g in census.geodesics}
    for g in census.geodesics:
        rev = canonical_rotation(tuple(perm[s] for s in reversed(g.word)))
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


@given(st.lists(st.integers(0, 7), min_size=1, max_size=9))
def test_canonical_rotation_is_rotation_invariant(word):
    w = tuple(word)
    canon = canonical_rotation(w)
    assert sorted(canon) == sorted(w)
    for r in range(len(w)):
        rotated = w[r:] + w[:r]
        assert canonical_rotation(rotated) == canon
        assert canon <= rotated


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
       st.integers(2, 4))
def test_powers_are_never_primitive(word, p):
    w = tuple(word)
    assert not is_primitive(w * p)


def test_canonical_rotation_matches_slice_min():
    for n in range(1, 8):
        for word in itertools.product(range(3), repeat=n):
            assert canonical_rotation(word) == slice_min_rotation(word)


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
    hist, shares = occupancy(G9, census, grid)
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(hist.masses >= 0)
    assert shares.sum() == pytest.approx(1.0, rel=1e-12)
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
