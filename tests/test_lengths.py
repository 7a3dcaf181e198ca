"""Exact length keys: the order and prefix rule both censuses share."""

import gc
import weakref
from fractions import Fraction

import numpy as np

import tsurf
from tsurf.lengths import _Keys, merge

# Convergents of sqrt(2) with p**2 - 2 q**2 = 1: q sqrt(2) is shorter than
# p by 1 / (p + q sqrt(2)), less than half an ulp of either.
P, Q = 131836323, 93222358


def test_a_pell_pair_is_ordered_and_split_exactly():
    keys = _Keys([(Fraction(P), 1), (Fraction(Q), 2)])
    p, q = keys.class_key.tolist()
    lengths = keys.floats()
    assert P * P - 2 * Q * Q == 1 and lengths[p] == lengths[q]
    ids = np.array([p, q, p, q])
    by = keys.order(ids, Fraction(P))
    # the shorter key first, each key's entries in their given order
    assert by.tolist() == [1, 3, 0, 2]
    # rationals between the two, and below both, with the float of p
    between = P - Fraction(1, 4 * Q)
    below = P - Fraction(1, 2 * Q)
    assert float(between) == float(below) == lengths[p]
    assert keys.order(ids, between).tolist() == [1, 3]
    assert keys.order(ids, below).tolist() == []
    ids = ids[by]
    assert [keys.upto(ids, keys.floats()[ids], T)
            for T in (below, between, Fraction(P))] == [0, 2, 4]


def test_merge_sums_the_counts_of_equal_codes():
    code, count = merge(np.array([5, 2, 5, 7, 2, 5]), np.array([1, 2, 3, 4, 5, 6]))
    assert code.tolist() == [2, 5, 7]
    assert count.tolist() == [7, 10, 4]
    code, count = merge(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert len(code) == len(count) == 0


def test_a_census_frees_its_keys_without_the_cycle_collector(G9):
    # a stepper that called itself kept its keys in a reference cycle
    gc.disable()
    try:
        census = tsurf.path_length_census(G9, 0, 3)
        step = census.keys.stepper()
        ids = step(census.group_key, np.zeros_like(census.group_key))
        assert len(ids) == len(census.group_key)
        keys = weakref.ref(census.keys)
        del census, step
        assert keys() is None
    finally:
        gc.enable()
