"""Exact lengths of saddle connections and of their sums, for the path
census and the closed-geodesic census.

A saddle's length is q sqrt(r) with q rational and r squarefree, and a sum
of such lengths is a vector of rational coefficients over the distinct r.
Square roots of distinct squarefree integers are linearly independent over
Q (Besicovitch, J. London Math. Soc. 15, 1940), so equal vectors are equal
lengths. Both censuses prune in floats with a margin (`keyed`), count by
key id (`merge`) and sort by exact length (`_Keys.order`, `_Keys.upto`).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .errors import TruncationError
from .rational import parse_rational


def _square_part(n: int) -> tuple[int, int]:
    """(c, r) with n = c * c * r and r squarefree, by trial division."""
    c, r, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            c *= p
        if n % p == 0:
            n //= p
            r *= p
        p += 1
    return c, r * n


class _Keys:
    """Exact lengths sum_i a_i sqrt(radicands[i]) / den, each a tuple of
    nonnegative integer coefficients a_i, with integer ids in order of first
    appearance and the correctly rounded float of each.

    A `stepper` adds a saddle's length class to many keys at once."""

    def __init__(self, saddles: list[tuple[Fraction, int]]):
        # saddles: (q, r) with l = q sqrt(r) per saddle
        self.radicands = sorted({r for _, r in saddles})
        self.den = math.lcm(*(q.denominator for q, _ in saddles))
        at = {r: i for i, r in enumerate(self.radicands)}
        self.irrational = [i for i, r in enumerate(self.radicands) if r != 1]
        self.one = at.get(1)
        self.vecs: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self._floats: list[float] = []
        classes: dict[tuple[int, ...], int] = {}
        cls = []
        for q, r in saddles:
            vec = [0] * len(self.radicands)
            vec[at[r]] = int(q * self.den)
            cls.append(classes.setdefault(tuple(vec), len(classes)))
        self.classes = list(classes)
        self.cls = np.array(cls, dtype=np.int64)
        self.class_key = np.array([self.id(v) for v in self.classes], dtype=np.int64)

    def id(self, vec: tuple[int, ...]) -> int:
        k = self.ids.get(vec)
        if k is None:
            k = self.ids[vec] = len(self.vecs)
            self.vecs.append(vec)
            self._floats.append(self._float(vec))
        return k

    def floats(self) -> np.ndarray:
        return np.array(self._floats)

    def stepper(self):
        """step(key, cls): the ids of key[i] + the length of class cls[i],
        through a (key id, class) -> key id table that step fills on demand
        and that lives as long as step does."""
        table = np.full((64, max(len(self.classes), 1)), -1, dtype=np.int64)

        def step(key: np.ndarray, cls: np.ndarray) -> np.ndarray:
            nonlocal table
            if len(self.vecs) > len(table):
                grown = np.full((2 * len(self.vecs), table.shape[1]), -1,
                                dtype=np.int64)
                grown[:len(table)] = table
                table = grown
            nxt = table[key, cls]
            miss = nxt < 0
            if miss.any():
                width = table.shape[1]
                # distinct pairs in (key, class) order, however they arrive
                pairs = key[miss] * width + cls[miss]
                for k, c in (divmod(p, width) for p in merge(pairs, pairs)[0].tolist()):
                    table[k, c] = self.id(tuple(
                        a + b for a, b in zip(self.vecs[k], self.classes[c])))
                nxt = table[key, cls]
            return nxt
        return step

    def _rational(self, vec) -> Fraction | None:
        if any(vec[i] for i in self.irrational):
            return None
        return Fraction(0 if self.one is None else vec[self.one], self.den)

    def _bracket(self, vec, bits: int) -> tuple[Fraction, Fraction]:
        """Fractions lo <= l <= hi around the length l, at most n / (den *
        2**bits) apart for n terms: each term a sqrt(r) 2**bits rounded
        down to an integer by `math.isqrt`."""
        s = sum(math.isqrt(a * a * r << 2 * bits)
                for a, r in zip(vec, self.radicands) if a)
        scale = self.den << bits
        return Fraction(s, scale), Fraction(s + sum(map(bool, vec)), scale)

    def _refine(self, vec, decide):
        """decide(lo, hi) on brackets of rising precision until not None."""
        bits = 64
        while (out := decide(*self._bracket(vec, bits))) is None:
            bits *= 2
        return out

    def _float(self, vec) -> float:
        exact = self._rational(vec)
        if exact is not None:
            return float(exact)
        return self._refine(
            vec, lambda lo, hi: float(lo) if float(lo) == float(hi) else None)

    def le(self, vec, T: Fraction) -> bool:
        """Whether the length vec is <= T, exactly. A length with an
        irrational part is never equal to T, so rising precision decides."""
        exact = self._rational(vec)
        if exact is not None:
            return exact <= T
        return self._refine(vec, lambda lo, hi: None if lo <= T < hi else hi <= T)

    def _exact(self, run: list[int]) -> list[int]:
        """The stable permutation that sorts a run of key ids by exact
        length. Distinct keys are distinct lengths, so at some precision
        their brackets are disjoint."""
        bits = 64
        while True:
            span = {k: self._bracket(self.vecs[k], bits) for k in set(run)}
            spans = sorted(span.values())
            if all(a[1] < b[0] for a, b in zip(spans, spans[1:])):
                return sorted(range(len(run)), key=lambda i: span[run[i]])
            bits *= 2

    def order(self, ids: np.ndarray, bound: Fraction) -> np.ndarray:
        """The indices of the key ids of length <= bound, in a stable sort
        by exact length: by float, then each run of equal floats that holds
        distinct keys by `_exact`."""
        f = self.floats()[ids]
        by = np.argsort(f, kind="stable")
        f, run = f[by], ids[by]
        for v in set(f[1:][(f[1:] == f[:-1]) & (run[1:] != run[:-1])].tolist()):
            a, b = np.searchsorted(f, v, "left"), np.searchsorted(f, v, "right")
            by[a:b] = by[a:b][self._exact(run[a:b].tolist())]
        return by[:self.upto(ids[by], f, bound)]

    def upto(self, ids: np.ndarray, lengths: np.ndarray, T: Fraction) -> int:
        """How many entries are <= T, for ids sorted by `order` with floats
        lengths. Rounding is monotone, so only the entries whose float is
        float(T) need the exact test, and those that pass it come first."""
        a = int(np.searchsorted(lengths, float(T), side="left"))
        b = int(np.searchsorted(lengths, float(T), side="right"))
        while a < b:
            mid = (a + b) // 2
            if self.le(self.vecs[ids[mid]], T):
                a = mid + 1
            else:
                b = mid
        return a


def _length_keys(G, m: int) -> _Keys:
    """The keys of the first m saddles. A surface saddle's length is the
    square root of length_sq = num / den, that is c sqrt(r) / den with
    num * den = c**2 r; a synthetic graph's float length is exact as it
    stands."""
    if G.saddles is None:
        return _Keys([(Fraction(x), 1) for x in G.lengths[:m].tolist()])
    split = {}
    for s in G.saddles[:m]:
        if s.length_sq not in split:
            num, den = s.length_sq.numerator, s.length_sq.denominator
            c, r = _square_part(num * den)
            split[s.length_sq] = (Fraction(c, den), r)
    return _Keys([split[s.length_sq] for s in G.saddles[:m]])


def keyed(G, T) -> tuple[Fraction, int, _Keys, float]:
    """(T, m, keys, limit) for a census up to the exact bound T: the m
    saddles of length <= T, first as rounding is monotone, their keys, and
    the float limit to prune at."""
    G.check_radius(T)
    T = parse_rational(T)
    t = float(T)
    m = int(np.searchsorted(G.lengths, t, side="right"))
    # Each float compared against the limit is a sum of at most m + 3
    # correctly rounded terms of size at most 2T, so this margin bounds its
    # rounding: nothing of exact length <= T is pruned.
    limit = t + 4 * (m + 4) * sys.float_info.epsilon * t
    return T, m, _length_keys(G, m), limit


def exact_bound(T, bound: Fraction) -> Fraction:
    """A query bound of a census built up to `bound`, made exact: None, or
    the float of `bound` itself, stands for `bound`; any other float is its
    exact binary value. Beyond `bound` raises TruncationError."""
    if T is None or (isinstance(T, float) and T == float(bound)):
        return bound
    T = parse_rational(T)
    if T > bound:
        raise TruncationError(f"bound {T} exceeds the census bound {float(bound)}")
    return T


def merge(code: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in ascending order, each with its summed count."""
    order = np.argsort(code, kind="stable")
    code = code[order]
    # run starts by a bool mask, not an int64 diff: merge is at memory peaks
    new = np.ones(len(code), dtype=bool)
    np.not_equal(code[1:], code[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return code[first], np.add.reduceat(count[order], first)
