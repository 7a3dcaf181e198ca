"""Primitive closed geodesics through cone points, their counting functions,
and the occupancy measure.

A closed geodesic is a cyclic word of saddle connections with every
consecutive pair allowed, wrap-around included. A primitive cyclic word (one
that is not a strict power) has exactly one rotation that is a Lyndon word,
strictly smaller than all its other rotations, and that rotation is the one
stored. Both orientations of a geodesic are counted (they are distinct words
unless the reversal happens to be a rotation of the word itself).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, TruncationError
from .geometry import Wedge, neg
from .paths import ConcatGraph
from .unfold import integer_polygons, unfold_wedge


# Words per batch of `word_lengths`.
_WORD_BLOCK = 4096


def word_length(lengths: np.ndarray, word: tuple[int, ...]) -> float:
    """Float length of a cyclic word, accumulated by ascending saddle id so
    the value does not depend on which rotation was handed in."""
    counts = np.bincount(word, minlength=len(lengths))
    ids = np.flatnonzero(counts)
    return float(np.dot(counts[ids].astype(np.float64), lengths[ids]))


@dataclass(frozen=True)
class ClosedGeodesic:
    word: tuple[int, ...]
    length: float


@dataclass
class GeodesicCensus:
    """All oriented primitive closed geodesics of length <= T, sorted by
    (length, word). Counting functions accept any T' <= T and raise
    TruncationError beyond it."""

    T: float
    geodesics: list[ClosedGeodesic]
    saddle_lengths: np.ndarray
    lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lengths = np.array([g.length for g in self.geodesics])
        # The letters of all words, concatenated in census order, and the
        # number of letters of each word.
        self._sizes = np.fromiter((len(g.word) for g in self.geodesics),
                                  dtype=np.int64, count=len(self.geodesics))
        self._letters = np.fromiter(
            itertools.chain.from_iterable(g.word for g in self.geodesics),
            dtype=np.int32, count=int(self._sizes.sum()))

    @property
    def n_saddles(self) -> int:
        return len(self.saddle_lengths)

    def _bound(self, T: float | None) -> float:
        if T is None:
            return self.T
        if T > self.T:
            raise TruncationError(f"bound {T} exceeds the census bound {self.T}")
        return T

    def pi(self, T: float | None = None) -> int:
        T = self._bound(T)
        return int(np.searchsorted(self.lengths, T, side="right"))

    def F(self, T: float | None = None) -> float:
        """Sum over pairs (n, q) with n * l(q) <= T of the primitive length
        l(q); each q contributes l(q) * floor(T / l(q))."""
        T = self._bound(T)
        lens = self.lengths[:self.pi(T)]
        if not len(lens):
            return 0.0
        return float(np.dot(lens, np.floor(T / lens)))

    def visits(self, T: float | None = None) -> np.ndarray:
        """Per saddle s: the sum over census words q with l(q) <= T of
        (occurrences of s in q) / l(q)."""
        k = self.pi(T)
        weights = np.repeat(1.0 / self.lengths[:k], self._sizes[:k])
        return np.bincount(self._letters[:len(weights)], weights=weights,
                           minlength=self.n_saddles)

    def pi_saddle(self, T: float | None = None) -> np.ndarray:
        """pi_s(T) = sum over census words of (occurrences of s) * l(s)/l(q)."""
        return self.visits(T) * self.saddle_lengths


def _follows(G: ConcatGraph, m: int) -> np.ndarray:
    """follows[s, j]: j may follow s, among the first m saddles."""
    follows = np.zeros((m, m), dtype=bool)
    for s in range(m):
        row = G.out[s]
        follows[s, row[:np.searchsorted(row, m)]] = True
    return follows


def return_bounds(G: ConcatGraph, T: float) -> np.ndarray:
    """Cheapest completion cost back to each anchor, for every anchor at once.

    Row a, column s: the least sum of the lengths of the letters still to be
    appended after s so that the word can close at anchor a, with every
    letter >= a and of length <= T (zero when a may follow s). Rows cover the
    anchors of length <= T; columns of saddles below the anchor or longer
    than T are infinite.

    One Floyd-Warshall over the m saddles of length <= T (the first m ids),
    relaxing through k = m - 1 down to 0: after step k, D[s, u] is the
    cheapest path s -> u with every intermediate letter >= k, weighted by
    the lengths of the letters entered (the empty path of D[s, s] is free),
    so row k reads off D at the letters k may follow. O(m^3) in dense
    min-plus steps."""
    m = int(np.searchsorted(G.lengths, T, side="right"))
    follows = _follows(G, m)
    D = np.where(follows, G.lengths[:m], math.inf)
    np.fill_diagonal(D, 0.0)
    bounds = np.full((m, G.n), math.inf)
    for k in range(m - 1, -1, -1):
        np.minimum(D, D[:, k, None] + D[k], out=D)
        last = k + np.flatnonzero(follows[k:, k])
        if len(last):
            bounds[k, k:m] = D[k:, last].min(axis=1)
    return bounds


class _RankedRows(dict):
    """For one anchor, the successors of each letter among the letters
    >= anchor with a finite return bound, in ascending cost (length plus
    return bound), with those costs: two Python lists per letter, built when
    the search first reaches the letter."""

    def __init__(self, follows: np.ndarray, lengths: np.ndarray,
                 back: np.ndarray, anchor: int):
        super().__init__()
        live = anchor + np.flatnonzero(np.isfinite(back[anchor:len(follows)]))
        cost = lengths[live] + back[live]
        order = np.argsort(cost, kind="stable")
        self.follows = follows
        self.ranked = live[order]
        self.cost = cost[order]

    def __missing__(self, s: int):
        take = self.follows[s, self.ranked]
        row = self[s] = (self.ranked[take].tolist(), self.cost[take].tolist())
        return row


def word_lengths(lengths: np.ndarray, words: list[tuple[int, ...]]) -> np.ndarray:
    """`word_length` of many words in one pass. Each word's (count, length)
    pairs in ascending saddle id are gathered from one sort, and the words
    with the same number of distinct letters share one stacked matmul. That
    runs the dot kernel of `word_length` on the same vectors, so the values
    agree bit for bit whatever the kernel's summation order."""
    if len(words) > _WORD_BLOCK:
        # Blocks of words keep the temporary arrays small.
        return np.concatenate([word_lengths(lengths, words[i:i + _WORD_BLOCK])
                               for i in range(0, len(words), _WORD_BLOCK)])
    n = len(lengths)
    sizes = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    letters = np.fromiter(itertools.chain.from_iterable(words),
                          dtype=np.int64, count=int(sizes.sum()))
    keys, counts = np.unique(np.repeat(np.arange(len(words)), sizes) * n + letters,
                             return_counts=True)
    owner = keys // n
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    distinct = np.diff(first, append=len(keys))
    out = np.empty(len(words))
    for k in np.flatnonzero(np.bincount(distinct)):
        sel = np.flatnonzero(distinct == k)
        at = first[sel, None] + np.arange(k)
        c = counts[at].astype(np.float64)
        out[sel] = np.matmul(c[:, None, :], lengths[keys[at] % n][:, :, None])[:, 0, 0]
    return out


def enumerate_closed(G: ConcatGraph, T) -> GeodesicCensus:
    """Every Lyndon word of the graph that closes up within length T, once.

    Depth-first over the prenecklaces that start at an anchor letter, with
    exact-return-cost pruning. A prenecklace is a prefix of some Lyndon word
    (Ruskey, Savage and Wang, Generating necklaces, J. Algorithms 13, 1992);
    its period p is the length of its longest Lyndon prefix. Appending j to
    a prenecklace w of length n gives a prenecklace iff j >= w[n - p], with
    period p when j == w[n - p] and n + 1 when j is larger, and the result
    is a Lyndon word iff its period is its length. A Lyndon word starts with
    its minimal letter, so all its letters are >= the anchor.

    The return bounds of all anchors come from one pass, `return_bounds`.
    Each letter's successors are ranked by their length plus return bound,
    so the search reads only those that can still close within T. It
    collects the Lyndon words that close; their float lengths are computed
    in one batch by `word_lengths` afterwards, and the bound T is applied to
    those."""
    if T <= 0:
        raise InvalidParams("need a positive length bound")
    G.check_radius(T)
    T = float(T)
    slack = 1e-9
    limit = T + slack
    lengths = G.lengths.tolist()
    bounds = return_bounds(G, T)
    follows = _follows(G, len(bounds))
    words: list[tuple[int, ...]] = []
    for anchor, back in enumerate(bounds):
        back_of = back.tolist()
        if lengths[anchor] + back_of[anchor] > limit:
            continue
        succ = _RankedRows(follows, G.lengths, back, anchor)
        # Explicit-stack depth-first search: one iterator over the
        # successors of each letter of the current word that can still
        # close within T (a prefix of its ranked successors), with the
        # prefix lengths and periods alongside; successors below ref are
        # skipped. Lengths are positive, so a word can close at the anchor
        # exactly when its last letter's bound is zero. A word is
        # collected when it is first reached, before its extensions.
        word = [anchor]
        accs = [lengths[anchor]]
        periods = [1]
        ids, costs = succ[anchor]
        stack = [itertools.islice(ids, bisect_right(costs, limit - accs[0]))]
        if back_of[anchor] == 0.0:
            words.append((anchor,))
        while stack:
            n = len(word)
            p = periods[-1]
            ref = word[n - p]
            for j in stack[-1]:
                if j < ref:
                    continue
                nxt = accs[-1] + lengths[j]
                word.append(j)
                accs.append(nxt)
                periods.append(p if j == ref else n + 1)
                if back_of[j] == 0.0 and periods[-1] == n + 1:
                    words.append(tuple(word))
                ids, costs = succ[j]
                stack.append(itertools.islice(ids, bisect_right(costs, limit - nxt)))
                break
            else:
                stack.pop()
                accs.pop()
                periods.pop()
                word.pop()
    found = [ClosedGeodesic(w, length) for w, length
             in zip(words, word_lengths(G.lengths, words).tolist())
             if length <= T]
    found.sort(key=lambda g: (g.length, g.word))
    return GeodesicCensus(T, found, np.asarray(G.lengths, dtype=np.float64))


def pi_stats(census: GeodesicCensus, h: float, grid=None) -> dict:
    """Counting diagnostics on a T grid: pi, F, the growth-law ratios
    pi(T)*hT*exp(-hT) and F(T)*h*exp(-hT), and the trailing regression slope
    of log pi."""
    if grid is None:
        # Up to T from the larger of 0.4 T and 1.5 times the shortest
        # length, or from the shortest length when that start passes T.
        T = census.T
        lo = census.lengths[0] if len(census.lengths) else T
        start = max(lo * 1.5, T * 0.4)
        grid = np.linspace(start if start <= T else lo, T, 12)
    grid = np.asarray(grid, dtype=np.float64)
    pis = np.array([census.pi(t) for t in grid], dtype=np.float64)
    Fs = np.array([census.F(t) for t in grid])
    ok = pis > 0
    slope = (float(np.polyfit(grid[ok], np.log(pis[ok]), 1)[0])
             if len(np.unique(grid[ok])) >= 2 else math.nan)
    return {
        "T": grid,
        "pi": pis.astype(int),
        "F": Fs,
        "pi_ratio": pis * h * grid * np.exp(-h * grid),
        "F_ratio": Fs * h * np.exp(-h * grid),
        "log_pi_slope": slope,
        "h": h,
    }


def stats_csv(stats: dict) -> str:
    lines = ["T,pi,F,pi_h_T_ratio,F_h_ratio"]
    for t, p, f, r1, r2 in zip(stats["T"], stats["pi"], stats["F"],
                               stats["pi_ratio"], stats["F_ratio"]):
        lines.append(f"{t:.17g},{p},{f:.17g},{r1:.17g},{r2:.17g}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# Occupancy measure


def saddle_cell_lengths(G: ConcatGraph, grid, ids=None) -> dict[int, dict[int, float]]:
    """Exact split of each saddle connection's length across the grid cells,
    for every saddle or for those in `ids`, read off the integer development
    of its direction.

    `unfold_wedge` develops the single direction of the saddle from its
    start corner; the chain of polygon copies it yields is the chain of
    charts the connection crosses. In each copy the ray tau * q (q the
    holonomy scaled by the coordinate denominator D, 0 <= tau <= 1) is
    clipped to the copy and cut at the cell lines, all in integer
    cross-multiplications over one common denominator per copy. Each piece
    is credited to the cell of its midpoint with its share of the length;
    only that share is float."""
    S = G.surface
    if S is None:
        raise InvalidParams("synthetic graphs carry no geometry")
    D, polys = integer_polygons(S)
    n = grid.n
    boxes = [tuple(int(c * D) for c in box) for box in grid.boxes]
    out: dict[int, dict[int, float]] = {}
    for sid in (range(G.n) if ids is None else ids):
        s = G.saddles[sid]
        qx, qy = int(s.holonomy[0] * D), int(s.holonomy[1] * D)
        p, v = S.cone_points[s.start].star[s.out_dir.slot]
        d = s.out_dir.vec
        copies = unfold_wedge(S, polys, qx * qx + qy * qy, p, neg(polys[p][v]),
                              Wedge(d, True, d, True))
        shares: dict[int, float] = {}
        for poly, (tx, ty), verts, *_ in copies:
            span = _clip_ray(verts, qx, qy)
            if span is not None:
                _split_span(span, qx, qy, tx, ty, boxes[poly], n,
                            grid.offsets[poly], s.length, shares)
        out[sid] = shares
    return out


def _clip_ray(verts, qx, qy):
    """The parameters [lo, hi] (as numerator, denominator pairs) of the part
    of the segment tau * (qx, qy), 0 <= tau <= 1, inside a convex ccw
    polygon, or None when that part is at most a point. A point P is inside
    when cross(E2 - E1, P - E1) >= 0 for every edge E1 E2."""
    lo, hi = (0, 1), (1, 1)
    m = len(verts)
    for k in range(m):
        (x1, y1), (x2, y2) = verts[k], verts[(k + 1) % m]
        ex, ey = x2 - x1, y2 - y1
        c = ex * qy - ey * qx
        h = ex * y1 - ey * x1
        # Inside this edge's half-plane: tau * c >= h.
        if c > 0:
            if h * lo[1] > lo[0] * c:
                lo = (h, c)
        elif c < 0:
            if -h * hi[1] < hi[0] * -c:
                hi = (-h, -c)
        elif h > 0:
            return None
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return None
    return lo, hi


def _split_span(span, qx, qy, tx, ty, box, n, offset, total_len, shares):
    """Cut the ray's span in one copy (translated by (tx, ty)) at the cell
    lines of its polygon's scaled bounding box and credit each piece to its
    cell. Every parameter is an integer over the common denominator L."""
    (an, ad), (bn, bd) = span
    X0, Y0, X1, Y1 = box
    L = math.lcm(ad, bd, n * qx or 1, n * qy or 1)
    ua, ub = an * (L // ad), bn * (L // bd)
    cuts = {ua, ub}
    # Line i of a coordinate sits at X0 + i (X1 - X0) / n in the polygon,
    # which the ray reaches at tau = (n (X0 + tx) + i (X1 - X0)) / (n qx).
    for q, lo, hi, t in ((qx, X0, X1, tx), (qy, Y0, Y1, ty)):
        if q:
            scale = L // (n * q)
            for i in range(1, n):
                u = (n * (lo + t) + i * (hi - lo)) * scale
                if ua < u < ub:
                    cuts.add(u)
    us = sorted(cuts)
    width = ub - ua
    # The float terms are those of the chart-segment split in `Fraction`
    # (tests/oracles.py), evaluated on the same rationals: int / int rounds
    # correctly as float(Fraction) does, so the shares agree bit for bit.
    frac_of_total = math.sqrt(width * width / (L * L))
    for u0, u1 in zip(us, us[1:]):
        # The midpoint (u0 + u1) / 2L of the piece, in the polygon's own
        # scaled coordinates, located on the cell lines by floor division.
        i = ((u0 + u1) * qx - 2 * L * (tx + X0)) * n // (2 * L * (X1 - X0))
        j = ((u0 + u1) * qy - 2 * L * (ty + Y0)) * n // (2 * L * (Y1 - Y0))
        cid = offset + min(max(j, 0), n - 1) * n + min(max(i, 0), n - 1)
        piece = (u1 - u0) / width * frac_of_total * total_len
        if piece:
            shares[cid] = shares.get(cid, 0.0) + piece


def occupancy(G: ConcatGraph, census: GeodesicCensus, grid):
    """The occupancy histogram m_T at the census bound. Mass lives only on
    cells crossed by saddles occurring in census words; every other cell is
    exactly zero."""
    from .circles import MeasureHistogram

    pi = census.pi()
    if pi == 0:
        raise InvalidParams("no closed geodesics within the bound")
    # m_T factors through the visit vector, combined linearly with the
    # per-saddle cell decomposition.
    visits = census.visits()
    cells = saddle_cell_lengths(G, grid, np.flatnonzero(visits).tolist())
    masses = np.zeros(grid.num_cells)
    for sid, shares in cells.items():
        for cid, ln in shares.items():
            masses[cid] += ln * visits[sid]
    masses /= pi
    total = masses.sum()
    meta = {"T": census.T, "pi": pi, "total_before_normalization": total}
    return MeasureHistogram(grid, masses / total, meta)


def saddle_csv(G: ConcatGraph, pi_s: np.ndarray, pi: int, v_ids, v_weights) -> str:
    """Per-saddle comparison of the geodesic share against the spectral
    weight; saddles outside the spectral component get an empty column."""
    vmap = {int(i): float(w) for i, w in zip(v_ids, v_weights)}
    lines = ["saddle_id,pi_s,pi_s_over_pi,v_spectral"]
    for s in range(G.n):
        v = vmap.get(s)
        lines.append(f"{s},{pi_s[s]:.17g},{pi_s[s] / pi:.17g},"
                     f"{'' if v is None else format(v, '.17g')}")
    return "\n".join(lines) + "\n"
