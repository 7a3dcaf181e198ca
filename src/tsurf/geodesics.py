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

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidParams, TruncationError
from .paths import ConcatGraph


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


def _return_bounds(G: ConcatGraph, closes: list[bool], active: np.ndarray,
                   rev: list[list[int]]) -> np.ndarray:
    """Cheapest completion cost from each saddle back to the anchor: the sum
    of the lengths of the letters still to be appended (closing after a
    saddle s with closes[s], one the anchor may follow, is free). Dijkstra
    on the reversed edges `rev` between active saddles."""
    dist = np.full(G.n, math.inf)
    heap = []
    for s in range(G.n):
        if active[s] and closes[s]:
            dist[s] = 0.0
            heap.append((0.0, s))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        nd = d + float(G.lengths[u])
        for s in rev[u]:
            if active[s] and nd < dist[s]:
                dist[s] = nd
                heapq.heappush(heap, (nd, s))
    return dist


def enumerate_closed(G: ConcatGraph, T) -> GeodesicCensus:
    """Every Lyndon word of the graph that closes up within length T, once.

    Depth-first over the prenecklaces that start at an anchor letter, with
    exact-return-cost pruning. A prenecklace is a prefix of some Lyndon word
    (Ruskey, Savage and Wang, Generating necklaces, J. Algorithms 13, 1992);
    its period p is the length of its longest Lyndon prefix. Appending j to
    a prenecklace w of length n gives a prenecklace iff j >= w[n - p], with
    period p when j == w[n - p] and n + 1 when j is larger, and the result
    is a Lyndon word iff its period is its length. A Lyndon word starts with
    its minimal letter, so all its letters are >= the anchor."""
    if T <= 0:
        raise InvalidParams("need a positive length bound")
    G.check_radius(T)
    T = float(T)
    slack = 1e-9
    found: list[ClosedGeodesic] = []
    active = np.ones(G.n, dtype=bool)
    lengths = G.lengths.tolist()
    out = [row.tolist() for row in G.out]
    # rev[j]: the saddles that j may follow, ascending.
    rev: list[list[int]] = [[] for _ in range(G.n)]
    for s, row in enumerate(out):
        for j in row:
            rev[j].append(s)

    def record(word):
        length = word_length(G.lengths, word)
        if length <= T:
            found.append(ClosedGeodesic(tuple(word), length))

    for anchor in range(G.n):
        if lengths[anchor] > T:
            break
        active[:] = G.lengths <= T
        active[:anchor] = False
        closes = [False] * G.n
        for s in rev[anchor]:
            closes[s] = True
        back = _return_bounds(G, closes, active, rev)
        if lengths[anchor] + back[anchor] > T + slack:
            continue
        back_of = back.tolist()
        # Explicit-stack depth-first search: one iterator over the
        # successors of each letter of the current word, started at the
        # first one >= ref (rows are sorted, and ref >= anchor), with the
        # prefix lengths and periods alongside. Saddles longer than T have
        # an infinite return bound. A word is recorded when it is first
        # reached, before its extensions.
        word = [anchor]
        accs = [lengths[anchor]]
        periods = [1]
        row = out[anchor]
        stack = [itertools.islice(row, bisect_left(row, anchor), None)]
        if closes[anchor]:
            record(word)
        while stack:
            n = len(word)
            p = periods[-1]
            ref = word[n - p]
            for j in stack[-1]:
                nxt = accs[-1] + lengths[j]
                if nxt + back_of[j] > T + slack:
                    continue
                word.append(j)
                accs.append(nxt)
                periods.append(p if j == ref else n + 1)
                if closes[j] and periods[-1] == n + 1:
                    record(word)
                row = out[j]
                first = bisect_left(row, word[n + 1 - periods[-1]])
                stack.append(itertools.islice(row, first, None))
                break
            else:
                stack.pop()
                accs.pop()
                periods.pop()
                word.pop()
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


def saddle_cell_lengths(G: ConcatGraph, grid) -> dict[int, dict[int, float]]:
    """Exact split of every saddle connection's length across grid cells,
    assembled by retracing the connection and clipping each chart segment."""
    from .unfold import TracePoint, trace_ray

    S = G.surface
    if S is None:
        raise InvalidParams("synthetic graphs carry no geometry")
    out: dict[int, dict[int, float]] = {}
    for s in G.saddles:
        cone = S.cone_points[s.start]
        poly, v = cone.star[s.out_dir.slot]
        startpt = TracePoint(poly, S.polygons[poly][v])
        res = trace_ray(S, startpt, s.out_dir.vec, s.length_sq)
        shares: dict[int, float] = {}
        for seg in res.segments:
            _split_segment(grid, seg, s.length, s.length_sq, shares)
        out[s.id] = shares
    return out


def _split_segment(grid, seg, total_len: float, total_sq, shares):
    """Clip one chart segment at the cell lines and credit each piece to its
    cell. Cut parameters are exact rationals; only the final length is float."""
    from .geometry import norm_sq

    poly, a, b = seg
    x0, y0, x1, y1 = grid.boxes[poly]
    n = grid.n
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    cuts = {Fraction(0), Fraction(1)}
    cw = Fraction(x1 - x0, n)
    ch = Fraction(y1 - y0, n)
    if dx != 0:
        for i in range(1, n):
            t = (x0 + i * cw - a[0]) / dx
            if 0 < t < 1:
                cuts.add(t)
    if dy != 0:
        for j in range(1, n):
            t = (y0 + j * ch - a[1]) / dy
            if 0 < t < 1:
                cuts.add(t)
    ts = sorted(cuts)
    frac_of_total = math.sqrt(float(Fraction(norm_sq((dx, dy))) / total_sq))
    for t0, t1 in zip(ts, ts[1:]):
        mid = (a[0] + dx * (t0 + t1) / 2, a[1] + dy * (t0 + t1) / 2)
        cid = grid.cell_of_point(poly, mid)
        piece = float(t1 - t0) * frac_of_total * total_len
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
    cells = saddle_cell_lengths(G, grid)
    masses = np.zeros(grid.num_cells)
    for sid, shares in cells.items():
        if visits[sid] == 0.0:
            continue
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
