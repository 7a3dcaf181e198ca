"""Primitive closed geodesics through cone points, their counting functions,
and the occupancy measure.

A closed geodesic is a cyclic word of saddle connections with every
consecutive pair allowed, wrap-around included. Words are stored in their
lexicographically minimal rotation; a word is primitive when it is not a
strict power. Both orientations of a geodesic are counted (they are distinct
words unless the reversal happens to be a rotation of the word itself).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidParams
from .paths import ConcatGraph


def canonical_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation, by the two-pointer scan for the
    minimal cyclic shift: linear in the word length, where comparing all
    rotations is quadratic."""
    n = len(word)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = word[(i + k) % n], word[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return word[i:] + word[:i]


def is_primitive(word: tuple[int, ...]) -> bool:
    """A cyclic word is a strict power iff it equals the repetition of one of
    its prefixes whose length divides the word's."""
    n = len(word)
    for per in range(1, n):
        if n % per == 0 and word[:per] * (n // per) == word:
            return False
    return True


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
    primitive: bool

    def counts(self, n: int) -> np.ndarray:
        return np.bincount(self.word, minlength=n)


@dataclass
class GeodesicCensus:
    """All oriented primitive closed geodesics of length <= T, sorted by
    (length, word). Counting functions accept any T' <= T."""

    T: float
    geodesics: list[ClosedGeodesic]
    saddle_lengths: np.ndarray
    lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lengths = np.array([g.length for g in self.geodesics])

    @property
    def n_saddles(self) -> int:
        return len(self.saddle_lengths)

    def pi(self, T: float | None = None) -> int:
        T = self.T if T is None else T
        return int(np.searchsorted(self.lengths, T, side="right"))

    def F(self, T: float | None = None) -> float:
        """Sum over pairs (n, q) with n * l(q) <= T of the primitive length
        l(q); each q contributes l(q) * floor(T / l(q))."""
        T = self.T if T is None else T
        lens = self.lengths[:self.pi(T)]
        if not len(lens):
            return 0.0
        return float(np.dot(lens, np.floor(T / lens)))

    def pi_saddle(self, T: float | None = None) -> np.ndarray:
        """pi_s(T) = sum over census words of (occurrences of s) * l(s)/l(q)."""
        T = self.T if T is None else T
        out = np.zeros(self.n_saddles)
        for g in self.geodesics[:self.pi(T)]:
            out += g.counts(self.n_saddles) * self.saddle_lengths / g.length
        return out


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
    """Depth-first census anchored at each word's minimal saddle id, with
    exact-return-cost pruning; rotations sharing the minimum are deduplicated
    through the canonical form."""
    T = float(T)
    if T <= 0:
        raise InvalidParams("need a positive length bound")
    G.check_radius(T)
    slack = 1e-9
    seen: set[tuple[int, ...]] = set()
    found: list[ClosedGeodesic] = []
    active = np.ones(G.n, dtype=bool)
    lengths = G.lengths.tolist()
    # rev[j]: the saddles that j may follow, ascending.
    rev: list[list[int]] = [[] for _ in range(G.n)]
    for s, row in enumerate(G.out):
        for j in row.tolist():
            rev[j].append(s)

    def record(word):
        if closes[word[-1]]:
            cw = canonical_rotation(tuple(word))
            if cw not in seen:
                seen.add(cw)
                length = word_length(G.lengths, cw)
                if length <= T and is_primitive(cw):
                    found.append(ClosedGeodesic(cw, length, True))

    for anchor in range(G.n):
        if lengths[anchor] > T:
            break
        active[:] = G.lengths <= T
        active[:anchor] = False
        closes = [False] * G.n
        for s in rev[anchor]:
            closes[s] = True
        # Ids below the anchor are banned inside its words, making the anchor
        # the minimal letter; every rotation class is then met at least once.
        back = _return_bounds(G, closes, active, rev)
        if lengths[anchor] + back[anchor] > T + slack:
            continue
        live = active.tolist()
        back_of = back.tolist()
        # Explicit-stack depth-first search: one iterator over the
        # successors of each letter of the current word, and the prefix
        # lengths. A word is recorded when it is first reached, before its
        # extensions.
        word = [anchor]
        accs = [lengths[anchor]]
        stack = [iter(G.out[anchor].tolist())]
        record(word)
        while stack:
            for j in stack[-1]:
                if not live[j]:
                    continue
                nxt = accs[-1] + lengths[j]
                if nxt + back_of[j] > T + slack:
                    continue
                word.append(j)
                accs.append(nxt)
                record(word)
                stack.append(iter(G.out[j].tolist()))
                break
            else:
                stack.pop()
                accs.pop()
                word.pop()
    found.sort(key=lambda g: (g.length, g.word))
    return GeodesicCensus(T, found, np.asarray(G.lengths, dtype=np.float64))


def pi_stats(census: GeodesicCensus, h: float, grid=None) -> dict:
    """Counting diagnostics on a T grid: pi, F, the growth-law ratios
    pi(T)*hT*exp(-hT) and F(T)*h*exp(-hT), and the trailing regression slope
    of log pi."""
    if grid is None:
        lo = census.lengths[0] if len(census.lengths) else census.T
        grid = np.linspace(max(lo * 1.5, census.T * 0.4), census.T, 12)
    grid = np.asarray(grid, dtype=np.float64)
    pis = np.array([census.pi(t) for t in grid], dtype=np.float64)
    Fs = np.array([census.F(t) for t in grid])
    ok = pis > 0
    slope = (float(np.polyfit(grid[ok], np.log(pis[ok]), 1)[0])
             if ok.sum() >= 2 else math.nan)
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


def occupancy(G: ConcatGraph, census: GeodesicCensus, grid,
              T: float | None = None):
    """The occupancy histogram m_T and the per-saddle shares pi_s(T)/pi(T).
    Mass lives only on cells crossed by saddles occurring in census words;
    every other cell is exactly zero."""
    from .circles import MeasureHistogram

    T = census.T if T is None else T
    pi = census.pi(T)
    if pi == 0:
        raise InvalidParams("no closed geodesics within the bound")
    # m_T factors through A(s) = sum over words of count_s / l(q), combined
    # linearly with the per-saddle cell decomposition.
    A = np.zeros(G.n)
    for g in census.geodesics[:pi]:
        A += g.counts(G.n) / g.length
    cells = saddle_cell_lengths(G, grid)
    masses = np.zeros(grid.num_cells)
    for sid, shares in cells.items():
        if A[sid] == 0.0:
            continue
        for cid, ln in shares.items():
            masses[cid] += ln * A[sid]
    masses /= pi
    total = masses.sum()
    meta = {"T": T, "pi": pi, "total_before_normalization": total}
    hist = MeasureHistogram(grid, masses / total, 1.0, meta)
    return hist, census.pi_saddle(T) / pi


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
