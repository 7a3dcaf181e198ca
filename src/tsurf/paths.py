"""Concatenation graph, admissible paths, exact circle lengths.

Two saddle connections concatenate iff the second starts where the first
ends and the turn between them keeps at least a half-turn of angle on both
sides (equality allowed). Admissible paths from a cone point x with total
length <= R are the combinatorial skeleton of the metric circle of radius R
around x: each path contributes an arc of angle 2*pi*k(t(p)) and radius
R - l(p), plus the full 2*pi*(k(x)+1) arc of the center itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParams, TruncationError
from .geometry import ccw_sort_key
from .rational import parse_rational
from .surface import TranslationSurface
from .unfold import enumerate_saddle_connections, opposite_sectors

TWO_PI = 2 * math.pi


class ConcatGraph:
    """Saddle connections within a length budget plus the allowed-successor
    relation, stored once as a CSR: the successors of saddle i are
    succ[indptr[i]:indptr[i+1]], sorted by id. Ids are sorted by length, so
    that is also (length, id) order. max_length_sq None means the graph is
    complete for every radius (synthetic fixtures); otherwise queries beyond
    the budget raise TruncationError."""

    def __init__(self, saddles, lengths, start, end, indptr, succ, cone_k,
                 max_length_sq, surface=None):
        self.saddles = saddles
        self.n = len(lengths)
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.start = np.asarray(start, dtype=np.int32)
        self.end = np.asarray(end, dtype=np.int32)
        self.cone_k = np.asarray(cone_k, dtype=np.int32)
        self.max_length_sq = max_length_sq
        self.surface = surface
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.succ = np.asarray(succ, dtype=np.int32)
        # Row views into succ, one per saddle.
        self.out = [self.succ[a:b]
                    for a, b in zip(self.indptr[:-1], self.indptr[1:])]

    def allowed(self, i: int, j: int) -> bool:
        row = self.out[i]
        k = int(np.searchsorted(row, j))
        return k < len(row) and bool(row[k] == j)

    def check_radius(self, R):
        """Queries at radius R are only complete if every saddle connection
        of length <= R is inside the enumeration budget."""
        if self.max_length_sq is None:
            return
        if Fraction(parse_rational(R)) ** 2 > self.max_length_sq:
            raise TruncationError(
                f"radius {R} exceeds the graph budget sqrt({self.max_length_sq})"
            )

    def __repr__(self):
        return f"ConcatGraph(n={self.n}, edges={len(self.succ)})"


def _position(slot: int, vec):
    """Sort key of a direction in its cone's angular coordinate: sector
    first, then counterclockwise order inside the half-open sector."""
    return (slot, ccw_sort_key(vec))


def build_concat_graph(S: TranslationSurface, max_length_sq) -> ConcatGraph:
    """Enumerate saddle connections within the budget and read each
    successor set off the exact angular order of the out-directions.

    By the two-sided half-turn test, s2 may follow s exactly when s2 leaves
    the cone at a ccw angle from s.back_dir in [pi, 2*pi*(k+1) - pi]. With
    the out-directions at each cone sorted exactly by angle, that arc is one
    cyclic index range, found by two binary searches.
    """
    saddles = enumerate_saddle_connections(S, max_length_sq)
    leaving: dict[int, list] = {}
    for s in saddles:
        d = s.out_dir
        leaving.setdefault(s.start, []).append((_position(d.slot, d.vec), s.id))
    order, keys = {}, {}
    for cone, group in leaving.items():
        group.sort()
        keys[cone] = [key for key, _ in group]
        order[cone] = np.array([i for _, i in group], dtype=np.int32)
    empty = np.zeros(0, dtype=np.int32)
    rows = []
    for s in saddles:
        if s.end not in order:
            rows.append(empty)
            continue
        slots = opposite_sectors(S, s.back_dir)
        opposite = (-s.back_dir.vec[0], -s.back_dir.vec[1])
        first = _position(slots[0], opposite)
        last = _position(slots[-1], opposite)
        i = bisect_left(keys[s.end], first)
        j = bisect_right(keys[s.end], last)
        ids = order[s.end]
        rows.append(np.sort(ids[i:j] if first < last
                            else np.concatenate((ids[i:], ids[:j]))))
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    return ConcatGraph(
        saddles=tuple(saddles),
        lengths=[s.length for s in saddles],
        start=[s.start for s in saddles],
        end=[s.end for s in saddles],
        indptr=indptr,
        succ=np.concatenate([empty, *rows]),
        cone_k=[c.k for c in S.cone_points],
        max_length_sq=parse_rational(max_length_sq),
        surface=S,
    )


def complete_graph(m: int, length: float = 1.0, k: int = 1) -> ConcatGraph:
    """Synthetic fixture: m saddle loops of equal length at one cone point,
    every ordered pair (self included) allowed; complete at every radius."""
    if m < 1:
        raise InvalidParams("need at least one saddle")
    return ConcatGraph(
        saddles=None,
        lengths=[length] * m,
        start=[0] * m,
        end=[0] * m,
        indptr=np.arange(0, m * m + 1, m),
        succ=np.tile(np.arange(m), m),
        cone_k=[k],
        max_length_sq=None,
    )


# ----------------------------------------------------------------------------
# Path census


@dataclass
class PathCensus:
    """All admissible path lengths from x up to Rmax, sorted ascending, with
    the terminal cone's k and terminal saddle id aligned."""

    x: int
    Rmax: float
    lengths: np.ndarray
    terminal_k: np.ndarray
    terminal_saddle: np.ndarray

    def count(self, R: float) -> int:
        return int(np.searchsorted(self.lengths, R, side="right"))


def path_length_census(G: ConcatGraph, x: int, Rmax) -> PathCensus:
    """Level-synchronized sweep over word lengths; vectorized per saddle."""
    G.check_radius(Rmax)
    Rmax = float(Rmax)
    if not (0 <= x < len(G.cone_k)):
        raise InvalidParams(f"no cone point {x}")
    kt = G.cone_k[G.end]
    chunks = []
    cur: dict[int, np.ndarray] = {}
    for s in range(G.n):
        if G.start[s] == x and G.lengths[s] <= Rmax:
            cur[s] = np.array([G.lengths[s]])
    while cur:
        for s, arr in cur.items():
            chunks.append((s, arr))
        nxt: dict[int, list] = {}
        for s, arr in cur.items():
            for j in G.out[s]:
                lj = G.lengths[j]
                ext = arr[arr <= Rmax - lj] + lj
                if len(ext):
                    nxt.setdefault(int(j), []).append(ext)
        cur = {s: (np.concatenate(v) if len(v) > 1 else v[0])
               for s, v in nxt.items()}
    if not chunks:
        empty = np.zeros(0)
        return PathCensus(x, Rmax, empty, empty.astype(np.int32),
                          empty.astype(np.int32))
    lengths = np.concatenate([arr for _, arr in chunks])
    term = np.concatenate([np.full(len(arr), s, dtype=np.int32)
                           for s, arr in chunks])
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    term = term[order]
    return PathCensus(x, Rmax, lengths, kt[term], term)


# ----------------------------------------------------------------------------
# Circle length and ball volume (exact combinatorial formulas)


def _prefix_sums(census: PathCensus):
    kt = census.terminal_k.astype(np.float64)
    s0 = np.concatenate([[0.0], np.cumsum(kt)])
    s1 = np.concatenate([[0.0], np.cumsum(kt * census.lengths)])
    s2 = np.concatenate([[0.0], np.cumsum(kt * census.lengths ** 2)])
    return s0, s1, s2


def circle_length_grid(G: ConcatGraph, x: int, radii, census: PathCensus | None = None):
    """Exact circle length at each radius: the center contributes a full
    2*pi*(k(x)+1)*R arc, and each admissible path p an arc of angle
    2*pi*k(t(p)) and radius R - l(p). Accumulated in nondecreasing path
    length order."""
    radii = np.asarray(radii, dtype=np.float64)
    if census is None or census.Rmax < radii.max():
        census = path_length_census(G, x, float(radii.max()))
    s0, s1, _ = _prefix_sums(census)
    idx = np.searchsorted(census.lengths, radii, side="right")
    kx1 = float(G.cone_k[x]) + 1.0
    return TWO_PI * (kx1 * radii + radii * s0[idx] - s1[idx])


def circle_length(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    return float(circle_length_grid(G, x, [float(R)], census)[0])


def ball_volume_grid(G: ConcatGraph, x: int, radii, census: PathCensus | None = None):
    """Closed-form ball volume: the center disk sector of angle
    2*pi*(k(x)+1) plus one sector of angle 2*pi*k(t(p)) and radius R - l(p)
    per admissible path."""
    radii = np.asarray(radii, dtype=np.float64)
    if census is None or census.Rmax < radii.max():
        census = path_length_census(G, x, float(radii.max()))
    s0, s1, s2 = _prefix_sums(census)
    idx = np.searchsorted(census.lengths, radii, side="right")
    kx1 = float(G.cone_k[x]) + 1.0
    sq = kx1 * radii ** 2 + radii ** 2 * s0[idx] - 2 * radii * s1[idx] + s2[idx]
    return math.pi * sq


def ball_volume_closed(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    return float(ball_volume_grid(G, x, [float(R)], census)[0])


def circle_slope(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    """d/dR of the circle length away from breakpoints:
    2*pi*(k(x)+1) + sum over paths with l(p) <= R of 2*pi*k(t(p))."""
    if census is None:
        census = path_length_census(G, x, float(R))
    s0, _, _ = _prefix_sums(census)
    idx = int(np.searchsorted(census.lengths, float(R), side="right"))
    return TWO_PI * (float(G.cone_k[x]) + 1.0 + s0[idx])


def circle_csv(G: ConcatGraph, x: int, radii, census: PathCensus | None = None) -> str:
    """CSV rows R,N,circle_length,ball_volume over the radius grid."""
    radii = np.asarray(radii, dtype=np.float64)
    if census is None or census.Rmax < radii.max():
        census = path_length_census(G, x, float(radii.max()))
    lengths = circle_length_grid(G, x, radii, census)
    volumes = ball_volume_grid(G, x, radii, census)
    lines = ["R,N,circle_length,ball_volume"]
    for r, ln, vol in zip(radii, lengths, volumes):
        n = census.count(float(r))
        lines.append(f"{r:.17g},{n},{ln:.17g},{vol:.17g}")
    return "\n".join(lines) + "\n"
