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
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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
    """All admissible paths from x up to Rmax, as counted groups: group g
    stands for counts[g] paths of float length group_lengths[g] that end
    with saddle group_saddle[g], at a cone of excess group_k[g]. Groups are
    sorted by length, and repeating each one counts[g] times gives the
    census one row per path, in the order of a stable sort of the paths by
    length. ends[g] is the number of paths in the groups before g."""

    Rmax: float
    group_lengths: np.ndarray
    group_saddle: np.ndarray
    group_k: np.ndarray
    counts: np.ndarray
    ends: np.ndarray = field(init=False)

    def __post_init__(self):
        self.ends = np.concatenate(([0], np.cumsum(self.counts)))

    def groups(self, R: float) -> int:
        """Number of groups of length <= R; a census built up to Rmax does
        not hold the paths longer than that."""
        if float(R) > self.Rmax:
            raise TruncationError(f"radius {R} exceeds the census bound {self.Rmax}")
        return int(np.searchsorted(self.group_lengths, R, side="right"))

    def count(self, R: float) -> int:
        return int(self.ends[self.groups(R)])

    # One row per path, expanded on every access for the benchmark tracer
    # and the tests; nothing in the package reads these.
    @property
    def lengths(self) -> np.ndarray:
        return np.repeat(self.group_lengths, self.counts)

    @property
    def terminal_saddle(self) -> np.ndarray:
        return np.repeat(self.group_saddle, self.counts)

    @property
    def terminal_k(self) -> np.ndarray:
        return np.repeat(self.group_k, self.counts)


def _dot(a, b) -> int:
    """Sum of a[i] * b[i] over integer arrays, in Python ints."""
    return sum(map(operator.mul, a.tolist(), b.tolist()))


def _check_int64(total: int, what: str, Rmax: float):
    if total >= 1 << 63:
        raise InvalidParams(f"{total} {what} up to R = {Rmax:g} reach 2**63; "
                            "the census counts are int64")


def path_length_census(G: ConcatGraph, x: int, Rmax) -> PathCensus:
    """Level-synchronized sweep over word lengths on counted groups.

    A level holds the groups (terminal saddle, length, count) of its paths,
    ordered by terminal in chunk order: the first-level terminals by id,
    then each level's terminals by the first (chunk of the predecessor,
    successor id) pair that reaches them. A step extends every group along
    the CSR row of its terminal saddle j when length <= Rmax - l_j, to
    length + l_j, and merges equal (j, length) by summing counts. The float
    lengths are those of the per-path sums in path order, and the final
    stable sort by length puts equal lengths in (level, chunk) order."""
    G.check_radius(Rmax)
    Rmax = float(Rmax)
    if not (0 <= x < len(G.cone_k)):
        raise InvalidParams(f"no cone point {x}")
    term = np.flatnonzero((G.start == x) & (G.lengths <= Rmax))
    length = G.lengths[term]
    count = np.ones(len(term), dtype=np.int64)
    rank = np.arange(len(term))
    levels = [(term[:0], length[:0], count[:0])]
    total = len(term)
    while len(term):
        levels.append((term, length, count))
        # Every (group, successor) pair, read off the CSR row of the group.
        first = G.indptr[term]
        deg = G.indptr[term + 1] - first
        src = np.repeat(np.arange(len(term)), deg)
        offset = np.arange(len(src)) - np.repeat(np.cumsum(deg) - deg, deg)
        j = G.succ[first[src] + offset]
        lj = G.lengths[j]
        keep = length[src] <= Rmax - lj
        if not keep.any():
            break
        src, j = src[keep], j[keep]
        # The next level's paths, in Python ints: while the running total
        # stays below 2**63, no int64 count of the census and no prefix sum
        # of them wraps.
        total += _dot(count, np.bincount(src, minlength=len(count)))
        _check_int64(total, "paths", Rmax)
        ext = length[src] + lj[keep]
        # Pairs run by group, groups by chunk: the first pair into each j
        # comes from its earliest predecessor chunk. Chunks follow those
        # ranks, ties by id.
        by = np.argsort(j, kind="stable")
        at = by[np.concatenate(([True], np.diff(j[by]) != 0))]
        order = j[at][np.argsort(rank[src[at]], kind="stable")]
        chunk = np.empty(G.n, dtype=np.int64)
        chunk[order] = np.arange(len(order))
        by = np.lexsort((ext, chunk[j]))
        j, ext = j[by], ext[by]
        starts = np.ones(len(j), dtype=bool)
        starts[1:] = (j[1:] != j[:-1]) | (ext[1:] != ext[:-1])
        new = np.flatnonzero(starts)
        count = np.add.reduceat(count[src[by]], new)
        term, length = j[new], ext[new]
        rank = chunk[term]
    term, length, count = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(length, kind="stable")
    term = term[order].astype(np.int32)
    return PathCensus(Rmax, length[order], term, G.cone_k[G.end[term]],
                      count[order])


# ----------------------------------------------------------------------------
# Circle length and ball volume (exact combinatorial formulas)

_TOP = (1 << 53) - 1


def _run_sums(values, counts, targets) -> np.ndarray:
    """For each path count t in targets, the float sum of the first t terms
    of values[g] repeated counts[g] times, added one at a time from 0.0:
    bit for bit np.cumsum of the expansion, in time per group and binade
    crossing instead of per term. The values are finite and >= 0.

    The running sum s never decreases. Inside one binade s = m*u, with u =
    ulp(s) and m < 2**53 an integer, and s + c rounds to (m + r)*u, where r
    is c/u (exact: u is a power of two) rounded to nearest; on a tie, when
    m is even, to the even one of the two, which keeps m even. So a run of
    equal terms moves m by r per term until m would pass 2**53 - 1. A term
    not below s, a tie with m odd and each binade crossing take one float
    addition."""
    out = np.zeros(len(targets))
    order = np.argsort(targets, kind="stable").tolist()
    want = [int(targets[o]) for o in order]
    i = bisect_right(want, 0)  # the empty sum is 0.0
    s, done = 0.0, 0
    for c, n in zip(values.tolist(), counts.tolist()):
        end = done + n
        while done < end and i < len(want):
            u = math.ulp(s)
            m = int(s / u)
            if c == 0:
                t, r = end - done, 0
            elif c >= s or (m & 1 and c / u % 1 == 0.5):
                t = 0
            else:
                r = round(c / u)  # ties to even
                t = end - done if r == 0 else min(end - done, (_TOP - m) // r)
            if t == 0:
                s += c
                done += 1
                while i < len(want) and want[i] == done:
                    out[order[i]] = s
                    i += 1
                continue
            while i < len(want) and want[i] <= done + t:
                out[order[i]] = (m + (want[i] - done) * r) * u
                i += 1
            s = (m + t * r) * u
            done += t
    return out


def _circle_formulas(G: ConcatGraph, x: int, radii, census: PathCensus | None):
    """At each radius R: the number of admissible paths with l(p) <= R, the
    circle length, the ball volume and the circle's slope in R. The center
    contributes a full 2*pi*(k(x)+1) arc, and each path p an arc of angle
    2*pi*k(t(p)) and radius R - l(p); the sums of k(t(p)) * l(p)^j behind
    all three run in nondecreasing path length order. The sum of k(t(p))
    is an exact integer; the float sums of k * l and k * l^2 round as one
    sum path by path would, and take time per group (`_run_sums`). The
    census is rebuilt when missing or shorter than the largest radius."""
    radii = np.asarray(radii, dtype=np.float64)
    if not len(radii):
        return np.zeros(0, dtype=np.int64), radii, radii, radii
    if census is None or census.Rmax < radii.max():
        census = path_length_census(G, x, float(radii.max()))
    g = np.searchsorted(census.group_lengths, radii, side="right")
    idx = census.ends[g]
    _check_int64(_dot(census.group_k, census.counts),
                 "k-weighted paths", census.Rmax)
    k_ends = np.concatenate(([0], np.cumsum(census.group_k * census.counts)))
    s0 = k_ends[g].astype(np.float64)
    kt = census.group_k.astype(np.float64)
    L = census.group_lengths
    s1 = _run_sums(kt * L, census.counts, idx)
    s2 = _run_sums(kt * L ** 2, census.counts, idx)
    kx1 = float(G.cone_k[x]) + 1.0
    circle = TWO_PI * (kx1 * radii + radii * s0 - s1)
    ball = math.pi * (kx1 * radii ** 2 + radii ** 2 * s0 - 2 * radii * s1 + s2)
    return idx, circle, ball, TWO_PI * (kx1 + s0)


def circle_length_grid(G: ConcatGraph, x: int, radii, census: PathCensus | None = None):
    """Exact circle length at each radius."""
    return _circle_formulas(G, x, radii, census)[1]


def circle_length(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    return float(circle_length_grid(G, x, [float(R)], census)[0])


def ball_volume_grid(G: ConcatGraph, x: int, radii, census: PathCensus | None = None):
    """Closed-form ball volume: the center disk sector of angle
    2*pi*(k(x)+1) plus one sector of angle 2*pi*k(t(p)) and radius R - l(p)
    per admissible path."""
    return _circle_formulas(G, x, radii, census)[2]


def ball_volume_closed(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    return float(ball_volume_grid(G, x, [float(R)], census)[0])


def circle_slope(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    """d/dR of the circle length away from breakpoints:
    2*pi*(k(x)+1) + sum over paths with l(p) <= R of 2*pi*k(t(p))."""
    return float(_circle_formulas(G, x, [float(R)], census)[3][0])


def circle_csv(G: ConcatGraph, x: int, radii, census: PathCensus | None = None) -> str:
    """CSV rows R,N,circle_length,ball_volume over the radius grid."""
    radii = np.asarray(radii, dtype=np.float64)
    counts, lengths, volumes, _ = _circle_formulas(G, x, radii, census)
    lines = ["R,N,circle_length,ball_volume"]
    for r, n, ln, vol in zip(radii, counts, lengths, volumes):
        lines.append(f"{r:.17g},{n},{ln:.17g},{vol:.17g}")
    return "\n".join(lines) + "\n"
