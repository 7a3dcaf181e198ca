"""Concatenation graph, admissible paths, exact circle lengths.

Two saddle connections concatenate iff the second starts where the first
ends and the turn between them keeps at least a half-turn of angle on both
sides (equality allowed). Admissible paths from a cone point x with total
length <= R are the combinatorial skeleton of the metric circle of radius R
around x: each path contributes an arc of angle 2*pi*k(t(p)) and radius
R - l(p), plus the full 2*pi*(k(x)+1) arc of the center itself.
"""

from __future__ import annotations

import functools
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


def _spans(lo, hi) -> np.ndarray:
    """Every position of the runs [lo[r], hi[r]), run after run."""
    size = hi - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


class Runs:
    """A relation on saddle ids held as runs of a permutation: row i is the
    union of order[lo[r]:hi[r]] over r in ptr[i]:ptr[i+1], each run
    nonempty. Rows read off one cyclic angular range have at most two."""

    def __init__(self, order, ptr, lo, hi):
        self.order = np.asarray(order, dtype=np.int32)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        self.pos = np.empty(len(self.order), dtype=np.int64)
        self.pos[self.order] = np.arange(len(self.order))

    @property
    def size(self) -> int:
        """Number of related pairs."""
        return int((self.hi - self.lo).sum())

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, id) of every pair, row by row and run by run."""
        rows = np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))
        return np.repeat(rows, self.hi - self.lo), self.order[_spans(self.lo, self.hi)]

    def contains(self, i: int, j: int) -> bool:
        p = self.pos[j]
        return any(self.lo[r] <= p < self.hi[r]
                   for r in range(self.ptr[i], self.ptr[i + 1]))

    @classmethod
    def from_pairs(cls, rows, ids, n: int) -> "Runs":
        """The distinct pairs (rows[t], ids[t]) on the identity order: each
        row's ids as runs of consecutive ids."""
        rows = np.asarray(rows, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        by = np.lexsort((ids, rows))
        rows, ids = rows[by], ids[by]
        new = np.ones(len(ids) + 1, dtype=bool)
        new[1:-1] = (rows[1:] != rows[:-1]) | (ids[1:] != ids[:-1] + 1)
        first = np.flatnonzero(new[:-1])
        last = np.flatnonzero(new[1:])
        ptr = np.concatenate(([0], np.cumsum(np.bincount(rows[first], minlength=n))))
        return cls(np.arange(n), ptr, ids[first], ids[last] + 1)

    def transpose(self) -> "Runs":
        rows, ids = self.pairs()
        return Runs.from_pairs(ids, rows, len(self.order))


class ConcatGraph:
    """Saddle connections within a length budget plus the allowed-successor
    relation, held as runs of angular orders (`Runs`). `after.order` lists
    the saddle ids by (start cone, out-sector, ccw out-direction), and the
    successors of saddle i are at most two runs of it: one cyclic range at
    its end cone. `before.order` lists them by (end cone, sector, ccw
    back-direction), and the predecessors of saddle j are one cyclic range
    of that; the constructor takes `before` as a function that makes them
    (None: transpose `after`). The CSR view `indptr`/`succ`/`out`
    (successors sorted by id, which is also (length, id) order) is
    expanded on first use, for the path census and the tests.
    max_length_sq None means the graph is complete for every radius
    (synthetic fixtures); otherwise queries beyond the budget raise
    TruncationError."""

    def __init__(self, saddles, lengths, start, end, cone_k, after: Runs,
                 before, max_length_sq, surface=None):
        self.saddles = saddles
        self.n = len(lengths)
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.start = np.asarray(start, dtype=np.int32)
        self.end = np.asarray(end, dtype=np.int32)
        self.cone_k = np.asarray(cone_k, dtype=np.int32)
        self.max_length_sq = max_length_sq
        self.surface = surface
        self.after = after
        self._before = after.transpose if before is None else before

    @functools.cached_property
    def before(self) -> Runs:
        """The predecessor runs, made on first use: only the SCC reads
        them."""
        return self._before()

    @classmethod
    def from_rows(cls, rows, lengths, start, end, cone_k) -> "ConcatGraph":
        """Synthetic graph, complete at every radius, in which rows[i] lists
        the successors of saddle i, each row compressed into runs of
        consecutive ids."""
        n = len(lengths)
        if len(rows) != n:
            raise InvalidParams(f"{len(rows)} successor rows for {n} saddles")
        rows = [np.asarray(r, dtype=np.int64) for r in rows]
        src = np.repeat(np.arange(n), [len(r) for r in rows])
        after = Runs.from_pairs(src, np.concatenate([src[:0], *rows]), n)
        return cls(None, lengths, start, end, cone_k, after, None, None)

    @functools.cached_property
    def _csr(self):
        """indptr, succ and the row views, expanded from the successor runs
        one row at a time, each row sorted by id."""
        a = self.after
        rows = []
        for r0, r1 in zip(a.ptr.tolist(), a.ptr[1:].tolist()):
            runs = [a.order[lo:hi] for lo, hi in zip(a.lo[r0:r1], a.hi[r0:r1])]
            rows.append(np.sort(runs[0] if len(runs) == 1
                                else np.concatenate([a.order[:0], *runs])))
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
        succ = np.concatenate([a.order[:0], *rows])
        return indptr, succ, [succ[x:y] for x, y in zip(indptr[:-1], indptr[1:])]

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def succ(self) -> np.ndarray:
        return self._csr[1]

    @property
    def out(self) -> list:
        """Row views into succ, one per saddle."""
        return self._csr[2]

    @property
    def edges(self) -> int:
        return self.after.size

    def allowed(self, i: int, j: int) -> bool:
        return self.after.contains(i, j)

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
        return f"ConcatGraph(n={self.n}, edges={self.edges})"


def _position(slot: int, vec):
    """Sort key of a direction in its cone's angular coordinate: sector
    first, then counterclockwise order inside the half-open sector."""
    return (slot, ccw_sort_key(vec))


def _arc_runs(sectors, placed, query) -> Runs:
    """Runs of the relation in which row i holds every saddle s whose
    direction placed[s] = (cone, d) lies at the cone of query[i] = (cone, q)
    at a ccw angle from q in [pi, 2*pi*(k+1) - pi]. The placed directions
    are sorted exactly by (cone, angle), so each row is one cyclic range of
    that order, found by two binary searches: one run, or two when it wraps
    past the end of the cone's block. sectors(q) lists the sectors holding
    the direction opposite to q (`unfold.opposite_sectors`)."""
    keyed = sorted(((c, _position(d.slot, d.vec)), s)
                   for s, (c, d) in enumerate(placed))
    keys = [key for key, _ in keyed]
    ptr, lo, hi = [0], [], []
    for c, q in query:
        slots = sectors(q)
        opposite = (-q.vec[0], -q.vec[1])
        first = (c, _position(slots[0], opposite))
        last = (c, _position(slots[-1], opposite))
        i = bisect_left(keys, first)
        j = bisect_right(keys, last)
        if first < last:
            pieces = ((i, j),)
        else:
            pieces = ((i, bisect_left(keys, (c + 1,))), (bisect_left(keys, (c,)), j))
        for a, b in pieces:
            if a < b:
                lo.append(a)
                hi.append(b)
        ptr.append(len(lo))
    return Runs([s for _, s in keyed], ptr, lo, hi)


def build_concat_graph(S: TranslationSurface, max_length_sq) -> ConcatGraph:
    """Enumerate saddle connections within the budget and read each
    successor and predecessor set off the exact angular order of the
    directions at a cone.

    By the two-sided half-turn test, s2 may follow s exactly when s2 leaves
    the cone at a ccw angle from s.back_dir in [pi, 2*pi*(k+1) - pi]. The
    test reads the same from either end: the ccw angle from s2.out_dir to
    s.back_dir is 2*pi*(k+1) minus that angle, in the same interval. So the
    successors of s are one cyclic range of the out-directions at s.end,
    and the predecessors of s2 one cyclic range of the back-directions at
    s2.start.
    """
    saddles = enumerate_saddle_connections(S, max_length_sq)
    leaving = [(s.start, s.out_dir) for s in saddles]
    arriving = [(s.end, s.back_dir) for s in saddles]
    # The back-direction of each connection is the out-direction of its
    # reverse, so the predecessor pass repeats the successor pass's sector
    # lookups.
    sectors = functools.cache(functools.partial(opposite_sectors, S))
    return ConcatGraph(
        saddles=tuple(saddles),
        lengths=[s.length for s in saddles],
        start=[s.start for s in saddles],
        end=[s.end for s in saddles],
        cone_k=[c.k for c in S.cone_points],
        after=_arc_runs(sectors, leaving, arriving),
        before=functools.partial(_arc_runs, sectors, arriving, leaving),
        max_length_sq=parse_rational(max_length_sq),
        surface=S,
    )


def complete_graph(m: int, length: float = 1.0, k: int = 1) -> ConcatGraph:
    """Synthetic fixture: m saddle loops of equal length at one cone point,
    every ordered pair (self included) allowed; complete at every radius."""
    if m < 1:
        raise InvalidParams("need at least one saddle")
    return ConcatGraph.from_rows([range(m)] * m, lengths=[length] * m,
                                 start=[0] * m, end=[0] * m, cone_k=[k])


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
