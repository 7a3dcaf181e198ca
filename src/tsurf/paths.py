"""Concatenation graph, admissible paths, exact circle lengths.

Two saddle connections concatenate iff the second starts where the first
ends and the turn between them keeps at least a half-turn of angle on both
sides (equality allowed). Admissible paths from a cone point x with total
length <= R are the combinatorial skeleton of the metric circle of radius R
around x: each path contributes an arc of angle 2*pi*k(t(p)) and radius
R - l(p), plus the full 2*pi*(k(x)+1) arc of the center itself.

Both censuses, these paths and the closed walks of `geodesics`, are one
sweep (`_walks`) over counted (root, last saddle, exact length key) states,
which drops a state once the cheapest step its root allows overruns the bound.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .errors import InvalidParams, TruncationError
from .lengths import _Keys, exact_bound, keyed, merge
from .rational import parse_int, parse_length, parse_list
from .surface import TranslationSurface
from .unfold import angle_key, enumerate_saddle_connections, opposite_sectors

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

    def _runs_of(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(t, run) of every run of row rows[t]."""
        first, last = self.ptr[rows], self.ptr[rows + 1]
        return np.repeat(np.arange(len(rows)), last - first), _spans(first, last)

    def pairs(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """(t, id) of every pair of row rows[t], t by t and run by run; rows
        may repeat or be empty. With rows None, t is the row itself."""
        rows = (np.arange(len(self.ptr) - 1) if rows is None
                else np.asarray(rows, dtype=np.int64))
        t, run = self._runs_of(rows)
        lo, hi = self.lo[run], self.hi[run]
        return np.repeat(t, hi - lo), self.order[_spans(lo, hi)]

    def contains(self, i, j):
        """Whether j is in row i, elementwise over arrays."""
        i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64),
                                   np.asarray(j, dtype=np.int64))
        t, run = self._runs_of(i.ravel())
        p = self.pos[j.ravel()[t]]
        hit = np.zeros(i.size, dtype=bool)
        hit[t[(self.lo[run] <= p) & (p < self.hi[run])]] = True
        return hit.reshape(i.shape)[()]

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

    def conjugate(self, perm) -> "Runs":
        """The relation holding (perm[i], perm[j]) for each j in row i, perm
        an involution: row perm[i] takes the runs of row i over the order
        perm[order]."""
        perm = np.asarray(perm, dtype=np.int64)
        _, run = self._runs_of(perm)
        size = self.ptr[perm + 1] - self.ptr[perm]
        return Runs(perm[self.order], np.concatenate(([0], np.cumsum(size))),
                    self.lo[run], self.hi[run])


class ConcatGraph:
    """Saddle connections within a length budget plus the allowed-successor
    relation, held as runs of angular orders (`Runs`). `after.order` lists
    the saddle ids by (start cone, out-sector, ccw out-direction), and the
    successors of saddle i are at most two runs of it: one cyclic range at
    its end cone. The predecessors are `before`, which the constructor
    takes as a function that makes them (None: transpose `after`). On a
    surface it is `after` conjugated by the reversal rho: i precedes j
    exactly when rho(i) follows rho(j), so row j of `before` is the runs of
    row rho(j) over the order rho[after.order], which lists the ids by (end
    cone, sector, ccw back-direction). Every pipeline reads `after` and
    `before` as runs; `out`, each row sorted by id, is a view for the
    benchmark tracer and the tests.
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
    def out(self) -> list:
        """The successors of each saddle sorted by id, which is also
        (length, id) order."""
        rows, ids = self.after.pairs()
        ids = ids[np.lexsort((ids, rows))]
        return np.split(ids, np.cumsum(np.bincount(rows, minlength=self.n))[:-1])

    @property
    def edges(self) -> int:
        return self.after.size

    def check_radius(self, R, **rule) -> Fraction:
        """R parsed by `rational.parse_length` with the rule given. Queries at R
        are complete only if every saddle of length <= R is within budget."""
        R = parse_length(R, **rule)
        if self.max_length_sq is not None and R * R > self.max_length_sq:
            raise TruncationError(f"radius {R} exceeds the graph budget "
                                  f"sqrt({self.max_length_sq})")
        return R

    def __repr__(self):
        return f"ConcatGraph(n={self.n}, edges={self.edges})"


def _arc_runs(rays, sectors, placed, query) -> Runs:
    """Runs of the relation in which row i holds every saddle s whose
    direction placed[s] = (cone, d) lies at the cone of query[i] = (cone, q)
    at a ccw angle from q in [pi, 2*pi*(k+1) - pi]. A direction's position
    at its cone is (cone, slot, angle key from the slot's first ray
    rays[cone][slot][0]), exact by `unfold.angle_key`; the placed
    directions are sorted by it, so each row is one cyclic range of that
    order, found by two binary searches: one run, or two when it wraps
    past the end of the cone's block. At k = 0 the range is the one
    direction opposite to q. sectors(q) lists the sectors holding the
    direction opposite to q (`unfold.opposite_sectors`)."""
    key = angle_key(itertools.chain(
        (r for cone in rays for r, _ in cone),
        (d.vec for _, d in placed), (q.vec for _, q in query)))
    pos = [(c, d.slot, key(rays[c][d.slot][0], d.vec)) for c, d in placed]
    order = sorted(range(len(pos)), key=pos.__getitem__)
    keys = [pos[s] for s in order]
    ptr, lo, hi = [0], [], []
    for c, q in query:
        slots = sectors(q)
        opposite = (-q.vec[0], -q.vec[1])
        first = (c, slots[0], key(rays[c][slots[0]][0], opposite))
        last = (c, slots[-1], key(rays[c][slots[-1]][0], opposite))
        i = bisect_left(keys, first)
        j = bisect_right(keys, last)
        if first <= last:
            pieces = ((i, j),)
        else:
            pieces = ((i, bisect_left(keys, (c + 1,))), (bisect_left(keys, (c,)), j))
        for a, b in pieces:
            if a < b:
                lo.append(a)
                hi.append(b)
        ptr.append(len(lo))
    return Runs(order, ptr, lo, hi)


def build_concat_graph(S: TranslationSurface, max_length_sq) -> ConcatGraph:
    """Enumerate saddle connections within the budget and read each
    successor set off the exact angular order of the directions at a cone.

    By the two-sided half-turn test, s2 may follow s exactly when s2 leaves
    the cone at a ccw angle from s.back_dir in [pi, 2*pi*(k+1) - pi]. So
    the successors of s are one cyclic range of the out-directions at
    s.end. The test reads the same from either end: the ccw angle from
    s2.out_dir to s.back_dir is 2*pi*(k+1) minus that angle, in the same
    interval. Reversing both connections swaps their out- and
    back-directions, so s precedes s2 exactly when the reverse of s follows
    the reverse of s2, and the predecessors are the successors conjugated
    by the reversal.
    """
    B = parse_length(max_length_sq, InvalidParams)
    saddles = enumerate_saddle_connections(S, B)
    leaving = [(s.start, s.out_dir) for s in saddles]
    arriving = [(s.end, s.back_dir) for s in saddles]
    after = _arc_runs(S.star_rays, functools.partial(opposite_sectors, S),
                      leaving, arriving)
    return ConcatGraph(
        saddles=tuple(saddles),
        lengths=[s.length for s in saddles],
        start=[s.start for s in saddles],
        end=[s.end for s in saddles],
        cone_k=[c.k for c in S.cone_points],
        after=after,
        before=functools.partial(after.conjugate, saddles.reversal),
        max_length_sq=B,
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


class PathCensus:
    """All admissible paths from x of exact length <= bound, as counted
    groups: group g stands for counts[g] paths of exact length key
    group_key[g], correctly rounded to group_lengths[g], that end with
    saddle group_saddle[g], at a cone of excess group_k[g]. Groups are
    sorted by (exact length, terminal); repeating each one counts[g] times
    gives the census one row per path. ends[g] is the number of paths in
    the groups before g."""

    def __init__(self, bound: Fraction, keys: _Keys, key, saddle, k, counts):
        # groups in any order; those longer than the bound are dropped
        by = np.argsort(saddle, kind="stable")
        by = by[keys.order(key[by], bound)]
        self.bound, self.Rmax, self.keys = bound, float(bound), keys
        self.group_key = key[by]
        self.group_lengths = keys.floats()[self.group_key]
        self.group_saddle, self.group_k, self.counts = saddle[by], k[by], counts[by]
        self.ends = np.concatenate(([0], np.cumsum(self.counts)))

    def groups(self, R) -> int:
        """Number of groups of length <= R, exactly for any R <= bound."""
        return self.keys.upto(self.group_key, self.group_lengths,
                              exact_bound(R, self.bound))

    def count(self, R) -> int:
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


def _check_int64(total: int, what: str):
    if total >= 1 << 63:
        raise InvalidParams(f"{total} {what} reach 2**63; the counts are int64")


# Successor pairs expanded at a time by `_walks`.
_BATCH = 1 << 14


def _walks(after: Runs, keys: _Keys, limit: float, cost, floor, root, last,
           record, what: str):
    """Count walks in `after` level by level, from the one-letter walks
    `last` with roots `root`: a state (root r, last letter c, key, count)
    stands for count walks of exact length key ending with c. Each level
    goes to record(root, last, key, count); then, for b = limit - l(key) in
    floats, states with floor[r] > b drop out and the rest extend to the
    successors j of c with cost[r, j] <= b, at most _BATCH pairs at a time
    (a longer row alone), merging equal (key, r, j). A total of walks at
    2**63, past which int64 counts wrap, raises InvalidParams."""
    roots, m = cost.shape
    key = keys.class_key[keys.cls[last]]
    count = np.ones(len(last), dtype=np.int64)
    total = len(last)
    at = np.concatenate(([0], np.cumsum(after.hi - after.lo)))[after.ptr]
    step = keys.stepper()
    while len(last):
        record(root, last, key, count)
        budget = limit - keys.floats()[key]
        live = floor[root] <= budget
        root, last, key, count, budget = (
            a[live] for a in (root, last, key, count, budget))
        if not len(last):
            break
        ends = np.cumsum(np.diff(at)[last])
        src, nxt = [np.zeros(0, dtype=np.int64)], [after.order[:0]]
        a = 0
        while a < len(last):
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + _BATCH, side="right")))
            t, j = after.pairs(last[a:b])
            t += a
            # a j >= m reads a clipped cell of cost; j < m drops it
            ok = (j < m) & (cost.take(root[t] * m + j, mode="clip") <= budget[t])
            src.append(t[ok])
            nxt.append(j[ok])
            a = b
        src, j = np.concatenate(src), np.concatenate(nxt)
        # the merge below reuses the memory of the batches
        del ends, t, ok, nxt
        total += _dot(count, np.bincount(src, minlength=len(count)))
        _check_int64(total, what)
        code, count = merge((step(key[src], keys.cls[j]) * roots + root[src]) * m + j,
                            count[src])
        del src, j
        code, last = np.divmod(code, m)
        key, root = np.divmod(code, roots)


def path_length_census(G: ConcatGraph, x: int, Rmax) -> PathCensus:
    """The admissible paths from x as counted groups: the walks of `_walks`
    with one root, of cost l(j) for the saddles of length <= Rmax and floor
    the shortest length, from the saddles leaving x. The levels' equal
    (terminal, key) merge by summing counts; the census keeps the keys <=
    Rmax, decided exactly."""
    x = parse_int(x, len(G.cone_k), "cone point")
    T, m, keys, limit = keyed(G, Rmax)
    term = np.flatnonzero(G.start[:m] == x)
    levels = [(term[:0], term[:0])]
    _walks(G.after, keys, limit, G.lengths[None, :m], G.lengths[:1], term * 0,
           term, lambda root, last, key, count: levels.append((key * m + last, count)),
           f"paths up to R = {float(T):g}")
    code, count = merge(*(np.concatenate(a) for a in zip(*levels)))
    key, term = np.divmod(code, m)
    term = term.astype(np.int32)
    return PathCensus(T, keys, key, term, G.cone_k[G.end[term]], count)


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
    sum path by path would, and take time per group (`_run_sums`). Which
    paths count is exact. The census is rebuilt when missing or shorter
    than the largest radius, and reads each radius as given (`exact_bound`)."""
    x = parse_int(x, len(G.cone_k), "cone point")
    given = parse_list(radii, "radii")
    exact = [parse_length(r) for r in given]
    radii = np.array([float(r) for r in exact], dtype=np.float64)
    if not len(radii):
        return np.zeros(0, dtype=np.int64), radii, radii, radii
    if census is None or census.Rmax < radii.max():
        census = path_length_census(G, x, max(exact))
    g = np.array([census.groups(r) for r in given], dtype=np.int64)
    idx = census.ends[g]
    _check_int64(_dot(census.group_k, census.counts),
                 f"k-weighted paths up to R = {census.Rmax:g}")
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
    return float(circle_length_grid(G, x, [R], census)[0])


def ball_volume_grid(G: ConcatGraph, x: int, radii, census: PathCensus | None = None):
    """Closed-form ball volume: the center disk sector of angle
    2*pi*(k(x)+1) plus one sector of angle 2*pi*k(t(p)) and radius R - l(p)
    per admissible path."""
    return _circle_formulas(G, x, radii, census)[2]


def ball_volume_closed(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    return float(ball_volume_grid(G, x, [R], census)[0])


def circle_slope(G: ConcatGraph, x: int, R, census: PathCensus | None = None) -> float:
    """d/dR of the circle length away from breakpoints:
    2*pi*(k(x)+1) + sum over paths with l(p) <= R of 2*pi*k(t(p))."""
    return float(_circle_formulas(G, x, [R], census)[3][0])


def circle_csv(G: ConcatGraph, x: int, radii, census: PathCensus | None = None) -> str:
    """CSV rows R,N,circle_length,ball_volume over the radius grid."""
    counts, lengths, volumes, _ = _circle_formulas(G, x, radii, census)
    lines = ["R,N,circle_length,ball_volume"]
    for r, n, ln, vol in zip(map(float, radii), counts, lengths, volumes):
        lines.append(f"{r:.17g},{n},{ln:.17g},{vol:.17g}")
    return "\n".join(lines) + "\n"
