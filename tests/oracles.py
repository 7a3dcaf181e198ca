"""Slow, independent reference implementations that the fast code must match.

- `Wedge` and `wedge_intersect`: wedges as objects with normalized rays and
  per-ray inclusion flags, and `ccw_sort_key`: the counterclockwise order
  as a `functools.cmp_to_key` comparator over cross-product signs, with
  `comparator_arc_runs`, the angular runs sorted and bisected by it. The
  integer ray tuples of `unfold` and one exact key per direction
  (`unfold.angle_key`) replaced them. `segment_within`, the
  division-free segment-to-origin distance test, moved here with them.
- `angle_ccw_at_least_pi`: the pairwise exact half-turn test that decided
  every concatenation pair before the graph was read off angular intervals.
- `bisect_lambda_one`: the entropy root by bisection to float exhaustion,
  which the Newton solver replaced.
- `five_product_power_iteration`: the Perron iteration as it was written
  before it reused each iteration's matrix-vector products.
- `slice_min_rotation`: the least rotation as the minimum over all of them.
- `is_primitive` and `brute_closed_words`: primitive closed words found by
  generating every closed word and keeping each least rotation once, which
  the Lyndon-word search replaced.
- `per_word_pi_saddle`: pi_s(T) summed word by word, which the single visit
  vector replaced.
- `enumerate_paths`: admissible paths streamed from a heap in length order,
  which the level-synchronised census replaced; exact sums of the rational
  saddle lengths and 60-digit sums of the irrational ones decide which
  paths are <= R.
- `expanded_path_census`: the level-synchronised census one row per path,
  each with its exact length key, which the census on counted (terminal,
  exact length) groups replaced.
- `cumsum_circle_formulas`: the circle formulas from `np.cumsum` over that
  per-path census, which the block-streamed sums over groups replaced.
- `streamed_prefix_sums`: the float sums of the circle formulas from
  `np.cumsum` over per-path terms expanded one block at a time, which the
  run-length sums per group and binade replaced.
- `scipy_truncated_scc`: the largest cycle-carrying strongly connected
  component from scipy's sparse graph routines, which the dense transitive
  closure replaced.
- `dense_truncated_scc`: the same component from the k x k transitive
  closure squared in float32 until it stops growing, and
  `dense_weight_matrix` with `dense_spectral_radius`: the weight matrix as a
  dense 0/1 pattern times the column weights, iterated with `m @ v` and
  `m.T @ u`. Kosaraju over the successor and predecessor runs and the
  products as range sums over those runs replaced them.
- `fraction_saddle_connections`: saddle connections by the recursive
  corner unfolding on the `Fraction` vertices, which the explicit-stack
  walk on integer coordinates replaced.
- `monte_carlo_circle_measure` and `monte_carlo_region_volume`: the circle
  histogram and the region ball volume from stratified random angles, each
  traced to its landing cell by the exact ray tracer, which the developed
  arcs replaced. Deterministic per seed: each arc draws from its own
  counter-based stream keyed by (seed, arc index).
- `per_arc_circle_measure` and `per_arc_region_volume`: the circle
  histogram and the region volume with every distinct (window, radius)
  developed on its own (`_developed_copies`), each copy's circle cut again
  for every arc that reaches it (`_arc_angles`, `_half_circle_cut`) and
  copy-cell-wedge clipped again for every arc, which one development per
  cone sector and one cut per (copy, radius) replaced. `listed_circle_arcs`
  and `distinct_arcs` list the arcs one per census group and then merge
  them, which reading the census in blocks into distinct arcs replaced;
  `wedge_window_wedges` splits a window by testing every sector with
  `Wedge.contains`, which the walk from the start sector replaced.
- `fraction_cell_areas`: each cell-intersect-polygon clipped and summed in
  `Fraction` coordinates, which the clip on integer coordinates replaced.
  `convex_clip`, the clip of a polygon to an axis box that it and
  `per_arc_region_volume` use, and `cell_of_point`, the cell of a rational
  point found on the polygon's `Fraction` bounding box, moved here when
  `CellGrid` came to own one integer frame that every layer reads.
- `dijkstra_return_bounds`: one anchor's return bounds by Dijkstra on the
  reversed edges, which the one Floyd-Warshall pass for all anchors
  (`return_bounds`) replaced.
- `fraction_saddle_cell_lengths`: each saddle connection's split across
  the grid cells, retraced with the `Fraction` ray tracer and clipped per
  chart segment, which the split along the integer development replaced.
- `lyndon_census`: every primitive closed word listed once, as its Lyndon
  rotation, by a depth-first search over prenecklaces pruned with the
  per-anchor return bounds of `return_bounds` (successors ranked by
  `_RankedRows`), with float word lengths from `word_lengths` (bit for bit
  `word_length`) and a 1e-9 pruning slack; its `WordCensus` counts word by
  word. The closed-walk counts over exact length keys replaced it.
- `dense_follows`: the k x k boolean mask of which saddle may follow which,
  which the closed-walk census read before it stepped along the successor
  runs; the dense closure, the return bounds and the Lyndon search use it.
- `scan_opposite_sectors`: the sectors holding the opposite direction,
  found by testing every sector of the cone, which the bisection over the
  (half-turn, ray) order replaced.
- `wedge_unfold_wedge`: the development on `Wedge` objects with normalized
  rays and one helper call per predicate (`wedge_split` and `add` moved
  here with it), which the kernel on integer ray tuples replaced.
- `reversal_permutation`: each connection's reverse found by a dict over
  its `Fraction` holonomy, and `arc_run_predecessors`: the predecessor runs
  from a second pass over the sorted back-directions. The enumeration's
  own pairing and `after` conjugated by it replaced them.
- `star_angles`: the float angle of every sector of a cone, which every
  surface computed when it was built and only `_direction_at` read.
- `corner_angle` and `float_excess`: a cone's k as the float sum of its
  `atan2` corner angles rounded to whole turns within 1e-9, which the
  count of half-plane changes along the exact star walk replaced.
  `cone_direction`, the validated `ConeDirection` constructor, moved here
  with them.
- `DirectionWindow`, `direction_window` and `antipodal_direction`: a
  circle window as its start direction a half-turn past the terminal's
  back-direction plus a float width of whole turns, which the window
  (cone, back) read off the slots of `unfold.opposite_sectors` replaced.
  The Monte Carlo and per-arc oracles still walk these windows.
  `MismatchedCone`, raised only by `angle_ccw_at_least_pi`, moved here too.
- `fraction_trace_ray`: the ray walked polygon by polygon in `Fraction`
  coordinates, exit edge by exit edge, through regular vertices by a scan
  of their star (`point_in_convex` and `_star_continue` moved here with
  it), which the reading of the ray's integer development replaced. It
  raises on a boundary start whose direction leaves the polygon. The
  Monte Carlo oracles and `fraction_saddle_cell_lengths` trace with it, so
  they stay independent of `unfold_wedge`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from tsurf import (BracketFailure, DegenerateRadius, EmptySCC, InvalidParams,
                   SpectralResult, TranslationSurface, TruncationError,
                   TsurfError, builtin_surface, spectral_radius)
from tsurf.circles import MeasureHistogram, _ScaledCells
from tsurf.geometry import (clip_half_plane, cross, dot, neg, norm_dir,
                            norm_sq, polygon_area, same_dir, sub)
from tsurf.lengths import _length_keys
from tsurf.paths import (PathCensus, Runs, _arc_runs, circle_length,
                         path_length_census)
from tsurf.rational import parse_rational
from tsurf.unfold import (ConeDirection, SaddleConnection, TracePoint,
                          TraceResult, _landing_direction,
                          _sqrt_correctly_rounded, _stop_param,
                          integer_polygons, opposite_sectors, unfold_wedge)
from tsurf.volume import _disk_area

TWO_PI = 2 * math.pi


def sheared_lshape() -> TranslationSurface:
    """lshape under the shear (x, y) -> (x + y/3, y + x/2): every edge is
    slanted, and gluings stay translations."""
    L = builtin_surface("lshape")
    return TranslationSurface(
        [[(x + y / 3, y + x / 2) for x, y in poly] for poly in L.polygons],
        L.gluing_pairs)


@dataclass(frozen=True)
class Wedge:
    """Angular sector from ray `a` counterclockwise to ray `b`, angle in
    [0, pi]; `ia`/`ib` say whether each boundary ray belongs to the sector."""

    a: tuple[int, int]
    ia: bool
    b: tuple[int, int]
    ib: bool

    def contains(self, d) -> bool:
        if same_dir(self.a, d):
            return self.ia
        if same_dir(d, self.b):
            return self.ib
        return cross(self.a, d) > 0 and cross(d, self.b) > 0

    def is_empty(self) -> bool:
        # Only zero-angle wedges can be empty; the constructors never build
        # reversed ones.
        return same_dir(self.a, self.b) and not (self.ia and self.ib)


def wedge_intersect(w1: Wedge, w2: Wedge) -> Wedge | None:
    """Intersection of two wedges of angle <= pi, or None if empty."""
    if same_dir(w1.a, w2.a):
        a, ia = w1.a, (w1.ia and w2.ia)
    elif w1.contains(w2.a):
        a, ia = w2.a, w2.ia
    elif w2.contains(w1.a):
        a, ia = w1.a, w1.ia
    else:
        return None
    if same_dir(w1.b, w2.b):
        b, ib = w1.b, (w1.ib and w2.ib)
    elif w1.contains(w2.b):
        b, ib = w2.b, w2.ib
    elif w2.contains(w1.b):
        b, ib = w1.b, w1.ib
    else:
        return None
    c = cross(a, b)
    if c < 0:
        return None
    if c == 0 and dot(a, b) < 0:
        # Would be an exact half-turn; a proper intersection of two <= pi
        # wedges is only pi when both wedges equal it, handled above.
        if not (same_dir(w1.a, w2.a) and same_dir(w1.b, w2.b)):
            return None
    out = Wedge(a, ia, b, ib)
    return None if out.is_empty() else out


def _ccw_cmp(d1, d2) -> int:
    c = cross(d1, d2)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


# Sort key putting directions in counterclockwise order. The cross-product
# sign orders two directions only when they are less than a half-turn apart,
# so the order is exact for directions inside one half-open sector of angle
# <= pi (or a closed one of angle < pi); parallel directions compare equal.
ccw_sort_key = functools.cmp_to_key(_ccw_cmp)


def segment_within(p1, p2, B) -> bool:
    """Whether the segment [p1, p2] comes within squared distance B of the
    origin. No division, so integer coordinates stay integers and the test
    is exact for any exact B."""
    d = sub(p2, p1)
    s = -dot(p1, d)
    if s <= 0:
        return norm_sq(p1) <= B
    dd = norm_sq(d)
    if s >= dd:
        return norm_sq(p2) <= B
    c = cross(p1, d)
    return c * c <= B * dd


def comparator_arc_runs(sectors, placed, query) -> Runs:
    """`paths._arc_runs` with each direction's position at its cone keyed
    by (slot, `ccw_sort_key`), the comparator order."""
    def position(slot, vec):
        return (slot, ccw_sort_key(vec))

    keyed = sorted(((c, position(d.slot, d.vec)), s)
                   for s, (c, d) in enumerate(placed))
    keys = [key for key, _ in keyed]
    ptr, lo, hi = [0], [], []
    for c, q in query:
        slots = sectors(q)
        opposite = (-q.vec[0], -q.vec[1])
        first = (c, position(slots[0], opposite))
        last = (c, position(slots[-1], opposite))
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
    return Runs([s for _, s in keyed], ptr, lo, hi)


def _zmul(z, w):
    # Complex-style product; composes rotations-with-scale exactly.
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _zconj(z):
    return (z[0], -z[1])


def _in_span(a, d, b) -> bool:
    # Membership of d in the ccw span [a, b] of angle <= pi, both ends closed.
    if same_dir(a, d) or same_dir(d, b):
        return True
    return cross(a, d) > 0 and cross(d, b) > 0


def _past_half_turn(z) -> bool:
    # Rotation state z started at angle 0 and never advanced by more than pi
    # at once, so angle(z) >= pi iff z is in the open lower half plane or on
    # the negative real axis.
    return z[1] < 0 or (z[1] == 0 and z[0] < 0)


class MismatchedCone(TsurfError):
    """Two cone directions at different cone points were compared."""


def angle_ccw_at_least_pi(S, d1, d2) -> bool:
    """Exact test: counterclockwise angle from d1 to d2 at their cone >= pi.

    Walks the star sectors from d1, accumulating the turn as an integer
    rotation product, and decides whether d2 is reached before the
    cumulative turn passes pi. Equality counts as "at least".
    """
    if d1.cone_id != d2.cone_id:
        raise MismatchedCone(f"cones {d1.cone_id} and {d2.cone_id} differ")
    rays = S.star_rays[d1.cone_id]
    nslots = len(rays)
    slot = d1.slot
    c = d1.vec
    z = (1, 0)
    for _ in range(nslots + 2):
        r2 = rays[slot][1]
        if slot == d2.slot and _in_span(c, d2.vec, r2):
            zf = _zmul(z, _zmul(d2.vec, _zconj(c)))
            return _past_half_turn(zf)
        z = _zmul(z, _zmul(r2, _zconj(c)))
        if _past_half_turn(z):
            return True
        slot = (slot + 1) % nslots
        c = rays[slot][0]
    raise AssertionError("cone star walk did not terminate")


def scan_opposite_sectors(S, d: ConeDirection) -> list[int]:
    rays = S.star_rays[d.cone_id]
    opposite = (-d.vec[0], -d.vec[1])
    slots = [j for j, (r1, r2) in enumerate(rays)
             if Wedge(r1, True, r2, False).contains(opposite)]
    return sorted(slots, key=lambda j: (j - d.slot) % len(rays))


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def wedge_split(w: Wedge, dirs) -> list[Wedge]:
    """Split `w` at each direction in `dirs` (all contained in `w`), with the
    split directions excluded from every resulting piece."""
    uniq: list[tuple[int, int]] = []
    for d in dirs:
        if not any(same_dir(d, u) for u in uniq):
            uniq.append(d)
    if not uniq:
        return [w]
    uniq.sort(key=ccw_sort_key)
    pieces = []
    prev, iprev = w.a, w.ia
    for d in uniq:
        pieces.append(Wedge(prev, iprev, d, False))
        prev, iprev = d, False
    pieces.append(Wedge(prev, iprev, w.b, w.ib))
    return [p for p in pieces if not p.is_empty()]


def wedge_unfold_wedge(S, polys, B, p: int, t, w: Wedge):
    """The copies that `unfold.unfold_wedge` yields, developed on `Wedge`
    objects: (polygon, translation, verts, wedge, hits, pieces), with the
    wedge and its pieces split at the hit directions as `Wedge`s."""
    stack = [(p, t, w)]
    while stack:
        p, t, w = stack.pop()
        verts = [add(vv, t) for vv in polys[p]]
        hits = []
        for vi, q in enumerate(verts):
            if (p, vi) not in S.corner_cone or q == (0, 0):
                continue
            dsq = norm_sq(q)
            if dsq > B:
                continue
            nd = norm_dir(q)
            if w.contains(nd):
                hits.append((nd, dsq, q, vi))
        pieces = wedge_split(w, [nd for nd, _, _, _ in hits]) if hits else [w]
        yield p, t, verts, w, hits, pieces

        n = len(verts)
        for e in reversed(range(n)):
            E1, E2 = verts[e], verts[(e + 1) % n]
            if cross(E1, E2) <= 0:
                continue  # front-facing or edge-on as seen from the origin
            if not segment_within(E1, E2, B):
                continue
            span = Wedge(norm_dir(E1), True, norm_dir(E2), False)
            p2, e2 = S.partner((p, e))
            t2 = sub(E2, polys[p2][e2])
            for piece in reversed(pieces):
                iw = wedge_intersect(piece, span)
                if iw is not None:
                    stack.append((p2, t2, iw))


def reversal_permutation(saddles) -> list[int]:
    """Index of each connection's reversal; enumeration is closed under it."""
    index = {}
    for s in saddles:
        index[(s.start, s.out_dir.slot, s.holonomy)] = s.id
    perm = []
    for s in saddles:
        key = (s.end, s.back_dir.slot, (-s.holonomy[0], -s.holonomy[1]))
        if key not in index:
            raise AssertionError(f"reversal of saddle {s.id} missing from the set")
        perm.append(index[key])
    return perm


def arc_run_predecessors(S, saddles) -> Runs:
    """The predecessor runs read off the back-directions at each cone: row j
    is one cyclic range of them, opposite the out-direction of saddle j."""
    leaving = [(s.start, s.out_dir) for s in saddles]
    arriving = [(s.end, s.back_dir) for s in saddles]
    return _arc_runs(S.star_rays, lambda d: opposite_sectors(S, d), arriving,
                     leaving)


def corner_angle(S, p: int, v: int) -> float:
    """The float angle of the corner's sector, in (0, pi]."""
    r1, r2 = S.corner_rays(p, v)
    ang = math.atan2(float(cross(r1, r2)), float(dot(r1, r2)))
    if ang <= 0:
        ang += TWO_PI  # cross >= 0, so this only fires for angle == pi
    return ang


def float_excess(S, corners) -> int:
    """k of the vertex class with these corners, from the float sum of
    their angles: 2*pi*(k+1) to within 1e-9 relative."""
    total = sum(corner_angle(S, p, v) for (p, v) in corners)
    m = round(total / TWO_PI)
    assert m >= 1 and abs(total - TWO_PI * m) <= 1e-9 * m, total
    return m - 1


def cone_direction(S, cone_id: int, slot: int, vec) -> ConeDirection:
    """Validated constructor; `vec` must lie weakly in the slot's sector."""
    d = norm_dir(vec)
    r1, r2 = S.star_rays[cone_id][slot]
    if not Wedge(r1, True, r2, True).contains(d):
        raise InvalidParams(
            f"direction {d} is outside sector {slot} of cone {cone_id}"
        )
    return ConeDirection(cone_id, slot, d)


@functools.cache
def star_angles(S, cone_id: int) -> tuple[float, ...]:
    """The float angle of each sector of the cone, slot by slot."""
    return tuple(corner_angle(S, p, v) for (p, v) in S.cone_points[cone_id].star)


def pairwise_allowed(G, i: int, j: int) -> bool:
    """s_j may follow s_i: same cone, and at least a half-turn of angle on
    both sides of the turn."""
    a, b = G.saddles[i], G.saddles[j]
    if a.end != b.start:
        return False
    return (angle_ccw_at_least_pi(G.surface, a.back_dir, b.out_dir)
            and angle_ccw_at_least_pi(G.surface, b.out_dir, a.back_dir))


def bisect_lambda_one(pattern, lam_tol: float = 1e-10) -> float:
    """sigma with lambda(sigma) = 1 by bracketing from sigma = 1e-3 and
    bisecting until the bracket ends are adjacent floats."""

    def lam_at(sig):
        return spectral_radius(pattern.at(sig)).lam

    minlen = float(pattern.lengths.min())
    deg = pattern.at(0.0).dot(np.ones(pattern.size)).max()
    lo = 1e-3
    hi = max(10.0 * math.log(max(2.0, float(deg))) / minlen, lo * 4)
    for _ in range(60):
        if lam_at(lo) > 1.0:
            break
        lo /= 2.0
        if lo < 1e-12:
            raise BracketFailure("no growth")
    for _ in range(60):
        if lam_at(hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("cannot bracket the root")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lm = lam_at(mid)
        if abs(lm - 1.0) < lam_tol and hi - lo < 1e-12:
            lo = hi = mid
            break
        if lm > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def five_product_power_iteration(A, tol: float = 1e-12, max_iter: int = 100000):
    """(lam, u, v, residual, iterations) of the shifted power iteration from
    the uniform vector, recomputing m @ v for the eigenvalue and both
    products for the residual."""
    m = np.asarray(A, dtype=np.float64)
    n = m.shape[0]
    shift = max(float(m.sum(axis=1).max()), 1e-30)
    mt = m.T
    v = np.full(n, 1.0 / n)
    u = np.full(n, 1.0 / n)
    lam, res, it = 0.0, math.inf, 0
    scale = max(shift, 1.0)
    for it in range(1, max_iter + 1):
        nv = m @ v + shift * v
        nu = mt @ u + shift * u
        v = nv / nv.sum()
        u = nu / nu.sum()
        lam = float(v @ (m @ v)) / float(v @ v)
        res = max(float(np.abs(m @ v - lam * v).max()),
                  float(np.abs(mt @ u - lam * u).max()))
        if res < tol * scale:
            break
    v = v / v.sum()
    u = u / float(u @ v)
    return lam, u, v, res, it


def scipy_truncated_scc(G, cutoff=None) -> np.ndarray:
    """Ids of the largest strongly connected component that carries an edge,
    in the subgraph on saddles with length <= cutoff (all when None); on a
    tie, the one holding the smallest id."""
    k = G.n if cutoff is None else int(np.searchsorted(G.lengths, cutoff, side="right"))
    if k == 0:
        raise EmptySCC(f"no saddles within cutoff {cutoff}")
    rows, ids = G.after.pairs()
    m = csr_matrix((np.ones(len(ids), dtype=np.int8), (rows, ids)),
                   shape=(G.n, G.n))[:k, :k]
    if m.nnz == 0:
        raise EmptySCC(f"no concatenations within cutoff {cutoff}")
    m.sort_indices()
    ncomp, labels = connected_components(m, directed=True, connection="strong")
    rows = np.repeat(labels, np.diff(m.indptr))
    has_cycle = np.zeros(ncomp, dtype=bool)
    has_cycle[rows[rows == labels[m.indices]]] = True
    sizes = np.bincount(labels, minlength=ncomp)
    sizes[~has_cycle] = 0
    if sizes.max() == 0:
        raise EmptySCC(f"no cycles within cutoff {cutoff}")
    first = int(np.flatnonzero(sizes[labels] == sizes.max())[0])
    return np.flatnonzero(labels == labels[first]).astype(np.int32)


def dense_follows(G, k: int) -> np.ndarray:
    """follows[s, j]: j may follow s, among the first k saddles, as a k x k
    boolean array."""
    rows, ids = G.after.pairs(np.arange(k))
    inside = ids < k
    follows = np.zeros((k, k), dtype=bool)
    follows[rows[inside], ids[inside]] = True
    return follows


def dense_truncated_scc(G, cutoff=None) -> np.ndarray:
    """Ids of the largest strongly connected component that carries an
    edge, in the subgraph on saddles with length <= cutoff, from the
    transitive closure squared until it stops growing: row i of `mutual`
    holds the j that i reaches and that reach i, which is i's component
    when i lies on a cycle and empty otherwise. On a tie the component
    holding the smallest id wins."""
    k = G.n if cutoff is None else int(np.searchsorted(G.lengths, cutoff, side="right"))
    if k == 0:
        raise EmptySCC(f"no saddles within cutoff {cutoff}")
    a = dense_follows(G, k)
    if not a.any():
        raise EmptySCC(f"no concatenations within cutoff {cutoff}")
    reach = a
    while True:
        f = reach.astype(np.float32)
        grown = reach | ((f @ f) > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    mutual = reach & reach.T
    sizes = mutual.sum(axis=1)
    if sizes.max() == 0:
        raise EmptySCC(f"no cycles within cutoff {cutoff}")
    return np.flatnonzero(mutual[int(sizes.argmax())]).astype(np.int32)


@dataclass
class DenseWeightMatrix:
    """The weight matrix as a dense 0/1 pattern on the SCC times the column
    weights exp(-sigma * l)."""

    ids: np.ndarray
    lengths: np.ndarray
    pattern: np.ndarray
    weights: np.ndarray
    sigma: float

    @property
    def size(self) -> int:
        return len(self.ids)

    def matrix(self) -> np.ndarray:
        return self.pattern * self.weights

    def at(self, sigma: float) -> "DenseWeightMatrix":
        return DenseWeightMatrix(self.ids, self.lengths, self.pattern,
                                 np.exp(-sigma * self.lengths), float(sigma))

    def scaled(self, factors) -> "DenseWeightMatrix":
        return DenseWeightMatrix(self.ids, self.lengths, self.pattern,
                                 self.weights * factors, self.sigma)


def dense_weight_matrix(G, sigma: float, cutoff=None) -> DenseWeightMatrix:
    ids = dense_truncated_scc(G, cutoff)
    a = dense_follows(G, int(ids.max()) + 1)
    lengths = G.lengths[ids]
    return DenseWeightMatrix(ids, lengths, a[np.ix_(ids, ids)],
                             np.exp(-float(sigma) * lengths), float(sigma))


def dense_spectral_radius(W, tol: float = 1e-12, start=None):
    """The shifted power iteration on the dense matrix of W (or on a square
    array), with m @ v and m.T @ u reused for eigenvalue, residual and next
    step."""
    m = np.asarray(W.matrix() if hasattr(W, "matrix") else W, dtype=np.float64)
    n = m.shape[0]
    if n == 0:
        raise EmptySCC("empty matrix")
    shift = max(float(m.sum(axis=1).max()), 1e-30)
    mt = m.T
    if start is None:
        u = np.full(n, 1.0 / n)
        v = np.full(n, 1.0 / n)
    else:
        u = start[0] / start[0].sum()
        v = start[1] / start[1].sum()
    lam, res, it = 0.0, math.inf, 0
    scale = max(shift, 1.0)
    mv = m @ v
    mu = mt @ u
    for it in range(1, 100001):
        nv = mv + shift * v
        nu = mu + shift * u
        sv, su = nv.sum(), nu.sum()
        if sv <= 0 or su <= 0:
            break
        v = nv / sv
        u = nu / su
        mv = m @ v
        mu = mt @ u
        lam = float(v @ mv) / float(v @ v)
        res = max(float(np.abs(mv - lam * v).max()),
                  float(np.abs(mu - lam * u).max()))
        if res < tol * scale:
            break
    converged = res < tol * scale
    v = v / v.sum()
    uv = float(u @ v)
    if uv > 0:
        u = u / uv
    return SpectralResult(lam=lam, u=u, v=v, residual=res, iterations=it,
                          converged=converged, scc_size=n)


def slice_min_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_primitive(word: tuple[int, ...]) -> bool:
    """A cyclic word is a strict power iff it equals the repetition of one of
    its prefixes whose length divides the word's."""
    n = len(word)
    for per in range(1, n):
        if n % per == 0 and word[:per] * (n // per) == word:
            return False
    return True


def brute_closed_words(G, T) -> set[tuple[int, ...]]:
    """All primitive closed words of metric length <= T, each as its least
    rotation. No pruning at all: every closed word is generated and
    filtered."""
    out = set()

    def extend(word, length):
        last = word[-1]
        if G.after.contains(last, word[0]) and is_primitive(tuple(word)):
            out.add(slice_min_rotation(tuple(word)))
        for j in G.out[last]:
            nl = length + float(G.lengths[j])
            if nl <= T:
                extend(word + [int(j)], nl)

    for s in range(G.n):
        if G.lengths[s] <= T:
            extend([s], float(G.lengths[s]))
    return out


def per_word_pi_saddle(census, T=None) -> np.ndarray:
    """pi_s(T) as the sum over census words q with l(q) <= T of
    (occurrences of s in q) * l(s) / l(q), one word at a time."""
    out = np.zeros(census.n_saddles)
    for g in census.geodesics[:census.pi(T)]:
        out += (np.bincount(g.word, minlength=census.n_saddles)
                * census.saddle_lengths / g.length)
    return out


def expanded_path_census(G, x: int, Rmax) -> PathCensus:
    """The path census one row per path: a level-synchronised sweep that
    keeps, per terminal saddle, the exact length key of each of its paths,
    extends them along each successor, and keeps the extensions of length
    <= Rmax, each decided exactly. Returned as a PathCensus of one group
    per path, which sorts the paths by (exact length, terminal)."""
    G.check_radius(Rmax)
    T = parse_rational(Rmax)
    t = float(T)
    if not (0 <= x < len(G.cone_k)):
        raise InvalidParams(f"no cone point {x}")
    m = int(np.searchsorted(G.lengths, t, side="right"))
    keys = _length_keys(G, m)
    cur = {s: keys.class_key[keys.cls[[s]]] for s in range(m) if G.start[s] == x}
    chunks, step = [], keys.stepper()
    while cur:
        chunks += cur.items()
        kf = keys.floats()
        nxt: dict[int, list] = {}
        for s, key in cur.items():
            # room for rounding; the exact test below decides
            room = t * (1 + 1e-9) - kf[key]
            for j in G.out[s][G.out[s] < m].tolist():
                ext = key[G.lengths[j] <= room]
                if len(ext):
                    nxt.setdefault(j, []).append(
                        step(ext, np.full(len(ext), keys.cls[j])))
        kf = keys.floats()
        cur = {}
        for j, parts in nxt.items():
            key = np.concatenate(parts)
            tied = set(key[kf[key] == t].tolist())
            inside = (kf[key] < t) | np.isin(
                key, [k for k in tied if keys.le(keys.vecs[k], T)])
            if inside.any():
                cur[j] = key[inside]
    key = np.concatenate([np.zeros(0, dtype=np.int64)] + [k for _, k in chunks])
    term = np.concatenate([np.zeros(0, dtype=np.int32)]
                          + [np.full(len(k), s, dtype=np.int32) for s, k in chunks])
    return PathCensus(T, keys, key, term, G.cone_k[G.end[term]],
                      np.ones(len(key), dtype=np.int64))


def cumsum_circle_formulas(G, x: int, radii, census):
    """N, circle length, ball volume and slope at each radius from
    np.cumsum over the census one row per path, as `_circle_formulas`
    computed them before it streamed the sums."""
    radii = np.asarray(radii, dtype=np.float64)
    lengths = census.lengths
    idx = np.searchsorted(lengths, radii, side="right")
    kt = census.terminal_k.astype(np.float64)
    s0, s1, s2 = [np.concatenate([[0.0], np.cumsum(w)])[idx]
                  for w in (kt, kt * lengths, kt * lengths ** 2)]
    kx1 = float(G.cone_k[x]) + 1.0
    circle = TWO_PI * (kx1 * radii + radii * s0 - s1)
    ball = math.pi * (kx1 * radii ** 2 + radii ** 2 * s0 - 2 * radii * s1 + s2)
    return idx, circle, ball, TWO_PI * (kx1 + s0)


def streamed_prefix_sums(census: PathCensus, terms, targets,
                         block: int = 1 << 20) -> np.ndarray:
    """For each per-group term array w and each path count t in targets,
    the float sum of the first t per-path terms (w[g] repeated counts[g]
    times), added one term at a time in census order as np.cumsum would.
    The terms are expanded one block at a time, the running sum carried
    from block to block."""
    ends = census.ends
    out = np.zeros((len(terms), len(targets)))
    acc = [0.0] * len(terms)
    stop = int(targets.max(initial=0))
    for lo in range(0, stop, block):
        hi = min(lo + block, stop)
        g0 = int(np.searchsorted(ends, lo, side="right")) - 1
        g1 = int(np.searchsorted(ends, hi, side="left"))
        reps = (np.minimum(ends[g0 + 1:g1 + 1], hi)
                - np.maximum(ends[g0:g1], lo))
        hit = (targets > lo) & (targets <= hi)
        chunk = np.empty(hi - lo + 1)
        for i, w in enumerate(terms):
            chunk[0] = acc[i]
            chunk[1:] = np.repeat(w[g0:g1], reps)
            np.cumsum(chunk, out=chunk)
            out[i, hit] = chunk[targets[hit] - lo]
            acc[i] = chunk[-1]
    return out


def enumerate_paths(G, x: int, R):
    """(length, saddle ids) of every admissible path from cone x of exact
    length <= R, in nondecreasing length order (ties broken by id
    sequence). A path's length is carried as the exact sum of its rational
    saddle lengths plus a 60-digit Decimal sum of its irrational ones, and
    length is its float. An irrational sum within 10**-40 of a bound raises
    instead of being decided by rounding."""
    G.check_radius(R)
    R = parse_rational(R)
    ctx = Context(prec=60)
    tol = Fraction(1, 10 ** 40)
    parts = []
    for i in range(G.n):
        sq = (Fraction(float(G.lengths[i])) ** 2 if G.saddles is None
              else G.saddles[i].length_sq)
        root = math.isqrt(sq.numerator * sq.denominator)
        if root * root == sq.numerator * sq.denominator:
            parts.append((Fraction(root, sq.denominator), Decimal(0)))
        else:
            parts.append((Fraction(0), ctx.sqrt(ctx.divide(sq.numerator,
                                                           sq.denominator))))

    def item(ids, rat, irr):
        if irr:
            assert not R - rat - tol < irr < R - rat + tol, ids
            if irr > R - rat:
                return None
        elif rat > R:
            return None
        approx = ctx.add(irr, ctx.divide(rat.numerator, rat.denominator))
        return approx, ids, rat, irr

    heap = [it for s in range(G.n) if G.start[s] == x
            for it in [item((s,), *parts[s])] if it]
    heapq.heapify(heap)
    while heap:
        approx, ids, rat, irr = heapq.heappop(heap)
        yield float(approx), ids
        # ids are in length order; room for rounding, item decides
        room = float(R) * (1 + 1e-9) - float(approx)
        for j in G.out[ids[-1]].tolist():
            if G.lengths[j] > room:
                break
            it = item(ids + (j,), rat + parts[j][0], ctx.add(irr, parts[j][1]))
            if it:
                heapq.heappush(heap, it)


# ----------------------------------------------------------------------------
# Saddle connections on Fraction coordinates


def point_seg_dist_sq_from_origin(p1, p2) -> Fraction:
    """Exact squared distance from the origin to segment [p1, p2]."""
    d = sub(p2, p1)
    dd = norm_sq(d)
    if dd == 0:
        return Fraction(norm_sq(p1))
    # Projection parameter of origin onto the segment's line: t = -(p1.d)/dd
    t = Fraction(-dot(p1, d), dd)
    if t <= 0:
        return Fraction(norm_sq(p1))
    if t >= 1:
        return Fraction(norm_sq(p2))
    foot = (p1[0] + t * d[0], p1[1] + t * d[1])
    return Fraction(norm_sq(foot))


def fraction_saddle_connections(S, max_length_sq):
    """All saddle connections with length_sq <= max_length_sq, in canonical
    order (length_sq, holonomy lexicographic, start cone, out sector).

    Enumerating with a larger budget extends the list without renumbering:
    ids are stable under budget growth.
    """
    B = parse_rational(max_length_sq)
    if B < 0:
        raise InvalidParams(f"negative length budget {B}")
    raw: list[tuple] = []
    for cone in S.cone_points:
        for slot, (p, v) in enumerate(cone.star):
            r1, r2 = S.star_rays[cone.id][slot]
            origin = S.polygons[p][v]
            t0 = (-origin[0], -origin[1])
            _explore(S, B, cone.id, slot, p, t0, Wedge(r1, True, r2, False), raw)

    raw.sort(key=lambda r: (r[3], r[2][0], r[2][1], r[0], r[1]))
    out = []
    for i, (cone_id, slot, hol, dsq, endcorner) in enumerate(raw):
        end_cone, back = _landing_direction(S, endcorner, neg(hol))
        out.append(
            SaddleConnection(
                id=i,
                start=cone_id,
                end=end_cone,
                holonomy=hol,
                length_sq=dsq,
                length=_sqrt_correctly_rounded(dsq),
                out_dir=ConeDirection(cone_id, slot, norm_dir(hol)),
                back_dir=back,
            )
        )
    return out


def _explore(S, B, cone_id, slot0, p, t, w, out):
    verts = [add(vv, t) for vv in S.polygons[p]]
    n = len(verts)

    # Cone-point lifts inside the wedge, within budget. A lift hides any
    # farther lift in exactly its own direction; regular lifts hide nothing.
    hits = []
    for vi, q in enumerate(verts):
        if q[0] == 0 and q[1] == 0:
            continue
        dsq = Fraction(norm_sq(q))
        if dsq > B:
            continue
        nd = norm_dir(q)
        if not w.contains(nd):
            continue
        if (p, vi) in S.corner_cone:
            hits.append((nd, dsq, q, vi))
    emit = {}
    for nd, dsq, q, vi in hits:
        key = next((k for k in emit if same_dir(k, nd)), nd)
        if key not in emit or dsq < emit[key][0]:
            emit[key] = (dsq, q, vi)
    for dsq, q, vi in emit.values():
        out.append((cone_id, slot0, q, dsq, (p, vi)))

    pieces = wedge_split(w, [nd for nd, _, _, _ in hits]) if hits else [w]
    if not pieces:
        return

    for e in range(n):
        E1, E2 = verts[e], verts[(e + 1) % n]
        if cross(E1, E2) <= 0:
            continue  # front-facing or edge-on as seen from the origin
        if point_seg_dist_sq_from_origin(E1, E2) > B:
            continue
        span = Wedge(norm_dir(E1), True, norm_dir(E2), False)
        p2, e2 = S.partner((p, e))
        t2 = sub(E2, S.polygons[p2][e2])
        for piece in pieces:
            iw = wedge_intersect(piece, span)
            if iw is not None:
                _explore(S, B, cone_id, slot0, p2, t2, iw, out)


# ----------------------------------------------------------------------------
# Ray tracing on Fraction coordinates


def point_in_convex(verts, p) -> int:
    """Locate p relative to a convex ccw polygon.

    Returns +1 strictly inside, 0 on the boundary, -1 outside.
    """
    on_edge = False
    grazing = False
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        c = cross(sub(b, a), sub(p, a))
        if c < 0:
            return -1
        if c == 0:
            # On the supporting line; inside the edge span means boundary.
            # Outside the span is still possible at a flat vertex, where a
            # collinear neighbor edge holds the point instead.
            if dot(sub(p, a), sub(p, b)) <= 0:
                on_edge = True
            else:
                grazing = True
    if on_edge:
        return 0
    if grazing:
        # In every half-plane, on some edge line, but on no edge: the face
        # of that line contains the point, so a sibling edge must have
        # caught it; unreachable for a valid convex polygon.
        return -1
    return 1


def fraction_trace_ray(S, start: TracePoint, direction, len_sq_budget) -> TraceResult:
    """Follow a straight geodesic from `start` with squared-length budget.

    All crossing and stopping decisions are exact rational sign tests.
    Regular marked vertices are passed straight through; hitting a cone
    point stops the trace and reports it.
    """
    d = (parse_rational(direction[0]), parse_rational(direction[1]))
    if d == (0, 0):
        raise InvalidParams("zero direction")
    B = parse_rational(len_sq_budget)
    if B < 0:
        raise InvalidParams("negative budget")
    pos = (parse_rational(start.position[0]), parse_rational(start.position[1]))
    p = start.polygon
    if point_in_convex(S.polygons[p], pos) < 0:
        raise InvalidParams(f"start {pos} is outside polygon {p}")

    dd = Fraction(norm_sq(d))
    segments: list[tuple[int, tuple, tuple]] = []
    tau = Fraction(0)  # accumulated ray parameter; length = tau * sqrt(dd)
    if B == 0:
        return TraceResult(TracePoint(p, pos), None, Fraction(0), ())

    while True:
        verts = S.polygons[p]
        n = len(verts)
        t_exit = None
        for e in range(n):
            a, b = verts[e], verts[(e + 1) % n]
            evec = sub(b, a)
            den = cross(d, evec)
            if den == 0:
                continue  # parallel; exits along this line happen at vertices
            t = Fraction(cross(sub(a, pos), evec), den)
            if t <= 0:
                continue
            # Crossing point must lie within the edge's span.
            x = (pos[0] + t * d[0], pos[1] + t * d[1])
            if dot(sub(x, a), sub(x, b)) > 0:
                continue
            if t_exit is None or t < t_exit:
                t_exit = t
        assert t_exit is not None, "ray failed to exit a convex polygon"

        # A ray running along an edge line can reach a flat cone vertex with
        # no transversal crossing; the nearest collinear cone vertex ahead
        # of us wins over the edge exit.
        t_cone = None
        for vi, vv in enumerate(verts):
            rel = sub(vv, pos)
            if rel == (0, 0) or (p, vi) not in S.corner_cone:
                continue
            if cross(d, rel) == 0 and dot(d, rel) > 0:
                t_v = rel[0] / d[0] if d[0] != 0 else rel[1] / d[1]
                if t_v < t_exit and (t_cone is None or t_v < t_cone):
                    t_cone = t_v
        if t_cone is not None:
            t_exit = t_cone

        tau_new = tau + t_exit
        if tau_new * tau_new * dd > B:
            # Budget runs out inside this polygon.
            t_hat = _stop_param(B, dd, tau, tau_new)
            endpos = (pos[0] + (t_hat - tau) * d[0], pos[1] + (t_hat - tau) * d[1])
            segments.append((p, pos, endpos))
            return TraceResult(TracePoint(p, endpos), None, t_hat * t_hat * dd,
                               tuple(segments))

        x = (pos[0] + t_exit * d[0], pos[1] + t_exit * d[1])
        segments.append((p, pos, x))
        vhit = None
        for vi, vv in enumerate(verts):
            if vv == x:
                vhit = vi
                break
        if vhit is not None:
            corner = (p, vhit)
            if corner in S.corner_cone:
                cone_id = S.corner_cone[corner][0]
                return TraceResult(None, cone_id, tau_new * tau_new * dd,
                                   tuple(segments))
            # Regular marked point: continue straight through its star.
            p, pos = _star_continue(S, corner, d)
            tau = tau_new
            continue
        # Transversal edge crossing: find the edge containing x strictly.
        exit_edge = None
        for e in range(n):
            a, b = verts[e], verts[(e + 1) % n]
            if cross(sub(b, a), sub(x, a)) == 0 and dot(sub(x, a), sub(x, b)) < 0:
                exit_edge = e
                break
        assert exit_edge is not None
        p2, e2 = S.partner((p, exit_edge))
        a = verts[exit_edge]
        evec = S.edge_vector(p, exit_edge)
        # Param of x along the edge, via the larger component.
        if evec[0] != 0:
            s = (x[0] - a[0]) / evec[0]
        else:
            s = (x[1] - a[1]) / evec[1]
        poly2 = S.polygons[p2]
        a2 = poly2[e2]
        b2 = poly2[(e2 + 1) % len(poly2)]
        # Edge e maps onto the partner reversed: param s from a lands at
        # param s from b2 toward a2.
        pos = (b2[0] + s * (a2[0] - b2[0]), b2[1] + s * (a2[1] - b2[1]))
        p = p2
        tau = tau_new


def _star_continue(S, corner, d):
    """Pick the corner of a regular vertex star whose sector contains d
    (half-open convention: the outgoing-edge boundary belongs to the
    sector), and return (polygon, vertex position) to continue from."""
    nd = norm_dir(d)
    star = next(cyc for cyc in S.regular_classes if corner in cyc)
    for (p, v) in star:
        r1, r2 = S.corner_rays(p, v)
        if Wedge(r1, True, r2, False).contains(nd):
            return p, S.polygons[p][v]
    raise AssertionError("direction not contained in any star sector")


# ----------------------------------------------------------------------------
# Monte Carlo circle measure and region volume


@dataclass(frozen=True)
class DirectionWindow:
    """CCW angular interval of allowed continuation directions at a cone,
    given as a start direction plus an exact width in radians."""

    cone_id: int
    start: ConeDirection
    width: float


def antipodal_direction(S, d: ConeDirection) -> ConeDirection:
    """The direction exactly pi counterclockwise from d. A boundary landing
    belongs to the next slot (wedges are half-open on their far ray)."""
    slot = opposite_sectors(S, d)[0]
    return cone_direction(S, d.cone_id, slot, (-d.vec[0], -d.vec[1]))


def direction_window(G: ConcatGraph, x: int,
                     terminal: int | None = None) -> DirectionWindow:
    """Continuations after a path ending with saddle `terminal` leave 2*pi*k
    of angle at its end cone, starting a half-turn past the incoming
    direction. The empty path (terminal None) sees the whole cone x, width
    2*pi*(k+1)."""
    S = G.surface
    if S is None:
        raise InvalidParams("synthetic graphs carry no geometry")
    if terminal is None:
        k = S.cone_points[x].k
        start = cone_direction(S, x, 0, S.star_rays[x][0][0])
        return DirectionWindow(x, start, TWO_PI * (k + 1))
    back = G.saddles[terminal].back_dir
    k = S.cone_points[back.cone_id].k
    return DirectionWindow(back.cone_id, antipodal_direction(S, back),
                           TWO_PI * k)


def listed_circle_arcs(G: ConcatGraph, x: int, R, census: PathCensus | None):
    """The checks of `circles._circle_arcs`, then the arcs of the radius-R
    circle around cone x as a list of (window, radius, count): the full
    cone at the center once, then one entry per census group of length
    <= R in census order, standing for its count paths. Only the arc radii
    round R to a float. Returns (R, census, arcs)."""
    if R <= 0:
        raise DegenerateRadius(f"radius must be positive, got {R}")
    G.check_radius(R)
    if census is None or census.Rmax < float(R):
        census = path_length_census(G, x, R)
    g = census.groups(R)
    r = float(R)
    arcs = [(direction_window(G, x), r, 1)]
    windows: dict[int, DirectionWindow] = {}
    for length, term, count in zip(census.group_lengths[:g].tolist(),
                                   census.group_saddle[:g].tolist(),
                                   census.counts[:g].tolist()):
        if term not in windows:
            windows[term] = direction_window(G, x, term)
        arcs.append((windows[term], r - length, count))
    return R, census, arcs


def distinct_arcs(arcs) -> dict:
    """Multiplicity of each distinct (window, radius > 0), in order of first
    appearance."""
    groups: dict[tuple, list] = {}
    for window, r, count in arcs:
        if r <= 0:
            continue
        if (window, r) in groups:
            groups[window, r][2] += count
        else:
            groups[window, r] = [window, r, count]
    return groups


def _slot_angle_offset(S, d: ConeDirection) -> float:
    """Float angle from the slot's first ray to d.vec, in [0, sector)."""
    r1 = S.star_rays[d.cone_id][d.slot][0]
    return math.atan2(cross(r1, d.vec), dot(r1, d.vec)) % TWO_PI


def _direction_at(S, window: DirectionWindow, theta: float):
    """Resolve window-start + theta to a (corner, rational direction) pair
    ready for the tracer. Rationalization of the unit vector perturbs the
    angle by ~1e-12, well under a stratum."""
    cone = S.cone_points[window.cone_id]
    nslots = len(cone.star)
    angles = star_angles(S, window.cone_id)
    slot = window.start.slot
    rem = _slot_angle_offset(S, window.start) + theta
    guard = 0
    while rem >= angles[slot]:
        rem -= angles[slot]
        slot = (slot + 1) % nslots
        guard += 1
        if guard > 16 * nslots:
            raise AssertionError("angle walk overflow")
    r1 = S.star_rays[window.cone_id][slot][0]
    base = math.atan2(r1[1], r1[0])
    ang = base + rem
    dx = Fraction(math.cos(ang)).limit_denominator(10 ** 12)
    dy = Fraction(math.sin(ang)).limit_denominator(10 ** 12)
    if dx == 0 and dy == 0:
        dx = Fraction(1)
    corner = cone.star[slot]
    start = TracePoint(corner[0], S.polygons[corner[0]][corner[1]])
    return start, (dx, dy)


def _stratified(rng, n: int, width: float) -> np.ndarray:
    u = rng.random(n)
    return (np.arange(n) + u) / n * width


def _trace_to_cell(S, grid, start, dvec, r: float):
    """Trace a straight segment of length r; returns the cell id or None on a
    mid-flight singular hit."""
    if r <= 0:
        return cell_of_point(grid, start.polygon, start.position)
    budget = Fraction(r) ** 2
    res = fraction_trace_ray(S, start, dvec, budget)
    if res.hit_cone is not None and res.consumed_length_sq < budget:
        return None
    return cell_of_point(grid, res.end.polygon, res.end.position)


def _expanded_arcs(G, x: int, R, census):
    """The arcs of `listed_circle_arcs` as one (window, radius) per path, so that
    each arc draws from its own stream."""
    R, census, arcs = listed_circle_arcs(G, x, R, census)
    return R, census, [(w, r) for w, r, count in arcs for _ in range(count)]


def monte_carlo_circle_measure(G: ConcatGraph, x: int, R, grid: CellGrid,
                   samples_per_unit_angle: int = 1, seed: int = 0,
                   census: PathCensus | None = None) -> MeasureHistogram:
    """Histogram of the radius-R circle around cone x over the grid cells,
    normalized to total mass 1. Deterministic for a fixed seed: each arc uses
    its own counter-based stream keyed by (seed, arc index)."""
    if samples_per_unit_angle < 1:
        raise InvalidParams("need at least one sample per unit angle")
    R, census, arcs = _expanded_arcs(G, x, R, census)
    S = G.surface
    masses = np.zeros(grid.num_cells)
    retried = 0
    dropped = 0

    for arc_index, (window, r) in enumerate(arcs):
        if r <= 0:
            continue
        nsamp = max(1, round(samples_per_unit_angle * window.width))
        rng = np.random.Generator(np.random.Philox(key=[seed, arc_index]))
        thetas = _stratified(rng, nsamp, window.width)
        wgt = r * window.width / nsamp
        ulp = window.width / nsamp * 2 ** -30
        for th in thetas:
            start, dvec = _direction_at(S, window, float(th))
            cid = _trace_to_cell(S, grid, start, dvec, r)
            if cid is None:
                retried += 1
                start, dvec = _direction_at(S, window, float(th) + ulp)
                cid = _trace_to_cell(S, grid, start, dvec, r)
            if cid is None:
                dropped += 1
                continue
            masses[cid] += wgt

    total = circle_length(G, x, R, census)
    meta = {"R": R, "seed": seed, "arcs": len(arcs),
            "samples_per_unit_angle": samples_per_unit_angle,
            "retried": retried, "dropped": dropped,
            "unnormalized_total": float(masses.sum()),
            "circle_length": total}
    return MeasureHistogram(grid, masses / total, meta)


def monte_carlo_region_volume(G: ConcatGraph, x: int, R, grid: CellGrid, cells,
                  samples: int = 32, seed: int = 0,
                  census: PathCensus | None = None) -> tuple[float, float]:
    """Monte Carlo ball-volume mass inside the given cell set: per sector,
    area-uniform points (radius r_p*sqrt(U)), traced to their landing cell.
    Returns (estimate, standard error)."""
    if samples < 1:
        raise InvalidParams("need at least one sample per sector")
    cells = frozenset(int(c) for c in cells)
    outside = sorted(c for c in cells if not 0 <= c < grid.num_cells)
    if outside:
        raise InvalidParams(f"cell ids {outside} are outside the "
                            f"{grid.num_cells}-cell grid")
    R, census, arcs = _expanded_arcs(G, x, R, census)
    S = G.surface
    est = 0.0
    var = 0.0

    for arc_index, (window, r) in enumerate(arcs):
        if r <= 0 or not cells:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, arc_index]))
        thetas = _stratified(rng, samples, window.width)
        radii = r * np.sqrt(rng.random(samples))
        sector_vol = 0.5 * window.width * r * r
        hits = 0
        for th, rr in zip(thetas, radii):
            start, dvec = _direction_at(S, window, float(th))
            cid = _trace_to_cell(S, grid, start, dvec, float(rr))
            if cid is None:
                start, dvec = _direction_at(S, window, float(th) + 1e-9)
                cid = _trace_to_cell(S, grid, start, dvec, float(rr))
            if cid is not None and cid in cells:
                hits += 1
        p = hits / samples
        est += sector_vol * p
        var += (sector_vol ** 2) * p * (1 - p) / samples
    return est, math.sqrt(var)


def convex_clip(verts, xlo, xhi, ylo, yhi):
    """Clip a convex ccw polygon to an axis box; exact for rational input,
    returns the clipped vertex list (possibly empty, possibly degenerate
    with zero area)."""
    poly = list(verts)
    for o, u in (((xlo, 0), (0, -1)), ((xhi, 0), (0, 1)),
                 ((0, ylo), (1, 0)), ((0, yhi), (-1, 0))):
        if not poly:
            return []
        poly = clip_half_plane(poly, o, u)
    return poly


def bounding_box(poly) -> tuple:
    """(x0, y0, x1, y1) of a polygon's vertices."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def cell_of_point(grid, polygon: int, position) -> int:
    """The grid cell of polygon `polygon` holding a rational point, located
    in `Fraction` coordinates on the polygon's own bounding box; a point
    outside the box clamps to the nearest cell."""
    x0, y0, x1, y1 = bounding_box(grid.surface.polygons[polygon])
    px, py = position
    i = int((Fraction(px) - x0) * grid.n // (x1 - x0))
    j = int((Fraction(py) - y0) * grid.n // (y1 - y0))
    i = min(max(i, 0), grid.n - 1)
    j = min(max(j, 0), grid.n - 1)
    return grid.offsets[polygon] + j * grid.n + i


def fraction_cell_areas(S, n: int) -> list[Fraction]:
    """Each cell-intersect-polygon area, clipped and summed in `Fraction`
    coordinates, in cell-id order."""
    areas = []
    for poly in S.polygons:
        x0, y0, x1, y1 = bounding_box(poly)
        cw = Fraction(x1 - x0, n)
        ch = Fraction(y1 - y0, n)
        for j in range(n):
            for i in range(n):
                piece = convex_clip(poly, x0 + i * cw, x0 + (i + 1) * cw,
                                    y0 + j * ch, y0 + (j + 1) * ch)
                areas.append(polygon_area(piece) if len(piece) >= 3
                             else Fraction(0))
    return areas


def wedge_window_wedges(S, window) -> list:
    """The window as per-sector `Wedge` objects (slot, wedge): the sectors
    holding the start vector found by testing every sector."""
    rays = S.star_rays[window.cone_id]
    n = len(rays)
    sectors = [Wedge(r1, True, r2, False) for r1, r2 in rays]
    vec, first = window.start.vec, window.start.slot
    holding = sorted((j for j in range(n) if sectors[j].contains(vec)),
                     key=lambda j: (j - first) % n)
    turns = round(window.width / TWO_PI)
    if turns == 0:
        return []
    if turns >= len(holding):
        return list(enumerate(sectors))
    last = holding[turns]
    out = [(first, Wedge(vec, True, rays[first][1], False))]
    slot = (first + 1) % n
    while slot != last:
        out.append((slot, sectors[slot]))
        slot = (slot + 1) % n
    tail = Wedge(rays[last][0], True, vec, False)
    if not tail.is_empty():
        out.append((last, tail))
    return out


def _developed_copies(S, polys, window, rho):
    """Every polygon copy that the rays of the window reach within length
    rho (in the scaled coordinates of `polys`). The budget is widened by a
    relative 1e-12 so that no copy the float circle enters is pruned by a
    rounded comparison; an extra copy only contributes nothing."""
    B = rho * rho * (1 + 1e-12)
    for slot, w in wedge_window_wedges(S, window):
        p, v = S.cone_points[window.cone_id].star[slot]
        yield from unfold_wedge(S, polys, B, p, neg(polys[p][v]),
                                (w.a, w.ia, w.b, w.ib))


def _half_circle_cut(nx, ny, h, rho):
    """The part of the circle of radius rho about the origin in the
    half-plane n.p >= h, as (angle of n, half-width): the angles within the
    half-width of n's angle. Half-width -1 when the part is at most a point,
    4 (> pi) when it is the whole circle. A half-plane and its complement
    get complementary arcs from the same float quotient, so an arc split
    between two copies along their shared edge is counted once."""
    q = h / (rho * math.hypot(nx, ny))
    if q >= 1:
        return math.atan2(ny, nx), -1.0
    if q <= -1:
        return math.atan2(ny, nx), 4.0
    return math.atan2(ny, nx), math.acos(q)


def _arc_angles(copy, cells, rho):
    """(cell id, angle) of each piece of the circle of radius rho about the
    origin inside a copy from `unfold_wedge` and its wedge, split at the
    cell lines. The pieces come from float clip angles; each is credited to
    the cell that holds its midpoint."""
    p, (tx, ty), verts, (a, _, b, _) = copy[:4]
    a, b = norm_dir(a), norm_dir(b)  # the float angles as on coprime rays
    width = math.atan2(cross(a, b), dot(a, b))
    if width <= 0:
        return []
    base = math.atan2(a[1], a[0])
    n = len(verts)
    edges = []
    for k in range(n):
        (x1, y1), (x2, y2) = verts[k], verts[(k + 1) % n]
        nx, ny = y1 - y2, x2 - x1
        th, half = _half_circle_cut(nx, ny, nx * x1 + ny * y1, rho)
        if half < 0:
            return []
        if half <= math.pi:
            edges.append((th, half))
    cuts = list(edges)
    for X in cells.xlines[p]:
        cuts.append(_half_circle_cut(1, 0, X + tx, rho))
    for Y in cells.ylines[p]:
        cuts.append(_half_circle_cut(0, 1, Y + ty, rho))
    marks = [0.0, width]
    for th, half in cuts:
        if 0 <= half <= math.pi:
            for ang in (th - half, th + half):
                phi = (ang - base) % TWO_PI
                if 0 < phi < width:
                    marks.append(phi)
    marks.sort()
    out = []
    for lo, hi in zip(marks, marks[1:]):
        if hi <= lo:
            continue
        mid = base + 0.5 * (lo + hi)
        inside = True
        for th, half in edges:
            off = (mid - th) % TWO_PI
            if min(off, TWO_PI - off) >= half:
                inside = False
                break
        if inside:
            unit = cells.unit
            cid = cells.grid.cell_of(p, unit * (rho * math.cos(mid) - tx),
                                     unit * (rho * math.sin(mid) - ty))
            out.append((cid, hi - lo))
    return out


def per_arc_circle_measure(G: ConcatGraph, x: int, R, grid: CellGrid,
                           census: PathCensus | None = None) -> MeasureHistogram:
    """The circle histogram with every distinct (window, radius) developed
    on its own and every copy's circle cut again for each arc that reaches
    it."""
    R, census, arcs = listed_circle_arcs(G, x, R, census)
    S = G.surface
    D, polys = integer_polygons(S)
    cells = _ScaledCells(grid, D, polys)
    masses = np.zeros(grid.num_cells)
    for window, r, mult in distinct_arcs(arcs).values():
        rho = r * D
        arc = np.zeros(grid.num_cells)
        for copy in _developed_copies(S, polys, window, rho):
            for cid, ang in _arc_angles(copy, cells, rho):
                arc[cid] += ang
        masses += (mult * r) * arc
    total = circle_length(G, x, R, census)
    meta = {"R": float(R), "arcs": sum(count for _, _, count in arcs),
            "retried": 0, "dropped": 0,
            "unnormalized_total": float(masses.sum()),
            "circle_length": total}
    return MeasureHistogram(grid, masses / total, meta)


def per_arc_region_volume(G: ConcatGraph, x: int, R, grid: CellGrid, cells,
                          census: PathCensus | None = None) -> float:
    """The region ball volume with every distinct (window, radius)
    developed on its own and copy-cell-wedge clipped again for each arc."""
    cells = frozenset(int(c) for c in cells)
    R, census, arcs = listed_circle_arcs(G, x, R, census)
    if not cells:
        return 0.0
    S = G.surface
    D, polys = integer_polygons(S)
    pieces = [[] for _ in polys]
    for cid in sorted(cells):
        p, i, j = grid.cell_meta(cid)
        x0, y0, x1, y1 = (c * D for c in bounding_box(S.polygons[p]))
        cw, ch = (x1 - x0) / grid.n, (y1 - y0) / grid.n
        piece = convex_clip(polys[p], x0 + i * cw, x0 + (i + 1) * cw,
                            y0 + j * ch, y0 + (j + 1) * ch)
        if len(piece) >= 3:
            pieces[p].append(piece)
    m = math.lcm(*(Fraction(c).denominator for mine in pieces
                   for piece in mine for pt in piece for c in pt))
    D *= m
    polys = tuple(tuple((px * m, py * m) for px, py in poly) for poly in polys)
    pieces = [[[(int(px * m), int(py * m)) for px, py in piece]
               for piece in mine] for mine in pieces]
    total = 0.0
    for window, r, mult in distinct_arcs(arcs).values():
        rho = r * D
        vol = 0.0
        copies = _developed_copies(S, polys, window, rho)
        for p, (tx, ty), _, (a, _, b, _), _ in copies:
            for piece in pieces[p]:
                part = [(px + tx, py + ty) for px, py in piece]
                if not any(segment_within(P, Q, rho * rho)
                           for P, Q in zip(part, part[1:] + part[:1])):
                    continue
                part = clip_half_plane(part, (0, 0), a)
                part = clip_half_plane(part, (0, 0), neg(b))
                if len(part) >= 3:
                    vol += _disk_area(part, rho)
        total += mult * vol
    return total / (D * D)


# ----------------------------------------------------------------------------
# Closed-geodesic return bounds and the occupancy split


def dijkstra_return_bounds(G: ConcatGraph, closes: list[bool],
                           active: np.ndarray,
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


def fraction_saddle_cell_lengths(G, grid) -> dict[int, dict[int, float]]:
    """Exact split of every saddle connection's length across grid cells,
    assembled by retracing the connection and clipping each chart segment."""
    S = G.surface
    if S is None:
        raise InvalidParams("synthetic graphs carry no geometry")
    out: dict[int, dict[int, float]] = {}
    for s in G.saddles:
        cone = S.cone_points[s.start]
        poly, v = cone.star[s.out_dir.slot]
        startpt = TracePoint(poly, S.polygons[poly][v])
        res = fraction_trace_ray(S, startpt, s.out_dir.vec, s.length_sq)
        shares: dict[int, float] = {}
        for seg in res.segments:
            _split_segment(grid, seg, s.length, s.length_sq, shares)
        out[s.id] = shares
    return out


def _split_segment(grid, seg, total_len: float, total_sq, shares):
    """Clip one chart segment at the cell lines and credit each piece to its
    cell. Cut parameters are exact rationals; only the final length is float."""
    poly, a, b = seg
    x0, y0, x1, y1 = bounding_box(grid.surface.polygons[poly])
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
        cid = cell_of_point(grid, poly, mid)
        piece = float(t1 - t0) * frac_of_total * total_len
        if piece:
            shares[cid] = shares.get(cid, 0.0) + piece


# ----------------------------------------------------------------------------
# Closed geodesics as Lyndon words


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
class WordCensus:
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
    follows = dense_follows(G, m)
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


def lyndon_census(G: ConcatGraph, T) -> WordCensus:
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
    follows = dense_follows(G, len(bounds))
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
    return WordCensus(T, found, np.asarray(G.lengths, dtype=np.float64))
