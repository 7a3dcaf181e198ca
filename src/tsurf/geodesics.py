"""Primitive closed geodesics through cone points, their counting functions,
and the occupancy measure.

A closed geodesic is a cyclic word of saddle connections with every
consecutive pair allowed, wrap-around included; a primitive one is not a
strict power of a shorter word. Both orientations of a geodesic are counted
(they are distinct words unless the reversal happens to be a rotation of
the word itself).

The census never lists words. It counts rooted closed walks by letter count
and exact length, and recovers the primitive words from those counts by
Moebius inversion over the letter count, as in the prime-orbit counting of
Parry and Pollicott (Zeta functions and the periodic orbit structure of
hyperbolic dynamics, Asterisque 187-188, 1990). Lengths are exact: a
saddle's length is q sqrt(r) with q rational and r squarefree, and a sum of
such lengths is a vector of rational coefficients over the distinct r.
Square roots of distinct squarefree integers are linearly independent over
Q (Besicovitch, J. London Math. Soc. 15, 1940), so equal vectors are equal
lengths and every inclusion decision is exact.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import InvalidParams, TruncationError
from .geometry import Wedge, neg
from .paths import ConcatGraph, _dot
from .rational import parse_rational
from .unfold import integer_polygons, unfold_wedge


# Cells per chunk of the (walks x saddles) extension masks.
_MASK_CELLS = 1 << 16
# Relative width of the band around a float comparison in which `F`
# decides n * l(q) <= T exactly; float errors here are about 1e-16.
_BAND = 1e-12


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


def _mobius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


class _Keys:
    """Exact lengths sum_i a_i sqrt(radicands[i]) / den, each a tuple of
    nonnegative integer coefficients a_i, with integer ids in order of first
    appearance and the correctly rounded float of each.

    `step` adds a saddle's length class to many keys at once through a
    (key id, class) -> key id table that is filled on demand."""

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
        self._sqrt: dict[int, list[Decimal]] = {}
        classes: dict[tuple[int, ...], int] = {}
        cls = []
        for q, r in saddles:
            vec = [0] * len(self.radicands)
            vec[at[r]] = int(q * self.den)
            cls.append(classes.setdefault(tuple(vec), len(classes)))
        self.classes = list(classes)
        self.cls = np.array(cls, dtype=np.int64)
        self.class_key = np.array([self.id(v) for v in self.classes], dtype=np.int64)
        self.table = np.full((64, max(len(classes), 1)), -1, dtype=np.int64)

    def id(self, vec: tuple[int, ...]) -> int:
        k = self.ids.get(vec)
        if k is None:
            k = self.ids[vec] = len(self.vecs)
            self.vecs.append(vec)
            self._floats.append(self._float(vec))
        return k

    def floats(self) -> np.ndarray:
        return np.array(self._floats)

    def step(self, key: np.ndarray, cls: np.ndarray) -> np.ndarray:
        """Ids of key[i] + the length of class cls[i]."""
        if len(self.vecs) > len(self.table):
            grown = np.full((2 * len(self.vecs), self.table.shape[1]), -1,
                            dtype=np.int64)
            grown[:len(self.table)] = self.table
            self.table = grown
        nxt = self.table[key, cls]
        miss = nxt < 0
        if miss.any():
            width = self.table.shape[1]
            for pair in np.unique(key[miss] * width + cls[miss]).tolist():
                k, c = divmod(pair, width)
                self.table[k, c] = self.id(tuple(
                    a + b for a, b in zip(self.vecs[k], self.classes[c])))
            return self.step(key, cls)
        return nxt

    def _rational(self, vec) -> Fraction | None:
        if any(vec[i] for i in self.irrational):
            return None
        return Fraction(0 if self.one is None else vec[self.one], self.den)

    def _bracket(self, vec, prec: int) -> tuple[Decimal, Decimal]:
        """Decimals lo < l < hi around an irrational length l, about prec
        digits apart: the sum at prec digits, widened by a bound on its
        rounding (each square root, product, sum and the quotient round
        once, relative 10**(1 - prec) / 2 each, and all terms are >= 0)."""
        with localcontext() as ctx:
            ctx.prec = prec
            roots = self._sqrt.get(prec)
            if roots is None:
                roots = self._sqrt[prec] = [Decimal(r).sqrt() for r in self.radicands]
            v = sum((a * s for a, s in zip(vec, roots) if a), Decimal(0)) / self.den
            # the bracket's own rounding at prec + 10 digits is far inside
            # the widening
            ctx.prec = prec + 10
            err = (v * (2 * len(vec) + 4)).scaleb(1 - prec)
            return v - err, v + err

    def _float(self, vec) -> float:
        exact = self._rational(vec)
        if exact is not None:
            return float(exact)
        prec = 40
        while True:
            lo, hi = self._bracket(vec, prec)
            if float(lo) == float(hi):
                return float(lo)
            prec *= 2

    def le(self, vec, T: Fraction) -> bool:
        """Whether the length vec is <= T, exactly. A length with an
        irrational part is never equal to T, so rising precision decides."""
        exact = self._rational(vec)
        if exact is not None:
            return exact <= T
        prec = 40
        while True:
            # Decimal compares with a Fraction exactly
            lo, hi = self._bracket(vec, prec)
            if hi <= T:
                return True
            if lo > T:
                return False
            prec *= 2


def _length_keys(G: ConcatGraph, m: int) -> _Keys:
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


class GeodesicCensus:
    """The oriented primitive closed geodesics of exact length <= T, counted
    by length: counts[i] words have length lengths[i], the correctly rounded
    float of an exact length, in ascending order. Counting functions accept
    any T' <= T (a Fraction or a float; the float T itself stands for the
    exact bound) and decide l(q) <= T' exactly; beyond T they raise
    TruncationError."""

    def __init__(self, T: Fraction, keys: _Keys, key_ids, counts,
                 visit_at, visit_saddle, visit_count, saddle_lengths):
        self.bound = T
        self.T = float(T)
        lengths = keys.floats()[key_ids]
        order = np.argsort(lengths, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        self._keys = keys
        self._vecs = [keys.vecs[k] for k in key_ids[order].tolist()]
        self.lengths = lengths[order]
        self.counts = counts[order]
        self.saddle_lengths = saddle_lengths
        # visits: visit_count[v] occurrences of saddle visit_saddle[v] over
        # the words of length lengths[visit_at[v]]
        self._visit_at = rank[visit_at]
        self._visit_saddle = visit_saddle
        self._visit_weight = visit_count / self.lengths[self._visit_at]

    @property
    def n_saddles(self) -> int:
        return len(self.saddle_lengths)

    def _bound(self, T) -> Fraction:
        if T is None or (isinstance(T, float) and T == self.T):
            return self.bound
        T = parse_rational(T)
        if T > self.bound:
            raise TruncationError(f"bound {T} exceeds the census bound {self.T}")
        return T

    def _included(self, T) -> tuple[np.ndarray, Fraction]:
        """Which lengths are <= T. Rounding is monotone, so only a length
        whose float equals the float of T needs the exact test."""
        T = self._bound(T)
        t = float(T)
        inc = self.lengths < t
        for i in range(int(inc.sum()), int(np.searchsorted(self.lengths, t, "right"))):
            inc[i] = self._keys.le(self._vecs[i], T)
        return inc, T

    def pi(self, T=None) -> int:
        inc, _ = self._included(T)
        return int(self.counts[inc].sum())

    def F(self, T=None) -> float:
        """Sum over pairs (n, q) with n * l(q) <= T of the primitive length
        l(q); each q contributes l(q) * floor(T / l(q))."""
        inc, T = self._included(T)
        t = float(T)
        lens = self.lengths[inc]
        n = np.floor(t / lens)
        # n = floor(T / l) unless T / l is within rounding of an integer
        near = ((np.abs(n * lens - t) <= _BAND * t)
                | (np.abs((n + 1) * lens - t) <= _BAND * t))
        vecs = [v for v, keep in zip(self._vecs, inc) if keep]
        for i in np.flatnonzero(near).tolist():
            k = int(n[i])
            while k > 1 and not self._keys.le(tuple(a * k for a in vecs[i]), T):
                k -= 1
            while self._keys.le(tuple(a * (k + 1) for a in vecs[i]), T):
                k += 1
            n[i] = k
        return float(np.dot(self.counts[inc] * lens, n))

    def visits(self, T=None) -> np.ndarray:
        """Per saddle s: the sum over words q with l(q) <= T of
        (occurrences of s in q) / l(q)."""
        inc, _ = self._included(T)
        take = inc[self._visit_at]
        return np.bincount(self._visit_saddle[take],
                           weights=self._visit_weight[take],
                           minlength=self.n_saddles)

    def pi_saddle(self, T=None) -> np.ndarray:
        """pi_s(T) = sum over words of (occurrences of s) * l(s)/l(q)."""
        return self.visits(T) * self.saddle_lengths


def _runs(code: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in a sorted array of ids >= 0."""
    return np.flatnonzero(np.diff(code, prepend=-1))


def _follows(G: ConcatGraph, m: int) -> np.ndarray:
    """follows[s, j]: j may follow s, among the first m saddles, read off
    the successor runs of those rows one run at a time (no temporary as
    large as the relation)."""
    a = G.after
    follows = np.zeros((m, m), dtype=bool)
    for s, r0, r1 in zip(range(m), a.ptr.tolist(), a.ptr[1:].tolist()):
        for lo, hi in zip(a.lo[r0:r1], a.hi[r0:r1]):
            ids = a.order[lo:hi]
            follows[s, ids[ids < m]] = True
    return follows


def _closing_costs(follows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """cost[r, j]: l(j) plus the least sum of the lengths of the letters
    still to be appended after j so that r may follow the last one (zero
    when r may follow j).

    One Floyd-Warshall with no zero diagonal gives D[j, u], the cheapest
    path of at least one step from j to u, weighted by the letters entered;
    the letters appended after j before closing at r cost D[j, r] - l(r)."""
    D = np.where(follows, lengths, math.inf)
    for k in range(len(lengths)):
        np.minimum(D, D[:, k, None] + D[k], out=D)
    return lengths + (D - lengths).T


def _closed_walks(follows, cost, keys: _Keys, limit: float):
    """Rooted closed walks of float length <= limit, graded by letter count
    and key: arrays (letters, root, key, count), one row per distinct
    (letters, root, key).

    A state (root r, last letter c, key, count) stands for count walks that
    start with r. Each step extends a state to the successors j of c with
    l(j) plus the cost of closing at r within limit - l(key), and merges
    equal (r, j, key) by summing counts. A state is a closed walk when r
    may follow c. The running total of walks is kept in Python ints, so no
    int64 count or sum of counts below it wraps."""
    m = len(follows)
    kf = keys.floats()
    r = np.flatnonzero(np.diagonal(cost) <= limit)
    c = r
    key = keys.class_key[keys.cls[r]]
    count = np.ones(len(r), dtype=np.int64)
    total = len(r)
    rows, n = [], 1
    while len(r):
        closed = follows[c, r]
        rows.append((np.full(int(closed.sum()), n), r[closed], key[closed],
                     count[closed]))
        if len(kf) < len(keys.vecs):
            kf = keys.floats()
        budget = limit - kf[key]
        step = max(1, _MASK_CELLS // m)
        src, nxt = [], []
        for a in range(0, len(r), step):
            mask = follows[c[a:a + step]] & (cost[r[a:a + step]]
                                              <= budget[a:a + step, None])
            s, j = np.nonzero(mask)
            src.append(s + a)
            nxt.append(j)
        src, j = np.concatenate(src), np.concatenate(nxt)
        if not len(src):
            break
        total += _dot(count, np.bincount(src, minlength=len(count)))
        if total >= 1 << 63:
            raise InvalidParams(f"{total} closed walks within the bound "
                                "reach 2**63; the counts are int64")
        code = (keys.step(key[src], keys.cls[j]) * m + r[src]) * m + j
        order = np.argsort(code, kind="stable")
        code = code[order]
        first = _runs(code)
        count = np.add.reduceat(count[src[order]], first)
        code = code[first]
        c = code % m
        r = code // m % m
        key = code // (m * m)
        n += 1
    if not rows:
        return (np.zeros(0, dtype=np.int64),) * 4
    letters, root, key, count = (np.concatenate(a) for a in zip(*rows))
    # merge the closing last letters of each (letters, root, key), sorted
    # by key, root and letters
    code = (key * m + root) * (n + 1) + letters
    order = np.argsort(code, kind="stable")
    code = code[order]
    first = _runs(code)
    code = code[first]
    return (code % (n + 1), code // (n + 1) % m, code // ((n + 1) * m),
            np.add.reduceat(count[order], first))


def enumerate_closed(G: ConcatGraph, T) -> GeodesicCensus:
    """Count the primitive closed words of the graph of exact length <= T.

    Rooted closed walks are counted by (letters n, root r, key K) with
    `_closed_walks`: a_r(n, K). A walk that is a d-th power has d times the
    letters and d times the length of its primitive root, which starts with
    the same letter, so the primitive rooted walks are
        p_r(n, K) = sum over d | n of mu(n / d) a_r(d, K d / n),
    with every term of length <= l(K) <= T. A primitive word of n letters
    has n distinct rotations, one per occurrence of each letter, so the
    words of length K number sum over n, r of p_r(n, K) / n, and saddle s
    occurs sum over n of p_s(n, K) times in them.

    The walks are pruned in floats with a margin that bounds their rounding,
    and only the keys <= T, decided exactly, are kept."""
    if T <= 0:
        raise InvalidParams("need a positive length bound")
    G.check_radius(T)
    T = parse_rational(T)
    t = float(T)
    # Rounding is monotone, so every saddle of length <= T is in the first m.
    m = int(np.searchsorted(G.lengths, t, side="right"))
    keys = _length_keys(G, m)
    follows = _follows(G, m)
    cost = _closing_costs(follows, G.lengths[:m])
    # Each float compared against the limit is a sum of at most m + 3
    # correctly rounded terms of size at most 2T, so this margin bounds its
    # rounding: no walk of exact length <= T is pruned.
    limit = t + 4 * (m + 4) * np.finfo(np.float64).eps * t
    letters, root, key, a = _closed_walks(follows, cost, keys, limit)
    # Moebius inversion: add mu(k) times each walk's count at its k-th
    # power, for squarefree k >= 2 with the power within the limit. Every
    # count and every p is below 2**63 and p >= 0, so int64 array sums,
    # which wrap silently, give p exactly.
    top = int(letters.max()) if len(letters) else 0
    code = (key * m + root) * (top + 1) + letters
    kf = keys.floats()
    at, add = [], []
    for k in range(2, top + 1):
        mu = _mobius(k)
        if mu == 0:
            continue
        for i in np.flatnonzero((letters * k <= top)
                                & (kf[key] * k <= limit)).tolist():
            power = keys.ids.get(tuple(x * k for x in keys.vecs[key[i]]))
            if power is None:
                continue
            want = (power * m + root[i]) * (top + 1) + letters[i] * k
            j = int(np.searchsorted(code, want))
            if j < len(code) and code[j] == want:
                at.append(j)
                add.append(mu * a[i])
    p = a.copy()
    np.add.at(p, np.array(at, dtype=np.int64), np.array(add, dtype=np.int64))
    # Only the keys <= T, decided exactly where the floats cannot tell.
    ids, at = np.unique(key, return_inverse=True)
    inside = kf[ids] < t
    for i in np.flatnonzero(kf[ids] == t).tolist():
        inside[i] = keys.le(keys.vecs[ids[i]], T)
    keep = inside[at]
    p, letters, root, key = p[keep], letters[keep], root[keep], key[keep]
    # Words per key: the primitive rooted walks of each (key, letters)
    # summed over roots and divided by the letters, then summed over them.
    kn, at = np.unique(key * (top + 1) + letters, return_inverse=True)
    per = np.zeros(len(kn), dtype=np.int64)
    np.add.at(per, at, p)
    per //= kn % (top + 1)
    ids, at = np.unique(kn // (top + 1), return_inverse=True)
    counts = np.zeros(len(ids), dtype=np.int64)
    np.add.at(counts, at, per)
    # Occurrences of each saddle per key: its primitive rooted walks. The
    # rows stay sorted by (key, root), so equal pairs are runs.
    kr = key * m + root
    first = _runs(kr)
    occ = np.add.reduceat(p, first)
    kr = kr[first]
    used = occ > 0
    live = counts > 0
    ids = ids[live]
    return GeodesicCensus(T, keys, ids, counts[live],
                          np.searchsorted(ids, kr[used] // m), kr[used] % m,
                          occ[used], np.asarray(G.lengths, dtype=np.float64))


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
