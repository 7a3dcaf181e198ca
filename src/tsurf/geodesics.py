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
hyperbolic dynamics, Asterisque 187-188, 1990). Lengths are exact keys
(`lengths`), so every inclusion decision is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidParams
from .geometry import neg
from .lengths import _Keys, exact_bound, keyed, merge
from .paths import ConcatGraph, Runs, _extend
from .unfold import _clip_ray, integer_polygons, unfold_wedge


# Relative width of the band around a float comparison in which `F`
# decides n * l(q) <= T exactly; float errors here are about 1e-16.
_BAND = 1e-12


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


class GeodesicCensus:
    """The oriented primitive closed geodesics of exact length <= T, counted
    by length: counts[i] words have length lengths[i], the correctly rounded
    float of an exact length, in ascending order. Counting functions accept
    any T' <= T (a Fraction or a float; the float T itself stands for the
    exact bound) and decide l(q) <= T' exactly; beyond T they raise
    TruncationError."""

    def __init__(self, T: Fraction, keys: _Keys, key_ids, counts,
                 visit_at, visit_saddle, visit_count, saddle_lengths):
        self.bound, self.T = T, float(T)
        order = keys.order(key_ids, T)
        rank = np.full(len(key_ids), -1)
        rank[order] = np.arange(len(order))
        self._keys = keys
        self._ids = key_ids[order]
        self.lengths = keys.floats()[self._ids]
        self.counts = counts[order]
        self.saddle_lengths = saddle_lengths
        # visits: visit_count[v] occurrences of saddle visit_saddle[v] over
        # the words of length lengths[visit_at[v]], for the lengths <= T
        at = rank[visit_at]
        keep = at >= 0
        self._visit_at, self._visit_saddle = at[keep], visit_saddle[keep]
        self._visit_weight = visit_count[keep] / self.lengths[self._visit_at]

    @property
    def n_saddles(self) -> int:
        return len(self.saddle_lengths)

    def _included(self, T) -> tuple[int, Fraction]:
        """How many lengths are <= T, and T as an exact bound."""
        T = exact_bound(T, self.bound)
        return self._keys.upto(self._ids, self.lengths, T), T

    def pi(self, T=None) -> int:
        n, _ = self._included(T)
        return int(self.counts[:n].sum())

    def F(self, T=None) -> float:
        """Sum over pairs (n, q) with n * l(q) <= T of the primitive length
        l(q); each q contributes l(q) * floor(T / l(q))."""
        inc, T = self._included(T)
        t = float(T)
        lens = self.lengths[:inc]
        n = np.floor(t / lens)
        # n = floor(T / l) unless T / l is within rounding of an integer
        near = ((np.abs(n * lens - t) <= _BAND * t)
                | (np.abs((n + 1) * lens - t) <= _BAND * t))
        for i in np.flatnonzero(near).tolist():
            vec = self._keys.vecs[self._ids[i]]
            k = int(n[i])
            while k > 1 and not self._keys.le(tuple(a * k for a in vec), T):
                k -= 1
            while self._keys.le(tuple(a * (k + 1) for a in vec), T):
                k += 1
            n[i] = k
        return float(np.dot(self.counts[:inc] * lens, n))

    def visits(self, T=None) -> np.ndarray:
        """Per saddle s: the sum over words q with l(q) <= T of
        (occurrences of s in q) / l(q)."""
        n, _ = self._included(T)
        take = self._visit_at < n
        return np.bincount(self._visit_saddle[take],
                           weights=self._visit_weight[take],
                           minlength=self.n_saddles)

    def pi_saddle(self, T=None) -> np.ndarray:
        """pi_s(T) = sum over words of (occurrences of s) * l(s)/l(q)."""
        return self.visits(T) * self.saddle_lengths


def _closing_costs(G: ConcatGraph, m: int) -> np.ndarray:
    """cost[r, j]: l(j) plus the least sum of the lengths of the letters
    still to be appended after j so that r may follow the last one (zero
    when r may follow j), among the first m saddles.

    One Floyd-Warshall with no zero diagonal gives D[j, u], the cheapest
    path of at least one step from j to u, weighted by the letters entered;
    the letters appended after j before closing at r cost D[j, r] - l(r)."""
    lengths = G.lengths[:m]
    D = np.full((m, m), math.inf)
    s, j = G.after.pairs(np.arange(m))
    inside = j < m
    s, j = s[inside], j[inside]
    D[s, j] = lengths[j]
    del s, j, inside
    # One buffer for every relaxation, which then takes the result in C
    # order: a fresh m x m temporary per k grew the heap by several times
    # the table, and a transposed result made each `take` copy it.
    via = np.empty_like(D)
    for k in range(m):
        np.add(D[:, k, None], D[k], out=via)
        np.minimum(D, via, out=D)
    D -= lengths
    return np.add(D.T, lengths, out=via)


def _closed_walks(after: Runs, cost, keys: _Keys, limit: float):
    """Rooted closed walks of float length <= limit, graded by letter count
    and key: arrays (letters, root, key, count), one row per distinct
    (letters, root, key).

    A state (root r, last letter c, key, count) stands for count walks that
    start with r. Each step extends a state to the successors j < m of c
    with l(j) plus the cost of closing at r within limit - l(key)
    (`paths._extend`), and merges equal (r, j, key) by summing counts. A
    state is a closed walk when r may follow c."""
    m = len(cost)
    floor = cost.min(axis=1, initial=math.inf)
    r = np.flatnonzero(np.diagonal(cost) <= limit)
    c = r
    key = keys.class_key[keys.cls[r]]
    count = np.ones(len(r), dtype=np.int64)
    total = len(r)
    rows, n, step = [], 1, keys.stepper()
    while len(r):
        closed = after.contains(c, r)
        rows.append((np.full(int(closed.sum()), n), r[closed], key[closed],
                     count[closed]))
        budget = limit - keys.floats()[key]
        # only a state with some letter that closes at r in budget extends
        live = floor[r] <= budget
        r, c, key, count, budget = (a[live] for a in (r, c, key, count, budget))

        def keep(src, j):
            # a j >= m reads a clipped cell of cost; j < m drops it
            return (j < m) & (cost.take(r[src] * m + j, mode="clip") <= budget[src])

        src, j, total = _extend(after, c, count, keep, total,
                                "closed walks within the bound")
        if not len(src):
            break
        code, count = merge((step(key[src], keys.cls[j]) * m + r[src]) * m + j,
                            count[src])
        c, r, key = code % m, code // m % m, code // (m * m)
        # the next extension's batches reuse this memory
        del src, j, code
        n += 1
    if not rows:
        return (np.zeros(0, dtype=np.int64),) * 4
    letters, root, key, count = (np.concatenate(a) for a in zip(*rows))
    # merge the closing last letters of each (letters, root, key), sorted
    # by key, root and letters
    code, count = merge((key * m + root) * (n + 1) + letters, count)
    return code % (n + 1), code // (n + 1) % m, code // ((n + 1) * m), count


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
    and the census keeps the keys <= T, decided exactly."""
    if T <= 0:
        raise InvalidParams("need a positive length bound")
    T, m, keys, limit = keyed(G, T)
    cost = _closing_costs(G, m)
    letters, root, key, a = _closed_walks(G.after, cost, keys, limit)
    # Moebius inversion: add mu(k) times each walk's count at its k-th
    # power, for squarefree k >= 2 with the power within the limit. Every
    # count and every p is below 2**63 and p >= 0, so int64 sums, which
    # wrap silently, give p exactly.
    top = int(letters.max()) if len(letters) else 0
    code = (key * m + root) * (top + 1) + letters
    at, add = [], []
    for k in range(2, top + 1):
        mu = _mobius(k)
        if mu == 0:
            continue
        for i in np.flatnonzero((letters * k <= top)
                                & (keys.floats()[key] * k <= limit)).tolist():
            power = keys.ids.get(tuple(x * k for x in keys.vecs[key[i]]))
            if power is None:
                continue
            want = (power * m + root[i]) * (top + 1) + letters[i] * k
            j = int(np.searchsorted(code, want))
            if j < len(code) and code[j] == want:
                at.append(j)
                add.append(mu * a[i])
    # the codes are distinct, so merging adds each term to its code's count
    _, p = merge(np.concatenate((code, code[at])),
                 np.concatenate((a, np.array(add, dtype=np.int64))))
    # Words per key: the primitive rooted walks of each (key, letters)
    # summed over roots and divided by the letters, then summed over them.
    kn, per = merge(key * (top + 1) + letters, p)
    ids, counts = merge(kn // (top + 1), per // (kn % (top + 1)))
    # Occurrences of each saddle per key: its primitive rooted walks.
    kr, occ = merge(key * m + root, p)
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
             if len(set(grid[ok].tolist())) >= 2 else math.nan)
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
    unit = grid.scale // D
    out: dict[int, dict[int, float]] = {}
    for sid in (range(G.n) if ids is None else ids):
        s = G.saddles[sid]
        qx, qy = int(s.holonomy[0] * D), int(s.holonomy[1] * D)
        p, v = S.cone_points[s.start].star[s.out_dir.slot]
        d = s.out_dir.vec
        copies = unfold_wedge(S, polys, qx * qx + qy * qy, p, neg(polys[p][v]),
                              (d, True, d, True))
        shares: dict[int, float] = {}
        for poly, (tx, ty), verts, *_ in copies:
            span = _clip_ray(verts, qx, qy, 1)
            if span is not None:
                _split_span(grid, poly, unit, span, qx, qy, tx, ty,
                            s.length, shares)
        out[sid] = shares
    return out


def _split_span(grid, p, unit, span, qx, qy, tx, ty, total_len, shares):
    """Cut the ray's span in one copy of polygon p (translated by (tx, ty))
    at the grid's cell lines and credit each piece to its cell. The grid's
    frame is the copy's coordinates times `unit`; every parameter is an
    integer over the common denominator L."""
    (an, ad), (bn, bd) = span
    L = math.lcm(ad, bd, unit * qx or 1, unit * qy or 1)
    ua, ub = an * (L // ad), bn * (L // bd)
    cuts = {ua, ub}
    # Line i of a coordinate sits at lo + i * size in the frame, which the
    # ray, at unit * (tau * q - t) there, reaches at
    # tau = (lo + i * size + unit * t) / (unit * q).
    x0, y0, cw, ch = grid.frames[p]
    for q, lo, size, t in ((qx, x0, cw, tx), (qy, y0, ch, ty)):
        if q:
            step = L // (unit * q)
            for i in range(1, grid.n):
                u = (lo + i * size + unit * t) * step
                if ua < u < ub:
                    cuts.add(u)
    us = sorted(cuts)
    width = ub - ua
    # The float terms are those of the chart-segment split in `Fraction`
    # (tests/oracles.py), evaluated on the same rationals: int / int rounds
    # correctly as float(Fraction) does, so the shares agree bit for bit.
    frac_of_total = math.sqrt(width * width / (L * L))
    for u0, u1 in zip(us, us[1:]):
        # the cell of the piece's midpoint, at tau = (u0 + u1) / 2L
        cid = grid.cell_of(p, unit * ((u0 + u1) * qx - 2 * L * tx),
                           unit * ((u0 + u1) * qy - 2 * L * ty), 2 * L)
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
