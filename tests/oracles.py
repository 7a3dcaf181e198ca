"""Slow, independent reference implementations that the fast code must match.

- `angle_ccw_at_least_pi`: the pairwise exact half-turn test that decided
  every concatenation pair before the graph was read off angular intervals.
- `bisect_lambda_one`: the entropy root by bisection to float exhaustion,
  which the Newton solver replaced.
- `five_product_power_iteration`: the Perron iteration as it was written
  before it reused each iteration's matrix-vector products.
- `slice_min_rotation`: the least rotation as the minimum over all of them.
- `enumerate_paths`: admissible paths streamed from a heap in length order,
  which the level-synchronised census replaced.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from scipy.sparse import csr_matrix

from tsurf import BracketFailure, MismatchedCone, spectral_radius
from tsurf.geometry import cross, same_dir


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
    deg = np.diff(pattern.indptr).max()
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
    m = csr_matrix(A)
    n = m.shape[0]
    shift = max(float(np.asarray(m.sum(axis=1)).max()), 1e-30)
    mt = m.T.tocsr()
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


def slice_min_rotation(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word[i:] + word[:i] for i in range(len(word)))


def enumerate_paths(G, x: int, R):
    """(length, saddle ids) of every admissible path from cone x with length
    <= R, in nondecreasing length order (ties broken by id sequence); the
    length is the float sum of the saddle lengths in path order."""
    G.check_radius(R)
    R = float(R)
    heap = [(float(G.lengths[s]), (s,)) for s in range(G.n)
            if G.start[s] == x and G.lengths[s] <= R]
    heapq.heapify(heap)
    while heap:
        length, ids = heapq.heappop(heap)
        yield length, ids
        for j in G.out[ids[-1]]:
            ext = length + float(G.lengths[j])
            if ext <= R:
                heapq.heappush(heap, (ext, ids + (int(j),)))
