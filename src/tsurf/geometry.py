"""Exact planar primitives: integer direction vectors, wedges, predicates.

All incidence and ordering decisions in the library reduce to sign tests on
rational (usually integer) cross and dot products. Directions are stored as
coprime integer pairs so the hot predicates run on machine ints. Wedges are
angular sectors of angle <= pi with per-boundary inclusion flags; keeping
them below a half-turn makes membership a pair of cross-product signs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def neg(u):
    return (-u[0], -u[1])


def norm_sq(u):
    return u[0] * u[0] + u[1] * u[1]


def norm_dir(v) -> tuple[int, int]:
    """Collapse a rational vector to its coprime integer direction."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no direction")
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        x = Fraction(x)
        y = Fraction(y)
        m = x.denominator * y.denominator
        ix = int(x * m)
        iy = int(y * m)
    else:
        ix, iy = int(x), int(y)
    g = math.gcd(ix, iy)
    return (ix // g, iy // g)


def same_dir(u, v) -> bool:
    """Parallel and pointing the same way."""
    return cross(u, v) == 0 and dot(u, v) > 0


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

    def is_zero_angle(self) -> bool:
        return same_dir(self.a, self.b)


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


def convex_clip(verts, xlo, xhi, ylo, yhi):
    """Sutherland-Hodgman clip of a convex ccw polygon against an axis box.

    Exact rational arithmetic; returns the clipped vertex list (possibly
    empty, possibly degenerate with zero area).
    """
    def clip_half(poly, inside, intersect):
        out = []
        n = len(poly)
        for i in range(n):
            cur, nxt = poly[i], poly[(i + 1) % n]
            cin, nin = inside(cur), inside(nxt)
            if cin:
                out.append(cur)
            if cin != nin:
                out.append(intersect(cur, nxt))
        return out

    def x_cut(c, bound):
        def inter(p, q):
            t = Fraction(bound - p[0], q[0] - p[0])
            return (Fraction(bound), p[1] + t * (q[1] - p[1]))
        return inter

    def y_cut(c, bound):
        def inter(p, q):
            t = Fraction(bound - p[1], q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), Fraction(bound))
        return inter

    poly = [(Fraction(x), Fraction(y)) for x, y in verts]
    for bound, keep, inter in (
        (xlo, lambda p: p[0] >= xlo, x_cut("x", xlo)),
        (xhi, lambda p: p[0] <= xhi, x_cut("x", xhi)),
        (ylo, lambda p: p[1] >= ylo, y_cut("y", ylo)),
        (yhi, lambda p: p[1] <= yhi, y_cut("y", yhi)),
    ):
        if not poly:
            return []
        poly = clip_half(poly, keep, inter)
    return poly


def polygon_area(verts) -> Fraction:
    """Signed area (positive for ccw), exact."""
    s = Fraction(0)
    n = len(verts)
    for i in range(n):
        s += cross(verts[i], verts[(i + 1) % n])
    return s / 2
